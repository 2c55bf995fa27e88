"""Span tracing of proctherm's layers, installed from outside the package.

Only the traced run calls :meth:`Tracer.install`; untraced runs never put a
wrapper into the package.  Every wrapper replaces a name where the package
binds it (a module global, a class attribute, or a module's ``np`` alias),
records one span per call (name, start, end, parent) in memory, and is
removed again by :meth:`Tracer.uninstall`.

Spans are nested by call order in this single-threaded process, so a
span's parent is the innermost span open when it starts.  A layer's self
time is its duration minus the spans of *other layer entry points* that
ran inside it; eigensolver, partial-trace, propagator and thermo helper
spans count as primitives, which are part of their caller's self time.
"""

from __future__ import annotations

import hashlib
import json
import sys
import types
from collections import Counter
from pathlib import Path
from time import perf_counter

import numpy as np

# span names that are primitives rather than layer entry points
PRIMITIVES = frozenset({
    "algebra.eigh", "algebra.eigvalsh", "algebra.ptrace",
    "thermo.log_partition", "thermo.entropy",
    "channels.propagator", "simulate.propagator",
})


class Tracer:
    """In-memory spans and counters for one traced process."""

    def __init__(self):
        # span: [name, start, end, parent index (-1 for none), nested-in-same-name]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._active: Counter = Counter()
        self.counters: Counter = Counter()
        self.maxima: dict[str, float] = {}
        self._eig_inputs: set[bytes] = set()
        self._undo: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def wrap(self, fn, name: str, post=None):
        """Function that records a span around every call of ``fn``."""
        spans, stack, active = self.spans, self._stack, self._active

        def traced(*args, **kwargs):
            idx = len(spans)
            rec = [name, perf_counter(), 0.0, stack[-1] if stack else -1,
                   active[name] > 0]
            spans.append(rec)
            stack.append(idx)
            active[name] += 1
            try:
                out = fn(*args, **kwargs)
            finally:
                active[name] -= 1
                stack.pop()
                rec[2] = perf_counter()
            if post is not None:
                post(out, args)
            return out

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def _eig_post(self, kind: str):
        def post(_out, args):
            a = args[0]
            d = a.shape[0]
            self.counters[f"algebra.{kind}_d3"] += d ** 3
            self._eig_inputs.add(hashlib.blake2b(
                np.ascontiguousarray(a), digest_size=16).digest())
            self.counters["algebra.eig_calls"] += 1
        return post

    def _run_post(self, result, _args):
        ledgers = [s.ledger for s in result.snapshots] + [result.final]
        dims = [br.state.shape[0] for lg in ledgers for br in lg.branches.values()]
        self._maximum("simulate.dim_max", max(dims, default=0))
        self._maximum("simulate.branches_max",
                      max(len(lg.branches) for lg in ledgers))
        self.counters["simulate.branch_steps"] += sum(
            len(tr.per_prefix) for tr in result.traces)
        self.counters["simulate.pruned_mass"] += result.final.pruned_mass

    def _write_post(self, paths, _args):
        self.counters["report.bytes"] += sum(Path(p).stat().st_size for p in paths)

    def _maximum(self, key: str, value: float) -> None:
        self.maxima[key] = max(self.maxima.get(key, value), value)

    # -- installation --------------------------------------------------------

    def _replace(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def _rebind_everywhere(self, original, name: str, post=None) -> None:
        """Wrap ``original`` in every proctherm module that binds it."""
        wrapped = self.wrap(original, name, post)
        for mod in _package_modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._replace(mod, attr, wrapped)

    def install(self) -> None:
        import proctherm.algebra as algebra
        import proctherm.channels as channels
        import proctherm.cli  # noqa: F401  (its bindings are rebound below)
        import proctherm.dilation as dilation
        import proctherm.protocol as protocol
        import proctherm.report as report
        import proctherm.scenario as scenario
        import proctherm.simulate as simulate
        import proctherm.thermo as thermo
        import proctherm.verify as verify

        # eigensolvers: each module's ``np`` alias gets a linalg with counted
        # eigh/eigvalsh, leaving numpy itself untouched
        linalg = types.ModuleType("numpy.linalg")
        linalg.__dict__.update(np.linalg.__dict__)
        linalg.eigh = self.wrap(np.linalg.eigh, "algebra.eigh", self._eig_post("eigh"))
        linalg.eigvalsh = self.wrap(np.linalg.eigvalsh, "algebra.eigvalsh",
                                    self._eig_post("eigvalsh"))
        np_alias = types.ModuleType("numpy")
        np_alias.__dict__.update(np.__dict__)
        np_alias.linalg = linalg
        for mod in _package_modules():
            if vars(mod).get("np") is np:
                self._replace(mod, "np", np_alias)

        self._rebind_everywhere(algebra.ptrace_factors, "algebra.ptrace")
        # propagators, told apart by the module that binds expm_herm
        for mod, name in ((simulate, "simulate.propagator"),
                          (channels, "channels.propagator")):
            self._replace(mod, "expm_herm", self.wrap(mod.expm_herm, name))
        # thermo helpers, as bound in proctherm.thermo only
        self._replace(thermo, "log_partition",
                      self.wrap(thermo.log_partition, "thermo.log_partition"))
        self._replace(thermo, "vn_entropy_mat",
                      self.wrap(thermo.vn_entropy_mat, "thermo.entropy"))

        sim = simulate.Simulator
        self._replace(sim, "run", self.wrap(sim.run, "simulate.run", self._run_post))
        self._replace(sim, "advance", self.wrap(sim.advance, "simulate.advance"))
        self._replace(sim, "run_step", self.wrap(sim.run_step, "simulate.run_step"))
        ev = thermo.ThermoEvaluator
        self._replace(ev, "branch_rows", self.wrap(ev.branch_rows, "thermo.branch_rows"))
        self._replace(ev, "ensemble", self.wrap(ev.ensemble, "thermo.ensemble"))
        self._replace(verify, "evaluate_process_tensor",
                      self.wrap(verify.evaluate_process_tensor, "channels.direct"))
        self._rebind_everywhere(verify.verify_model, "verify.checks")
        self._rebind_everywhere(verify.equivalence_rows, "verify.equivalence")
        self._rebind_everywhere(scenario.parse_scenario, "scenario.parse")
        self._rebind_everywhere(scenario.build_model, "scenario.build")
        for fn in (dilation.dilate_instrument, dilation.dilate_channel,
                   dilation.instrument_from_dilation, dilation.measurement_unitary,
                   dilation.dephasing_unitary):
            self._rebind_everywhere(fn, "dilation")
        self._rebind_everywhere(report.bundle_from_run, "report.bundle")
        rb = report.ReportBundle
        self._replace(rb, "write", self.wrap(rb.write, "report.bundle", self._write_post))

        counters = self.counters
        iter_segments = protocol.Protocol.iter_segments

        def counted_segments(*args, **kwargs):
            for item in iter_segments(*args, **kwargs):
                counters["protocol.segments"] += 1
                yield item

        self._replace(protocol.Protocol, "iter_segments", counted_segments)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- summaries -----------------------------------------------------------

    def mark(self) -> int:
        """Start of a new measurement window; returns the first span index."""
        self.counters.clear()
        self.maxima.clear()
        self._eig_inputs.clear()
        return len(self.spans)

    def window_metrics(self, first: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics, as (value, unit), over the spans recorded
        since ``first``."""
        spans = self.spans[first:]
        total = Counter()
        calls = Counter()
        child_entry = Counter()     # per span index: time of entry-point children
        for name, t0, t1, parent, nested in spans:
            if not nested:
                total[name] += t1 - t0
                calls[name] += 1
            if parent >= first and name not in PRIMITIVES:
                child_entry[parent] += t1 - t0
        self_time = Counter()
        for i, (name, t0, t1, parent, nested) in enumerate(spans, start=first):
            if not nested:
                self_time[name] += (t1 - t0) - child_entry[i]
        c = self.counters
        eig_calls = c["algebra.eig_calls"]
        sec, cnt = "s", "count"
        return {
            "simulate.advance_s": (total["simulate.advance"], sec),
            "simulate.advance_calls": (calls["simulate.advance"], cnt),
            "simulate.run_step_s": (total["simulate.run_step"], sec),
            "simulate.propagators": (calls["simulate.propagator"], cnt),
            "simulate.dim_max": (self.maxima.get("simulate.dim_max", 0), cnt),
            "simulate.branches_max": (self.maxima.get("simulate.branches_max", 0), cnt),
            "simulate.branch_steps": (c["simulate.branch_steps"], cnt),
            "simulate.pruned_mass": (c["simulate.pruned_mass"], "probability"),
            "algebra.eigh_calls": (calls["algebra.eigh"], cnt),
            "algebra.eigh_d3": (c["algebra.eigh_d3"], "dim3"),
            "algebra.eigvalsh_calls": (calls["algebra.eigvalsh"], cnt),
            "algebra.eigvalsh_d3": (c["algebra.eigvalsh_d3"], "dim3"),
            "algebra.eig_unique_ratio": (len(self._eig_inputs) / eig_calls
                                         if eig_calls else 0.0, "ratio"),
            "algebra.ptrace_calls": (calls["algebra.ptrace"], cnt),
            "algebra.ptrace_s": (total["algebra.ptrace"], sec),
            "thermo.ensemble_self_s": (self_time["thermo.ensemble"], sec),
            "thermo.branch_rows_s": (total["thermo.branch_rows"], sec),
            "thermo.log_partition_calls": (calls["thermo.log_partition"], cnt),
            "thermo.entropy_calls": (calls["thermo.entropy"], cnt),
            "channels.direct_s": (total["channels.direct"], sec),
            "channels.direct_calls": (calls["channels.direct"], cnt),
            "channels.propagators": (calls["channels.propagator"], cnt),
            "protocol.segments": (c["protocol.segments"], cnt),
            "verify.checks_self_s": (self_time["verify.checks"]
                                     + self_time["verify.equivalence"], sec),
            "scenario.parse_s": (total["scenario.parse"], sec),
            "scenario.build_s": (total["scenario.build"], sec),
            "dilation.calls": (calls["dilation"], cnt),
            "dilation.s": (total["dilation"], sec),
            "report.bundle_s": (total["report.bundle"], sec),
            "report.bytes": (c["report.bytes"], "bytes"),
        }

    def dump(self, path: Path) -> None:
        """Write every span recorded in this process as JSON lines."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, t0, t1, parent, nested) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": t0,
                                     "end": t1, "parent": parent}) + "\n")


def _package_modules():
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "proctherm" or n.startswith("proctherm."))]
