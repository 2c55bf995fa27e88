"""Workload inputs, operations and the per-op correctness gate.

An op takes one scenario from its input file to a finished report.  Each
workload is a closed loop with one caller: the next op starts when the
previous one has ended and been checked.  Inputs are generated from the
seed only; proctherm sees nothing but the generated scenario files.

Every call into proctherm goes through its module attribute (for example
``simulate.Simulator``), so the wrappers a traced run installs are seen.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

import proctherm.cli as cli
import proctherm.protocol as protocol
import proctherm.report as report
import proctherm.scenario as scenario
import proctherm.simulate as simulate
import proctherm.thermo as thermo
import proctherm.tolerances as tolerances
import proctherm.verify as verify

TOL = tolerances.DEFAULT
MAX_BRANCHES = 4096  # the CLI default
SHIPPED = ("equilibrium", "driven_feedback", "measurement_work", "tpm_qutrit",
           "relaxation_two_level")
# ensemble-row fields the reference gate compares, with their tolerance name
REFERENCE_FIELDS = {"u": "first_law", "w": "first_law", "q": "first_law",
                    "s": "sigma_forms", "sigma_first_law": "sigma_forms",
                    "sigma_rel_ent": "sigma_forms"}


# ---------------------------------------------------------------------------
# generated scenarios
# ---------------------------------------------------------------------------

def _complex_cell(z: complex):
    if z.imag == 0.0:
        return float(z.real)
    return f"{z.real!r}{'+' if z.imag >= 0 else '-'}{abs(z.imag)!r}i"


def _matrix(mat: np.ndarray) -> list:
    return [[_complex_cell(complex(v)) for v in row] for row in mat]


def _random_coupling(rng: np.random.Generator, d: int, scale: float) -> np.ndarray:
    """Random Hermitian matrix with spectral norm ``scale``."""
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    h = 0.5 * (g + g.conj().T)
    return scale * h / np.linalg.norm(h, 2)


def _instrument(kraus_by_label: dict[str, list[np.ndarray]]) -> dict:
    return {"outcomes": [{"label": label, "kraus": [_matrix(k) for k in kraus]}
                         for label, kraus in kraus_by_label.items()]}


_Z_MEAS = {"g": [np.diag([1.0, 0.0])], "e": [np.diag([0.0, 1.0])]}
_X_MEAS = {"+": [0.5 * np.array([[1.0, 1.0], [1.0, 1.0]])],
           "-": [0.5 * np.array([[1.0, -1.0], [-1.0, 1.0]])]}


def branching_scenario(seed: int, n_steps: int = 6, b_dim: int = 2) -> dict:
    """The reference probe: ``n_steps`` two-outcome projective measurements
    at t = 0.5 + k, alternating Z and X, on a qubit coupled to a
    ``b_dim``-level bath by a seeded random Hermitian coupling of scale 0.3,
    under a two-segment drive; a report after each step and at the end."""
    rng = np.random.default_rng([seed, n_steps, b_dim])
    t_end = float(n_steps)
    t_switch = 0.5 * t_end
    steps = [{"time": 0.5 + k, "instrument": _instrument(_Z_MEAS if k % 2 == 0 else _X_MEAS)}
             for k in range(n_steps)]
    return {
        "name": f"branching-n{n_steps}-b{b_dim}-seed{seed}",
        "beta": 1.0,
        "system": {"dim": 2},
        "bath": {"dim": b_dim, "hamiltonian": {"number": {"dim": b_dim, "spacing": 1.0}}},
        "coupling": _matrix(_random_coupling(rng, 2 * b_dim, 0.3)),
        "time": {"start": 0.0, "end": t_end},
        "protocol": [
            {"t0": 0.0, "t1": t_switch, "system": {"diag": [0.0, 1.0]}},
            {"t0": t_switch, "t1": t_end, "system": [[0.0, 0.4], [0.4, 1.0]]}],
        "steps": steps,
        "initial": {"sb": "gibbs"},
        "report_times": [0.5 + k for k in range(n_steps)] + [t_end],
    }


def ramp_scenario(seed: int) -> dict:
    """Single branch, many distinct segments: a qubit on a 32-level bath
    under a 60-plateau linear ramp, with two non-selective dephasing
    interventions and 24 report times at distinct drive values."""
    rng = np.random.default_rng([seed, 32])
    b_dim, n_intervals, t_end = 32, 59, 6.0
    h0 = np.diag([0.0, 1.0])
    h1 = np.array([[0.0, 0.6], [0.6, 1.8]])
    segs = protocol.discretize_ramp(h0, h1, 0.0, t_end, n_intervals)
    gamma = 0.3
    dephase = {"d": [math.sqrt(1 - gamma) * np.eye(2),
                     math.sqrt(gamma) * np.diag([1.0, -1.0])]}
    step = t_end / n_intervals
    # plateau centres j*step for 24 distinct plateaus, away from both steps
    plateaus = [2 + 2 * i + (1 if i >= 12 else 0) for i in range(24)]
    return {
        "name": f"ramp-seed{seed}",
        "beta": 1.0,
        "system": {"dim": 2},
        "bath": {"dim": b_dim,
                 "hamiltonian": {"diag": sorted(rng.uniform(0.0, 2.0, b_dim).tolist())}},
        "coupling": _matrix(_random_coupling(rng, 2 * b_dim, 0.3)),
        "time": {"start": 0.0, "end": t_end},
        "protocol": [{"t0": s.t0, "t1": s.t1, "system": _matrix(s.h_system)}
                     for s in segs],
        "steps": [{"time": 2.0, "instrument": _instrument(dephase)},
                  {"time": 4.0, "instrument": _instrument(dephase)}],
        "initial": {"sb": "gibbs"},
        "report_times": [j * step for j in plateaus],
    }


# ---------------------------------------------------------------------------
# ops
# ---------------------------------------------------------------------------

@dataclass
class OpOutcome:
    """Timings and outputs of one op, plus why it failed (if it did)."""

    kind: str
    key: str                                  # scenario the op ran
    phases: list[dict] = field(default_factory=list)   # speed.Clock records
    records: int = 0                          # branch rows reported
    report_json: bytes = b""
    ensemble: list[dict] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)

    def total(self, key: str = "s") -> float:
        """Scaled (``"s"``) or raw (``"wall"``) time over all phases."""
        return sum(rec[key] for rec in self.phases)


def setup(path: Path):
    """Scenario file to a model with every control dilation synthesized."""
    scen = scenario.parse_scenario(str(path))
    model = scenario.build_model(scen)
    for k in range(model.n_steps):
        for prefix in [()] + list(model.schedule.feedback.get(k, {})):
            model.hardware(k, prefix)
    return scen, model


def _equivalence_failures(rows: list[dict]) -> list[str]:
    worst_s = max((r["state_dev"] for r in rows), default=0.0)
    worst_p = max((r["prob_dev"] for r in rows), default=0.0)
    out = []
    if worst_s > TOL.equivalence_state:
        out.append(f"equivalence state deviation {worst_s:.3e} > {TOL.equivalence_state:.1e}")
    if worst_p > TOL.equivalence_prob:
        out.append(f"equivalence probability deviation {worst_p:.3e} > {TOL.equivalence_prob:.1e}")
    return out


def run_path_op(path: Path, seed: int, outdir: Path, clock) -> OpOutcome:
    """``proctherm run --mode both --out``, step by step through the API."""
    op = OpOutcome("run", path.stem)
    ph = op.phases
    with clock.phase("setup", ph):
        scen, model = setup(path)
    prune = float(scen.options.get("prune_threshold", TOL.prune))
    with clock.phase("run", ph):
        result = simulate.Simulator(model, prune=prune,
                                    max_branches=MAX_BRANCHES).run(scen.report_times)
    clock.checkpoint()
    with clock.phase("evaluate", ph):
        ledger = thermo.evaluate_run(result)
    clock.checkpoint()
    with clock.phase("check", ph):
        equivalence = verify.equivalence_rows(model, result)
    with clock.phase("bundle", ph):
        bundle = report.bundle_from_run(result, ledger, mode="both", seed=seed,
                                        checksum=scen.checksum, tolerances=TOL,
                                        equivalence=equivalence)
        bundle.write(outdir)
    clock.checkpoint()
    op.failures += _equivalence_failures(equivalence)
    _read_report(op, outdir)
    return op


def verify_path_op(path: Path, seed: int, outdir: Path, clock) -> OpOutcome:
    """``proctherm verify --out``, step by step through the API."""
    op = OpOutcome("verify", path.stem)
    ph = op.phases
    with clock.phase("setup", ph):
        scen, model = setup(path)
    prune = float(scen.options.get("prune_threshold", TOL.prune))
    with clock.phase("run", ph):
        result = verify.run_verified(model, scen.report_times, prune=prune,
                                     max_branches=MAX_BRANCHES)
    clock.checkpoint()
    with clock.phase("evaluate", ph):
        ledger = thermo.evaluate_run(result)
    clock.checkpoint()
    with clock.phase("check", ph):
        checks = verify.verify_model(model, result, ledger, tol=TOL,
                                     rng=np.random.default_rng(seed))
    with clock.phase("bundle", ph):
        bundle = report.bundle_from_run(result, ledger, mode="verify", seed=seed,
                                        checksum=scen.checksum, tolerances=TOL,
                                        checks=[c.row() for c in checks])
        bundle.write(outdir)
    clock.checkpoint()
    op.failures += [f"verify check {c.name} failed: {c.value:.3e} > {c.tolerance:.1e}"
                    for c in checks if not c.passed]
    _read_report(op, outdir)
    return op


def cli_op(path: Path, seed: int, outdir: Path, clock) -> OpOutcome:
    """``proctherm verify`` then ``proctherm run --mode both --out``, in-process."""
    op = OpOutcome("cli", path.stem)
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        with clock.phase("cli", op.phases):
            rc_verify = cli.main(["verify", "--scenario", str(path), "--seed", str(seed)])
            rc_run = cli.main(["run", "--scenario", str(path), "--mode", "both",
                               "--out", str(outdir), "--seed", str(seed)])
    clock.checkpoint()
    if rc_verify != 0:
        failed = [l for l in sink.getvalue().splitlines()
                  if "FAIL" in l or l.startswith("error")]
        op.failures.append(f"proctherm verify exited {rc_verify}: {failed[:3]}")
    if rc_run != 0:
        op.failures.append(f"proctherm run exited {rc_run}")
    _read_report(op, outdir)
    return op


def _read_report(op: OpOutcome, outdir: Path) -> None:
    op.report_json = (outdir / "report.json").read_bytes()
    doc = json.loads(op.report_json)
    op.records = len(doc["branch_rows"])
    op.ensemble = [{k: row[k] for k in ("time", *REFERENCE_FIELDS)}
                   for row in doc["ensemble_rows"]]


# ---------------------------------------------------------------------------
# correctness gate across ops
# ---------------------------------------------------------------------------

class Gate:
    """Compares each op with the seed's reference and with earlier repeats.

    ``reference`` maps a scenario key to its recorded ensemble rows; a key
    without a recorded reference is recorded from its first op in this
    process and later ops are held to it.
    """

    def __init__(self, reference: dict[str, list[dict]]):
        self.reference = dict(reference)
        self.recorded_in_run: set[str] = set()
        self._first_report: dict[tuple[str, str], bytes] = {}

    def check(self, op: OpOutcome) -> list[str]:
        failures = list(op.failures)
        first = self._first_report.setdefault((op.kind, op.key), op.report_json)
        if op.report_json != first:
            failures.append(f"{op.kind} {op.key}: report.json differs from the "
                            "first same-seed op")
        ref = self.reference.get(op.key)
        if ref is None:
            self.reference[op.key] = op.ensemble
            self.recorded_in_run.add(op.key)
        else:
            failures += compare_ensemble(op.ensemble, ref, op.key)
        return failures


def compare_ensemble(rows: list[dict], ref: list[dict], key: str) -> list[str]:
    if [r["time"] for r in rows] != [r["time"] for r in ref]:
        return [f"{key}: report times differ from the reference"]
    out = []
    for row, want in zip(rows, ref):
        for name, tol_name in REFERENCE_FIELDS.items():
            a, b = row[name], want[name]
            tol = getattr(TOL, tol_name)
            if (a is None) != (b is None) or (a is not None and not abs(a - b) <= tol):
                out.append(f"{key}: {name} at t={row['time']} is {a!r}, reference "
                           f"{b!r} (tolerance {tol_name}={tol:.0e})")
    return out


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

@dataclass
class Workload:
    """The ops of one round, in order, with the scenario files they read."""

    name: str
    ops: list[tuple]          # (op function, scenario path)
    setup_paths: list[Path]   # scenario files one setup sample parses and builds
    reference_key: str        # reference file entry for this seed
    timed_kind: str | None = None  # op kind whose wall time is op_s (None: all)


def write_scenario(doc: dict, path: Path) -> Path:
    path.write_text(yaml.safe_dump(doc, sort_keys=False), encoding="utf-8")
    return path


def make_workload(name: str, seed: int, root: Path, workdir: Path) -> Workload:
    if name == "branching":
        path = write_scenario(branching_scenario(seed), workdir / "branching.yaml")
        return Workload(name, [(run_path_op, path)], [path], str(seed))
    if name == "ramp":
        path = write_scenario(ramp_scenario(seed), workdir / "ramp.yaml")
        return Workload(name, [(run_path_op, path)], [path], str(seed))
    if name == "verify_deep":
        path = write_scenario(branching_scenario(seed, n_steps=5),
                               workdir / "verify_deep.yaml")
        return Workload(name, [(verify_path_op, path)], [path], str(seed))
    if name == "scenarios":
        paths = [root / "scenarios" / f"{s}.yaml" for s in SHIPPED]
        missing = [str(p) for p in paths if not p.is_file()]
        if missing:
            raise FileNotFoundError(f"shipped scenarios missing: {missing}")
        # every scenario through the CLI (timed as ops) and through the API
        # (timed phase by phase), alternating
        ops = []
        for p in paths:
            ops += [(cli_op, p), (verify_path_op, p), (run_path_op, p)]
        # the shipped scenarios do not depend on the seed
        return Workload(name, ops, paths, "any", timed_kind="cli")
    raise KeyError(f"unknown workload {name!r}")
