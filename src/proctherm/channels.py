"""Completely positive maps, instruments, and direct evaluation of the
multi-time process on the system-bath space.

An intervention sequence applied at scheduled times, interleaved with
unitary system-bath evolution, maps to the final unnormalized system state;
the probability of the outcome record is the trace of that state.  The
evaluation here is the direct route, one pass over the record tree that
shares every prefix; the autonomous reconstruction lives in
:mod:`proctherm.simulate` and must agree with it branch by branch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .algebra import (
    DensityOperator,
    FactorRegistry,
    OperatorMatrix,
    dagger,
    embed_factors,
    expm_herm,
    max_norm,
    ptrace_factors,
)
from .protocol import Protocol, Segment, before, deepest_prefix
from .tolerances import DEFAULT

__all__ = [
    "CPMap",
    "Instrument",
    "InterventionSchedule",
    "evaluate_process_tensor",
    "multilinearity_check",
    "mix_cp",
]


@dataclass(frozen=True, eq=False)
class CPMap:
    """Completely positive map in Kraus form, acting on labelled factors."""

    support: tuple[str, ...]
    kraus: tuple[np.ndarray, ...]

    def __init__(self, support: Iterable[str], kraus: Sequence[np.ndarray]):
        support = tuple(support)
        kraus = tuple(np.asarray(k, dtype=complex) for k in kraus)
        if not kraus:
            raise ValueError("a CP map needs at least one Kraus operator")
        d = kraus[0].shape[0]
        for k in kraus:
            if k.shape != (d, d):
                raise ValueError("Kraus operators must be square and equal-sized")
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "kraus", kraus)

    @property
    def dim(self) -> int:
        return self.kraus[0].shape[0]

    def tp_residual(self) -> float:
        """|| sum_i K_i' K_i - 1 ||, zero for a trace-preserving map."""
        return max_norm(sum(dagger(k) @ k for k in self.kraus) - np.eye(self.dim))

    def choi(self) -> np.ndarray:
        """Choi matrix sum_i |K_i>><<K_i| (row-major vectorization)."""
        vecs = [k.reshape(-1) for k in self.kraus]
        return sum(np.outer(v, v.conj()) for v in vecs)

    def apply_mat(self, mat: np.ndarray, dims: Sequence[int],
                  positions: Sequence[int]) -> np.ndarray:
        """Apply to a matrix on a larger space; ``positions`` locate the
        support factors inside ``dims``."""
        ops = [embed_factors(k, positions, dims) for k in self.kraus]
        return sum(k @ mat @ dagger(k) for k in ops)

    def scaled(self, c: float) -> "CPMap":
        return CPMap(self.support, tuple(np.sqrt(c) * k for k in self.kraus))


def mix_cp(a: CPMap, b: CPMap, alpha: float) -> CPMap:
    """Convex mixture alpha*a + (1-alpha)*b as a single CP map."""
    if a.support != b.support:
        raise ValueError("can only mix maps on the same support")
    return CPMap(a.support, a.scaled(alpha).kraus + b.scaled(1 - alpha).kraus)


@dataclass(frozen=True, eq=False)
class Instrument:
    """Outcome-labelled family of CP maps summing to a channel."""

    outcomes: tuple[tuple[str, CPMap], ...]

    def __init__(self, outcomes: Sequence[tuple[str, CPMap]]):
        outcomes = tuple((str(label), cp) for label, cp in outcomes)
        if not outcomes:
            raise ValueError("an instrument needs at least one outcome")
        labels = [l for l, _ in outcomes]
        if len(set(labels)) != len(labels):
            raise ValueError(f"duplicate outcome labels {labels}")
        supports = {cp.support for _, cp in outcomes}
        if len(supports) != 1:
            raise ValueError("all outcome maps must share one support")
        object.__setattr__(self, "outcomes", outcomes)
        res = self.average().tp_residual()
        if res > DEFAULT.kraus_tp:
            raise ValueError(f"instrument is not trace-preserving on average: "
                             f"residual {res:.3e}")

    @property
    def support(self) -> tuple[str, ...]:
        return self.outcomes[0][1].support

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(l for l, _ in self.outcomes)

    def cp_map(self, label: str) -> CPMap:
        for l, cp in self.outcomes:
            if l == label:
                return cp
        raise KeyError(f"unknown outcome label {label!r}")

    def average(self) -> CPMap:
        kraus = tuple(k for _, cp in self.outcomes for k in cp.kraus)
        return CPMap(self.support, kraus)

    def kraus_count(self) -> int:
        return sum(len(cp.kraus) for _, cp in self.outcomes)


@dataclass(frozen=True, eq=False)
class InterventionSchedule:
    """Instruments at strictly increasing times with optional feedback.

    ``feedback`` maps a step index to {outcome-record prefix -> Instrument};
    the prefix refers to the record gathered so far, and the deepest
    declared prefix wins.  All overrides of one step must share the base
    instrument's outcome alphabet.  The attached protocol drives the
    system Hamiltonian between interventions.
    """

    registry: FactorRegistry
    times: tuple[float, ...]
    instruments: tuple[Instrument, ...]
    protocol: Protocol
    feedback: Mapping[int, Mapping[tuple[str, ...], Instrument]]
    h_bath: np.ndarray | None = None
    v_coupling: np.ndarray | None = None

    def __init__(self, registry, times, instruments, protocol,
                 feedback=None, h_bath=None, v_coupling=None):
        times = tuple(float(t) for t in times)
        instruments = tuple(instruments)
        if len(times) != len(instruments):
            raise ValueError("one instrument per intervention time")
        if not all(before(a, b) for a, b in zip(times, times[1:])):
            raise ValueError(f"intervention times must strictly increase: {times}")
        fb: dict[int, dict[tuple[str, ...], Instrument]] = {}
        for k, table in (feedback or {}).items():
            k = int(k)
            if not 0 <= k < len(times):
                raise ValueError(f"feedback references unknown step {k}")
            for prefix, inst in table.items():
                prefix = tuple(prefix)
                if len(prefix) > k:
                    raise ValueError(
                        f"feedback for step {k} may only read {k} earlier outcomes, "
                        f"got prefix {prefix}")
                if inst.labels != instruments[k].labels:
                    raise ValueError(
                        f"feedback override at step {k} changes the outcome "
                        f"alphabet {instruments[k].labels} -> {inst.labels}")
                fb.setdefault(k, {})[prefix] = inst
        object.__setattr__(self, "registry", registry)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "instruments", instruments)
        object.__setattr__(self, "protocol", protocol)
        object.__setattr__(self, "feedback", fb)
        object.__setattr__(self, "h_bath", None if h_bath is None else np.asarray(h_bath, dtype=complex))
        object.__setattr__(self, "v_coupling", None if v_coupling is None else np.asarray(v_coupling, dtype=complex))

    @property
    def n_steps(self) -> int:
        return len(self.times)

    def alphabet(self, k: int) -> tuple[str, ...]:
        return self.instruments[k].labels

    def instrument_at(self, k: int, prefix: Sequence[str]) -> Instrument:
        return deepest_prefix(self.feedback.get(k, {}), prefix, self.instruments[k])

    def h_sb(self, h_system: np.ndarray) -> np.ndarray:
        """Full system-bath Hamiltonian for a given system term."""
        dims = self.registry.dims(("S", "B"))
        h = embed_factors(h_system, [0], dims)
        if self.h_bath is not None:
            h = h + embed_factors(self.h_bath, [1], dims)
        if self.v_coupling is not None:
            h = h + self.v_coupling
        return h


def _walk(schedule: InterventionSchedule, sb_init: DensityOperator,
          times: Iterable[float],
          branches: Callable[[int, tuple[str, ...]], Sequence[tuple[str, CPMap]]]
          ) -> dict[float, dict[tuple[str, ...], np.ndarray]]:
    """System-bath matrix of every record at every time in ``times``.

    One pass over the record tree: each node is carried forward from the
    last event under its own prefix's timeline, splits at intervention k
    into one child per ``(label, map)`` of ``branches(k, prefix)``, and is
    recorded at each report time.  An intervention at a report time acts
    before the report.  Children follow their parent and label order, so
    every report lists records in ``itertools.product`` order of the
    alphabets.  Nodes share the propagator of each (segment, interval).
    """
    reg = schedule.registry
    if sb_init.support != reg.canonical(("S", "B")):
        raise ValueError("initial state must live on the system-bath factors")
    dims = reg.dims(("S", "B"))
    propagators: dict[tuple[Segment, float, float], np.ndarray] = {}

    def evolve(mat, t_from, t_to, prefix):
        for seg, a, b in schedule.protocol.iter_segments(t_from, t_to, prefix):
            u = propagators.get((seg, a, b))
            if u is None:
                u = propagators[seg, a, b] = expm_herm(schedule.h_sb(seg.h_system),
                                                       -1j * (b - a))
            mat = u @ mat @ dagger(u)
        return mat

    nodes = {(): sb_init.mat}
    t_cur, k = schedule.protocol.t_start, 0
    out = {}
    for t in sorted(set(times)):
        while k < schedule.n_steps and not before(t, schedule.times[k]):
            children = {}
            for prefix, mat in nodes.items():
                mat = evolve(mat, t_cur, schedule.times[k], prefix)
                for label, cp in branches(k, prefix):
                    positions = [("S", "B").index(l) for l in cp.support]
                    children[prefix + (label,)] = cp.apply_mat(mat, dims, positions)
            nodes, t_cur, k = children, schedule.times[k], k + 1
        nodes = {prefix: evolve(mat, t_cur, t, prefix) for prefix, mat in nodes.items()}
        out[t], t_cur = nodes, t
    return out


def evaluate_process_tensor(schedule: InterventionSchedule,
                            sb_init: DensityOperator, times: Iterable[float]
                            ) -> dict[float, dict[tuple[str, ...], DensityOperator]]:
    """Unnormalized conditional system state of every record at every time.

    Applies the outcome's CP map at each scheduled time (with feedback
    resolved from the record prefix) interleaved with the driven
    system-bath unitary, then traces out the bath.  Returns
    ``{t: {record: state}}``; the trace of a state is its record
    probability, and summing over the records at fixed t gives a normalized
    state.
    """
    reg = schedule.registry
    dims = reg.dims(("S", "B"))
    tree = _walk(schedule, sb_init, times,
                 lambda k, prefix: schedule.instrument_at(k, prefix).outcomes)
    return {t: {record: DensityOperator(OperatorMatrix(
                    reg, ("S",), ptrace_factors(mat, dims, [0])))
                for record, mat in nodes.items()}
            for t, nodes in tree.items()}


def multilinearity_check(schedule: InterventionSchedule,
                         ops_a: Sequence[CPMap], ops_b: Sequence[CPMap],
                         alpha: float, sb_init: DensityOperator,
                         t: float) -> tuple[bool, float]:
    """Check per-slot linearity of the multi-time map.

    For each slot k the sequence with the mixed map alpha*a_k + (1-alpha)*b_k
    must equal the convex combination of the two pure sequences entrywise.
    Returns (ok, max deviation); never raises on failure.
    """
    if len(ops_a) != len(ops_b):
        raise ValueError("operation lists must have equal length")
    applied = sum(1 for tk in schedule.times if not before(t, tk))
    if len(ops_a) != applied:
        raise ValueError(
            f"operation list covers {len(ops_a)} interventions but {applied} "
            f"are scheduled up to t={t}")

    def final(ops):
        tree = _walk(schedule, sb_init, [t], lambda k, _: [("", ops[k])])
        return tree[t][("",) * len(ops)]

    worst = 0.0
    for k in range(len(ops_a)):
        mixed = list(ops_a)
        mixed[k] = mix_cp(ops_a[k], ops_b[k], alpha)
        swapped = list(ops_a)
        swapped[k] = ops_b[k]
        lhs = final(mixed)
        rhs = alpha * final(ops_a) + (1 - alpha) * final(swapped)
        worst = max(worst, max_norm(lhs - rhs))
    return worst <= 1e-10, worst
