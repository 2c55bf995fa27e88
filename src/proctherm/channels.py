"""Completely positive maps, instruments, and direct evaluation of the
multi-time process on the system-bath space.  Every CP map acts on the
system, the first factor of system (x) bath.

An intervention sequence applied at scheduled times, interleaved with
unitary system-bath evolution, maps to the final unnormalized system state;
the probability of the outcome record is the trace of that state.  The
evaluation here is the direct route, one pass over the record tree that
shares every prefix; the autonomous reconstruction lives in
:mod:`proctherm.simulate` and must agree with it branch by branch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, Sequence

import numpy as np

from .algebra import (
    dagger,
    embed_factors,
    expm_herm,
    is_hermitian,
    max_norm,
    ptrace_factors,
)
from .protocol import Protocol, Segment, before, deepest_prefix
from .tolerances import KRAUS_TP

__all__ = [
    "CPMap",
    "Instrument",
    "InterventionSchedule",
    "evaluate_process_tensor",
]


@dataclass(frozen=True, eq=False)
class CPMap:
    """Completely positive map in Kraus form on the system."""

    kraus: tuple[np.ndarray, ...]

    def __init__(self, kraus: Sequence[np.ndarray]):
        kraus = tuple(np.asarray(k, dtype=complex) for k in kraus)
        if not kraus:
            raise ValueError("a CP map needs at least one Kraus operator")
        d = kraus[0].shape[0]
        for k in kraus:
            if k.shape != (d, d):
                raise ValueError("Kraus operators must be square and equal-sized")
        object.__setattr__(self, "kraus", kraus)

    @property
    def dim(self) -> int:
        return self.kraus[0].shape[0]

    def tp_residual(self) -> float:
        """|| sum_i K_i' K_i - 1 ||, zero for a trace-preserving map."""
        return max_norm(sum(dagger(k) @ k for k in self.kraus) - np.eye(self.dim))

    def apply_mat(self, mat: np.ndarray, dims: Sequence[int]) -> np.ndarray:
        """Apply to a matrix on factors of dimensions ``dims``, the system
        first, or to each matrix of a stack of them."""
        ops = [embed_factors(k, [0], dims) for k in self.kraus]
        return sum(k @ mat @ dagger(k) for k in ops)


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
        object.__setattr__(self, "outcomes", outcomes)
        res = self.average().tp_residual()
        if not res <= KRAUS_TP:
            raise ValueError(f"instrument is not trace-preserving on average: "
                             f"residual {res:.3e}")

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(l for l, _ in self.outcomes)

    def average(self) -> CPMap:
        kraus = tuple(k for _, cp in self.outcomes for k in cp.kraus)
        return CPMap(kraus)

    def kraus_count(self) -> int:
        return sum(len(cp.kraus) for _, cp in self.outcomes)


@dataclass(frozen=True, eq=False)
class InterventionSchedule:
    """Instruments at strictly increasing times with optional feedback.

    ``feedback`` maps a step index to {outcome-record prefix -> Instrument};
    the prefix refers to the record gathered so far, and the deepest
    declared prefix wins.  All overrides of one step must share the base
    instrument's outcome alphabet.  The attached protocol drives the
    system Hamiltonian between interventions.  ``sb_dims`` is (d_S, d_B);
    both routes read the schedule, so each input's size is checked here
    once: every Kraus operator and drive is d_S x d_S, ``h_bath`` d_B x d_B
    and ``v_coupling`` (d_S d_B) x (d_S d_B), and the last two are Hermitian.
    """

    sb_dims: tuple[int, int]
    times: tuple[float, ...]
    instruments: tuple[Instrument, ...]
    protocol: Protocol
    feedback: Mapping[int, Mapping[tuple[str, ...], Instrument]]
    h_bath: np.ndarray | None = None
    v_coupling: np.ndarray | None = None

    def __init__(self, sb_dims, times, instruments, protocol,
                 feedback=None, h_bath=None, v_coupling=None):
        if len(sb_dims) != 2 or not all(type(d) is int and d >= 1 for d in sb_dims):
            raise ValueError(f"sb_dims must be two integers >= 1 (d_S, d_B), got {sb_dims}")
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
        d_s, d_b = sb_dims
        # (input, its matrix, its dimension on each side); Segment checks a drive Hermitian
        shapes = [("h_bath", h_bath, d_b), ("v_coupling", v_coupling, d_s * d_b)]
        shapes += [(f"drive segment {i} for prefix {list(p)}", seg.h_system, d_s)
                   for p, segs in {(): protocol.base, **protocol.variants}.items()
                   for i, seg in enumerate(segs)]
        shapes += [(f"step {k} outcome {label!r}: Kraus operator", cp.kraus[0], d_s)
                   for k, inst in [*enumerate(instruments),
                                   *((k, v) for k, t in fb.items() for v in t.values())]
                   for label, cp in inst.outcomes]
        for name, mat, d in shapes:
            if mat is None:
                continue
            if np.shape(mat) != (d, d):
                raise ValueError(f"{name} must be {d}x{d}, got shape {np.shape(mat)}")
            if name in ("h_bath", "v_coupling") and not is_hermitian(np.asarray(mat)):
                raise ValueError(f"{name} is not Hermitian")
        object.__setattr__(self, "sb_dims", tuple(sb_dims))
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

    @cached_property
    def _bath_sb(self) -> np.ndarray | None:
        return None if self.h_bath is None else embed_factors(self.h_bath, [1], self.sb_dims)

    def h_sb(self, h_system: np.ndarray) -> np.ndarray:
        """Full system-bath Hamiltonian for a given system term."""
        h = embed_factors(h_system, [0], self.sb_dims)
        if self._bath_sb is not None:
            h = h + self._bath_sb
        if self.v_coupling is not None:
            h = h + self.v_coupling
        return h


def _walk(schedule: InterventionSchedule, sb_init: np.ndarray,
          times: Iterable[float]
          ) -> dict[float, tuple[list[tuple[str, ...]], np.ndarray]]:
    """System-bath matrix of every record at every time in ``times``, as
    the records and their matrices stacked in one (N, D, D) array.

    One pass over the record tree in families ``(node, records, keys,
    stack)``.  A record's node, its longest prefix that is a prefix of a
    declared feedback or variant prefix, fixes its timeline and every later
    instrument, so a family resolves them once per event and evolves as one
    stack.  A split gives one child stack per outcome, keyed parent key
    times the step's alphabet size plus outcome position; children that
    share a node form one family.  A report (after any intervention at its
    time) sorts by key, which is ``itertools.product`` order of the
    alphabets.  Each segment's H_SB is diagonalized once, where a family
    first evolves under it, on the calling thread; a family forms its
    propagator over an interval from that spectrum where it applies it.
    """
    dims = schedule.sb_dims
    d = dims[0] * dims[1]
    if np.shape(sb_init) != (d, d):
        raise ValueError(f"initial state must be a {d}x{d} system-bath matrix, "
                         f"got shape {np.shape(sb_init)}")
    protocol = schedule.protocol
    declared = [*protocol.variants, *(p for table in schedule.feedback.values() for p in table)]
    nodes = {p[:i] for p in [(), *declared] for i in range(len(p) + 1)}
    spectra: dict[Segment, tuple[np.ndarray, np.ndarray]] = {}

    def evolve(families, t_from, t_to):
        out = []
        for node, records, keys, mats in families:
            for seg, a, b in protocol.iter_segments(t_from, t_to, node):
                if seg not in spectra:
                    spectra[seg] = np.linalg.eigh(schedule.h_sb(seg.h_system))
                u = expm_herm(None, -1j * (b - a), eig=spectra[seg])
                mats = u @ mats @ dagger(u)
            out.append((node, records, keys, mats))
        return out

    def join(node, families):
        """The records of ``families`` as one family under ``node``."""
        _, records, keys, mats = zip(*families)
        return (node, [record for family in records for record in family],
                np.concatenate(keys), np.concatenate(mats))

    def split(k, families):
        radix = len(schedule.alphabet(k))   # every feedback override shares it
        children: dict[tuple[str, ...], list] = {}
        for node, records, keys, mats in families:
            for r, (label, cp) in enumerate(schedule.instrument_at(k, node).outcomes):
                # a node deepens only while it is the whole record
                deeper = node + (label,)
                child = deeper if len(node) == len(records[0]) and deeper in nodes else node
                children.setdefault(child, []).append((
                    child, [record + (label,) for record in records], keys * radix + r,
                    cp.apply_mat(mats, dims)))
        return [join(node, kids) for node, kids in children.items()]

    times = sorted(set(times))
    for t in times:
        if not (math.isfinite(t) and not before(t, protocol.t_start)
                and not before(protocol.t_end, t)):
            raise ValueError(f"time {t} outside the protocol range "
                             f"[{protocol.t_start}, {protocol.t_end}]")
    families = [((), [()], np.zeros(1, int), np.asarray(sb_init, dtype=complex)[None])]
    t_cur, k = protocol.t_start, 0
    out = {}
    for t in times:
        while k < schedule.n_steps and not before(t, schedule.times[k]):
            families = split(k, evolve(families, t_cur, schedule.times[k]))
            t_cur, k = schedule.times[k], k + 1
        families, t_cur = evolve(families, t_cur, t), t
        _, records, keys, mats = join((), families)
        order = np.argsort(keys)
        out[t] = [records[i] for i in order], mats[order]
    return out


def evaluate_process_tensor(schedule: InterventionSchedule,
                            sb_init: np.ndarray, times: Iterable[float]
                            ) -> dict[float, tuple[list[tuple[str, ...]], np.ndarray]]:
    """Unnormalized conditional system state of every record at every time,
    from the (d_S d_B, d_S d_B) system-bath state ``sb_init``.

    Applies the outcome's CP map at each scheduled time (feedback resolved
    once per record node, see :func:`_walk`) interleaved with the driven
    system-bath unitary, then traces out the bath, once per time over all
    records.  Returns ``{t: (records, states)}``: the records in
    ``itertools.product`` order of the alphabets, and an (N, d_S, d_S)
    array whose row i is the state of ``records[i]``.  The trace of a state
    is its record probability; the states at fixed t sum to a normalized one.
    """
    return {t: (records, ptrace_factors(mats, schedule.sb_dims, [0]))
            for t, (records, mats) in _walk(schedule, sb_init, times).items()}

