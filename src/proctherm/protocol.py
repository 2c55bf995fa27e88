"""Piecewise-constant driving protocols with outcome-conditioned variants.

A protocol is the external drive H_S(t): a contiguous timeline of
segments, each holding the system Hamiltonian for that interval.  It knows
nothing of ancillas: a control and its coupling belong to their step
(see :mod:`proctherm.simulate`).  Feedback
is expressed as replacement timelines keyed by outcome-record prefixes;
the deepest matching prefix wins, by the rule of :func:`deepest_prefix`
that also picks instruments and control hardware.
Smooth drives must be pre-discretized (see :func:`discretize_ramp`), which
makes every work integral an exact switch-sum.  Times at most ``TIME_EPS``
apart are one instant; :func:`same_instant` and :func:`before` are the only
comparisons of two times in either route.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence, TypeVar

import numpy as np

from .algebra import is_hermitian
from .tolerances import TIME_EPS

__all__ = ["Segment", "Protocol", "deepest_prefix", "discretize_ramp",
           "same_instant", "before"]

T = TypeVar("T")


def same_instant(a: float, b: float) -> bool:
    """Whether times a and b are one instant: at most ``TIME_EPS`` apart."""
    return abs(a - b) <= TIME_EPS


def before(a: float, b: float) -> bool:
    """Whether time a falls before time b by more than one instant."""
    return a < b - TIME_EPS


def deepest_prefix(table: Mapping[tuple[str, ...], T], record: Sequence[str],
                   default: T | None = None) -> T | None:
    """The entry of ``table`` under the longest prefix of ``record``
    (the empty prefix included), or ``default`` when none is declared."""
    record = tuple(record)
    depth = max(map(len, table), default=-1)   # no longer prefix is declared
    for cut in range(min(len(record), depth), -1, -1):
        value = table.get(record[:cut])
        if value is not None:
            return value
    return default


@dataclass(frozen=True, eq=False)
class Segment:
    """One constant-Hamiltonian interval [t0, t1)."""

    t0: float
    t1: float
    h_system: np.ndarray

    def __post_init__(self):
        if not before(self.t0, self.t1):
            raise ValueError(f"empty segment [{self.t0}, {self.t1})")
        shape = np.shape(self.h_system)
        if len(shape) != 2 or shape[0] != shape[1]:
            raise ValueError(f"segment Hamiltonian must be square, got shape {shape}")
        if not is_hermitian(np.asarray(self.h_system)):
            raise ValueError("segment Hamiltonian is not Hermitian")


def _validate_timeline(segments: Sequence[Segment]) -> tuple[Segment, ...]:
    segments = tuple(segments)
    if not segments:
        raise ValueError("a protocol needs at least one segment")
    for a, b in zip(segments, segments[1:]):
        if not same_instant(a.t1, b.t0):
            raise ValueError(f"protocol gap or overlap between t={a.t1} and t={b.t0}")
    return segments


@dataclass(frozen=True, eq=False)
class Protocol:
    """Base timeline plus per-prefix replacement timelines."""

    base: tuple[Segment, ...]
    variants: Mapping[tuple[str, ...], tuple[Segment, ...]]

    def __init__(self, base: Sequence[Segment],
                 variants: Mapping[tuple[str, ...], Sequence[Segment]] | None = None):
        base = _validate_timeline(base)
        vd = {}
        for prefix, segs in (variants or {}).items():
            if not prefix:
                raise ValueError("a protocol variant needs a nonempty prefix; "
                                 "the base timeline covers the empty record")
            segs = _validate_timeline(segs)
            if not (same_instant(segs[0].t0, base[0].t0)
                    and same_instant(segs[-1].t1, base[-1].t1)):
                raise ValueError(f"variant {prefix} does not span the base timeline")
            vd[tuple(prefix)] = segs
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "variants", vd)

    @property
    def t_start(self) -> float:
        return self.base[0].t0

    @property
    def t_end(self) -> float:
        return self.base[-1].t1

    def timeline(self, prefix: Sequence[str]) -> tuple[Segment, ...]:
        """Timeline for an outcome prefix; deepest declared prefix wins."""
        return deepest_prefix(self.variants, prefix, self.base)

    def segment_at(self, t: float, prefix: Sequence[str] = ()) -> Segment:
        """The last segment starting at most one instant after t."""
        if math.isnan(t) or before(t, self.t_start) or before(self.t_end, t):
            raise ValueError(f"time {t} outside protocol range "
                             f"[{self.t_start}, {self.t_end}]")
        return [s for s in self.timeline(prefix) if not before(t, s.t0)][-1]

    def iter_segments(self, t_from: float, t_to: float,
                      prefix: Sequence[str] = ()) -> Iterator[tuple[Segment, float, float]]:
        """Yield (segment, a, b) slices covering (t_from, t_to]."""
        if before(t_to, t_from):
            raise ValueError(f"reversed interval ({t_from}, {t_to})")
        if math.isnan(t_from + t_to) or before(t_from, self.t_start) or before(self.t_end, t_to):
            raise ValueError(f"interval ({t_from}, {t_to}) not covered by the "
                             f"protocol range [{self.t_start}, {self.t_end}]")
        # a slice (a, b) with before(a, b) has a segment with before(t_from,
        # seg.t1) and before(seg.t0, t_to); along a timeline both ends
        # increase, so the scan starts at the first segment of the first
        # kind, found by bisection, and stops at the first not of the second
        timeline = self.timeline(prefix)
        first = bisect.bisect_right(timeline, t_from, key=lambda seg: seg.t1 - TIME_EPS)
        for seg in timeline[first:]:
            if not before(seg.t0, t_to):
                break
            a, b = max(seg.t0, t_from), min(seg.t1, t_to)
            if before(a, b):
                yield seg, a, b


def discretize_ramp(h0: np.ndarray, h1: np.ndarray, t0: float, t1: float,
                    n: int) -> list[Segment]:
    """Piecewise-constant version of a linear ramp with n+1 plateaus.

    Plateaus hold the ramp values at the n+1 uniform sample times, with
    half-width plateaus at both ends so the endpoint Hamiltonians are
    reached exactly; every switch then sits midway between its two sample
    times and the switch-sum work converges to the continuum integral at
    second order in 1/n.
    """
    if n < 1:
        raise ValueError("need at least one ramp interval")
    h0, h1 = np.asarray(h0, dtype=complex), np.asarray(h1, dtype=complex)
    step = (t1 - t0) / n
    out = []
    for j in range(n + 1):
        a = t0 if j == 0 else t0 + (j - 0.5) * step
        b = t1 if j == n else t0 + (j + 0.5) * step
        s = j / n
        out.append(Segment(float(a), float(b), (1 - s) * h0 + s * h1))
    return out
