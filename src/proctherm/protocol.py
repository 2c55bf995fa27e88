"""Piecewise-constant driving protocols with outcome-conditioned variants.

A protocol is a contiguous timeline of segments, each holding the system
Hamiltonian for that interval and, optionally, an active system-ancilla
coupling window.  Feedback is expressed as replacement timelines keyed by
outcome-record prefixes; the deepest matching prefix wins, by the rule of
:func:`deepest_prefix` that also picks instruments and control hardware.
Smooth drives must be pre-discretized (see :func:`discretize_ramp`), which
makes every work integral an exact switch-sum.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence, TypeVar

import numpy as np

from .algebra import is_hermitian

__all__ = ["Segment", "Protocol", "deepest_prefix", "discretize_ramp"]

T = TypeVar("T")


def deepest_prefix(table: Mapping[tuple[str, ...], T], record: Sequence[str],
                   default: T | None = None) -> T | None:
    """The entry of ``table`` under the longest prefix of ``record``
    (the empty prefix included), or ``default`` when none is declared."""
    record = tuple(record)
    for cut in range(len(record), -1, -1):
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
    window: tuple[int, np.ndarray] | None = None  # (step index, V on system+ancilla)

    def __post_init__(self):
        if not self.t1 > self.t0:
            raise ValueError(f"empty segment [{self.t0}, {self.t1})")
        if not is_hermitian(np.asarray(self.h_system)):
            raise ValueError("segment Hamiltonian is not Hermitian")
        if self.window is not None and not is_hermitian(np.asarray(self.window[1])):
            raise ValueError("window coupling is not Hermitian")


def _validate_timeline(segments: Sequence[Segment]) -> tuple[Segment, ...]:
    segments = tuple(segments)
    if not segments:
        raise ValueError("a protocol needs at least one segment")
    for a, b in zip(segments, segments[1:]):
        if abs(a.t1 - b.t0) > 1e-12:
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
            if abs(segs[0].t0 - base[0].t0) > 1e-12 or abs(segs[-1].t1 - base[-1].t1) > 1e-12:
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
        """Segment active at time t; [t0, t1) semantics, t_end maps to the last."""
        segs = self.timeline(prefix)
        if t < segs[0].t0 - 1e-12 or t > segs[-1].t1 + 1e-12:
            raise ValueError(f"time {t} outside protocol range "
                             f"[{segs[0].t0}, {segs[-1].t1}]")
        starts = [s.t0 for s in segs]
        i = bisect.bisect_right(starts, t + 1e-15) - 1
        return segs[max(0, min(i, len(segs) - 1))]

    def iter_segments(self, t_from: float, t_to: float,
                      prefix: Sequence[str] = ()) -> Iterator[tuple[Segment, float, float]]:
        """Yield (segment, a, b) slices covering (t_from, t_to]."""
        if t_to < t_from - 1e-12:
            raise ValueError(f"reversed interval ({t_from}, {t_to})")
        if t_from < self.t_start - 1e-12 or t_to > self.t_end + 1e-12:
            raise ValueError(f"interval ({t_from}, {t_to}) not covered by the "
                             f"protocol range [{self.t_start}, {self.t_end}]")
        for seg in self.timeline(prefix):
            a, b = max(seg.t0, t_from), min(seg.t1, t_to)
            if b - a > 1e-13:
                yield seg, a, b

    def with_window(self, step: int, t0: float, t1: float, v: np.ndarray) -> "Protocol":
        """New protocol with a coupling window overlaid on every timeline."""
        window = (step, np.asarray(v, dtype=complex))

        def overlay(segs: tuple[Segment, ...]) -> list[Segment]:
            out: list[Segment] = []
            for seg in segs:
                cuts = sorted({seg.t0, seg.t1, min(max(t0, seg.t0), seg.t1),
                               min(max(t1, seg.t0), seg.t1)})
                for a, b in zip(cuts, cuts[1:]):
                    if b - a <= 1e-13:
                        continue
                    inside = a >= t0 - 1e-12 and b <= t1 + 1e-12
                    if inside and seg.window is not None:
                        raise ValueError("overlapping coupling windows")
                    out.append(Segment(a, b, seg.h_system,
                                       window if inside else seg.window))
            return out

        return Protocol(overlay(self.base),
                        {p: overlay(s) for p, s in self.variants.items()})


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
