"""Machine-speed probe for normalizing wall times on a shared host.

On a host whose other tenants contend for the same cores, caches and
memory, the same single-threaded op can run 2x slower for tens of seconds
at a time; wall time and CPU time move together, so neither removes it.
The benchmark therefore times a fixed probe at checkpoints (between the
phases of a long op, or around a round of short ops) and reports every
phase's wall time scaled by ``NOMINAL_S`` over the mean of the two probes
that bracket it: seconds at the probe speed of a quiet host.  The probe
mixes the kinds of work the ops do (LAPACK eigensolvers and BLAS products
on 256- and 64-dimensional complex matrices, and interpreted Python), so a
contention episode slows it roughly as it slows the ops.  It runs no
proctherm code, so it cannot cancel a change to proctherm.  Raw wall times
are kept next to the scaled ones in the detail file.
"""

from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter

import numpy as np

# probe wall time on an idle 2-vCPU Intel Xeon host (OpenBLAS 0.3.31, one
# thread); a fixed constant, so scaled times stay comparable between commits
NOMINAL_S = 0.06


def _hermitian(rng: np.random.Generator, d: int) -> np.ndarray:
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return g + g.conj().T


class SpeedProbe:
    """A fixed mix of dense linear algebra and interpreted Python."""

    def __init__(self):
        rng = np.random.default_rng(20191105)
        self.big = _hermitian(rng, 256)
        self.small = [_hermitian(rng, 64) for _ in range(8)]

    def _work(self) -> float:
        w, v = np.linalg.eigh(self.big)
        u = (v * np.exp(-0.1j * w)) @ v.conj().T
        rho = u @ self.big @ u.conj().T
        acc = float(np.linalg.eigvalsh(rho)[0])
        for h in self.small:
            acc += float(np.linalg.eigvalsh(h)[-1])
            acc += float(np.trace(h.reshape(8, 8, 8, 8), axis1=1, axis2=3)[0, 0].real)
        text = {str(i): [i, float(i) / 7.0, f"{i}+{i}i"] for i in range(400)}
        acc += sum(len(repr(value)) for value in text.values())
        return acc

    def measure(self) -> float:
        """Wall time of one pass of the probe."""
        t0 = perf_counter()
        self._work()
        return perf_counter() - t0


class Clock:
    """Wall time of named phases, each scaled by the probes bracketing it."""

    def __init__(self, probe: SpeedProbe, fine: bool):
        self.probe = probe
        self.fine = fine              # probe inside ops, not only between rounds
        self._last = probe.measure()
        self._open: list[dict] = []   # phases awaiting their closing probe

    @contextmanager
    def phase(self, name: str, into: list):
        """Time the block as phase ``name``; its record is appended to ``into``."""
        rec = {"name": name, "wall": 0.0, "s": None}
        t0 = perf_counter()
        try:
            yield
        finally:
            rec["wall"] = perf_counter() - t0
            self._open.append(rec)
            into.append(rec)

    def checkpoint(self, force: bool = False) -> None:
        """Probe now and scale every phase timed since the previous probe.

        Inside ops this only probes in fine mode; ``force`` probes anyway."""
        if not self._open or not (force or self.fine):
            return
        after = self.probe.measure()
        factor = NOMINAL_S / (0.5 * (self._last + after))
        self._last = after
        for rec in self._open:
            rec["s"] = rec["wall"] * factor
        self._open = []
