"""Dense complex linear algebra on arrays over ordered tensor factors.

Operators and states are plain square arrays.  A product space is the
ordered list of its factors' dimensions (``dims``), and a function that
embeds, permutes or traces out factors takes ``dims`` and the factor
positions it acts on.  Factor labels (S, B, then one ancilla per step)
exist only in a model: ``AutonomousModel.dims`` maps each to its dimension.

Conventions: hbar = k_B = 1 throughout (energies and temperatures share one
unit), storage is dense row-major complex, and the Hermitian
eigendecomposition is the canonical route for matrix exponentials,
logarithms and entropies.

:func:`eigh_ahead` diagonalizes a batch of matrices ahead of their use.
A batch of large matrices goes to one worker thread, started on the first
such batch (and again in a forked child), which works through it front to
back while the caller goes on; the caller computes any matrix the worker
has not reached when it asks for it.  Every result is bitwise what
``np.linalg.eigh`` returns, whichever thread computes it, so outputs do not
depend on the CPU count.
"""

from __future__ import annotations

import math
import os
import threading
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from .tolerances import DEFAULT, EIG_FLOOR, HERMITIAN

__all__ = [
    "dagger",
    "max_norm",
    "is_hermitian",
    "validate_density",
    "expect_herm",
    "reorder_factors",
    "embed_factors",
    "ptrace_factors",
    "expm_herm",
    "eigh_ahead",
    "unitary_log_generator",
    "vn_entropy_mat",
    "gibbs_mat",
    "log_partition",
    "logsumexp",
]


# ---------------------------------------------------------------------------
# array-level core
# ---------------------------------------------------------------------------

def _as_complex(mat) -> np.ndarray:
    a = np.asarray(mat, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    return a


def dagger(mat: np.ndarray) -> np.ndarray:
    return mat.conj().T


def max_norm(mat: np.ndarray) -> float:
    """Entrywise max-abs norm, the norm used by most checks here."""
    return float(np.max(np.abs(mat))) if np.size(mat) else 0.0


def is_hermitian(mat: np.ndarray) -> bool:
    return max_norm(mat - mat.conj().T) <= HERMITIAN


def validate_density(mat: np.ndarray, weight: float = 1.0) -> np.ndarray:
    """``mat`` if Hermitian with trace within 1e-9 of ``weight`` in [0, 1]
    and no eigenvalue below ``-DEFAULT.psd``; ValueError otherwise."""
    if not is_hermitian(mat):
        raise ValueError("density operator is not Hermitian")
    tr = float(np.real(np.trace(mat)))
    if abs(tr - weight) > 1e-9:
        raise ValueError(f"trace {tr} does not match declared weight {weight}")
    if not 0.0 <= weight <= 1.0 + 1e-10:
        raise ValueError(f"weight {weight} outside [0, 1]")
    wmin = float(np.linalg.eigvalsh(mat)[0])
    if wmin < -DEFAULT.psd:
        raise ValueError(f"negative eigenvalue {wmin:.3e} beyond tolerance")
    return mat


def expect_herm(h: np.ndarray, rho: np.ndarray) -> float | np.ndarray:
    """tr(h rho) for Hermitian h, in O(D^2): Re sum_ij conj(h_ij) rho_ij,
    one real dot product over the interleaved real and imaginary parts, so
    nothing is conjugated or copied.  For a stack ``rho`` of shape
    (N, D, D), the N values as an array."""
    h = np.ascontiguousarray(h, dtype=complex).reshape(-1).view(float)
    rho = np.ascontiguousarray(rho, dtype=complex)
    out = rho.reshape(rho.shape[:-2] + (-1,)).view(float) @ h
    return float(out) if rho.ndim == 2 else out


def reorder_factors(mat: np.ndarray, dims: Sequence[int], perm: Sequence[int]) -> np.ndarray:
    """Permute the tensor factors of a square matrix.

    ``mat`` acts on a product space whose factors have dimensions ``dims``
    (current order); factor ``perm[i]`` of the input becomes factor ``i`` of
    the output.
    """
    k = len(dims)
    if sorted(perm) != list(range(k)):
        raise ValueError(f"invalid permutation {perm}")
    t = mat.reshape(tuple(dims) * 2)
    axes = list(perm) + [p + k for p in perm]
    d = math.prod(dims[p] for p in perm)
    return np.ascontiguousarray(t.transpose(axes)).reshape(d, d)


def embed_factors(mat: np.ndarray, positions: Sequence[int], dims: Sequence[int]) -> np.ndarray:
    """Embed ``mat`` (acting on the factors at ``positions``, in that order)
    into the full product space with factor dimensions ``dims``."""
    rest = [i for i in range(len(dims)) if i not in positions]
    d_rest = math.prod(dims[i] for i in rest)
    d = mat.shape[0] * d_rest
    # mat (x) 1 by broadcasting; np.kron costs more than this at small sizes
    big = (mat[:, None, :, None] * np.eye(d_rest)[:, None, :]).reshape(d, d)
    cur = list(positions) + rest           # factor order of `big`
    if cur == list(range(len(dims))):     # already in order, and a fresh array
        return big
    perm = [cur.index(i) for i in range(len(dims))]
    return reorder_factors(big, [dims[i] for i in cur], perm)


@lru_cache(maxsize=1024)
def _ptrace_plan(dims: tuple[int, ...], keep: tuple[int, ...]) -> tuple[tuple, int]:
    """The axis pairs ``ptrace_factors`` traces, in order (last factor
    first; batch axes not counted), and the dimension it keeps."""
    k = len(dims)
    traced = sorted(set(range(k)) - set(keep), reverse=True)
    return tuple((i, i + k - n) for n, i in enumerate(traced)), math.prod(dims[i] for i in keep)


def ptrace_factors(mat: np.ndarray, dims: Sequence[int], keep: Sequence[int]) -> np.ndarray:
    """Partial trace over all factors not listed in ``keep``; axes before
    the last two are batch axes, kept as they are."""
    dims = tuple(dims)
    axes, d = _ptrace_plan(dims, tuple(keep))
    lead = mat.shape[:-2]
    t = mat.reshape(lead + dims * 2)
    for a1, a2 in axes:
        t = t.trace(axis1=len(lead) + a1, axis2=len(lead) + a2)
    return t.reshape(lead + (d, d))


def expm_herm(h: np.ndarray | None, scale: complex = 1.0,
              eig: tuple[np.ndarray, np.ndarray] | None = None) -> np.ndarray:
    """exp(scale * h) for Hermitian h via spectral decomposition.

    ``eig`` is the eigenpairs (w, v) of h when they are already known; h is
    then not read and may be None."""
    w, v = np.linalg.eigh(h) if eig is None else eig
    return (v * np.exp(scale * w)) @ v.conj().T


# A batch is handed to the worker only when every matrix has at least this
# dimension.  Median times for one pair of random Hermitian matrices,
# serial / on two threads, on a shared 2-vCPU Xeon host (NumPy 2.4,
# OpenBLAS 0.3.31 with one thread): d=8 54 / 112 us, d=16 130 / 152 us,
# d=24 297 / 288 us, d=32 395 / 277 us, d=64 1830 / 999 us.  Below d=32 the
# hand-off to the worker costs about what the second core saves.
EIGH_SPLIT_DIM = 32

_EIGH = np.linalg.eigh    # NumPy's own solver, the only one the worker calls
_worker = None
# Every claim on a batch's matrices is made under this lock, and records the
# epoch it was made in.  A forked child starts a new epoch with a new lock:
# the parent's worker thread is not in the child, so a claim of an earlier
# epoch holds nothing.
_lock = threading.Lock()
_finished = threading.Condition(_lock)
_epoch = 0


def _after_fork_in_child() -> None:
    global _worker, _lock, _finished, _epoch
    _worker = None
    _lock = threading.Lock()
    _finished = threading.Condition(_lock)
    _epoch += 1


if hasattr(os, "register_at_fork"):
    # the lock is held across fork(), so no batch is forked in mid-claim
    os.register_at_fork(before=lambda: _lock.acquire(),
                        after_in_parent=lambda: _lock.release(),
                        after_in_child=_after_fork_in_child)


def _quota_cpus(cpu_max: str) -> int | None:
    """Whole CPUs a cgroup CPU quota allows, at least 1, from the text of a
    cgroup v2 ``cpu.max`` file ("<quota> <period>" or "max <period>"); a
    cgroup v1 quota reads as its ``cpu.cfs_quota_us`` and
    ``cpu.cfs_period_us`` joined by a space.  None when there is no quota
    ("max", a negative quota, or no text)."""
    fields = cpu_max.split()
    if len(fields) != 2 or fields[0] == "max" or int(fields[0]) < 0:
        return None
    return max(1, int(fields[0]) // int(fields[1]))


def _cgroup_cpu_max() -> str:
    """The CPU quota of the cgroup mounted at /sys/fs/cgroup (v2, else v1),
    as :func:`_quota_cpus` reads it; "" when no such file is readable.  In
    a container that is the container's own cgroup; a quota set on a cgroup
    below the mount root, or on an ancestor, is not seen."""
    def read(name):
        with open("/sys/fs/cgroup/" + name, encoding="ascii") as f:
            return f.read().strip()
    for names in (["cpu.max"], ["cpu/cpu.cfs_quota_us", "cpu/cpu.cfs_period_us"],
                  ["cpu,cpuacct/cpu.cfs_quota_us", "cpu,cpuacct/cpu.cfs_period_us"]):
        try:
            return " ".join([read(name) for name in names])
        except OSError:
            pass
    return ""


def _cpu_count() -> int:
    # On one CPU the worker gains no time and its thread costs memory: the
    # benchmark's ramp workload pinned to one CPU of the host above, 10
    # pairs of 8 s runs, serial / on two threads, read op_s.median 0.269 /
    # 0.276 s and peak RSS 67.6 / 69.6 MB.  A CPU quota below two CPUs counts
    # as one, so a throttled process does not contend with its own worker.
    n = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    if n >= 2:
        try:
            n = min(n, _quota_cpus(_cgroup_cpu_max()) or n)
        except ValueError:    # text that is not a quota
            pass
    return n


class _Batch:
    __slots__ = ("items", "back")

    def __init__(self, mats: list[np.ndarray]):
        self.items = [Eigh(self, m) for m in mats]
        self.back = len(mats) - 1

    def last_free(self) -> Eigh | None:
        """The last matrix nobody has claimed; the caller holds ``_lock``."""
        while self.back >= 0 and not self.items[self.back]._free():
            self.back -= 1
        return self.items[self.back] if self.back >= 0 else None


class Eigh:
    """The eigenpairs of one matrix of an :func:`eigh_ahead` batch, as
    :meth:`result` returns them once they are computed."""

    __slots__ = ("_batch", "_mat", "_claim", "_eig", "_error")

    def __init__(self, batch: _Batch | None, mat: np.ndarray | None, eig=None):
        self._batch, self._mat, self._claim, self._eig, self._error = batch, mat, None, eig, None

    def _free(self) -> bool:
        # not computed, and no thread of this epoch computing it
        return self._mat is not None and self._claim != _epoch

    def _compute(self) -> None:
        # outside the lock, on a matrix this thread has claimed; the input
        # and the batch are dropped once the result is in
        try:
            eig, error = _EIGH(self._mat), None
        except Exception as exc:    # raised where the result is asked for
            eig, error = None, exc
        except BaseException:       # an interrupt: the matrix is free again
            with _lock:
                self._claim = None
                _finished.notify_all()
            raise
        with _lock:
            self._eig, self._error, self._mat, self._batch = eig, error, None, None
            _finished.notify_all()

    def result(self) -> tuple[np.ndarray, np.ndarray]:
        """The eigenpairs (w, v), bitwise what ``np.linalg.eigh`` returns for
        the matrix; the exception it raised, if it raised one.

        Computed on this thread when nobody has claimed the matrix yet.
        While the worker computes it, this thread computes the batch's last
        unclaimed matrix instead, and waits only when none is left."""
        while True:
            with _lock:
                if self._mat is None:
                    break
                item = self if self._free() else self._batch.last_free()
                if item is None:
                    _finished.wait()
                    continue
                item._claim = _epoch
            item._compute()
        if self._error is not None:
            raise self._error
        return self._eig


def _work(batch: _Batch) -> None:
    # the worker: every matrix of the batch nobody has claimed, front to back
    for item in batch.items:
        with _lock:
            if not item._free():
                continue
            item._claim = _epoch
        item._compute()


def eigh_ahead(mats: Iterable[np.ndarray]) -> list[Eigh]:
    """One :class:`Eigh` handle per Hermitian matrix of ``mats``, in order,
    each resolving to bitwise what ``np.linalg.eigh`` returns for it.

    With at least two matrices of dimension ``EIGH_SPLIT_DIM`` or more and
    at least two usable CPUs, the batch is handed to one worker thread,
    created on first use, which diagonalizes the matrices front to back
    while the caller goes on; :meth:`Eigh.result` takes what the worker
    has done and computes on the caller what it has not reached.  Otherwise,
    and whenever ``np.linalg.eigh`` is not NumPy's own solver (a wrapper put
    in its place), every matrix is diagonalized by ``np.linalg.eigh`` here,
    on the calling thread, in order."""
    global _worker
    mats = list(mats)
    eigh = np.linalg.eigh
    if (len(mats) < 2 or eigh is not _EIGH
            or min(m.shape[-1] for m in mats) < EIGH_SPLIT_DIM or _cpu_count() < 2):
        return [Eigh(None, None, eigh(m)) for m in mats]
    batch = _Batch(mats)
    if _worker is None:
        from concurrent.futures import ThreadPoolExecutor
        _worker = ThreadPoolExecutor(1, thread_name_prefix="eigh")
    _worker.submit(_work, batch)
    return batch.items


def unitary_log_generator(u: np.ndarray) -> np.ndarray:
    """Hermitian G with exp(-i G) = u, principal phases in (-pi, pi]."""
    u = _as_complex(u)
    if max_norm(u @ u.conj().T - np.eye(u.shape[0])) > 1e-8:
        raise ValueError("matrix is not unitary")
    w, v = np.linalg.eig(u)
    order = np.argsort(np.angle(w))
    w, v = w[order], v[:, order].copy()
    # orthonormalize within clusters of equal eigenvalues; eigenspaces of a
    # normal matrix are mutually orthogonal already
    i = 0
    while i < len(w):
        j = i + 1
        while j < len(w) and abs(w[j] - w[i]) < 1e-8:
            j += 1
        v[:, i:j] = np.linalg.qr(v[:, i:j])[0]
        i = j
    g = (v * (-np.angle(w))) @ v.conj().T
    g = 0.5 * (g + g.conj().T)
    if max_norm(expm_herm(g, -1j) - u) > 1e-8:
        raise ValueError("failed to compute a Hermitian logarithm")
    return g


def logsumexp(values: np.ndarray) -> float:
    values = np.asarray(values, dtype=float)
    m = float(np.max(values))
    return m + math.log(float(np.sum(np.exp(values - m))))


def gibbs_mat(h: np.ndarray | None, beta: float,
              eig: tuple[np.ndarray, np.ndarray] | None = None) -> np.ndarray:
    """Gibbs state exp(-beta h)/Z, formed from the weights relative to the
    ground level, so it exists at any ground energy; ln Z is
    :func:`log_partition`'s.

    ``eig`` is the eigenpairs (w, v) of h when they are already known; h is
    then not read and may be None."""
    w, v = np.linalg.eigh(h) if eig is None else eig
    shifted = np.exp(-beta * (w - w[0]))
    rho = (v * (shifted / float(np.sum(shifted)))) @ v.conj().T
    return 0.5 * (rho + rho.conj().T)


def log_partition(h: np.ndarray, beta: float) -> float:
    """ln tr exp(-beta h), overflow-safe."""
    return logsumexp(-beta * np.linalg.eigvalsh(h))


def vn_entropy_mat(rho: np.ndarray) -> float | np.ndarray:
    """von Neumann entropy -tr(rho ln rho) in nats; 0*ln 0 counts as 0.
    For a stack ``rho`` of shape (N, D, D), the N values as an array."""
    w = np.linalg.eigvalsh(rho)
    low = float(np.min(w[..., 0]))
    if low < -DEFAULT.psd:
        raise ValueError(f"negative eigenvalue {low:.3e} beyond tolerance")
    kept = w > EIG_FLOOR
    s = -np.sum(np.where(kept, w * np.log(np.where(kept, w, 1.0)), 0.0), axis=-1)
    return float(s) if rho.ndim == 2 else s
