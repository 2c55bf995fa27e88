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

Each caller diagonalizes a matrix with ``np.linalg.eigh`` where it first
needs the spectrum, on the calling thread; nothing here starts a thread.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Sequence

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
    """Conjugate transpose of a matrix, or of each matrix of a stack."""
    return mat.conj().swapaxes(-1, -2)


def max_norm(mat: np.ndarray) -> float:
    """Entrywise max-abs norm, the norm used by most checks here."""
    return float(np.max(np.abs(mat))) if np.size(mat) else 0.0


def is_hermitian(mat: np.ndarray) -> bool:
    return max_norm(mat - mat.conj().T) <= HERMITIAN


def validate_density(mat: np.ndarray) -> np.ndarray:
    """``mat`` if Hermitian with trace within 1e-9 of 1 and no eigenvalue
    below ``-DEFAULT.psd``; ValueError otherwise."""
    if not is_hermitian(mat):
        raise ValueError("density operator is not Hermitian")
    tr = float(np.real(np.trace(mat)))
    if abs(tr - 1.0) > 1e-9:
        raise ValueError(f"trace {tr} does not match declared weight 1.0")
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
    """The axis pairs ``ptrace_factors`` traces, in order (batch axes not
    counted), and the dimension it keeps.  The largest traced factor goes
    first, ties to the later one: a trace over a factor of dimension d
    reads 1/d of its input and leaves 1/d^2, so the largest first reads
    least.  Each pair is (row axis, column axis) of the array as it stands
    after the traces before it."""
    left = list(range(len(dims)))
    axes = []
    for i in sorted(set(left) - set(keep), key=lambda i: (dims[i], i), reverse=True):
        a = left.index(i)
        axes.append((a, a + len(left)))
        left.remove(i)
    return tuple(axes), math.prod(dims[i] for i in keep)


def ptrace_factors(mat: np.ndarray, dims: Sequence[int], keep: Sequence[int]) -> np.ndarray:
    """Partial trace over all factors not listed in ``keep``; axes before
    the last two are batch axes, kept as they are.  The kept factors stay
    in their order in ``dims``; the traced ones go largest first
    (:func:`_ptrace_plan`)."""
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
