"""Dense complex linear algebra over labelled tensor factors.

Every operator carries a reference to a :class:`FactorRegistry` fixing an
ordered list of subsystem labels with their dimensions, plus the subset of
factors it acts on (its *support*).  Composition, embedding and partial
traces permute Kronecker factors into the registry's canonical order, so
callers never juggle index conventions by hand.

Conventions: hbar = k_B = 1 throughout (energies and temperatures share one
unit), storage is dense row-major complex, and the Hermitian
eigendecomposition is the canonical route for matrix exponentials,
logarithms and entropies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .tolerances import DEFAULT, EIG_FLOOR, HERMITIAN

__all__ = [
    "FactorRegistry",
    "OperatorMatrix",
    "DensityOperator",
    "tensor",
    "partial_trace",
    "gibbs_state",
    "dagger",
    "max_norm",
    "is_hermitian",
    "validate_density",
    "expect_herm",
    "energy_change",
    "reorder_factors",
    "embed_factors",
    "ptrace_factors",
    "expm_herm",
    "unitary_log_generator",
    "vn_entropy_mat",
    "relative_entropy_mat",
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


def expect_herm(h: np.ndarray, rho: np.ndarray) -> float:
    """tr(h rho) for Hermitian h, in O(D^2): sum_ij conj(h_ij) rho_ij."""
    return float(np.vdot(h, rho).real)


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
    perm = [cur.index(i) for i in range(len(dims))]
    return reorder_factors(big, [dims[i] for i in cur], perm)


def ptrace_factors(mat: np.ndarray, dims: Sequence[int], keep: Sequence[int]) -> np.ndarray:
    """Partial trace over all factors not listed in ``keep``."""
    k = len(dims)
    keep_sorted = sorted(keep)
    t = mat.reshape(tuple(dims) * 2)
    nfac = k
    for i in sorted(set(range(k)) - set(keep_sorted), reverse=True):
        t = np.trace(t, axis1=i, axis2=i + nfac)
        nfac -= 1
    d = math.prod(dims[i] for i in keep_sorted)
    return t.reshape(d, d)


def energy_change(before: np.ndarray, after: np.ndarray, dims: Sequence[int],
                  terms: Iterable[tuple[np.ndarray, Sequence[int]]]) -> float:
    """Sum of tr{op (rho_after - rho_before)} over Hermitian ``(op,
    positions)`` terms, each evaluated on the marginal at its factor
    positions (ascending, matching the factor order of ``op``)."""
    delta = after - before
    return sum((expect_herm(op, ptrace_factors(delta, dims, pos))
                for op, pos in terms), 0.0)


def expm_herm(h: np.ndarray, scale: complex = 1.0) -> np.ndarray:
    """exp(scale * h) for Hermitian h via spectral decomposition."""
    w, v = np.linalg.eigh(h)
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


def gibbs_mat(h: np.ndarray, beta: float) -> tuple[np.ndarray, float]:
    """Gibbs state exp(-beta h)/Z and the partition function Z."""
    w, v = np.linalg.eigh(h)
    shifted = np.exp(-beta * (w - w[0]))
    z0 = float(np.sum(shifted))
    rho = (v * (shifted / z0)) @ v.conj().T
    return 0.5 * (rho + rho.conj().T), z0 * math.exp(-beta * w[0])


def log_partition(h: np.ndarray, beta: float) -> float:
    """ln tr exp(-beta h), overflow-safe."""
    w = np.linalg.eigvalsh(h)
    return logsumexp(-beta * w)


def vn_entropy_mat(rho: np.ndarray) -> float:
    """von Neumann entropy -tr(rho ln rho) in nats; 0*ln 0 counts as 0."""
    w = np.linalg.eigvalsh(rho)
    if w[0] < -DEFAULT.psd:
        raise ValueError(f"negative eigenvalue {w[0]:.3e} beyond tolerance")
    w = w[w > EIG_FLOOR]
    return float(-np.sum(w * np.log(w)))


def relative_entropy_mat(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Relative entropy tr{rho(ln rho - ln sigma)} in nats.

    Returns ``math.inf`` when rho has spectral weight above 1e-12 outside
    the support of sigma instead of raising.
    """
    ws, vs = np.linalg.eigh(sigma)
    kernel = ws <= EIG_FLOOR
    if np.any(kernel):
        overlap = vs[:, kernel]
        mass = float(np.real(np.sum(overlap.conj() * (rho @ overlap))))
        if mass > 1e-12:
            return math.inf
    supp = ~kernel
    diag_rho = np.real(np.sum(vs[:, supp].conj() * (rho @ vs[:, supp]), axis=0))
    cross = float(np.dot(diag_rho, np.log(ws[supp])))
    return -vn_entropy_mat(rho) - cross


# ---------------------------------------------------------------------------
# labelled factors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FactorRegistry:
    """Ordered list of (label, dimension) tensor factors.

    The declaration order is canonical: every operator's factors are stored
    in this order, and all embeddings permute into it.
    """

    factors: tuple[tuple[str, int], ...]

    def __init__(self, factors: Iterable[tuple[str, int]]):
        factors = tuple((str(l), int(d)) for l, d in factors)
        labels = [l for l, _ in factors]
        if len(set(labels)) != len(labels):
            raise ValueError(f"duplicate factor labels in {labels}")
        for label, d in factors:
            if d < 1:
                raise ValueError(f"factor {label!r} has dimension {d} < 1")
        object.__setattr__(self, "factors", factors)

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(l for l, _ in self.factors)

    def dim(self, label: str) -> int:
        for l, d in self.factors:
            if l == label:
                return d
        raise KeyError(f"unknown factor label {label!r}")

    def canonical(self, labels: Iterable[str]) -> tuple[str, ...]:
        """The given labels, reordered into registry order."""
        wanted = set(labels)
        missing = wanted - set(self.labels)
        if missing:
            raise KeyError(f"unknown factor label(s) {sorted(missing)}")
        return tuple(l for l in self.labels if l in wanted)

    def dims(self, labels: Iterable[str]) -> tuple[int, ...]:
        return tuple(self.dim(l) for l in labels)

    def total_dim(self, labels: Iterable[str] | None = None) -> int:
        labels = self.labels if labels is None else tuple(labels)
        return int(np.prod([self.dim(l) for l in labels])) if labels else 1


def _frozen(mat: np.ndarray) -> np.ndarray:
    mat = np.array(mat, dtype=complex)
    mat.setflags(write=False)
    return mat


@dataclass(frozen=True, eq=False)
class OperatorMatrix:
    """Dense complex matrix over an ordered subset of registry factors."""

    registry: FactorRegistry
    support: tuple[str, ...]
    mat: np.ndarray

    def __init__(self, registry: FactorRegistry, support: Iterable[str], mat,
                 hermitian: bool = False):
        support = tuple(support)
        if support != registry.canonical(support):
            raise ValueError(
                f"support {support} is not in registry order "
                f"{registry.canonical(support)}")
        mat = _as_complex(mat)
        d = registry.total_dim(support)
        if mat.shape != (d, d):
            raise ValueError(
                f"matrix shape {mat.shape} does not match support dimension {d}")
        if hermitian and not is_hermitian(mat):
            raise ValueError("matrix declared Hermitian fails the max-norm check")
        object.__setattr__(self, "registry", registry)
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "mat", _frozen(mat))

    @classmethod
    def identity(cls, registry: FactorRegistry, support: Iterable[str]) -> "OperatorMatrix":
        support = registry.canonical(support)
        return cls(registry, support, np.eye(registry.total_dim(support)))

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    def is_hermitian(self) -> bool:
        return is_hermitian(self.mat)

    def embed(self, support: Iterable[str]) -> "OperatorMatrix":
        """Tensor with identities so the operator acts on ``support``."""
        target = self.registry.canonical(support)
        if not set(self.support) <= set(target):
            raise ValueError(f"target support {target} does not contain {self.support}")
        if target == self.support:
            return self
        dims_by = dict(self.registry.factors)
        cur = list(self.support)
        positions = [target.index(l) for l in cur]
        mat = embed_factors(self.mat, positions, [dims_by[l] for l in target])
        return OperatorMatrix(self.registry, target, mat)


@dataclass(frozen=True, eq=False)
class DensityOperator:
    """Positive-semidefinite operator with bookkeeping of its weight.

    ``weight`` is the trace: 1 for a normalized state, the record
    probability p for an unnormalized conditional state.
    """

    op: OperatorMatrix
    weight: float

    def __init__(self, op: OperatorMatrix, weight: float | None = None):
        if weight is None:
            weight = float(np.real(np.trace(op.mat)))
        object.__setattr__(self, "op", op)
        object.__setattr__(self, "weight", float(weight))

    @classmethod
    def normalized(cls, op: OperatorMatrix) -> "DensityOperator":
        return cls(op, 1.0).validate()

    @property
    def mat(self) -> np.ndarray:
        return self.op.mat

    @property
    def support(self) -> tuple[str, ...]:
        return self.op.support

    def validate(self) -> "DensityOperator":
        validate_density(self.mat, self.weight)
        return self


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def tensor(a: OperatorMatrix, b: OperatorMatrix) -> OperatorMatrix:
    """Kronecker composition of operators with disjoint supports.

    The result's factors are ordered canonically per the shared registry.
    """
    if a.registry != b.registry:
        raise ValueError("operands live on different registries")
    overlap = set(a.support) & set(b.support)
    if overlap:
        raise ValueError(f"overlapping supports {sorted(overlap)}")
    target = a.registry.canonical(a.support + b.support)
    cur = list(a.support) + list(b.support)
    dims = a.registry.dims(cur)
    perm = [cur.index(l) for l in target]
    return OperatorMatrix(a.registry, target, reorder_factors(np.kron(a.mat, b.mat), dims, perm))


def partial_trace(rho: DensityOperator, keep: Iterable[str]) -> DensityOperator:
    """Trace out every factor of ``rho`` not listed in ``keep``."""
    reg = rho.op.registry
    keep = reg.canonical(keep)
    if not set(keep) <= set(rho.support):
        raise KeyError(f"cannot keep {keep}: state supports {rho.support}")
    positions = [rho.support.index(l) for l in keep]
    mat = ptrace_factors(rho.mat, reg.dims(rho.support), positions)
    return DensityOperator(OperatorMatrix(reg, keep, mat), rho.weight)


def gibbs_state(h: OperatorMatrix, beta: float) -> tuple[DensityOperator, float]:
    """Thermal state exp(-beta h)/Z and its partition function Z."""
    if beta <= 0:
        raise ValueError(f"inverse temperature must be positive, got {beta}")
    if not h.is_hermitian():
        raise ValueError("gibbs_state requires a Hermitian Hamiltonian")
    rho, z = gibbs_mat(h.mat, beta)
    return DensityOperator(OperatorMatrix(h.registry, h.support, rho), 1.0), z
