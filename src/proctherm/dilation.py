"""Synthesis of the autonomous hardware behind channels and instruments.

Channels and instruments act on the system.  A channel with m Kraus
operators becomes a unitary on system (x) ancilla acting on a fixed pure
ancilla reference state; an instrument additionally gets a projective
resolution on the ancilla whose blocks group Kraus indices by outcome.
The classical memory is two registers per step: an informational one that
records the outcome and a degenerate, maximally mixed one that dephases it
at zero energy cost.

Factor order conventions: dilation unitaries act on (system, ancilla);
the outcome-recording unitary acts on (ancilla, memory); the dephasing
unitary acts on (memory, dephaser).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .algebra import dagger, max_norm, ptrace_factors
from .channels import CPMap, Instrument
from .tolerances import DEFAULT, EIG_FLOOR, HERMITIAN, KRAUS_TP

__all__ = [
    "DilationResult",
    "dilate_channel",
    "dilate_instrument",
    "measurement_unitary",
    "dephasing_unitary",
    "apply_dilated",
    "reconstruction_error",
    "dephasing_error",
    "instrument_from_dilation",
]


@dataclass(frozen=True, eq=False)
class DilationResult:
    """Unitary model of a channel or instrument.

    ``unitary`` acts on system (x) ancilla with the system factor first;
    ``projectors`` (instruments only) resolve the ancilla identity, one
    orthogonal block per outcome.  Both sizes are read off the arrays.
    Construction refuses a ``unitary`` whose :meth:`unitarity_residual`
    exceeds ``DEFAULT.dilation_unitary``, so every synthesized or declared
    dilation is unitary; the bound ignores ``--tol-override``.
    """

    ancilla_state: np.ndarray
    unitary: np.ndarray
    projectors: tuple[np.ndarray, ...] | None = None
    outcome_labels: tuple[str, ...] | None = None

    ancilla_dim = property(lambda self: self.ancilla_state.shape[0])
    system_dim = property(lambda self: self.unitary.shape[0] // self.ancilla_dim)

    def __post_init__(self):
        res = self.unitarity_residual()
        if not res <= DEFAULT.dilation_unitary:    # NaN fails it
            raise ValueError(f"not unitary: residual {res:.3e}")

    def unitarity_residual(self) -> float:
        u = self.unitary
        return max_norm(dagger(u) @ u - np.eye(u.shape[0]))


def _completion(isometry: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the orthogonal complement of the isometry range."""
    u, _, _ = np.linalg.svd(isometry, full_matrices=True)
    return u[:, isometry.shape[1]:]


def _stinespring_unitary(kraus: Sequence[np.ndarray], d_anc: int) -> np.ndarray:
    """Unitary with U(|psi> (x) |0>) = sum_i (K_i|psi>) (x) |i>."""
    d = kraus[0].shape[0]
    big = d * d_anc
    isometry = np.zeros((big, d), dtype=complex)
    for i, k in enumerate(kraus):
        # row index (s, a) = s*d_anc + a
        isometry[i::d_anc, :] = k
    res = max_norm(dagger(isometry) @ isometry - np.eye(d))
    if not res <= KRAUS_TP:
        raise ValueError(f"Kraus completeness violated: residual {res:.3e}")
    u = np.zeros((big, big), dtype=complex)
    u[:, 0::d_anc] = isometry          # columns hit by |psi> (x) |0>
    rest = _completion(isometry)
    cols = [s * d_anc + a for s in range(d) for a in range(1, d_anc)]
    for j, c in enumerate(cols):
        u[:, c] = rest[:, j]
    return u


def dilate_channel(channel: CPMap, ancilla_dim: int | None = None) -> DilationResult:
    """Minimal unitary dilation: ancilla dimension = number of Kraus terms.

    ``ancilla_dim`` may pad the ancilla beyond the minimal size; the extra
    directions never acquire amplitude.
    """
    m = len(channel.kraus)
    d_anc = m if ancilla_dim is None else int(ancilla_dim)
    if d_anc < m:
        raise ValueError(f"ancilla of dimension {d_anc} cannot host {m} Kraus terms")
    u = _stinespring_unitary(channel.kraus, d_anc)
    ref = np.zeros((d_anc, d_anc), dtype=complex)
    ref[0, 0] = 1.0
    return DilationResult(ref, u)


def dilate_instrument(inst: Instrument, ancilla_dim: int | None = None) -> DilationResult:
    """Dilation with ancilla projectors grouping Kraus indices by outcome.

    Reading the ancilla in the projective resolution and keeping block r
    reproduces the outcome-r map exactly; summing over outcomes recovers the
    channel dilation.  Padded ancilla directions are absorbed into the last
    outcome's projector so the resolution stays complete.
    """
    # the outcome that owns each Kraus index
    owner = [r for r, (_, cp) in enumerate(inst.outcomes) for _ in cp.kraus]
    d_anc = len(owner) if ancilla_dim is None else int(ancilla_dim)
    base = dilate_channel(inst.average(), d_anc)
    owner += owner[-1:] * (d_anc - len(owner))
    projectors = np.zeros((len(inst.outcomes), d_anc, d_anc), dtype=complex)
    for i, r in enumerate(owner):
        projectors[r, i, i] = 1.0
    return DilationResult(base.ancilla_state, base.unitary, tuple(projectors), inst.labels)


def apply_dilated(dr: DilationResult, rho_s: np.ndarray,
                  outcome: int | None = None) -> np.ndarray:
    """Reduced action of the dilation: tr_anc{P U (rho (x) ref) U' P}, on one
    system matrix or on each of a stack of them.

    ``outcome`` selects a projector block (None for the unconditional
    channel).  Returns the unnormalized system state.
    """
    joint = np.kron(rho_s, dr.ancilla_state)
    out = dr.unitary @ joint @ dagger(dr.unitary)
    if outcome is not None:
        if dr.projectors is None:
            raise ValueError("channel dilation has no projective resolution")
        p = np.kron(np.eye(dr.system_dim), dr.projectors[outcome])
        out = p @ out @ p
    return ptrace_factors(out, [dr.system_dim, dr.ancilla_dim], [0])


def reconstruction_error(dr: DilationResult, inst: Instrument) -> float:
    """Worst entrywise gap between the dilated and the Kraus action of each
    outcome of ``inst`` on the (d^2, d, d) stack of every matrix unit E_ij.

    The full operator basis matters: a dilation can act correctly on every
    diagonal input and still get the coherences wrong."""
    d = dr.system_dim
    units = np.eye(d * d, dtype=complex).reshape(d * d, d, d)
    return max([0.0] + [max_norm(apply_dilated(dr, units, outcome=r)
                                 - sum(k @ units @ dagger(k) for k in cp.kraus))
                        for r, (_, cp) in enumerate(inst.outcomes)])


def dephasing_error(hw: DilationResult) -> float:
    """Worst entrywise gap between the memory stage of ``hw`` and the
    projective split X -> sum_r P_r X P_r (x) |r><r| it must realize.

    The memory stage records the outcome into a register prepared in |0>
    with :func:`measurement_unitary`, couples the register to a maximally
    mixed dephaser with :func:`dephasing_unitary`, and traces the dephaser
    out.  Both sides are compared on the ancilla's Choi matrix
    sum_ij |i><j| (x) Phi(|i><j|), which holds every input at once.
    """
    d, m = hw.ancilla_dim, len(hw.projectors)
    # readout isometry iso[a, r, i]: the register input fixed to |0>
    iso = measurement_unitary(hw.projectors).reshape(d, m, d, m)[..., 0]
    # dephaser Kraus blocks <k|U|l> on the register; the 1/m of the
    # dephaser state is applied once, to the sum
    blocks = dephasing_unitary(m).reshape(m, m, m, m)
    vecs = np.einsum("skrl,ari->klasi", blocks, iso).reshape(m * m, -1)
    split = np.einsum("rai,rs->rasi", np.asarray(hw.projectors), np.eye(m)).reshape(m, -1)
    got = vecs.T @ vecs.conj() / m
    return max_norm(got - split.T @ split.conj())


def instrument_from_dilation(unitary: np.ndarray, ancilla_state: np.ndarray,
                             projectors: Sequence[np.ndarray],
                             system_dim: int,
                             labels: Sequence[str] | None = None) -> Instrument:
    """Kraus form of the instrument realized by declared hardware.

    With the ancilla prepared in a mixed state sum_j lam_j |x_j><x_j|,
    the outcome-r Kraus operators on the system are
    sqrt(lam_j) <a_i| P(r) U |x_j>, one per retained eigenvector j and
    readout basis index i; eigenvalues below ``EIG_FLOOR`` and Kraus
    operators with no entry above 1e-14 are dropped.
    """
    d_anc = ancilla_state.shape[0]
    lam, chi = np.linalg.eigh(np.asarray(ancilla_state, dtype=complex))
    blocks = np.asarray(unitary, dtype=complex).reshape(
        system_dim, d_anc, system_dim, d_anc)
    outcomes = []
    for r, p in enumerate(projectors):
        # row (s, a), column (t, b):  [(1 (x) P_r) U]  then contract the
        # ancilla input leg with each retained eigenvector of its state
        pu = np.einsum("ac,sctb->satb", np.asarray(p, dtype=complex), blocks)
        contracted = np.einsum("satb,bj->satj", pu, chi)
        kraus = []
        for j in range(d_anc):
            if lam[j] < EIG_FLOOR:
                continue
            root = np.sqrt(lam[j])
            for i in range(d_anc):
                k = root * contracted[:, i, :, j]
                if np.max(np.abs(k)) > 1e-14:
                    kraus.append(k)
        if not kraus:
            kraus = [np.zeros((system_dim, system_dim), dtype=complex)]
        label = str(r + 1) if labels is None else str(labels[r])
        outcomes.append((label, CPMap(kraus)))
    return Instrument(outcomes)


def _check_projectors(projectors: Sequence[np.ndarray], where: str = "") -> np.ndarray:
    """The projectors as one (R, a, a) stack, once they resolve the ancilla
    identity in orthogonal blocks within ``HERMITIAN`` (errors begin ``where``)."""
    p = np.asarray(projectors, dtype=complex)
    d_out, d_anc = p.shape[:2]
    if max_norm(p.sum(axis=0) - np.eye(d_anc)) > HERMITIAN:
        raise ValueError(f"{where}projectors do not resolve the ancilla identity")
    # P(i) P(j) must be P(i) if i == j and vanish otherwise
    expect = np.eye(d_out)[:, :, None, None] * p[:, None]
    if max_norm(p[:, None] @ p[None, :] - expect) > HERMITIAN:
        raise ValueError(f"{where}projector blocks are not orthogonal")
    return p


def measurement_unitary(projectors: Sequence[np.ndarray]) -> np.ndarray:
    """Outcome-recording unitary on ancilla (x) memory register.

    U = sum_r P(r) (x) shift_r; acting on rho' (x) |0><0| it writes the
    outcome into the register while keeping all cross terms:
    sum_{r,r'} P(r) rho' P(r') (x) |r><r'|.
    """
    p = _check_projectors(projectors)
    d_out, d_anc = p.shape[:2]
    # U[(a, r + j), (b, j)] = P(r)[a, b]
    r, j = np.divmod(np.arange(d_out * d_out), d_out)
    u = np.zeros((d_anc, d_out, d_anc, d_out), dtype=complex)
    u[:, (r + j) % d_out, :, j] = p[r]
    return u.reshape(d_anc * d_out, d_anc * d_out)


def dephasing_unitary(d: int) -> np.ndarray:
    """Conditional-shift unitary on memory (x) dephaser, both of dimension d.

    U = sum_r |r><r| (x) shift_r.  With the dephaser maximally mixed,
    tracing it out after conjugation leaves sum_r |r><r| rho |r><r|.  The
    unitary commutes with H_M (x) 1 + 1 (x) c 1 for any memory Hamiltonian
    H_M diagonal in the record basis and a degenerate dephaser, so the
    operation costs no energy.
    """
    r, i = np.divmod(np.arange(d * d), d)
    u = np.zeros((d * d, d * d), dtype=complex)
    u[r * d + (i + r) % d, r * d + i] = 1.0
    return u
