"""Trajectory-resolved thermodynamics of the autonomous model.

The supersystem is the system plus every ancilla plus the outcome
registers; it couples to the bath and, instantaneously, to the dephasing
registers.  Strong coupling is handled through the Hamiltonian of mean
force H*, defined by tr_B exp(-beta H_XB) = exp(-beta H*) Z_B, so that the
reduced equilibrium state is the Gibbs state of H* with partition function
Z* = Z_XB / Z_B.  With that normalization H* reduces to the bare system
Hamiltonian when the coupling vanishes.

Per branch (record r, probability p, conditional system+ancilla state rho):

    u = tr{(H* + beta dH*/dbeta) rho} + sum_k <H_A(k)>
    s = -ln p + S_vN(rho) + beta^2 tr{(dH*/dbeta) rho}
    f = tr{H* rho} + sum_k <H_A(k)> + T ln p - T S_vN(rho)
    q = du - w                       (first law, per branch)

Work has three channels: driving switch-sums on the system term, the
control-interaction term (window switches, or the energy kick of an
instantaneous control), and the measurement term.  The measurement term
comes in two conventions that agree on average but not per branch: the
canonical one books only the ancilla's energy change; the alternative one
books the system+ancilla energy change caused by the knowledge update and
is the one that reproduces two-point projective energy statistics on
isolated systems.

Entropy production is computed in two forms, the first-law form
Sigma = dS - beta Q and a relative-entropy form against the instantaneous
reference Gibbs states.  They are not independent: with no pruned mass they
differ by beta (w_budget - w) plus a constant fixed at t = 0.  For a thermal
initial system-bath state they agree identically and are non-negative.

Ancillas are accounted from the initial time in their declared preparation
states: before entering the dynamics each contributes constant energy and
entropy offsets, so nothing jumps when it starts interacting.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, fields
from functools import cached_property
from itertools import compress

import numpy as np

from .algebra import (
    expect_herm,
    log_partition,
    logsumexp,
    vn_entropy_mat,
)
from .simulate import BranchGroup, RunResult, Snapshot

__all__ = [
    "BranchThermo",
    "BranchRows",
    "EnsembleThermo",
    "ThermoLedger",
    "ThermoEvaluator",
    "evaluate_run",
    "ConventionError",
]


class ConventionError(ValueError):
    """A quantity was requested under assumptions the scenario violates."""


# ---------------------------------------------------------------------------
# Hamiltonian of mean force
# ---------------------------------------------------------------------------

def _log_divided_differences(lam: np.ndarray) -> np.ndarray:
    """K_ij = (ln l_i - ln l_j) / (l_i - l_j) and K_ii = 1 / l_i for l > 0,
    as f(1 - r) / l_max with r = l_min / l_max and f(y) = -ln(1 - y) / y,
    f(0) = 1: nothing overflows, and r below the unit roundoff stays finite."""
    hi = np.maximum.outer(lam, lam)
    r = np.minimum.outer(lam, lam) / hi
    return np.divide(-np.log(r), 1.0 - r, out=np.ones_like(r), where=r < 1) / hi


def _bath_moments(h_bath: np.ndarray, beta: float) -> tuple[float, float]:
    """(ln Z_B, <H_B>) of the bath's Gibbs state at ``beta``."""
    w = np.linalg.eigvalsh(h_bath)
    boltz = np.exp(-beta * (w - w[0]))
    return log_partition(h_bath, beta), float(boltz @ w / np.sum(boltz))


def _mean_force_arrays(eig: tuple[np.ndarray, np.ndarray], dims: Sequence[int],
                       x_pos: Sequence[int], bath: tuple[float, float], beta: float
                       ) -> tuple[np.ndarray, np.ndarray, float]:
    """(H*, dH*/dbeta, ln Z*) from the eigenpairs (w, v) of H_XB and the
    bath's (ln Z_B, <H_B>) at beta, in one pass.  With w0 = min w,
    M = tr_B e^{-beta (H_XB - w0)} and M' = dM/dbeta, beta H* = -ln M +
    beta w0 + ln Z_B gives dH*/dbeta = (w0 - <H_B> - D ln M[M'] - H*) / beta,
    with the Daleckii-Krein derivative D ln M[X] = V ((V' X V) o K) V' in
    M's eigenbasis, K from :func:`_log_divided_differences`.  Raises
    :class:`ConventionError` when M's lowest eigenvalue underflows (at or
    below 1e-300): its logarithm would no longer be H*.

    e^{-beta H_XB} is never formed.  M = sum_k c_k tr_B |v_k><v_k| and M'
    are one matrix product: v's rows split into (X factors, traced
    factors), the columns weighted by c = e^{-beta (w - w0)} and by
    -(w - w0) c, contracted with conj(v) over the traced factors and the
    eigen-index, 2 d_X D^2 multiply-adds for D = dim H_XB."""
    w, v = eig
    ln_z_bath, e_bath = bath
    w0 = float(w[0])
    boltz = np.exp(-beta * (w - w0))
    k = len(dims)
    kept = sorted(x_pos)
    d_x = math.prod(dims[i] for i in kept)
    # rows (kept factors, traced factors), then the eigen-index
    v_x = v.reshape(tuple(dims) + (-1,)).transpose(
        kept + [i for i in range(k) if i not in kept] + [k]).reshape(d_x, -1, len(w))
    weights = np.stack([boltz, -(w - w0) * boltz])
    both = (v_x * weights[:, None, None]).reshape(2 * d_x, -1) @ v_x.reshape(d_x, -1).conj().T
    m0, dm = both[:d_x], both[d_x:]
    m0 = 0.5 * (m0 + m0.conj().T)
    wm, vm = np.linalg.eigh(m0)
    if not wm[0] > 1e-300:
        raise ConventionError(
            f"Hamiltonian of mean force at beta={beta:g}: the lowest eigenvalue "
            f"{wm[0]:.3e} of tr_B exp(-beta (H_XB - w0)) underflows, so a "
            f"level more than ~690/beta above the ground is not resolved")
    ln_m = (vm * np.log(wm)) @ vm.conj().T
    eye = np.eye(ln_m.shape[0])
    h_star = -(ln_m) / beta + (w0 + ln_z_bath / beta) * eye
    h_star = 0.5 * (h_star + h_star.conj().T)
    dln_m = vm @ ((vm.conj().T @ dm @ vm) * _log_divided_differences(wm)) @ vm.conj().T
    dh = ((w0 - e_bath) * eye - dln_m - h_star) / beta
    ln_z_star = logsumexp(-beta * w) - ln_z_bath
    return h_star, 0.5 * (dh + dh.conj().T), ln_z_star


# ---------------------------------------------------------------------------
# per-run evaluation
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class BranchThermo:
    """One branch row of the thermodynamic ledger (all values cumulative)."""

    labels: tuple[str, ...]
    p: float
    u: float
    du: float
    w_sys: float
    w_ctrl: float
    w_meas: float
    w_meas_alt: float
    s: float
    f: float

    w = property(lambda self: self.w_sys + self.w_ctrl + self.w_meas)
    w_alt = property(lambda self: self.w_sys + self.w_ctrl + self.w_meas_alt)
    q = property(lambda self: self.du - self.w)
    q_alt = property(lambda self: self.du - self.w_alt)


class BranchRows(BranchThermo, Sequence):
    """The branch rows of one report time in ledger order, ``labels`` the
    records and each other field a column; an item is one row."""

    def __len__(self) -> int:
        return len(self.labels)

    def __getitem__(self, i: int) -> BranchThermo:
        return BranchThermo(self.labels[i], *(float(getattr(self, f.name)[i])
                                              for f in fields(self)[1:]))


@dataclass(frozen=True, eq=False)
class EnsembleThermo:
    """Ensemble aggregates at one report time.

    ``sigma_rel_ent`` is None without an exact relative-entropy reference
    (a non-thermal initial state or bare mean force) and when no branch
    survives; the sums over branches are then 0.0.
    """

    time: float
    total_weight: float
    u: float
    du: float
    w: float
    w_alt: float
    w_budget: float
    q: float
    s: float
    ds: float
    f: float
    sigma_first_law: float
    sigma_rel_ent: float | None
    pruned_mass: float


@dataclass(frozen=True, eq=False)
class ThermoLedger:
    """Branch rows per report time, in time order, and ensemble aggregates."""

    branch_rows: dict[float, BranchRows]
    ensemble_rows: tuple[EnsembleThermo, ...]


class ThermoEvaluator:
    """Evaluates the thermodynamic functionals over a finished run, one ledger
    group (one stack) at a time."""

    def __init__(self, result: RunResult):
        self.result = result
        self.model = result.model
        self.beta = self.model.beta
        self.bare = self.model.mean_force_bare
        self._mf_cache: dict[bytes, tuple[np.ndarray, np.ndarray]] = {}
        # constants of the unentered ancillas, counted from the initial time
        self._e_anc0 = [expect_herm(spec.h_ancilla, spec.ancilla_state)
                        for spec in self.model.steps]
        self._s_anc0 = [vn_entropy_mat(spec.ancilla_state) for spec in self.model.steps]
        self._s_tot0 = vn_entropy_mat(self.model.sb_init) + sum(self._s_anc0)
        h_b = self.model.h_bath
        if h_b is None:
            d_b = self.model.dims["B"]
            h_b = np.zeros((d_b, d_b))
        # (ln Z_B, <H_B>) at beta, which every mean force reads
        self._bath = _bath_moments(h_b, self.beta)

    # -- mean force ----------------------------------------------------------

    def _mean_force(self, h_sys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(H*, exact dH*/dbeta) on the system factor for one drive value,
        from one pass over the model's own S B spectrum for it."""
        key = h_sys.tobytes()
        out = self._mf_cache.get(key)
        if out is not None:
            return out
        model, beta = self.model, self.beta
        if self.bare or not model.has_sb_coupling():
            # decoupled (or declared weak-coupling): H* is the bare term
            out = (np.asarray(h_sys, dtype=complex), np.zeros_like(h_sys, dtype=complex))
        else:
            out = _mean_force_arrays(model.spectrum(("S", "B"), h_sys),
                                     model.space(("S", "B")).dims, [0], self._bath,
                                     beta)[:2]
        self._mf_cache[key] = out
        return out

    # -- branch rows ---------------------------------------------------------

    def _pieces(self, snap: Snapshot, g: BranchGroup):
        """(p, u, s_vn_plus_pending, corr, e_bare_anc, h_star_tr) for the
        records of one group, each as a length-N array."""
        space = self.model.space(g.support)
        p = g.weights
        done = snap.ledger.steps_done    # the ancillas of the later steps are pending
        rho_s = space.ptrace(g.states, ["S"]) / p[:, None, None]
        sa_labels = tuple(l for l in g.support if l != "B")
        rho_sa = rho_s if sa_labels == ("S",) else \
            space.ptrace(g.states, sa_labels) / p[:, None, None]
        h_star, dh = self._mean_force(g.h_sys)
        # factored-out and pending ancillas, then those still in the state
        e_anc = g.e_factored + sum(self._e_anc0[done:])
        if space.ancillas:
            e_anc = e_anc + space.ancilla_energy(g.states) / p
        corr = expect_herm(dh, rho_s)
        h_star_tr = expect_herm(h_star, rho_s)
        u = h_star_tr + self.beta * corr + e_anc
        s_vn = vn_entropy_mat(rho_sa) + sum(self._s_anc0[done:])
        return p, u, s_vn, corr, e_anc, h_star_tr

    @cached_property
    def _reference(self) -> tuple[float, float, float]:
        """(u0, s0, E_bare0) at the initial time, of its single branch (-ln p = 0)."""
        snap = self.result.initial
        (g,) = snap.ledger.groups
        _, u, s_vn, corr, _, _ = (float(x[0]) for x in self._pieces(snap, g))
        return u, s_vn + self.beta ** 2 * corr, self._bare_energy(snap)

    def _bare_energy(self, snap: Snapshot) -> float:
        """tr{H rho} of the inclusive state (system, bath, ancillas)."""
        total = tw = 0.0
        for g in snap.ledger.groups:
            e = self.model.space(g.support).energy(g.states, g.h_sys)
            total += float(np.sum(e + g.weights * g.e_factored))
            tw += float(np.sum(g.weights))
        return total + tw * sum(self._e_anc0[snap.ledger.steps_done:])

    def branch_rows(self, snap: Snapshot) -> BranchRows:
        """The rows of the records of ``snap`` of positive weight, in ledger
        order."""
        u0 = self._reference[0]
        ledger = snap.ledger
        columns = [[] for _ in fields(BranchRows)[1:]]
        for g in ledger.groups:
            p, u, s_vn, corr, e_anc, h_star_tr = self._pieces(snap, g)
            log_p = np.array([math.log(x) if x > 0 else 0.0 for x in p.tolist()])
            for column, x in zip(columns, (p, u, u - u0, g.w_sys, g.w_ctrl, g.w_meas,
                                           g.w_meas_alt, -log_p + s_vn + self.beta ** 2 * corr,
                                           h_star_tr + e_anc + (log_p - s_vn) / self.beta)):
                column.append(x)
        columns = [ledger.in_order(column) for column in columns]
        kept = columns[0] > 0
        return BranchRows(list(compress(ledger.records, kept.tolist())), *(c[kept] for c in columns))

    # -- ensemble ------------------------------------------------------------

    def ensemble(self, snap: Snapshot, rows: BranchRows) -> EnsembleThermo:
        """Ensemble aggregates of ``snap`` from its branch rows, as returned
        by :meth:`branch_rows` for the same snapshot, summed in row order."""
        u0, s0, e0 = self._reference
        tw = sum(rows.p.tolist(), 0.0)
        u, s, f, w, w_alt = (sum((rows.p * x).tolist(), 0.0)
                             for x in (rows.u, rows.s, rows.f, rows.w, rows.w_alt))
        du = u - tw * u0
        ds = s - tw * s0
        q = du - w
        sigma_fl = ds - self.beta * q
        e_bare = self._bare_energy(snap)
        sigma_re = None
        if rows and self.model.gibbs_initial and not self.bare:
            sigma_re = self._sigma_relent(e_bare, f)
        w_budget = e_bare - tw * e0
        return EnsembleThermo(
            time=snap.time, total_weight=tw, u=u, du=du, w=w, w_alt=w_alt,
            w_budget=w_budget, q=q, s=s, ds=ds, f=f,
            sigma_first_law=sigma_fl, sigma_rel_ent=sigma_re,
            pruned_mass=snap.ledger.pruned_mass)

    def _sigma_relent(self, e_xb: float, f: float) -> float:
        """Entropy production as a difference of relative entropies.

        ``e_xb`` is the bare energy of the inclusive state and ``f`` the
        ensemble free energy sum_r p f_r of one snapshot.  Uses unitary
        invariance of the total entropy and the degeneracy of the memory
        registers; every term reduces to branch-level data.  Both relative
        entropies are taken against Gibbs states of the same conditioned
        Hamiltonian H_XB: the total one against exp(-beta H_XB) / Z_XB, the
        supersystem one against its mean-force state with Z* = Z_XB / Z_B.
        So ln Z_XB enters both with the same sign and cancels in the
        difference, while ln Z_B, which only the mean-force normalization
        carries, stays.
        """
        beta = self.beta
        # total-state relative entropy to the reference product state,
        # without its ln Z_XB
        d_tot = beta * e_xb - self._s_tot0
        # supersystem relative entropy to its mean-force Gibbs state, without
        # its ln Z_XB: sum_r p (ln p - S_vN) + beta sum_r p (h*_tr + e_anc) = beta F
        d_x = beta * f - self._bath[0]
        return d_tot - d_x


def evaluate_run(result: RunResult) -> ThermoLedger:
    """Thermodynamic ledger for every report time of a finished run."""
    ev = ThermoEvaluator(result)
    rows = {snap.time: ev.branch_rows(snap) for snap in result.snapshots}
    return ThermoLedger(rows, tuple(ev.ensemble(snap, rows[snap.time])
                                    for snap in result.snapshots))
