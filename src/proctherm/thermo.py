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

A run is evaluated in one pass (:class:`ThermoEvaluator`): each group's
stack is read once into small reductions, and everything else, H* of every
drive value included, is computed once for all report times together.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, fields
from functools import cached_property
from itertools import compress, islice
from typing import NamedTuple

import numpy as np

from .algebra import dagger, expect_herm, log_partition, vn_entropy_mat
from .simulate import AutonomousModel, BranchGroup, RunResult, Snapshot

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
    f(0) = 1: nothing overflows, and r below the unit roundoff stays finite.
    For a (K, d) stack of spectra, the (K, d, d) stack of their K."""
    a, b = lam[..., :, None], lam[..., None, :]
    hi = np.maximum(a, b)
    r = np.minimum(a, b) / hi
    return np.divide(-np.log(r), 1.0 - r, out=np.ones_like(r), where=r < 1) / hi


def _bath_moments(h_bath: np.ndarray, beta: float) -> tuple[float, float]:
    """(ln Z_B, <H_B>) of the bath's Gibbs state at ``beta``."""
    w = np.linalg.eigvalsh(h_bath)
    boltz = np.exp(-beta * (w - w[0]))
    return log_partition(h_bath, beta), float(boltz @ w / np.sum(boltz))


def _mean_force_arrays(eigs: Sequence[tuple[np.ndarray, np.ndarray]], dims: Sequence[int],
                       x_pos: Sequence[int], bath: tuple[float, float], beta: float
                       ) -> tuple[np.ndarray, np.ndarray]:
    """(H*, dH*/dbeta) as two (K, d_X, d_X) stacks, one matrix per
    eigenpairs (w, v) of an H_XB in ``eigs``, from the bath's
    (ln Z_B, <H_B>) at beta.  With w0 = min w, M = tr_B e^{-beta (H_XB - w0)}
    and M' = dM/dbeta, beta H* = -ln M + beta w0 + ln Z_B gives
    dH*/dbeta = (w0 - <H_B> - D ln M[M'] - H*) / beta, with the
    Daleckii-Krein derivative D ln M[X] = V ((V' X V) o K) V' in M's
    eigenbasis, K from :func:`_log_divided_differences`.  Raises
    :class:`ConventionError` when the lowest eigenvalue of any M underflows
    (at or below 1e-300), naming the first such M of ``eigs``: its
    logarithm would no longer be H*.

    e^{-beta H_XB} is never formed.  Per spectrum, M = sum_k c_k tr_B
    |v_k><v_k| and M' are one matrix product: v's rows split into
    (X factors, traced factors), the columns weighted by
    c = e^{-beta (w - w0)} and by -(w - w0) c, contracted with conj(v) over
    the traced factors and the eigen-index, 2 d_X D^2 multiply-adds for
    D = dim H_XB.  The d_X x d_X rest (the eigh of M, ln M and the
    derivative) runs once on the stack of every M, so its per-call cost is
    paid once, not once per spectrum."""
    ln_z_bath, e_bath = bath
    k = len(dims)
    kept = sorted(x_pos)
    d_x = math.prod(dims[i] for i in kept)
    perm = kept + [i for i in range(k) if i not in kept] + [k]
    w0 = np.array([float(w[0]) for w, _ in eigs])[:, None, None]
    both = np.empty((len(eigs), 2 * d_x, d_x), dtype=complex)
    for out, (w, v), low in zip(both, eigs, w0.ravel()):
        boltz = np.exp(-beta * (w - low))
        # rows (kept factors, traced factors), then the eigen-index
        v_x = v.reshape(tuple(dims) + (-1,)).transpose(perm).reshape(d_x, -1, len(w))
        weights = np.stack([boltz, -(w - low) * boltz])
        out[...] = (v_x * weights[:, None, None]).reshape(2 * d_x, -1) \
            @ v_x.reshape(d_x, -1).conj().T
    m0, dm = both[:, :d_x], both[:, d_x:]
    wm, vm = np.linalg.eigh(0.5 * (m0 + dagger(m0)))
    under = np.flatnonzero(~(wm[:, 0] > 1e-300))
    if under.size:
        raise ConventionError(
            f"Hamiltonian of mean force at beta={beta:g}: the lowest eigenvalue "
            f"{wm[under[0], 0]:.3e} of tr_B exp(-beta (H_XB - w0)) underflows, so a "
            f"level more than ~690/beta above the ground is not resolved")
    vh = dagger(vm)
    eye = np.eye(d_x)
    h_star = -((vm * np.log(wm)[:, None, :]) @ vh) / beta + (w0 + ln_z_bath / beta) * eye
    h_star = 0.5 * (h_star + dagger(h_star))
    dln_m = vm @ ((vh @ dm @ vm) * _log_divided_differences(wm)) @ vh
    dh = ((w0 - e_bath) * eye - dln_m - h_star) / beta
    return h_star, 0.5 * (dh + dagger(dh))


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


class _Reduced(NamedTuple):
    """What the evaluation reads of one group's stack, unnormalized: its
    weights, its marginals on S and on S plus its ancillas (the same array
    when it holds none), the energy of those ancillas per record, and the
    group's summed bare energy sum_r (tr{H rho_r} + p_r e_factored)."""

    p: np.ndarray
    rho_s: np.ndarray
    rho_x: np.ndarray
    e_anc: np.ndarray
    e_bare: float


def _reduce(model: AutonomousModel, g: BranchGroup) -> _Reduced:
    """Read one group's stack into the reductions of :class:`_Reduced`,
    without copying or stacking a state."""
    space = model.space(g.support)
    p = g.weights
    rho_s = space.ptrace(g.states, ["S"])
    x = tuple(l for l in g.support if l != "B")
    rho_x = rho_s if x == ("S",) else space.ptrace(g.states, x)
    e_anc = space.ancilla_energy(g.states) if space.ancillas else np.zeros(len(p))
    e_bare = float(np.sum(space.energy(g.states, g.h_sys) + p * g.e_factored))
    return _Reduced(p, rho_s, rho_x, e_anc, e_bare)


class _Pass(NamedTuple):
    """The evaluated run: per snapshot, its branch columns in ledger order
    (one row per field of :class:`BranchRows` but ``labels``) and its bare
    energy tr{H rho}; and (u0, s0, E_bare0) of the initial time."""

    columns: dict[Snapshot, np.ndarray]
    e_bare: dict[Snapshot, float]
    reference: tuple[float, float, float]


class ThermoEvaluator:
    """Evaluates the thermodynamic functionals over a finished run in one
    pass over its initial time and its snapshots.  Stage 1 reads each
    group's stack once into small reductions (:func:`_reduce`).  Stage 2
    reads no state, only those reductions and the groups' tallies: H* and
    dH*/dbeta for every drive value of the run in
    one call of :func:`_mean_force_arrays`, the entropies in one
    ``vn_entropy_mat`` call per marginal size, the H* and dH*/dbeta
    expectations in one array operation, and every branch column of every
    report time as one array in ledger order.  :meth:`branch_rows` and
    :meth:`ensemble` read that pass."""

    def __init__(self, result: RunResult):
        self.result = result
        self.model = result.model
        self.beta = self.model.beta
        self.bare = self.model.mean_force_bare
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

    def _mean_forces(self, drives: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
        """(H*, exact dH*/dbeta) on the system factor as two stacks, one
        matrix per drive value of ``drives``, from the model's own S B
        spectrum of each."""
        model = self.model
        if self.bare or not model.has_sb_coupling():
            # decoupled (or declared weak-coupling): H* is the bare term
            h_star = np.array(drives, dtype=complex)
            return h_star, np.zeros_like(h_star)
        return _mean_force_arrays([model.spectrum(("S", "B"), h) for h in drives],
                                  model.space(("S", "B")).dims, [0], self._bath, self.beta)

    @cached_property
    def _pass(self) -> _Pass:
        beta, snaps = self.beta, (self.result.initial, *self.result.snapshots)
        groups = [g for snap in snaps for g in snap.ledger.groups]
        # stage 1: each stack read once
        red = [_reduce(self.model, g) for g in groups]
        # stage 2: the reductions of every group of every snapshot at once
        sizes = [len(g.records) for g in groups]
        ends = np.cumsum(sizes)
        p = np.concatenate([x.p for x in red])
        # the pending ancillas' constants after each number of finished steps
        e_pend, s_pend = ([sum(c[k:]) for k in range(len(c) + 1)]
                          for c in (self._e_anc0, self._s_anc0))
        done = np.repeat([snap.ledger.steps_done for snap in snaps for _ in snap.ledger.groups],
                         sizes)
        # H* and dH*/dbeta per distinct drive value, as (Re, Im) rows per record
        drives = {g.h_sys.tobytes(): g.h_sys for g in groups}
        slot = {key: i for i, key in enumerate(drives)}
        ops = np.stack(self._mean_forces(list(drives.values())), axis=1)
        ops = ops.reshape(len(ops), 2, -1).view(float)[
            np.repeat([slot[g.h_sys.tobytes()] for g in groups], sizes)]
        rho_s = np.concatenate([x.rho_s for x in red]) / p[:, None, None]
        # tr{H* rho_S} and tr{dH*/dbeta rho_S}, read as expect_herm reads them
        h_star_tr, corr = np.einsum("rk,rjk->jr", rho_s.reshape(len(p), -1).view(float), ops)
        # von Neumann entropy of the S-plus-ancillas marginals, one call per size
        s_vn = np.empty(len(p))
        for m in sorted({x.rho_x.shape[-1] for x in red}):
            at = [i for i, x in enumerate(red) if x.rho_x.shape[-1] == m]
            rows = np.concatenate([np.arange(ends[i] - sizes[i], ends[i]) for i in at])
            s_vn[rows] = vn_entropy_mat(np.concatenate([red[i].rho_x for i in at])
                                        / p[rows, None, None])
        s_vn += np.array(s_pend)[done]
        # factored-out and pending ancillas, then those still in the state
        e_anc = (np.concatenate([g.e_factored for g in groups]) + np.array(e_pend)[done]
                 + np.concatenate([x.e_anc for x in red]) / p)
        u = h_star_tr + beta * corr + e_anc
        log_p = np.log(np.where(p > 0, p, 1.0))
        columns = np.stack([p, u, u - u[0]] + [
            np.concatenate([getattr(g, name) for g in groups])
            for name in ("w_sys", "w_ctrl", "w_meas", "w_meas_alt")] + [
            -log_p + s_vn + beta ** 2 * corr, h_star_tr + e_anc + (log_p - s_vn) / beta])
        # every snapshot's rows in ledger order, by one index array
        starts = np.cumsum([0] + [len(snap.ledger.order) for snap in snaps])
        columns = columns[:, np.concatenate([start + snap.ledger.order
                                             for start, snap in zip(starts, snaps)])]
        e_bare, reduced = {}, iter(red)
        for snap in snaps:
            total = tw = 0.0
            for x in islice(reduced, len(snap.ledger.groups)):
                total += x.e_bare
                tw += float(np.sum(x.p))
            e_bare[snap] = total + tw * e_pend[snap.ledger.steps_done]
        # the initial time's single record, whose -ln p counts as 0
        reference = (float(u[0]), float(s_vn[0] + beta ** 2 * corr[0]), e_bare[snaps[0]])
        return _Pass({snap: columns[:, a:b] for snap, a, b in zip(snaps, starts, starts[1:])},
                     e_bare, reference)

    # -- branch rows ---------------------------------------------------------

    def branch_rows(self, snap: Snapshot) -> BranchRows:
        """The rows of the records of ``snap`` (the run's initial time or
        one of its snapshots) of positive weight, in ledger order."""
        columns = self._pass.columns[snap]
        kept = columns[0] > 0
        return BranchRows(list(compress(snap.ledger.records, kept.tolist())),
                          *columns[:, kept])

    # -- ensemble ------------------------------------------------------------

    def ensemble(self, snap: Snapshot, rows: BranchRows) -> EnsembleThermo:
        """Ensemble aggregates of ``snap`` from its branch rows, as returned
        by :meth:`branch_rows` for the same snapshot, summed in row order."""
        u0, s0, e0 = self._pass.reference
        tw = sum(rows.p.tolist(), 0.0)
        u, s, f, w, w_alt = (sum((rows.p * x).tolist(), 0.0)
                             for x in (rows.u, rows.s, rows.f, rows.w, rows.w_alt))
        du = u - tw * u0
        ds = s - tw * s0
        q = du - w
        sigma_fl = ds - self.beta * q
        e_bare = self._pass.e_bare[snap]
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
