"""Autonomous branch-resolved simulation of an intervention schedule.

The inclusive model evolves system, bath and one fresh ancilla per step
through the fixed per-step order: ancilla preparation, control interaction,
ancilla readout into the memory register, memory dephasing, then driven
system-bath evolution until the next step.  Because the dephased memory is
only classically correlated with everything else, the simulator stores the
total state as a ledger of unnormalized conditional branches keyed by the
outcome record, the tuple of outcome labels; that representation is exact.

An ancilla enters its branch states at its step.  Once read out it couples
to nothing again: a control window ends at or before its own readout, and
later controls act on the system and their own ancilla.  So an outcome
with a rank-1 projector |v><v| leaves the ancilla in the pure product
factor |v><v|, and the child branch stores only <v|rho|v> on its parent's
support plus the ancilla's constant energy <v|h_A|v> (zero entropy).  Every
reported quantity is additive in such a factor, so this is exact.  An
outcome with a rank > 1 projector keeps its ancilla in the branch state,
where the joint system-ancilla state enters the thermodynamic bookkeeping.
Work from the driving accrues as exact switch-sums; the instantaneous
control kick is booked from the energy change it causes, which requires
the system-bath coupling term (flagged, since that is not operationally
accessible).

The ledger stores groups of records that share a support and a node (see
:class:`BranchGroup`), their states as one (N, D, D) stack and each work
tally as a length-N array.  Each event resolves a group's drive and
hardware once and evolves, books and reads out its stack as one; a step
splits it by outcome into child groups, stacked outcome by outcome.
A step reads every outcome of a group out of one marginal, B traced out
of the controlled stack once: each outcome's probability and its ancilla
and S+ancilla energies, before and after conditioning, are expectations
of observables on the new ancilla arranged once per hardware (see
:class:`_Readout`).  The children of all rank-1 outcomes come from one
contraction and each tally column is gathered once, so a step's NumPy
calls per group do not grow with the outcome count.  Energies are read
term by term off each term's own factors (see :meth:`_Space.energy`); no
Hamiltonian of a whole support is embedded per call.  Ledger order
(parent-major, then label order) lives only in one index array, applied
where rows are emitted.

Each S B drive value is diagonalized once, where the groups first evolve
under it (:meth:`AutonomousModel.spectrum`), on the calling thread; a
control window's spectra are computed where the window uses them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from types import MappingProxyType
from typing import Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from .algebra import (
    dagger,
    embed_factors,
    expect_herm,
    expm_herm,
    gibbs_mat,
    is_hermitian,
    max_norm,
    ptrace_factors,
    unitary_log_generator,
    validate_density,
)
from .channels import Instrument, InterventionSchedule
from .dilation import DilationResult, _check_projectors, dilate_instrument
from .protocol import Segment, before, deepest_prefix, same_instant
from .tolerances import DEFAULT, HERMITIAN

__all__ = [
    "AutonomousModel",
    "Branch",
    "BranchGroup",
    "BranchLedger",
    "StepTrace",
    "PrefixTrace",
    "Simulator",
    "RunResult",
    "Snapshot",
    "ancilla_label",
    "survives_prune",
]


def ancilla_label(k: int) -> str:
    return f"A{k}"


# ---------------------------------------------------------------------------
# model
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class StepSpec:
    """Resolved hardware of one step.

    ``controls`` maps each declared record prefix (the empty one is the
    base) to the step's control hardware under that prefix, together with
    its :class:`_Readout`.
    A finite-width control switches the coupling ``window`` = log(U)/width
    on S A_k on at ``time`` and off ``window_width`` later.
    """

    time: float
    ancilla_state: np.ndarray
    h_ancilla: np.ndarray
    window_width: float | None
    window: np.ndarray | None
    controls: Mapping[tuple[str, ...], tuple[DilationResult, "_Readout"]]


class _Space:
    """One branch support and the only list of Hamiltonian terms on it.

    The terms are the drive on S, ``h_bath`` on B, ``v_coupling`` on S B,
    the Hamiltonian of each ancilla still in the support, and the coupling
    of step k's control window on S A_k while it is open.  Every
    Hamiltonian the autonomous route reads is a sum of some of them.
    Energies are read term by term; :meth:`hamiltonian` exists for spectra.
    """

    def __init__(self, model: "AutonomousModel", support: tuple[str, ...]):
        self.model = model
        self.support = support
        self.dims = tuple(model.dims[l] for l in support)
        self.pos = {l: i for i, l in enumerate(support)}
        # ancillas in the support that have a Hamiltonian
        self.ancillas = {l: h for l, h in model.ancilla_terms.items() if l in self.pos}
        self._fixed: dict[int | None, np.ndarray] = {}

    def hamiltonian(self, h_system: np.ndarray | None = None,
                    window: int | None = None) -> np.ndarray:
        """Sum of the terms on the support, in its factor order: the matrix a
        spectrum is taken of.  The drive and step ``window``'s coupling
        count only when passed.  All but the drive is cached per window."""
        h = self._fixed.get(window)
        if h is None:
            model = self.model
            terms = [(model.h_bath, ("B",)), (model.v_coupling, ("S", "B")),
                     *((h_a, (label,)) for label, h_a in self.ancillas.items())]
            if window is not None:
                terms.append((model.steps[window].window, ("S", ancilla_label(window))))
            h = np.zeros((math.prod(self.dims),) * 2, dtype=complex)
            for op, on in terms:
                if op is not None and set(on) <= self.pos.keys():
                    h = h + embed_factors(op, [self.pos[l] for l in on], self.dims)
            h = self._fixed[window] = _frozen(h)
        if h_system is not None and "S" in self.pos:
            h = h + embed_factors(h_system, [self.pos["S"]], self.dims)
        return h

    @cached_property
    def _terms(self) -> list[tuple[int, np.ndarray]]:
        """Each term but the drive, as (dimension of the factors before it,
        its matrix): the S B block (``h_bath`` and ``v_coupling``), then the
        Hamiltonian of each ancilla in the support."""
        return [(1, self.model.space(("S", "B")).hamiltonian())] + [
            (math.prod(self.dims[:self.pos[l]]), h) for l, h in self.ancillas.items()]

    def energy(self, states: np.ndarray, h_system: np.ndarray) -> np.ndarray:
        """tr(H rho) per matrix of a stack, H every term on the support plus
        the drive ``h_system``.  Each term is read off the indices of its own
        factors, so no Hamiltonian of the whole support is formed."""
        terms = [(1, h_system)] + self._terms
        return sum(_expect_on(h, states, left) for left, h in terms)[:, 0, 0].real

    def ancilla_energy(self, states: np.ndarray) -> np.ndarray:
        """tr(H_A rho) per matrix of a stack, H_A the ancilla terms :meth:`energy` reads."""
        return sum(_expect_on(h, states, left) for left, h in self._terms[1:])[:, 0, 0].real

    @cached_property
    def _readout_terms(self) -> tuple[tuple[str, ...], list[tuple[int, np.ndarray]]]:
        """The factors of the support but B, and the Hamiltonians of the
        ancillas among them but the last, as in :attr:`_terms`."""
        keep = tuple(l for l in self.support if l != "B")
        return keep, [(math.prod(self.model.dims[m] for m in keep[:i]), self.ancillas[l])
                      for i, l in enumerate(keep[:-1]) if l in self.ancillas]

    def resolved(self, states: np.ndarray, h_system: np.ndarray) -> np.ndarray:
        """B traced out of a stack of states once, then every factor but the
        last: tr_X[(h (x) 1) rho] per matrix, for h the energy on the factors
        X between (the drive ``h_system`` and the ancillas' Hamiltonians) and
        for h = 1, as a (2, N, a, a) stack of operators on the last factor.
        Their expectations are those of h (x) O for any O there.  As in
        :meth:`energy`, each term is read off its own factors' indices."""
        keep, terms = self._readout_terms
        a = self.dims[-1]
        marginal = self.ptrace(states, keep)
        n, d = len(states), marginal.shape[-1] // a
        return np.stack((sum(_expect_on(h, marginal, left, a)
                             for left, h in [(1, h_system)] + terms),
                         marginal.reshape(n, d, a, d, a).trace(axis1=1, axis2=3)))

    def apply(self, op: np.ndarray, labels: Sequence[str], state: np.ndarray) -> np.ndarray:
        """op state op^dagger for ``op`` acting on the factors ``labels``,
        in that order: the row factors of ``labels`` go first and their
        column factors last, so each side is one matmul.  Axes of
        ``state`` before the last two are batch axes."""
        n = len(self.dims)
        lead = state.shape[:-2]
        b = len(lead)
        idx = [self.pos[l] for l in labels]
        rest = [i for i in range(n) if i not in idx]
        perm = idx + rest + [n + i for i in rest] + [n + i for i in idx]
        perm = list(range(b)) + [b + i for i in perm]
        t = state.reshape(lead + self.dims * 2).transpose(perm)
        d = op.shape[0]
        out = (op @ t.reshape(lead + (d, -1))).reshape(lead + (-1, d)) @ dagger(op)
        back = sorted(range(len(perm)), key=perm.__getitem__)
        return out.reshape(t.shape).transpose(back).reshape(state.shape)

    def ptrace(self, mat: np.ndarray, keep: Sequence[str]) -> np.ndarray:
        """Marginal on the factors ``keep``, per matrix of a stack."""
        return ptrace_factors(mat, self.dims, [self.pos[l] for l in keep])


@dataclass(frozen=True, eq=False)
class AutonomousModel:
    """Inclusive model: factor dimensions, Hamiltonian terms, schedule, hardware.

    ``sb_init`` is the read-only (d_S d_B, d_S d_B) initial state on S B;
    passed as None, it is the Gibbs state of H_SB at the first drive value,
    built from the model's own spectrum, and ``gibbs_initial`` says so.
    """

    dims: Mapping[str, int]    # read-only, factor label -> dimension: S, B, A0, A1, ...
    schedule: InterventionSchedule
    steps: tuple[StepSpec, ...]
    beta: float
    sb_init: np.ndarray | None
    mean_force_bare: bool = False
    name: str = "model"
    gibbs_initial: bool = field(init=False)
    nodes: frozenset = field(init=False)    # every prefix of a declared prefix

    def __post_init__(self):
        declared = [p for spec in self.steps for p in spec.controls]
        object.__setattr__(self, "nodes", frozenset(
            p[:i] for p in [(), *declared, *self.protocol.variants] for i in range(len(p) + 1)))
        object.__setattr__(self, "_spaces", {})
        object.__setattr__(self, "_spectra", {})
        object.__setattr__(self, "gibbs_initial", self.sb_init is None)
        if self.gibbs_initial:
            # the Gibbs state of H_SB at the first drive value, from the
            # model's own spectrum of it
            if self.beta <= 0:
                raise ValueError(f"inverse temperature must be positive, got {self.beta}")
            rho = gibbs_mat(None, self.beta,
                            eig=self.spectrum(("S", "B"), self.protocol.base[0].h_system))
            object.__setattr__(self, "sb_init", _frozen(rho))

    # -- assembly -----------------------------------------------------------

    @classmethod
    def assemble(cls, *, s_dim: int, b_dim: int = 1, beta: float,
                 protocol, h_bath=None, v_coupling=None,
                 steps: Sequence[Mapping] = (), feedback=None,
                 sb_init: np.ndarray | None = None,
                 mean_force_bare: bool = False, name: str = "model"):
        """Build a model from declarative step descriptions.

        Each step mapping holds ``time`` plus either ``instrument`` (an
        :class:`Instrument`; control hardware is synthesized by dilation)
        or ``collision`` (declared hardware: ``ancilla_state``, ``unitary``,
        ``projectors``, optional ``labels``).  Optional per-step keys:
        ``h_ancilla`` and ``window`` (a positive width; default is an
        instantaneous control).  Each step's hardware is built here, once
        per declared feedback prefix.
        """
        from .dilation import instrument_from_dilation

        dims = {"S": int(s_dim), "B": int(b_dim)}
        if min(dims.values()) < 1:
            raise ValueError(f"factor dimensions must be at least 1, got {dims}")
        specs: list[StepSpec] = []
        instruments: list[Instrument] = []
        times: list[float] = []
        feedback = dict(feedback or {})
        readouts: dict[tuple, _Readout] = {}
        for k, st in enumerate(steps):
            t_k = float(st["time"])
            times.append(t_k)
            window = st.get("window")
            if "instrument" in st:
                inst: Instrument = st["instrument"]
                table = {(): inst, **feedback.get(k, {})}
                d_anc = max(v.kraus_count() for v in table.values())
                if window is not None and k in feedback:
                    raise ValueError(f"step {k}: finite-width control cannot be "
                                     "combined with instrument feedback")
                hardware = {p: dilate_instrument(v, d_anc) for p, v in table.items()}
                instruments.append(inst)
            elif "collision" in st:
                col = dict(st["collision"])
                anc = np.asarray(col["ancilla_state"], dtype=complex)
                d_anc = anc.shape[0]
                if d_anc < 1:
                    raise ValueError(f"step {k}: the ancilla has dimension {d_anc} < 1")
                u = np.asarray(col["unitary"], dtype=complex)
                if u.shape != (s_dim * d_anc, s_dim * d_anc):
                    raise ValueError(f"step {k}: control unitary must act on "
                                     f"system (x) ancilla")
                projs = col.get("projectors")
                projs = [np.eye(d_anc, dtype=complex)] if projs is None else \
                    [np.asarray(p, dtype=complex) for p in projs]
                for j, p in enumerate(projs):
                    if p.shape != (d_anc, d_anc):
                        raise ValueError(f"step {k}: projector {j} must be {d_anc}x{d_anc} "
                                         f"(the ancilla's dimension), got shape {p.shape}")
                labels = col.get("labels")
                labels = tuple(str(i + 1) for i in range(len(projs))) if labels is None \
                    else tuple(str(l) for l in labels)
                if len(labels) != len(projs):
                    raise ValueError(f"step {k}: collision needs one label per projector, "
                                     f"got {len(labels)} label(s) for {len(projs)} projector(s)")
                if k in feedback:
                    raise ValueError(f"step {k}: collision steps take no "
                                     "instrument feedback")
                _check_projectors(projs, f"step {k}: ")
                try:
                    fixed = DilationResult(anc, u, tuple(projs), labels)
                except ValueError as exc:
                    raise ValueError(f"step {k}: declared control is {exc}") from None
                hardware = {(): fixed}
                instruments.append(instrument_from_dilation(
                    u, anc, projs, s_dim, labels=labels))
            else:
                raise ValueError(f"step {k}: needs 'instrument' or 'collision'")
            h_anc = st.get("h_ancilla")
            h_anc = np.zeros((d_anc, d_anc), dtype=complex) if h_anc is None \
                else np.asarray(h_anc, dtype=complex)
            if h_anc.shape != (d_anc, d_anc):
                raise ValueError(f"step {k}: ancilla Hamiltonian must be "
                                 f"{d_anc}x{d_anc} (for an instrument, its Kraus count "
                                 f"incl. feedback variants), got {h_anc.shape}")
            if not is_hermitian(h_anc):
                raise ValueError(f"step {k}: ancilla Hamiltonian is not Hermitian")
            controls = {}
            for p, hw in hardware.items():
                # steps that read out the same projectors with the same h_A share one readout
                key = (np.shape(hw.projectors), np.asarray(hw.projectors).tobytes(),
                       h_anc.tobytes())
                if key not in readouts:
                    readouts[key] = _Readout.of(hw.projectors, h_anc)
                controls[p] = (hw, readouts[key])
            v_window = None
            if window is not None:
                window = float(window)
                t1 = t_k + window
                if not before(t_k, t1):
                    raise ValueError(f"step {k}: control window is not longer than "
                                     "one instant")
                if not before(t1, protocol.t_end):
                    raise ValueError(f"step {k}: control window must end before the "
                                     "protocol does")
                if k + 1 < len(steps) and before(float(steps[k + 1]["time"]), t1):
                    raise ValueError(f"step {k}: control window overlaps the next step")
                v_window = unitary_log_generator(hardware[()].unitary) / window
            specs.append(StepSpec(t_k, hardware[()].ancilla_state, h_anc,
                                  window, v_window, controls))
            dims[ancilla_label(k)] = d_anc

        schedule = InterventionSchedule((dims["S"], dims["B"]), times, instruments, protocol,
                                        feedback=feedback, h_bath=h_bath,
                                        v_coupling=v_coupling)
        if times and (before(times[0], protocol.t_start) or before(protocol.t_end, times[-1])):
            raise ValueError("an intervention is scheduled outside the protocol range")
        # a prefix spells outcomes its steps can record (the schedule has
        # already bounded the length of a feedback prefix)
        for prefix in [*(p for table in schedule.feedback.values() for p in table),
                       *protocol.variants]:
            if len(prefix) > len(times):
                raise ValueError(f"protocol variant {prefix} is longer than the "
                                 "intervention schedule")
            for j, label in enumerate(prefix):
                if label not in schedule.alphabet(j):
                    raise ValueError(f"prefix {list(prefix)}: step {j} records one of "
                                     f"{list(schedule.alphabet(j))}, not {label!r}")
        # a variant timeline may only deviate once its prefix is resolved
        for prefix in protocol.variants:
            resolved = times[len(prefix) - 1]
            for seg, a, b in protocol.iter_segments(protocol.t_start, resolved, prefix):
                for bseg, ba, bb in protocol.iter_segments(a, b, prefix[:-1]):
                    if max_norm(seg.h_system - bseg.h_system) > HERMITIAN:
                        raise ValueError(
                            f"protocol variant {prefix} changes the drive at "
                            f"t={ba}, before its prefix is resolved at t={resolved}")

        rho0 = None
        if sb_init is not None:
            d = dims["S"] * dims["B"]
            rho0 = np.array(sb_init, dtype=complex)
            if rho0.shape != (d, d):
                raise ValueError(f"sb_init must be {d}x{d} (system (x) bath), "
                                 f"got shape {rho0.shape}")
            rho0 = _frozen(validate_density(rho0))
        return cls(MappingProxyType(dims), schedule, tuple(specs), float(beta), rho0,
                   mean_force_bare=mean_force_bare, name=name)

    # -- geometry -----------------------------------------------------------

    @property
    def protocol(self):
        return self.schedule.protocol

    @property
    def n_steps(self) -> int:
        return len(self.steps)

    def space(self, support: tuple[str, ...]) -> _Space:
        if support not in self._spaces:
            self._spaces[support] = _Space(self, support)
        return self._spaces[support]

    def spectrum(self, labels: tuple[str, ...], h_system: np.ndarray | None = None,
                 window: int | None = None) -> tuple[np.ndarray, np.ndarray]:
        """Eigenpairs (w, v) of :meth:`_Space.hamiltonian` on ``labels``,
        computed once per (labels, window, drive value); the drive and the
        window count only on a block that holds S."""
        if "S" not in labels:
            h_system, window = None, None
        key = labels, window, None if h_system is None else h_system.tobytes()
        eig = self._spectra.get(key)
        if eig is None:
            eig = self._spectra[key] = tuple(_frozen(a) for a in np.linalg.eigh(
                self.space(labels).hamiltonian(h_system, window)))
        return eig

    @cached_property
    def ancilla_terms(self) -> dict[str, np.ndarray]:
        """The Hamiltonian of each ancilla that has one, by label."""
        return {ancilla_label(k): spec.h_ancilla for k, spec in enumerate(self.steps)
                if max_norm(spec.h_ancilla) > 0}

    @property
    def h_bath(self):
        return self.schedule.h_bath

    @property
    def v_coupling(self):
        return self.schedule.v_coupling

    def has_sb_coupling(self) -> bool:
        return self.v_coupling is not None and max_norm(self.v_coupling) > 0

    def hardware(self, k: int, prefix: Sequence[str]) -> DilationResult:
        """Control hardware for step k given the outcome prefix."""
        return deepest_prefix(self.steps[k].controls, prefix)[0]


def _rank1_vector(proj: np.ndarray) -> np.ndarray | None:
    """v with proj = |v><v|, or None.

    Synthesized projectors are exact 0/1 diagonals and are read exactly; a
    declared projector counts as rank 1 when |v><v| reproduces it within
    the instrument-reconstruction tolerance.
    """
    diag = proj.diagonal().real.tolist()
    if np.count_nonzero(proj) == sum(x != 0 for x in diag) and set(diag) <= {0.0, 1.0}:
        if diag.count(1.0) != 1:
            return None
        v = np.zeros(len(diag), dtype=complex)
        v[diag.index(1.0)] = 1.0
        return v
    v = np.linalg.eigh(proj)[1][:, -1]
    if max_norm(proj - np.outer(v, v.conj())) > DEFAULT.dilation_reconstruction:
        return None
    return v


class _Readout(NamedTuple):
    """One hardware's readout of its ancilla, arranged at assembly (once per
    distinct projectors and h_A).

    Outcome r with a rank-1 projector |v><v| contracts its ancilla with v,
    column ``slot[r]`` of ``vectors``; any other outcome keeps its ancilla
    under projector ``slot[r]`` of ``projectors``.  Every readout tally is
    the expectation of one of 2R + 2 operators O_q on the ancilla: the
    effect P_r^dag P_r of each outcome r (with P_r = |v><v| for a rank-1
    one), then P_r^dag h_A P_r of each, then 1 and h_A.  Column q of
    ``observables`` is O_q^T flattened, so a stack of operators K flattened
    times it gives every tr(O_q K) at once.
    """

    rank1: np.ndarray
    slot: np.ndarray
    vectors: np.ndarray
    projectors: np.ndarray
    observables: np.ndarray

    @classmethod
    def of(cls, projectors: Sequence[np.ndarray], h_ancilla: np.ndarray) -> "_Readout":
        vectors = [_rank1_vector(p) for p in projectors]
        flags = [v is not None for v in vectors]
        rank1, a = np.array(flags), len(h_ancilla)
        narrow = np.array([v for v in vectors if v is not None]).reshape(-1, a)
        ops = np.array(projectors, dtype=complex)
        ops[rank1] = narrow[:, :, None] * narrow[:, None, :].conj()
        x = np.array((np.eye(a), h_ancilla))
        obs = np.concatenate(((ops.conj().transpose(0, 2, 1)[:, None] @ x @ ops[:, None])
                              .transpose(1, 0, 2, 3).reshape(-1, a, a), x))
        return cls(rank1, np.array([flags[:r].count(one) for r, one in enumerate(flags)]),
                   narrow.T, ops[~rank1],
                   obs.reshape(-1, a * a).conj().T)    # O^T = conj(O): each O is Hermitian


# ---------------------------------------------------------------------------
# branches
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Branch:
    """One record's unnormalized conditional state and work tallies, a view of
    its row in a :class:`BranchGroup`.  ``state`` holds the factors in
    ``support``; an ancilla factored out after a rank-1 readout enters only
    through ``e_factored``."""

    labels: tuple[str, ...]
    state: np.ndarray
    support: tuple[str, ...]
    w_sys: float = 0.0       # driving work on the system term
    w_ctrl: float = 0.0      # control-interaction work (window switches or kick)
    w_meas: float = 0.0      # measurement work, ancilla-energy convention
    w_meas_alt: float = 0.0  # measurement work, knowledge-update convention
    e_factored: float = 0.0  # summed <h_A> of the ancillas factored out of state

    @property
    def weight(self) -> float:
        return float(np.real(np.trace(self.state)))


_TALLIES = ("w_sys", "w_ctrl", "w_meas", "w_meas_alt", "e_factored")


@dataclass(frozen=True, eq=False)
class BranchGroup:
    """The records that share a support, a ``node`` (each record's longest
    prefix in :attr:`AutonomousModel.nodes`, which fixes its hardware and
    timeline at every later event) and hence the drive ``h_sys``; row i of
    the (N, D, D) ``states`` and of each tally is ``records[i]``'s."""

    records: tuple[tuple[str, ...], ...]
    support: tuple[str, ...]
    node: tuple[str, ...]
    h_sys: np.ndarray
    states: np.ndarray
    w_sys: np.ndarray
    w_ctrl: np.ndarray
    w_meas: np.ndarray
    w_meas_alt: np.ndarray
    e_factored: np.ndarray

    @cached_property
    def weights(self) -> np.ndarray:
        return np.trace(self.states, axis1=1, axis2=2).real


@dataclass(frozen=True, eq=False)
class BranchLedger:
    """The records at one instant, in groups; ledger order lives only in
    ``order``: ``order[i]`` is the row of the i-th record among the groups'
    rows joined.  ``branches`` holds read-only :class:`Branch` views."""

    time: float
    groups: tuple[BranchGroup, ...]
    order: np.ndarray
    pruned_mass: float = 0.0
    steps_done: int = 0

    def in_order(self, columns: Sequence[np.ndarray]) -> np.ndarray:
        """One array per group, rows first, joined in ledger order."""
        return np.concatenate(columns)[self.order] if columns else np.zeros(0)

    def positions(self) -> Iterator[np.ndarray]:
        """The ledger position of each row, one array per group."""
        position, start = np.argsort(self.order), 0
        for g in self.groups:
            yield position[start:start + len(g.records)]
            start += len(g.records)

    @cached_property
    def records(self) -> list[tuple[str, ...]]:
        rows = [labels for g in self.groups for labels in g.records]
        return [rows[i] for i in self.order.tolist()]

    @cached_property
    def branches(self) -> Mapping[tuple[str, ...], Branch]:
        views = [Branch(labels, state, g.support, *tallies)
                 for g in self.groups for labels, state, *tallies in zip(
                     g.records, g.states, *(getattr(g, t).tolist() for t in _TALLIES))]
        return MappingProxyType({views[i].labels: views[i] for i in self.order.tolist()})

    def total_weight(self) -> float:
        return sum(self.in_order([g.weights for g in self.groups]).tolist())


class PrefixTrace(NamedTuple):
    """A parent record's weight and, per outcome label, the conditional outcome
    probability and the measurement work in both conventions."""

    weight: float
    cond_probs: dict[str, float]
    w_meas: dict[str, float]
    w_meas_alt: dict[str, float]


@dataclass(frozen=True, eq=False)
class StepTrace:
    """All conditioning data gathered while executing one step, per parent
    record (in ledger order) and outcome; ``per_prefix`` keys it by record."""

    labels: tuple[str, ...]
    parents: list[tuple[str, ...]]
    weights: np.ndarray
    cond_probs: np.ndarray
    w_meas: np.ndarray
    w_meas_alt: np.ndarray

    @cached_property
    def per_prefix(self) -> Mapping[tuple[str, ...], PrefixTrace]:
        dicts = ([dict(zip(self.labels, row)) for row in x.tolist()]
                 for x in (self.cond_probs, self.w_meas, self.w_meas_alt))
        return MappingProxyType(dict(zip(self.parents, map(
            PrefixTrace, self.weights.tolist(), *dicts))))

    def average_work_gap(self) -> float:
        """| sum_r p(r) (w_meas - w_meas_alt) |, summed in ledger and label order."""
        terms = self.weights[:, None] * self.cond_probs * (self.w_meas - self.w_meas_alt)
        return abs(float(np.cumsum(np.append(0.0, terms))[-1]))


@dataclass(frozen=True, eq=False)
class Snapshot:
    time: float
    ledger: BranchLedger


@dataclass(frozen=True, eq=False)
class RunResult:
    model: AutonomousModel
    initial: Snapshot
    snapshots: tuple[Snapshot, ...]
    traces: tuple[StepTrace, ...]
    final: BranchLedger


# ---------------------------------------------------------------------------
# simulator
# ---------------------------------------------------------------------------

def survives_prune(p: float, prune: float) -> bool:
    """Whether a record of probability ``p`` (or each of an array) is kept
    at threshold ``prune``; a record of zero probability never is."""
    return (p > 0) & (p >= prune)


def _frozen(mat: np.ndarray) -> np.ndarray:
    mat = np.ascontiguousarray(mat)
    mat.setflags(write=False)
    return mat


def _expect_on(h: np.ndarray, states: np.ndarray, left: int, last: int = 1) -> np.ndarray:
    """tr[(1 (x) h (x) 1) rho] over every factor but the last ``last``
    dimensions, per matrix rho of an (N, D, D) stack, for h on the factors
    that follow the first ``left`` dimensions: an (N, last, last) stack."""
    n, d, m = len(states), states.shape[-1] // last, len(h)
    shape = (n, left, m, d // (left * m), last)
    return np.einsum("xy,nlyrblxra->nba", h, states.reshape(shape + shape[1:]))


def _contract_last(states: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """<v| rho |v> over the last factor for each column v of ``vectors``
    (a, R) and each matrix rho of an (N, D, D) stack: an (R, N, D/a, D/a)
    stack."""
    a, r = vectors.shape
    n, d = len(states), states.shape[-1] // a
    half = (states.reshape(n, d * a * d, a) @ vectors).reshape(n, d, a, d, r)
    return np.einsum("ar,niajr->rnij", vectors.conj(), half)


def _project_last(states: np.ndarray, projectors: np.ndarray) -> np.ndarray:
    """(1 (x) P) rho (1 (x) P^dag) on the last factor for each P of an (R, a, a)
    stack and each rho of an (N, D, D) stack: an (R, N, D, D) stack."""
    r, a = len(projectors), projectors.shape[-1]
    n, d = len(states), states.shape[-1] // a
    p = projectors[:, None]
    left = (p[:, None] @ states.reshape(n, d, a, d * a)).reshape(r, n, d * a * d, a)
    return (left @ p.conj().swapaxes(-1, -2)).reshape(r, n, d * a, d * a)


class Simulator:
    """Drives a :class:`BranchLedger` through the scheduled interventions,
    one group at a time (see the module docstring)."""

    def __init__(self, model: AutonomousModel, prune: float = DEFAULT.prune,
                 max_branches: int = 4096):
        self.model = model
        self.prune = float(prune)
        self.max_branches = int(max_branches)

    # -- evolution ----------------------------------------------------------

    def _switch(self, w_sys: np.ndarray, h_sys: np.ndarray, seg: Segment, space: _Space,
                states: np.ndarray, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The driving work ``w_sys`` and drive ``h_sys`` of a group after a
        switch to ``seg``'s drive, booked per unit ``weights`` as the jump in
        the drive's expectation in ``states``: the group's states, or
        marginals of them that hold S, on ``space``."""
        if seg.h_system is h_sys:
            return w_sys, h_sys
        jump = expect_herm(seg.h_system - h_sys, space.ptrace(states, ["S"]))
        return w_sys + jump / weights, seg.h_system

    def _evolve(self, g: BranchGroup, t_from: float, t_to: float,
                weights: np.ndarray, window: int | None = None) -> BranchGroup:
        """``g`` evolved over (t_from, t_to] under its drive, with step
        ``window``'s control window open when given.

        Finished ancillas couple to nothing, so a segment's propagator is one
        unitary on the block the terms couple (S B, plus A_k inside its
        window) and one per other ancilla with a Hamiltonian, each formed
        from the model's spectrum of its factors.  Each switch is booked from
        the block marginals, evolved segment by segment; the factors outside
        the block never reach rho_S, so that is exact.  The states are
        conjugated once, by each factor's unitaries composed over the
        interval.  When the block is the whole support, the marginals are
        the states.
        """
        model = self.model
        space = model.space(g.support)
        block = ("S", "B") if window is None else ("S", "B", ancilla_label(window))
        block_space = model.space(block)
        whole = block == g.support
        marginal = g.states if whole else space.ptrace(g.states, block)
        composed: dict[tuple[str, ...], np.ndarray] = {}
        factors = [block] + [(l,) for l in space.ancillas if l not in block]
        w_sys, h_sys = g.w_sys, g.h_sys
        for seg, a, b in model.protocol.iter_segments(t_from, t_to, g.node):
            w_sys, h_sys = self._switch(w_sys, h_sys, seg, block_space, marginal, weights)
            for labels in factors:
                u = expm_herm(None, -1j * (b - a),
                              eig=model.spectrum(labels, seg.h_system, window))
                if labels == block:
                    marginal = u @ marginal @ dagger(u)
                if not whole:
                    composed[labels] = u @ composed[labels] if labels in composed else u
        states = marginal if whole else g.states
        for labels, u in composed.items():
            states = space.apply(u, labels, states)
        return replace(g, states=_frozen(states), w_sys=w_sys, h_sys=h_sys)

    def advance(self, ledger: BranchLedger, t: float) -> BranchLedger:
        if math.isnan(t):
            raise ValueError(f"cannot advance from {ledger.time} to time {t}")
        if before(t, ledger.time):
            raise ValueError(f"cannot advance backwards from {ledger.time} to {t}")
        if not before(ledger.time, t):
            return ledger
        return replace(ledger, time=t, groups=tuple(
            self._evolve(g, ledger.time, t, g.weights) for g in ledger.groups))

    # -- one intervention ---------------------------------------------------

    def run_step(self, ledger: BranchLedger, k: int) -> tuple[BranchLedger, StepTrace]:
        model = self.model
        spec = model.steps[k]
        if ledger.steps_done != k:
            raise ValueError(f"ledger has completed {ledger.steps_done} steps, "
                             f"cannot run step {k}")
        if not same_instant(ledger.time, spec.time):
            raise ValueError(f"step {k} is scheduled at t={spec.time}, "
                             f"ledger is at t={ledger.time}")
        anc = ancilla_label(k)
        t_meas = spec.time if spec.window_width is None else spec.time + spec.window_width
        labels = spec.controls[()][0].outcome_labels    # every prefix's hardware has them
        n_out = len(labels)
        outcome = np.arange(n_out)[:, None]
        trace, children, pruned = [], [], []
        for g, position in zip(ledger.groups, ledger.positions()):
            hw, readout = deepest_prefix(spec.controls, g.node)
            weights, support, w_sys, h_sys = g.weights, g.support, g.w_sys, g.h_sys
            # --- preparation: fresh ancilla joins at the end of the support
            n, d, a = len(g.records), g.states.shape[-1], hw.ancilla_dim
            prepped = (g.states[:, :, None, :, None]
                       * hw.ancilla_state[:, None, :]).reshape(n, d * a, d * a)
            space = model.space(support + (anc,))
            # --- control; the kick is booked as the energy change it causes,
            # coupling term included
            if spec.window_width is None:
                ctrl = space.apply(hw.unitary, ("S", anc), prepped)
                w_ctrl = g.w_ctrl + space.energy(ctrl - prepped, h_sys) / weights
            else:
                # the window coupling V is switched on, evolves with the drive
                # and is switched off at readout, each switch booked as the
                # jump in <V>; a drive switch on the window's end comes first
                on = expect_herm(spec.window, space.ptrace(prepped, ["S", anc]))
                window = self._evolve(replace(g, support=space.support, states=prepped,
                                              w_ctrl=g.w_ctrl + on / weights),
                                      spec.time, t_meas, weights, k)
                ctrl = window.states
                w_sys, h_sys = self._switch(window.w_sys, window.h_sys, model.protocol.segment_at(
                    t_meas, g.node), space, ctrl, weights)
                off = expect_herm(spec.window, space.ptrace(ctrl, ["S", anc]))
                w_ctrl = window.w_ctrl - off / weights
            # --- readout: every tally of every outcome from one marginal, B
            # traced out; tally[q, o, i] is parent i's expectation of O_q (see
            # _Readout) on A_k times the energy of the parent's S and ancillas
            # (o = 0) or times 1 (o = 1)
            tally = (space.resolved(ctrl, h_sys).reshape(2 * n, a * a)
                     @ readout.observables).real.T.reshape(-1, 2, n)
            # per outcome: p, and the A_k and S+ancilla energies after
            # conditioning, zero for a child of zero probability; a rank-1
            # child keeps its ancilla's energy as e_factored
            p = tally[:n_out, 1]
            e_anc, e_sa = np.divide((tally[n_out:2 * n_out, 1], tally[:n_out, 0]), p,
                                    out=np.zeros((2,) + p.shape), where=p > 0)
            e_factored = np.where(readout.rank1[:, None], e_anc, 0.0)
            w_meas = e_anc - tally[-1, 1] / weights
            w_alt = w_meas + e_sa - tally[-2, 0] / weights
            trace.append((weights, (p / weights).T, w_meas.T, w_alt.T))
            # --- children: row r * n + i of every column is parent i's child of
            # outcome r, and a child's key, its parent's position then its
            # outcome, sorts in ledger order
            kept = survives_prune(p, self.prune)
            keys = position * n_out + outcome
            if not kept.all():
                pruned.append((keys[~kept], p[~kept]))
            columns = np.empty((len(_TALLIES), n_out, n))
            columns[:2] = np.array((w_sys, w_ctrl))[:, None]
            columns[2:] = (g.w_meas + w_meas, g.w_meas_alt + w_alt, g.e_factored + e_factored)
            # children sharing a support and a node form one group, stacked outcome
            # by outcome, parents in stack order: its outcomes' rows under ``kept``
            classes: dict[tuple, list[int]] = {}
            for r, (label, narrow) in enumerate(zip(labels, readout.rank1.tolist())):
                node = g.node + (label,)    # deepens only while it is the whole record
                if len(node) <= len(g.records[0]) or node not in model.nodes:
                    node = g.node
                classes.setdefault((narrow, node), []).append(r)
            # the children of the rank-1 outcomes, and of the others, in one stack each
            states = {True: _contract_last(ctrl, readout.vectors) if readout.vectors.size else None,
                      False: _project_last(ctrl, readout.projectors)
                      if readout.projectors.size else None}
            for (narrow, node), rs in classes.items():
                sel = kept[rs]
                records = tuple(rec + (labels[r],) for r, row in zip(rs, sel.tolist())
                                for rec, keep in zip(g.records, row) if keep)
                if records:
                    children.append((keys[rs][sel], BranchGroup(
                        records, support if narrow else space.support, node, h_sys,
                        _frozen(states[narrow][readout.slot[rs]][sel]), *columns[:, rs][:, sel])))

        keys = np.concatenate([np.zeros(0, int), *(key for key, _ in children)])
        if len(keys) > self.max_branches:
            raise RuntimeError(f"branch count {len(keys)} exceeds the limit {self.max_branches}")
        pruned_mass = ledger.pruned_mass
        if pruned:    # summed in ledger order
            lost, mass = (np.concatenate(x) for x in zip(*pruned))
            pruned_mass = float(np.cumsum(np.append(pruned_mass, mass[np.argsort(lost)]))[-1])
        out = BranchLedger(t_meas, tuple(g for _, g in children), np.argsort(keys), pruned_mass,
                           k + 1)
        return out, StepTrace(labels, ledger.records, *(ledger.in_order([t[i] for t in trace])
                                                        for i in range(4)))

    # -- full run -----------------------------------------------------------

    def run(self, report_times: Sequence[float] = ()) -> RunResult:
        model = self.model
        ledger = BranchLedger(model.protocol.t_start, (BranchGroup(
            ((),), ("S", "B"), (), model.protocol.base[0].h_system,
            _frozen(model.sb_init[None]), *[_frozen(np.zeros(1))] * 5),), np.zeros(1, int))
        initial = Snapshot(ledger.time, ledger)
        times = sorted(set(float(t) for t in report_times))
        for t in times:
            if not (math.isfinite(t) and not before(t, model.protocol.t_start)
                    and not before(model.protocol.t_end, t)):
                raise ValueError(f"report time {t} outside the protocol range")
        snapshots: list[Snapshot] = []
        traces: list[StepTrace] = []
        k = 0

        def steps_until(t):
            nonlocal ledger, k
            while k < model.n_steps and not before(t, model.steps[k].time):
                ledger = self.advance(ledger, model.steps[k].time)
                ledger, tr = self.run_step(ledger, k)
                traces.append(tr)
                k += 1

        for t in times:
            steps_until(t)
            if before(t, ledger.time):
                raise ValueError(f"report time {t} falls inside a control window")
            ledger = self.advance(ledger, t)
            snapshots.append(Snapshot(t, ledger))
        steps_until(model.protocol.t_end)
        return RunResult(model, initial, tuple(snapshots), tuple(traces), ledger)
