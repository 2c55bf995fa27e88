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
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .algebra import (
    DensityOperator,
    FactorRegistry,
    OperatorMatrix,
    dagger,
    embed_factors,
    expect_herm,
    expm_herm,
    is_hermitian,
    max_norm,
    ptrace_factors,
    unitary_log_generator,
)
from .channels import Instrument, InterventionSchedule
from .dilation import DilationResult, dilate_instrument
from .protocol import Segment, before, deepest_prefix, same_instant
from .tolerances import DEFAULT

__all__ = [
    "AutonomousModel",
    "Branch",
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
    the rank-1 readout vector of each outcome (see :func:`_rank1_vector`).
    """

    time: float
    ancilla_state: np.ndarray
    h_ancilla: np.ndarray
    window_width: float | None
    controls: Mapping[tuple[str, ...],
                      tuple[DilationResult, tuple[np.ndarray | None, ...]]]


class _Space:
    """One branch support and the only list of Hamiltonian terms on it.

    The terms are the drive on S, ``h_bath`` on B, ``v_coupling`` on S B,
    the Hamiltonian of each ancilla still in the support, and an active
    control window on S A_k.  Every Hamiltonian the autonomous route reads
    is a sum of some of them.
    """

    def __init__(self, model: "AutonomousModel", support: tuple[str, ...]):
        self.model = model
        self.support = support
        self.dims = model.registry.dims(support)
        self.pos = {l: i for i, l in enumerate(support)}
        # ancillas in the support that have a Hamiltonian
        self.ancillas = {ancilla_label(k): spec.h_ancilla
                         for k, spec in enumerate(model.steps)
                         if ancilla_label(k) in self.pos and max_norm(spec.h_ancilla) > 0}
        self._fixed: dict[tuple, np.ndarray] = {}

    def hamiltonian(self, labels: tuple[str, ...], h_system: np.ndarray | None = None,
                    window: tuple[int, np.ndarray] | None = None) -> np.ndarray:
        """Sum of the terms that act within ``labels``, on those factors in
        the order given; the drive and the window count only when passed.
        All but the drive is cached per (labels, window)."""
        dims = self.model.registry.dims(labels)
        key = (labels, None if window is None else window[0])
        h = self._fixed.get(key)
        if h is None:
            model = self.model
            terms = [(model.h_bath, ("B",)), (model.v_coupling, ("S", "B"))]
            terms += [(h_a, (label,)) for label, h_a in self.ancillas.items()]
            if window is not None:
                terms.append((window[1], ("S", ancilla_label(window[0]))))
            d = math.prod(dims)
            h = np.zeros((d, d), dtype=complex)
            for op, on in terms:
                if op is not None and set(on) <= set(labels):
                    h = h + embed_factors(op, [labels.index(l) for l in on], dims)
            h = self._fixed[key] = _frozen(h)
        if h_system is not None and "S" in labels:
            h = h + embed_factors(h_system, [labels.index("S")], dims)
        return h

    def apply(self, op: np.ndarray, labels: Sequence[str], state: np.ndarray) -> np.ndarray:
        """op state op^dagger for ``op`` acting on the factors ``labels``,
        in that order: the row factors of ``labels`` go first and their
        column factors last, so each side is one matmul."""
        n = len(self.dims)
        idx = [self.pos[l] for l in labels]
        rest = [i for i in range(n) if i not in idx]
        perm = idx + rest + [n + i for i in rest] + [n + i for i in idx]
        t = state.reshape(self.dims * 2).transpose(perm)
        d = op.shape[0]
        out = (op @ t.reshape(d, -1)).reshape(-1, d) @ dagger(op)
        return out.reshape(t.shape).transpose(np.argsort(perm)).reshape(state.shape)

    def propagate(self, state: np.ndarray, seg: Segment, a: float, b: float) -> np.ndarray:
        """Conjugate ``state`` by the exact propagator of ``seg`` over [a, b].

        Finished ancillas couple to nothing, so the propagator factors into
        one unitary on the block the segment's terms couple (S B, plus A_k
        inside its window) and one per other ancilla with a Hamiltonian.
        Each factor is cached per (segment, interval) on the model.
        """
        block = ("S", "B") if seg.window is None else ("S", "B", ancilla_label(seg.window[0]))
        cache = self.model._propagators
        for labels in [block] + [(l,) for l in self.ancillas if l not in block]:
            u = cache.get((seg, a, b, labels))
            if u is None:
                h = self.hamiltonian(labels, seg.h_system, seg.window)
                u = cache[seg, a, b, labels] = expm_herm(h, -1j * (b - a))
            state = self.apply(u, labels, state)
        return _frozen(state)

    def ptrace(self, mat: np.ndarray, keep: Sequence[str]) -> np.ndarray:
        return ptrace_factors(mat, self.dims, [self.pos[l] for l in keep])


@dataclass(frozen=True, eq=False)
class AutonomousModel:
    """Inclusive model: registry, Hamiltonian terms, schedule, hardware."""

    registry: FactorRegistry
    schedule: InterventionSchedule
    steps: tuple[StepSpec, ...]
    beta: float
    sb_init: DensityOperator
    gibbs_initial: bool = True
    mean_force_bare: bool = False
    name: str = "model"

    def __post_init__(self):
        object.__setattr__(self, "_spaces", {})
        object.__setattr__(self, "_propagators", {})

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

        for arg, mat in (("h_bath", h_bath), ("v_coupling", v_coupling)):
            if mat is not None and not is_hermitian(np.asarray(mat, dtype=complex)):
                raise ValueError(f"{arg} is not Hermitian")
        factors = [("S", int(s_dim)), ("B", int(b_dim))]
        specs: list[StepSpec] = []
        instruments: list[Instrument] = []
        times: list[float] = []
        feedback = dict(feedback or {})
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
                u = np.asarray(col["unitary"], dtype=complex)
                if u.shape != (s_dim * d_anc, s_dim * d_anc):
                    raise ValueError(f"step {k}: control unitary must act on "
                                     f"system (x) ancilla")
                projs = col.get("projectors")
                projs = [np.eye(d_anc, dtype=complex)] if projs is None else \
                    [np.asarray(p, dtype=complex) for p in projs]
                labels = col.get("labels")
                labels = tuple(str(i + 1) for i in range(len(projs))) if labels is None \
                    else tuple(str(l) for l in labels)
                if k in feedback:
                    raise ValueError(f"step {k}: collision steps take no "
                                     "instrument feedback")
                fixed = DilationResult(s_dim, d_anc, anc, u, tuple(projs), labels)
                if fixed.unitarity_residual() > DEFAULT.dilation_unitary:
                    raise ValueError(f"step {k}: declared control is not unitary")
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
            controls = {p: (hw, tuple(_rank1_vector(q) for q in hw.projectors))
                        for p, hw in hardware.items()}
            specs.append(StepSpec(t_k, hardware[()].ancilla_state, h_anc,
                                  None if window is None else float(window), controls))
            factors.append((ancilla_label(k), d_anc))

        registry = FactorRegistry(factors)
        # overlay finite-width couplings on the protocol before freezing it
        for k, spec in enumerate(specs):
            if spec.window_width is None:
                continue
            gen = unitary_log_generator(spec.controls[()][0].unitary)
            t0, t1 = spec.time, spec.time + spec.window_width
            if not before(t0, t1):
                raise ValueError(f"step {k}: control window is not longer than "
                                 "one instant")
            if not before(t1, protocol.t_end):
                raise ValueError(f"step {k}: control window must end before the "
                                 "protocol does")
            if k + 1 < len(specs) and before(specs[k + 1].time, t1):
                raise ValueError(f"step {k}: control window overlaps the next step")
            protocol = protocol.with_window(k, t0, t1, gen / spec.window_width)

        schedule = InterventionSchedule(registry, times, instruments, protocol,
                                        feedback=feedback, h_bath=h_bath,
                                        v_coupling=v_coupling)
        if times and (before(times[0], protocol.t_start) or before(protocol.t_end, times[-1])):
            raise ValueError("an intervention is scheduled outside the protocol range")
        # a variant timeline may only deviate once its prefix is resolved
        for prefix in protocol.variants:
            if len(prefix) > len(times):
                raise ValueError(f"protocol variant {prefix} is longer than the "
                                 "intervention schedule")
            resolved = times[len(prefix) - 1]
            for seg, a, b in protocol.iter_segments(protocol.t_start, resolved, prefix):
                for bseg, ba, bb in protocol.iter_segments(a, b, prefix[:-1]):
                    if max_norm(seg.h_system - bseg.h_system) > 1e-12:
                        raise ValueError(
                            f"protocol variant {prefix} changes the drive at "
                            f"t={ba}, before its prefix is resolved at t={resolved}")

        gibbs_initial = sb_init is None
        if gibbs_initial:
            h0 = OperatorMatrix(registry, registry.canonical(("S", "B")),
                                schedule.h_sb(protocol.base[0].h_system),
                                hermitian=True)
            from .algebra import gibbs_state
            rho0, _ = gibbs_state(h0, beta)
        else:
            rho0 = DensityOperator.normalized(OperatorMatrix(
                registry, registry.canonical(("S", "B")),
                np.asarray(sb_init, dtype=complex)))
        return cls(registry, schedule, tuple(specs), float(beta), rho0,
                   gibbs_initial=gibbs_initial, mean_force_bare=mean_force_bare,
                   name=name)

    # -- geometry -----------------------------------------------------------

    @property
    def protocol(self):
        return self.schedule.protocol

    @property
    def n_steps(self) -> int:
        return len(self.steps)

    def space(self, support: tuple[str, ...]) -> _Space:
        sp = self._spaces.get(support)
        if sp is None:
            sp = _Space(self, support)
            self._spaces[support] = sp
        return sp

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


# ---------------------------------------------------------------------------
# branches
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Branch:
    """Unnormalized conditional state plus per-trajectory work tallies.

    ``labels`` is the outcome record.  ``state`` holds the factors in
    ``support``; an ancilla factored out after a rank-1 readout is pure and
    enters only through ``e_factored``.
    """

    labels: tuple[str, ...]
    state: np.ndarray
    support: tuple[str, ...]
    w_sys: float = 0.0       # driving work on the system term
    w_ctrl: float = 0.0      # control-interaction work (window switches or kick)
    w_meas: float = 0.0      # measurement work, ancilla-energy convention
    w_meas_alt: float = 0.0  # measurement work, knowledge-update convention
    e_factored: float = 0.0  # summed <h_A> of the ancillas factored out of state
    h_sys_applied: np.ndarray | None = None
    window_applied: tuple[int, np.ndarray] | None = None

    @property
    def weight(self) -> float:
        return float(np.real(np.trace(self.state)))

    def replace(self, **kw) -> "Branch":
        return dataclasses.replace(self, **kw)


@dataclass(frozen=True, eq=False)
class BranchLedger:
    """Branches at one instant, keyed by their outcome labels."""

    time: float
    branches: dict[tuple[str, ...], Branch]
    pruned_mass: float = 0.0
    steps_done: int = 0

    def total_weight(self) -> float:
        return sum(b.weight for b in self.branches.values())


@dataclass(frozen=True, eq=False)
class PrefixTrace:
    """Per-parent-branch record of one intervention.

    ``weight`` is the parent branch weight; the dicts are keyed by outcome
    label: the outcome probability conditional on the parent and the
    measurement work in the ancilla-energy and knowledge-update conventions.
    """

    weight: float
    cond_probs: dict[str, float]
    w_meas: dict[str, float]
    w_meas_alt: dict[str, float]


@dataclass(frozen=True, eq=False)
class StepTrace:
    """All conditioning data gathered while executing one step."""

    per_prefix: dict[tuple[str, ...], PrefixTrace]    # keyed by parent labels

    def average_work_gap(self) -> float:
        """| sum_r p(r) (w_meas - w_meas_alt) |, the convention gap."""
        total = 0.0
        for tr in self.per_prefix.values():
            for label, p in tr.cond_probs.items():
                total += tr.weight * p * (tr.w_meas[label] - tr.w_meas_alt[label])
        return abs(total)

    def max_branch_gap(self) -> float:
        gap = 0.0
        for tr in self.per_prefix.values():
            for label in tr.cond_probs:
                gap = max(gap, abs(tr.w_meas[label] - tr.w_meas_alt[label]))
        return gap


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
    control_caveat: bool = False


# ---------------------------------------------------------------------------
# simulator
# ---------------------------------------------------------------------------

def survives_prune(p: float, prune: float) -> bool:
    """Whether a record of probability ``p`` is kept at threshold ``prune``;
    a record of zero probability never is."""
    return p > 0 and p >= prune


def _frozen(mat: np.ndarray) -> np.ndarray:
    mat = np.ascontiguousarray(mat)
    mat.setflags(write=False)
    return mat


def _contract_last(state: np.ndarray, v: np.ndarray) -> np.ndarray:
    """<v| state |v> over the last factor, of dimension ``len(v)``."""
    a = len(v)
    d = state.shape[0] // a
    half = (state.reshape(d * a * d, a) @ v).reshape(d, a, d)
    return np.einsum("a,iaj->ij", v.conj(), half)


class Simulator:
    """Drives a :class:`BranchLedger` through the scheduled interventions."""

    def __init__(self, model: AutonomousModel, prune: float = DEFAULT.prune,
                 max_branches: int = 4096):
        self.model = model
        self.prune = float(prune)
        self.max_branches = int(max_branches)

    # -- construction -------------------------------------------------------

    def initial_ledger(self) -> BranchLedger:
        model = self.model
        br = Branch(labels=(), state=_frozen(model.sb_init.mat),
                    support=model.registry.canonical(("S", "B")),
                    h_sys_applied=model.protocol.base[0].h_system)
        return BranchLedger(time=model.protocol.t_start, branches={(): br})

    # -- evolution ----------------------------------------------------------

    def _switch(self, br: Branch, seg: Segment) -> Branch:
        """Apply ``seg``'s drive and window to a branch, booking the work of
        the switch as the jump in each changed term's expectation."""
        if seg.h_system is br.h_sys_applied and seg.window is br.window_applied:
            return br
        space = self.model.space(br.support)
        weight = br.weight
        w_s, w_c = br.w_sys, br.w_ctrl
        if weight > 0:
            if seg.h_system is not br.h_sys_applied:
                rho_s = space.ptrace(br.state, ["S"])
                w_s += expect_herm(seg.h_system - br.h_sys_applied, rho_s) / weight
            if seg.window is not br.window_applied:
                gain = 0.0
                for window, sign in ((seg.window, 1.0), (br.window_applied, -1.0)):
                    if window is not None:
                        k, v = window
                        rho = space.ptrace(br.state, ["S", ancilla_label(k)])
                        gain += sign * expect_herm(v, rho)
                w_c += gain / weight
        return br.replace(w_sys=w_s, w_ctrl=w_c, h_sys_applied=seg.h_system,
                          window_applied=seg.window)

    def _advance_branch(self, br: Branch, t_from: float, t_to: float) -> Branch:
        space = self.model.space(br.support)
        for seg, a, b in self.model.protocol.iter_segments(t_from, t_to, br.labels):
            br = self._switch(br, seg)
            br = br.replace(state=space.propagate(br.state, seg, a, b))
        return br

    def advance(self, ledger: BranchLedger, t: float) -> BranchLedger:
        if before(t, ledger.time):
            raise ValueError(f"cannot advance backwards from {ledger.time} to {t}")
        if not before(ledger.time, t):
            return ledger
        branches = {labels: self._advance_branch(br, ledger.time, t)
                    for labels, br in ledger.branches.items()}
        return BranchLedger(t, branches, ledger.pruned_mass, ledger.steps_done)

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
        new_branches: dict[tuple[str, ...], Branch] = {}
        traces: dict[tuple[str, ...], PrefixTrace] = {}
        pruned = ledger.pruned_mass
        t_meas = spec.time if spec.window_width is None else spec.time + spec.window_width

        for labels, br in ledger.branches.items():
            hw, vectors = deepest_prefix(spec.controls, labels)
            weight = br.weight
            # --- preparation: fresh ancilla joins at the end of the support
            support2 = br.support + (anc,)
            prepped = br.replace(state=_frozen(np.kron(br.state, hw.ancilla_state)),
                                 support=support2)
            space = model.space(support2)
            # --- control; the kick is booked as the energy change it causes,
            # coupling term included
            if spec.window_width is None:
                ctrl_state = space.apply(hw.unitary, ("S", anc), prepped.state)
                h = space.hamiltonian(support2, br.h_sys_applied)
                w_kick = expect_herm(h, ctrl_state - prepped.state) / weight
                ctrled = prepped.replace(state=_frozen(ctrl_state),
                                         w_ctrl=prepped.w_ctrl + w_kick)
            else:
                ctrled = self._advance_branch(prepped, spec.time, t_meas)
                # a switch landing on the window's end is booked before readout
                ctrled = self._switch(ctrled,
                                      model.protocol.segment_at(t_meas, labels))
            # --- readout energies before conditioning; the system+ancilla
            # energy splits into the parent's factors and the new ancilla
            sa_labels = tuple(l for l in br.support if l != "B")
            rho_anc = space.ptrace(ctrled.state, [anc]) / weight
            h_sa = space.hamiltonian(sa_labels, ctrled.h_sys_applied)
            e_sa_before = expect_herm(h_sa, space.ptrace(ctrled.state, sa_labels) / weight)
            e_anc_before = expect_herm(spec.h_ancilla, rho_anc)
            # --- conditioning on the recorded outcome
            cond_probs: dict[str, float] = {}
            w_meas: dict[str, float] = {}
            w_meas_alt: dict[str, float] = {}
            for r, (label, v) in enumerate(zip(hw.outcome_labels, vectors)):
                if v is None:
                    child_state = space.apply(hw.projectors[r], (anc,), ctrled.state)
                    child_support = support2
                else:
                    child_state, child_support = _contract_last(ctrled.state, v), br.support
                p_child = float(np.real(np.trace(child_state)))
                cond_probs[label] = p_child / weight if weight > 0 else 0.0
                if p_child > 0:
                    child_space = model.space(child_support)
                    anc_r = np.outer(v, v.conj()) if v is not None else \
                        child_space.ptrace(child_state, [anc]) / p_child
                    sa_r = child_space.ptrace(child_state, sa_labels) / p_child
                else:
                    anc_r = np.zeros_like(rho_anc)
                    sa_r = np.zeros_like(h_sa)
                e_anc_r = expect_herm(spec.h_ancilla, anc_r)
                w_meas[label] = e_anc_r - e_anc_before
                w_meas_alt[label] = w_meas[label] + expect_herm(h_sa, sa_r) - e_sa_before
                if not survives_prune(p_child, self.prune):
                    pruned += p_child
                    continue
                child = ctrled.replace(
                    labels=labels + (label,),
                    state=_frozen(child_state), support=child_support,
                    e_factored=ctrled.e_factored + (e_anc_r if v is not None else 0.0),
                    w_meas=ctrled.w_meas + w_meas[label],
                    w_meas_alt=ctrled.w_meas_alt + w_meas_alt[label])
                new_branches[child.labels] = child
            traces[labels] = PrefixTrace(
                weight=weight, cond_probs=cond_probs,
                w_meas=w_meas, w_meas_alt=w_meas_alt)

        if len(new_branches) > self.max_branches:
            raise RuntimeError(f"branch count {len(new_branches)} exceeds the "
                               f"limit {self.max_branches}")
        out = BranchLedger(t_meas, new_branches, pruned, steps_done=k + 1)
        return out, StepTrace(traces)

    # -- full run -----------------------------------------------------------

    def run(self, report_times: Sequence[float] = ()) -> RunResult:
        model = self.model
        ledger = self.initial_ledger()
        initial = Snapshot(ledger.time, ledger)
        times = sorted(set(float(t) for t in report_times))
        for t in times:
            if before(t, model.protocol.t_start) or before(model.protocol.t_end, t):
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
        caveat = model.has_sb_coupling() and any(
            s.window_width is None for s in model.steps)
        return RunResult(model, initial, tuple(snapshots), tuple(traces), ledger,
                         control_caveat=caveat)
