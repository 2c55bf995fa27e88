"""Verification suites: every identity the package asserts, as a pass/fail
table over one scenario run.

Checks cover probability normalization, complete positivity, dilation
unitarity and reconstruction, the dephasing of every readout register into
the branch split and its zero energy cost, the autonomous/direct dynamical
equivalence, the first law at branch and ensemble level backed by an
independent global energy budget, both entropy-production forms, and the
average agreement of the two measurement-work conventions.  The
``first-law`` row is an identity today (``q`` is defined as ``du - w``, per
branch and per ensemble); ``work-energy-budget`` is the one that can fail.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import max_norm, ptrace_factors
from .channels import evaluate_process_tensor
from .dilation import dephasing_error, dephasing_unitary, reconstruction_error
from .report import record_string
from .simulate import AutonomousModel, RunResult, Simulator
from .thermo import ThermoLedger, evaluate_run
from .tolerances import DEFAULT, Tolerances

__all__ = ["CheckResult", "verify_model", "equivalence_rows", "equivalence_checks",
           "run_verified"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    value: float
    tolerance: float
    passed: bool
    note: str = ""

    def row(self) -> dict:
        return {"name": self.name, "value": self.value,
                "tolerance": self.tolerance,
                "verdict": "pass" if self.passed else "FAIL",
                "note": self.note}


def _check(name: str, value: float, tol: float, note: str = "") -> CheckResult:
    return CheckResult(name, float(value), float(tol), bool(value <= tol), note)


def _worst(values) -> float:
    """The largest of +0.0 and ``values`` (an array, or any iterable of
    floats), or NaN if any value is NaN, so a NaN fails its check.  The
    built-in ``max`` keeps its first argument when a comparison is false:
    ``max(0.0, nan)`` is 0.0.  +0.0 leads and only a larger value replaces
    it, so -0.0 never shows."""
    values = values if isinstance(values, np.ndarray) else np.fromiter(values, float)
    worst = float(np.max(values, initial=0.0))   # NaN if any value is NaN
    return worst if worst > 0.0 or worst != worst else 0.0


def equivalence_rows(model: AutonomousModel, result: RunResult) -> list[dict]:
    """Per-snapshot deviation between the two evaluation routes, one row per
    ledger record in ledger order, each record matched to its row of the
    direct route's stack; ``prob_dev`` compares the trace of the autonomous
    S⊗B state with that of the direct system state."""
    direct = evaluate_process_tensor(model.schedule, model.sb_init,
                                     [snap.time for snap in result.snapshots])
    rows = []
    for snap in result.snapshots:
        records, states = direct[snap.time]
        row_of = {record: i for i, record in enumerate(records)}
        ledger = snap.ledger
        state_dev, prob_dev = [], []
        for g in ledger.groups:
            want = states[[row_of[labels] for labels in g.records]]
            got = ptrace_factors(g.states, model.space(g.support).dims, [0])
            state_dev.append(np.max(np.abs(got - want), axis=(1, 2)))
            prob_dev.append(np.abs(g.weights - np.trace(want, axis1=1, axis2=2).real))
        rows += [{"time": snap.time, "record": record_string(labels),
                  "state_dev": s, "prob_dev": p}
                 for labels, s, p in zip(ledger.records, ledger.in_order(state_dev).tolist(),
                                         ledger.in_order(prob_dev).tolist())]
    return rows


def equivalence_checks(model: AutonomousModel, result: RunResult,
                       tol: Tolerances = DEFAULT
                       ) -> tuple[list[dict] | None, list[CheckResult]]:
    """The per-record rows of :func:`equivalence_rows` and the two checks on
    their worst state and probability deviations.

    The direct route models instantaneous controls only, so a model with a
    finite-width control window has no rows (None) and both checks are
    skipped with a note.
    """
    specs = (("equivalence-states", "state_dev", tol.equivalence_state),
             ("equivalence-probabilities", "prob_dev", tol.equivalence_prob))
    if any(s.window_width is not None for s in model.steps):
        return None, [CheckResult(name, 0.0, t, True,
                                  note="skipped: the direct route has no "
                                       "finite-width control windows")
                      for name, _, t in specs]
    rows = equivalence_rows(model, result)
    return rows, [_check(name, _worst(r[key] for r in rows), t)
                  for name, key, t in specs]


def run_verified(model: AutonomousModel, report_times, *, prune: float,
                 max_branches: int) -> RunResult:
    sim = Simulator(model, prune=prune, max_branches=max_branches)
    return sim.run(report_times=report_times)


def verify_model(model: AutonomousModel, result: RunResult,
                 ledger: ThermoLedger | None = None,
                 tol: Tolerances = DEFAULT,
                 rng: np.random.Generator | None = None) -> list[CheckResult]:
    """Run every check suite over a finished run."""
    rng = rng or np.random.default_rng(0)
    ledger = ledger if ledger is not None else evaluate_run(result)
    checks: list[CheckResult] = []

    # --- every instrument a record can meet: complete positivity and trace
    # preservation, its dilation's unitarity and reconstruction, and the
    # dephasing of its readout register into the branch split
    tp, cp, unitary, rec, deph = [], [], [], [], []
    for k, spec in enumerate(model.steps):
        for prefix, (hw, _) in spec.controls.items():
            inst = model.schedule.instrument_at(k, prefix)
            tp.append(inst.average().tp_residual())
            cp += [-float(np.linalg.eigvalsh(m.choi())[0]) for _, m in inst.outcomes]
            unitary += [hw.unitarity_residual(),
                        max_norm(sum(hw.projectors) - np.eye(hw.ancilla_dim))]
            rec.append(reconstruction_error(hw, inst))
            deph.append(dephasing_error(hw))
    checks.append(_check("kraus-trace-preserving", _worst(tp), tol.kraus_tp))
    checks.append(_check("complete-positivity", _worst(cp), tol.choi_psd))
    checks.append(_check("dilation-unitarity", _worst(unitary), tol.dilation_unitary))
    checks.append(_check("dilation-reconstruction", _worst(rec),
                         tol.dilation_reconstruction))
    checks.append(_check("dephasing-placement", _worst(deph), tol.trace))

    # --- memory: dephasing costs no energy on any state, any register size,
    # i.e. it commutes with a non-degenerate register next to a degenerate
    # dephaser (a multiple of the identity alone would pass any unitary)
    cost = []
    dims = sorted({len(model.schedule.alphabet(k)) for k in range(model.n_steps)}) or [2]
    for d in dims:
        u = dephasing_unitary(d)
        h_m = np.diag(np.cumsum(rng.uniform(0.1, 1.0, d)))
        h = np.kron(h_m, np.eye(d)) + np.kron(np.eye(d), rng.uniform() * np.eye(d))
        cost.append(max_norm(u @ h - h @ u))
    checks.append(_check("dephasing-zero-cost", _worst(cost), tol.dephasing_cost))

    # --- probability bookkeeping
    p_err = abs(result.final.total_weight() + result.final.pruned_mass - 1.0)
    checks.append(_check("record-probabilities-sum", p_err, tol.prob_total))
    # a non-finite state has no spectrum (eigvalsh raises): it reads NaN
    neg = [-np.linalg.eigvalsh(g.states)[:, 0] if np.isfinite(g.states).all()
           else np.array([math.nan]) for g in result.final.groups]
    checks.append(_check("branch-positivity", _worst(np.concatenate([np.zeros(0), *neg])),
                         tol.psd))

    # --- dynamical equivalence (instantaneous controls only)
    checks += equivalence_checks(model, result, tol)[1]

    # --- first law, per branch and ensemble, plus the energy budget
    first_law = [q - (rows.du - w) for rows in ledger.branch_rows.values()
                 for q, w in ((rows.q, rows.w), (rows.q_alt, rows.w_alt))]
    first_law.append(np.array([row.q - (row.du - row.w) for row in ledger.ensemble_rows]))
    budget = _worst(abs(row.w - row.w_budget) for row in ledger.ensemble_rows)
    # both ensemble identities close only over all records
    pruned = result.final.pruned_mass
    pruned_note = (f"pruned mass {pruned:.3e} is missing from the ensemble"
                   if pruned > 0 else "")
    checks.append(_check("first-law", _worst(np.abs(np.concatenate(first_law))),
                         tol.first_law))
    checks.append(_check("work-energy-budget", budget, tol.first_law, pruned_note))

    # --- measurement-work conventions agree on average
    checks.append(_check("work-convention-average",
                         _worst(tr.average_work_gap() for tr in result.traces),
                         tol.convention_average))

    # --- second law, both forms; a row that cannot be evaluated is listed
    # as skipped, with the reason
    gaps = [abs(row.sigma_first_law - row.sigma_rel_ent)
            for row in ledger.ensemble_rows if row.sigma_rel_ent is not None]
    if model.gibbs_initial:
        checks.append(_check("second-law-positivity",
                             _worst(-row.sigma_first_law for row in ledger.ensemble_rows),
                             tol.second_law))
        why = "" if gaps else (
            "bare mean-force mode has no exact relative-entropy reference"
            if model.mean_force_bare else "no report time has a surviving record")
    else:
        why = "non-thermal initial system-bath state voids the guarantee"
        checks.append(CheckResult("second-law-positivity", 0.0, tol.second_law, True,
                                  note=f"skipped: {why}"))
    if why:
        checks.append(CheckResult(
            "entropy-production-forms", 0.0, tol.sigma_forms, True,
            note="; ".join(filter(None, (f"skipped: {why}", pruned_note)))))
    else:
        checks.append(_check("entropy-production-forms", _worst(gaps),
                             tol.sigma_forms, pruned_note))
    return checks

