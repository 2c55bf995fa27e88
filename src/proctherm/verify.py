"""Verification suites: every identity the package asserts, as a pass/fail
table over one scenario run.

Checks cover probability normalization, complete positivity, dilation
unitarity and reconstruction, the dephasing of every readout register into
the branch split and its zero energy cost, the autonomous/direct dynamical
equivalence, the first law at branch and ensemble level backed by an
independent global energy budget, both entropy-production forms, and the
average agreement of the two measurement-work conventions.
"""

from __future__ import annotations

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


def equivalence_rows(model: AutonomousModel, result: RunResult) -> list[dict]:
    """Per-snapshot, per-record deviation between the two evaluation routes."""
    direct = evaluate_process_tensor(model.schedule, model.sb_init,
                                     [snap.time for snap in result.snapshots])
    rows = []
    for snap in result.snapshots:
        for br in snap.ledger.branches.values():
            want = direct[snap.time][br.labels]
            dims = model.registry.dims(br.support)
            got = ptrace_factors(br.state, dims, [0])
            rows.append({
                "time": snap.time,
                "record": record_string(br.labels),
                "state_dev": max_norm(got - want.mat),
                "prob_dev": abs(br.weight - want.weight)})
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
    return rows, [_check(name, max((r[key] for r in rows), default=0.0), t)
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
    worst_tp, worst_cp, worst_u, worst_rec, worst_deph = 0.0, 0.0, 0.0, 0.0, 0.0
    for k, spec in enumerate(model.steps):
        for prefix, (hw, _) in spec.controls.items():
            inst = model.schedule.instrument_at(k, prefix)
            worst_tp = max(worst_tp, inst.average().tp_residual())
            for _, cp in inst.outcomes:
                worst_cp = max(worst_cp, -float(np.linalg.eigvalsh(cp.choi())[0]))
            worst_u = max(worst_u, hw.unitarity_residual())
            comp = sum(hw.projectors)
            worst_u = max(worst_u, max_norm(comp - np.eye(hw.ancilla_dim)))
            worst_rec = max(worst_rec, reconstruction_error(hw, inst))
            worst_deph = max(worst_deph, dephasing_error(hw))
    checks.append(_check("kraus-trace-preserving", worst_tp, tol.kraus_tp))
    checks.append(_check("complete-positivity", max(worst_cp, 0.0), tol.choi_psd))
    checks.append(_check("dilation-unitarity", worst_u, tol.dilation_unitary))
    checks.append(_check("dilation-reconstruction", worst_rec,
                         tol.dilation_reconstruction))
    checks.append(_check("dephasing-placement", worst_deph, tol.trace))

    # --- memory: dephasing costs no energy on any state, any register size,
    # i.e. it commutes with a non-degenerate register next to a degenerate
    # dephaser (a multiple of the identity alone would pass any unitary)
    worst_cost = 0.0
    dims = sorted({len(model.schedule.alphabet(k)) for k in range(model.n_steps)}) or [2]
    for d in dims:
        u = dephasing_unitary(d)
        h_m = np.diag(np.cumsum(rng.uniform(0.1, 1.0, d)))
        h = np.kron(h_m, np.eye(d)) + np.kron(np.eye(d), rng.uniform() * np.eye(d))
        worst_cost = max(worst_cost, max_norm(u @ h - h @ u))
    checks.append(_check("dephasing-zero-cost", worst_cost, tol.dephasing_cost))

    # --- probability bookkeeping
    p_err = abs(result.final.total_weight() + result.final.pruned_mass - 1.0)
    checks.append(_check("record-probabilities-sum", p_err, tol.prob_total))
    worst_neg = 0.0
    for br in result.final.branches.values():
        worst_neg = max(worst_neg, -float(np.linalg.eigvalsh(br.state)[0]))
    checks.append(_check("branch-positivity", max(worst_neg, 0.0), tol.psd))

    # --- dynamical equivalence (instantaneous controls only)
    checks += equivalence_checks(model, result, tol)[1]

    # --- first law, per branch and ensemble, plus the energy budget
    worst_fl = 0.0
    for t, rows in ledger.branch_rows.items():
        for r in rows:
            worst_fl = max(worst_fl, abs(r.q - (r.du - r.w)),
                           abs(r.q_alt - (r.du - r.w_alt)))
    budget = 0.0
    for row in ledger.ensemble_rows:
        worst_fl = max(worst_fl, abs(row.q - (row.du - row.w)))
        budget = max(budget, abs(row.w - row.w_budget))
    # both ensemble identities close only over all records
    pruned = result.final.pruned_mass
    pruned_note = (f"pruned mass {pruned:.3e} is missing from the ensemble"
                   if pruned > 0 else "")
    checks.append(_check("first-law", worst_fl, tol.first_law))
    checks.append(_check("work-energy-budget", budget, tol.first_law, pruned_note))

    # --- measurement-work conventions agree on average
    worst_gap = max((tr.average_work_gap() for tr in result.traces), default=0.0)
    checks.append(_check("work-convention-average", worst_gap,
                         tol.convention_average))

    # --- second law, both forms
    if model.gibbs_initial:
        # +0.0 leads: max keeps the first of equal values, so -0.0 never shows
        neg = max([0.0] + [-row.sigma_first_law for row in ledger.ensemble_rows])
        checks.append(_check("second-law-positivity", neg, tol.second_law))
        gaps = [abs(row.sigma_first_law - row.sigma_rel_ent)
                for row in ledger.ensemble_rows if row.sigma_rel_ent is not None]
        if gaps:
            checks.append(_check("entropy-production-forms", max(gaps),
                                 tol.sigma_forms, pruned_note))
        else:
            why = ("bare mean-force mode has no exact relative-entropy reference"
                   if model.mean_force_bare else "no report time has a surviving record")
            checks.append(CheckResult(
                "entropy-production-forms", 0.0, tol.sigma_forms, True,
                note="; ".join(filter(None, (f"skipped: {why}", pruned_note)))))
    else:
        checks.append(CheckResult(
            "second-law-positivity", 0.0, tol.second_law, True,
            note="skipped: non-thermal initial system-bath state voids the "
                 "guarantee"))
    return checks

