"""Tests for the verification suite itself."""

import dataclasses
from pathlib import Path

import numpy as np
import pytest

from proctherm import dilation
from proctherm.channels import InterventionSchedule
from proctherm.scenario import build_model, parse_scenario, parse_scenario_dict
from proctherm.simulate import Simulator, _Space
from proctherm.thermo import evaluate_run
from proctherm.tolerances import DEFAULT, Tolerances
from proctherm import verify
from proctherm.verify import run_verified, verify_model

from ledger_edits import with_state
from oracles import random_unitary, shift_matrix

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


def scenario_dict():
    return {
        "name": "verify-me",
        "beta": 1.0,
        "system": {"dim": 2},
        "bath": {"dim": 2, "hamiltonian": {"diag": [0.0, 1.0]}},
        "coupling": {"pauli": "XX", "coeff": 0.4},
        "system_hamiltonian": {"diag": [0.0, 1.0]},
        "time": {"start": 0.0, "end": 1.5},
        "report_times": [0.7, 1.5],
        "steps": [
            {"time": 0.4, "instrument": {"outcomes": [
                {"label": "1", "kraus": [[[1.0, 0.0], [0.0, 0.0]]]},
                {"label": "2", "kraus": [[[0.0, 0.0], [0.0, 1.0]]]}]}},
        ],
    }


def shifted_readout(projectors):
    """Readout unitary that writes outcome r into register slot r + 1."""
    m = len(projectors)
    return sum(np.kron(np.asarray(p, dtype=complex), shift_matrix(m, (r + 1) % m))
               for r, p in enumerate(projectors))


# seeded defects of the memory stage: (dilation binding, replacement)
MEMORY_DEFECTS = {
    "dephasing-skipped": ("dephasing_unitary", lambda d: np.eye(d * d, dtype=complex)),
    "dephaser-mixing": ("dephasing_unitary",
                        lambda d: random_unitary(np.random.default_rng(d), d * d)),
    "readout-shifted": ("measurement_unitary", shifted_readout),
}


# every row verify_model emits, in order
ROWS = ["dilation-reconstruction", "dephasing-placement", "record-probabilities-sum",
        "branch-positivity", "equivalence-states", "equivalence-probabilities",
        "work-energy-budget", "work-convention-average", "second-law-positivity",
        "entropy-production-forms"]


class TestVerifySuite:
    def test_all_checks_pass_and_are_named(self):
        model = build_model(parse_scenario_dict(scenario_dict()))
        result = run_verified(model, [0.7, 1.5], prune=1e-14, max_branches=256)
        checks = verify_model(model, result, rng=np.random.default_rng(0))
        assert [c.name for c in checks] == ROWS
        assert all(c.passed for c in checks)
        for c in checks:
            row = c.row()
            assert row["verdict"] == "pass"

    def test_impossible_tolerance_yields_failure(self):
        model = build_model(parse_scenario_dict(scenario_dict()))
        result = run_verified(model, [1.5], prune=1e-14, max_branches=256)
        # every check value is >= 0, so no value meets a negative tolerance
        tight = DEFAULT.replaced(prob_total=-1.0, sigma_forms=-1.0)
        checks = verify_model(model, result, tol=tight,
                              rng=np.random.default_rng(0))
        failed = {c.name for c in checks if not c.passed}
        assert failed == {"record-probabilities-sum", "entropy-production-forms"}

    def test_determinism_with_fixed_seed(self):
        model = build_model(parse_scenario_dict(scenario_dict()))
        result = run_verified(model, [1.5], prune=1e-14, max_branches=256)
        a = verify_model(model, result, rng=np.random.default_rng(42))
        b = verify_model(model, result, rng=np.random.default_rng(42))
        assert [(c.name, c.value) for c in a] == [(c.name, c.value) for c in b]

    def test_non_thermal_start_lists_every_check(self):
        # a non-thermal start voids both second-law forms: they are listed
        # as skipped with the reason, not left out
        def checks(data):
            model = build_model(parse_scenario_dict(data))
            result = run_verified(model, [0.7, 1.5], prune=1e-14, max_branches=256)
            return verify_model(model, result, rng=np.random.default_rng(0))

        data = scenario_dict()
        data["initial"] = {"sb": {"matrix": (np.eye(4) / 4).tolist()}}
        thermal, mixed = checks(scenario_dict()), checks(data)
        assert [c.name for c in mixed] == [c.name for c in thermal]
        second_law = [c for c in mixed if c.name in ("second-law-positivity",
                                                     "entropy-production-forms")]
        assert len(second_law) == 2
        for c in second_law:
            assert c.passed and c.value == 0.0
            assert c.note == "skipped: non-thermal initial system-bath state voids the guarantee"

    def test_a_replaced_model_is_verified_as_the_model(self):
        # dataclasses.replace keeps the declared start, so a copy of a Gibbs
        # start still runs both second-law rows
        model, result = measurement_work_run()
        copy = dataclasses.replace(model)
        assert copy.gibbs_initial
        copy_result = run_verified(copy, [s.time for s in result.snapshots], prune=1e-14,
                                   max_branches=256)
        assert ([c.row() for c in verify_model(copy, copy_result)]
                == [c.row() for c in verify_model(model, result)])

    def test_window_scenario_skips_equivalence(self):
        data = scenario_dict()
        data["steps"][0]["window"] = {"width": 0.05}
        model = build_model(parse_scenario_dict(data))
        result = run_verified(model, [1.5], prune=1e-14, max_branches=256)
        checks = verify_model(model, result, rng=np.random.default_rng(0))
        skipped = {c.name: c for c in checks if c.name.startswith("equivalence-")}
        assert sorted(skipped) == ["equivalence-probabilities", "equivalence-states"]
        for c in skipped.values():
            assert c.value == 0.0 and c.note.startswith("skipped:")
        assert all(c.passed for c in checks)

    @pytest.mark.parametrize("defect", sorted(MEMORY_DEFECTS))
    def test_memory_defect_fails_dephasing_placement(self, defect, monkeypatch):
        name, fake = MEMORY_DEFECTS[defect]
        model = build_model(parse_scenario_dict(scenario_dict()))
        result = run_verified(model, [1.5], prune=1e-14, max_branches=256)
        monkeypatch.setattr(dilation, name, fake)
        checks = verify_model(model, result, rng=np.random.default_rng(0))
        failed = {c.name for c in checks if not c.passed}
        assert failed == {"dephasing-placement"}

    def test_skipped_dephasing_fails_without_coherence_to_kill(self, monkeypatch):
        # a Gibbs state of Z read out in Z has no coherence between the
        # outcomes, so a run never reaches a state the missing dephasing
        # would change; the check over every input still sees it
        z = {"outcomes": [{"label": "g", "kraus": [[[1.0, 0.0], [0.0, 0.0]]]},
                          {"label": "e", "kraus": [[[0.0, 0.0], [0.0, 1.0]]]}]}
        model = build_model(parse_scenario_dict({
            "name": "gibbs-z", "beta": 1.0,
            "system": {"dim": 2}, "bath": {"dim": 1},
            "system_hamiltonian": {"diag": [1.0, -1.0]},
            "time": {"start": 0.0, "end": 1.0},
            "steps": [{"time": 0.5, "instrument": z}],
            "report_times": [1.0]}))
        result = run_verified(model, [1.0], prune=1e-14, max_branches=256)
        monkeypatch.setattr(dilation, *MEMORY_DEFECTS["dephasing-skipped"])
        checks = verify_model(model, result, rng=np.random.default_rng(0))
        failed = {c.name for c in checks if not c.passed}
        assert failed == {"dephasing-placement"}


class TestCorruptedBranch:
    def test_each_check_on_branch_states_flags_the_corrupted_record(self):
        # the second record of the final stack loses eps/4 along every
        # direction: its state is no longer positive, its probability is
        # eps too low and rho_S is eps/2 off the direct route's; each check
        # must see that, at that record and nowhere else
        eps = 1e-3
        model = build_model(parse_scenario_dict(scenario_dict()))
        result = run_verified(model, [1.5], prune=1e-14, max_branches=256)
        labels = list(result.final.branches)[1]
        br = result.final.branches[labels]
        ledger = with_state(result.final, labels, br.state - eps / 4 * np.eye(len(br.state)))
        snaps = tuple(dataclasses.replace(s, ledger=ledger) for s in result.snapshots)
        bad = dataclasses.replace(result, snapshots=snaps, final=ledger)
        rows = {r["record"]: r for r in verify.equivalence_rows(model, bad)}
        assert rows["2"]["state_dev"] == pytest.approx(eps / 2, rel=1e-9)
        assert rows["2"]["prob_dev"] == pytest.approx(eps, rel=1e-9)
        assert rows["1"]["state_dev"] <= DEFAULT.equivalence_state
        assert rows["1"]["prob_dev"] <= DEFAULT.equivalence_prob
        checks = {c.name: c for c in verify_model(model, bad, evaluate_run(result),
                                                  rng=np.random.default_rng(0))}
        assert {n for n, c in checks.items() if not c.passed} == {
            "record-probabilities-sum", "branch-positivity",
            "equivalence-states", "equivalence-probabilities"}
        assert checks["branch-positivity"].value == pytest.approx(eps / 4, rel=1e-9)

    def test_a_nan_in_a_later_record_fails_every_check_that_reads_it(self):
        # the built-in max keeps its first argument when a comparison is
        # false, so max(0.0, nan) would drop the NaN of the second record
        model = build_model(parse_scenario_dict(scenario_dict()))
        result = run_verified(model, [1.5], prune=1e-14, max_branches=256)
        labels = list(result.final.branches)[1]
        br = result.final.branches[labels]
        state = br.state.copy()
        state[0, 0] = np.nan
        ledger = with_state(result.final, labels, state)
        snaps = tuple(dataclasses.replace(s, ledger=ledger) for s in result.snapshots)
        bad = dataclasses.replace(result, snapshots=snaps, final=ledger)
        devs = [r["state_dev"] for r in verify.equivalence_rows(model, bad)]
        assert devs[0] <= DEFAULT.equivalence_state and np.isnan(devs[1])
        checks = {c.name: c for c in verify_model(model, bad, evaluate_run(result),
                                                  rng=np.random.default_rng(0))}
        failed = {n for n, c in checks.items() if not c.passed}
        assert failed == {"record-probabilities-sum", "branch-positivity",
                          "equivalence-states", "equivalence-probabilities"}
        assert all(np.isnan(checks[n].value) for n in failed)

    # each case is named by its table; only the ensemble rows feed a check
    @pytest.mark.parametrize("table, field, failing", [
        ("ensemble", "w_budget", {"work-energy-budget"}),
        ("ensemble", "sigma_first_law", {"second-law-positivity",
                                         "entropy-production-forms"}),
        ("ensemble", "sigma_rel_ent", {"entropy-production-forms"})])
    def test_a_nan_in_a_later_ledger_row_fails_its_checks(self, table, field, failing):
        model = build_model(parse_scenario_dict(scenario_dict()))
        result = run_verified(model, [0.7, 1.5], prune=1e-14, max_branches=256)
        ledger = evaluate_run(result)
        rows = ledger.ensemble_rows
        ledger = dataclasses.replace(ledger, ensemble_rows=(
            *rows[:-1], dataclasses.replace(rows[-1], **{field: np.nan})))
        checks = {c.name: c for c in verify_model(model, result, ledger,
                                                  rng=np.random.default_rng(0))}
        assert {n for n, c in checks.items() if not c.passed} == failing
        assert all(np.isnan(checks[n].value) for n in failing)


def givens(d, i, j, theta):
    """Real rotation by theta in the (i, j) plane of a d-dimensional space."""
    g = np.eye(d)
    c, s = np.cos(theta), np.sin(theta)
    g[i, i], g[j, j], g[i, j], g[j, i] = c, c, -s, s
    return g


def interleaved_scenario_dict():
    """A Z readout, then a collision with a qutrit ancilla read out by
    diag(1,0,0) and diag(0,1,1): record a factors the ancilla out, record b
    keeps it, so the ledger g|a, g|b, e|a, e|b alternates between the
    supports S B and S B A1."""
    data = scenario_dict()
    # |s, a> is index 3 s + a: |0,0> <-> |1,1> and |1,0> <-> |0,2>
    u = givens(6, 0, 4, 0.7) @ givens(6, 3, 2, 1.1)
    data["report_times"] = [1.5]
    data["steps"] = [
        {"time": 0.4, "instrument": {"outcomes": [
            {"label": "g", "kraus": [[[1.0, 0.0], [0.0, 0.0]]]},
            {"label": "e", "kraus": [[[0.0, 0.0], [0.0, 1.0]]]}]}},
        {"time": 0.8, "collision": {
            "ancilla": {"dim": 3}, "unitary": u.tolist(),
            "projectors": [np.diag([1.0, 0.0, 0.0]).tolist(),
                           np.diag([0.0, 1.0, 1.0]).tolist()],
            "labels": ["a", "b"]}},
    ]
    return data


class TestInterleavedSupports:
    def test_deviation_lands_on_its_ledger_record(self):
        # g|b is first in its support group but second in the ledger, so a
        # row taken by group position instead of by record would flag e|a
        eps = 1e-3
        model = build_model(parse_scenario_dict(interleaved_scenario_dict()))
        result = run_verified(model, [1.5], prune=1e-14, max_branches=256)
        ledger = result.final
        assert [(labels, br.support) for labels, br in ledger.branches.items()] == [
            (("g", "a"), ("S", "B")), (("g", "b"), ("S", "B", "A1")),
            (("e", "a"), ("S", "B")), (("e", "b"), ("S", "B", "A1"))]
        clean = verify.equivalence_rows(model, result)
        assert max(r["state_dev"] for r in clean) <= DEFAULT.equivalence_state
        assert max(r["prob_dev"] for r in clean) <= DEFAULT.equivalence_prob

        br = ledger.branches[("g", "b")]
        d = len(br.state)
        bad_ledger = with_state(ledger, ("g", "b"), br.state - eps / 4 * np.eye(d))
        snaps = tuple(dataclasses.replace(s, ledger=bad_ledger) for s in result.snapshots)
        bad = dataclasses.replace(result, snapshots=snaps, final=bad_ledger)
        rows = verify.equivalence_rows(model, bad)
        assert [(r["time"], r["record"]) for r in rows] == [
            (1.5, "g|a"), (1.5, "g|b"), (1.5, "e|a"), (1.5, "e|b")]
        flagged = [r["record"] for r in rows
                   if r["state_dev"] > DEFAULT.equivalence_state
                   or r["prob_dev"] > DEFAULT.equivalence_prob]
        assert flagged == ["g|b"]
        # tracing B A1 out of eps/4 * identity leaves eps/4 * (d / 2) on S
        assert rows[1]["state_dev"] == pytest.approx(eps / 4 * d / 2, rel=1e-9)
        assert rows[1]["prob_dev"] == pytest.approx(eps / 4 * d, rel=1e-9)


class TestTolerances:
    def test_replace_and_reject(self):
        tol = Tolerances().replaced(first_law=1e-6)
        assert tol.first_law == 1e-6
        with pytest.raises(ValueError, match=r"^unknown tolerance name\(s\): bogus, zz$"):
            Tolerances().replaced(zz=1.0, bogus=1.0)
        assert "first_law" in tol.as_dict()


def measurement_work_run(prune=1e-14):
    """The model of ``measurement_work.yaml`` (energetic ancilla, two
    readouts whose work conventions split per record) and its run."""
    scenario = parse_scenario(SCENARIO_DIR / "measurement_work.yaml")
    model = build_model(scenario)
    return model, run_verified(model, scenario.report_times, prune=prune, max_branches=256)


def failed_checks(model, result):
    checks = verify_model(model, result, rng=np.random.default_rng(0))
    return {c.name for c in checks if not c.passed}


def edit_final(result, edits):
    """``result`` with each record's final state replaced by its function
    of it, in the final ledger and in the last snapshot that holds it."""
    ledger = result.final
    for labels, edit in edits.items():
        ledger = with_state(ledger, labels, edit(ledger.branches[labels].state))
    last = dataclasses.replace(result.snapshots[-1], ledger=ledger)
    return dataclasses.replace(result, snapshots=(*result.snapshots[:-1], last), final=ledger)


def edit_last_ensemble_row(ledger, **fields):
    *rows, last = ledger.ensemble_rows
    return dataclasses.replace(ledger, ensemble_rows=(
        *rows, dataclasses.replace(last, **{k: f(last) for k, f in fields.items()})))


def other_kraus(model, result, ledger, monkeypatch):
    # U (V (x) 1) is unitary and realizes K_i V, not the declared K_i
    spec = model.steps[0]
    (prefix, (hw, readout)), = spec.controls.items()
    v = random_unitary(np.random.default_rng(5), hw.system_dim)
    moved = dataclasses.replace(hw, unitary=hw.unitary @ np.kron(v, np.eye(hw.ancilla_dim)))
    steps = (dataclasses.replace(spec, controls={prefix: (moved, readout)}), *model.steps[1:])
    return dataclasses.replace(model, steps=steps), result, ledger


def dephasing_skipped(model, result, ledger, monkeypatch):
    monkeypatch.setattr(dilation, *MEMORY_DEFECTS["dephasing-skipped"])
    return model, result, ledger


def unlost_pruned_mass(model, result, ledger, monkeypatch):
    final = dataclasses.replace(result.final, pruned_mass=1e-6)
    return model, dataclasses.replace(result, final=final), ledger


def bath_traceless_shift(model, result, ledger, monkeypatch):
    # rho + p (1_S (x) Z_B): same trace and rho_S, a negative eigenvalue
    def shift(rho):
        return rho + np.trace(rho).real * np.kron(np.eye(2), np.diag([1.0, -1.0]))
    return model, edit_final(result, {("up", "+"): shift}), ledger


def system_rotated(model, result, ledger, monkeypatch):
    x = np.kron(np.array([[0.0, 1.0], [1.0, 0.0]]), np.eye(2))
    return model, edit_final(result, {("up", "+"): lambda rho: x @ rho @ x}), ledger


def weight_moved(model, result, ledger, monkeypatch):
    # 5e-10 of weight from one record to another: each state keeps its
    # shape and stays within the state tolerance, the total stays 1
    def scaled(delta):
        return lambda rho: rho * (1 + delta / np.trace(rho).real)
    return model, edit_final(result, {("up", "+"): scaled(5e-10),
                                      ("down", "-"): scaled(-5e-10)}), ledger


def budget_moved(model, result, ledger, monkeypatch):
    return model, result, edit_last_ensemble_row(ledger, w_budget=lambda r: r.w_budget + 1e-6)


def flipped_knowledge_update_work(model, result, ledger, monkeypatch):
    first, trace = result.traces
    flipped = dataclasses.replace(trace, w_meas_alt=-trace.w_meas_alt)
    return model, dataclasses.replace(result, traces=(first, flipped)), ledger


def both_sigma_forms_negative(model, result, ledger, monkeypatch):
    return model, result, edit_last_ensemble_row(
        ledger, sigma_first_law=lambda r: -1e-6, sigma_rel_ent=lambda r: -1e-6)


def sigma_rel_ent_moved(model, result, ledger, monkeypatch):
    return model, result, edit_last_ensemble_row(
        ledger, sigma_rel_ent=lambda r: r.sigma_rel_ent + 1e-6)


# each row of verify, in order, and an edit of the measurement_work.yaml
# run (or of the code) that fails that row and no other
ROW_CONTROLS = {
    "dilation-reconstruction": other_kraus,
    "dephasing-placement": dephasing_skipped,
    "record-probabilities-sum": unlost_pruned_mass,
    "branch-positivity": bath_traceless_shift,
    "equivalence-states": system_rotated,
    "equivalence-probabilities": weight_moved,
    "work-energy-budget": budget_moved,
    "work-convention-average": flipped_knowledge_update_work,
    "second-law-positivity": both_sigma_forms_negative,
    "entropy-production-forms": sigma_rel_ent_moved,
}


class TestRowControls:
    def test_every_row_has_a_control(self):
        model, result = measurement_work_run()
        assert list(ROW_CONTROLS) == [c.name for c in verify_model(model, result)] == ROWS

    @pytest.mark.parametrize("row", list(ROW_CONTROLS))
    def test_control_fails_its_row_alone(self, row, monkeypatch):
        model, result = measurement_work_run()
        ledger = evaluate_run(result)
        assert {c.name for c in verify_model(model, result, ledger) if not c.passed} == set()
        checks = verify_model(*ROW_CONTROLS[row](model, result, ledger, monkeypatch))
        assert {c.name for c in checks if not c.passed} == {row}


class TestNegativeControls:
    # each edit of a finished run breaks what one check reads, and the
    # check fails; every other verdict stays as it was
    def test_scaled_step_unitary_fails_dilation_unitarity(self):
        # a non-unitary dilation cannot be built, so no run carries one
        model, result = measurement_work_run()
        assert failed_checks(model, result) == set()
        (hw, _), = model.steps[1].controls.values()
        with pytest.raises(ValueError, match="not unitary"):
            dataclasses.replace(hw, unitary=(1 + 1e-6) * hw.unitary)

    def test_flipped_knowledge_update_work_fails_convention_average(self):
        # step 1's two conventions agree record by record, at nonzero work
        model, result = measurement_work_run()
        assert failed_checks(model, result) == set()
        first, trace = result.traces
        assert np.abs(trace.w_meas_alt).min() > 0.01
        flipped = dataclasses.replace(trace, w_meas_alt=-trace.w_meas_alt)
        assert failed_checks(model, dataclasses.replace(result, traces=(first, flipped))) == {
            "work-convention-average"}

    def test_unbooked_pruned_mass_fails_record_probabilities_sum(self):
        # a threshold of 0.2 drops two of the four final records; the
        # ensemble identities already fail over the records that are left
        model, result = measurement_work_run(prune=0.2)
        assert len(result.final.records) == 2 and result.final.pruned_mass > 0.3
        before = failed_checks(model, result)
        assert before == {"work-energy-budget", "entropy-production-forms"}
        final = dataclasses.replace(result.final, pruned_mass=0.0)
        assert failed_checks(model, dataclasses.replace(result, final=final)) == before | {
            "record-probabilities-sum"}


def _perturbed_h_sb(monkeypatch, route, scale):
    """Add ``scale`` times V to one route's system-bath Hamiltonian: the
    direct route's ``h_sb`` or the autonomous route's S B block."""
    if route == "direct":
        h_sb = InterventionSchedule.h_sb
        monkeypatch.setattr(InterventionSchedule, "h_sb",
                            lambda self, h: h_sb(self, h) + scale * self.v_coupling)
    else:
        hamiltonian = _Space.hamiltonian

        def perturbed(self, h_system=None, window=None):
            h = hamiltonian(self, h_system, window)
            return h + scale * self.model.v_coupling if self.support == ("S", "B") else h

        monkeypatch.setattr(_Space, "hamiltonian", perturbed)


class TestRouteIndependence:
    # the schedule shares a spectrum between the routes only for matrices
    # equal to the bit, so an edit of either route's H_SB still shows
    @pytest.mark.parametrize("route", ["direct", "autonomous"])
    @pytest.mark.parametrize("scale", [-1.0, 1e-3], ids=["without-v", "v-scaled"])
    def test_a_perturbed_h_sb_fails_equivalence_states(self, monkeypatch, route, scale):
        scenario = parse_scenario(SCENARIO_DIR / "driven_feedback.yaml")

        def failed():
            model = build_model(scenario)
            result = run_verified(model, scenario.report_times, prune=1e-14, max_branches=256)
            return {c.name for c in verify.equivalence_checks(model, result)[1] if not c.passed}

        assert failed() == set()
        _perturbed_h_sb(monkeypatch, route, scale)
        assert "equivalence-states" in failed()
