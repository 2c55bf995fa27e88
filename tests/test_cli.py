"""Tests for the command-line interface and report bundles."""

import dataclasses
import itertools
import json
import math
from pathlib import Path

import pytest
import yaml

from proctherm.cli import main
from proctherm.scenario import build_model, parse_scenario
from proctherm.tolerances import Tolerances

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


def run_cli(*argv):
    return main(list(argv))


class TestVerifyCommand:
    def test_all_shipped_scenarios_pass(self, capsys):
        for path in sorted(SCENARIO_DIR.glob("*.yaml")):
            assert run_cli("verify", "--scenario", str(path)) == 0, path.name
            out = capsys.readouterr().out
            assert "FAIL" not in out
            assert "first-law" in out

    def test_corrupted_kraus_fails_with_input_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text(
            "name: bad\nbeta: 1.0\nsystem: {dim: 2}\n"
            "system_hamiltonian: {diag: [0.0, 1.0]}\n"
            "time: {start: 0.0, end: 1.0}\n"
            "report_times: [1.0]\n"
            "steps:\n"
            "  - time: 0.5\n"
            "    instrument:\n"
            "      outcomes:\n"
            "        - {label: '1', kraus: [[[1.0, 0.0], [0.0, 0.0]]]}\n")
        assert run_cli("verify", "--scenario", str(bad)) == 2
        err = capsys.readouterr().err
        assert "residual" in err

    def test_tolerance_override_can_force_failure(self, capsys):
        # a check passes iff value <= tol and every deviation is >= 0, so a
        # negative tolerance fails even when the two routes agree exactly
        code = run_cli("verify", "--scenario",
                       str(SCENARIO_DIR / "driven_feedback.yaml"),
                       "--tol-override", "equivalence_state=-1",
                       "--tol-override", "equivalence_prob=-1")
        assert code == 1
        assert "FAIL" in capsys.readouterr().out

    def test_unknown_tolerance_rejected(self, capsys):
        code = run_cli("verify", "--scenario",
                       str(SCENARIO_DIR / "equilibrium.yaml"),
                       "--tol-override", "nonsense=1")
        assert code == 2

    def test_subtly_corrupted_kraus_caught_by_checks(self, tmp_path, capsys):
        # a Kraus defect below the parser's tolerance still fails the check
        # suite once the trace-preservation tolerance is tightened
        eps = 2e-11
        k0 = (1 + eps) * 1.0
        bad = tmp_path / "subtle.yaml"
        bad.write_text(
            "name: subtle\nbeta: 1.0\nsystem: {dim: 2}\n"
            "system_hamiltonian: {diag: [0.0, 1.0]}\n"
            "time: {start: 0.0, end: 1.0}\n"
            "report_times: [1.0]\n"
            "steps:\n"
            "  - time: 0.5\n"
            "    instrument:\n"
            "      outcomes:\n"
            f"        - {{label: '1', kraus: [[[{k0!r}, 0.0], [0.0, 0.0]]]}}\n"
            "        - {label: '2', kraus: [[[0.0, 0.0], [0.0, 1.0]]]}\n")
        assert run_cli("verify", "--scenario", str(bad)) == 0
        capsys.readouterr()
        code = run_cli("verify", "--scenario", str(bad),
                       "--tol-override", "kraus_tp=1e-12")
        assert code == 1
        assert "kraus-trace-preserving" in capsys.readouterr().out


def verify_outputs(outdir, *overrides):
    """Check verdicts and run numbers of ``verify --out`` on the scenario
    whose verify table skips no check."""
    argv = ["verify", "--scenario", str(SCENARIO_DIR / "measurement_work.yaml"),
            "--out", str(outdir)]
    for pair in overrides:
        argv += ["--tol-override", pair]
    run_cli(*argv)
    checks = json.loads((outdir / "report.json").read_text())["checks"]
    return ([(c["name"], c["verdict"]) for c in checks],
            (outdir / "branches.csv").read_text(), (outdir / "ensemble.csv").read_text())


@pytest.fixture(scope="module")
def default_verify_outputs(tmp_path_factory):
    return verify_outputs(tmp_path_factory.mktemp("default"))


class TestToleranceFields:
    # every check value is >= 0, so a negative tolerance fails any check
    # that reads it; a prune threshold of 0.9 drops every lighter record
    EXTREME = {"prune": "0.9"}

    @pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(Tolerances)])
    def test_extreme_override_changes_a_verdict_or_a_number(
            self, name, tmp_path, capsys, default_verify_outputs):
        got = verify_outputs(tmp_path, f"{name}={self.EXTREME.get(name, '-1')}")
        assert got != default_verify_outputs

    @pytest.mark.parametrize("name", ["hermitian", "unitary", "eig_floor", "time_eps"])
    def test_fixed_floors_are_not_tolerances(self, name, capsys):
        code = run_cli("verify", "--scenario", str(SCENARIO_DIR / "equilibrium.yaml"),
                       "--tol-override", f"{name}=-1")
        assert code == 2
        assert "unknown tolerance" in capsys.readouterr().err


class TestRunCommand:
    def test_bundle_files_written(self, tmp_path):
        out = tmp_path / "report"
        code = run_cli("run", "--scenario", str(SCENARIO_DIR / "driven_feedback.yaml"),
                       "--mode", "both", "--out", str(out))
        assert code == 0
        doc = json.loads((out / "report.json").read_text())
        assert doc["scenario"] == "driven-feedback"
        assert doc["equivalence"]
        assert len(doc["scenario_checksum"]) == 64
        branches = (out / "branches.csv").read_text().splitlines()
        assert branches[0].startswith("time,record,p,u,du,w_sys")
        assert len(branches) > 4
        ensemble = (out / "ensemble.csv").read_text().splitlines()
        assert ensemble[0].startswith("time,total_weight")

    def test_deterministic_bundles(self, tmp_path):
        outs = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            assert run_cli("run", "--scenario",
                           str(SCENARIO_DIR / "measurement_work.yaml"),
                           "--mode", "both", "--seed", "7",
                           "--out", str(out)) == 0
            outs.append((out / "report.json").read_bytes()
                        + (out / "branches.csv").read_bytes()
                        + (out / "ensemble.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_control_caveat_flagged(self, tmp_path, capsys):
        # instantaneous controls over a coupled bath carry the caveat note
        out = tmp_path / "r"
        run_cli("run", "--scenario", str(SCENARIO_DIR / "measurement_work.yaml"),
                "--out", str(out))
        doc = json.loads((out / "report.json").read_text())
        assert doc["control_caveat"] is not None
        assert "bath" in doc["control_caveat"]
        err = capsys.readouterr().err
        assert "note:" in err

    def test_process_tensor_mode(self, capsys):
        code = run_cli("run", "--scenario", str(SCENARIO_DIR / "tpm_qutrit.yaml"),
                       "--mode", "process-tensor")
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        probs = {}
        for row in doc["records"]:
            probs.setdefault(row["time"], 0.0)
            probs[row["time"]] += row["p"]
        for t, total in probs.items():
            assert total == pytest.approx(1.0, abs=1e-10)
        # rows come by report time, then in product order of the alphabets
        scenario = parse_scenario(SCENARIO_DIR / "tpm_qutrit.yaml")
        sched = build_model(scenario).schedule
        expected = [(t, "|".join(rec) or "-") for t in scenario.report_times
                    for rec in itertools.product(*[
                        sched.alphabet(k) for k, tk in enumerate(sched.times) if tk <= t])]
        assert [(row["time"], row["record"]) for row in doc["records"]] == expected
        assert len(expected) == 3 + 3 + 9


def z_readouts_from_ground(tmp_path):
    """Two projective Z readouts of |0><0| with no bath and a zero prune
    threshold: only the record g|g is possible."""
    z = {"outcomes": [{"label": "g", "kraus": [[[1.0, 0.0], [0.0, 0.0]]]},
                      {"label": "e", "kraus": [[[0.0, 0.0], [0.0, 1.0]]]}]}
    path = tmp_path / "z_from_ground.yaml"
    path.write_text(yaml.safe_dump({
        "name": "z-from-ground", "beta": 1.0,
        "system": {"dim": 2}, "bath": {"dim": 1},
        "system_hamiltonian": {"diag": [0.0, 1.0]},
        "time": {"start": 0.0, "end": 1.0},
        "steps": [{"time": 0.3, "instrument": z}, {"time": 0.6, "instrument": z}],
        "initial": {"sb": {"matrix": [[1.0, 0.0], [0.0, 0.0]]}},
        "report_times": [0.5, 1.0],
        "options": {"prune_threshold": 0.0}}))
    return path


def windowed_measurement_work(tmp_path):
    """``measurement_work.yaml`` with a finite control window on step 1."""
    data = yaml.safe_load((SCENARIO_DIR / "measurement_work.yaml").read_text())
    data["steps"][1]["window"] = {"width": 0.2}
    path = tmp_path / "windowed.yaml"
    path.write_text(yaml.safe_dump(data))
    return path


class TestPruneRule:
    def test_process_tensor_lists_the_simulator_records(self, tmp_path, capsys):
        # zero-probability records are dropped on both routes, whatever the
        # threshold
        path = z_readouts_from_ground(tmp_path)
        assert run_cli("run", "--scenario", str(path), "--mode", "process-tensor") == 0
        direct = [(r["time"], r["record"]) for r in json.loads(capsys.readouterr().out)["records"]]
        out = tmp_path / "auto"
        assert run_cli("run", "--scenario", str(path), "--out", str(out)) == 0
        doc = json.loads((out / "report.json").read_text())
        assert direct == [(r["time"], r["record"]) for r in doc["branch_rows"]]
        assert direct == [(0.5, "g"), (1.0, "g|g")]


class TestPrunedEnsemble:
    def test_empty_ensemble_rows_are_float_zeros_without_relent(self, tmp_path):
        # prune=0.9 drops every record, so each report time has no branch
        out = tmp_path / "r"
        code = run_cli("verify", "--scenario", str(SCENARIO_DIR / "measurement_work.yaml"),
                       "--tol-override", "prune=0.9", "--out", str(out))
        assert code == 0
        lines = (out / "ensemble.csv").read_text().splitlines()
        header = lines[0].split(",")
        for line in lines[1:]:
            row = dict(zip(header, line.split(",")))
            for key in ("total_weight", "u", "w", "w_alt", "s", "f"):
                assert row[key] == "0.0"
            assert row["sigma_rel_ent"] == ""
        checks = {c["name"]: c for c in json.loads((out / "report.json").read_text())["checks"]}
        forms = checks["entropy-production-forms"]
        assert forms["verdict"] == "pass" and forms["note"].startswith("skipped:")

    def test_second_law_of_empty_rows_reads_positive_zero(self, tmp_path, capsys):
        # every ensemble row is empty, so each sigma is 0.0 and its negation -0.0
        out = tmp_path / "r"
        run_cli("verify", "--scenario", str(SCENARIO_DIR / "measurement_work.yaml"),
                "--tol-override", "prune=0.9", "--out", str(out))
        checks = {c["name"]: c for c in json.loads((out / "report.json").read_text())["checks"]}
        assert math.copysign(1.0, checks["second-law-positivity"]["value"]) == 1.0
        assert "-0.000e+00" not in capsys.readouterr().out

    def test_pruned_mass_named_on_the_ensemble_identities(self, tmp_path, capsys):
        def notes(*overrides):
            out = tmp_path / "-".join(overrides or ("default",))
            argv = ["verify", "--scenario", str(SCENARIO_DIR / "measurement_work.yaml"),
                    "--out", str(out)]
            for pair in overrides:
                argv += ["--tol-override", pair]
            run_cli(*argv)
            checks = json.loads((out / "report.json").read_text())["checks"]
            return {c["name"]: c["note"] for c in checks}

        names = ("work-energy-budget", "entropy-production-forms")
        assert all(notes()[n] == "" for n in names)
        pruned = notes("prune=0.4")
        for n in names:
            assert "pruned mass 1.000e+00" in pruned[n]
        assert "pruned mass" in capsys.readouterr().out


class TestWindowedModel:
    def test_run_both_skips_equivalence(self, tmp_path, capsys):
        # the direct route has no finite-width windows, so there is nothing
        # to compare against
        out = tmp_path / "r"
        assert run_cli("run", "--scenario", str(windowed_measurement_work(tmp_path)),
                       "--mode", "both", "--out", str(out)) == 0
        assert json.loads((out / "report.json").read_text())["equivalence"] is None
        assert "equivalence-states skipped" in capsys.readouterr().err

    def test_verify_reports_skipped_equivalence(self, tmp_path, capsys):
        assert run_cli("verify", "--scenario", str(windowed_measurement_work(tmp_path))) == 0
        lines = [l for l in capsys.readouterr().out.splitlines()
                 if l.startswith("equivalence-")]
        assert len(lines) == 2
        assert all("pass" in l and "skipped" in l for l in lines)

    def test_equiv_rejects_windowed_model(self, tmp_path, capsys):
        assert run_cli("equiv", "--scenario", str(windowed_measurement_work(tmp_path))) == 2
        assert "instantaneous controls only" in capsys.readouterr().err


class TestEquivCommand:
    def test_equiv_passes_on_shipped_scenarios(self, capsys):
        for name in ("driven_feedback.yaml", "tpm_qutrit.yaml"):
            assert run_cli("equiv", "--scenario", str(SCENARIO_DIR / name)) == 0
            out = capsys.readouterr().out
            assert "worst:" in out

    def test_equiv_writes_json(self, tmp_path):
        out = tmp_path / "eq"
        assert run_cli("equiv", "--scenario",
                       str(SCENARIO_DIR / "equilibrium.yaml"),
                       "--out", str(out)) == 0
        doc = json.loads((out / "equivalence.json").read_text())
        assert doc["worst_state_dev"] < 1e-9


class TestDilateCommand:
    def test_dump_dilation(self, capsys):
        code = run_cli("dilate", "--scenario",
                       str(SCENARIO_DIR / "driven_feedback.yaml"), "--step", "0")
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["ancilla_dim"] == 2
        assert doc["unitarity_residual"] < 1e-10
        assert doc["reconstruction_error"] < 1e-9
        assert len(doc["unitary"]) == 4

    def test_bad_step_index(self, capsys):
        code = run_cli("dilate", "--scenario",
                       str(SCENARIO_DIR / "equilibrium.yaml"), "--step", "3")
        assert code == 2


class TestInputErrors:
    def test_missing_scenario_file(self, capsys):
        assert run_cli("run", "--scenario", "/does/not/exist.yaml") == 2
        assert "error:" in capsys.readouterr().err

    def test_invalid_prune_threshold(self, tmp_path, capsys):
        bad = tmp_path / "prune.yaml"
        bad.write_text((SCENARIO_DIR / "driven_feedback.yaml").read_text()
                       + "\noptions: {prune_threshold: -0.5}\n")
        assert run_cli("run", "--scenario", str(bad)) == 2
        assert "prune_threshold" in capsys.readouterr().err

    def test_checks_key_is_an_input_error(self, tmp_path, capsys):
        bad = tmp_path / "checks.yaml"
        bad.write_text((SCENARIO_DIR / "equilibrium.yaml").read_text()
                       + "\nchecks: {second_law: false}\n")
        assert run_cli("verify", "--scenario", str(bad)) == 2
        assert "checks" in capsys.readouterr().err
