"""Tests for the command-line interface and report bundles."""

import argparse
import copy
import dataclasses
import importlib.util
import itertools
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

import proctherm.cli as cli
from proctherm.channels import CPMap
from proctherm.cli import main
from proctherm.scenario import _parse_complex, build_model, parse_scenario
from proctherm.tolerances import Tolerances
from proctherm.verify import equivalence_rows, run_verified

from ledger_edits import with_state
from test_verify import ROWS

ROOT = Path(__file__).resolve().parent.parent
SCENARIO_DIR = ROOT / "scenarios"


def run_cli(*argv):
    return main(list(argv))


class TestVerifyCommand:
    def test_all_shipped_scenarios_pass(self, capsys):
        for path in sorted(SCENARIO_DIR.glob("*.yaml")):
            assert run_cli("verify", "--scenario", str(path)) == 0, path.name
            out = capsys.readouterr().out
            assert "FAIL" not in out
            assert [line.split()[0] for line in out.splitlines()] == ROWS

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

    def test_nan_branch_state_is_a_failed_check_not_an_input_error(
            self, monkeypatch, capsys):
        # eigvalsh raises LinAlgError (a ValueError, so exit 2) on a NaN
        # state; the check reads NaN and fails instead
        def corrupted(*args, **kwargs):
            result = run_verified(*args, **kwargs)
            labels, br = list(result.final.branches.items())[1]
            state = br.state.copy()
            state[0, 0] = math.nan
            return dataclasses.replace(result, final=with_state(result.final, labels, state))

        monkeypatch.setattr(cli, "run_verified", corrupted)
        code = run_cli("verify", "--scenario", str(SCENARIO_DIR / "measurement_work.yaml"))
        assert code == 1
        rows = {line.split()[0]: line for line in capsys.readouterr().out.splitlines()}
        assert "value=nan" in rows["branch-positivity"] and "FAIL" in rows["branch-positivity"]

    @pytest.mark.parametrize("extra", [{}, {
        "bath": {"dim": 2, "hamiltonian": {"diag": [-800.0, 0.5]}},
        "coupling": {"pauli": "XX", "coeff": 0.3},
        "report_times": [0.5, 1.0],
        "steps": [{"time": 0.4, "instrument": {"outcomes": [
            {"label": "g", "kraus": [[[1.0, 0.0], [0.0, 0.0]]]},
            {"label": "e", "kraus": [[[0.0, 0.0], [0.0, 1.0]]]}]}}]}],
        ids=["no-steps", "coupled-measured"])
    def test_gibbs_start_far_below_zero_passes(self, tmp_path, capsys, extra):
        # Z = exp(800) is past the float range; the state and ln Z are not
        path = tmp_path / "low.yaml"
        path.write_text(yaml.safe_dump({
            "name": "low", "beta": 1.0, "system": {"dim": 2},
            "system_hamiltonian": {"diag": [-800.0, 0.0]},
            "time": {"start": 0.0, "end": 1.0}, "report_times": [1.0], **extra}))
        assert run_cli("verify", "--scenario", str(path)) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out and "skipped" not in out

    def test_unknown_tolerance_rejected(self, capsys):
        code = run_cli("verify", "--scenario",
                       str(SCENARIO_DIR / "equilibrium.yaml"),
                       "--tol-override", "nonsense=1")
        assert code == 2

    def test_subtly_corrupted_kraus_caught_by_checks(self, tmp_path, capsys):
        # a Kraus defect below the fixed Kraus bound is accepted, and the
        # check suite sees the weight it adds once the probability tolerance
        # is tightened; the clean instrument passes at that tolerance
        bad = tmp_path / "subtle.yaml"
        for eps, code in ((0.0, 0), (2e-11, 1)):
            k0 = (1 + eps) * 1.0
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
            assert run_cli("verify", "--scenario", str(bad),
                           "--tol-override", "prob_total=1e-11") == code
            failed = [line.split()[0] for line in capsys.readouterr().out.splitlines()
                      if "FAIL" in line]
            assert failed == ["record-probabilities-sum"] * code


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
        if name == "dilation_unitary":
            # no verify row reads it: construction refuses a dilation above
            # the default, and `dilate` judges the step against the override
            argv = ["dilate", "--scenario", str(SCENARIO_DIR / "measurement_work.yaml"),
                    "--out", str(tmp_path)]
            assert run_cli(*argv) == 0
            assert run_cli(*argv, "--tol-override", "dilation_unitary=-1") == 1
            return
        got = verify_outputs(tmp_path, f"{name}={self.EXTREME.get(name, '-1')}")
        assert got != default_verify_outputs

    @pytest.mark.parametrize("name", ["choi_psd", "dephasing_cost"])
    def test_deleted_tolerances_are_unknown(self, name, capsys):
        code = run_cli("verify", "--scenario", str(SCENARIO_DIR / "equilibrium.yaml"),
                       "--tol-override", f"{name}=1e-6")
        assert code == 2
        assert capsys.readouterr().err == f"error: \"unknown tolerance name(s): ['{name}']\"\n"

    @pytest.mark.parametrize("name", ["hermitian", "unitary", "eig_floor", "time_eps",
                                      "kraus_tp"])
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

    def test_report_without_out_is_the_written_report(self, tmp_path, capsys):
        scenario = str(SCENARIO_DIR / "measurement_work.yaml")
        out = tmp_path / "r"
        assert run_cli("run", "--scenario", scenario, "--mode", "both", "--seed", "7",
                       "--out", str(out)) == 0
        capsys.readouterr()
        assert run_cli("run", "--scenario", scenario, "--mode", "both", "--seed", "7") == 0
        assert capsys.readouterr().out == (out / "report.json").read_text(encoding="utf-8") + "\n"

    @pytest.mark.parametrize("path", sorted(SCENARIO_DIR.glob("*.yaml")), ids=lambda p: p.stem)
    def test_process_tensor_mode(self, path, capsys):
        code = run_cli("run", "--scenario", str(path), "--mode", "process-tensor")
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        probs = {}
        for row in doc["records"]:
            probs.setdefault(row["time"], 0.0)
            probs[row["time"]] += row["p"]
        scenario = parse_scenario(path)
        assert sorted(probs) == sorted(scenario.report_times)
        for t, total in probs.items():
            assert total == pytest.approx(1.0, abs=1e-10)
        # rows come by report time, then in product order of the alphabets
        sched = build_model(scenario).schedule
        expected = [(t, "|".join(rec) or "-") for t in scenario.report_times
                    for rec in itertools.product(*[
                        sched.alphabet(k) for k, tk in enumerate(sched.times) if tk <= t])]
        assert [(row["time"], row["record"]) for row in doc["records"]] == expected
        if path.stem == "tpm_qutrit":
            assert len(expected) == 3 + 3 + 9


def z_readouts_from_ground(tmp_path, times=(0.3, 0.6)):
    """Projective Z readouts of |0><0| at ``times`` with no bath and a zero
    prune threshold: only the record g|g|... is possible."""
    z = {"outcomes": [{"label": "g", "kraus": [[[1.0, 0.0], [0.0, 0.0]]]},
                      {"label": "e", "kraus": [[[0.0, 0.0], [0.0, 1.0]]]}]}
    path = tmp_path / "z_from_ground.yaml"
    path.write_text(yaml.safe_dump({
        "name": "z-from-ground", "beta": 1.0,
        "system": {"dim": 2}, "bath": {"dim": 1},
        "system_hamiltonian": {"diag": [0.0, 1.0]},
        "time": {"start": 0.0, "end": 1.0},
        "steps": [{"time": t, "instrument": z} for t in times],
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
    def test_process_tensor_lists_the_simulator_records(self, tmp_path):
        # zero-probability records are dropped on both routes, whatever the
        # threshold; on every shipped scenario the direct route lists the
        # simulator's (time, record) pairs in its order, each p within the
        # equivalence tolerance
        zero = z_readouts_from_ground(tmp_path)
        tol = Tolerances().equivalence_prob
        for path in [zero] + sorted(SCENARIO_DIR.glob("*.yaml")):
            out = tmp_path / path.stem
            assert run_cli("run", "--scenario", str(path), "--mode", "process-tensor",
                           "--out", str(out / "direct")) == 0, path.name
            assert run_cli("run", "--scenario", str(path), "--mode", "both",
                           "--out", str(out / "both")) == 0, path.name
            direct = json.loads((out / "direct" / "report.json").read_text())["records"]
            auto = json.loads((out / "both" / "report.json").read_text())["branch_rows"]
            assert ([(r["time"], r["record"]) for r in direct]
                    == [(r["time"], r["record"]) for r in auto]), path.name
            assert all(abs(d["p"] - a["p"]) <= tol for d, a in zip(direct, auto)), path.name
            if path == zero:
                assert [(r["time"], r["record"]) for r in direct] == [(0.5, "g"), (1.0, "g|g")]


class TestDirectRecordBound:
    def test_max_branches_bounds_the_direct_routes_records(self, tmp_path, capsys):
        # the direct route keeps every outcome sequence, zero-probability
        # ones included, so --max-branches bounds their count before any
        # command that walks it runs; the autonomous route holds one record
        path = z_readouts_from_ground(tmp_path, times=[0.05 * (k + 1) for k in range(14)])
        direct = [("verify",), ("run", "--mode", "both"),
                  ("run", "--mode", "process-tensor"), ("equiv",)]
        for command in direct:
            out = tmp_path / "refused"
            assert run_cli(*command, "--scenario", str(path), "--max-branches", "100",
                           "--out", str(out)) == 2, command
            assert capsys.readouterr().err == ("error: --max-branches: the direct route would "
                                               "hold 16384 records, above the limit 100\n")
            assert not out.exists()
        assert run_cli("run", "--mode", "autonomous", "--scenario", str(path),
                       "--max-branches", "100", "--out", str(tmp_path / "autonomous")) == 0
        for command in direct + [("run", "--mode", "autonomous")]:
            assert run_cli(*command, "--scenario", str(path), "--max-branches", "16384",
                           "--out", str(tmp_path / "admitted")) == 0, command


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


class TestPruneThreshold:
    def test_override_then_scenario_option_then_default(self, tmp_path):
        path = tmp_path / "prune.yaml"
        path.write_text((SCENARIO_DIR / "measurement_work.yaml").read_text()
                        + "\noptions: {prune_threshold: 0.1}\n")

        def report(name, *argv):
            out = tmp_path / name
            assert run_cli("run", "--scenario", str(path), "--out", str(out), *argv) == 0
            return json.loads((out / "report.json").read_text())

        # the report names the threshold the run used
        doc = report("option")
        assert doc["tolerances"]["prune"] == 0.1
        assert doc["branch_rows"] and all(r["p"] >= 0.1 for r in doc["branch_rows"])
        # prune=0.9 drops every record
        doc = report("override", "--tol-override", "prune=0.9")
        assert doc["tolerances"]["prune"] == 0.9
        assert doc["pruned_mass"] == pytest.approx(1.0)
        assert doc["branch_rows"] == []
        # another override leaves the scenario option in force
        doc = report("other", "--tol-override", "psd=1e-10")
        assert doc["tolerances"]["prune"] == 0.1
        path.write_text((SCENARIO_DIR / "measurement_work.yaml").read_text())
        assert report("default")["tolerances"]["prune"] == Tolerances().prune

    @pytest.mark.parametrize("value", ["1.5", "nan", "-0.1"])
    def test_override_follows_the_option_rule(self, tmp_path, capsys, value):
        # a threshold outside [0, 1) is an input error from either source, and
        # the message names the one that gave it
        out = tmp_path / "r"
        assert run_cli("run", "--scenario", str(SCENARIO_DIR / "measurement_work.yaml"),
                       "--mode", "both", "--tol-override", f"prune={value}",
                       "--out", str(out)) == 2
        assert "--tol-override" in capsys.readouterr().err
        assert not out.exists()
        path = tmp_path / "prune.yaml"
        path.write_text((SCENARIO_DIR / "measurement_work.yaml").read_text()
                        + f"\noptions: {{prune_threshold: {value.replace('nan', '.nan')}}}\n")
        assert run_cli("run", "--scenario", str(path), "--mode", "both") == 2
        assert "options.prune_threshold" in capsys.readouterr().err


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

    @pytest.mark.parametrize("path", sorted(SCENARIO_DIR.glob("*.yaml")), ids=lambda p: p.stem)
    def test_every_cell_parses_back_to_the_hardware(self, path, tmp_path, capsys):
        # each cell is an 'a+bi' string of the scenario grammar that reads
        # back exactly the synthesized hardware
        def parsed(rows, name):
            assert all(isinstance(cell, str) for row in rows for cell in row), name
            return np.array([[_parse_complex(cell, name) for cell in row] for row in rows])

        model = build_model(parse_scenario(path))
        for k in range(model.n_steps):
            assert run_cli("dilate", "--scenario", str(path), "--step", str(k),
                           "--out", str(tmp_path)) == 0
            doc = json.loads((tmp_path / f"dilation_step{k}.json").read_text())
            hw = model.hardware(k, ())
            np.testing.assert_array_equal(parsed(doc["unitary"], "unitary"), hw.unitary)
            assert len(doc["projectors"]) == len(hw.projectors)
            for cells, proj in zip(doc["projectors"], hw.projectors):
                np.testing.assert_array_equal(parsed(cells, "projectors"), proj)
            np.testing.assert_array_equal(parsed(doc["ancilla_state"], "ancilla_state"),
                                          hw.ancilla_state)


def scale_first_kraus(monkeypatch, factor):
    """Make the model the CLI builds declare step 0's first Kraus operator
    scaled by ``factor``, set past the instrument's trace-preservation
    guard, while its hardware still dilates the declared scenario."""
    build = cli.build_model

    def scaled(scenario):
        model = build(scenario)
        schedule = model.schedule
        inst = copy.copy(schedule.instruments[0])
        (label, cp), *rest = inst.outcomes
        object.__setattr__(inst, "outcomes", (
            (label, CPMap([factor * cp.kraus[0], *cp.kraus[1:]])), *rest))
        object.__setattr__(schedule, "instruments", (inst, *schedule.instruments[1:]))
        return model

    monkeypatch.setattr(cli, "build_model", scaled)


class TestReconstructionNegativeControl:
    # one Kraus operator off by 1e-6 is a defect the dilation does not
    # realize; the unscaled operator is the positive control
    SCENARIO = str(SCENARIO_DIR / "driven_feedback.yaml")

    @pytest.mark.parametrize("factor, code", [(1.0, 0), (1 + 1e-6, 1)])
    def test_verify_flags_the_scaled_operator(self, monkeypatch, capsys, factor, code):
        scale_first_kraus(monkeypatch, factor)
        assert run_cli("verify", "--scenario", self.SCENARIO) == code
        rows = {line.split()[0]: line for line in capsys.readouterr().out.splitlines()}
        assert ("FAIL" in rows["dilation-reconstruction"]) == (code == 1)

    @pytest.mark.parametrize("factor, code", [(1.0, 0), (1 + 1e-6, 1)])
    def test_dilate_exits_1_on_the_scaled_operator(self, monkeypatch, tmp_path, factor, code):
        scale_first_kraus(monkeypatch, factor)
        assert run_cli("dilate", "--scenario", self.SCENARIO, "--step", "0",
                       "--out", str(tmp_path)) == code
        doc = json.loads((tmp_path / "dilation_step0.json").read_text())
        assert (doc["reconstruction_error"] > Tolerances().dilation_reconstruction) == (code == 1)


class TestInputErrors:
    # each case reaches exactly one guard; with that guard gone the error
    # no longer names the flag
    @pytest.mark.parametrize("override, message", [
        ("prune", "expected k=v, got 'prune'"),
        ("prune=small", "'small' is not a number"),
        ("first_law=nan", "tolerance first_law must be finite, got nan"),
        ("first_law=inf", "tolerance first_law must be finite, got inf")],
        ids=["no-equals", "not-a-number", "nan", "inf"])
    def test_malformed_tolerance_override_is_an_input_error(self, capsys, override, message):
        assert run_cli("verify", "--scenario", str(SCENARIO_DIR / "equilibrium.yaml"),
                       "--tol-override", override) == 2
        assert capsys.readouterr().err == f"error: --tol-override: {message}\n"

    def test_missing_scenario_file(self, capsys):
        assert run_cli("run", "--scenario", "/does/not/exist.yaml") == 2
        assert "error:" in capsys.readouterr().err

    def test_invalid_prune_threshold(self, tmp_path, capsys):
        bad = tmp_path / "prune.yaml"
        bad.write_text((SCENARIO_DIR / "driven_feedback.yaml").read_text()
                       + "\noptions: {prune_threshold: -0.5}\n")
        assert run_cli("run", "--scenario", str(bad)) == 2
        assert "prune_threshold" in capsys.readouterr().err

    @staticmethod
    def verify_patched(tmp_path, fname, patches, command=("verify",)):
        """Exit code of ``command`` (``verify`` by default) on the shipped
        scenario ``fname`` with the node at each field path of ``patches``
        set to its value."""
        data = yaml.safe_load((SCENARIO_DIR / fname).read_text())
        for field, value in patches.items():
            *parents, last = [int(k) if k.isdigit() else k for k in re.findall(r"\w+", field)]
            node = data
            for key in parents:
                node = node[key]
            node[last] = value
        bad = tmp_path / "patched.yaml"
        bad.write_text(yaml.safe_dump(data))
        return run_cli(*command, "--scenario", str(bad))

    def verify_with(self, tmp_path, field, value):
        """Exit code of ``verify`` on measurement_work.yaml with the node at
        the path ``field`` set to ``value``."""
        return self.verify_patched(tmp_path, "measurement_work.yaml", {field: value})

    @pytest.mark.parametrize("field, value", [
        ("system", 2), ("time", 5), ("bath", 3), ("initial", 3), ("options", 1),
        ("steps[1].collision", 1)])
    def test_scalar_for_a_mapping_is_an_input_error(self, tmp_path, capsys, field, value):
        assert self.verify_with(tmp_path, field, value) == 2
        assert f"error: {field}: expected a mapping" in capsys.readouterr().err

    @pytest.mark.parametrize("field, value", [
        ("steps", 5), ("report_times", 1), ("steps[0].instrument.outcomes", 3),
        ("steps[0].window", [1]), ("time.end", "x"), ("system.dim", "x")])
    def test_wrong_type_for_a_list_or_number_is_an_input_error(self, tmp_path, capsys,
                                                               field, value):
        assert self.verify_with(tmp_path, field, value) == 2
        assert f"error: {field}: expected a" in capsys.readouterr().err

    @pytest.mark.parametrize("fname, patches, path", [
        ("measurement_work.yaml", {"protocol[0].t1": 0.4}, "protocol"),
        ("driven_feedback.yaml", {"feedback[0].protocol[0].t1": 0.7},
         "feedback[0].protocol"),
        ("measurement_work.yaml", {"protocol[0].t1": 0.0}, "protocol[0]"),
        # step 1 runs at t = 1.0 with its window open until 1.2
        ("measurement_work.yaml", {"steps[1].window": {"width": 0.2},
                                   "report_times": [1.1, 2.0]}, "report_times[0]")],
        ids=["protocol-gap", "variant-gap", "empty-segment", "report-in-window"])
    def test_protocol_and_report_time_errors_name_their_path(
            self, tmp_path, capsys, fname, patches, path):
        assert self.verify_patched(tmp_path, fname, patches) == 2
        assert capsys.readouterr().err.startswith(f"error: {path}: ")

    @pytest.mark.parametrize("field, value", [
        ("beta", math.nan), ("beta", math.inf),
        ("steps[0].instrument.outcomes[0].kraus[0][0][0]", "1e999"),
        ("report_times[0]", math.nan)],
        ids=["beta-nan", "beta-inf", "kraus-1e999", "report-time-nan"])
    def test_non_finite_number_is_an_input_error(self, tmp_path, capsys, field, value):
        out = tmp_path / "out"
        code = self.verify_patched(tmp_path, "relaxation_two_level.yaml", {field: value},
                                   ("run", "--mode", "both", "--out", str(out)))
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: {field}: expected a finite number")
        assert not out.exists()

    def test_empty_label_is_an_input_error(self, tmp_path, capsys):
        # next to "-", its one-label record would spell "-" as well
        field = "steps[0].instrument.outcomes[0].label"
        out = tmp_path / "out"
        code = self.verify_patched(
            tmp_path, "measurement_work.yaml",
            {field: "", "steps[0].instrument.outcomes[1].label": "-"},
            ("run", "--mode", "both", "--out", str(out)))
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: {field}: outcome label is empty")
        assert not out.exists()

    def test_label_with_a_comma_is_an_input_error(self, tmp_path, capsys):
        field = "steps[0].instrument.outcomes[0].label"
        assert self.verify_with(tmp_path, field, "u,p") == 2
        assert capsys.readouterr().err.startswith(f"error: {field}: ")

    def test_underflowing_mean_force_is_an_input_error(self, tmp_path, capsys):
        # a sigma_z x sigma_x coupling keeps the system levels 5 apart: at
        # beta = 200 the excited level's Boltzmann weight underflows
        path = tmp_path / "cold.yaml"
        sz_sx = 0.3 * np.kron(np.diag([1.0, -1.0]), [[0.0, 1.0], [1.0, 0.0]])
        path.write_text(yaml.safe_dump({
            "name": "cold", "beta": 200.0, "system": {"dim": 2},
            "bath": {"dim": 2, "hamiltonian": {"diag": [0.0, 0.9]}},
            "coupling": sz_sx.tolist(),
            "system_hamiltonian": {"diag": [0.0, 5.0]},
            "time": {"start": 0.0, "end": 1.0}, "report_times": [1.0]}))
        out = tmp_path / "out"
        assert run_cli("run", "--scenario", str(path), "--out", str(out)) == 2
        assert "mean force" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("fname, patches, message", [
        ("measurement_work.yaml", {"steps[1].collision.labels": ["+"]},
         "step 1: collision needs one label per projector, got 1 label(s) for 2"),
        ("measurement_work.yaml", {"steps[1].collision.labels": ["+", "-", "x"]},
         "step 1: collision needs one label per projector, got 3 label(s) for 2"),
        ("driven_feedback.yaml", {"feedback[0].prefix": ["dwon"]},
         "prefix ['dwon']: step 0 records one of ['up', 'down'], not 'dwon'")],
        ids=["one-collision-label", "three-collision-labels", "misspelled-prefix"])
    def test_label_the_steps_cannot_record_is_an_input_error(
            self, tmp_path, capsys, fname, patches, message):
        out = tmp_path / "out"
        code = self.verify_patched(tmp_path, fname, patches,
                                   ("run", "--mode", "both", "--out", str(out)))
        assert code == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_projectors_off_the_identity_are_an_input_error(self, tmp_path, capsys):
        # within the instrument's trace-preservation tolerance, but not
        # within the floor the readout unitary of ``verify`` needs: every
        # command refuses the input alike
        plus = [[0.5 + 5e-11, 0.5], [0.5, 0.5 + 5e-11]]
        for command in [("run", "--mode", "both"), ("verify",), ("equiv",),
                        ("dilate", "--step", "1")]:
            out = tmp_path / "out"
            code = self.verify_patched(tmp_path, "measurement_work.yaml",
                                       {"matrices.PPLUS": plus}, (*command, "--out", str(out)))
            assert code == 2, command
            lines = capsys.readouterr().err.splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: "), command
            assert lines[0].endswith("step 1: projectors do not resolve the ancilla identity")
            assert not out.exists()

    @pytest.mark.parametrize("cell", [10**400, "1-1e999i"], ids=["huge-int", "inf-string"])
    @pytest.mark.parametrize("command", [("verify",), ("run", "--mode", "both")],
                             ids=["verify", "run"])
    def test_cell_out_of_float_range_is_an_input_error(self, tmp_path, capsys, command, cell):
        out = tmp_path / "out"
        code = self.verify_patched(tmp_path, "relaxation_two_level.yaml",
                                   {"coupling[1][2]": cell}, (*command, "--out", str(out)))
        assert code == 2
        assert capsys.readouterr().err == \
            f"error: coupling[1][2]: expected a finite number, got {cell!r}\n"
        assert not out.exists()

    @pytest.mark.parametrize("old, new, message", [
        ("beta: 1.0\n", "beta: 1.0\nbeta: 50.0\n", "line {line}: duplicate key 'beta'"),
        ("  - [0.0, 0.0, 0.05, 0.0]\n", "  - [0.0, 0.0, 2001-13-01, 0.0]\n",
         "line {line}: month must be in 1..12"),
        ("beta: 1.0\n", "beta: 2001-13-01\n", "line {line}: month must be in 1..12"),
        pytest.param("  - [0.0, 0.0, 0.05, 0.0]\n", f"  - [0.0, 0.0, {'9' * 5000}, 0.0]\n",
                     "line {line}: Exceeds the limit (4300 digits) for integer string "
                     "conversion",
                     marks=pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                                              reason="this Python has no int digit limit"))],
        ids=["repeated-key", "invalid-date", "invalid-date-top-level", "int-past-digit-limit"])
    @pytest.mark.parametrize("command", [("verify",), ("run", "--mode", "both")],
                             ids=["verify", "run"])
    def test_yaml_the_loader_refuses_is_an_input_error(self, tmp_path, capsys, command,
                                                       old, new, message):
        # ``line`` is that of the last line of ``new``
        text = (SCENARIO_DIR / "relaxation_two_level.yaml").read_text()
        bad, out = tmp_path / "bad.yaml", tmp_path / "out"
        bad.write_text(text.replace(old, new))
        line = text[:text.index(old)].count("\n") + new.count("\n")
        assert run_cli(*command, "--scenario", str(bad), "--out", str(out)) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"error: {bad}: cannot load YAML: {message.format(line=line)}")
        assert not out.exists()

    @pytest.mark.parametrize("preset, message", [
        ({"zeros": -1}, "system_hamiltonian.zeros: needs a positive dim"),
        ({"number": {"dim": 2, "spacing": 1e308, "offset": 1e308}},
         "system_hamiltonian.number: expected finite levels, got offset + 1 * spacing = inf")],
        ids=["zeros-negative", "number-overflow"])
    def test_matrix_preset_out_of_range_is_an_input_error(self, tmp_path, capsys,
                                                          preset, message):
        out = tmp_path / "out"
        code = self.verify_patched(tmp_path, "relaxation_two_level.yaml",
                                   {"system_hamiltonian": preset},
                                   ("run", "--mode", "both", "--out", str(out)))
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_checks_key_is_an_input_error(self, tmp_path, capsys):
        bad = tmp_path / "checks.yaml"
        bad.write_text((SCENARIO_DIR / "equilibrium.yaml").read_text()
                       + "\nchecks: {second_law: false}\n")
        assert run_cli("verify", "--scenario", str(bad)) == 2
        assert "checks" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "verify", "equiv", "dilate"])
    @pytest.mark.parametrize("flag, value, floor", [
        ("--seed", "-1", 0), ("--max-branches", "0", 1), ("--max-branches", "-5", 1)],
        ids=["seed-negative", "max-branches-zero", "max-branches-negative"])
    def test_flag_out_of_range_is_an_input_error(self, tmp_path, capsys, command,
                                                 flag, value, floor):
        out = tmp_path / "out"
        assert run_cli(command, "--scenario", str(SCENARIO_DIR / "equilibrium.yaml"),
                       flag, value, "--out", str(out)) == 2
        assert capsys.readouterr().err == (f"error: {flag}: expected an integer "
                                           f">= {floor}, got {value}\n")
        assert not out.exists()

    @pytest.mark.parametrize("command", [
        ("run", "--mode", "both"), ("verify",), ("equiv",),
        ("run", "--mode", "process-tensor"), ("dilate", "--step", "0")],
        ids=["run-both", "verify", "equiv", "run-process-tensor", "dilate"])
    def test_out_under_a_regular_file_is_an_input_error(self, tmp_path, capsys, command):
        # exit 1 is kept for a failed check; a directory that cannot be made
        # is the caller's input, refused before any work: nothing on stdout
        (tmp_path / "file").write_text("")
        for out in (tmp_path / "file" / "sub", tmp_path / "file"):
            assert run_cli(*command, "--scenario", str(SCENARIO_DIR / "measurement_work.yaml"),
                           "--out", str(out)) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: ") and str(out) in captured.err
            assert "Traceback" not in captured.err
        assert (tmp_path / "file").read_text() == ""


class TestOneParser:
    def test_second_command_adds_no_argument(self, monkeypatch, capsys):
        added = []
        add_argument = argparse.ArgumentParser.add_argument

        def counted(self, *args, **kwargs):
            added.append(args)
            return add_argument(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "add_argument", counted)
        argv = ("verify", "--scenario", str(SCENARIO_DIR / "equilibrium.yaml"))
        assert run_cli(*argv) == 0
        added.clear()
        assert run_cli(*argv) == 0
        assert added == []

    def test_no_parse_leaks_into_the_next(self, tmp_path, capsys):
        # a bundle records its tolerances, so a prune override that stuck
        # to the parser would show in the last bundle
        path = str(SCENARIO_DIR / "measurement_work.yaml")
        assert run_cli("run", "--scenario", path, "--mode", "both",
                       "--out", str(tmp_path / "A")) == 0
        with pytest.raises(SystemExit) as exc:
            run_cli("run", "--scenario", path, "--bogus", "--out", str(tmp_path / "bogus"))
        assert exc.value.code == 2
        assert run_cli("run", "--scenario", path, "--tol-override", "prune=0.1",
                       "--out", str(tmp_path / "B")) == 0
        assert run_cli("run", "--scenario", path, "--mode", "both",
                       "--out", str(tmp_path / "C")) == 0
        files = sorted(p.name for p in (tmp_path / "A").iterdir())
        assert files == sorted(p.name for p in (tmp_path / "C").iterdir())
        for name in files:
            assert (tmp_path / "A" / name).read_bytes() == (tmp_path / "C" / name).read_bytes()
        assert ((tmp_path / "B" / "report.json").read_bytes()
                != (tmp_path / "A" / "report.json").read_bytes())
        assert not (tmp_path / "bogus").exists()

    def test_run_usage_names_the_shared_flags(self, monkeypatch, capsys):
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as exc:
            run_cli("run", "--help")
        assert exc.value.code == 0
        assert capsys.readouterr().out.split("\n\n")[0] == (
            "usage: proctherm run [-h] --scenario SCENARIO [--out OUT] [--seed SEED]\n"
            "                     [--tol-override K=V] [--max-branches MAX_BRANCHES]\n"
            "                     [--mode {autonomous,process-tensor,both}]")


BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def subprocess_env(environ=os.environ, **extra):
    """``environ`` with this checkout's ``src`` leading PYTHONPATH, and ``extra`` set."""
    return dict(environ, **extra, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [environ.get("PYTHONPATH")] if p]))


def ramp_input(tmp_path, monkeypatch, seed=7):
    """perfbench's ``ramp`` input (a qubit on a 32-level bath, D = 64)."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    # its dataclasses resolve their annotations through sys.modules
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    path = tmp_path / "ramp.yaml"
    path.write_text(yaml.safe_dump(workloads.ramp_scenario(seed)))
    return path


class TestThreadCount:
    def test_bundle_bytes_do_not_depend_on_the_blas_variables(self, tmp_path, monkeypatch):
        # a D = 64 model is large enough for a threaded BLAS to split its
        # sums; the package pins one thread when the variables are unset
        path = ramp_input(tmp_path, monkeypatch)
        bundles = []
        for setting in (None, "1"):
            env = subprocess_env({k: v for k, v in os.environ.items() if k not in BLAS_THREADS},
                                 **{k: setting for k in BLAS_THREADS if setting is not None})
            out = tmp_path / f"threads-{setting}"
            subprocess.run([sys.executable, "-m", "proctherm.cli", "run", "--scenario",
                            str(path), "--mode", "both", "--seed", "7", "--out", str(out)],
                           env=env, check=True, capture_output=True, timeout=300)
            bundles.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        assert sorted(bundles[0]) == ["branches.csv", "ensemble.csv", "report.json"]
        for name in bundles[0]:
            assert bundles[0][name] == bundles[1][name], name

    def test_import_pins_one_blas_thread_unless_the_caller_set_a_count(self):
        # a BLAS that does not split its sums at D = 64 passes the test
        # above without the pin; the pin itself is checked here
        env = subprocess_env({k: v for k, v in os.environ.items() if k not in BLAS_THREADS},
                             OMP_NUM_THREADS="3")
        script = ("import json, os, proctherm; "
                  f"print(json.dumps([os.environ.get(k) for k in {BLAS_THREADS!r}]))")
        out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                             capture_output=True, text=True, timeout=300).stdout
        assert json.loads(out) == ["1", "3", "1"]

    def test_bundle_bytes_do_not_depend_on_the_cpu_count(self, tmp_path, monkeypatch):
        # on one CPU every D = 64 spectrum is computed on the calling thread;
        # on two, a worker thread computes each batch ahead of use
        path = ramp_input(tmp_path, monkeypatch)
        bundles = []
        for cpus in ({0}, {0, 1}):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: cpus,
                                raising=False)
            out = tmp_path / f"cpus-{len(cpus)}"
            assert run_cli("run", "--scenario", str(path), "--mode", "both", "--seed", "7",
                           "--out", str(out)) == 0
            bundles.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        assert sorted(bundles[0]) == ["branches.csv", "ensemble.csv", "report.json"]
        for name in bundles[0]:
            assert bundles[0][name] == bundles[1][name], name

    @pytest.mark.parametrize("name, counts", [("ramp", (1, 49, 50)),
                                              ("driven_feedback", (1, 2, 4))])
    def test_each_drive_value_is_diagonalized_once_per_route(self, tmp_path, monkeypatch,
                                                             name, counts):
        # set-up diagonalizes the first drive value for the Gibbs state; run
        # and the direct route each diagonalize every drive value they
        # visit, once, and no other: on ramp both visit 50 of its 60, the
        # first already known to run
        path = ramp_input(tmp_path, monkeypatch) if name == "ramp" \
            else SCENARIO_DIR / f"{name}.yaml"
        calls = []
        solver = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(a) or solver(a))
        scen = parse_scenario(str(path))
        model = build_model(scen)
        setup = len(calls)
        result = run_verified(model, scen.report_times, prune=1e-14, max_branches=4096)
        run = len(calls) - setup
        equivalence_rows(model, result)
        assert (setup, run, len(calls) - setup - run) == counts

    def test_the_shipped_scenarios_start_no_thread(self, tmp_path):
        # the worker that computes a batch ahead of use starts only on a batch
        # of matrices of dimension 32 or more; the shipped scenarios have none
        script = f"""
import contextlib, io, sys, threading
before = threading.active_count()
from proctherm.cli import main
for path, out in {[(str(p), str(tmp_path / p.stem)) for p in SCENARIO_DIR.glob("*.yaml")]!r}:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert main(["verify", "--scenario", path]) == 0
        assert main(["run", "--scenario", path, "--mode", "both", "--out", out]) == 0
assert threading.active_count() == before == 1, threading.enumerate()
assert "concurrent.futures" not in sys.modules
"""
        subprocess.run([sys.executable, "-c", script], env=subprocess_env(), check=True,
                       timeout=300)
        assert len(list(tmp_path.iterdir())) == 5


class TestSpectraAhead:
    @pytest.mark.usefixtures("deadline")
    def test_each_drive_value_is_diagonalized_once_per_route_on_two_threads(
            self, tmp_path, monkeypatch):
        # TestThreadCount's count on ramp, with each batch handed to the
        # worker: one counting solver in place of numpy's and the worker's
        # sees every drive value once, whichever thread computes it
        import proctherm.algebra as algebra
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setattr(algebra, "_cgroup_cpu_max", lambda: "")
        path = ramp_input(tmp_path, monkeypatch)
        calls = []
        solver = np.linalg.eigh

        def counting(a):
            calls.append(a)
            return solver(a)

        monkeypatch.setattr(np.linalg, "eigh", counting)
        monkeypatch.setattr(algebra, "_EIGH", counting)

        def settled():
            # the calls so far, once the worker has finished its batches
            if algebra._worker is not None:
                algebra._worker.submit(lambda: None).result(timeout=60)
            return len(calls)

        scen = parse_scenario(str(path))
        model = build_model(scen)
        setup = settled()
        result = run_verified(model, scen.report_times, prune=1e-14, max_branches=4096)
        assert algebra._worker is not None
        run = settled() - setup
        equivalence_rows(model, result)
        assert (setup, run, settled() - setup - run) == (1, 49, 50)


# runs each argv of the JSON list argv[1] through cli.main in this process,
# and prints each one's exit code, stdout and stderr as JSON
RUN_COMMANDS = """
import contextlib, io, json, sys
from proctherm.cli import main
log = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    log.append([argv, code, out.getvalue(), err.getvalue()])
print(json.dumps(log))
"""


class TestHashSeed:
    def test_outputs_do_not_depend_on_the_hash_seed(self, tmp_path):
        # every command on every shipped scenario, in two processes whose
        # str and tuple hashes differ; each writes under its own working
        # directory, so the paths it prints are the same
        commands = []
        for path in sorted(SCENARIO_DIR.glob("*.yaml")):
            n_steps = len(yaml.safe_load(path.read_text()).get("steps") or [])
            for name, argv in [("both", ["run", "--mode", "both"]), ("verify", ["verify"]),
                               ("process-tensor", ["run", "--mode", "process-tensor"]),
                               ("equiv", ["equiv"]),
                               *[("dilate", ["dilate", "--step", str(k)])
                                 for k in range(n_steps)]]:
                commands.append([*argv, "--scenario", str(path), "--seed", "7",
                                 "--out", f"{path.stem}/{name}"])
        procs = {}
        for seed in ("1", "2"):
            (tmp_path / seed).mkdir()
            procs[seed] = subprocess.Popen(
                [sys.executable, "-c", RUN_COMMANDS, json.dumps(commands)], cwd=tmp_path / seed,
                env=subprocess_env(PYTHONHASHSEED=seed, PYTHONWARNINGS="error::RuntimeWarning"),
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        logs, trees = {}, {}
        for seed, proc in procs.items():
            stdout, stderr = proc.communicate(timeout=300)
            assert proc.returncode == 0, stderr
            logs[seed] = json.loads(stdout), stderr
            assert [code for _, code, _, _ in logs[seed][0]] == [0] * len(commands)
            trees[seed] = {p.relative_to(tmp_path / seed).as_posix(): p.read_bytes()
                           for p in sorted((tmp_path / seed).rglob("*")) if p.is_file()}
        assert len(commands) == 5 * 4 + 8
        assert len(trees["1"]) == 5 * (3 + 3 + 1 + 1) + 8
        assert logs["1"] == logs["2"]
        assert sorted(trees["1"]) == sorted(trees["2"])
        assert [name for name in trees["1"] if trees["1"][name] != trees["2"][name]] == []
