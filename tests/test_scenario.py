"""Tests for scenario parsing, validation and model assembly."""

import math
from pathlib import Path

import numpy as np
import pytest
import yaml

import proctherm.scenario as scenario
from proctherm.scenario import (
    ScenarioError,
    build_model,
    parse_scenario,
    parse_scenario_dict,
)

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


def minimal(**extra):
    data = {
        "name": "minimal",
        "beta": 1.0,
        "system": {"dim": 2},
        "bath": {"dim": 2, "hamiltonian": {"diag": [0.0, 1.0]}},
        "system_hamiltonian": {"diag": [0.0, 1.0]},
        "time": {"start": 0.0, "end": 1.0},
        "report_times": [1.0],
    }
    data.update(extra)
    return data


class TestParsing:
    def test_minimal_valid_file(self):
        sc = parse_scenario_dict(minimal())
        assert sc.name == "minimal"
        assert sc.s_dim == 2 and sc.b_dim == 2
        assert sc.initial_sb is None

    def test_complex_literals_in_matrices(self):
        sc = parse_scenario_dict(minimal(
            system_hamiltonian=[[0, "1+2i"], ["1-2i", "0.5"]]))
        np.testing.assert_allclose(sc.segments[0][2][0, 1], 1 + 2j)

    @pytest.mark.parametrize("value", [-1e-3, 1.0, 2, float("nan"), float("inf"),
                                       "often", True, [0.1]])
    def test_prune_threshold_validated(self, value):
        with pytest.raises(ScenarioError, match="prune_threshold"):
            parse_scenario_dict(minimal(options={"prune_threshold": value}))

    @pytest.mark.parametrize("value, want", [(0, 0.0), (1e-12, 1e-12), ("1e-10", 1e-10)])
    def test_prune_threshold_accepted(self, value, want):
        sc = parse_scenario_dict(minimal(options={"prune_threshold": value}))
        assert sc.options["prune_threshold"] == want

    def test_coupling_dimension_checked(self):
        with pytest.raises(ScenarioError, match="coupling"):
            parse_scenario_dict(minimal(coupling=[[0, 1], [1, 0]]))

    def test_complex_literal_forms(self):
        from proctherm.scenario import _parse_complex
        forms = {"1.5": 1.5, "2i": 2j, "-1+2i": -1 + 2j, "0.5-0.25i": 0.5 - 0.25j,
                 "1e-3": 1e-3, "-i": -1j, "3j": 3j}
        for text, want in forms.items():
            assert _parse_complex(text, "x") == want

    def test_malformed_literal_rejected(self):
        from proctherm.scenario import _parse_complex
        for bad in ["1+", "i2", "1 + + 2i", "abc"]:
            with pytest.raises(ScenarioError):
                _parse_complex(bad, "x")

    def test_pauli_and_number_presets(self):
        sc = parse_scenario_dict(minimal(
            coupling={"pauli": "XX", "coeff": 0.5},
            system_hamiltonian={"number": {"dim": 2, "spacing": 0.7}}))
        sx = np.array([[0, 1], [1, 0]])
        np.testing.assert_allclose(sc.v_coupling, 0.5 * np.kron(sx, sx))
        np.testing.assert_allclose(sc.segments[0][2], np.diag([0.0, 0.7]))

    def test_named_matrix_reference(self):
        sc = parse_scenario_dict(minimal(
            matrices={"H": {"diag": [0.0, 2.0]}},
            system_hamiltonian="H"))
        np.testing.assert_allclose(sc.segments[0][2], np.diag([0.0, 2.0]))
        with pytest.raises(ScenarioError, match="unknown matrix name"):
            parse_scenario_dict(minimal(system_hamiltonian="NOPE"))

    def test_error_paths_are_reported(self):
        bad = minimal(steps=[{"time": 0.5, "instrument": {"outcomes": [
            {"label": "1", "kraus": [[[1, 0], [0, 0]]]}]}}])
        with pytest.raises(ScenarioError) as err:
            parse_scenario_dict(bad)
        assert "steps[0].instrument" in str(err.value)
        assert "residual" in str(err.value)  # Kraus-sum residual reported

    def test_non_hermitian_hamiltonian_rejected(self):
        with pytest.raises(ScenarioError, match="Hermitian"):
            parse_scenario_dict(minimal(system_hamiltonian=[[0, 1], [0, 0]]))

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ScenarioError, match="unknown top-level"):
            parse_scenario_dict(minimal(surprise=1))

    def test_checks_key_rejected(self):
        # verify decides the second-law checks from the initial state alone,
        # so a scenario cannot ask for them
        mixed = {"sb": {"matrix": (np.eye(4) / 4).tolist()}}
        for checks in ({"second_law": True}, {"second_law": False}):
            with pytest.raises(ScenarioError, match="unknown top-level.*checks"):
                parse_scenario_dict(minimal(initial=mixed, checks=checks))
        assert parse_scenario_dict(minimal(initial=mixed)).initial_sb is not None

    def test_invalid_density_rejected(self):
        bad = minimal(initial={"sb": {"matrix": np.diag([2.0, -1.0, 0, 0]).tolist()}})
        with pytest.raises(ScenarioError):
            parse_scenario_dict(bad)

    @pytest.mark.parametrize("mat, why", [
        (np.diag([2.0, -1.0, 0, 0]), "negative eigenvalue"),
        (np.diag([0.5, 0.2, 0, 0]), "trace"),
        (np.triu(np.full((4, 4), 0.25)), "not Hermitian")])
    def test_invalid_density_names_path_and_reason(self, mat, why):
        with pytest.raises(ScenarioError, match=why) as err:
            parse_scenario_dict(minimal(initial={"sb": {"matrix": mat.tolist()}}))
        assert err.value.path == "initial.sb.matrix"

    def test_report_times_range_checked(self):
        with pytest.raises(ScenarioError, match="report_times"):
            parse_scenario_dict(minimal(report_times=[5.0]))

    def test_feedback_validation(self):
        inst = {"outcomes": [{"label": "1", "kraus": [[[1, 0], [0, 0]]]},
                             {"label": "2", "kraus": [[[0, 0], [0, 1]]]}]}
        base = minimal(steps=[{"time": 0.5, "instrument": inst}],
                       feedback=[{"prefix": ["1"], "instruments": {"0": inst}}])
        with pytest.raises(ScenarioError, match="feedback"):
            # step 0 cannot condition on its own outcome
            sc = parse_scenario_dict(base)
            build_model(sc)

    def test_collision_parsing(self):
        sc = parse_scenario_dict(minimal(steps=[{
            "time": 0.5,
            "collision": {
                "ancilla": {"dim": 2, "state": {"gibbs": True},
                            "hamiltonian": {"diag": [0.0, 1.0]}},
                "unitary": "swap",
                "projectors": [[[1, 0], [0, 0]], [[0, 0], [0, 1]]],
            }}]))
        st = sc.steps[0]
        assert st["collision"]["unitary"].shape == (4, 4)
        p = 1 / (1 + math.exp(-1.0))
        np.testing.assert_allclose(np.diag(st["collision"]["ancilla_state"]),
                                   [p, 1 - p], atol=1e-12)

    def test_collision_takes_one_ancilla_hamiltonian_key(self):
        # the Gibbs ancilla state is built from collision.ancilla.hamiltonian,
        # so a second, step-level Hamiltonian would contradict it
        data = yaml.safe_load((SCENARIO_DIR / "measurement_work.yaml").read_text())
        data["steps"][1]["ancilla_hamiltonian"] = {"diag": [0.0, 2.0]}
        with pytest.raises(ScenarioError) as err:
            parse_scenario_dict(data)
        assert err.value.path == "steps[1].ancilla_hamiltonian"

    def test_instrument_ancilla_hamiltonian_must_be_hermitian(self):
        inst = {"outcomes": [{"label": "1", "kraus": [[[1, 0], [0, 1]]]}]}
        step = {"time": 0.5, "instrument": inst, "ancilla_hamiltonian": [[0.0]]}
        assert parse_scenario_dict(minimal(steps=[step])).steps[0]["h_ancilla"].shape == (1, 1)
        step["ancilla_hamiltonian"] = [[0, 1], [0, 0]]
        with pytest.raises(ScenarioError, match="ancilla_hamiltonian.*Hermitian"):
            parse_scenario_dict(minimal(steps=[step]))


class TestShippedScenarios:
    @pytest.mark.parametrize("fname", sorted(p.name for p in SCENARIO_DIR.glob("*.yaml")))
    def test_parses_and_builds(self, fname):
        sc = parse_scenario(SCENARIO_DIR / fname)
        model = build_model(sc)
        assert model.beta == sc.beta
        assert len(sc.checksum) == 64

    @pytest.mark.parametrize("fname", sorted(p.name for p in SCENARIO_DIR.glob("*.yaml")))
    def test_loader_matches_pure_python_safe_loader(self, fname):
        text = (SCENARIO_DIR / fname).read_text(encoding="utf-8")
        assert yaml.load(text, Loader=scenario._YAML_LOADER) == yaml.safe_load(text)


class TestBuildModel:
    def test_window_step_builds_overlay(self):
        sc = parse_scenario_dict(minimal(steps=[{
            "time": 0.3,
            "instrument": {"outcomes": [
                {"label": "1", "kraus": [[[1, 0], [0, 0]]]},
                {"label": "2", "kraus": [[[0, 0], [0, 1]]]}]},
            "window": {"width": 0.1}}]))
        model = build_model(sc)
        seg = model.protocol.segment_at(0.35)
        assert seg.window is not None
        assert model.steps[0].window_width == pytest.approx(0.1)

    def test_missing_file_reported(self):
        with pytest.raises(ScenarioError, match="cannot read"):
            parse_scenario("/nonexistent/path.yaml")

    def test_yaml_syntax_error_reports_line(self):
        import tempfile
        with tempfile.NamedTemporaryFile("w", suffix=".yaml", delete=False) as fh:
            fh.write("name: x\nbeta: [unclosed\n")
            path = fh.name
        with pytest.raises(ScenarioError, match="line"):
            parse_scenario(path)
