"""Tests for scenario parsing, validation and model assembly."""

import importlib.util
import math
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

import proctherm.scenario as scenario
from proctherm.algebra import expm_herm
from proctherm.simulate import Simulator
from proctherm.scenario import (
    ScenarioError,
    build_model,
    parse_scenario,
    parse_scenario_dict,
)

ROOT = Path(__file__).resolve().parent.parent
SCENARIO_DIR = ROOT / "scenarios"
BASE_LOADERS = [yaml.SafeLoader, pytest.param(
    getattr(yaml, "CSafeLoader", None), id="CSafeLoader",
    marks=pytest.mark.skipif(not hasattr(yaml, "CSafeLoader"), reason="no libyaml"))]


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
        assert sc.spec["s_dim"] == 2 and sc.spec["b_dim"] == 2
        assert sc.spec["sb_init"] is None

    def test_complex_literals_in_matrices(self):
        sc = parse_scenario_dict(minimal(
            system_hamiltonian=[[0, "1+2i"], ["1-2i", "0.5"]]))
        np.testing.assert_allclose(sc.spec["protocol"].base[0].h_system[0, 1], 1 + 2j)

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

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, "1e999", "1-1e999i"])
    def test_non_finite_literal_rejected(self, bad):
        from proctherm.scenario import _parse_complex
        with pytest.raises(ScenarioError, match="expected a finite number") as err:
            _parse_complex(bad, "x")
        assert err.value.path == "x"

    @pytest.mark.parametrize("extra, path", [
        ({"coupling": [[0, 0, 0, 0], [0, 0, 10**400, 0], [0, 10**400, 0, 0], [0, 0, 0, 0]]},
         "coupling[1][2]"),
        ({"system_hamiltonian": {"diag": [0.0, 10**400]}}, "system_hamiltonian.diag[1]"),
        ({"coupling": {"pauli": "XX", "coeff": -10**400}}, "coupling.coeff"),
        ({"steps": [{"time": 0.5, "collision": {
            "ancilla": {"dim": 2, "state": {"pure": [1, 10**400]}}, "unitary": "swap"}}]},
         "steps[0].collision.ancilla.state.pure[1]")],
        ids=["matrix-cell", "diag", "coeff", "pure"])
    def test_int_out_of_float_range_rejected(self, extra, path):
        with pytest.raises(ScenarioError) as err:
            parse_scenario_dict(minimal(**extra))
        assert err.value.path == path
        assert str(err.value).startswith(f"{path}: expected a finite number, got ")

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, "1e999", "nan", "-inf"],
                             ids=["nan", "inf", "-inf", "str-1e999", "str-nan", "str--inf"])
    @pytest.mark.parametrize("field", ["beta", "time"])
    def test_non_finite_number_rejected(self, field, bad):
        # every comparison with NaN is false, so a range check alone lets it
        # through; the number is refused where it is read
        extra = {"beta": bad} if field == "beta" else {"time": {"start": 0.0, "end": bad}}
        with pytest.raises(ScenarioError, match="expected a finite number") as err:
            parse_scenario_dict(minimal(**extra))
        assert err.value.path == ("beta" if field == "beta" else "time.end")

    def test_pauli_and_number_presets(self):
        sc = parse_scenario_dict(minimal(
            coupling={"pauli": "XX", "coeff": 0.5},
            system_hamiltonian={"number": {"dim": 2, "spacing": 0.7}}))
        sx = np.array([[0, 1], [1, 0]])
        np.testing.assert_allclose(sc.spec["v_coupling"], 0.5 * np.kron(sx, sx))
        np.testing.assert_allclose(sc.spec["protocol"].base[0].h_system,
                                   np.diag([0.0, 0.7]))

    def test_named_matrix_reference(self):
        sc = parse_scenario_dict(minimal(
            matrices={"H": {"diag": [0.0, 2.0]}},
            system_hamiltonian="H"))
        np.testing.assert_allclose(sc.spec["protocol"].base[0].h_system,
                                   np.diag([0.0, 2.0]))
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

    @pytest.mark.parametrize("field, key", [
        ("system", "surprise"), ("bath", "surprise"), ("time", "surprise"),
        ("initial", "surprise"), ("steps[1].collision", "surprise"),
        ("steps[1].collision.ancilla", "surprise"),
        # misspellings that used to run as an instantaneous kick and with
        # the default threshold
        ("steps[0]", "windw"), ("options", "prune_treshold")])
    def test_unknown_key_below_top_level_rejected(self, field, key):
        data = yaml.safe_load((SCENARIO_DIR / "measurement_work.yaml").read_text())
        data["options"] = {}
        node = data
        for part in field.replace("[", ".").replace("]", "").split("."):
            node = node[int(part)] if part.isdigit() else node[part]
        node[key] = 0.2
        with pytest.raises(ScenarioError, match=rf"unknown key\(s\) \['{key}'\]") as err:
            parse_scenario_dict(data)
        assert err.value.path == field

    def test_checks_key_rejected(self):
        # verify decides the second-law checks from the initial state alone,
        # so a scenario cannot ask for them
        mixed = {"sb": {"matrix": (np.eye(4) / 4).tolist()}}
        for checks in ({"second_law": True}, {"second_law": False}):
            with pytest.raises(ScenarioError, match="unknown top-level.*checks"):
                parse_scenario_dict(minimal(initial=mixed, checks=checks))
        assert parse_scenario_dict(minimal(initial=mixed)).spec["sb_init"] is not None

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

    @pytest.mark.parametrize("t, inside", [(0.29, False), (0.3, True), (0.35, True),
                                           (0.4, False)])
    def test_report_time_inside_a_control_window(self, t, inside):
        # step 0 at t_k = 0.3 holds its control window open for w = 0.1: the
        # parser rejects a report time in [t_k, t_k + w), as Simulator.run does
        z = {"outcomes": [{"label": "1", "kraus": [[[1, 0], [0, 0]]]},
                          {"label": "2", "kraus": [[[0, 0], [0, 1]]]}]}
        data = minimal(steps=[{"time": 0.3, "instrument": z, "window": 0.1}],
                       report_times=[1.0, t])
        model = build_model(parse_scenario_dict(minimal(
            steps=data["steps"], report_times=[1.0])))
        if inside:
            with pytest.raises(ScenarioError, match="control window of steps") as err:
                parse_scenario_dict(data)
            assert err.value.path == "report_times[1]"
            with pytest.raises(ValueError, match="inside a control window"):
                Simulator(model).run([t])
        else:
            assert parse_scenario_dict(data).report_times == [t, 1.0]
            Simulator(model).run([t])

    def test_feedback_validation(self):
        inst = {"outcomes": [{"label": "1", "kraus": [[[1, 0], [0, 0]]]},
                             {"label": "2", "kraus": [[[0, 0], [0, 1]]]}]}
        base = minimal(steps=[{"time": 0.5, "instrument": inst}],
                       feedback=[{"prefix": ["1"], "instruments": {"0": inst}}])
        with pytest.raises(ScenarioError, match="feedback"):
            # step 0 cannot condition on its own outcome
            sc = parse_scenario_dict(base)
            build_model(sc)

    @pytest.mark.parametrize("override", ["instruments", "protocol"])
    def test_repeated_feedback_prefix_rejected(self, override):
        # a second entry for the prefix [down] would silently replace the
        # first one's instrument override or drive variant
        data = yaml.safe_load((SCENARIO_DIR / "driven_feedback.yaml").read_text())
        first = data["feedback"][0]
        data["feedback"].append({"prefix": ["down"], override: first[override]})
        with pytest.raises(ScenarioError, match=r"already declared at feedback\[0\]") as err:
            parse_scenario_dict(data)
        assert err.value.path == "feedback[1].prefix"

    def test_collision_parsing(self):
        sc = parse_scenario_dict(minimal(steps=[{
            "time": 0.5,
            "collision": {
                "ancilla": {"dim": 2, "state": {"gibbs": True},
                            "hamiltonian": {"diag": [0.0, 1.0]}},
                "unitary": "swap",
                "projectors": [[[1, 0], [0, 0]], [[0, 0], [0, 1]]],
            }}]))
        st = sc.spec["steps"][0]
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
        sc = parse_scenario_dict(minimal(steps=[step]))
        assert sc.spec["steps"][0]["h_ancilla"].shape == (1, 1)
        step["ancilla_hamiltonian"] = [[0, 1], [0, 0]]
        with pytest.raises(ScenarioError, match="ancilla_hamiltonian.*Hermitian"):
            parse_scenario_dict(minimal(steps=[step]))


class TestOutcomeLabels:
    """A label is a branches.csv field and a part of a |-joined record, so
    the characters that would split, quote or blur those are rejected."""

    SITES = [
        ("measurement_work.yaml", ("steps", 0, "instrument", "outcomes", 1, "label"),
         "steps[0].instrument.outcomes[1].label"),
        ("driven_feedback.yaml",
         ("feedback", 0, "instruments", "1", "outcomes", 1, "label"),
         "feedback[0].instruments.1.outcomes[1].label"),
        ("measurement_work.yaml", ("steps", 1, "collision", "labels", 1),
         "steps[1].collision.labels[1]")]

    @pytest.mark.parametrize("char", [",", "|", '"', "\n", "\r"])
    @pytest.mark.parametrize("fname, keys, path", SITES, ids=["instrument", "feedback",
                                                              "collision"])
    def test_label_that_would_break_the_bundle_rejected(self, fname, keys, path, char):
        data = yaml.safe_load((SCENARIO_DIR / fname).read_text())
        node = data
        for key in keys[:-1]:
            node = node[key]
        node[keys[-1]] = f"u{char}p"
        with pytest.raises(ScenarioError, match="may not contain") as err:
            parse_scenario_dict(data)
        assert err.value.path == path

    @pytest.mark.parametrize("fname, keys, path", SITES, ids=["instrument", "feedback",
                                                              "collision"])
    def test_empty_label_rejected(self, fname, keys, path):
        # its one-label record would spell "-", as the empty record does
        data = yaml.safe_load((SCENARIO_DIR / fname).read_text())
        node = data
        for key in keys[:-1]:
            node = node[key]
        node[keys[-1]] = ""
        with pytest.raises(ScenarioError, match="label is empty") as err:
            parse_scenario_dict(data)
        assert err.value.path == path

    @pytest.mark.parametrize("label", ["-", "+", "u p", "é", "1.5", "a:b"])
    def test_other_labels_accepted(self, label):
        data = yaml.safe_load((SCENARIO_DIR / "measurement_work.yaml").read_text())
        data["steps"][0]["instrument"]["outcomes"][1]["label"] = label
        data["steps"][1]["collision"]["labels"][0] = label + "x"
        model = build_model(parse_scenario_dict(data))
        assert model.schedule.alphabet(0) == ("up", label)


class TestMatrixCells:
    """A nested-list matrix is read in one pass; what that pass cannot read
    exactly as ``_parse_complex`` does goes through the per-cell reading."""

    @pytest.mark.parametrize("node", [
        [[0, "1+2i"], ["1-2i", "0.5"]],
        [["-0.0", "-i"], ["3j", "1e-3"]],
        [[1.5, -0.0, 2**70 + 1], [7, "0.0-0.25i", "+1.e+2-2.5e-3i"], ["2i", "1E5", ".5"]],
        [[1.0]]])
    def test_one_pass_reads_each_cell_as_parse_complex_does(self, node):
        mat = scenario._read_cells(node)
        want = np.array([[scenario._parse_complex(v, "x") for v in row] for row in node])
        assert mat.dtype == want.dtype and mat.tobytes() == want.tobytes()

    @pytest.mark.parametrize("node", [[[" 1 ", "1 + 2i"], ["1-2i", 0]],
                                      [[np.float64(0.5), 0], [0, 1]]])
    def test_other_cells_read_one_by_one(self, node):
        assert scenario._read_cells(node) is None
        want = np.array([[scenario._parse_complex(v, "x") for v in row] for row in node])
        assert scenario._parse_matrix(node, "m", {}).tobytes() == want.tobytes()

    @pytest.mark.parametrize("node, message", [
        ([[1.0, True], [0, 1]], "m[0][1]: expected a number, got True"),
        ([[1.0, 0], [None, 1]], "m[1][0]: expected a number or 'a+bi' string, got NoneType"),
        ([[1.0, 0], [0, 1j]], "m[1][1]: expected a number or 'a+bi' string, got complex"),
        ([["1.0\t+2i", 0], [0, 1]], "m[0][0]: malformed complex literal '1.0\\t+2i'"),
        ([[1, "1\n+2i"], [0, 1]], "m[0][1]: malformed complex literal '1\\n+2i'"),
        ([[1, "1,2"], [0, 1]], "m[0][1]: malformed complex literal '1,2'"),
        ([[1, 0], ["2i", "1+"]], "m[1][1]: malformed complex literal '1+'"),
        ([["abc", 0], [0, 1]], "m[0][0]: malformed complex literal 'abc'"),
        ([[1, 0], [math.nan, 1]], "m[1][0]: expected a finite number, got nan"),
        ([[1, "1-1e999i"], [0, 1]], "m[0][1]: expected a finite number, got '1-1e999i'"),
        ([[1, 0], [0, 10**400]], f"m[1][1]: expected a finite number, got {10**400!r}"),
        ([[1, 0], [0]], "m: matrix must be square"),
        ([[1, 0, 0], [0, 1, 0]], "m: matrix must be square"),
        ([], "m: matrix must be square"),
        ([[1, 0], "ab"], "m[1]: matrix rows must be lists"),
        # the first bad cell is reported, ahead of a bad row after it
        ([[1, True], 5], "m[0][1]: expected a number, got True")],
        ids=["bool", "none", "complex", "tab", "newline", "comma", "malformed", "letters", "nan",
             "inf-string", "huge-int", "ragged", "not-square", "empty", "row-not-list",
             "cell-before-row"])
    def test_unreadable_cell_reports_its_path(self, node, message):
        with pytest.raises(ScenarioError) as err:
            scenario._parse_matrix(node, "m", {})
        assert str(err.value) == message


def _typed(node):
    """``node`` with every scalar replaced by its type and repr, so that
    ``0.0 == -0.0`` or ``1 == 1.0`` do not hide a difference."""
    if isinstance(node, dict):
        return {_typed(k): _typed(v) for k, v in node.items()}
    if isinstance(node, list):
        return [_typed(v) for v in node]
    return type(node), repr(node)


def _rules_over(base):
    return type("Loader", (scenario._PlainScalarRules, base), {})


def _perfbench_inputs(directory: Path) -> list[Path]:
    """perfbench's seed-7 ``branching``, ``ramp`` and ``verify_deep`` inputs,
    written to ``directory``."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    # its dataclasses resolve their annotations through sys.modules
    sys.modules[spec.name] = workloads
    try:
        spec.loader.exec_module(workloads)
    finally:
        del sys.modules[spec.name]
    docs = {"branching": workloads.branching_scenario(7),
            "ramp": workloads.ramp_scenario(7),
            "verify_deep": workloads.branching_scenario(7, n_steps=5)}
    return [workloads.write_scenario(doc, directory / f"{name}.yaml")
            for name, doc in docs.items()]


class TestLoader:
    """The loader resolves plain scalars ending in ``i`` and plain decimal
    floats itself, and gives what its base loader gives."""

    def test_built_over_libyaml_when_present(self):
        assert scenario._YAML_LOADER.__bases__ == (
            scenario._PlainScalarRules, getattr(yaml, "CSafeLoader", yaml.SafeLoader))

    @pytest.mark.parametrize("text", [
        "1.5", "-0.0", "+1.", "1.0e+5", "1.0e5", "1e-3", ".5", "1_000.5", "0x1F", "0o17",
        "190:20:30.15", "2001-12-14", ".inf", ".nan", "yes", "~", "2i", "-i", "1-1e999i",
        "'1.5'"])
    @pytest.mark.parametrize("base", BASE_LOADERS)
    def test_scalar_resolves_as_the_base_loader_does(self, base, text):
        doc = f"{text}\n---\n[{text}, {{k: {text}}}]\n"
        want = list(yaml.load_all(doc, Loader=base))
        assert _typed(list(yaml.load_all(doc, Loader=_rules_over(base)))) == _typed(want)

    @pytest.mark.parametrize("base", BASE_LOADERS)
    def test_inputs_load_as_with_the_base_loader(self, base, tmp_path):
        paths = sorted(SCENARIO_DIR.glob("*.yaml")) + _perfbench_inputs(tmp_path)
        for path in paths:
            text = path.read_text(encoding="utf-8")
            assert _typed(yaml.load(text, Loader=_rules_over(base))) == \
                _typed(yaml.load(text, Loader=base)), path.name


    def test_shipped_inputs_repeat_no_key(self, tmp_path):
        # the scenario loader refuses a repeated key and otherwise loads as
        # its base loader does
        base = scenario._YAML_LOADER.__bases__[1]
        for path in sorted(SCENARIO_DIR.glob("*.yaml")) + _perfbench_inputs(tmp_path):
            text = path.read_text(encoding="utf-8")
            assert _typed(yaml.load(text, Loader=scenario._YAML_LOADER)) == \
                _typed(yaml.load(text, Loader=base)), path.name


RELAXATION = SCENARIO_DIR / "relaxation_two_level.yaml"
COUPLING_ROW = "  - [0.0, 0.0, 0.05, 0.0]"
PAST_DIGIT_LIMIT = pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                                      reason="this Python has no int digit limit")


def _edited(directory: Path, old: str, new: str) -> tuple[Path, str]:
    """relaxation_two_level.yaml with ``old`` replaced by ``new``, written to
    ``directory``, and its text."""
    text = RELAXATION.read_text(encoding="utf-8")
    assert text.count(old) == 1
    path = directory / "edited.yaml"
    path.write_text(text.replace(old, new), encoding="utf-8")
    return path, text.replace(old, new)


class TestLoadErrors:
    """What PyYAML's constructors refuse, and a key written twice in one
    mapping, is an input error at the file."""

    @pytest.mark.parametrize("old, new, key", [
        ("beta: 1.0\n", "beta: 1.0\nbeta: 50.0\n", "beta"),
        ("bath:\n  dim: 2\n", "bath:\n  dim: 2\n  dim: 3\n", "dim"),
        ("system_hamiltonian: {diag: [0.0, 1.0]}",
         "system_hamiltonian: {diag: [0.0, 1.0], diag: [1.0, 0.0]}", "diag"),
        ("- {label: g,", "- {label: g, label: h,", "label"),
        ("system_hamiltonian:", "matrices:\n  HX: {diag: [0.0, 1.0]}\n"
         "  HX: {diag: [0.0, 2.0]}\nsystem_hamiltonian:", "HX")],
        ids=["top-level", "nested", "flow-mapping", "list-item", "matrices"])
    def test_repeated_key_is_refused_at_its_line(self, tmp_path, old, new, key):
        path, text = _edited(tmp_path, old, new)
        line = text[:text.index(new) + new.rindex(key)].count("\n") + 1
        with pytest.raises(ScenarioError) as err:
            parse_scenario(path)
        assert err.value.path == str(path)
        assert str(err.value) == f"{path}: cannot load YAML: line {line}: duplicate key {key!r}"

    def test_merged_key_may_be_overridden(self, tmp_path):
        path, _ = _edited(tmp_path, "system:\n  dim: 2\n", "system:\n  <<: {dim: 3}\n  dim: 2\n")
        assert parse_scenario(path).spec["s_dim"] == 2

    @pytest.mark.parametrize("cell, message", [
        pytest.param("9" * 5000, "Exceeds the limit (4300 digits) for integer string conversion",
                     marks=PAST_DIGIT_LIMIT),
        ("2001-13-01", "month must be in 1..12")], ids=["int-past-digit-limit", "invalid-date"])
    def test_value_a_constructor_refuses_is_an_error_at_the_file(self, tmp_path, cell, message):
        row = f"  - [0.0, 0.0, {cell}, 0.0]"
        path, text = _edited(tmp_path, COUPLING_ROW, row)
        line = text[:text.index(row)].count("\n") + 1
        with pytest.raises(ScenarioError) as err:
            parse_scenario(path)
        assert err.value.path == str(path)
        assert str(err.value).startswith(f"{path}: cannot load YAML: line {line}: {message}")

    @pytest.mark.parametrize("old, new", [
        ("beta: 1.0\n", "beta: 2001-13-01\n"),
        ("bath:\n  dim: 2\n", "bath:\n  dim: 2\n  2001-13-01: 1\n"),
        ("system_hamiltonian:", "matrices:\n  HX: &h {diag: [0.0, 1.0]}\n"
         "  HY: [*h, {diag: [2001-13-01]}]\nsystem_hamiltonian:"),
        ("beta: 1.0\n", "beta: 1.0\nbase: &b {t: 2001-02-03}\nmore: {<<: *b, t2: 2001-13-01}\n")],
        ids=["top-level-value", "mapping-key", "after-an-alias", "after-a-merge"])
    def test_refused_value_is_named_at_its_line(self, tmp_path, old, new):
        path, text = _edited(tmp_path, old, new)
        line = text[:text.index(new) + new.index("2001-13-01")].count("\n") + 1
        with pytest.raises(ScenarioError) as err:
            parse_scenario(path)
        assert str(err.value) == f"{path}: cannot load YAML: line {line}: month must be in 1..12"

    @pytest.mark.parametrize("edits, raised, message", [
        ([("beta: 1.0\n", "beta: 1.0\nbeta: 50.0\n"),
          (COUPLING_ROW, "  - [0.0, 0.0, 2001-13-01, 0.0]")],
         "beta: 50.0", "duplicate key 'beta'"),
        # PyYAML builds time's scalars before the coupling rows above them
        ([("end: 31.41592653589793}", "end: 2001-13-01}"),
          (COUPLING_ROW, "  - [0.0, 0.0, 2001-02-30, 0.0]")],
         "end: 2001-13-01", "month must be in 1..12")],
        ids=["repeated-key-and-a-refused-cell", "refused-end-below-a-refused-cell"])
    def test_the_line_named_is_that_of_the_error_raised(self, tmp_path, edits, raised,
                                                         message):
        text = RELAXATION.read_text(encoding="utf-8")
        for old, new in edits:
            assert text.count(old) == 1
            text = text.replace(old, new)
        path = tmp_path / "edited.yaml"
        path.write_text(text, encoding="utf-8")
        line = text[:text.index(raised)].count("\n") + 1
        with pytest.raises(ScenarioError) as err:
            parse_scenario(path)
        assert str(err.value) == f"{path}: cannot load YAML: line {line}: {message}"

    def test_a_load_that_succeeds_looks_for_no_refused_value(self, monkeypatch):
        def refuse(text):
            raise AssertionError("looked for a refused value")

        monkeypatch.setattr(scenario, "_refused_scalar_line", refuse)
        for path in sorted(SCENARIO_DIR.glob("*.yaml")):
            parse_scenario(path)


class TestShippedScenarios:
    @pytest.mark.parametrize("fname", sorted(p.name for p in SCENARIO_DIR.glob("*.yaml")))
    def test_parses_and_builds(self, fname):
        sc = parse_scenario(SCENARIO_DIR / fname)
        model = build_model(sc)
        assert model.beta == sc.spec["beta"]
        assert len(sc.checksum) == 64

    def test_feedback_drive_variant_reaches_the_model(self):
        # after outcome "down" of step 0, driven_feedback.yaml replaces the
        # drive H1 on [0.8, 2.0) by HFB and step 1's instrument by a Z readout
        model = build_model(parse_scenario(SCENARIO_DIR / "driven_feedback.yaml"))
        protocol = model.protocol
        assert list(protocol.variants) == [("down",)]
        variant = protocol.variants[("down",)]
        assert [(seg.t0, seg.t1) for seg in variant] == [(0.0, 0.8), (0.8, 2.0)]
        assert np.array_equal(variant[0].h_system, np.diag([0.0, 1.0]))
        assert np.array_equal(variant[1].h_system, [[0.0, -0.3], [-0.3, 1.0]])
        assert np.array_equal(protocol.base[1].h_system, [[0.0, 0.45], [0.45, 1.0]])
        assert protocol.timeline(("down", "+")) is variant
        assert protocol.timeline(("up",)) is protocol.base
        z_readout = model.schedule.instrument_at(1, ("down",))
        assert [label for label, _ in z_readout.outcomes] == ["+", "-"]
        assert np.array_equal(z_readout.outcomes[0][1].kraus[0], np.diag([1.0, 0.0]))
        assert model.schedule.instrument_at(1, ("up",)) is model.schedule.instruments[1]

    @pytest.mark.parametrize("fname", sorted(p.name for p in SCENARIO_DIR.glob("*.yaml")))
    def test_loader_matches_pure_python_safe_loader(self, fname):
        text = (SCENARIO_DIR / fname).read_text(encoding="utf-8")
        assert yaml.load(text, Loader=scenario._YAML_LOADER) == yaml.safe_load(text)


class TestBuildModel:
    def test_window_step_carries_its_coupling(self):
        sc = parse_scenario_dict(minimal(steps=[{
            "time": 0.3,
            "instrument": {"outcomes": [
                {"label": "1", "kraus": [[[1, 0], [0, 0]]]},
                {"label": "2", "kraus": [[[0, 0], [0, 1]]]}]},
            "window": {"width": 0.1}}]))
        model = build_model(sc)
        spec = model.steps[0]
        assert spec.window_width == pytest.approx(0.1)
        # the window coupling V on S A_0 generates the control: exp(-i V w) = U
        u = expm_herm(spec.window, -1j * spec.window_width)
        assert np.allclose(u, model.hardware(0, ()).unitary, atol=1e-10)
        # the drive protocol is the one declared, not split at the window
        assert model.protocol is sc.spec["protocol"]
        assert [(seg.t0, seg.t1) for seg in model.protocol.base] == [(0.0, 1.0)]

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
