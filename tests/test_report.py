"""The bundle writer against ``json.dumps(doc, sort_keys=True, indent=2)``
and the one-format-per-cell CSV tables against a per-cell reference."""

import io
import json
import json.encoder
import math
from pathlib import Path

import pytest
import yaml

import proctherm.cli as cli
from proctherm import report
from proctherm.report import BRANCH_COLUMNS, ENSEMBLE_COLUMNS, bundle_from_run, dumps
from proctherm.scenario import build_model, parse_scenario
from proctherm.thermo import evaluate_run
from proctherm.tolerances import DEFAULT
from proctherm.verify import equivalence_checks, run_verified, verify_model

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"
SHIPPED = sorted(SCENARIO_DIR.glob("*.yaml"))


def oracle(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2)


def reference_csv(columns, rows) -> str:
    """The bundle CSV as it was written cell by cell before the tables."""
    out = io.StringIO()
    out.write(",".join(columns) + "\n")
    for row in rows:
        cells = []
        for c in columns:
            v = row.get(c)
            if v is None:
                cells.append("")
            elif isinstance(v, float):
                cells.append(repr(v))
            else:
                cells.append(str(v))
        out.write(",".join(cells) + "\n")
    return out.getvalue()


def bundle_doc(bundle) -> dict:
    """The document ``report.json`` holds, each table as its list of rows."""
    def rows(table):
        return [dict(zip(table.columns, cells)) for cells in zip(*table.values)]
    return {"scenario": bundle.scenario, "mode": bundle.mode, "seed": bundle.seed,
            "scenario_checksum": bundle.scenario_checksum, "version": bundle.version,
            "tolerances": bundle.tolerances, "pruned_mass": bundle.pruned_mass,
            "control_caveat": bundle.control_caveat,
            "branch_rows": rows(bundle.branch_rows),
            "ensemble_rows": rows(bundle.ensemble_rows),
            "equivalence": bundle.equivalence, "checks": bundle.checks}


def bundles(path):
    """The ``run --mode both`` and ``verify`` bundles of a scenario file."""
    scenario = parse_scenario(path)
    model = build_model(scenario)
    result = run_verified(model, scenario.report_times, prune=DEFAULT.prune,
                          max_branches=4096)
    ledger = evaluate_run(result)
    equivalence, _ = equivalence_checks(model, result, DEFAULT)
    checks = verify_model(model, result, ledger)
    common = dict(seed=7, checksum=scenario.checksum, tolerances=DEFAULT)
    return (bundle_from_run(result, ledger, mode="both", equivalence=equivalence, **common),
            bundle_from_run(result, ledger, mode="verify",
                            checks=[c.row() for c in checks], **common))


@pytest.mark.parametrize("path", SHIPPED, ids=lambda p: p.stem)
def test_shipped_bundles_match_the_oracle(path, tmp_path):
    for bundle in bundles(path):
        doc = bundle_doc(bundle)
        want_json = oracle(doc)
        want_branches = reference_csv(BRANCH_COLUMNS, doc["branch_rows"])
        want_ensemble = reference_csv(ENSEMBLE_COLUMNS, doc["ensemble_rows"])
        assert bundle.to_json() == want_json
        assert bundle.branch_rows.csv() == want_branches
        assert bundle.ensemble_rows.csv() == want_ensemble
        out = tmp_path / bundle.mode
        bundle.write(out)
        assert (out / "report.json").read_text(encoding="utf-8") == want_json
        assert (out / "branches.csv").read_text(encoding="utf-8") == want_branches
        assert (out / "ensemble.csv").read_text(encoding="utf-8") == want_ensemble


def test_report_keys_are_fixed():
    # the keys are the fields of ReportBundle: renaming a field renames a key
    for bundle in bundles(SCENARIO_DIR / "measurement_work.yaml"):
        assert sorted(json.loads(bundle.to_json())) == [
            "branch_rows", "checks", "control_caveat", "ensemble_rows", "equivalence",
            "mode", "pruned_mass", "scenario", "scenario_checksum", "seed",
            "tolerances", "version"]


@pytest.mark.parametrize("path", SHIPPED, ids=lambda p: p.stem)
def test_cli_documents_match_the_oracle(path, tmp_path, monkeypatch, capsys):
    # every JSON document the CLI writes itself goes through cli.dumps
    docs = []
    monkeypatch.setattr(cli, "dumps", lambda doc: docs.append(doc) or dumps(doc))
    base = ["--scenario", str(path), "--seed", "7", "--out", str(tmp_path)]
    assert cli.main(["run", "--mode", "process-tensor", *base]) == 0
    assert cli.main(["equiv", *base]) == 0
    n_steps = len(yaml.safe_load(path.read_text()).get("steps") or [])
    for k in range(n_steps):
        assert cli.main(["dilate", "--step", str(k), *base]) == 0
    capsys.readouterr()
    assert len(docs) == 2 + n_steps
    for doc in docs:
        assert dumps(doc) == oracle(doc)


NASTY = ["", "plain", 'quote " and backslash \\', "tab\tnewline\nreturn\r",
         "\x00\x1f control", "non-ASCII é ß 😀", "percent %s %d %%", "brace {0} {}",
         "},\n    {", "NaN", "null"]
SCALARS = [0, 1, -7, 2**70, 0.0, -0.0, 1.5, -2.25e-300, 1e300, math.nan, math.inf,
           -math.inf, None, True, False, *NASTY]

SYNTHETIC = {
    "scalars": SCALARS,
    "empty": [{}, [], (), {"a": {}}, {"a": []}, [[], {}], [{}, {}]],
    "flat-dict": {s: v for s, v in zip(NASTY, SCALARS)},
    "nested": {"z": [1, [2, [3, []]], {"b": {"c": [None, {}]}}],
               "a": ({"x": math.nan},), "m": [[1.0, -0.0], [math.inf, None]]},
    "run": [{"t": i * 0.5, "record": NASTY[i % len(NASTY)], "p": v, "%k": i}
            for i, v in enumerate(SCALARS)],
    "run-of-one": [{"only": -0.0}],
    "mixed-keys": [{"a": 1}, {"b": 2}, {"a": 3, "b": None}],
    "run-then-nested": [{"a": 1}, {"a": [1, 2]}],
    "run-with-empty": [{"a": 1}, {}],
    "run-then-scalar": [{"a": 1}, 2],
    "number-keys": {1: "int", 2.5: "float", -3: None, 1e300: math.nan},
    "nested-number-keys": {10: [1], 2: {"y": [2]}, 0.5: [math.inf]},
    "literal-keys": [{True: [1], False: 2}, {None: [3]}, {None: 4}],
    "bracket-keys": {"{": [1], "%": [2], "é": [3], "\n": [4]},
}


@pytest.mark.parametrize("doc", [*SYNTHETIC.values(), SYNTHETIC, *SCALARS],
                         ids=[*SYNTHETIC, "all", *map(repr, SCALARS)])
def test_synthetic_documents_match_the_oracle(doc):
    assert dumps(doc) == oracle(doc)


def test_a_table_in_a_document_stands_for_its_rows():
    rows = [{"time": 0.5, "record": "a|b", "p": math.nan, "q": None},
            {"time": 1.0, "record": "-", "p": -math.inf, "q": True}]
    columns = ("time", "record", "p", "q")
    table = report._Table(columns, [[row[c] for row in rows] for c in columns])
    assert dumps({"rows": table, "n": 2}) == oracle({"rows": rows, "n": 2})
    assert table.csv() == reference_csv(columns, rows)
    empty = report._Table(columns, [[] for _ in columns])
    assert dumps([empty]) == oracle([[]])
    assert empty.csv() == reference_csv(columns, [])


def test_non_scalar_cells_and_keys_are_rejected_like_json():
    with pytest.raises(TypeError):
        report._Table(("a",), [[[1]]])
    for doc in ({(1, 2): [1]}, {"a": object()}, [object()]):
        with pytest.raises(TypeError):
            oracle(doc)
        with pytest.raises(TypeError):
            dumps(doc)


def test_the_pure_python_encoder_is_never_used(tmp_path, monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("the pure-Python JSON encoder was used")

    monkeypatch.setattr(json.encoder, "_make_iterencode", refuse)
    path = SCENARIO_DIR / "measurement_work.yaml"
    for bundle in bundles(path):
        bundle.write(tmp_path / bundle.mode)
    base = ["--scenario", str(path), "--out", str(tmp_path / "cli")]
    assert cli.main(["run", "--mode", "both", *base]) == 0
    assert cli.main(["run", "--mode", "process-tensor", *base]) == 0
    assert cli.main(["equiv", *base]) == 0
    assert cli.main(["dilate", "--step", "1", *base]) == 0
    capsys.readouterr()
