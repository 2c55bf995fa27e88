"""Record order through step splits, from the ledger to the written bundle.

A three-outcome readout, then a readout whose outcome "a" factors its
ancilla out and whose outcome "b" keeps it, with feedback on the first
outcome "g", then a Z readout.  After the second step the records of "e"
and "f" sit in two groups split by support, whose rows alternate in ledger
order; the third step splits both again.  At every report time the ledger,
the branch rows, ``report.json``, ``branches.csv`` and the equivalence rows
must list the records in the dense oracle's order: parent-major, then
label order; and each step's trace must list its parents in ledger order.
"""

import csv
import json
import math
from collections import defaultdict
from pathlib import Path

import numpy as np
import pytest

from proctherm.channels import CPMap, Instrument
from proctherm.protocol import Protocol, Segment
from proctherm.report import bundle_from_run, record_string
from proctherm.scenario import parse_scenario
from proctherm.simulate import Simulator
from proctherm.tolerances import DEFAULT
from proctherm.verify import equivalence_rows

from dense_checks import both_routes, check_branch_rows, check_branch_states, check_ensemble

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SZ = np.diag([1.0, -1.0]).astype(complex)
P0 = np.diag([1.0, 0.0]).astype(complex)
P1 = np.diag([0.0, 1.0]).astype(complex)
H_0 = np.diag([0.0, 1.0]).astype(complex)
REPORTS = (0.5, 0.8, 1.0, 1.5, 2.0)
SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


def diag_root(*weights):
    return np.diag(np.sqrt(weights)).astype(complex)


def model_spec():
    three = Instrument([("g", CPMap(("S",), [diag_root(0.5, 0.2)])),
                        ("e", CPMap(("S",), [diag_root(0.3, 0.3)])),
                        ("f", CPMap(("S",), [diag_root(0.2, 0.5)]))])
    # "a" has one Kraus operator and a rank-1 readout; "b" has two and
    # keeps its ancilla
    split = Instrument([("a", CPMap(("S",), [math.sqrt(0.4) * np.eye(2)])),
                        ("b", CPMap(("S",), [math.sqrt(0.3) * np.eye(2), math.sqrt(0.3) * SZ]))])
    after_g = Instrument([("a", CPMap(("S",), [P0])), ("b", CPMap(("S",), [P1]))])
    z_read = Instrument([("1", CPMap(("S",), [P0])), ("2", CPMap(("S",), [P1]))])
    return dict(
        s_dim=2, b_dim=2, beta=1.0,
        protocol=Protocol([Segment(0.0, 1.2, H_0), Segment(1.2, 2.0, H_0 + 0.4 * SX)]),
        h_bath=np.diag([0.0, 0.9]).astype(complex),
        v_coupling=0.4 * np.kron(SX, SX) + 0.1 * np.kron(SZ, SX),
        steps=[{"time": 0.3, "instrument": three},
               {"time": 0.8, "instrument": split},
               {"time": 1.3, "instrument": z_read}],
        feedback={1: {("g",): after_g}})


@pytest.fixture(scope="module")
def runs():
    return both_routes(model_spec(), REPORTS)


def dense_order(runs, t):
    return [record_string(labels) for labels in runs.dense.snapshots[t]]


def test_groups_interleave_in_ledger_order(runs):
    # the test is only as good as its model: some report holds a group of
    # several records whose rows alternate with another group's
    def interleaved(ledger):
        return (ledger.order != np.arange(len(ledger.order))).any()

    assert any(interleaved(snap.ledger) for snap in runs.result.snapshots)
    final = runs.result.snapshots[-1].ledger
    assert len(final.groups) >= 3 and max(len(g.records) for g in final.groups) >= 4


@pytest.mark.parametrize("t", REPORTS)
def test_ledger_and_branch_rows_in_dense_order(runs, t):
    check_branch_states(runs, t)
    check_branch_rows(runs, t)
    check_ensemble(runs, t)


def test_step_trace_rows_follow_the_parents_in_ledger_order(runs):
    # each step's trace lists the ledger's records just before the step, and
    # row i is parent i's: its weight, and per outcome the child's weight and
    # measurement work
    model = runs.result.model
    sim = Simulator(model)
    ledger, interleaved = runs.result.initial.ledger, False
    for k, spec in enumerate(model.steps):
        ledger = sim.advance(ledger, spec.time)
        interleaved |= bool((ledger.order != np.arange(len(ledger.order))).any())
        after, trace = sim.run_step(ledger, k)
        assert trace.parents == ledger.records
        for i, parent in enumerate(trace.parents):
            up = ledger.branches[parent]
            assert trace.weights[i] == pytest.approx(up.weight, abs=1e-15), (k, parent)
            for j, label in enumerate(trace.labels):
                child = after.branches.get(parent + (label,))
                p = trace.cond_probs[i, j] * trace.weights[i]
                if child is None:
                    assert p < sim.prune, (k, parent, label)
                    continue
                assert p == pytest.approx(child.weight, abs=1e-15), (k, parent, label)
                for name in ("w_meas", "w_meas_alt"):
                    assert getattr(trace, name)[i, j] == pytest.approx(
                        getattr(child, name) - getattr(up, name), abs=1e-12), (k, parent, name)
        ledger = after
    assert interleaved    # some step's parents alternate between groups


def test_written_bundle_and_equivalence_rows_in_dense_order(runs, tmp_path):
    model, result = runs.result.model, runs.result
    equivalence = equivalence_rows(model, result)
    bundle = bundle_from_run(result, runs.ledger, mode="both", seed=0, checksum="-",
                             tolerances=DEFAULT, equivalence=equivalence)
    bundle.write(tmp_path)
    doc = json.loads((tmp_path / "report.json").read_text())
    with open(tmp_path / "branches.csv", newline="") as fh:
        csv_rows = list(csv.DictReader(fh))
    listed = defaultdict(lambda: defaultdict(list))
    for source, rows in (("report.json", doc["branch_rows"]), ("branches.csv", csv_rows),
                         ("equivalence", doc["equivalence"]), ("equivalence_rows", equivalence)):
        for row in rows:
            listed[source][float(row["time"])].append(row["record"])
    for t in REPORTS:
        for source in listed:
            assert listed[source][t] == dense_order(runs, t), (source, t)
    assert max(r["state_dev"] for r in equivalence) <= DEFAULT.equivalence_state
    assert max(r["prob_dev"] for r in equivalence) <= DEFAULT.equivalence_prob


@pytest.mark.parametrize("name", ["tpm_qutrit", "measurement_work"])
def test_shipped_scenario_permutes_into_dense_order(name):
    # a step stacks its children outcome by outcome, so on these scenarios
    # some report's rows reach ledger order only through ``order``
    sc = parse_scenario(str(SCENARIO_DIR / f"{name}.yaml"))
    runs = both_routes(sc.spec, sc.report_times)
    for t in sc.report_times:
        check_branch_states(runs, t)
        check_branch_rows(runs, t)
        check_ensemble(runs, t)
    assert any((snap.ledger.order != np.arange(len(snap.ledger.order))).any()
               for snap in runs.result.snapshots)
