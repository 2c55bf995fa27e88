"""The thermodynamic evaluation as one pass over a run.

``evaluate_run`` reads every group of every snapshot into small
reductions, then computes H* for every drive value of the run, the
entropies per marginal size and every branch column of every report time
at once.  These tests pin the mapping back onto the records (drive values,
supports and pending ancillas of each report time), that an underflowing
mean force still stops the run, and that no state is copied on the way.
"""

import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import yaml

from proctherm.channels import CPMap, Instrument
from proctherm.cli import main
from proctherm.protocol import Protocol, Segment
from proctherm.scenario import parse_scenario
from proctherm.simulate import AutonomousModel, Simulator
from proctherm.thermo import ConventionError, evaluate_run

from dense_checks import both_routes, check_branch_rows, check_ensemble
from oracles import random_hermitian

SZ = np.diag([1.0, -1.0]).astype(complex)
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"
REPORTS = (0.4, 0.9, 1.5, 2.0)


def mapping_spec():
    """``driven_feedback``'s drive variants, plus a third step whose outcome
    "a" factors its ancilla out (one Kraus operator, rank-1 readout) and
    whose outcome "b" keeps it (two Kraus operators), on an ancilla whose
    prepared state has energy: at t = 1.5 the groups of "up" and "down"
    hold two drive values, and at t = 2.0 four groups hold two supports
    under two nodes."""
    spec = dict(parse_scenario(str(SCENARIO_DIR / "driven_feedback.yaml")).spec)
    split = Instrument([("a", CPMap([math.sqrt(0.4) * np.eye(2)])),
                        ("b", CPMap([math.sqrt(0.3) * np.eye(2), math.sqrt(0.3) * SZ]))])
    h_ancilla = np.diag([0.9, 0.0, 0.4]) + random_hermitian(np.random.default_rng(36), 3, 0.1)
    spec["steps"] = spec["steps"] + [{"time": 1.7, "instrument": split,
                                      "h_ancilla": h_ancilla}]
    return spec


@pytest.fixture(scope="module")
def runs():
    return both_routes(mapping_spec(), REPORTS)


def test_the_model_mixes_drives_supports_and_nodes(runs):
    # the test is only as good as its model
    ledgers = {s.time: s.ledger for s in runs.result.snapshots}
    assert len({g.h_sys.tobytes() for g in ledgers[1.5].groups}) == 2
    assert {(g.support, g.node) for g in ledgers[2.0].groups} == {
        (support, node) for support in (("S", "B"), ("S", "B", "A2"))
        for node in ((), ("down",))}
    # step 2's ancilla is pending at 1.5, with a nonzero energy
    assert ledgers[1.5].steps_done == 2
    model = runs.result.model
    spec = model.steps[2]
    assert abs(np.trace(spec.h_ancilla @ spec.ancilla_state)) > 0.5


@pytest.mark.parametrize("t", REPORTS)
def test_every_report_time_matches_the_dense_oracle(runs, t):
    check_branch_rows(runs, t)
    check_ensemble(runs, t)


def cold_scenario():
    """A sigma_z x sigma_x coupling keeps the system levels apart: at
    beta = 200 the excited level's Boltzmann weight underflows under the
    second of three drive values only."""
    sz_sx = 0.3 * np.kron(np.diag([1.0, -1.0]), [[0.0, 1.0], [1.0, 0.0]])
    return {
        "name": "cold", "beta": 200.0, "system": {"dim": 2},
        "bath": {"dim": 2, "hamiltonian": {"diag": [0.0, 0.9]}},
        "coupling": sz_sx.tolist(),
        "time": {"start": 0.0, "end": 1.5},
        "protocol": [{"t0": 0.0, "t1": 0.5, "system": {"diag": [0.0, 0.5]}},
                     {"t0": 0.5, "t1": 1.0, "system": {"diag": [0.0, 5.0]}},
                     {"t0": 1.0, "t1": 1.5, "system": {"diag": [0.0, 1.0]}}],
        "report_times": [0.25, 0.75, 1.25]}


def test_one_underflowing_drive_value_among_several_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "cold.yaml"
    path.write_text(yaml.safe_dump(cold_scenario()))
    sc = parse_scenario(str(path))
    result = Simulator(AutonomousModel.assemble(**sc.spec)).run(report_times=sc.report_times)
    with pytest.raises(ConventionError, match=r"mean force at beta=200"):
        evaluate_run(result)
    out = tmp_path / "out"
    assert main(["run", "--scenario", str(path), "--out", str(out)]) == 2
    assert "mean force at beta=200" in capsys.readouterr().err
    assert not out.exists()


def dephasing_model():
    """A qubit on a 32-level bath with two non-selective dephasing steps, as
    the benchmark's ``ramp``: each keeps its two-level ancilla, so the last
    stack is 256 x 256 (1 MB) for its single record."""
    rng = np.random.default_rng(32)
    dephase = Instrument([("d", CPMap([math.sqrt(0.7) * np.eye(2), math.sqrt(0.3) * SZ]))])
    drives = [np.diag([0.0, 1.0]) + 0.2 * i * SX for i in range(4)]
    return AutonomousModel.assemble(
        s_dim=2, b_dim=32, beta=1.0,
        protocol=Protocol([Segment(0.5 * i, 0.5 * (i + 1), h) for i, h in enumerate(drives)]),
        h_bath=np.diag(np.sort(rng.uniform(0.0, 2.0, 32))),
        v_coupling=random_hermitian(rng, 64, 0.3 / 8),
        steps=[{"time": 0.6, "instrument": dephase}, {"time": 1.1, "instrument": dephase}])


def test_evaluation_copies_no_state():
    # stage 1 reads each stack in place: the evaluation's peak allocation
    # stays below the largest stack it reads
    result = Simulator(dephasing_model()).run(report_times=[0.25, 0.75, 1.25, 1.75])
    largest = max(g.states.nbytes for s in result.snapshots for g in s.ledger.groups)
    assert largest >= 2 ** 20
    tracemalloc.start()
    try:
        evaluate_run(result)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < largest, (peak, largest)
