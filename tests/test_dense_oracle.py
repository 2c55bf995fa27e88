"""The package against the dense black box, blind to how it stores a branch.

A two-step model with a drive variant, an unsharp instrument and a
collision whose ancilla Hamiltonian is not diagonal in its readout basis,
and every shipped scenario, are each run by the package and by
:func:`oracles.dense_run` from one declaration, and compared record by
record (see :mod:`dense_checks`).
"""

import math
from pathlib import Path

import numpy as np
import pytest

from proctherm.algebra import expm_herm, gibbs_mat, unitary_log_generator
from proctherm.channels import CPMap, Instrument
from proctherm.protocol import Protocol, Segment
from proctherm.scenario import parse_scenario

from dense_checks import both_routes, check_branch_rows, check_branch_states, check_ensemble
from oracles import dense_thermo

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.diag([1.0, -1.0]).astype(complex)
PLUS = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
MINUS = np.array([[0.5, -0.5], [-0.5, 0.5]], dtype=complex)

BETA = 0.9
T_SWITCH, T_END = 1.0, 2.2
REPORTS = (0.8, 1.5, T_END)
H_0 = np.diag([0.0, 1.0]).astype(complex)
H_A1 = np.diag([0.0, 0.8]).astype(complex)
PHI = np.array([math.cos(0.3), math.sin(0.3) * np.exp(0.4j)])
PHI_PERP = np.array([-math.sin(0.3) * np.exp(-0.4j), math.cos(0.3)])
SCENARIOS = sorted(Path(__file__).resolve().parent.parent.glob("scenarios/*.yaml"))


def model_spec():
    unsharp = [math.sqrt(0.8) * PLUS + math.sqrt(0.2) * MINUS,
               math.sqrt(0.2) * PLUS + math.sqrt(0.8) * MINUS]
    partial_swap = expm_herm(
        unitary_log_generator(np.eye(4)[[0, 2, 1, 3]].astype(complex)), -0.7j)
    return dict(
        s_dim=2, b_dim=2, beta=BETA,
        protocol=Protocol(
            [Segment(0.0, T_SWITCH, H_0), Segment(T_SWITCH, T_END, H_0 + 0.5 * SX)],
            # the drive after outcome "b" of step 0
            variants={("b",): [Segment(0.0, T_SWITCH, H_0),
                               Segment(T_SWITCH, T_END, H_0 + 0.3 * SY)]}),
        h_bath=np.diag([0.0, 0.9]).astype(complex),
        v_coupling=0.5 * np.kron(SX, SX) + 0.2 * np.kron(SZ, SY),
        # step 0 reads out in the computational basis of A0; its Hamiltonian
        # is not diagonal there, so the readout changes the ancilla energy
        steps=[{"time": 0.4, "h_ancilla": 0.6 * SX + 0.2 * SZ,
                "instrument": Instrument([("a", CPMap(("S",), [unsharp[0]])),
                                          ("b", CPMap(("S",), [unsharp[1]]))])},
               {"time": 1.5, "h_ancilla": H_A1,
                "collision": {"ancilla_state": gibbs_mat(H_A1, BETA),
                              "unitary": partial_swap,
                              "projectors": [np.outer(PHI, PHI.conj()),
                                             np.outer(PHI_PERP, PHI_PERP.conj())],
                              "labels": ["u", "d"]}}])


@pytest.fixture(scope="module")
def runs():
    return both_routes(model_spec(), REPORTS)


@pytest.mark.parametrize("t", REPORTS)
def test_branch_states_match_dense_oracle(runs, t):
    check_branch_states(runs, t)


@pytest.mark.parametrize("t", REPORTS)
def test_branch_rows_match_dense_oracle(runs, t):
    check_branch_rows(runs, t)


@pytest.mark.parametrize("t", REPORTS)
def test_ensemble_matches_dense_oracle(runs, t):
    check_ensemble(runs, t)
    assert dense_thermo(runs.dense, t).sigma_rel_ent > 0


@pytest.mark.parametrize("path", SCENARIOS, ids=lambda p: p.stem)
def test_shipped_scenario_matches_dense_oracle(path):
    sc = parse_scenario(str(path))
    runs = both_routes(sc.spec, sc.report_times)
    for t in sc.report_times:
        check_branch_states(runs, t)
        check_branch_rows(runs, t)
        check_ensemble(runs, t)
