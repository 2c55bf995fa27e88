"""The dense black box on an ancilla that stays in the branch state.

Step 0 reads its three-level ancilla A0 out with a rank-2 projector whose
range is not invariant under A0's Hamiltonian, so on that outcome A0 stays
in the branch state and keeps evolving.  Step 1 is a finite-width control
window on S (x) A1, with a drive switch inside it, so on that outcome A0
sits between the factors the window couples (S B A0 A1) as a spectator.
The package and :func:`oracles.dense_run` run the model from one
declaration and are compared record by record (see :mod:`dense_checks`).
"""

import math

import numpy as np
import pytest

from proctherm.algebra import expm_herm, gibbs_mat, unitary_log_generator
from proctherm.protocol import Protocol, Segment

from dense_checks import both_routes, check_branch_rows, check_branch_states, check_ensemble
from oracles import random_hermitian

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.diag([1.0, -1.0]).astype(complex)

BETA = 0.8
T_SWITCH, T_END = 1.25, 2.2
REPORTS = (0.8, 1.8, T_END)
H_0 = np.diag([0.0, 1.0]).astype(complex)
H_A1 = np.array([[0.0, 0.2], [0.2, 0.9]], dtype=complex)
P_A = np.diag([1.0, 0.0, 0.0]).astype(complex)
PHI = np.array([math.cos(0.4), math.sin(0.4) * np.exp(0.3j)])
PHI_PERP = np.array([-math.sin(0.4) * np.exp(-0.3j), math.cos(0.4)])


def model_spec():
    swap = np.eye(4)[[0, 2, 1, 3]].astype(complex)
    return dict(
        s_dim=2, b_dim=2, beta=BETA,
        protocol=Protocol(
            [Segment(0.0, T_SWITCH, H_0), Segment(T_SWITCH, T_END, H_0 + 0.45 * SX)],
            # the drive after outcome "b" of step 0
            variants={("b",): [Segment(0.0, T_SWITCH, H_0),
                               Segment(T_SWITCH, T_END, H_0 - 0.3 * SY)]}),
        h_bath=np.diag([0.0, 1.1]).astype(complex),
        v_coupling=0.4 * np.kron(SX, SX) + 0.25 * np.kron(SY, SZ),
        # A0's Hamiltonian couples |0> to |1>, so the range of the rank-2
        # projector of outcome "b" is not invariant
        steps=[{"time": 0.4,
                "h_ancilla": np.array([[0.0, 0.3, 0.0], [0.3, 0.7, 0.4], [0.0, 0.4, 1.2]],
                                      dtype=complex),
                "collision": {"ancilla_state": P_A,
                              "unitary": expm_herm(
                                  random_hermitian(np.random.default_rng(11), 6), -1j),
                              "projectors": [P_A, np.diag([0.0, 1.0, 1.0]).astype(complex)],
                              "labels": ["a", "b"]}},
               {"time": 1.1, "h_ancilla": H_A1, "window": 0.35,
                "collision": {"ancilla_state": gibbs_mat(H_A1, BETA),
                              "unitary": expm_herm(unitary_log_generator(swap), -0.6j),
                              "projectors": [np.outer(PHI, PHI.conj()),
                                             np.outer(PHI_PERP, PHI_PERP.conj())],
                              "labels": ["u", "d"]}}])


@pytest.fixture(scope="module")
def runs():
    return both_routes(model_spec(), REPORTS)


@pytest.mark.parametrize("t", REPORTS)
def test_branch_states_match_dense_oracle(runs, t):
    check_branch_states(runs, t)
    # A0 stays after the rank-2 outcome "b"; A1 joins at step 1 and is
    # factored out by its rank-1 readout
    for labels, br in runs.result.snapshots[REPORTS.index(t)].ledger.branches.items():
        assert br.support == ("S", "B") + (("A0",) if labels[0] == "b" else ())


@pytest.mark.parametrize("t", REPORTS)
def test_branch_rows_match_dense_oracle(runs, t):
    check_branch_rows(runs, t)


@pytest.mark.parametrize("t", REPORTS)
def test_energy_budget_matches_dense_oracle(runs, t):
    check_ensemble(runs, t)
