"""The dense black box on a branch state conjugated once per event.

Both steps read their three-level ancilla out with a rank-2 projector, so
on outcome "b" each ancilla stays in the branch state and evolves under
its own Hamiltonian beside S (x) B.  Between step 0 and the first report
the drive switches three times, so the package composes four segments'
S (x) B unitaries and the spectator's unitaries into one conjugation of
the branch state, and books every switch from the S (x) B marginal.  The
package and :func:`oracles.dense_run` run the model from one declaration
and are compared record by record (see :mod:`dense_checks`).
"""

import numpy as np
import pytest

from proctherm.algebra import expm_herm
from proctherm.protocol import Protocol, Segment

from dense_checks import both_routes, check_branch_rows, check_branch_states
from oracles import random_hermitian

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.diag([1.0, -1.0]).astype(complex)

REPORTS = (1.5, 2.0)
P_A = np.diag([1.0, 0.0, 0.0]).astype(complex)
# couples |0> to |1>, so the range of the rank-2 projector is not invariant
H_A = np.array([[0.0, 0.3, 0.0], [0.3, 0.7, 0.4], [0.0, 0.4, 1.2]], dtype=complex)


def collision(rng):
    return {"ancilla_state": P_A,
            "unitary": expm_herm(random_hermitian(rng, 6), -1j),
            "projectors": [P_A, np.diag([0.0, 1.0, 1.0]).astype(complex)],
            "labels": ["a", "b"]}


def model_spec():
    rng = np.random.default_rng(31)
    h_0 = np.diag([0.0, 1.0]).astype(complex)
    drives = [h_0, h_0 + 0.5 * SX, h_0 - 0.4 * SY, h_0 + 0.3 * SX + 0.2 * SZ, h_0]
    edges = [0.0, 0.5, 0.8, 1.1, 1.6, 2.0]
    return dict(
        s_dim=2, b_dim=2, beta=0.9,
        protocol=Protocol([Segment(a, b, h) for a, b, h in zip(edges, edges[1:], drives)]),
        h_bath=np.diag([0.0, 1.1]).astype(complex),
        v_coupling=0.4 * np.kron(SX, SX) + 0.25 * np.kron(SY, SZ),
        steps=[{"time": 0.3, "h_ancilla": H_A, "collision": collision(rng)},
               {"time": 1.7, "h_ancilla": 0.8 * H_A, "collision": collision(rng)}])


@pytest.fixture(scope="module")
def runs():
    return both_routes(model_spec(), REPORTS)


@pytest.mark.parametrize("t", REPORTS)
def test_branch_states_match_dense_oracle(runs, t):
    check_branch_states(runs, t)
    # every "b" outcome keeps its ancilla beside S (x) B
    for labels, br in runs.result.snapshots[REPORTS.index(t)].ledger.branches.items():
        kept = tuple(f"A{k}" for k, label in enumerate(labels) if label == "b")
        assert br.support == ("S", "B") + kept


@pytest.mark.parametrize("t", REPORTS)
def test_switch_work_and_rows_match_dense_oracle(runs, t):
    # check_branch_rows compares w_sys, the switch-sum booked from the
    # block marginal, with the dense record's, along with every other row
    check_branch_rows(runs, t)
    assert any(abs(r.w_sys) > 1e-3 for r in runs.ledger.branch_rows[t])
