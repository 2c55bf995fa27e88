"""Every readout path of one step against the dense black box.

Step 0 is a collision on a five-level ancilla whose Hamiltonian is not
diagonal in the readout basis.  Outcomes "a" and "b" read it out with
rank-1 projectors, "c" keeps it (a rank-2 projector), and "z" reads the
level that the control leaves alone and the prepared state holds with
weight 1e-15, so its child is pruned.  Feedback after "a" changes step 1's
instrument, so the children of "a" and "b" share a support but form two
groups, and "c"'s form a third.  Step 1 reads every group out again, with
"c"'s ancilla and its Hamiltonian still in the state.  The package and
:func:`oracles.dense_run` must agree on the branch states and rows, the
ensemble, every step trace and the pruned mass.
"""

import numpy as np
import pytest

from proctherm.channels import CPMap, Instrument
from proctherm.protocol import Protocol, Segment

from dense_checks import ABS, both_routes, check_branch_rows, check_branch_states, check_ensemble
from oracles import random_hermitian, random_unitary

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SZ = np.diag([1.0, -1.0]).astype(complex)
H_0 = np.diag([0.0, 1.0]).astype(complex)
T_STEPS = (0.4, 1.3)
REPORTS = (0.4, 1.3, 2.0)
TINY = 1e-15     # the prepared weight of the level outcome "z" reads


def model_spec():
    rng = np.random.default_rng(21)
    # the control mixes S with ancilla levels 0-3 and leaves level 4 alone
    unitary = np.eye(10, dtype=complex)
    block = [s * 5 + level for s in range(2) for level in range(4)]
    unitary[np.ix_(block, block)] = random_unitary(rng, 8)
    projectors = [np.diag(d).astype(complex) for d in
                  ([1, 0, 0, 0, 0], [0, 1, 0, 0, 0], [0, 0, 1, 1, 0], [0, 0, 0, 0, 1])]
    z_read = Instrument([("0", CPMap([np.diag([1.0, 0.0])])),
                         ("1", CPMap([np.diag([0.0, 1.0])]))])
    x_read = Instrument([("0", CPMap([0.5 * np.array([[1.0, 1.0], [1.0, 1.0]])])),
                         ("1", CPMap([0.5 * np.array([[1.0, -1.0], [-1.0, 1.0]])]))])
    return dict(
        s_dim=2, b_dim=2, beta=0.8,
        protocol=Protocol([Segment(0.0, 1.0, H_0), Segment(1.0, 2.0, H_0 + 0.5 * SX)]),
        h_bath=np.diag([0.0, 0.7]).astype(complex),
        v_coupling=0.4 * np.kron(SX, SX) + 0.2 * np.kron(SZ, SX),
        steps=[{"time": T_STEPS[0], "h_ancilla": random_hermitian(rng, 5, 0.5),
                "collision": {"ancilla_state": np.diag([0.5, 0.3, 0.15, 0.05 - TINY, TINY]),
                              "unitary": unitary, "projectors": projectors,
                              "labels": ["a", "b", "c", "z"]}},
               {"time": T_STEPS[1], "h_ancilla": 0.3 * SX + 0.1 * SZ, "instrument": z_read}],
        feedback={1: {("a",): x_read}})


@pytest.fixture(scope="module")
def runs():
    return both_routes(model_spec(), REPORTS)


def test_the_model_takes_every_readout_path(runs):
    first = next(s.ledger for s in runs.result.snapshots if s.time == T_STEPS[0])
    # "a" and "b" split by their node, "c" by its support; "z" is pruned
    assert sorted(g.records for g in first.groups) == [(("a",),), (("b",),), (("c",),)]
    assert {g.support for g in first.groups} == {("S", "B"), ("S", "B", "A0")}
    assert 0 < first.pruned_mass < 1e-14
    # the groups of "a", "b" and "c" cross the same base segments after each
    # step, "a"'s under its feedback node
    for t in T_STEPS:
        ledger = next(s.ledger for s in runs.result.snapshots if s.time == t)
        groups = sorted(ledger.groups, key=lambda g: g.records)
        assert [g.node for g in groups] == [("a",), (), ()], t


@pytest.mark.parametrize("t", REPORTS)
def test_states_rows_and_ensemble_match_dense_oracle(runs, t):
    check_branch_states(runs, t)
    check_branch_rows(runs, t)
    check_ensemble(runs, t)


@pytest.mark.parametrize("t", REPORTS)
def test_pruned_mass_matches_dense_oracle(runs, t):
    ledger = next(s.ledger for s in runs.result.snapshots if s.time == t)
    assert ledger.pruned_mass == pytest.approx(runs.dense.pruned_mass[t], rel=1e-9)
    assert ledger.pruned_mass == pytest.approx(TINY, rel=1e-9)


@pytest.mark.parametrize("k", range(len(T_STEPS)))
def test_step_traces_match_dense_oracle(runs, k):
    # per parent and outcome: the conditional probability and the
    # measurement work in both conventions, from the dense records before
    # and after the step
    trace = runs.result.traces[k]
    parents = {(): runs.dense.initial} if k == 0 else runs.dense.snapshots[T_STEPS[k - 1]]
    children = runs.dense.snapshots[T_STEPS[k]]
    assert trace.parents == list(parents)
    for labels, parent in parents.items():
        row = trace.per_prefix[labels]
        assert row.weight == pytest.approx(parent.p, abs=ABS)
        for label in trace.labels:
            child = children.get(labels + (label,))
            if child is None:    # the pruned child of "z"
                assert row.cond_probs[label] * row.weight == pytest.approx(TINY, rel=1e-9)
                continue
            assert row.cond_probs[label] == pytest.approx(child.p / parent.p, abs=ABS)
            assert row.w_meas[label] == pytest.approx(child.w_meas - parent.w_meas, abs=ABS)
            assert row.w_meas_alt[label] == pytest.approx(child.w_meas_alt - parent.w_meas_alt,
                                                          abs=ABS)
