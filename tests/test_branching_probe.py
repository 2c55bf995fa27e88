"""Eight projective readouts of a strongly coupled qubit.

Every readout is rank 1, so each finished ancilla is a pure product factor
and the branch state stays on system (x) bath while the branch count
doubles per step.  Kept in the fast suite: it must run in well under a
second and a few tens of MB.
"""

import dataclasses

import numpy as np
import pytest

from proctherm.channels import CPMap, Instrument
from proctherm.protocol import Protocol, Segment
from proctherm.simulate import AutonomousModel, Simulator
from proctherm.thermo import evaluate_run
from proctherm.tolerances import DEFAULT
from proctherm.verify import equivalence_rows

N_STEPS = 8
Z_READ = Instrument([("g", CPMap(("S",), [np.diag([1.0, 0.0])])),
                     ("e", CPMap(("S",), [np.diag([0.0, 1.0])]))])
X_READ = Instrument([("+", CPMap(("S",), [0.5 * np.array([[1.0, 1.0], [1.0, 1.0]])])),
                     ("-", CPMap(("S",), [0.5 * np.array([[1.0, -1.0], [-1.0, 1.0]])]))])


@pytest.fixture(scope="module")
def probe():
    rng = np.random.default_rng(8)
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    v = 0.5 * (g + g.conj().T)
    model = AutonomousModel.assemble(
        s_dim=2, b_dim=2, beta=1.0,
        protocol=Protocol([Segment(0.0, N_STEPS / 2, np.diag([0.0, 1.0])),
                           Segment(N_STEPS / 2, N_STEPS, np.array([[0.0, 0.4], [0.4, 1.0]]))]),
        h_bath=np.diag([0.0, 1.0]), v_coupling=0.3 * v / np.linalg.norm(v, 2),
        steps=[{"time": 0.5 + k, "instrument": Z_READ if k % 2 == 0 else X_READ}
               for k in range(N_STEPS)])
    result = Simulator(model).run(report_times=[0.5 + k for k in range(N_STEPS)]
                                  + [float(N_STEPS)])
    return model, result, evaluate_run(result)


def test_final_branches_stay_on_system_and_bath(probe):
    _, result, _ = probe
    assert len(result.final.branches) == 2 ** N_STEPS
    assert {br.state.shape for br in result.final.branches.values()} == {(4, 4)}


def test_record_probabilities_sum_to_one(probe):
    _, result, _ = probe
    total = result.final.total_weight() + result.final.pruned_mass
    assert abs(total - 1.0) <= DEFAULT.prob_total


def test_entropy_production_forms_agree_and_are_nonnegative(probe):
    _, _, ledger = probe
    for row in ledger.ensemble_rows:
        assert abs(row.sigma_first_law - row.sigma_rel_ent) <= DEFAULT.sigma_forms
        assert row.sigma_first_law >= -DEFAULT.second_law


def test_final_snapshot_matches_direct_route(probe):
    model, result, _ = probe
    final_only = dataclasses.replace(result, snapshots=result.snapshots[-1:])
    rows = equivalence_rows(model, final_only)
    assert len(rows) == 2 ** N_STEPS
    assert max(r["state_dev"] for r in rows) <= DEFAULT.equivalence_state
    assert max(r["prob_dev"] for r in rows) <= DEFAULT.equivalence_prob
