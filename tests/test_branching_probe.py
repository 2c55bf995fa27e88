"""Eight projective readouts of a strongly coupled qubit.

Every readout is rank 1, so each finished ancilla is a pure product factor
and the branch state stays on system (x) bath while the branch count
doubles per step.  Kept in the fast suite: it must run in well under a
second and a few tens of MB.
"""

import collections
import dataclasses

import numpy as np
import pytest

from proctherm.channels import CPMap, Instrument
from proctherm.protocol import Protocol, Segment
import proctherm.channels as channels
import proctherm.protocol as protocol
import proctherm.simulate as simulate
import proctherm.thermo as thermo
from proctherm.simulate import AutonomousModel, Simulator
from proctherm.thermo import ThermoEvaluator, evaluate_run
from proctherm.tolerances import DEFAULT
from proctherm.verify import equivalence_rows

N_STEPS = 8
Z_READ = Instrument([("g", CPMap([np.diag([1.0, 0.0])])),
                     ("e", CPMap([np.diag([0.0, 1.0])]))])
X_READ = Instrument([("+", CPMap([0.5 * np.array([[1.0, 1.0], [1.0, 1.0]])])),
                     ("-", CPMap([0.5 * np.array([[1.0, -1.0], [-1.0, 1.0]])]))])


def probe_model(n_steps):
    """``n_steps`` Z/X readouts at t = 0.5 + k under a two-segment drive."""
    rng = np.random.default_rng(8)
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    v = 0.5 * (g + g.conj().T)
    return AutonomousModel.assemble(
        s_dim=2, b_dim=2, beta=1.0,
        protocol=Protocol([Segment(0.0, n_steps / 2, np.diag([0.0, 1.0])),
                           Segment(n_steps / 2, n_steps, np.array([[0.0, 0.4], [0.4, 1.0]]))]),
        h_bath=np.diag([0.0, 1.0]), v_coupling=0.3 * v / np.linalg.norm(v, 2),
        steps=[{"time": 0.5 + k, "instrument": Z_READ if k % 2 == 0 else X_READ}
               for k in range(n_steps)])


def report_times(n_steps):
    return [0.5 + k for k in range(n_steps)] + [float(n_steps)]


@pytest.fixture(scope="module")
def probe():
    model = probe_model(N_STEPS)
    result = Simulator(model).run(report_times=report_times(N_STEPS))
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


def test_branches_share_segment_propagators(monkeypatch):
    # every branch crosses the same (segment, interval) pairs, so each
    # segment's block Hamiltonian needs one eigendecomposition (the first
    # one, made for the Gibbs start, at assembly) and each pair one
    # propagator, formed from it, not one per branch
    eighs, spectra = [], []
    eigh, expm_herm = np.linalg.eigh, simulate.expm_herm

    def counted_eigh(a, *args, **kwargs):
        eighs.append(np.shape(a))
        return eigh(a, *args, **kwargs)

    def counted_expm(h, scale=1.0, eig=None):
        spectra.append(eig)
        return expm_herm(h, scale, eig)

    monkeypatch.setattr(np.linalg, "eigh", counted_eigh)
    monkeypatch.setattr(simulate, "expm_herm", counted_expm)
    model = probe_model(4)
    result = Simulator(model).run(report_times=report_times(4))
    events = [0.0] + report_times(4)
    pairs = {(seg, a, b) for t0, t1 in zip(events, events[1:])
             for seg, a, b in model.protocol.iter_segments(t0, t1)}
    # (0, .5), (.5, 1.5), (1.5, 2) and (2, 2.5) across the drive switch,
    # (2.5, 3.5), (3.5, 4)
    assert len(pairs) == 6
    assert len(result.final.branches) == 16
    # one eigh per (segment, block): two segments, block S (x) B
    assert eighs == [(4, 4)] * len(model.protocol.base)
    # one propagator per (segment, interval), each from a cached spectrum
    assert len(spectra) == len(pairs)
    assert len({id(eig) for eig in spectra}) == len(model.protocol.base)


def test_partial_traces_and_entropies_per_event_not_per_branch(monkeypatch):
    # the branches of one step, interval or report share their hardware and
    # drive, so they are traced and diagonalized as one stack: each event
    # makes the same number of partial traces and entropies whether it
    # holds 2 or 2**6 branches (the mean force's own traces, once per drive
    # value, are bound in thermo and not counted)
    calls = collections.Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    per_call = collections.defaultdict(list)   # (n, event) -> [(ptraces, entropies)]

    def per_event(n, event, fn):
        def wrapper(*args, **kwargs):
            before = calls["ptrace"], calls["entropy"]
            out = fn(*args, **kwargs)
            per_call[n, event].append((calls["ptrace"] - before[0],
                                       calls["entropy"] - before[1]))
            return out
        return wrapper

    monkeypatch.setattr(simulate, "ptrace_factors", counted("ptrace", simulate.ptrace_factors))
    monkeypatch.setattr(thermo, "vn_entropy_mat", counted("entropy", thermo.vn_entropy_mat))
    for n in (4, 6):
        with monkeypatch.context() as m:
            for cls, event in ((Simulator, "run_step"), (Simulator, "advance"),
                               (ThermoEvaluator, "branch_rows")):
                m.setattr(cls, event, per_event(n, event, getattr(cls, event)))
            evaluate_run(Simulator(probe_model(n)).run(report_times=report_times(n)))
    assert len(set(per_call[4, "run_step"] + per_call[6, "run_step"])) == 1
    # one advance crosses the drive switch
    assert set(per_call[4, "advance"]) == set(per_call[6, "advance"])
    # the first report also evaluates the initial reference
    assert per_call[4, "branch_rows"][0] == per_call[6, "branch_rows"][0]
    assert len(set(per_call[4, "branch_rows"][1:] + per_call[6, "branch_rows"][1:])) == 1


# Z and X readouts at once: four outcomes, each with one Kraus operator
FOUR_READ = Instrument([(label, CPMap([np.sqrt(0.5) * k]))
                        for label, k in (("0", np.diag([1.0, 0.0])), ("1", np.diag([0.0, 1.0])),
                                         ("+", 0.5 * np.array([[1.0, 1.0], [1.0, 1.0]])),
                                         ("-", 0.5 * np.array([[1.0, -1.0], [-1.0, 1.0]])))])


def test_readout_calls_per_step_not_per_outcome(monkeypatch):
    # every readout tally of every outcome comes from one marginal, so a
    # step makes the same partial traces and energy expectations whether
    # its rank-1 instrument has 2 or 4 outcomes
    calls = collections.Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(simulate, "ptrace_factors", counted("ptrace", simulate.ptrace_factors))
    monkeypatch.setattr(simulate, "expect_herm", counted("expect", simulate.expect_herm))
    base, per_step = probe_model(1), {}
    for inst in (Z_READ, FOUR_READ):
        sim = Simulator(AutonomousModel.assemble(
            s_dim=2, b_dim=2, beta=1.0, protocol=base.protocol, h_bath=base.h_bath,
            v_coupling=base.v_coupling, steps=[{"time": 0.5, "instrument": inst}]))
        ledger = sim.advance(sim.run().initial.ledger, 0.5)
        calls.clear()
        after, _ = sim.run_step(ledger, 0)
        assert len(after.branches) == len(inst.labels)
        per_step[len(inst.labels)] = (calls["ptrace"], calls["expect"])
    assert per_step[2] == per_step[4]
    assert per_step[2][0] > 0


def test_prefix_resolutions_per_event_not_per_branch(monkeypatch):
    # the records of a group share their node, so each event resolves a
    # group's drive timeline and step hardware once: it makes the same
    # number of deepest_prefix and Protocol.timeline calls whether it
    # holds 2 or 2**6 records
    calls = collections.Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    per_call = collections.defaultdict(list)   # (n, event) -> [(prefixes, timelines)]

    def per_event(n, event, fn):
        def wrapper(*args, **kwargs):
            before = calls["prefix"], calls["timeline"]
            out = fn(*args, **kwargs)
            per_call[n, event].append((calls["prefix"] - before[0],
                                       calls["timeline"] - before[1]))
            return out
        return wrapper

    # Protocol.timeline resolves through the deepest_prefix bound in protocol
    monkeypatch.setattr(simulate, "deepest_prefix", counted("prefix", simulate.deepest_prefix))
    monkeypatch.setattr(protocol, "deepest_prefix", counted("prefix", protocol.deepest_prefix))
    monkeypatch.setattr(Protocol, "timeline", counted("timeline", Protocol.timeline))
    for n in (4, 6):
        with monkeypatch.context() as m:
            for event in ("run_step", "advance"):
                m.setattr(Simulator, event, per_event(n, event, getattr(Simulator, event)))
            Simulator(probe_model(n)).run(report_times=report_times(n))
    assert len(per_call[6, "run_step"]) == 6
    assert len(set(per_call[4, "run_step"] + per_call[6, "run_step"])) == 1
    assert set(per_call[4, "advance"]) == set(per_call[6, "advance"])
    # the counts are not vacuous: every step resolves its hardware, and an
    # advance over an interval its timeline
    assert all(prefixes > 0 for prefixes, _ in per_call[6, "run_step"])
    assert any(timelines > 0 for _, timelines in per_call[6, "advance"])


def test_direct_route_resolutions_per_event_not_per_record(monkeypatch):
    # the direct route carries the records that share a node as one family;
    # the probe declares no feedback, so its records form one family, and
    # each advance resolves its drive timeline once and each step its
    # instrument once, whether the tree holds 2**4 or 2**6 records
    calls = collections.Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    # Protocol.timeline resolves through the deepest_prefix bound in
    # protocol, InterventionSchedule.instrument_at through the one in channels
    monkeypatch.setattr(protocol, "deepest_prefix", counted("prefix", protocol.deepest_prefix))
    monkeypatch.setattr(channels, "deepest_prefix", counted("prefix", channels.deepest_prefix))
    monkeypatch.setattr(Protocol, "timeline", counted("timeline", Protocol.timeline))
    per_event = {}
    for n in (4, 6):
        model, times = probe_model(n), report_times(n)
        calls.clear()
        tree = channels.evaluate_process_tensor(model.schedule, model.sb_init, times)
        assert len(tree[times[-1]][0]) == 2 ** n
        # one advance up to each step and each report time (a report at a
        # step's time advances over an empty interval), one split per step
        advances = n + len(times)
        per_event[n] = (calls["timeline"] / advances,
                        (calls["prefix"] - calls["timeline"]) / n)
    assert per_event[4] == per_event[6] == (1.0, 1.0)
