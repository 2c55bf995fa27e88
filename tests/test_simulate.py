"""Tests for the autonomous branch simulator.

The load-bearing check is dynamical equivalence: every conditional system
state produced by the unitary inclusive model must match the direct
intervention-sequence evaluation, record by record.
"""

import dataclasses
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from proctherm.algebra import max_norm, ptrace_factors
from proctherm.channels import CPMap, Instrument, evaluate_process_tensor
from proctherm.dilation import dephasing_error
from proctherm.protocol import Protocol, Segment, before
from proctherm import simulate
from proctherm.scenario import build_model, parse_scenario
from proctherm.simulate import AutonomousModel, Simulator, ancilla_label
from proctherm.tolerances import TIME_EPS
from proctherm.verify import equivalence_rows

from dense_checks import both_routes, check_branch_rows, check_branch_states, check_ensemble
from oracles import (
    random_density,
    random_hermitian,
    random_kraus_channel,
    random_unitary,
    richardson_halving,
    taylor_expm,
    work_measurement_alternative,
)

P0 = np.array([[1, 0], [0, 0]], dtype=complex)
P1 = np.array([[0, 0], [0, 1]], dtype=complex)
SX = np.array([[0, 1], [1, 0]], dtype=complex)


def projective_z():
    return Instrument([("1", CPMap([P0])), ("2", CPMap([P1]))])


def identity_instrument():
    return Instrument([("1", CPMap([np.eye(2)]))])


def simple_model(steps, *, h_sys=None, h_bath=None, v=None, beta=1.0,
                 b_dim=2, t_end=2.0, feedback=None, segments=None,
                 sb_init=None):
    proto = Protocol(segments or [Segment(0.0, t_end, np.zeros((2, 2)) if h_sys is None else h_sys)])
    return AutonomousModel.assemble(
        s_dim=2, b_dim=b_dim, beta=beta, protocol=proto, h_bath=h_bath,
        v_coupling=v, steps=steps, feedback=feedback, sb_init=sb_init)


def conditional_system(model, ledger, branch):
    """Unnormalized conditional system state of one branch."""
    dims = [model.dims[l] for l in branch.support]
    return ptrace_factors(branch.state, dims, [0])


def assert_equivalent(model, result, atol_state=1e-9, atol_prob=1e-10):
    """Every snapshot branch must match the direct evaluation."""
    snaps = list(result.snapshots) + [Snapshotish(result.final)]
    tree = evaluate_process_tensor(model.schedule, model.sb_init,
                                   [snap.ledger.time for snap in snaps])
    for snap in snaps:
        records, states = tree[snap.ledger.time]
        direct = dict(zip(records, states))
        for branch in snap.ledger.branches.values():
            want = direct[branch.labels]
            got = conditional_system(model, snap.ledger, branch)
            assert max_norm(got - want) < atol_state
            assert abs(branch.weight - np.trace(want).real) < atol_prob


class Snapshotish:
    def __init__(self, ledger):
        self.ledger = ledger


class TestBasics:
    def test_identity_step_keeps_single_branch(self):
        model = simple_model([{"time": 0.5, "instrument": identity_instrument()}])
        result = Simulator(model).run(report_times=[2.0])
        assert len(result.final.branches) == 1
        branch = next(iter(result.final.branches.values()))
        assert branch.weight == pytest.approx(1.0, abs=1e-12)
        assert branch.labels == ("1",)

    def test_born_rule_split(self):
        # |+> measured projectively: two branches of weight 1/2
        plus = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
        sb = np.kron(plus, np.eye(2) / 2)
        model = simple_model([{"time": 0.5, "instrument": projective_z()}], sb_init=sb)
        result = Simulator(model).run(report_times=[1.0])
        weights = sorted(b.weight for b in result.final.branches.values())
        assert weights == pytest.approx([0.5, 0.5], abs=1e-12)

    def test_total_weight_preserved(self):
        rng = np.random.default_rng(60)
        kraus = random_kraus_channel(rng, 2, 3)
        inst = Instrument([("1", CPMap(kraus[:1])), ("2", CPMap(kraus[1:]))])
        model = simple_model(
            [{"time": 0.4, "instrument": inst}, {"time": 1.1, "instrument": projective_z()}],
            h_sys=random_hermitian(rng, 2), h_bath=random_hermitian(rng, 2),
            v=0.3 * random_hermitian(rng, 4))
        result = Simulator(model).run(report_times=[1.8])
        assert result.final.total_weight() == pytest.approx(1.0, abs=1e-10)
        # reconstructed mixture stays positive
        for b in result.final.branches.values():
            assert np.linalg.eigvalsh(b.state)[0] > -1e-10

    def test_zero_probability_branch_pruned(self):
        # measuring |0><0| projectively never yields outcome 2
        sb = np.kron(P0, np.eye(2) / 2)
        model = simple_model([{"time": 0.5, "instrument": projective_z()}], sb_init=sb)
        result = Simulator(model).run()
        assert len(result.final.branches) == 1
        assert result.final.pruned_mass < 1e-14

    def test_prune_zero_still_drops_zero_probability_children(self):
        # a zero threshold keeps every possible record but no impossible one
        from proctherm.thermo import evaluate_run
        sb = np.kron(P0, np.eye(2) / 2)
        model = simple_model([{"time": 0.5, "instrument": projective_z()},
                              {"time": 1.0, "instrument": projective_z()}], sb_init=sb)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = Simulator(model, prune=0.0).run(report_times=[0.7, 1.5])
            ledger = evaluate_run(result)
        for snap in list(result.snapshots) + [Snapshotish(result.final)]:
            assert all(b.weight > 0 for b in snap.ledger.branches.values())
        assert [b.labels for b in result.final.branches.values()] == [("1", "1")]
        for rows in ledger.branch_rows.values():
            assert [r.labels[-1:] for r in rows] == [("1",)]
            assert all(np.isfinite([r.p, r.w_meas, r.w_meas_alt, r.s]).all() for r in rows)


class TestEquivalence:
    def test_driven_qubit_two_steps(self):
        rng = np.random.default_rng(61)
        kraus = random_kraus_channel(rng, 2, 2)
        unsharp = Instrument([("1", CPMap(kraus[:1])), ("2", CPMap(kraus[1:]))])
        segs = [Segment(0.0, 0.7, np.diag([0.0, 1.0])),
                Segment(0.7, 2.0, np.diag([0.0, 1.0]) + 0.4 * SX)]
        model = simple_model(
            [{"time": 0.3, "instrument": unsharp}, {"time": 1.2, "instrument": projective_z()}],
            h_bath=np.diag([0.0, 0.9]),
            v=0.35 * np.kron(SX, SX), segments=segs)
        result = Simulator(model).run(report_times=[0.5, 1.0, 1.7, 2.0])
        assert_equivalent(model, result)

    def test_feedback_instrument_and_protocol(self):
        rng = np.random.default_rng(62)
        plus = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
        minus = np.array([[0.5, -0.5], [-0.5, 0.5]], dtype=complex)
        x_inst = Instrument([("1", CPMap([plus])), ("2", CPMap([minus]))])
        h0 = np.diag([0.0, 1.0])
        h_fb = np.diag([0.0, 1.0]) + 0.6 * SX
        proto = Protocol(
            [Segment(0.0, 2.0, h0)],
            variants={("2",): [Segment(0.0, 0.4, h0), Segment(0.4, 2.0, h_fb)]})
        model = AutonomousModel.assemble(
            s_dim=2, b_dim=2, beta=1.0, protocol=proto,
            h_bath=np.diag([0.0, 0.8]), v_coupling=0.3 * np.kron(SX, SX),
            steps=[{"time": 0.4, "instrument": projective_z()},
                   {"time": 1.1, "instrument": projective_z()}],
            feedback={1: {("2",): x_inst}})
        result = Simulator(model).run(report_times=[0.8, 1.6, 2.0])
        assert_equivalent(model, result)
        assert result.final.total_weight() == pytest.approx(1.0, abs=1e-10)

    def test_feedback_instrument_alone(self):
        # the feedback replaces step 1's instrument but not the drive, so the
        # two parents of step 1 share all but their control hardware
        plus = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
        minus = np.array([[0.5, -0.5], [-0.5, 0.5]], dtype=complex)
        x_inst = Instrument([("1", CPMap([plus])), ("2", CPMap([minus]))])
        spec = dict(
            s_dim=2, b_dim=2, beta=1.0,
            protocol=Protocol([Segment(0.0, 2.0, np.diag([0.0, 1.0]) + 0.3 * SX)]),
            h_bath=np.diag([0.0, 0.8]), v_coupling=0.3 * np.kron(SX, SX),
            steps=[{"time": 0.4, "instrument": projective_z()},
                   {"time": 1.1, "instrument": projective_z()}],
            feedback={1: {("2",): x_inst}})
        routes = both_routes(spec, [1.6])
        check_branch_states(routes, 1.6)
        check_branch_rows(routes, 1.6)

    def test_collision_step_equivalence(self):
        # declared-hardware step with a mixed thermal ancilla
        theta = np.pi / 3
        swap = np.eye(4)[[0, 2, 1, 3]].astype(complex)
        from proctherm.algebra import expm_herm, unitary_log_generator
        partial = expm_herm(unitary_log_generator(swap), -1j * theta / (np.pi / 2) * (np.pi / 2))
        pi_anc = np.diag([0.7, 0.3]).astype(complex)
        model = simple_model(
            [{"time": 0.6,
              "collision": {"ancilla_state": pi_anc, "unitary": partial,
                            "projectors": [P0, P1], "labels": ("g", "e")},
              "h_ancilla": np.diag([0.0, 1.0])}],
            h_sys=np.diag([0.0, 1.0]), h_bath=np.diag([0.0, 1.1]),
            v=0.2 * np.kron(SX, SX))
        result = Simulator(model).run(report_times=[1.5])
        assert_equivalent(model, result)

    def test_intervention_cotimed_with_drive_switch(self):
        # both routes must place a switch landing exactly on the step time
        # after the intervention
        h0 = np.diag([0.0, 1.0])
        h1 = np.diag([0.0, 1.0]) + 0.6 * SX
        model = AutonomousModel.assemble(
            s_dim=2, b_dim=2, beta=1.0,
            protocol=Protocol([Segment(0.0, 0.6, h0), Segment(0.6, 1.5, h1)]),
            h_bath=np.diag([0.0, 0.9]), v_coupling=0.3 * np.kron(SX, SX),
            steps=[{"time": 0.6, "instrument": projective_z()}])
        result = Simulator(model).run(report_times=[0.6, 1.0, 1.5])
        assert_equivalent(model, result)

    def test_randomized_battery(self):
        rng = np.random.default_rng(63)
        for trial in range(6):
            n_steps = int(rng.integers(1, 4))
            times = np.sort(rng.uniform(0.1, 1.6, size=n_steps))
            steps = []
            for t in times:
                m = int(rng.integers(1, 4))
                kraus = random_kraus_channel(rng, 2, m)
                cut = int(rng.integers(1, m + 1)) if m > 1 else 1
                outcomes = [("1", CPMap(kraus[:cut]))]
                if cut < m:
                    outcomes.append(("2", CPMap(kraus[cut:])))
                steps.append({"time": float(t), "instrument": Instrument(outcomes)})
            model = simple_model(
                steps, h_sys=random_hermitian(rng, 2),
                h_bath=random_hermitian(rng, 2), v=0.3 * random_hermitian(rng, 4))
            result = Simulator(model).run(report_times=[1.8])
            assert_equivalent(model, result)


def evolve_single_branch(model, t):
    """State at ``t`` of the one branch of a step-free run."""
    (branch,) = Simulator(model).run(report_times=[t]).snapshots[0].ledger.branches.values()
    return branch.state


def feedback_model(window=None):
    """Z readout at t=0.4 (optionally with a control window), then a step
    at t=1.1 whose instrument and drive depend on the first outcome."""
    plus = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
    minus = np.array([[0.5, -0.5], [-0.5, 0.5]], dtype=complex)
    x_inst = Instrument([("1", CPMap([plus])), ("2", CPMap([minus]))])
    unsharp = Instrument([("1", CPMap([np.sqrt(0.8) * P0 + np.sqrt(0.2) * P1])),
                          ("2", CPMap([np.sqrt(0.2) * P0 + np.sqrt(0.8) * P1]))])
    h0 = np.diag([0.0, 1.0])
    proto = Protocol([Segment(0.0, 2.0, h0)],
                     variants={("2",): [Segment(0.0, 0.8, h0),
                                        Segment(0.8, 2.0, h0 + 0.6 * SX)]})
    first = {"time": 0.4, "instrument": projective_z()}
    if window is not None:
        first["window"] = window
    return AutonomousModel.assemble(
        s_dim=2, b_dim=2, beta=1.0, protocol=proto,
        h_bath=np.diag([0.0, 0.8]), v_coupling=0.3 * np.kron(SX, SX),
        steps=[first, {"time": 1.1, "instrument": projective_z()}],
        feedback={1: {("1",): unsharp, ("2",): x_inst}})


class TestRecordKeys:
    def test_ledgers_and_traces_keyed_by_outcome_labels(self):
        model = feedback_model()
        result = Simulator(model).run(report_times=[0.8, 2.0])
        ledgers = [result.initial.ledger, result.final] + [s.ledger for s in result.snapshots]
        for ledger in ledgers:
            assert ledger.branches
            for key, br in ledger.branches.items():
                assert key == br.labels
        assert set(result.final.branches) == {(a, b) for a in "12" for b in "12"}
        # each step's trace is keyed by the labels of the parent branches
        assert set(result.traces[0].per_prefix) == {()}
        assert set(result.traces[1].per_prefix) == {("1",), ("2",)}
        for labels, br in result.final.branches.items():
            parent = result.traces[1].per_prefix[labels[:-1]]
            assert work_measurement_alternative(result.traces[1], labels) \
                == parent.w_meas_alt[labels[-1]]

    def test_hardware_dilated_once_per_declared_prefix_at_assembly(self, monkeypatch):
        calls = []
        original = simulate.dilate_instrument

        def counting(inst, *args, **kwargs):
            calls.append(inst)
            return original(inst, *args, **kwargs)

        monkeypatch.setattr(simulate, "dilate_instrument", counting)
        model = feedback_model(window=0.2)
        # step 0 (windowed): its base; step 1: its base and two variants
        assert len(calls) == 4
        assert len({id(inst) for inst in calls}) == 4
        result = Simulator(model).run(report_times=[2.0])
        assert len(calls) == 4
        assert len(result.final.branches) == 4
        # feedback picks the variant's hardware for each parent record
        for labels in [("1",), ("2",)]:
            assert model.hardware(1, labels + ("1",)) is model.steps[1].controls[labels][0]
            assert model.hardware(1, labels) is not model.hardware(1, ())


class TestEvolution:
    def test_zero_hamiltonian_is_identity(self):
        rng = np.random.default_rng(64)
        rho = random_density(rng, 4)
        model = simple_model([], sb_init=rho)
        np.testing.assert_allclose(evolve_single_branch(model, 1.3), rho, atol=1e-13)

    def test_commuting_segments_compose(self):
        h1, h2 = np.diag([0.0, 1.0]), np.diag([0.0, 2.5])
        segs = [Segment(0.0, 0.5, h1), Segment(0.5, 1.0, h2)]
        rng = np.random.default_rng(65)
        rho = random_density(rng, 4)
        model = simple_model([], segments=segs, t_end=1.0, sb_init=rho)
        out = evolve_single_branch(model, 1.0)
        from proctherm.algebra import expm_herm
        h_eff = np.kron(0.5 * h1 + 0.5 * h2, np.eye(2))
        u = expm_herm(h_eff, -1j)
        np.testing.assert_allclose(out, u @ rho @ u.conj().T, atol=1e-12)

    def test_matches_fine_slicing_oracle(self):
        rng = np.random.default_rng(66)
        h0, h1 = random_hermitian(rng, 2), random_hermitian(rng, 2)
        h_b = random_hermitian(rng, 2)
        v = 0.4 * random_hermitian(rng, 4)
        segs = [Segment(0.0, 0.6, h0), Segment(0.6, 1.4, h1)]
        rho = random_density(rng, 4)
        model = simple_model([], segments=segs, h_bath=h_b, v=v, t_end=1.4, sb_init=rho)
        got = evolve_single_branch(model, 1.4)
        # oracle: 1000 fine slices in strict time order across the change
        from proctherm.algebra import expm_herm
        mat = rho.copy()
        edges = np.concatenate([np.linspace(0.0, 0.6, 429), np.linspace(0.6, 1.4, 573)])
        for a, b in zip(edges, edges[1:]):
            if b <= a:
                continue
            h_t = h0 if (a + b) / 2 < 0.6 else h1
            h_full = np.kron(h_t, np.eye(2)) + np.kron(np.eye(2), h_b) + v
            u = expm_herm(h_full, -1j * (b - a))
            mat = u @ mat @ u.conj().T
        np.testing.assert_allclose(got, mat, atol=1e-8)

    def test_norm_preserved(self):
        rng = np.random.default_rng(67)
        h_s, h_b = random_hermitian(rng, 2), random_hermitian(rng, 2)
        v = 0.5 * random_hermitian(rng, 4)
        rho = random_density(rng, 4)
        model = simple_model([], h_sys=h_s, h_bath=h_b, v=v, sb_init=rho)
        assert abs(np.trace(evolve_single_branch(model, 2.0)) - 1.0) < 1e-11

    def test_uncovered_interval_rejected(self):
        model = simple_model([], t_end=1.0, sb_init=np.eye(4) / 4)
        with pytest.raises(ValueError):
            Simulator(model).run(report_times=[5.0])


def instant_model():
    """Two projective steps under a drive and a system-bath coupling, so
    any propagation, however short, moves every state."""
    rng = np.random.default_rng(29)
    return simple_model([{"time": 0.5, "instrument": projective_z()},
                         {"time": 1.2, "instrument": projective_z()}],
                        h_sys=SX + P1, h_bath=np.diag([0.0, 0.7]),
                        v=0.3 * random_hermitian(rng, 4))


def states_reported_at(model, t):
    """Branch states of the autonomous route and conditional system states
    of the direct route, reported at t."""
    auto = Simulator(model).run([t]).snapshots[0].ledger.branches
    records, states = evaluate_process_tensor(model.schedule, model.sb_init, [t])[t]
    return ({labels: br.state for labels, br in auto.items()},
            dict(zip(records, states)))


class TestSameInstant:
    """Times at most TIME_EPS apart are one instant, in both routes."""

    T_STEP = 1.2

    @pytest.mark.parametrize("offset", [-TIME_EPS / 2, TIME_EPS / 2])
    def test_report_within_one_instant_of_a_step_is_at_it(self, offset):
        model = instant_model()
        want = states_reported_at(model, self.T_STEP)
        got = states_reported_at(model, self.T_STEP + offset)
        for route_got, route_want in zip(got, want):
            assert route_got.keys() == route_want.keys()
            for key, mat in route_want.items():
                assert np.array_equal(route_got[key], mat)

    def test_report_two_instants_from_a_step_is_distinct(self):
        model = instant_model()
        at_step = states_reported_at(model, self.T_STEP)
        early = states_reported_at(model, self.T_STEP - 2 * TIME_EPS)
        late = states_reported_at(model, self.T_STEP + 2 * TIME_EPS)
        for route_at, route_early, route_late in zip(at_step, early, late):
            # the step has not happened yet: the records are one label short
            assert {len(k) for k in route_early} == {1}
            assert route_late.keys() == route_at.keys()
            assert not any(np.array_equal(route_late[k], m) for k, m in route_at.items())

    def test_protocol_reads_times_one_instant_apart_as_one(self):
        proto = Protocol([Segment(0.0, 1.0, SX), Segment(1.0, 2.0, P1)])
        assert list(proto.iter_segments(0.3, 0.3 + TIME_EPS / 2)) == []
        assert len(list(proto.iter_segments(0.3, 0.3 + 2 * TIME_EPS))) == 1
        assert proto.segment_at(1.0 - TIME_EPS / 2) is proto.base[1]
        assert proto.segment_at(1.0 - 2 * TIME_EPS) is proto.base[0]

    @pytest.mark.parametrize("seed", range(3))
    def test_segments_are_those_of_a_scan_of_the_whole_timeline(self, seed):
        # interval ends at, and within two instants of, every switch of a base
        # timeline and of a variant; each segment starts up to one instant
        # off its predecessor's end
        rng = np.random.default_rng(seed)

        def timeline(n):
            ends = np.cumsum(rng.uniform(0.05, 0.5, n))
            ends = 3.0 * ends / ends[-1]
            starts = [0.0, *(ends[:-1] + rng.uniform(-0.9, 0.9, n - 1) * TIME_EPS)]
            return [Segment(float(a), float(b), SX * i)
                    for i, (a, b) in enumerate(zip(starts, ends))]

        proto = Protocol(timeline(12), {("1",): timeline(9)})
        for prefix in [(), ("1",)]:
            segments = proto.timeline(prefix)
            switches = [s.t0 for s in segments] + [s.t1 for s in segments]
            times = sorted({t for t in [*(c + k * TIME_EPS for c in switches
                                          for k in (-2, -1, -0.5, 0, 0.5, 1, 2)),
                                        *rng.uniform(0.0, 3.0, 8)]
                            if not before(t, proto.t_start) and not before(proto.t_end, t)})
            for i, t_from in enumerate(times):
                for t_to in times[i:]:
                    scan = [(seg, max(seg.t0, t_from), min(seg.t1, t_to)) for seg in segments]
                    want = [(seg, a, b) for seg, a, b in scan if before(a, b)]
                    assert list(proto.iter_segments(t_from, t_to, prefix)) == want

    def test_steps_segments_and_windows_span_more_than_one_instant(self):
        with pytest.raises(ValueError, match="empty segment"):
            Segment(0.0, TIME_EPS / 2, SX)
        with pytest.raises(ValueError, match="strictly increase"):
            simple_model([{"time": 0.5, "instrument": projective_z()},
                          {"time": 0.5 + TIME_EPS / 2, "instrument": projective_z()}])
        with pytest.raises(ValueError, match="one instant"):
            simple_model([{"time": 0.5, "instrument": projective_z(),
                           "window": TIME_EPS / 2}])


class TestInstantaneousControl:
    def test_swap_transfers_system_state(self):
        model = simple_model([{"time": 0.5, "collision": {
            "ancilla_state": np.diag([1.0, 0.0]).astype(complex),
            "unitary": np.eye(4)[[0, 2, 1, 3]].astype(complex),
            "projectors": None}}], b_dim=1)
        rng = np.random.default_rng(69)
        rho_s = random_density(rng, 2)
        sb = np.kron(rho_s, np.eye(1))
        model2 = simple_model([{"time": 0.5, "collision": {
            "ancilla_state": np.diag([1.0, 0.0]).astype(complex),
            "unitary": np.eye(4)[[0, 2, 1, 3]].astype(complex),
            "projectors": None}}], b_dim=1, sb_init=sb)
        result = Simulator(model2).run()
        branch = next(iter(result.final.branches.values()))
        dims = [model2.dims[l] for l in branch.support]
        anc = ptrace_factors(branch.state, dims, [branch.support.index(ancilla_label(0))])
        np.testing.assert_allclose(anc, rho_s, atol=1e-12)

    def test_matches_width_extrapolation(self):
        # an instantaneous unitary equals the zero-width limit of a strong
        # short coupling pulse, extrapolated entrywise over three widths
        rng = np.random.default_rng(70)
        from proctherm.algebra import expm_herm
        g = random_hermitian(rng, 4)
        u_ctrl = expm_herm(g, -1j)
        h_full = random_hermitian(rng, 4, scale=0.8)
        rho = random_density(rng, 4)
        exact = u_ctrl @ rho @ u_ctrl.conj().T
        states = []
        for width in (0.02, 0.01, 0.005):
            u = expm_herm(h_full + g / width, -1j * width)
            states.append(u @ rho @ u.conj().T)
        extrap = richardson_halving(states)
        assert max_norm(extrap - exact) < 1e-6


class TestValidationFeatures:
    def test_step_hardware_dephases_into_branch_split(self):
        rng = np.random.default_rng(71)
        kraus = random_kraus_channel(rng, 2, 3)
        inst = Instrument([("1", CPMap(kraus[:2])), ("2", CPMap(kraus[2:]))])
        model = simple_model([{"time": 0.5, "instrument": inst}],
                             h_sys=random_hermitian(rng, 2),
                             h_bath=random_hermitian(rng, 2),
                             v=0.3 * random_hermitian(rng, 4))
        assert dephasing_error(model.hardware(0, ())) < 1e-12

    def test_nan_declared_unitary_rejected(self):
        # a NaN residual compares false with any tolerance, so the guard
        # must reject what it cannot show to be small
        u = np.eye(4, dtype=complex)
        u[3, 3] = np.nan
        step = {"time": 0.5, "collision": {"ancilla_state": np.diag([1.0, 0.0]),
                                           "unitary": u, "projectors": [P0, P1]}}
        with pytest.raises(ValueError, match="declared control is not unitary"):
            simple_model([step])

    @pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf])
    def test_non_finite_report_time_rejected(self, t):
        model = simple_model([{"time": 0.5, "instrument": projective_z()}])
        with pytest.raises(ValueError, match="outside the protocol range"):
            Simulator(model).run(report_times=[t])

    # every comparison with NaN is false, so a range guard alone lets it through
    @pytest.mark.parametrize("call", [
        lambda proto: proto.segment_at(math.nan),
        lambda proto: list(proto.iter_segments(math.nan, 1.5)),
        lambda proto: list(proto.iter_segments(0.5, math.nan)),
    ], ids=["segment_at", "iter_segments_from", "iter_segments_to"])
    def test_nan_time_rejected_by_protocol(self, call):
        proto = Protocol([Segment(0.0, 1.0, SX), Segment(1.0, 2.0, P1)])
        with pytest.raises(ValueError, match="nan"):
            call(proto)

    def test_nan_time_rejected_by_advance(self):
        scenario = parse_scenario(Path(__file__).resolve().parent.parent
                                  / "scenarios" / "measurement_work.yaml")
        sim = Simulator(build_model(scenario))
        ledger = sim.run().initial.ledger
        with pytest.raises(ValueError, match="nan"):
            sim.advance(ledger, math.nan)

    def test_report_inside_window_rejected(self):
        model = simple_model([{"time": 0.5, "instrument": projective_z(),
                               "window": 0.2}])
        with pytest.raises(ValueError):
            Simulator(model).run(report_times=[0.6])

    @pytest.mark.parametrize("arg", ["h_bath", "v_coupling", "h_ancilla"])
    def test_non_hermitian_hamiltonian_rejected(self, arg):
        # eigh would read only one triangle while the energy bookkeeping
        # reads the full matrix, so such input is refused up front
        bad = {"h_bath": np.array([[0, 1], [0, 0.5]]),
               "v_coupling": np.triu(np.ones((4, 4))),
               "h_ancilla": np.array([[0, 1], [0, 0.5]])}[arg]
        step = {"time": 0.5, "instrument": projective_z()}
        if arg == "h_ancilla":
            step["h_ancilla"] = bad
        with pytest.raises(ValueError, match="not Hermitian"):
            simple_model([step], h_bath=bad if arg == "h_bath" else None,
                         v=bad if arg == "v_coupling" else None)

    def test_empty_prefix_variant_rejected(self):
        # the empty record is the base timeline's; a variant under it would
        # be silently ignored by every lookup
        base = [Segment(0.0, 2.0, np.zeros((2, 2)))]
        with pytest.raises(ValueError, match="nonempty prefix"):
            Protocol(base, {(): [Segment(0.0, 2.0, np.diag([0.0, 1.0]))]})

    @pytest.mark.parametrize("t_switch", [0.3, 0.5])
    def test_variant_deviates_only_once_its_prefix_resolves(self, t_switch):
        variant = [Segment(0.0, t_switch, np.zeros((2, 2))), Segment(t_switch, 1.0, SX)]
        protocol = Protocol([Segment(0.0, 1.0, np.zeros((2, 2)))], {("1",): variant})

        def assemble():
            return AutonomousModel.assemble(s_dim=2, beta=1.0, protocol=protocol,
                                            steps=[{"time": 0.5, "instrument": projective_z()}])
        if t_switch < 0.5:
            with pytest.raises(ValueError, match=r"protocol variant \('1',\) changes the drive "
                                                 r"at t=0.3, before its prefix is resolved at t=0.5"):
                assemble()
        else:
            assert assemble().protocol.variants[("1",)][1].t0 == 0.5

    def test_branch_limit_enforced(self):
        # a rotating drive repopulates both outcomes between measurements
        model = simple_model([{"time": 0.3, "instrument": projective_z()},
                              {"time": 0.6, "instrument": projective_z()}],
                             h_sys=2.0 * SX,
                             sb_init=np.kron(np.eye(2) / 2, np.eye(2) / 2))
        with pytest.raises(RuntimeError):
            Simulator(model, max_branches=2).run()

    def test_window_step_equivalence_in_weak_coupling(self):
        # with no system-bath coupling, a finite window reproduces the
        # instantaneous instrument exactly (the generator commutes with
        # nothing it needs to)
        rng = np.random.default_rng(72)
        inst = projective_z()
        model_delta = simple_model([{"time": 0.5, "instrument": inst}],
                                   b_dim=1, h_sys=np.zeros((2, 2)),
                                   sb_init=np.kron(random_density(rng, 2), np.eye(1)))
        model_window = simple_model([{"time": 0.5, "instrument": inst, "window": 0.1}],
                                    b_dim=1, h_sys=np.zeros((2, 2)),
                                    sb_init=model_delta.sb_init)
        res_d = Simulator(model_delta).run(report_times=[1.5])
        res_w = Simulator(model_window).run(report_times=[1.5])
        for labels, bd in res_d.final.branches.items():
            bw = res_w.final.branches[labels]
            assert abs(bd.weight - bw.weight) < 1e-10
            got_d = conditional_system(model_delta, res_d.final, bd)
            got_w = conditional_system(model_window, res_w.final, bw)
            assert max_norm(got_d - got_w) < 1e-9


class TestWindowWork:
    def test_window_ending_on_drive_switch_matches_dense_oracle(self):
        # two finite-width controls, each ending exactly on a drive switch,
        # with a further switch inside the first window and one between the
        # steps; the dense oracle books every switch, including the one at
        # a window's end, before readout
        rng = np.random.default_rng(74)
        cuts = [0.0, 0.3, 0.55, 0.6, 1.0, 1.4, 2.0]
        hs = [random_hermitian(rng, 2) for _ in cuts[1:]]
        h_b = random_hermitian(rng, 2)
        v = 0.4 * random_hermitian(rng, 4)
        windows = [(0.5, 0.1), (1.2, 0.2)]
        gens = [0.4 * random_hermitian(rng, 4) for _ in windows]
        for g in gens:
            assert np.max(np.abs(np.linalg.eigvalsh(g))) < np.pi
        spec = dict(
            s_dim=2, b_dim=2, beta=1.0,
            protocol=Protocol([Segment(a, b, h) for a, b, h in zip(cuts, cuts[1:], hs)]),
            h_bath=h_b, v_coupling=v, sb_init=random_density(rng, 4),
            steps=[{"time": t, "window": w, "h_ancilla": np.diag([0.0, 0.7]),
                    "collision": {"ancilla_state": P0,
                                  "unitary": taylor_expm(-1j * g),
                                  "projectors": [P0, P1]}}
                   for (t, w), g in zip(windows, gens)])
        runs = both_routes(spec, [1.8])
        check_branch_states(runs, 1.8)
        check_branch_rows(runs, 1.8)
        check_ensemble(runs, 1.8)
        branches = runs.result.snapshots[-1].ledger.branches
        assert len(branches) == 4
        # the per-branch values really differ, so the test pins each branch
        assert max(abs(br.w_ctrl - branches[("1", "1")].w_ctrl)
                   for br in branches.values()) > 1e-3

    def test_window_ending_where_the_next_window_opens(self):
        # with no drive and no bath a window applies exactly its control
        # unitary, so back-to-back windows give the instantaneous branches
        rng = np.random.default_rng(75)
        gens = [0.4 * random_hermitian(rng, 4) for _ in range(2)]
        for g in gens:
            assert np.max(np.abs(np.linalg.eigvalsh(g))) < np.pi

        def final_branches(widths):
            model = AutonomousModel.assemble(
                s_dim=2, b_dim=1, beta=1.0,
                protocol=Protocol([Segment(0.0, 1.0, np.zeros((2, 2)))]),
                steps=[{"time": t, "window": w,
                        "collision": {"ancilla_state": P0,
                                      "unitary": taylor_expm(-1j * g),
                                      "projectors": [P0, P1]}}
                       for t, w, g in zip((0.2, 0.4), widths, gens)])
            return Simulator(model).run(report_times=[1.0]).final.branches

        windowed = final_branches((0.2, 0.2))
        instant = final_branches((None, None))
        assert windowed.keys() == instant.keys() and len(instant) == 4
        for labels, br in instant.items():
            assert max_norm(windowed[labels].state - br.state) < 1e-9


def _collision(**extra):
    """An identity collision step at t=0.5 on a qubit ancilla, updated by
    ``extra``."""
    return {"time": 0.5, **extra,
            "collision": {"ancilla_state": P0, "unitary": np.eye(4), "projectors": [P0, P1]}}


def _labelled_collision(labels, projectors=(P0, P1)):
    """``_collision()`` with ``labels`` for its ``projectors``."""
    step = _collision()
    step["collision"].update(labels=labels, projectors=list(projectors))
    return step


def _on_ledger_at(t, act):
    """``act(simulator, ledger)`` for a two-step model (steps at 0.5 and
    1.0) and its ledger at ``t``."""
    sim = Simulator(simple_model([{"time": 0.5, "instrument": projective_z()},
                                  {"time": 1.0, "instrument": projective_z()}]))
    return act(sim, sim.run(report_times=[t]).snapshots[0].ledger)


# each case reaches exactly one guard; with that guard gone it raises
# nothing, or something else
GUARDS = {
    "system-dim-zero": (
        lambda: AutonomousModel.assemble(s_dim=0, beta=1.0,
                                         protocol=Protocol([Segment(0.0, 1.0, np.zeros((2, 2)))])),
        r"factor dimensions must be at least 1, got \{'S': 0, 'B': 1\}"),
    "bath-dim-zero": (lambda: simple_model([], b_dim=0),
                      r"factor dimensions must be at least 1, got \{'S': 2, 'B': 0\}"),
    "collision-ancilla-dim-zero": (
        lambda: simple_model([{"time": 0.5, "collision": {
            "ancilla_state": np.zeros((0, 0)), "unitary": np.zeros((0, 0)), "projectors": None}}]),
        "step 0: the ancilla has dimension 0 < 1"),
    "gibbs-start-nonpositive-beta": (
        lambda: simple_model([], beta=0.0), "inverse temperature must be positive"),
    "window-with-feedback": (
        lambda: simple_model([{"time": 0.5, "instrument": projective_z()},
                              {"time": 1.0, "instrument": projective_z(), "window": 0.1}],
                             feedback={1: {("1",): projective_z()}}),
        "finite-width control cannot be combined with instrument feedback"),
    "collision-unitary-shape": (
        lambda: simple_model([{"time": 0.5, "collision": {
            "ancilla_state": P0, "unitary": np.eye(2), "projectors": [P0, P1]}}]),
        r"control unitary must act on system \(x\) ancilla"),
    "collision-with-feedback": (
        lambda: simple_model([{"time": 0.5, "instrument": projective_z()},
                              _collision(time=1.0)],
                             feedback={1: {("1",): projective_z()}}),
        "collision steps take no instrument feedback"),
    "step-kind-missing": (
        lambda: simple_model([{"time": 0.5}]), "needs 'instrument' or 'collision'"),
    "ancilla-hamiltonian-shape": (
        lambda: simple_model([{"time": 0.5, "instrument": projective_z(),
                               "h_ancilla": np.eye(3)}]),
        r"ancilla Hamiltonian must be 2x2 .* got \(3, 3\)"),
    "window-past-protocol-end": (
        lambda: simple_model([_collision(window=0.2, time=1.9)]),
        "control window must end before the protocol does"),
    "window-overlaps-next-step": (
        lambda: simple_model([_collision(window=0.3), _collision(time=0.6)]),
        "control window overlaps the next step"),
    "step-outside-protocol": (
        lambda: simple_model([{"time": 2.5, "instrument": projective_z()}]),
        "an intervention is scheduled outside the protocol range"),
    "variant-longer-than-schedule": (
        lambda: AutonomousModel.assemble(
            s_dim=2, beta=1.0, steps=[{"time": 0.5, "instrument": projective_z()}],
            protocol=Protocol([Segment(0.0, 1.0, np.zeros((2, 2)))],
                              {("1", "1"): [Segment(0.0, 1.0, np.zeros((2, 2)))]})),
        r"protocol variant \('1', '1'\) is longer than the intervention schedule"),
    "collision-too-few-labels": (
        lambda: simple_model([_labelled_collision(["+"])]),
        r"step 0: collision needs one label per projector, got 1 label\(s\) for 2"),
    "collision-too-many-labels": (
        lambda: simple_model([_labelled_collision(["+", "-", "x"])]),
        r"step 0: collision needs one label per projector, got 3 label\(s\) for 2"),
    # off the identity by 2e-11: within the instrument's trace-preservation
    # tolerance, beyond the projector floor the readout unitary needs
    "collision-projectors-off-identity": (
        lambda: simple_model([_labelled_collision(["+", "-"], (P0 + 2e-11 * np.eye(2), P1))]),
        "step 0: projectors do not resolve the ancilla identity"),
    "collision-projectors-mixed-sizes": (
        lambda: simple_model([_labelled_collision(["+", "-"], (P0, np.eye(3)))]),
        r"step 0: projector 1 must be 2x2 \(the ancilla's dimension\), got shape \(3, 3\)"),
    "collision-projectors-wrong-size": (
        lambda: simple_model([_labelled_collision(["+", "-"], (np.diag([1.0, 0, 0]),
                                                              np.diag([0, 1.0, 1.0])))]),
        r"step 0: projector 0 must be 2x2 \(the ancilla's dimension\), got shape \(3, 3\)"),
    "feedback-prefix-misspelled": (
        lambda: simple_model([{"time": 0.5, "instrument": projective_z()},
                              {"time": 1.0, "instrument": projective_z()}],
                             feedback={1: {("3",): projective_z()}}),
        r"prefix \['3'\]: step 0 records one of \['1', '2'\], not '3'"),
    "variant-prefix-misspelled": (
        lambda: AutonomousModel.assemble(
            s_dim=2, beta=1.0, steps=[{"time": 0.5, "instrument": projective_z()}],
            protocol=Protocol([Segment(0.0, 1.0, np.zeros((2, 2)))],
                              {("3",): [Segment(0.0, 1.0, np.zeros((2, 2)))]})),
        r"prefix \['3'\]: step 0 records one of \['1', '2'\], not '3'"),
    "advance-backwards": (
        lambda: _on_ledger_at(1.2, lambda sim, ledger: sim.advance(ledger, 0.7)),
        "cannot advance backwards from 1.2 to 0.7"),
    "run-step-out-of-order": (
        lambda: _on_ledger_at(0.0, lambda sim, ledger: sim.run_step(ledger, 1)),
        "ledger has completed 0 steps, cannot run step 1"),
    "run-step-off-time": (
        lambda: _on_ledger_at(0.3, lambda sim, ledger: sim.run_step(ledger, 0)),
        r"step 0 is scheduled at t=0.5, ledger is at t=0.3"),
    "step-time-nan": (
        lambda: simple_model([{"time": float("nan"), "instrument": projective_z()}]),
        r"intervention times must be finite: \(nan,\)"),
    "sb-init-system-only": (
        lambda: simple_model([], sb_init=np.eye(2) / 2),
        r"sb_init must be 4x4 \(system \(x\) bath\), got shape \(2, 2\)"),
    "sb-init-not-hermitian": (
        lambda: simple_model([], sb_init=np.triu(np.full((4, 4), 0.25))),
        "density operator is not Hermitian"),
    "sb-init-trace": (
        lambda: simple_model([], sb_init=np.diag([0.5, 0.2, 0.0, 0.0])),
        "trace 0.7 does not match declared weight 1.0"),
    "sb-init-negative-eigenvalue": (
        lambda: simple_model([], sb_init=np.diag([1.5, -0.5, 0.0, 0.0])),
        "negative eigenvalue -5.000e-01 beyond tolerance"),
    # beta is checked for a declared start too, not only for a Gibbs one
    **{f"matrix-start-beta-{name}": (
        lambda beta=beta: simple_model([], beta=beta, sb_init=np.eye(4) / 4),
        "inverse temperature must be positive")
       for name, beta in [("zero", 0.0), ("negative", -1.0), ("nan", math.nan),
                          ("inf", math.inf)]},
    # the one rule for the prune threshold, that of Tolerances
    **{f"simulator-prune-{name}": (
        lambda prune=prune: Simulator(simple_model([]), prune=prune),
        r"the prune threshold must be in \[0, 1\)")
       for name, prune in [("nan", math.nan), ("one", 1.0), ("two", 2.0), ("negative", -1.0)]},
    "system-dim-fractional": (
        lambda: AutonomousModel.assemble(s_dim=2.5, beta=1.0,
                                         protocol=Protocol([Segment(0.0, 1.0, np.zeros((2, 2)))])),
        r"factor dimensions must be integers, got S=2.5, B=1"),
    "bath-dim-fractional": (lambda: simple_model([], b_dim=1.9),
                            r"factor dimensions must be integers, got S=2, B=1.9"),
}


# the schedule's size checks (their guards are in test_channels.py),
# reached through assemble, and the drive's squareness, which its Segment
# checks: each input is refused, by its name and shape, before any run
SIZES = {
    "kraus": (lambda: simple_model([{"time": 0.5, "instrument": Instrument(
        [("1", CPMap([np.eye(4)]))])}]),
        r"step 0 outcome '1': Kraus operator must be 2x2, got shape \(4, 4\)"),
    "h-bath": (lambda: simple_model([], h_bath=np.eye(3)),
               r"h_bath must be 2x2, got shape \(3, 3\)"),
    "v-coupling": (lambda: simple_model([], v=np.eye(2)),
                   r"v_coupling must be 4x4, got shape \(2, 2\)"),
    "drive": (lambda: simple_model([], h_sys=np.eye(3)),
              r"drive segment 0 for prefix \[\] must be 2x2, got shape \(3, 3\)"),
    "h-bath-not-square": (lambda: simple_model([], h_bath=np.ones((2, 3))),
                          r"h_bath must be 2x2, got shape \(2, 3\)"),
    "v-coupling-not-square": (lambda: simple_model([], v=np.ones((4, 3))),
                              r"v_coupling must be 4x4, got shape \(4, 3\)"),
    "drive-not-square": (lambda: Segment(0.0, 1.0, np.ones((2, 3))),
                         r"segment Hamiltonian must be square, got shape \(2, 3\)"),
}


class TestGuards:
    @pytest.mark.parametrize("case", GUARDS)
    def test_guard_rejects(self, case):
        call, message = GUARDS[case]
        with pytest.raises(ValueError, match=message):
            call()

    @pytest.mark.parametrize("case", SIZES)
    def test_assemble_checks_each_size(self, case):
        call, message = SIZES[case]
        with pytest.raises(ValueError, match=message):
            call()


class TestDeclaredStart:
    def test_replace_rebuilds_a_gibbs_start_at_its_beta(self):
        def model(beta):
            rng = np.random.default_rng(12)
            return simple_model([{"time": 0.5, "instrument": projective_z()}], beta=beta,
                                h_sys=random_hermitian(rng, 2), h_bath=np.diag([0.0, 0.7]),
                                v=0.3 * random_hermitian(rng, 4))
        cold = model(1.0)
        hot = dataclasses.replace(cold, beta=2.0)
        assert hot.gibbs_initial and hot.declared_init is None
        np.testing.assert_array_equal(hot.sb_init, model(2.0).sb_init)
        assert max_norm(hot.sb_init - cold.sb_init) > 1e-3

    def test_replace_keeps_a_declared_start(self):
        model = simple_model([], sb_init=np.eye(4) / 4)
        copy = dataclasses.replace(model, beta=2.0)
        assert not copy.gibbs_initial
        assert copy.sb_init is copy.declared_init is model.sb_init

    def test_replace_checks_a_declared_start(self):
        # the model checks its start, so a copy cannot carry one assemble refuses
        model = simple_model([], sb_init=np.eye(4) / 4)
        with pytest.raises(ValueError, match="negative eigenvalue -1.000e\\+00"):
            dataclasses.replace(model, declared_init=np.diag([2.0, -1.0, 0, 0]))
        with pytest.raises(ValueError, match=r"sb_init must be 4x4 \(system \(x\) bath\), "
                                             r"got shape \(2, 2\)"):
            dataclasses.replace(model, declared_init=np.eye(2) / 2)

    def test_the_start_is_read_only_on_every_path(self):
        # a Gibbs start, one declared to assemble and one given to replace;
        # the caller's array is copied, not frozen in its hands
        declared = np.eye(4, dtype=complex) / 4
        gibbs = simple_model([])
        models = [gibbs, simple_model([], sb_init=declared),
                  dataclasses.replace(gibbs, declared_init=declared)]
        assert [m.gibbs_initial for m in models] == [True, False, False]
        assert not any(m.sb_init.flags.writeable for m in models)
        assert declared.flags.writeable and all(m.sb_init is not declared for m in models)
        declared[0, 0] = 1.0
        assert [m.sb_init[0, 0] for m in models[1:]] == [0.25, 0.25]

    def test_numpy_integer_dimensions_are_accepted(self):
        model = AutonomousModel.assemble(s_dim=np.int64(2), b_dim=np.int32(3), beta=1.0,
                                         protocol=Protocol([Segment(0.0, 1.0, np.zeros((2, 2)))]))
        assert model.schedule.sb_dims == (2, 3)
        assert all(type(d) is int for d in model.dims.values())


class TestDeclaredReadout:
    def test_declared_rank2_projector_keeps_its_ancilla(self):
        # rotated readout on a qutrit ancilla: a rank-2 and a rank-1
        # projector, neither a 0/1 diagonal; the rank-1 record factors its
        # ancilla out, the rank-2 record keeps it in its state
        rng = np.random.default_rng(81)
        rot = random_unitary(rng, 3)
        projectors = [rot @ np.diag([1.0, 1.0, 0.0]) @ rot.conj().T,
                      rot @ np.diag([0.0, 0.0, 1.0]) @ rot.conj().T]
        model = simple_model(
            [{"time": 0.5, "h_ancilla": np.diag([0.0, 0.4, 1.1]),
              "collision": {"ancilla_state": np.diag([1.0, 0.0, 0.0]),
                            "unitary": random_unitary(rng, 6),
                            "projectors": projectors, "labels": ("two", "one")}}],
            h_sys=random_hermitian(rng, 2), h_bath=random_hermitian(rng, 2),
            v=0.3 * random_hermitian(rng, 4))
        result = Simulator(model).run(report_times=[1.5])
        anc = ancilla_label(0)
        supports = {labels: g.support for g in result.final.groups for labels in g.records}
        assert sorted(supports) == [("one",), ("two",)]
        assert anc in supports[("two",)] and anc not in supports[("one",)]
        assert all(br.weight > 1e-3 for br in result.final.branches.values())
        rows = equivalence_rows(model, result)
        assert len(rows) == 2
        assert max(max(r["state_dev"], r["prob_dev"]) for r in rows) < 1e-12


class TestSpectrumScope:
    def test_two_models_of_one_scenario_share_no_spectrum(self):
        # each model's schedule keeps its own spectra: the same matrices,
        # each diagonalized once per model
        scenario = parse_scenario(Path(__file__).resolve().parent.parent
                                  / "scenarios" / "driven_feedback.yaml")
        models = [build_model(scenario) for _ in range(2)]
        for model in models:
            equivalence_rows(model, Simulator(model).run(report_times=scenario.report_times))
        first, second = (m.schedule._spectra for m in models)
        assert first is not second and len(first) >= 3
        assert first.keys() == second.keys()
        assert all(a is not b for key in first for a, b in zip(first[key], second[key]))
