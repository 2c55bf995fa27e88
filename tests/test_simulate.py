"""Tests for the autonomous branch simulator.

The load-bearing check is dynamical equivalence: every conditional system
state produced by the unitary inclusive model must match the direct
intervention-sequence evaluation, record by record.
"""

import warnings

import numpy as np
import pytest

from proctherm.algebra import max_norm, ptrace_factors
from proctherm.channels import CPMap, Instrument, evaluate_process_tensor
from proctherm.dilation import dephasing_error
from proctherm.protocol import Protocol, Segment
from proctherm import simulate
from proctherm.simulate import AutonomousModel, Simulator, ancilla_label
from proctherm.thermo import work_measurement_alternative
from proctherm.tolerances import TIME_EPS

from oracles import (
    random_density,
    random_hermitian,
    random_kraus_channel,
    random_unitary,
    richardson_halving,
    taylor_expm,
)

P0 = np.array([[1, 0], [0, 0]], dtype=complex)
P1 = np.array([[0, 0], [0, 1]], dtype=complex)
SX = np.array([[0, 1], [1, 0]], dtype=complex)


def projective_z():
    return Instrument([("1", CPMap(("S",), [P0])), ("2", CPMap(("S",), [P1]))])


def identity_instrument():
    return Instrument([("1", CPMap(("S",), [np.eye(2)]))])


def simple_model(steps, *, h_sys=None, h_bath=None, v=None, beta=1.0,
                 b_dim=2, t_end=2.0, feedback=None, segments=None,
                 sb_init=None):
    proto = Protocol(segments or [Segment(0.0, t_end, np.zeros((2, 2)) if h_sys is None else h_sys)])
    return AutonomousModel.assemble(
        s_dim=2, b_dim=b_dim, beta=beta, protocol=proto, h_bath=h_bath,
        v_coupling=v, steps=steps, feedback=feedback, sb_init=sb_init)


def conditional_system(model, ledger, branch):
    """Unnormalized conditional system state of one branch."""
    dims = model.registry.dims(branch.support)
    return ptrace_factors(branch.state, dims, [0])


def assert_equivalent(model, result, atol_state=1e-9, atol_prob=1e-10):
    """Every snapshot branch must match the direct evaluation."""
    snaps = list(result.snapshots) + [Snapshotish(result.final)]
    tree = evaluate_process_tensor(model.schedule, model.sb_init,
                                   [snap.ledger.time for snap in snaps])
    for snap in snaps:
        for branch in snap.ledger.branches.values():
            direct = tree[snap.ledger.time][branch.labels]
            got = conditional_system(model, snap.ledger, branch)
            assert max_norm(got - direct.mat) < atol_state
            assert abs(branch.weight - direct.weight) < atol_prob


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
        inst = Instrument([("1", CPMap(("S",), kraus[:1])), ("2", CPMap(("S",), kraus[1:]))])
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
        unsharp = Instrument([("1", CPMap(("S",), kraus[:1])), ("2", CPMap(("S",), kraus[1:]))])
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
        x_inst = Instrument([("1", CPMap(("S",), [plus])), ("2", CPMap(("S",), [minus]))])
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
                outcomes = [("1", CPMap(("S",), kraus[:cut]))]
                if cut < m:
                    outcomes.append(("2", CPMap(("S",), kraus[cut:])))
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
    x_inst = Instrument([("1", CPMap(("S",), [plus])), ("2", CPMap(("S",), [minus]))])
    unsharp = Instrument([("1", CPMap(("S",), [np.sqrt(0.8) * P0 + np.sqrt(0.2) * P1])),
                          ("2", CPMap(("S",), [np.sqrt(0.2) * P0 + np.sqrt(0.8) * P1]))])
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
    direct = evaluate_process_tensor(model.schedule, model.sb_init, [t])[t]
    return ({labels: br.state for labels, br in auto.items()},
            {record: rho.mat for record, rho in direct.items()})


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
        dims = model2.registry.dims(branch.support)
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
        inst = Instrument([("1", CPMap(("S",), kraus[:2])), ("2", CPMap(("S",), kraus[2:]))])
        model = simple_model([{"time": 0.5, "instrument": inst}],
                             h_sys=random_hermitian(rng, 2),
                             h_bath=random_hermitian(rng, 2),
                             v=0.3 * random_hermitian(rng, 4))
        assert dephasing_error(model.hardware(0, ())) < 1e-12

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
                                    sb_init=model_delta.sb_init.mat)
        res_d = Simulator(model_delta).run(report_times=[1.5])
        res_w = Simulator(model_window).run(report_times=[1.5])
        for labels, bd in res_d.final.branches.items():
            bw = res_w.final.branches[labels]
            assert abs(bd.weight - bw.weight) < 1e-10
            got_d = conditional_system(model_delta, res_d.final, bd)
            got_w = conditional_system(model_window, res_w.final, bw)
            assert max_norm(got_d - got_w) < 1e-9


class TestWindowWork:
    @staticmethod
    def _embed(mat, positions, dims):
        """``mat`` on the factors at ``positions``, identity elsewhere."""
        n = len(dims)
        rest = [i for i in range(n) if i not in positions]
        big = np.kron(mat, np.eye(int(np.prod([dims[i] for i in rest]))))
        order = list(positions) + rest
        perm = [order.index(i) for i in range(n)]
        t = big.reshape([dims[i] for i in order] * 2)
        return t.transpose(perm + [p + n for p in perm]).reshape(big.shape)

    def test_window_ending_on_drive_switch_matches_dense_oracle(self):
        # two finite-width controls, each ending exactly on a drive switch,
        # with a further switch inside the first window and one between the
        # steps; the oracle evolves S (x) B (x) A0 (x) A1 densely and books
        # every switch, including the one at a window's end, before readout
        rng = np.random.default_rng(74)
        cuts = [0.0, 0.3, 0.55, 0.6, 1.0, 1.4, 2.0]
        hs = [random_hermitian(rng, 2) for _ in cuts[1:]]
        h_b = random_hermitian(rng, 2)
        v = 0.4 * random_hermitian(rng, 4)
        h_a = np.diag([0.0, 0.7]).astype(complex)
        windows = [(0.5, 0.1), (1.2, 0.2)]
        gens = [0.4 * random_hermitian(rng, 4) for _ in windows]
        for g in gens:
            assert np.max(np.abs(np.linalg.eigvalsh(g))) < np.pi
        sb0 = random_density(rng, 4)
        model = AutonomousModel.assemble(
            s_dim=2, b_dim=2, beta=1.0,
            protocol=Protocol([Segment(a, b, h) for a, b, h in zip(cuts, cuts[1:], hs)]),
            h_bath=h_b, v_coupling=v, sb_init=sb0,
            steps=[{"time": t, "window": w, "h_ancilla": h_a,
                    "collision": {"ancilla_state": P0,
                                  "unitary": taylor_expm(-1j * g),
                                  "projectors": [P0, P1]}}
                   for (t, w), g in zip(windows, gens)])
        t_report = 1.8
        ledger = Simulator(model).run(report_times=[t_report]).snapshots[-1].ledger

        embed = self._embed
        grid = sorted(set(cuts) | {t for t, _ in windows} | {t_report})
        grid = [t for t in grid if t <= t_report]
        dims = [2, 2]
        branches = {(): (sb0, 0.0, 0.0)}   # labels -> (state, w_sys, w_ctrl)
        h_prev, win_prev = hs[0], None
        for t, t_next in zip(grid, grid[1:]):
            for k, (t_k, width) in enumerate(windows):
                if abs(t - t_k) < 1e-12:
                    dims = dims + [2]
                    branches = {l: (np.kron(r, P0), ws, wc)
                                for l, (r, ws, wc) in branches.items()}
            h_now = hs[max(i for i, c in enumerate(cuts[:-1]) if c <= t + 1e-12)]
            win_now = None
            for k, (t_k, width) in enumerate(windows):
                if t_k - 1e-12 <= t < t_k + width - 1e-12:
                    win_now = embed(gens[k] / width, [0, 2 + k], dims)
            d_sys = embed(h_now - h_prev, [0], dims)
            zero = np.zeros_like(d_sys)
            d_win = (zero if win_now is None else win_now) \
                - (zero if win_prev is None else win_prev)
            booked = {}
            for l, (r, ws, wc) in branches.items():
                p = np.trace(r).real
                booked[l] = (r, ws + np.trace(d_sys @ r).real / p,
                             wc + np.trace(d_win @ r).real / p)
            branches = booked
            # readout of a control whose window closed at t
            for k, (t_k, width) in enumerate(windows):
                if abs(t - (t_k + width)) < 1e-12:
                    split = {}
                    for l, (r, ws, wc) in branches.items():
                        for label, proj in (("1", P0), ("2", P1)):
                            pr = embed(proj, [2 + k], dims)
                            split[l + (label,)] = (pr @ r @ pr, ws, wc)
                    branches = split
            h_full = embed(h_now, [0], dims) + embed(h_b, [1], dims) \
                + embed(v, [0, 1], dims) \
                + sum(embed(h_a, [j], dims) for j in range(2, len(dims)))
            if win_now is not None:
                h_full = h_full + win_now
            u = taylor_expm(-1j * (t_next - t) * h_full)
            branches = {l: (u @ r @ u.conj().T, ws, wc)
                        for l, (r, ws, wc) in branches.items()}
            h_prev, win_prev = h_now, win_now

        assert len(ledger.branches) == len(branches) == 4
        for labels, (r, ws, wc) in branches.items():
            br = ledger.branches[labels]
            assert br.weight == pytest.approx(np.trace(r).real, abs=1e-10)
            assert br.w_sys == pytest.approx(ws, abs=1e-9)
            assert br.w_ctrl == pytest.approx(wc, abs=1e-9)
        # the per-branch values really differ, so the test pins each branch
        assert max(abs(br.w_ctrl - ledger.branches[("1", "1")].w_ctrl)
                   for br in ledger.branches.values()) > 1e-3
