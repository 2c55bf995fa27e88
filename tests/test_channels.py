"""Tests for CP maps, instruments, and direct multi-time evaluation."""

import ast
import io
import itertools
import re
import tokenize
from pathlib import Path

import numpy as np
import pytest

from proctherm.algebra import gibbs_mat, ptrace_factors
from proctherm.channels import (
    CPMap,
    Instrument,
    InterventionSchedule,
    evaluate_process_tensor,
)
from proctherm.protocol import Protocol, Segment

from oracles import (apply_via_superoperator, choi, random_density, random_hermitian,
                     random_kraus_channel)

P0 = np.array([[1, 0], [0, 0]], dtype=complex)
P1 = np.array([[0, 0], [0, 1]], dtype=complex)
SB_DIMS = (2, 2)    # (d_S, d_B) of every schedule here


def projective_z():
    return Instrument([("1", CPMap([P0])), ("2", CPMap([P1]))])


def identity_instrument():
    return Instrument([("1", CPMap([np.eye(2)]))])


def flat_schedule(times, instruments, sb_dims=SB_DIMS, h_sys=None, h_bath=None, v=None,
                  t_span=(0.0, 3.0), feedback=None):
    h_sys = np.zeros((2, 2)) if h_sys is None else h_sys
    proto = Protocol([Segment(t_span[0], t_span[1], h_sys)])
    return InterventionSchedule(sb_dims, times, instruments, proto,
                                feedback=feedback, h_bath=h_bath, v_coupling=v)


def variant_schedule(variants, t_switch=None):
    """One projective step at t = 0.5 on d_S = 2, d_B = 1, the drive zero on
    [0, 2] and ``variants`` each holding it until ``t_switch``, then X."""
    zero = np.zeros((2, 2))
    timeline = [Segment(0.0, 2.0, zero)] if t_switch is None else [
        Segment(0.0, t_switch, zero), Segment(t_switch, 2.0, np.array([[0, 1], [1, 0]]))]
    return InterventionSchedule((2, 1), [0.5], [projective_z()], Protocol(
        [Segment(0.0, 2.0, zero)], {prefix: timeline for prefix in variants}))


def states_by_record(report):
    """One report time's ``(records, states)`` as {record: state matrix}."""
    records, states = report
    assert states.shape[0] == len(records)
    return dict(zip(records, states))


def weight(state):
    return np.trace(state).real


class TestCPMap:
    def test_trace_preserving_validated(self):
        assert CPMap([P0, P1]).tp_residual() < 1e-15
        assert CPMap([P0]).tp_residual() == pytest.approx(1.0)

    def test_identity_channel(self):
        rho = np.diag([0.3, 0.7]).astype(complex)
        out = CPMap([np.eye(2)]).apply_mat(rho, [2])
        np.testing.assert_allclose(out, rho)
        assert np.trace(out).real == pytest.approx(1.0, abs=1e-14)

    def test_born_rule_on_diagonal_state(self):
        out = CPMap([P0]).apply_mat(np.diag([0.3, 0.7]).astype(complex), [2])
        weight = np.trace(out).real
        assert weight == pytest.approx(0.3, abs=1e-12)
        np.testing.assert_allclose(out / weight, P0, atol=1e-12)

    def test_matches_superoperator_oracle(self):
        rng = np.random.default_rng(7)
        kraus = random_kraus_channel(rng, 2, 3)
        rho = random_density(rng, 2)
        # split into a 2-outcome instrument and compare each branch
        inst = Instrument([("1", CPMap(kraus[:1])), ("2", CPMap(kraus[1:]))])
        weights = []
        for label, cp in inst.outcomes:
            out = cp.apply_mat(rho, [2])
            np.testing.assert_allclose(out, apply_via_superoperator(list(cp.kraus), rho),
                                       atol=1e-12)
            weights.append(np.trace(out).real)
        assert sum(weights) == pytest.approx(1.0, abs=1e-10)

    def test_embedded_application(self):
        rng = np.random.default_rng(8)
        rho = random_density(rng, 4)
        out = CPMap([P0]).apply_mat(rho, [2, 2])
        np.testing.assert_allclose(out, np.kron(P0, np.eye(2)) @ rho @ np.kron(P0, np.eye(2)),
                                   atol=1e-13)

    def test_complete_positivity_via_choi(self):
        rng = np.random.default_rng(9)
        kraus = random_kraus_channel(rng, 3, 2)
        assert np.linalg.eigvalsh(choi(CPMap(kraus).kraus))[0] >= -1e-12


class TestInstrument:
    def test_alphabet_and_average(self):
        inst = projective_z()
        assert inst.labels == ("1", "2")
        assert inst.average().tp_residual() < 1e-12

    def test_non_tp_average_rejected(self):
        with pytest.raises(ValueError):
            Instrument([("1", CPMap([P0])), ("2", CPMap([0.5 * P1]))])

    def test_nan_kraus_rejected(self):
        # a NaN residual compares false with any tolerance, so the guard
        # must reject what it cannot show to be small
        k = P1.copy()
        k[1, 1] = np.nan
        with pytest.raises(ValueError, match="not trace-preserving"):
            Instrument([("1", CPMap([P0])), ("2", CPMap([k]))])


class TestScheduleValidation:
    def test_times_must_increase(self):
        with pytest.raises(ValueError):
            flat_schedule([1.0, 0.5], [projective_z(), projective_z()])

    def test_feedback_prefix_length_checked(self):
        with pytest.raises(ValueError):
            flat_schedule([0.5], [projective_z()],
                          feedback={0: {("1",): projective_z()}})

    def test_feedback_alphabet_checked(self):
        other = Instrument([("a", CPMap([P0])), ("b", CPMap([P1]))])
        with pytest.raises(ValueError):
            flat_schedule([0.5, 1.0], [projective_z(), projective_z()],
                          feedback={1: {("1",): other}})


# each case reaches exactly one guard; with that guard gone it raises
# nothing, or something else
GUARDS = {
    "cp-map-without-kraus": (lambda: CPMap([]), "at least one Kraus operator"),
    "cp-map-unequal-kraus": (lambda: CPMap([np.eye(2), np.eye(3)]),
                             "must be square and equal-sized"),
    "instrument-without-outcomes": (lambda: Instrument([]), "at least one outcome"),
    "instrument-duplicate-labels": (
        lambda: Instrument([("1", CPMap([P0])), ("1", CPMap([P1]))]),
        r"duplicate outcome labels \['1', '1'\]"),
    "schedule-instrument-count": (
        lambda: flat_schedule([0.5, 1.0], [projective_z()]),
        "one instrument per intervention time"),
    "schedule-sb-dims-malformed": (
        lambda: flat_schedule([0.5], [projective_z()], sb_dims=(2, 0)),
        r"sb_dims must be two integers >= 1 \(d_S, d_B\), got \(2, 0\)"),
    "schedule-sb-dims-not-a-pair": (
        lambda: flat_schedule([0.5], [projective_z()], sb_dims=(4,)),
        r"sb_dims must be two integers >= 1 \(d_S, d_B\), got \(4,\)"),
    "schedule-sb-dims-not-integers": (
        lambda: flat_schedule([0.5], [projective_z()], sb_dims=(2, 2.0)),
        r"sb_dims must be two integers >= 1 \(d_S, d_B\), got \(2, 2.0\)"),
    "schedule-feedback-unknown-step": (
        lambda: flat_schedule([0.5], [projective_z()], feedback={2: {(): projective_z()}}),
        "feedback references unknown step 2"),
    "schedule-kraus-size": (
        lambda: flat_schedule([0.5], [Instrument([("1", CPMap([np.eye(4)]))])]),
        r"step 0 outcome '1': Kraus operator must be 2x2, got shape \(4, 4\)"),
    "schedule-feedback-kraus-size": (
        lambda: flat_schedule([0.5, 1.0], [projective_z(), projective_z()],
                              feedback={1: {("2",): Instrument([("1", CPMap([np.eye(3)])),
                                                                ("2", CPMap([0 * np.eye(3)]))])}}),
        r"step 1 outcome '1': Kraus operator must be 2x2, got shape \(3, 3\)"),
    "schedule-h-bath-size": (
        lambda: flat_schedule([0.5], [projective_z()], h_bath=np.eye(3)),
        r"h_bath must be 2x2, got shape \(3, 3\)"),
    "schedule-h-bath-hermitian": (
        lambda: flat_schedule([0.5], [projective_z()], h_bath=np.array([[0, 1], [0, 0.5]])),
        "h_bath is not Hermitian"),
    "schedule-v-coupling-size": (
        lambda: flat_schedule([0.5], [projective_z()], v=np.eye(2)),
        r"v_coupling must be 4x4, got shape \(2, 2\)"),
    "schedule-drive-size": (
        lambda: flat_schedule([0.5], [projective_z()], h_sys=np.eye(3)),
        r"drive segment 0 for prefix \[\] must be 2x2, got shape \(3, 3\)"),
    "schedule-variant-drive-size": (
        lambda: InterventionSchedule(SB_DIMS, [0.5], [projective_z()], Protocol(
            [Segment(0.0, 3.0, np.eye(2))],
            {("1",): [Segment(0.0, 0.5, np.eye(2)), Segment(0.5, 3.0, np.eye(3))]})),
        r"drive segment 1 for prefix \['1'\] must be 2x2, got shape \(3, 3\)"),
    # the rules on times and prefixes hold for a schedule built without assemble;
    # a NaN time compares false both ways, so it is refused before them
    "schedule-step-time-nan": (
        lambda: flat_schedule([float("nan")], [projective_z()], sb_dims=(2, 1),
                              t_span=(0.0, 2.0)),
        r"intervention times must be finite: \(nan,\)"),
    "schedule-step-outside-protocol": (
        lambda: flat_schedule([3.0], [projective_z()], sb_dims=(2, 1), t_span=(0.0, 2.0)),
        "an intervention is scheduled outside the protocol range"),
    "schedule-feedback-prefix-misspelled": (
        lambda: flat_schedule([0.5, 1.0], [projective_z(), projective_z()], sb_dims=(2, 1),
                              t_span=(0.0, 2.0), feedback={1: {("3",): projective_z()}}),
        r"prefix \['3'\]: step 0 records one of \['1', '2'\], not '3'"),
    "schedule-variant-prefix-misspelled": (
        lambda: variant_schedule([("3",)]),
        r"prefix \['3'\]: step 0 records one of \['1', '2'\], not '3'"),
    "schedule-variant-longer-than-schedule": (
        lambda: variant_schedule([("1", "1")]),
        r"protocol variant \('1', '1'\) is longer than the intervention schedule"),
    "schedule-variant-deviates-before-its-prefix-resolves": (
        lambda: variant_schedule([("1",)], t_switch=0.3),
        r"protocol variant \('1',\) changes the drive at t=0.3, before its prefix is "
        r"resolved at t=0.5"),
}


class TestGuards:
    @pytest.mark.parametrize("case", GUARDS)
    def test_guard_rejects(self, case):
        call, message = GUARDS[case]
        with pytest.raises(ValueError, match=message):
            call()


class TestProcessEvaluation:
    def test_gibbs_stationarity_no_interventions(self):
        # global thermal state of the joint Hamiltonian is invariant
        rng = np.random.default_rng(20)
        h_s = np.diag([0.0, 1.0])
        h_b = random_hermitian(rng, 2)
        v = 0.4 * np.kron(np.array([[0, 1], [1, 0]]), np.array([[0, 1], [1, 0]]))
        sched = flat_schedule([], [], h_sys=h_s, h_bath=h_b, v=v)
        pi_sb = gibbs_mat(sched.h_sb(h_s), beta=1.0)
        records, states = evaluate_process_tensor(sched, pi_sb, [2.5])[2.5]
        assert records == [()] and states.shape == (1, 2, 2)
        np.testing.assert_allclose(states[0], ptrace_factors(pi_sb, [2, 2], [0]), atol=1e-11)
        assert weight(states[0]) == pytest.approx(1.0, abs=1e-11)

    def test_identity_intervention_is_bare_evolution(self):
        rng = np.random.default_rng(21)
        h_s = random_hermitian(rng, 2)
        h_b = random_hermitian(rng, 2)
        v = 0.3 * random_hermitian(rng, 4)
        rho0 = random_density(rng, 4)
        sched0 = flat_schedule([], [], h_sys=h_s, h_bath=h_b, v=v)
        sched1 = flat_schedule([1.0], [identity_instrument()], h_sys=h_s, h_bath=h_b, v=v)
        bare = states_by_record(evaluate_process_tensor(sched0, rho0, [2.0])[2.0])[()]
        with_id = states_by_record(evaluate_process_tensor(sched1, rho0, [2.0])[2.0])[("1",)]
        np.testing.assert_allclose(with_id, bare, atol=0)  # same matrix path

    def test_matches_kraus_sequence_oracle(self):
        # driven qubit + qubit bath, two unsharp interventions
        rng = np.random.default_rng(22)
        h0, h1 = np.diag([0.0, 1.0]), np.diag([0.0, 1.0]) + 0.3 * np.array([[0, 1], [1, 0]])
        h_b = np.diag([0.0, 0.8])
        v = 0.25 * np.kron(np.array([[0, 1], [1, 0]]), np.array([[0, 1], [1, 0]]))
        proto = Protocol([Segment(0.0, 0.8, h0), Segment(0.8, 2.0, h1)])
        k1 = [np.sqrt(0.8) * P0 + np.sqrt(0.2) * P1]
        k2 = [np.sqrt(0.2) * P0 + np.sqrt(0.8) * P1]
        unsharp = Instrument([("1", CPMap(k1)), ("2", CPMap(k2))])
        sched = InterventionSchedule(SB_DIMS, [0.5, 1.2], [unsharp, projective_z()], proto,
                                     h_bath=h_b, v_coupling=v)
        rho0 = random_density(rng, 4)

        def u_sb(ta, tb):
            from proctherm.algebra import expm_herm
            out = np.eye(4, dtype=complex)
            for seg, a, b in proto.iter_segments(ta, tb):
                out = expm_herm(sched.h_sb(seg.h_system), -1j * (b - a)) @ out
            return out

        direct = states_by_record(evaluate_process_tensor(sched, rho0, [2.0])[2.0])
        total = 0.0
        for ra, cpa in unsharp.outcomes:
            for rb, cpb in projective_z().outcomes:
                got = direct[(ra, rb)]
                # oracle: enumerate Kraus sequences explicitly
                expected = np.zeros((4, 4), dtype=complex)
                u01, u12, u2f = u_sb(0.0, 0.5), u_sb(0.5, 1.2), u_sb(1.2, 2.0)
                for ka in cpa.kraus:
                    for kb in cpb.kraus:
                        ea, eb = np.kron(ka, np.eye(2)), np.kron(kb, np.eye(2))
                        m = u2f @ eb @ u12 @ ea @ u01 @ rho0 @ u01.conj().T @ ea.conj().T \
                            @ u12.conj().T @ eb.conj().T @ u2f.conj().T
                        expected += m
                expected_s = expected.reshape(2, 2, 2, 2).trace(axis1=1, axis2=3)
                np.testing.assert_allclose(got, expected_s, atol=1e-11)
                total += weight(got)
        assert total == pytest.approx(1.0, abs=1e-10)

    def test_split_segment_is_diagonalized_once(self, monkeypatch):
        # a report time and a step cut the first segment into three
        # intervals: each interval gets one propagator, shared by both
        # records after the step, and all three come from one eigh
        import proctherm.channels as channels
        rng = np.random.default_rng(25)
        proto = Protocol([Segment(0.0, 2.0, np.diag([0.0, 1.0])),
                          Segment(2.0, 3.0, random_hermitian(rng, 2))])
        sched = InterventionSchedule(SB_DIMS, [1.2], [projective_z()], proto,
                                     h_bath=np.diag([0.0, 0.8]),
                                     v_coupling=0.3 * random_hermitian(rng, 4))
        sb = random_density(rng, 4)
        eighs, intervals = [], []
        eigh, expm_herm = np.linalg.eigh, channels.expm_herm

        def counted_eigh(a, *args, **kwargs):
            eighs.append(np.shape(a))
            return eigh(a, *args, **kwargs)

        def counted_expm(h, scale=1.0, eig=None):
            intervals.append(scale)
            return expm_herm(h, scale, eig)

        monkeypatch.setattr(np.linalg, "eigh", counted_eigh)
        monkeypatch.setattr(channels, "expm_herm", counted_expm)
        out = evaluate_process_tensor(sched, sb, [0.7, 2.5])
        assert out[2.5][0] == [("1",), ("2",)]
        # (0, .7), (.7, 1.2) and (1.2, 2) on the first segment, (2, 2.5)
        assert eighs == [(4, 4)] * 2
        np.testing.assert_allclose(np.imag(intervals), [-0.7, -0.5, -0.8, -0.5], atol=1e-12)

    @pytest.mark.parametrize("times", [[-0.5, 1.0], [1.0, 3.5], [float("nan"), 1.0],
                                       [1.0, float("inf")]],
                             ids=["before-start", "after-end", "nan", "inf"])
    def test_time_outside_the_protocol_rejected(self, times):
        sched = flat_schedule([0.5], [projective_z()])
        with pytest.raises(ValueError, match=r"outside the protocol range \[0\.0, 3\.0\]"):
            evaluate_process_tensor(sched, np.eye(4) / 4, times)

    def test_non_system_bath_initial_state_rejected(self):
        sched = flat_schedule([0.5], [projective_z()])
        rho_s = np.eye(2) / 2
        with pytest.raises(ValueError, match=r"4x4 system-bath matrix, got shape \(2, 2\)"):
            evaluate_process_tensor(sched, rho_s, [1.0])

    def test_feedback_selects_instrument(self):
        # step 1 measures X if r0 = "1", Z otherwise; compare by hand
        rng = np.random.default_rng(23)
        plus = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
        minus = np.array([[0.5, -0.5], [-0.5, 0.5]], dtype=complex)
        x_inst = Instrument([("1", CPMap([plus])), ("2", CPMap([minus]))])
        sched = flat_schedule([0.4, 0.9], [projective_z(), projective_z()],
                              feedback={1: {("1",): x_inst}})
        rho0 = random_density(rng, 4)
        got = states_by_record(evaluate_process_tensor(sched, rho0, [1.5])[1.5])[("1", "1")]
        e0 = np.kron(P0, np.eye(2))
        eplus = np.kron(plus, np.eye(2))
        expected = eplus @ e0 @ rho0 @ e0 @ eplus   # zero Hamiltonian: no evolution
        expected_s = expected.reshape(2, 2, 2, 2).trace(axis1=1, axis2=3)
        np.testing.assert_allclose(got, expected_s, atol=1e-12)

    def test_record_tree_matches_kraus_sequence_oracle(self):
        # feedback and a prefix-keyed drive; reports before an intervention,
        # exactly at one, between two and after the last
        rng = np.random.default_rng(24)
        h0 = np.diag([0.0, 1.0])
        h_b = np.diag([0.0, 0.8])
        v = 0.25 * np.kron(np.array([[0, 1], [1, 0]]), np.array([[0, 1], [1, 0]]))
        base = [Segment(0.0, 1.0, h0), Segment(1.0, 2.0, h0 + 0.3 * np.diag([1.0, -1.0]))]
        variants = {("1",): [Segment(0.0, 0.7, h0), Segment(0.7, 2.0, random_hermitian(rng, 2))],
                    ("2", "1"): [Segment(0.0, 0.8, h0), Segment(0.8, 2.0, random_hermitian(rng, 2))]}
        proto = Protocol(base, variants)
        kraus = random_kraus_channel(rng, 2, 3)
        noisy = Instrument([("1", CPMap(kraus[:1])), ("2", CPMap(kraus[1:]))])
        plus = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
        minus = np.array([[0.5, -0.5], [-0.5, 0.5]], dtype=complex)
        x_inst = Instrument([("1", CPMap([plus])), ("2", CPMap([minus]))])
        times = [0.4, 0.8, 1.4]
        instruments = [noisy, projective_z(), noisy]
        feedback = {1: {("1",): x_inst}, 2: {("2", "1"): x_inst, ("1",): projective_z()}}
        sched = InterventionSchedule(SB_DIMS, times, instruments, proto, feedback=feedback,
                                     h_bath=h_b, v_coupling=v)
        rho0 = random_density(rng, 4)

        def u_sb(ta, tb, prefix):
            from proctherm.algebra import expm_herm
            out = np.eye(4, dtype=complex)
            for seg, a, b in proto.iter_segments(ta, tb, prefix):
                out = expm_herm(sched.h_sb(seg.h_system), -1j * (b - a)) @ out
            return out

        def instrument(k, prefix):
            # the deepest declared feedback prefix wins, as written out here
            table = feedback.get(k, {})
            for cut in range(len(prefix), -1, -1):
                if prefix[:cut] in table:
                    return table[prefix[:cut]]
            return instruments[k]

        def oracle(record, t):
            # enumerate Kraus sequences explicitly
            terms, t_cur = [rho0], 0.0
            for k, r in enumerate(record):
                u = u_sb(t_cur, times[k], record[:k])
                kraus = dict(instrument(k, record[:k]).outcomes)[r].kraus
                ops = [np.kron(kk, np.eye(2)) for kk in kraus]
                terms = [e @ u @ m @ u.conj().T @ e.conj().T for m in terms for e in ops]
                t_cur = times[k]
            u = u_sb(t_cur, t, record)
            full = sum(u @ m @ u.conj().T for m in terms)
            return full.reshape(2, 2, 2, 2).trace(axis1=1, axis2=3)

        report = [0.2, 0.8, 1.1, 2.0]
        tree = evaluate_process_tensor(sched, rho0, report)
        assert list(tree) == report
        for t in report:
            n = sum(1 for tk in times if tk <= t)
            records, states = tree[t]
            assert records == list(itertools.product(*[("1", "2")] * n))
            assert states.shape == (len(records), 2, 2)
            single_records, single = evaluate_process_tensor(sched, rho0, [t])[t]
            assert single_records == records
            for record, got, alone in zip(records, states, single):
                np.testing.assert_allclose(got, oracle(record, t), atol=1e-11)
                np.testing.assert_allclose(got, alone, atol=1e-14)
            assert sum(weight(m) for m in states) == pytest.approx(1.0, abs=1e-10)


class TestMultilinearity:
    @pytest.mark.parametrize("alpha", [1.0, 0.0, 0.37])
    def test_linearity_per_slot(self, alpha):
        # the two-outcome instrument {sqrt(alpha) a_k, sqrt(1-alpha) b_k} at
        # slot k splits the run with the mixed map into alpha run(a) and
        # (1-alpha) run(b), record by record and unnormalized
        rng = np.random.default_rng(31)
        h_sys, h_bath = random_hermitian(rng, 2), random_hermitian(rng, 2)
        v = 0.3 * random_hermitian(rng, 4)
        ops_a = [CPMap(random_kraus_channel(rng, 2, 2)) for _ in range(2)]
        ops_b = [CPMap(random_kraus_channel(rng, 2, 2)) for _ in range(2)]
        sb = random_density(rng, 4)

        def run(instruments):
            sched = flat_schedule([0.4, 1.0], instruments,
                                  h_sys=h_sys, h_bath=h_bath, v=v)
            return states_by_record(evaluate_process_tensor(sched, sb, [1.5])[1.5])

        def only(cp):
            return Instrument([("1", cp)])

        for k in range(2):
            plain = [only(cp) for cp in ops_a]
            swapped = list(plain)
            swapped[k] = only(ops_b[k])
            split = list(plain)
            split[k] = Instrument([
                ("a", CPMap([np.sqrt(alpha) * m for m in ops_a[k].kraus])),
                ("b", CPMap([np.sqrt(1 - alpha) * m for m in ops_b[k].kraus]))])
            mixed = list(plain)
            mixed[k] = only(CPMap([*(np.sqrt(alpha) * m for m in ops_a[k].kraus),
                                           *(np.sqrt(1 - alpha) * m for m in ops_b[k].kraus)]))
            (run_a,), (run_b,), (run_mixed,) = (run(i).values() for i in (plain, swapped, mixed))
            parts = run(split)
            labels = [("1",) * k + (x,) + ("1",) * (1 - k) for x in "ab"]
            assert sorted(parts) == sorted(labels)
            np.testing.assert_allclose(parts[labels[0]], alpha * run_a, atol=1e-12)
            np.testing.assert_allclose(parts[labels[1]], (1 - alpha) * run_b, atol=1e-12)
            np.testing.assert_allclose(sum(parts.values()), run_mixed, atol=1e-12)


class TestSpectrumMemo:
    """A schedule keeps one spectrum per matrix, under its shape, dtype and a
    digest of its bytes: bitwise ``np.linalg.eigh`` of that matrix, read-only."""

    def test_each_distinct_matrix_gets_its_own_entry(self, monkeypatch):
        rng = np.random.default_rng(31)
        h = random_hermitian(rng, 4)
        h[1, 0] = h[0, 1] = 0.0
        ulp = h.copy()      # one ulp apart in one entry
        ulp[2, 2] = np.nextafter(h[2, 2].real, np.inf)
        flip = h.copy()     # -0.0 for 0.0, in the triangle eigh reads
        flip[1, 0] = complex(-0.0, 0.0)
        stack = h.reshape(4, 2, 2)    # the same bytes as four 2x2 matrices
        mats = [h, ulp, flip, stack]
        assert h.tobytes() == stack.tobytes() != flip.tobytes()
        solver, calls = np.linalg.eigh, []
        monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(a) or solver(a))
        sched = flat_schedule([], [])
        eigs = [sched.eigh(m) for m in mats]
        assert [a.tobytes() for a in calls] == [m.tobytes() for m in mats]
        assert [c.shape for c in calls] == [m.shape for m in mats]
        assert sorted(map(id, sched._spectra.values())) == sorted(map(id, eigs))
        for mat, eig in zip(mats, eigs):
            assert [a.tobytes() for a in eig] == [a.tobytes() for a in solver(mat)]
            assert not any(a.flags.writeable for a in eig)
        # a second read of any of them is the kept spectrum, and no call
        assert all(sched.eigh(m.copy()) is e for m, e in zip(mats, eigs))
        assert len(calls) == 4

    def test_a_failed_matrix_keeps_nothing(self, monkeypatch):
        sched = flat_schedule([], [])

        def failing(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", failing)
        with pytest.raises(np.linalg.LinAlgError):
            sched.eigh(np.eye(4))
        assert sched._spectra == {}


class TestRouteIndependence:
    def test_direct_route_imports_no_autonomous_module(self):
        # the direct route must not share code with simulate, thermo or
        # verify, or agreeing with the autonomous route would prove nothing
        import proctherm.channels as channels
        imported = set()
        for node in ast.walk(ast.parse(Path(channels.__file__).read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom):
                module = node.module or ""
                if node.level > 0:
                    imported |= ({module.split(".")[0]} if module
                                 else {a.name for a in node.names})
                elif module == "proctherm":
                    imported |= {a.name for a in node.names}
                elif module.startswith("proctherm."):
                    imported.add(module.split(".")[1])
            elif isinstance(node, ast.Import):
                imported |= {a.name.split(".")[1] for a in node.names
                             if a.name.startswith("proctherm.")}
        assert imported == {"algebra", "protocol", "tolerances"}

    def test_direct_route_reads_no_factor_label(self):
        # an instrument acts on the system, the first of sb_dims: the direct
        # route places nothing by a label such as "S", "B" or "A0"
        import proctherm.channels as channels
        source = Path(channels.__file__).read_text(encoding="utf-8")
        labels = []
        for tok in tokenize.generate_tokens(io.StringIO(source).readline):
            if tok.type == tokenize.STRING:
                # an f-string is one token here; its constant parts count
                labels += [(node.value, tok.start[0])
                           for node in ast.walk(ast.parse(tok.string, mode="eval"))
                           if isinstance(node, ast.Constant) and isinstance(node.value, str)
                           and re.fullmatch(r"S|B|A\d+", node.value)]
        assert labels == []
