"""Tests for unitary dilations, outcome recording and memory dephasing."""

import numpy as np
import pytest

from proctherm import dilation
from proctherm.channels import CPMap, Instrument
from proctherm.dilation import (
    apply_dilated,
    dephasing_unitary,
    dilate_channel,
    dilate_instrument,
    instrument_from_dilation,
    measurement_unitary,
)
from proctherm.algebra import dagger, max_norm, ptrace_factors

from oracles import random_density, random_kraus_channel, random_unitary, shift_matrix

P0 = np.array([[1, 0], [0, 0]], dtype=complex)
P1 = np.array([[0, 0], [0, 1]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def operator_basis(d):
    """Spanning set of d*d matrix units."""
    out = []
    for i in range(d):
        for j in range(d):
            e = np.zeros((d, d), dtype=complex)
            e[i, j] = 1.0
            out.append(e)
    return out


def dephased(rho_mem):
    """Memory state after the dephasing unitary with a maximally mixed
    dephaser of the same dimension, traced out."""
    d = rho_mem.shape[0]
    u = dephasing_unitary(d)
    joint = u @ np.kron(rho_mem, np.eye(d) / d) @ dagger(u)
    return ptrace_factors(joint, [d, d], [0])


def register_hamiltonian(h_m, c):
    """Memory Hamiltonian ``h_m`` next to a degenerate dephaser at energy c."""
    d = h_m.shape[0]
    return np.kron(h_m, np.eye(d)) + np.kron(np.eye(d), c * np.eye(d))


def reconstruction_error(dr, cp_by_outcome):
    """Worst entrywise error of the dilated action over a spanning basis."""
    worst = 0.0
    for e in operator_basis(dr.system_dim):
        for r, cp in enumerate(cp_by_outcome):
            direct = sum(k @ e @ dagger(k) for k in cp.kraus)
            dil = apply_dilated(dr, e, outcome=r if dr.projectors else None)
            worst = max(worst, max_norm(direct - dil))
    return worst


class TestChannelDilation:
    def test_identity_channel(self):
        dr = dilate_channel(CPMap([np.eye(2)]))
        assert dr.ancilla_dim == 1
        np.testing.assert_allclose(dr.unitary, np.eye(2), atol=1e-14)

    def test_qubit_dephasing_channel(self):
        ch = CPMap([np.sqrt(0.5) * np.eye(2), np.sqrt(0.5) * SZ])
        dr = dilate_channel(ch)
        assert dr.ancilla_dim == 2
        assert dr.unitarity_residual() < 1e-10
        assert reconstruction_error(dr, [ch]) < 1e-10

    def test_random_qutrit_channel(self):
        rng = np.random.default_rng(40)
        ch = CPMap(random_kraus_channel(rng, 3, 3))
        dr = dilate_channel(ch)
        assert dr.unitarity_residual() < 1e-10
        assert reconstruction_error(dr, [ch]) < 1e-10

    def test_incomplete_kraus_rejected(self):
        with pytest.raises(ValueError):
            dilate_channel(CPMap([P0]))

    def test_nan_kraus_rejected(self):
        k = P1.copy()
        k[1, 1] = np.nan
        with pytest.raises(ValueError, match="Kraus completeness"):
            dilate_channel(CPMap([P0, k]))

    def test_padding_keeps_reconstruction(self):
        rng = np.random.default_rng(41)
        ch = CPMap(random_kraus_channel(rng, 2, 2))
        dr = dilate_channel(ch, ancilla_dim=4)
        assert dr.ancilla_dim == 4
        assert dr.unitarity_residual() < 1e-10
        assert reconstruction_error(dr, [ch]) < 1e-10


class TestInstrumentDilation:
    def test_projective_measurement(self):
        inst = Instrument([("1", CPMap([P0])), ("2", CPMap([P1]))])
        dr = dilate_instrument(inst)
        assert dr.ancilla_dim == 2
        assert all(np.linalg.matrix_rank(p) == 1 for p in dr.projectors)
        rho = np.array([[0.3, 0.1j], [-0.1j, 0.7]])
        for r, expect in enumerate([0.3, 0.7]):
            out = apply_dilated(dr, rho, outcome=r)
            assert np.trace(out).real == pytest.approx(expect, abs=1e-12)

    def test_single_outcome_reduces_to_channel(self):
        rng = np.random.default_rng(42)
        kraus = random_kraus_channel(rng, 2, 2)
        inst = Instrument([("1", CPMap(kraus))])
        dr = dilate_instrument(inst)
        drc = dilate_channel(CPMap(kraus))
        np.testing.assert_allclose(dr.unitary, drc.unitary, atol=1e-13)
        np.testing.assert_allclose(sum(dr.projectors), np.eye(dr.ancilla_dim), atol=0)

    def test_unsharp_measurement_branch_weights(self):
        k1 = np.sqrt(0.8) * P0 + np.sqrt(0.2) * P1
        k2 = np.sqrt(0.2) * P0 + np.sqrt(0.8) * P1
        inst = Instrument([("1", CPMap([k1])), ("2", CPMap([k2]))])
        dr = dilate_instrument(inst)
        rng = np.random.default_rng(43)
        rho = random_density(rng, 2)
        for r, k in enumerate([k1, k2]):
            out = apply_dilated(dr, rho, outcome=r)
            np.testing.assert_allclose(out, k @ rho @ dagger(k), atol=1e-12)

    def test_random_instruments_reconstruct(self):
        rng = np.random.default_rng(44)
        for _ in range(10):
            d = int(rng.integers(2, 4))
            m = int(rng.integers(1, 5))
            kraus = random_kraus_channel(rng, d, m)
            cut = int(rng.integers(1, m + 1)) if m > 1 else 1
            outcomes = [("1", CPMap(kraus[:cut]))]
            if cut < m:
                outcomes.append(("2", CPMap(kraus[cut:])))
            inst = Instrument(outcomes)
            dr = dilate_instrument(inst)
            assert dr.unitarity_residual() < 1e-10
            assert reconstruction_error(dr, [cp for _, cp in outcomes]) < 1e-9

    def test_average_over_outcomes_is_channel(self):
        rng = np.random.default_rng(45)
        kraus = random_kraus_channel(rng, 2, 3)
        inst = Instrument([("1", CPMap(kraus[:1])), ("2", CPMap(kraus[1:]))])
        dr = dilate_instrument(inst)
        rho = random_density(rng, 2)
        summed = sum(apply_dilated(dr, rho, outcome=r) for r in range(2))
        direct = sum(k @ rho @ dagger(k) for k in kraus)
        np.testing.assert_allclose(summed, direct, atol=1e-12)

    def test_padded_directions_join_the_last_outcome(self):
        # outcome "1" owns Kraus indices 0 and 1, "2" index 2; the padding
        # (indices 3 and 4) goes to "2", so the blocks still resolve 1
        kraus = [np.sqrt(0.5) * np.diag([1.0, 0.0])] * 2 + [np.diag([0.0, 1.0])]
        inst = Instrument([("1", CPMap(kraus[:2])), ("2", CPMap(kraus[2:]))])
        dr = dilate_instrument(inst, ancilla_dim=5)
        np.testing.assert_array_equal(dr.projectors, [np.diag([1, 1, 0, 0, 0]),
                                                      np.diag([0, 0, 1, 1, 1])])

    def test_completion_block_is_irrelevant(self):
        # rotate the completion columns; the reconstruction must not move
        rng = np.random.default_rng(46)
        kraus = random_kraus_channel(rng, 2, 2)
        inst = Instrument([("1", CPMap(kraus[:1])), ("2", CPMap(kraus[1:]))])
        dr = dilate_instrument(inst)
        d, m = 2, 2
        cols = [s * m + a for s in range(d) for a in range(1, m)]
        u2 = np.array(dr.unitary)
        rot = random_unitary(rng, len(cols))
        u2[:, cols] = u2[:, cols] @ rot
        from proctherm.dilation import DilationResult
        dr2 = DilationResult(dr.ancilla_state, u2, dr.projectors, dr.outcome_labels)
        assert dr2.unitarity_residual() < 1e-10
        assert reconstruction_error(dr2, [cp for _, cp in inst.outcomes]) < 1e-9

    def test_probability_conservation(self):
        rng = np.random.default_rng(47)
        kraus = random_kraus_channel(rng, 3, 4)
        inst = Instrument([("1", CPMap(kraus[:2])), ("2", CPMap(kraus[2:]))])
        dr = dilate_instrument(inst)
        for _ in range(5):
            rho = random_density(rng, 3)
            total = sum(np.trace(apply_dilated(dr, rho, outcome=r)).real for r in range(2))
            assert total == pytest.approx(1.0, abs=1e-10)


class TestReconstructionError:
    def test_full_basis_reads_coherences(self):
        # complete dephasing and the identity agree on every diagonal input;
        # only the off-diagonal matrix units tell their dilations apart
        identity = Instrument([("1", CPMap([np.eye(2)]))])
        dephasing = Instrument([("1", CPMap([P0, P1]))])
        dr = dilate_instrument(dephasing)
        assert dilation.reconstruction_error(dr, dephasing) < 1e-12
        assert dilation.reconstruction_error(dr, identity) == pytest.approx(1.0, abs=1e-12)

    def test_agrees_with_spanning_basis_oracle(self):
        rng = np.random.default_rng(56)
        kraus = random_kraus_channel(rng, 3, 4)
        inst = Instrument([("a", CPMap(kraus[:1])), ("b", CPMap(kraus[1:3])),
                           ("c", CPMap(kraus[3:]))])
        wrong = Instrument([("a", CPMap(kraus[1:2])), ("b", CPMap([kraus[0], kraus[2]])),
                            ("c", CPMap(kraus[3:]))])
        dr = dilate_instrument(inst)
        for target in (inst, wrong):
            want = reconstruction_error(dr, [cp for _, cp in target.outcomes])
            assert dilation.reconstruction_error(dr, target) == want
        assert dilation.reconstruction_error(dr, wrong) > 1e-3


class TestInstrumentFromDilation:
    def test_round_trip_through_hardware(self):
        rng = np.random.default_rng(48)
        kraus = random_kraus_channel(rng, 2, 3)
        inst = Instrument([("1", CPMap(kraus[:1])), ("2", CPMap(kraus[1:]))])
        dr = dilate_instrument(inst)
        back = instrument_from_dilation(dr.unitary, dr.ancilla_state, dr.projectors,
                                        system_dim=2, labels=inst.labels)
        rho = random_density(rng, 2)
        for label, cp in inst.outcomes:
            direct = sum(k @ rho @ dagger(k) for k in cp.kraus)
            via = sum(k @ rho @ dagger(k) for k in dict(back.outcomes)[label].kraus)
            np.testing.assert_allclose(via, direct, atol=1e-12)

    def test_mixed_ancilla_collision(self):
        # swap with a thermal ancilla: the induced channel replaces the state
        rng = np.random.default_rng(49)
        swap = np.eye(4)[[0, 2, 1, 3]].astype(complex)
        pi = np.diag([0.7, 0.3]).astype(complex)
        inst = instrument_from_dilation(swap, pi, [np.eye(2)], system_dim=2)
        rho = random_density(rng, 2)
        out = sum(k @ rho @ dagger(k) for k in dict(inst.outcomes)["1"].kraus)
        np.testing.assert_allclose(out, pi, atol=1e-12)


class TestMeasurementUnitary:
    def test_single_outcome_keeps_register(self):
        u = measurement_unitary([np.eye(3)])
        np.testing.assert_allclose(u, np.eye(3), atol=0)

    def test_records_outcome_with_cross_terms(self):
        # X-basis state measured in Z: coherent off-diagnoal blocks survive
        plus = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
        u = measurement_unitary([P0, P1])
        reg0 = np.zeros((2, 2), dtype=complex)
        reg0[0, 0] = 1.0
        out = u @ np.kron(plus, reg0) @ dagger(u)
        expected = np.zeros((4, 4), dtype=complex)
        for r, pr in enumerate([P0, P1]):
            for rp, prp in enumerate([P0, P1]):
                ket = np.zeros((2, 2), dtype=complex)
                ket[r, rp] = 1.0
                expected += np.kron(pr @ plus @ prp, ket)
        np.testing.assert_allclose(out, expected, atol=1e-14)

    def test_unitary_for_random_resolutions(self):
        rng = np.random.default_rng(50)
        for d, blocks in [(2, [1, 1]), (3, [2, 1]), (4, [1, 2, 1])]:
            basis = random_unitary(rng, d)
            projectors, i = [], 0
            for b in blocks:
                v = basis[:, i:i + b]
                projectors.append(v @ dagger(v))
                i += b
            u = measurement_unitary(projectors)
            assert max_norm(dagger(u) @ u - np.eye(u.shape[0])) < 1e-12

    def test_incomplete_resolution_rejected(self):
        with pytest.raises(ValueError):
            measurement_unitary([P0, 0.5 * P1])

    def test_overlapping_resolution_rejected(self):
        # complete, so only the pairwise check can refuse it
        with pytest.raises(ValueError, match="not orthogonal"):
            measurement_unitary([np.diag([1.0, 0.5]), np.diag([0.0, 0.5])])


class TestDephasing:
    def test_diagonal_state_unchanged(self):
        rho = np.diag([0.2, 0.8]).astype(complex)
        np.testing.assert_allclose(dephased(rho), rho, atol=1e-14)

    def test_uniform_superposition_fully_dephased(self):
        plus = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
        np.testing.assert_allclose(dephased(plus), np.eye(2) / 2, atol=1e-14)

    def test_matches_projector_sandwich_oracle(self):
        rng = np.random.default_rng(51)
        rho = random_density(rng, 3)
        expected = np.diag(np.diag(rho))
        np.testing.assert_allclose(dephased(rho), expected, atol=1e-13)

    def test_commutes_with_degenerate_energies(self):
        # non-degenerate register, degenerate dephaser: the dephaser commutes
        # exactly, an arbitrary unitary does not
        rng = np.random.default_rng(54)
        for d in (2, 3, 4):
            h = register_hamiltonian(np.diag(np.cumsum(rng.uniform(0.1, 1.0, d))), 1.3)
            u = dephasing_unitary(d)
            assert max_norm(u @ h - h @ u) == 0.0
            v = random_unitary(rng, d * d)
            assert max_norm(v @ h - h @ v) > 0.1

    def test_non_degenerate_dephaser_costs_energy(self):
        # negative control: with split dephaser levels the unitary no longer
        # commutes, and a recorded outcome pays the splitting
        u = dephasing_unitary(2)
        h = np.kron(np.eye(2), np.diag([0.0, 0.5]))
        assert max_norm(u @ h - h @ u) == pytest.approx(0.5, abs=1e-15)
        rho = np.kron(P1, P0)   # register reads 1, dephaser in its ground state
        cost = np.trace(h @ (u @ rho @ dagger(u) - rho)).real
        assert cost == pytest.approx(0.5, abs=1e-15)

    def test_zero_energy_cost(self):
        rng = np.random.default_rng(52)
        for d in (2, 3, 4):
            u = dephasing_unitary(d)
            h = register_hamiltonian(np.diag(np.cumsum(rng.uniform(0.1, 1.0, d))), 0.7)
            for _ in range(30):
                rho = random_density(rng, d * d)
                cost = np.trace(h @ (u @ rho @ dagger(u) - rho))
                assert abs(cost) < 1e-12

    def test_trace_preserving(self):
        rng = np.random.default_rng(53)
        rho = random_density(rng, 4)
        assert abs(np.trace(dephased(rho)) - 1.0) < 1e-12

    def test_shift_matrix_cycles(self):
        s = shift_matrix(3, 1)
        v = np.zeros(3)
        v[2] = 1.0
        np.testing.assert_allclose(s @ v, np.eye(3)[0], atol=0)
