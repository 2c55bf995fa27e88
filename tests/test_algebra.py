"""Tests for the array linear algebra over ordered tensor factors."""

import math
import threading
import types
from pathlib import Path

import numpy as np
import pytest

import proctherm.algebra as algebra
import proctherm.channels as channels
from proctherm.algebra import (
    embed_factors,
    expm_herm,
    gibbs_mat,
    log_partition,
    max_norm,
    ptrace_factors,
    reorder_factors,
    unitary_log_generator,
    vn_entropy_mat,
)
from proctherm.scenario import build_model, parse_scenario

from oracles import (
    kron_index,
    ptrace_index,
    random_density,
    random_hermitian,
    random_unitary,
    relative_entropy_mat,
    taylor_expm,
)

SX = np.array([[0, 1], [1, 0]], dtype=complex)


# ---------------------------------------------------------------------------
# tensor products: embedding and factor order
# ---------------------------------------------------------------------------

def composed(a, b):
    """a on factor 0 times b on factor 1, each embedded on its own."""
    dims = [a.shape[0], b.shape[0]]
    return embed_factors(a, [0], dims) @ embed_factors(b, [1], dims)


class TestTensor:
    def test_identity_case(self):
        np.testing.assert_allclose(composed(np.eye(2), np.eye(2)), np.eye(4))

    def test_basis_projectors(self):
        out = composed(np.diag([1, 0]), np.diag([0, 1]))
        np.testing.assert_allclose(out, np.diag([0, 1, 0, 0]))

    def test_matches_index_oracle(self):
        rng = np.random.default_rng(11)
        a, b = random_hermitian(rng, 2), random_hermitian(rng, 2)
        np.testing.assert_allclose(composed(a, b), kron_index(a, b), atol=1e-13)

    def test_registry_order_restored(self):
        # composing in reverse factor order must permute back to S (x) B
        rng = np.random.default_rng(12)
        a, b = random_hermitian(rng, 2), random_hermitian(rng, 2)
        out = reorder_factors(np.kron(b, a), [2, 2], [1, 0])
        np.testing.assert_allclose(out, np.kron(a, b), atol=1e-13)


# ---------------------------------------------------------------------------
# partial trace
# ---------------------------------------------------------------------------

class TestPartialTrace:
    def test_product_state(self):
        rng = np.random.default_rng(21)
        rho_s, rho_b = random_density(rng, 2), random_density(rng, 2)
        out = ptrace_factors(np.kron(rho_s, rho_b), [2, 2], [0])
        np.testing.assert_allclose(out, rho_s, atol=1e-13)

    def test_maximally_entangled(self):
        psi = np.zeros(4, dtype=complex)
        psi[0] = psi[3] = 1 / math.sqrt(2)
        out = ptrace_factors(np.outer(psi, psi.conj()), [2, 2], [1])
        np.testing.assert_allclose(out, np.eye(2) / 2, atol=1e-14)

    def test_matches_index_oracle(self):
        rng = np.random.default_rng(22)
        rho = random_density(rng, 12)
        out = ptrace_factors(rho, [2, 3, 2], [0, 2])
        expected = ptrace_index(rho, [2, 3, 2], [0, 2])
        np.testing.assert_allclose(out, expected, atol=1e-13)
        assert abs(np.trace(out).real - 1.0) < 1e-12

    @pytest.mark.parametrize("dims, keep", [((2, 32, 2, 2), [0]), ((2, 32, 2, 2), [0, 2, 3]),
                                            ((3, 2, 5, 2), [0, 2])])
    def test_stack_matches_index_oracle_when_the_largest_traced_factor_is_not_last(
            self, dims, keep):
        rng = np.random.default_rng(24)
        stack = np.stack([random_density(rng, math.prod(dims)) for _ in range(3)])
        out = ptrace_factors(stack, dims, keep)
        for got, rho in zip(out, stack):
            np.testing.assert_allclose(got, ptrace_index(rho, list(dims), keep), atol=1e-13)

    def test_the_largest_traced_factor_goes_first(self):
        # tracing the bath of a (2, 32, 2, 2) state first reads 1/32 of it,
        # tracing the last ancilla first reads half
        axes, d = algebra._ptrace_plan((2, 32, 2, 2), (0,))
        assert axes[0] == (1, 5) and d == 2

    def test_trace_preserved(self):
        rng = np.random.default_rng(23)
        rho = random_density(rng, 8)
        out = ptrace_factors(rho, [2, 4], [1])
        assert abs(np.trace(out) - 1.0) < 1e-12


# ---------------------------------------------------------------------------
# Hermitian exponential
# ---------------------------------------------------------------------------

class TestHermExp:
    def test_zero_time(self):
        rng = np.random.default_rng(31)
        h = random_hermitian(rng, 2)
        np.testing.assert_allclose(expm_herm(h, 0.0), np.eye(2), atol=1e-15)

    def test_pauli_x_quarter_period(self):
        # exp(-i pi/2 X) = -i X, exactly in the spectral form
        out = expm_herm(SX, -1j * math.pi / 2)
        np.testing.assert_allclose(out, -1j * SX, atol=1e-15)

    def test_matches_taylor_oracle(self):
        rng = np.random.default_rng(32)
        h = random_hermitian(rng, 4)
        out = expm_herm(h, -0.7j)
        np.testing.assert_allclose(out, taylor_expm(-0.7j * h), atol=1e-10)

    def test_unitary_for_imaginary_scale(self):
        rng = np.random.default_rng(33)
        for _ in range(20):
            h = random_hermitian(rng, 5, scale=3.0)
            u = expm_herm(h, -1.3j)
            assert max_norm(u @ u.conj().T - np.eye(5)) < 1e-11

    def test_precomputed_spectrum_is_used_as_given(self):
        # with (w, v) given, h is not read and the exponential is bitwise the
        # one formed from h itself
        rng = np.random.default_rng(35)
        h = random_hermitian(rng, 4)
        assert np.array_equal(expm_herm(None, -0.7j, eig=np.linalg.eigh(h)),
                              expm_herm(h, -0.7j))

    def test_unitary_log_generator_roundtrip(self):
        rng = np.random.default_rng(34)
        for d in (2, 4):
            u = random_unitary(rng, d)
            g = unitary_log_generator(u)
            assert max_norm(g - g.conj().T) < 1e-12
            np.testing.assert_allclose(expm_herm(g, -1j), u, atol=1e-10)

    def test_unitary_log_generator_degenerate(self):
        # SWAP has a doubly degenerate eigenvalue pair
        swap = np.eye(4)[[0, 2, 1, 3]].astype(complex)
        g = unitary_log_generator(swap)
        np.testing.assert_allclose(expm_herm(g, -1j), swap, atol=1e-10)


# ---------------------------------------------------------------------------
# entropies and Gibbs states
# ---------------------------------------------------------------------------

class TestEntropy:
    def test_pure_state(self):
        assert vn_entropy_mat(np.diag([1.0, 0.0])) == pytest.approx(0.0, abs=1e-12)

    def test_maximally_mixed(self):
        s = vn_entropy_mat(np.eye(3) / 3)
        assert s == pytest.approx(math.log(3), abs=1e-12)

    def test_frozen_scalar_value(self):
        # -(0.25 ln 0.25 + 0.75 ln 0.75), evaluated independently
        s = vn_entropy_mat(np.diag([0.25, 0.75]))
        assert s == pytest.approx(0.5623351446188083, abs=1e-14)

    def test_unitary_invariance(self):
        rng = np.random.default_rng(41)
        for _ in range(10):
            rho = random_density(rng, 4)
            u = random_unitary(rng, 4)
            s1 = vn_entropy_mat(rho)
            s2 = vn_entropy_mat(u @ rho @ u.conj().T)
            assert abs(s1 - s2) < 1e-10

    def test_negative_eigenvalue_rejected(self):
        with pytest.raises(ValueError):
            vn_entropy_mat(np.diag([1.5, -0.5]))


class TestRelativeEntropy:
    def test_identical_states(self):
        rng = np.random.default_rng(51)
        rho = random_density(rng, 2)
        assert relative_entropy_mat(rho, rho) == pytest.approx(0.0, abs=1e-10)

    def test_analytic_value(self):
        rho = np.diag([1.0, 0.0])
        sigma = np.eye(2) / 2
        assert relative_entropy_mat(rho, sigma) == pytest.approx(math.log(2), abs=1e-12)

    def test_matches_spectral_oracle(self):
        rng = np.random.default_rng(52)
        for _ in range(10):
            r, s = random_density(rng, 2), random_density(rng, 2)
            wr = np.linalg.eigvalsh(r)
            ws, vs = np.linalg.eigh(s)
            # scalar oracle in the two eigenbases
            expected = float(np.sum(wr * np.log(wr)))
            expected -= float(np.real(np.trace((vs * np.log(ws)) @ vs.conj().T @ r)))
            got = relative_entropy_mat(r, s)
            assert got == pytest.approx(expected, abs=1e-10)
            assert got >= -1e-10  # Klein inequality

    def test_support_violation_signals_infinity(self):
        rho = np.eye(2) / 2
        sigma = np.diag([1.0, 0.0])
        assert relative_entropy_mat(rho, sigma) == math.inf

    def test_zero_iff_equal(self):
        rng = np.random.default_rng(53)
        for _ in range(10):
            r = random_density(rng, 3)
            s = random_density(rng, 3)
            d = relative_entropy_mat(r, s)
            if max_norm(r - s) < 1e-9:
                assert d < 1e-9
            else:
                assert d > 0


class TestGibbs:
    def test_degenerate_hamiltonian(self):
        h = 0.3 * np.eye(4)
        np.testing.assert_allclose(gibbs_mat(h, beta=2.0), np.eye(4) / 4, atol=1e-13)
        assert math.exp(log_partition(h, 2.0)) == pytest.approx(4 * math.exp(-2.0 * 0.3),
                                                                rel=1e-12)

    def test_two_level_analytic(self):
        omega, beta = 1.3, 0.8
        h = np.diag([0.0, omega])
        p = 1.0 / (1.0 + math.exp(-beta * omega))
        np.testing.assert_allclose(gibbs_mat(h, beta), np.diag([p, 1 - p]), atol=1e-13)
        assert math.exp(log_partition(h, beta)) == pytest.approx(1 + math.exp(-beta * omega),
                                                                 rel=1e-12)

    def test_matches_spectral_oracle(self):
        rng = np.random.default_rng(61)
        h = random_hermitian(rng, 4)
        w, v = np.linalg.eigh(h)
        expected = v @ np.diag(np.exp(-0.7 * w)) @ v.conj().T
        np.testing.assert_allclose(gibbs_mat(h, beta=0.7), expected / np.trace(expected),
                                   atol=1e-12)
        assert math.exp(log_partition(h, 0.7)) == pytest.approx(
            float(np.sum(np.exp(-0.7 * w))), rel=1e-10)

    def test_commutes_with_hamiltonian(self):
        rng = np.random.default_rng(62)
        h = random_hermitian(rng, 5)
        rho = gibbs_mat(h, beta=1.1)
        assert max_norm(rho @ h - h @ rho) < 1e-11

    def test_log_partition_per_inverse_temperature(self):
        rng = np.random.default_rng(63)
        h = random_hermitian(rng, 5)
        w = np.linalg.eigvalsh(h)
        for beta in (0.7, 2.0):
            assert log_partition(h, beta) == pytest.approx(
                math.log(float(np.sum(np.exp(-beta * w)))), rel=1e-12)

    def test_ground_energy_below_the_float_range_of_z(self):
        # exp(800) overflows a float: the state depends only on the level
        # differences, and ln Z shifts by beta times the energy shift
        rng = np.random.default_rng(64)
        h = random_hermitian(rng, 4)
        low = h - 800.0 * np.eye(4)
        np.testing.assert_allclose(gibbs_mat(low, 1.0), gibbs_mat(h, 1.0), atol=1e-12)
        assert log_partition(low, 1.0) == pytest.approx(log_partition(h, 1.0) + 800.0,
                                                        rel=1e-12)


# ---------------------------------------------------------------------------
# spectra: np.linalg.eigh's, on the calling thread, where first read
# ---------------------------------------------------------------------------

NUMPY_EIGH = np.linalg.eigh    # the reference, whatever a test puts in its place
SB = ("S", "B")
SCENARIO = Path(__file__).resolve().parents[1] / "scenarios" / "driven_feedback.yaml"


def bitwise(eig, mat):
    w, v = eig
    w0, v0 = NUMPY_EIGH(mat)
    return w.tobytes() == w0.tobytes() and v.tobytes() == v0.tobytes()


class TestEighAll:
    """Every spectrum is bitwise what ``np.linalg.eigh`` gives matrix by
    matrix, computed on the calling thread where it is first read; a model
    keeps each drive value's S B spectrum once it has one, and nothing for a
    drive value whose spectrum failed."""

    @staticmethod
    def model_and_drives(seed, count):
        """A built model and ``count`` random drive values for its system."""
        model = build_model(parse_scenario(str(SCENARIO)))
        rng = np.random.default_rng(seed)
        d_s = model.space(SB).dims[0]
        return model, [random_hermitian(rng, d_s) for _ in range(count)]

    @staticmethod
    def solver(monkeypatch, fails=None):
        """Put a recording solver in place of numpy's and return its log of
        matrices; it raises on a matrix equal to ``fails``."""
        log = []

        def recording(a):
            log.append(a)
            if fails is not None and np.array_equal(a, fails):
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return NUMPY_EIGH(a)

        monkeypatch.setattr(np.linalg, "eigh", recording)
        return log

    @pytest.mark.parametrize("order", ["reversed", "shuffled"])
    def test_out_of_order_resolution_is_bitwise_serial_eigh(self, monkeypatch, order):
        model, drives = self.model_and_drives(85, 9)
        mats = [model.space(SB).hamiltonian(h) for h in drives]
        log = self.solver(monkeypatch)
        idx = range(8, -1, -1) if order == "reversed" \
            else np.random.default_rng(85).permutation(9)
        got = {i: model.spectrum(SB, drives[i]) for i in idx}
        assert all(bitwise(got[i], mats[i]) for i in idx)
        assert [a.tobytes() for a in log] == [mats[i].tobytes() for i in idx]
        # twice, in drive order: each read after the first is the kept spectrum
        assert all(model.spectrum(SB, h) is got[i] for i, h in enumerate(drives))
        assert len(log) == len(drives)

    @pytest.mark.parametrize("rebind", ["numpy", "module alias"])
    def test_a_rebound_solver_sees_every_call_on_the_calling_thread_in_order(
            self, monkeypatch, rebind):
        # a tracer that wraps the solver nests spans by call order, so it
        # must see every call on the caller's thread, as it is made; the
        # benchmark's tracer gives each module its own ``np`` alias, a patch
        # rebinds numpy's.  A model's spectra are computed by its schedule's
        # memo, in channels
        model, drives = self.model_and_drives(83, 3)
        rng = np.random.default_rng(83)
        mats = [random_hermitian(rng, 64) for _ in range(2)]
        seen = []

        def recording(a, *args, **kwargs):
            seen.append((threading.get_ident(), a))
            return NUMPY_EIGH(a, *args, **kwargs)

        if rebind == "numpy":
            monkeypatch.setattr(np.linalg, "eigh", recording)
        else:
            linalg = types.SimpleNamespace(**{**vars(np.linalg), "eigh": recording})
            alias = types.SimpleNamespace(**{**vars(np), "linalg": linalg})
            for mod in (algebra, channels):
                monkeypatch.setattr(mod, "np", alias)
        eigs = [model.spectrum(SB, h) for h in drives]
        rho, u = gibbs_mat(mats[0], 1.0), expm_herm(mats[1], -1j)
        assert [ident for ident, _ in seen] == [threading.get_ident()] * 5
        want = [model.space(SB).hamiltonian(h) for h in drives]
        assert [a.tobytes() for _, a in seen[:3]] == [m.tobytes() for m in want]
        assert seen[3][1] is mats[0] and seen[4][1] is mats[1]
        assert all(bitwise(e, m) for e, m in zip(eigs, want))
        assert rho.tobytes() == gibbs_mat(None, 1.0, eig=NUMPY_EIGH(mats[0])).tobytes()
        assert u.tobytes() == expm_herm(None, -1j, eig=NUMPY_EIGH(mats[1])).tobytes()

    @pytest.mark.parametrize("cached", [True, False])
    def test_a_failed_matrix_raises_where_it_is_resolved(self, monkeypatch, cached):
        # the failure surfaces at the read of the failing drive value, on
        # every read, and the model's other spectra are untouched by it
        model, drives = self.model_and_drives(90, 4)
        mats = [model.space(SB).hamiltonian(h) for h in drives]
        log = self.solver(monkeypatch, fails=mats[2])
        if cached:    # every other spectrum already kept
            for i in (0, 1, 3):
                model.spectrum(SB, drives[i])
        for i in (3, 2, 1, 0):
            if i == 2:
                with pytest.raises(np.linalg.LinAlgError):
                    model.spectrum(SB, drives[i])
            else:
                assert bitwise(model.spectrum(SB, drives[i]), mats[i])
        with pytest.raises(np.linalg.LinAlgError):    # again, on every read
            model.spectrum(SB, drives[2])
        counts = [sum(np.array_equal(a, m) for a in log) for m in mats]
        assert counts == [1, 1, 2, 1]


class TestRoundTrips:
    def test_tensor_then_trace_recovers_marginal(self):
        rng = np.random.default_rng(71)
        rho_s, rho_b = random_density(rng, 2), random_density(rng, 3)
        joint = reorder_factors(np.kron(rho_b, rho_s), [3, 2], [1, 0])
        back = ptrace_factors(joint, [2, 3], [0])
        np.testing.assert_allclose(back, rho_s, atol=1e-13)

    def test_embed_expectation_consistency(self):
        rng = np.random.default_rng(72)
        h = random_hermitian(rng, 2)
        rho = random_density(rng, 12)
        full = embed_factors(h, [0], [2, 2, 3])
        direct = np.trace(full @ rho)
        marg = ptrace_index(rho, [2, 2, 3], [0])
        assert np.real(direct) == pytest.approx(np.real(np.trace(h @ marg)), abs=1e-12)
