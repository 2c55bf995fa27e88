"""Tests for the array linear algebra over ordered tensor factors."""

import math
import os
import signal
import threading
import time
import types

import numpy as np
import pytest

import proctherm.algebra as algebra
from proctherm.algebra import (
    eigh_all,
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
        rho, z = gibbs_mat(0.3 * np.eye(4), beta=2.0)
        np.testing.assert_allclose(rho, np.eye(4) / 4, atol=1e-13)
        assert z == pytest.approx(4 * math.exp(-2.0 * 0.3), rel=1e-12)

    def test_two_level_analytic(self):
        omega, beta = 1.3, 0.8
        rho, z = gibbs_mat(np.diag([0.0, omega]), beta)
        p = 1.0 / (1.0 + math.exp(-beta * omega))
        np.testing.assert_allclose(rho, np.diag([p, 1 - p]), atol=1e-13)
        assert z == pytest.approx(1 + math.exp(-beta * omega), rel=1e-12)

    def test_matches_spectral_oracle(self):
        rng = np.random.default_rng(61)
        h = random_hermitian(rng, 4)
        rho, z = gibbs_mat(h, beta=0.7)
        w, v = np.linalg.eigh(h)
        expected = v @ np.diag(np.exp(-0.7 * w)) @ v.conj().T
        np.testing.assert_allclose(rho, expected / np.trace(expected), atol=1e-12)
        assert z == pytest.approx(float(np.sum(np.exp(-0.7 * w))), rel=1e-10)

    def test_commutes_with_hamiltonian(self):
        rng = np.random.default_rng(62)
        h = random_hermitian(rng, 5)
        rho, _ = gibbs_mat(h, beta=1.1)
        assert max_norm(rho @ h - h @ rho) < 1e-11

    def test_log_partition_per_inverse_temperature(self):
        rng = np.random.default_rng(63)
        h = random_hermitian(rng, 5)
        z = gibbs_mat(h, 0.7)[1]
        assert log_partition(h, 0.7) == pytest.approx(math.log(z), rel=1e-12)


class TestEighAll:
    """A batch is bitwise what ``np.linalg.eigh`` gives matrix by matrix,
    whether it is split between two threads or not."""

    @staticmethod
    def two_cpus(monkeypatch):
        # the split is taken whatever the host's CPU count
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)

    @pytest.mark.parametrize("count", [2, 3, 8])
    def test_split_batch_is_bitwise_serial_eigh(self, monkeypatch, count):
        self.two_cpus(monkeypatch)
        rng = np.random.default_rng(81)
        mats = [random_hermitian(rng, 64) for _ in range(count)]
        got = eigh_all(mats)
        assert algebra._worker is not None    # the batch was split
        assert len(got) == count
        for m, (w, v) in zip(mats, got):
            w0, v0 = np.linalg.eigh(m)
            assert w.tobytes() == w0.tobytes() and v.tobytes() == v0.tobytes()

    @pytest.mark.parametrize("dims", [[64], [8] * 6, [64, 64, 8], []])
    def test_unsplit_batch_is_serial_eigh(self, monkeypatch, dims):
        self.two_cpus(monkeypatch)
        rng = np.random.default_rng(82)
        mats = [random_hermitian(rng, d) for d in dims]
        for m, (w, v) in zip(mats, eigh_all(mats), strict=True):
            w0, v0 = np.linalg.eigh(m)
            assert w.tobytes() == w0.tobytes() and v.tobytes() == v0.tobytes()

    @pytest.mark.parametrize("rebind", ["numpy", "module alias"])
    def test_a_rebound_solver_sees_every_call_on_the_calling_thread_in_order(
            self, monkeypatch, rebind):
        # a tracer that wraps the solver nests spans by call order, so it
        # must see the whole batch on one thread; the benchmark's tracer
        # gives the module its own ``np`` alias, a patch rebinds numpy's
        self.two_cpus(monkeypatch)
        seen = []
        solver = np.linalg.eigh

        def recording(a, *args, **kwargs):
            seen.append((threading.get_ident(), a))
            return solver(a, *args, **kwargs)

        if rebind == "numpy":
            monkeypatch.setattr(algebra.np.linalg, "eigh", recording)
        else:
            linalg = types.SimpleNamespace(**{**vars(np.linalg), "eigh": recording})
            alias = types.SimpleNamespace(**{**vars(np), "linalg": linalg})
            monkeypatch.setattr(algebra, "np", alias)
        rng = np.random.default_rng(83)
        mats = [random_hermitian(rng, 64) for _ in range(6)]
        got = eigh_all(mats)
        assert [ident for ident, _ in seen] == [threading.get_ident()] * len(mats)
        assert all(a is m for (_, a), m in zip(seen, mats, strict=True))
        for m, (w, v) in zip(mats, got):
            assert w.tobytes() == solver(m)[0].tobytes()

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="this platform has no fork")
    def test_a_child_forked_after_a_split_batch_splits_its_own(self, monkeypatch):
        # the child inherits the worker but not its thread; a batch handed
        # to that worker would never be taken up
        self.two_cpus(monkeypatch)
        rng = np.random.default_rng(84)
        mats = [random_hermitian(rng, 64) for _ in range(4)]
        want = [np.linalg.eigh(m) for m in mats]
        eigh_all(mats)
        assert algebra._worker is not None
        pid = os.fork()
        if pid == 0:
            status = 1
            try:
                got = eigh_all(mats)
                status = int(algebra._worker is None or not all(
                    w.tobytes() == w0.tobytes() and v.tobytes() == v0.tobytes()
                    for (w, v), (w0, v0) in zip(got, want, strict=True)))
            finally:
                os._exit(status)
        deadline = time.monotonic() + 60
        while (done := os.waitpid(pid, os.WNOHANG))[0] == 0:
            if time.monotonic() > deadline:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                pytest.fail("the child's split batch did not return within 60 s")
            time.sleep(0.01)
        assert os.waitstatus_to_exitcode(done[1]) == 0


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
