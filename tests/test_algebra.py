"""Tests for the array linear algebra over ordered tensor factors."""

import gc
import math
import os
import signal
import sys
import threading
import time
import types
import weakref

import numpy as np
import pytest

import proctherm.algebra as algebra
from proctherm.algebra import (
    eigh_ahead,
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


# every wait in these tests is bounded, and the ``deadline`` fixture bounds
# each whole test, so a deadlock fails a test instead of stalling the suite
WAIT_S = 60
NUMPY_EIGH = np.linalg.eigh    # the reference, whatever a test puts in its place


def bitwise(eig, mat):
    w, v = eig
    w0, v0 = NUMPY_EIGH(mat)
    return w.tobytes() == w0.tobytes() and v.tobytes() == v0.tobytes()


def drain():
    """Return once the worker has finished every batch handed to it."""
    algebra._worker.submit(lambda: None).result(timeout=WAIT_S)


@pytest.mark.usefixtures("deadline")
class TestEighAll:
    """Every handle of an :func:`eigh_ahead` batch resolves to bitwise what
    ``np.linalg.eigh`` gives matrix by matrix, whichever thread computes it,
    and each matrix is diagonalized once."""

    @staticmethod
    def two_cpus(monkeypatch):
        # the worker is used whatever the host's CPU count and quota
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setattr(algebra, "_cgroup_cpu_max", lambda: "")

    @staticmethod
    def solver(monkeypatch, gate=None, entered=None):
        """Put a recording solver in place of the worker's and numpy's (so a
        batch still goes to the worker), and return its log of (matrix,
        thread) pairs.  With ``gate``, the worker's first call sets
        ``entered`` and then holds until the gate opens (at most WAIT_S)."""
        log = []

        def recording(a):
            worker = threading.current_thread().name.startswith("eigh")
            if gate is not None and worker and not any(w for _, w in log):
                log.append((a, worker))
                entered.set()
                gate.wait(WAIT_S)
            else:
                log.append((a, worker))
            if np.isnan(a).any():
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return NUMPY_EIGH(a)

        monkeypatch.setattr(algebra, "_EIGH", recording)
        monkeypatch.setattr(algebra.np.linalg, "eigh", recording)
        return log

    @staticmethod
    def held_worker(monkeypatch, mats):
        """A batch of ``mats`` whose first matrix the worker holds, its log,
        and the gate that frees it."""
        gate, entered = threading.Event(), threading.Event()
        log = TestEighAll.solver(monkeypatch, gate, entered)
        handles = eigh_ahead(mats)
        assert entered.wait(WAIT_S), "the worker never took the batch"
        return handles, log, gate

    @pytest.mark.parametrize("count", [2, 3, 8])
    def test_split_batch_is_bitwise_serial_eigh(self, monkeypatch, count):
        self.two_cpus(monkeypatch)
        rng = np.random.default_rng(81)
        mats = [random_hermitian(rng, 64) for _ in range(count)]
        got = eigh_ahead(mats)
        assert algebra._worker is not None    # the batch went to the worker
        assert len(got) == count
        assert all(bitwise(h.result(), m) for h, m in zip(got, mats))

    @pytest.mark.parametrize("order", ["reversed", "shuffled"])
    def test_out_of_order_resolution_is_bitwise_serial_eigh(self, monkeypatch, order):
        self.two_cpus(monkeypatch)
        rng = np.random.default_rng(85)
        mats = [random_hermitian(rng, 64) for _ in range(9)]
        got = eigh_ahead(mats)
        idx = range(8, -1, -1) if order == "reversed" else rng.permutation(9)
        assert all(bitwise(got[i].result(), mats[i]) for i in idx)
        assert all(bitwise(h.result(), m) for h, m in zip(got, mats))    # twice

    @pytest.mark.parametrize("dims", [[64], [8] * 6, [64, 64, 8], []])
    def test_unsplit_batch_is_serial_eigh(self, monkeypatch, dims):
        self.two_cpus(monkeypatch)
        rng = np.random.default_rng(82)
        mats = [random_hermitian(rng, d) for d in dims]
        for m, h in zip(mats, eigh_ahead(mats), strict=True):
            assert bitwise(h.result(), m)

    def test_a_cpu_quota_below_two_keeps_the_batch_on_the_caller(self, monkeypatch):
        self.two_cpus(monkeypatch)
        monkeypatch.setattr(algebra, "_cgroup_cpu_max", lambda: "150000 100000")
        monkeypatch.setattr(algebra, "_worker", None)
        rng = np.random.default_rng(86)
        mats = [random_hermitian(rng, 64) for _ in range(4)]
        got = eigh_ahead(mats)
        assert algebra._worker is None
        assert all(bitwise(h.result(), m) for h, m in zip(got, mats))

    @pytest.mark.parametrize("text, cpus", [("", None), ("max 100000", None),
                                            ("-1 100000", None), ("50000 100000", 1),
                                            ("250000 100000", 2), ("150000 100000", 1)])
    def test_quota_text_reads_as_whole_cpus(self, text, cpus):
        # cgroup v2 cpu.max, or v1 cfs_quota_us and cfs_period_us joined
        assert algebra._quota_cpus(text) == cpus

    @pytest.mark.parametrize("rebind", ["numpy", "module alias"])
    def test_a_rebound_solver_sees_every_call_on_the_calling_thread_in_order(
            self, monkeypatch, rebind):
        # a tracer that wraps the solver nests spans by call order, so it
        # must see the whole batch on one thread, at submission; the
        # benchmark's tracer gives the module its own ``np`` alias, a patch
        # rebinds numpy's
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
        got = eigh_ahead(mats)
        assert [ident for ident, _ in seen] == [threading.get_ident()] * len(mats)
        assert all(a is m for (_, a), m in zip(seen, mats, strict=True))
        for m, h in zip(mats, got):
            assert h.result()[0].tobytes() == solver(m)[0].tobytes()
        assert len(seen) == len(mats)

    @pytest.mark.parametrize("order", ["in order", "reversed"])
    def test_each_matrix_is_diagonalized_once_across_both_threads(self, monkeypatch, order):
        self.two_cpus(monkeypatch)
        log = self.solver(monkeypatch)
        rng = np.random.default_rng(87)
        mats = [random_hermitian(rng, 64) for _ in range(12)]
        got = eigh_ahead(mats)
        for h in (got if order == "in order" else got[::-1]):
            h.result()
        drain()
        assert sorted(id(a) for a, _ in log) == sorted(id(m) for m in mats)
        assert all(bitwise(h.result(), m) for h, m in zip(got, mats))

    def test_a_resolved_batch_keeps_no_matrix_alive(self, monkeypatch):
        # with the collector off only reference counts free the matrices,
        # so a reference cycle through the batch would keep them alive
        self.two_cpus(monkeypatch)
        rng = np.random.default_rng(93)
        mats = [random_hermitian(rng, 64) for _ in range(8)]
        refs = [weakref.ref(m) for m in mats]
        gc.disable()
        try:
            handles = eigh_ahead(mats)
            del mats
            assert algebra._worker is not None    # the batch went to the worker
            for h in handles[::-1]:
                h.result()
            drain()
            del handles, h
            assert [r() for r in refs] == [None] * len(refs)
        finally:
            gc.enable()

    def test_the_caller_takes_what_the_worker_has_not_reached(self, monkeypatch):
        # the worker holds the first matrix; the caller computes the rest
        # as it asks for them, without waiting
        self.two_cpus(monkeypatch)
        rng = np.random.default_rng(88)
        mats = [random_hermitian(rng, 64) for _ in range(5)]
        handles, log, gate = self.held_worker(monkeypatch, mats)
        try:
            assert all(bitwise(h.result(), m) for h, m in zip(handles[1:], mats[1:]))
            assert not gate.is_set()
        finally:
            gate.set()
        assert bitwise(handles[0].result(), mats[0])
        assert [(id(a), w) for a, w in log] == [(id(mats[0]), True)] + [
            (id(m), False) for m in mats[1:]]

    def test_the_caller_steals_from_the_back_while_the_worker_holds_its_matrix(
            self, monkeypatch):
        # asked for the matrix the worker holds, the caller computes the
        # last unclaimed one, and so on to the front; only then does it wait
        self.two_cpus(monkeypatch)
        rng = np.random.default_rng(89)
        mats = [random_hermitian(rng, 64) for _ in range(5)]
        handles, log, gate = self.held_worker(monkeypatch, mats)
        own = algebra._EIGH

        def opening(a):    # the caller's last steal frees the worker
            out = own(a)
            if a is mats[1]:
                gate.set()
            return out

        monkeypatch.setattr(algebra, "_EIGH", opening)
        try:
            assert bitwise(handles[0].result(), mats[0])
        finally:
            gate.set()
        assert [(id(a), w) for a, w in log] == [(id(mats[0]), True)] + [
            (id(m), False) for m in mats[:0:-1]]
        assert all(bitwise(h.result(), m) for h, m in zip(handles, mats))

    def test_callers_on_many_threads_compute_each_matrix_once(self, monkeypatch):
        # four callers and the worker share each batch, switching threads as
        # often as the interpreter allows: a lost claim shows as a matrix
        # computed twice, and a lost wake-up as a caller still waiting
        self.two_cpus(monkeypatch)
        log = self.solver(monkeypatch)
        rng = np.random.default_rng(92)
        batches = [[random_hermitian(rng, 32) for _ in range(6)] for _ in range(10)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for mats in batches:
                handles, done = eigh_ahead(mats), []

                def resolve(order):    # appends nothing if it raises or hangs
                    done.append(all(bitwise(handles[i].result(), mats[i]) for i in order))

                threads = [threading.Thread(target=resolve, args=(rng.permutation(6),))
                           for _ in range(4)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(WAIT_S)
                assert done == [True] * len(threads)
        finally:
            sys.setswitchinterval(interval)
        drain()
        assert sorted(id(a) for a, _ in log) == sorted(id(m) for b in batches for m in b)

    @pytest.mark.parametrize("drained", [True, False])
    def test_a_failed_matrix_raises_where_it_is_resolved(self, monkeypatch, drained):
        self.two_cpus(monkeypatch)
        self.solver(monkeypatch)
        rng = np.random.default_rng(90)
        mats = [random_hermitian(rng, 64) for _ in range(4)]
        mats[2] = np.full((64, 64), np.nan, dtype=complex)
        got = eigh_ahead(mats)
        if drained:    # every matrix computed by the worker
            drain()
        for i in (3, 2, 1, 0):
            if i == 2:
                with pytest.raises(np.linalg.LinAlgError):
                    got[i].result()
            else:
                assert bitwise(got[i].result(), mats[i])
        with pytest.raises(np.linalg.LinAlgError):    # again, on every ask
            got[2].result()
        again = eigh_ahead(mats[:2])    # the next batch still works
        assert all(bitwise(h.result(), m) for h, m in zip(again, mats))

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="this platform has no fork")
    def test_a_child_forked_after_a_split_batch_splits_its_own(self, monkeypatch):
        # the child inherits the worker but not its thread; a batch handed
        # to that worker would never be taken up
        self.two_cpus(monkeypatch)
        rng = np.random.default_rng(84)
        mats = [random_hermitian(rng, 64) for _ in range(4)]
        for h in eigh_ahead(mats):
            h.result()
        assert algebra._worker is not None
        pid = os.fork()
        if pid == 0:
            status = 1
            try:
                got = eigh_ahead(mats)
                status = int(algebra._worker is None or not all(
                    bitwise(h.result(), m) for h, m in zip(got, mats, strict=True)))
            finally:
                os._exit(status)
        self.wait_for(pid, "the child's batch")

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="this platform has no fork")
    def test_a_child_forked_while_the_worker_holds_a_matrix_computes_it(self, monkeypatch):
        # in the child, no thread will finish the matrix the parent's worker
        # holds: the child computes it rather than wait on it
        self.two_cpus(monkeypatch)
        rng = np.random.default_rng(91)
        mats = [random_hermitian(rng, 64) for _ in range(4)]
        handles, _, gate = self.held_worker(monkeypatch, mats)
        try:
            pid = os.fork()
            if pid == 0:
                status = 1
                try:
                    status = int(not bitwise(handles[0].result(), mats[0]))
                finally:
                    os._exit(status)
            self.wait_for(pid, "the held matrix")
        finally:
            gate.set()
        assert all(bitwise(h.result(), m) for h, m in zip(handles, mats))

    @staticmethod
    def wait_for(pid, what):
        deadline = time.monotonic() + WAIT_S
        while (done := os.waitpid(pid, os.WNOHANG))[0] == 0:
            if time.monotonic() > deadline:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                pytest.fail(f"{what} did not resolve in the child within {WAIT_S} s")
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
