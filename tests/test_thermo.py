"""Tests for the thermodynamic functionals and their identities."""

import math
import warnings

import numpy as np
import pytest

from proctherm.algebra import embed_factors, gibbs_mat, log_partition, max_norm, ptrace_factors
from proctherm.channels import CPMap, Instrument
from proctherm.protocol import Protocol, Segment
from proctherm.simulate import AutonomousModel, Simulator
from proctherm.thermo import ConventionError, ThermoEvaluator, evaluate_run

from oracles import (
    mean_force,
    mean_force_dbeta,
    mean_force_full_product,
    random_density,
    random_hermitian,
    richardson_halving,
    singular_control_work,
    tpm_work,
    work_measurement_alternative,
)

SX = np.array([[0, 1], [1, 0]], dtype=complex)
P0 = np.array([[1, 0], [0, 0]], dtype=complex)
P1 = np.array([[0, 0], [0, 1]], dtype=complex)
PLUS = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
MINUS = np.array([[0.5, -0.5], [-0.5, 0.5]], dtype=complex)


def projective_z():
    return Instrument([("1", CPMap([P0])), ("2", CPMap([P1]))])


def x_readout():
    return Instrument([("+", CPMap([PLUS])), ("-", CPMap([MINUS]))])


# ---------------------------------------------------------------------------
# Hamiltonian of mean force
# ---------------------------------------------------------------------------

class TestMeanForce:
    def coupled(self, g, beta=1.0, h_s=None, h_b=None):
        h_s = np.diag([0.0, 1.0]) if h_s is None else h_s
        h_b = np.diag([0.0, 0.9]) if h_b is None else h_b
        h = np.kron(h_s, np.eye(2)) + np.kron(np.eye(2), h_b) + g * np.kron(SX, SX)
        return h.astype(complex), h_s, h_b

    def test_joint_hamiltonian_diagonalized_once_per_drive_value(self, monkeypatch):
        # H_SB depends on the drive alone: the Gibbs start, the propagators
        # of its segments, and H*, its beta-derivative and ln Z* all share
        # one eigh of it across the assembly, the run and its evaluation;
        # the mean force then diagonalizes one d_S x d_S matrix, M = tr_B
        # exp(-beta H_SB) up to a scalar, per drive value
        rng = np.random.default_rng(12)
        drives = [np.diag([0.0, 1.0]) + c * SX for c in (0.0, 0.2, 0.5)]
        proto = Protocol([Segment(0.5 * i, 0.5 * (i + 1), h) for i, h in enumerate(drives)])
        eigh, inputs = np.linalg.eigh, []

        def counted(a, *args, **kwargs):
            inputs.append(np.array(a))
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counted)
        model = AutonomousModel.assemble(
            s_dim=2, b_dim=3, beta=1.0, protocol=proto,
            h_bath=np.diag([0.0, 0.7, 1.3]), v_coupling=0.4 * random_hermitian(rng, 6),
            steps=[{"time": 0.7, "instrument": projective_z()}])
        evaluate_run(Simulator(model).run(report_times=[0.25, 0.75, 1.25]))
        joint = [a for a in inputs if a.shape == (6, 6)]
        assert len(joint) == len(drives)
        assert len({a.tobytes() for a in joint}) == len(drives)
        assert len([a for a in inputs if a.shape == (2, 2)]) == len(drives)

    @pytest.mark.parametrize("low", [False, True], ids=["beta-1", "lowest-eigenvalue-below-1e-10"])
    @pytest.mark.parametrize("dims, keep, beta_low", [((2, 32), [0], 28.0),
                                                      ((2, 2, 2, 2), [0, 2, 3], 3.5),
                                                      ((3, 4), [0], 14.0),
                                                      ((2, 3, 2), [0, 2], 14.0)],
                             ids=["2x32", "2x2x2x2", "3x4", "2x3x2"])
    def test_matches_the_full_product_oracle(self, dims, keep, beta_low, low):
        # kept factors with levels 0, 1, ..., on a random bath; at beta = 1 a
        # random coupling mixes every level, at beta_low it acts per level of
        # the kept factors, so both routes resolve M's smallest eigenvalue to
        # its own relative precision
        rng = np.random.default_rng(len(dims) + 10 * len(keep))
        traced = [i for i in range(len(dims)) if i not in keep]
        d_x, d_b = math.prod(dims[i] for i in keep), math.prod(dims[i] for i in traced)
        h_b = random_hermitian(rng, d_b)
        if low:
            coupling = sum(np.kron(np.diag(np.eye(d_x)[a]), random_hermitian(rng, d_b, scale=0.3))
                           for a in range(d_x))
        else:
            coupling = random_hermitian(rng, d_x * d_b, scale=0.3)
        h = embed_factors(np.kron(np.diag(np.arange(d_x, dtype=float)), np.eye(d_b))
                          + np.kron(np.eye(d_x), h_b) + coupling, keep + traced, dims)
        beta = beta_low if low else 1.0
        w, v = np.linalg.eigh(h)
        m = ptrace_factors((v * np.exp(-beta * (w - w[0]))) @ v.conj().T, dims, keep)
        assert (np.linalg.eigvalsh(m)[0] < 1e-10) == low
        h_star, dh, _ = mean_force(h, dims, keep, beta, h_b)
        ref_h_star, ref_dh = mean_force_full_product(h, dims, keep, beta, h_b)
        np.testing.assert_allclose(h_star, ref_h_star, rtol=0, atol=1e-12)
        np.testing.assert_allclose(dh, ref_dh, rtol=0, atol=1e-12)

    def test_decoupled_limit_is_bare(self):
        h_xb, h_s, h_b = self.coupled(0.0)
        h_star, dh, _ = mean_force(h_xb, [2, 2], [0], 1.3, h_b)
        np.testing.assert_allclose(h_star, h_s, atol=1e-11)
        assert max_norm(dh) < 1e-8

    def test_degenerate_hamiltonian(self):
        # fully degenerate joint Hamiltonian with a trivial bath term:
        # H* is the same multiple of the identity, the reduced state flat
        h_star = mean_force(0.4 * np.eye(4), [2, 2], [0], 0.8)[0]
        np.testing.assert_allclose(h_star, 0.4 * np.eye(2), atol=1e-10)
        pi = np.linalg.eigvalsh(gibbs_mat(h_star, 0.8))
        np.testing.assert_allclose(pi, [0.5, 0.5], atol=1e-12)

    def test_reduced_gibbs_state_identity(self):
        # tr_B of the joint thermal state equals exp(-beta H*)/Z*
        beta = 1.0
        h_xb, _, h_b = self.coupled(0.5, beta)
        h_star, _, ln_z_star = mean_force(h_xb, [2, 2], [0], beta, h_b)
        pi_xb = gibbs_mat(h_xb, beta)
        reduced = ptrace_factors(pi_xb, [2, 2], [0])
        model_side = gibbs_mat(h_star, beta)
        np.testing.assert_allclose(reduced, model_side, atol=1e-10)
        # and the partition normalization Z* = Z_XB / Z_B
        z_ratio = math.exp(log_partition(h_xb, beta) - log_partition(h_b, beta))
        assert math.exp(ln_z_star) == pytest.approx(z_ratio, rel=1e-9)

    def test_beta_derivative_matches_perturbation_oracle(self):
        beta = 1.0
        h_xb, _, h_b = self.coupled(0.5, beta)
        np.testing.assert_allclose(mean_force(h_xb, [2, 2], [0], beta, h_b)[1],
                                   mean_force_dbeta(h_xb, (2, 2), h_b, beta),
                                   rtol=0, atol=1e-12)

    @pytest.mark.parametrize("seed", range(20))
    def test_beta_derivative_on_random_models(self, seed):
        # a random coupling: M = tr_B exp(-beta H_SB) and its beta-derivative
        # do not commute, so every off-diagonal divided difference counts
        rng = np.random.default_rng([20, seed])
        d_s, d_b = (int(d) for d in rng.integers(2, 4, size=2))
        h_b = random_hermitian(rng, d_b)
        h = (np.kron(random_hermitian(rng, d_s), np.eye(d_b)) + np.kron(np.eye(d_s), h_b)
             + random_hermitian(rng, d_s * d_b, scale=0.5))
        beta = float(rng.uniform(0.3, 2.0))
        np.testing.assert_allclose(mean_force(h, [d_s, d_b], [0], beta, h_b)[1],
                                   mean_force_dbeta(h, (d_s, d_b), h_b, beta),
                                   rtol=0, atol=1e-12)

    def test_beta_derivative_of_degenerate_hamiltonian(self):
        h = 0.4 * np.eye(4)
        np.testing.assert_allclose(mean_force(h, [2, 2], [0], 0.8, np.zeros((2, 2)))[1],
                                   mean_force_dbeta(h, (2, 2), np.zeros((2, 2)), 0.8),
                                   rtol=0, atol=1e-12)

    @pytest.mark.parametrize("g", [1e-4, 1e-8])
    def test_beta_derivative_near_degeneracy(self, g):
        # H_S = 0: M is the identity times Z_B up to O(g^2), so its
        # eigenvalues nearly coincide; checked against a Richardson-refined
        # central difference of H* itself, step 1e-3 beta
        beta, step = 1.1, 1.1e-3
        h_xb, _, h_b = self.coupled(g, beta, h_s=np.zeros((2, 2)))

        def h_star(b):
            return mean_force(h_xb, [2, 2], [0], b, h_b)[0]

        diffs = [(h_star(beta + d) - h_star(beta - d)) / (2 * d) for d in (step, step / 2)]
        np.testing.assert_allclose(mean_force(h_xb, [2, 2], [0], beta, h_b)[1],
                                   richardson_halving(diffs, (2,)),
                                   rtol=0, atol=1e-12)

    def sz_sx(self, beta):
        """sigma_z x sigma_x coupling: H_SB is block-diagonal in the system
        basis, so H* is diagonal with one logsumexp per system level."""
        h_xb, _, h_b = self.coupled(0.0, beta, h_s=np.diag([0.0, 5.0]))
        h = h_xb + 0.3 * np.kron(np.diag([1.0, -1.0]), SX)

        def logsumexp(x):
            return x.max() + np.log(np.sum(np.exp(x - x.max())))

        ln_z_b = logsumexp(-beta * np.diag(h_b))
        closed = [(ln_z_b - logsumexp(-beta * np.linalg.eigvalsh(block))) / beta
                  for block in (h[:2, :2], h[2:, 2:])]
        return h, h_b, closed

    def test_upper_level_matches_the_per_level_closed_form(self):
        # the excited level's Boltzmann weight exp(-500) is tiny but resolved
        beta = 100.0
        h, h_b, closed = self.sz_sx(beta)
        np.testing.assert_allclose(mean_force(h, [2, 2], [0], beta, h_b)[0], np.diag(closed),
                                   rtol=0, atol=1e-12)

    def test_underflowing_boltzmann_weight_is_a_convention_error(self):
        # at beta = 200 the excited level's weight exp(-1000) underflows, so
        # M's lowest eigenvalue no longer fixes H*: raise rather than return
        # a wrong upper level, without a RuntimeWarning on the way
        beta = 200.0
        h, h_b, _ = self.sz_sx(beta)
        w, v = np.linalg.eigh(h)
        m = ptrace_factors((v * np.exp(-beta * (w - w[0]))) @ v.conj().T, [2, 2], [0])
        assert np.linalg.eigvalsh(m)[0] <= 1e-300
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConventionError, match="mean force"):
                mean_force(h, [2, 2], [0], beta, h_b)

    def test_weak_coupling_limit_scaling(self):
        beta = 1.0
        norms = []
        for g in (1e-2, 1e-3, 1e-4):
            h_xb, h_s, h_b = self.coupled(g, beta)
            norms.append(max_norm(mean_force(h_xb, [2, 2], [0], beta, h_b)[0] - h_s))
        assert norms[0] / norms[1] >= 10
        assert norms[1] / norms[2] >= 10


# ---------------------------------------------------------------------------
# scenario fixtures
# ---------------------------------------------------------------------------

def strong_coupling_model(*, feedback=True, beta=1.0):
    """Driven qubit, qubit bath at g ~ level spacing, two interventions."""
    h0 = np.diag([0.0, 1.0])
    h1 = np.diag([0.0, 1.0]) + 0.5 * SX
    proto = Protocol(
        [Segment(0.0, 0.8, h0), Segment(0.8, 2.0, h1)],
        variants={("2",): [Segment(0.0, 0.8, h0), Segment(0.8, 2.0, h0 + 0.3 * SX)]}
        if feedback else None)
    fb = None
    if feedback:
        # override must share the alphabet of the base instrument
        z_as_x = Instrument([("+", CPMap([P0])), ("-", CPMap([P1]))])
        fb = {1: {("2",): z_as_x}}
    return AutonomousModel.assemble(
        s_dim=2, b_dim=2, beta=beta, protocol=proto,
        h_bath=np.diag([0.0, 1.1]),
        v_coupling=0.5 * np.kron(SX, SX),
        steps=[{"time": 0.4, "instrument": projective_z()},
               {"time": 1.2, "instrument": x_readout()}],
        feedback=fb)


def ancilla_energy_model():
    """Partial-swap collision with an energetic ancilla, X-basis readout.

    Built so the two measurement-work conventions disagree per branch.
    """
    theta = 2 * np.pi / 5
    swap = np.eye(4)[[0, 2, 1, 3]].astype(complex)
    from proctherm.algebra import expm_herm, unitary_log_generator
    u_partial = expm_herm(unitary_log_generator(swap), -1j * theta)
    eps = 0.8
    return AutonomousModel.assemble(
        s_dim=2, b_dim=2, beta=1.0,
        protocol=Protocol([Segment(0.0, 0.5, np.diag([0.0, 1.0])),
                           Segment(0.5, 2.0, np.diag([0.0, 1.6]))]),
        h_bath=np.diag([0.0, 0.9]), v_coupling=0.3 * np.kron(SX, SX),
        steps=[{"time": 0.3, "instrument": projective_z()},
               {"time": 1.0,
                "collision": {"ancilla_state": gibbs_mat(np.diag([0.0, eps]), 1.0),
                              "unitary": u_partial,
                              "projectors": [PLUS, MINUS],
                              "labels": ("+", "-")},
                "h_ancilla": np.diag([0.0, eps])}])


# ---------------------------------------------------------------------------
# the laws
# ---------------------------------------------------------------------------

class TestFirstLaw:
    @pytest.mark.parametrize("maker", [
        lambda: strong_coupling_model(feedback=True),
        lambda: strong_coupling_model(feedback=False),
        ancilla_energy_model,
    ])
    def test_energy_budget_closes(self, maker):
        model = maker()
        result = Simulator(model).run(report_times=[0.2, 0.7, 1.5, 2.0])
        ledger = evaluate_run(result)
        for row in ledger.ensemble_rows:
            # accumulated switch/kick/measurement work vs global energy change
            assert abs(row.w - row.w_budget) < 1e-9
            # first law per ensemble by construction of q; check aggregation
            assert abs(row.q - (row.du - row.w)) < 1e-12

    def test_per_branch_first_law(self):
        model = strong_coupling_model()
        result = Simulator(model).run(report_times=[0.6, 1.5, 2.0])
        ledger = evaluate_run(result)
        for t, rows in ledger.branch_rows.items():
            for r in rows:
                assert abs(r.q - (r.du - r.w)) < 1e-9
                assert abs(r.q_alt - (r.du - r.w_alt)) < 1e-9

    def test_free_energy_identity(self):
        model = strong_coupling_model()
        result = Simulator(model).run(report_times=[0.6, 2.0])
        ledger = evaluate_run(result)
        beta = model.beta
        for t, rows in ledger.branch_rows.items():
            for r in rows:
                assert abs(r.f - (r.u - r.s / beta)) < 1e-10
        for row in ledger.ensemble_rows:
            assert abs(row.f - (row.u - row.s / beta)) < 1e-10

    def test_constant_protocol_zero_driving_work(self):
        model = AutonomousModel.assemble(
            s_dim=2, b_dim=2, beta=1.0,
            protocol=Protocol([Segment(0.0, 2.0, np.diag([0.0, 1.0]))]),
            h_bath=np.diag([0.0, 1.0]), v_coupling=0.2 * np.kron(SX, SX),
            steps=[])
        result = Simulator(model).run(report_times=[2.0])
        rows = evaluate_run(result).branch_rows[2.0]
        assert rows[0].w_sys == 0.0

    def test_sudden_quench_work(self):
        # quench 0->2x the gap on the excited state books one gap of work
        omega = 1.0
        sb = np.kron(P1, np.eye(2) / 2)
        model = AutonomousModel.assemble(
            s_dim=2, b_dim=2, beta=1.0,
            protocol=Protocol([Segment(0.0, 1.0, np.diag([0.0, omega])),
                               Segment(1.0, 2.0, np.diag([0.0, 2 * omega]))]),
            steps=[], sb_init=sb)
        result = Simulator(model).run(report_times=[2.0])
        rows = evaluate_run(result).branch_rows[2.0]
        assert rows[0].w_sys == pytest.approx(omega, abs=1e-12)

    def test_ramp_work_matches_quadrature_oracle(self):
        # midpoint-discretized ramp at n=1000 vs continuum quadrature
        from proctherm.protocol import discretize_ramp
        h0 = np.diag([0.0, 1.0])
        h1 = np.diag([0.0, 1.0]) + 0.5 * SX
        rho0 = gibbs_mat(h0, 1.0)
        works = {}
        for n in (10, 1000):
            segs = discretize_ramp(h0, h1, 0.0, 1.0, n)
            model = AutonomousModel.assemble(
                s_dim=2, b_dim=1, beta=1.0, protocol=Protocol(segs), steps=[],
                sb_init=np.kron(rho0, np.eye(1)))
            result = Simulator(model).run(report_times=[1.0])
            works[n] = evaluate_run(result).branch_rows[1.0][0].w_sys
        # oracle: fine exact evolution plus Simpson quadrature of the power
        from proctherm.algebra import expm_herm
        n_f = 4000
        rho = rho0.copy()
        power = []
        dh = h1 - h0
        for j in range(n_f + 1):
            t = j / n_f
            power.append(float(np.real(np.trace(dh @ rho))))
            if j < n_f:
                s_mid = (t + 0.5 / n_f)
                h_mid = (1 - s_mid) * h0 + s_mid * h1
                u = expm_herm(h_mid, -1j / n_f)
                rho = u @ rho @ u.conj().T
        w_cont = float(np.trapezoid(power, dx=1.0 / n_f))
        assert abs(works[1000] - w_cont) < 1e-6
        assert abs(works[10] - w_cont) < 1e-2
        assert abs(works[1000] - w_cont) < abs(works[10] - w_cont)


class TestSecondLaw:
    def test_equilibrium_is_reversible(self):
        model = AutonomousModel.assemble(
            s_dim=2, b_dim=2, beta=1.0,
            protocol=Protocol([Segment(0.0, 2.0, np.diag([0.0, 1.0]))]),
            h_bath=np.diag([0.0, 1.0]), v_coupling=0.3 * np.kron(SX, SX),
            steps=[])
        result = Simulator(model).run(report_times=[0.7, 2.0])
        for row in evaluate_run(result).ensemble_rows:
            assert abs(row.sigma_first_law) < 1e-10
            assert abs(row.sigma_rel_ent) < 1e-10

    @pytest.mark.parametrize("maker", [
        lambda: strong_coupling_model(feedback=True),
        lambda: strong_coupling_model(feedback=False),
        ancilla_energy_model,
    ])
    def test_both_forms_agree_and_are_positive(self, maker):
        model = maker()
        result = Simulator(model).run(report_times=[0.2, 0.7, 1.5, 2.0])
        for row in evaluate_run(result).ensemble_rows:
            assert row.sigma_rel_ent is not None
            assert abs(row.sigma_first_law - row.sigma_rel_ent) < 1e-8
            assert row.sigma_first_law >= -1e-9

    def test_non_gibbs_initial_state_flagged(self):
        sb = np.kron(P1, np.eye(2) / 2)
        model = AutonomousModel.assemble(
            s_dim=2, b_dim=2, beta=1.0,
            protocol=Protocol([Segment(0.0, 1.0, np.diag([0.0, 1.0]))]),
            steps=[], sb_init=sb)
        result = Simulator(model).run(report_times=[1.0])
        row = evaluate_run(result).ensemble_rows[0]
        assert row.sigma_rel_ent is None


class TestMeasurementWorkConventions:
    def test_degenerate_ancilla_has_zero_canonical_work(self):
        model = strong_coupling_model()
        result = Simulator(model).run(report_times=[2.0])
        for trace in result.traces:
            for tr in trace.per_prefix.values():
                for label in tr.cond_probs:
                    assert abs(tr.w_meas[label]) < 1e-12

    def test_energy_eigenbasis_readout_has_zero_canonical_work(self):
        # thermal ancilla read out in its own energy eigenbasis
        eps = 0.8
        model = AutonomousModel.assemble(
            s_dim=2, b_dim=1, beta=1.0,
            protocol=Protocol([Segment(0.0, 1.0, np.diag([0.0, 1.0]))]),
            steps=[{"time": 0.5,
                    "collision": {"ancilla_state": gibbs_mat(np.diag([0.0, eps]), 1.0),
                                  "unitary": np.eye(4)[[0, 2, 1, 3]].astype(complex),
                                  "projectors": [P0, P1]},
                    "h_ancilla": np.diag([0.0, eps])}],
            sb_init=np.kron(random_density(np.random.default_rng(3), 2), np.eye(1)))
        result = Simulator(model).run()
        trace = result.traces[0]
        # average canonical work vanishes since the post-control ancilla
        # is diagonal in its energy basis here (swap of diagonal states)
        avg = sum(tr.weight * p * tr.w_meas[l]
                  for tr in trace.per_prefix.values()
                  for l, p in tr.cond_probs.items())
        assert abs(avg) < 1e-12

    def test_x_readout_of_energetic_ancilla(self):
        # ancilla prepared in |+>, identity control, computational readout:
        # the canonical work splits symmetrically around zero
        eps = 0.8
        plus_anc = PLUS.copy()
        model = AutonomousModel.assemble(
            s_dim=2, b_dim=1, beta=1.0,
            protocol=Protocol([Segment(0.0, 1.0, np.zeros((2, 2)))]),
            steps=[{"time": 0.5,
                    "collision": {"ancilla_state": plus_anc,
                                  "unitary": np.eye(4, dtype=complex),
                                  "projectors": [P0, P1]},
                    "h_ancilla": np.diag([0.0, eps])}],
            sb_init=np.kron(np.eye(2) / 2, np.eye(1)))
        result = Simulator(model).run()
        tr = next(iter(result.traces[0].per_prefix.values()))
        assert tr.w_meas["1"] == pytest.approx(-eps / 2, abs=1e-12)
        assert tr.w_meas["2"] == pytest.approx(+eps / 2, abs=1e-12)
        avg = sum(tr.cond_probs[l] * tr.w_meas[l] for l in ("1", "2"))
        assert abs(avg) < 1e-12
        # system and ancilla stay uncorrelated (identity control on a product
        # state), so the knowledge-update convention coincides branch by branch
        for l in ("1", "2"):
            assert tr.w_meas_alt[l] == pytest.approx(tr.w_meas[l], abs=1e-12)

    def test_conventions_agree_on_average_disagree_per_branch(self):
        model = ancilla_energy_model()
        result = Simulator(model).run(report_times=[2.0])
        gaps = []
        for trace in result.traces:
            assert trace.average_work_gap() < 1e-10
            gaps.append(float(np.max(np.abs(trace.w_meas - trace.w_meas_alt), initial=0.0)))
        assert max(gaps) > 1e-3

    def test_trace_accessors(self):
        model = ancilla_energy_model()
        result = Simulator(model).run()
        trace = result.traces[1]
        some = next(iter(result.final.branches.values()))
        w_a = work_measurement_alternative(trace, some.labels)
        assert np.isfinite(w_a)
        with pytest.raises(KeyError):
            work_measurement_alternative(trace, ("x", "y"))

    def test_no_average_measurement_heat(self):
        # isolated system+ancilla, identity control, rotated readout: the
        # canonical convention books per-branch measurement heat, but the
        # ensemble energy change across the readout is entirely work
        eps = 0.8
        from proctherm.algebra import expm_herm, unitary_log_generator
        swap = np.eye(4)[[0, 2, 1, 3]].astype(complex)
        u_partial = expm_herm(unitary_log_generator(swap), -1j * 0.9)
        psi = np.array([0.8, 0.6])  # system coherence feeds the readout update
        model = AutonomousModel.assemble(
            s_dim=2, b_dim=1, beta=1.0,
            protocol=Protocol([Segment(0.0, 1.0, np.diag([0.0, 1.3]))]),
            steps=[{"time": 0.5,
                    "collision": {"ancilla_state": gibbs_mat(np.diag([0.0, eps]), 1.0),
                                  "unitary": u_partial,
                                  "projectors": [PLUS, MINUS]},
                    "h_ancilla": np.diag([0.0, eps])}],
            sb_init=np.kron(np.outer(psi, psi), np.eye(1)))
        result = Simulator(model).run(report_times=[1.0])
        trace = result.traces[0]
        tr = next(iter(trace.per_prefix.values()))
        # per-branch: energy change of system+ancilla minus canonical work
        heats = {l: tr.w_meas_alt[l] - tr.w_meas[l] for l in tr.cond_probs}
        assert max(abs(v) for v in heats.values()) > 1e-3
        avg_heat = sum(tr.cond_probs[l] * heats[l] for l in heats)
        assert abs(avg_heat) < 1e-12


class TestTwoPointMeasurement:
    def tpm_model(self, seed=11):
        rng = np.random.default_rng(seed)
        h0 = np.diag([0.0, 0.7, 1.6])
        mix = random_hermitian(rng, 3, scale=0.6)
        h_mid = h0 + mix
        h1 = np.diag([0.1, 1.0, 2.1])
        proj0 = [np.diag([1.0, 0, 0]), np.diag([0, 1.0, 0]), np.diag([0, 0, 1.0])]
        inst0 = Instrument([(f"E{i}", CPMap([p])) for i, p in enumerate(proj0)])
        inst1 = Instrument([(f"E{i}", CPMap([p])) for i, p in enumerate(proj0)])
        proto = Protocol([Segment(0.0, 0.4, h0), Segment(0.4, 0.8, h_mid),
                          Segment(0.8, 1.2, h1)])
        model = AutonomousModel.assemble(
            s_dim=3, b_dim=1, beta=1.0, protocol=proto,
            steps=[{"time": 0.0, "instrument": inst0},
                   {"time": 1.2, "instrument": inst1}])
        return model, h0, h_mid, h1

    def test_reproduces_two_point_statistics(self):
        model, h0, h_mid, h1 = self.tpm_model()
        result = Simulator(model).run(report_times=[1.2])
        rows = tpm_work(result)
        # brute-force oracle: Born rule on the evolved eigenstates
        from proctherm.algebra import expm_herm
        u = expm_herm(h1, -1j * 0.4) @ expm_herm(h_mid, -1j * 0.4) \
            @ expm_herm(h0, -1j * 0.4)
        pi0 = gibbs_mat(h0, 1.0)
        e0, e1 = np.diag(h0).real, np.diag(h1).real
        expected = {}
        for i in range(3):
            for j in range(3):
                p = pi0[i, i].real * abs(u[j, i]) ** 2
                expected[(f"E{i}", f"E{j}")] = (p, e1[j] - e0[i])
        got = {r.labels: (r.prob, r.work) for r in rows}
        for key, (p, w) in expected.items():
            if p < 1e-14:
                continue
            assert key in got
            assert got[key][0] == pytest.approx(p, abs=1e-10)
            assert got[key][1] == pytest.approx(w, abs=1e-10)

    def test_stationary_state_zero_work(self):
        h0 = np.diag([0.0, 0.7, 1.6])
        proj0 = [np.diag([1.0, 0, 0]), np.diag([0, 1.0, 0]), np.diag([0, 0, 1.0])]
        inst = Instrument([(f"E{i}", CPMap([p])) for i, p in enumerate(proj0)])
        model = AutonomousModel.assemble(
            s_dim=3, b_dim=1, beta=1.0,
            protocol=Protocol([Segment(0.0, 1.0, h0)]),
            steps=[{"time": 0.0, "instrument": inst}, {"time": 1.0, "instrument": inst}])
        result = Simulator(model).run()
        for row in tpm_work(result):
            assert row.work == pytest.approx(0.0, abs=1e-12)

    def test_bath_coupling_rejected(self):
        model = strong_coupling_model()
        result = Simulator(model).run()
        with pytest.raises(ConventionError):
            tpm_work(result)


class TestSingularControlWork:
    def test_identity_control_is_free(self):
        dims = [ancilla_energy_model().dims[l] for l in ("S", "B", "A0")]
        rng = np.random.default_rng(9)
        state = random_density(rng, 8)
        w = singular_control_work(state, dims, np.eye(4), [0, 2],
                                  [(np.diag([0.0, 1.0]), [0])])
        assert w == pytest.approx(0.0, abs=1e-13)

    def test_decoupled_swap_books_energy_swap(self):
        rho_s = np.diag([0.0, 1.0]).astype(complex)   # excited
        rho_a = np.diag([1.0, 0.0]).astype(complex)   # ground
        joint = np.kron(np.kron(rho_s, np.eye(1)), rho_a)
        swap = np.eye(4)[[0, 2, 1, 3]].astype(complex)
        w = singular_control_work(joint, [2, 1, 2], swap, [0, 2],
                                  [(np.diag([0.0, 1.0]), [0]), (np.diag([0.0, 0.4]), [2])])
        # S loses one gap, A gains 0.4: net -0.6
        assert w == pytest.approx(-0.6, abs=1e-12)

    def test_matches_width_extrapolation_with_coupling(self):
        # strong coupling: the kick work equals the zero-width limit of the
        # coupling switch-sum, Richardson-extrapolated over three widths
        rng = np.random.default_rng(12)
        for trial in range(5):
            h_s = random_hermitian(rng, 2)
            h_b = random_hermitian(rng, 2)
            g = 0.3 + 0.2 * rng.random()
            v = g * np.kron(SX, SX)
            gen = random_hermitian(rng, 4)   # control generator on S (x) A
            sb0 = gibbs_mat(np.kron(h_s, np.eye(2)) + np.kron(np.eye(2), h_b) + v, 1.0)

            def window_work(width):
                from proctherm.algebra import expm_herm
                anc = np.diag([1.0, 0.0]).astype(complex)
                joint = np.kron(sb0, anc)
                dims = [2, 2, 2]
                from proctherm.algebra import embed_factors
                h_full = embed_factors(h_s, [0], dims) + embed_factors(h_b, [1], dims) \
                    + embed_factors(v, [0, 1], dims)
                v_ctrl = embed_factors(gen, [0, 2], dims) / width
                u = expm_herm(h_full + v_ctrl, -1j * width)
                after = u @ joint @ u.conj().T
                return float(np.real(np.trace(v_ctrl @ joint)
                                     - np.trace(v_ctrl @ after)))

            works = [window_work(w) for w in (0.004, 0.002, 0.001)]
            extrapolated = richardson_halving(works)

            anc = np.diag([1.0, 0.0]).astype(complex)
            from proctherm.algebra import expm_herm
            w_delta = singular_control_work(
                np.kron(sb0, anc), [2, 2, 2], expm_herm(gen, -1j), [0, 2],
                [(h_s, [0]), (v, [0, 1])])
            assert abs(w_delta - extrapolated) < 1e-5


def decoupled_rows(rho_s, steps=()):
    """Branch rows at t = 1 of a qubit prepared in ``rho_s`` next to an
    uncoupled bath, under H_S = diag(0, 1)."""
    model = AutonomousModel.assemble(
        s_dim=2, b_dim=2, beta=1.0,
        protocol=Protocol([Segment(0.0, 1.0, np.diag([0.0, 1.0]))]),
        h_bath=np.diag([0.0, 0.9]), steps=list(steps),
        sb_init=np.kron(rho_s, np.eye(2) / 2))
    return evaluate_run(Simulator(model).run(report_times=[1.0])).branch_rows[1.0]


class TestStandaloneOps:
    def test_internal_energy_weak_coupling_cases(self):
        h_s = np.diag([0.0, 1.0])
        (excited,) = decoupled_rows(P1)
        assert excited.u == pytest.approx(1.0, abs=1e-10)
        pi = gibbs_mat(h_s, 1.0)
        expected = float(np.real(np.trace(h_s @ pi)))
        (thermal,) = decoupled_rows(pi)
        assert thermal.u == pytest.approx(expected, abs=1e-10)

    def test_strong_coupling_branch_sum_matches_unconditional(self):
        # sum over branches of p*u equals the mean-force internal energy of
        # the reconstructed unconditional supersystem state (no feedback, so
        # a single mean-force Hamiltonian applies to every record block)
        model = strong_coupling_model(feedback=False)
        result = Simulator(model).run(report_times=[2.0])
        ev = ThermoEvaluator(result)
        snap = result.snapshots[-1]
        u_sum = sum(r.p * r.u for r in ev.branch_rows(snap))
        some = next(iter(snap.ledger.branches.values()))
        space = model.space(some.support)
        rho_s_unc = sum(space.ptrace(br.state, ["S"])
                        for br in snap.ledger.branches.values())
        (group,) = snap.ledger.groups
        h_star, dh = ev._mean_force(group.h_sys)
        u_unc = float(np.real(np.trace((h_star + model.beta * dh) @ rho_s_unc)))
        # degenerate measurement ancillas add nothing here
        assert u_sum == pytest.approx(u_unc, abs=1e-9)

    def test_entropy_free_energy_simple_cases(self):
        (certain,) = decoupled_rows(P1)
        assert certain.s == pytest.approx(0.0, abs=1e-10)
        assert certain.f == pytest.approx(1.0, abs=1e-10)  # u - T s with u = gap
        # |+> read out in Z: two pure branches of probability 1/2 each
        halves = decoupled_rows(PLUS, [{"time": 0.5, "instrument": projective_z()}])
        assert [r.p for r in halves] == pytest.approx([0.5, 0.5], abs=1e-12)
        for r in halves:
            assert r.s == pytest.approx(math.log(2), abs=1e-10)
            assert r.f == pytest.approx(r.u - r.s, abs=1e-12)
        # a zero-probability record gets no row, hence no trajectory entropy
        (only,) = decoupled_rows(P1, [{"time": 0.5, "instrument": projective_z()}])
        assert only.labels == ("2",) and only.p == pytest.approx(1.0, abs=1e-12)

    def test_shannon_only_two_branch_case(self):
        # two equiprobable pure branches, weak coupling: S = ln 2
        plus_sb = np.kron(PLUS, np.eye(2) / 2)
        model = AutonomousModel.assemble(
            s_dim=2, b_dim=2, beta=1.0,
            protocol=Protocol([Segment(0.0, 1.0, np.zeros((2, 2)))]),
            steps=[{"time": 0.5, "instrument": projective_z()}],
            sb_init=plus_sb)
        result = Simulator(model).run(report_times=[1.0])
        row = evaluate_run(result).ensemble_rows[0]
        assert row.s == pytest.approx(math.log(2), abs=1e-10)
