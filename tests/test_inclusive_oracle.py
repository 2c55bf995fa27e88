"""Full-register oracle: simulate one intervention with every register
materialized (system, bath, ancilla, outcome register, dephaser) and no
branch bookkeeping at all, then hold the package's ledger representation
and its thermodynamic reductions against the literal matrices.
"""

import numpy as np
import pytest

from proctherm.algebra import (
    dagger,
    embed_factors,
    expm_herm,
    gibbs_mat,
    max_norm,
    ptrace_factors,
    vn_entropy_mat,
)
from proctherm.channels import CPMap, Instrument
from proctherm.dilation import dephasing_unitary, measurement_unitary
from proctherm.protocol import Protocol, Segment
from proctherm.simulate import AutonomousModel, Simulator
from proctherm.thermo import ThermoEvaluator

from oracles import mean_force, relative_entropy_mat

SX = np.array([[0, 1], [1, 0]], dtype=complex)
P0 = np.array([[1, 0], [0, 0]], dtype=complex)
P1 = np.array([[0, 0], [0, 1]], dtype=complex)


@pytest.fixture(scope="module")
def setup():
    """One unsharp measurement of a driven, strongly coupled qubit."""
    h0 = np.diag([0.0, 1.0])
    h1 = np.diag([0.0, 1.0]) + 0.5 * SX
    h_b = np.diag([0.0, 0.9])
    v = 0.4 * np.kron(SX, SX)
    h_anc = np.diag([0.0, 0.6])
    k1 = np.sqrt(0.8) * P0 + np.sqrt(0.2) * P1
    k2 = np.sqrt(0.2) * P0 + np.sqrt(0.8) * P1
    inst = Instrument([("1", CPMap([k1])), ("2", CPMap([k2]))])
    beta = 1.0
    t_step, t_switch, t_end = 0.3, 0.6, 1.0
    model = AutonomousModel.assemble(
        s_dim=2, b_dim=2, beta=beta,
        protocol=Protocol([Segment(0.0, t_switch, h0), Segment(t_switch, t_end, h1)]),
        h_bath=h_b, v_coupling=v,
        steps=[{"time": t_step, "instrument": inst, "h_ancilla": h_anc}])
    result = Simulator(model).run(report_times=[t_end])
    hw = model.hardware(0, ())

    # ----- literal five-register evolution, dims [S, B, A, I, N] -----
    dims = [2, 2, 2, 2, 2]

    def emb(mat, positions):
        return embed_factors(mat, positions, dims)

    def h_full(h_sys):
        return emb(h_sys, [0]) + emb(h_b, [1]) + emb(v, [0, 1]) + emb(h_anc, [2])

    reg0 = np.zeros((2, 2), dtype=complex)
    reg0[0, 0] = 1.0
    pi_sb = model.sb_init
    rho = np.kron(np.kron(np.kron(pi_sb, hw.ancilla_state), reg0), np.eye(2) / 2)

    def conj(u, state):
        return u @ state @ dagger(u)

    energies = {"t0": float(np.real(np.trace(h_full(h0) @ rho)))}
    rho = conj(expm_herm(h_full(h0), -1j * t_step), rho)
    rho = conj(emb(hw.unitary, [0, 2]), rho)                       # control
    rho = conj(emb(measurement_unitary(hw.projectors), [2, 3]), rho)   # readout
    rho = conj(emb(dephasing_unitary(2), [3, 4]), rho)             # dephasing
    rho = conj(expm_herm(h_full(h0), -1j * (t_switch - t_step)), rho)
    rho = conj(expm_herm(h_full(h1), -1j * (t_end - t_switch)), rho)
    energies["t1"] = float(np.real(np.trace(h_full(h1) @ rho)))
    return model, result, rho, dims, (h0, h1, h_b, v, h_anc), energies


class TestRegisterStructure:
    def test_outcome_register_is_classical(self, setup):
        # after dephasing the traced-out register leaves no cross terms
        model, result, rho, dims, _, _ = setup
        rho_sbai = ptrace_factors(rho, dims, [0, 1, 2, 3])
        blocks = rho_sbai.reshape(8, 2, 8, 2)
        assert max_norm(blocks[:, 0, :, 1]) < 1e-12
        assert max_norm(blocks[:, 1, :, 0]) < 1e-12

    def test_register_blocks_equal_ledger_branches(self, setup):
        # the branch stores S (x) B; the finished ancilla is exactly the
        # readout state P_r, a product factor
        model, result, rho, dims, _, _ = setup
        hw = model.hardware(0, ())
        rho_sbai = ptrace_factors(rho, dims, [0, 1, 2, 3])
        blocks = rho_sbai.reshape(8, 2, 8, 2)
        for r, labels in enumerate([("1",), ("2",)]):
            branch = result.final.branches[labels]
            expected = np.kron(branch.state, hw.projectors[r])
            assert max_norm(blocks[:, r, :, r] - expected) < 1e-12
            assert abs(np.trace(blocks[:, r, :, r]).real - branch.weight) < 1e-12

    def test_global_entropy_conserved(self, setup):
        model, result, rho, dims, _, _ = setup
        s0 = vn_entropy_mat(model.sb_init) + np.log(2.0)  # + dephaser
        assert vn_entropy_mat(rho) == pytest.approx(s0, abs=1e-10)

    def test_trace_and_positivity(self, setup):
        _, _, rho, _, _, _ = setup
        assert abs(np.trace(rho).real - 1.0) < 1e-12
        assert np.linalg.eigvalsh(rho)[0] > -1e-12


class TestThermodynamicReduction:
    def test_work_equals_global_energy_change(self, setup):
        model, result, rho, dims, _, energies = setup
        ev = ThermoEvaluator(result)
        snap = result.snapshots[-1]
        row = ev.ensemble(snap, ev.branch_rows(snap))
        assert row.w == pytest.approx(energies["t1"] - energies["t0"], abs=1e-10)

    def test_internal_energy_matches_supersystem_form(self, setup):
        # ensemble of branch values vs the mean-force form evaluated on the
        # literal system+ancilla+register state
        model, result, rho, dims, (h0, h1, h_b, v, h_anc), _ = setup
        h_xb = (embed_factors(h1, [0], [2, 2, 2, 2])
                + embed_factors(h_b, [1], [2, 2, 2, 2])
                + embed_factors(v, [0, 1], [2, 2, 2, 2])
                + embed_factors(h_anc, [2], [2, 2, 2, 2]))
        h_star, dh = mean_force(h_xb, [2, 2, 2, 2], [0, 2, 3], model.beta, h_b)
        rho_x = ptrace_factors(rho, dims, [0, 2, 3])
        u_literal = float(np.real(np.trace((h_star + model.beta * dh) @ rho_x)))
        s_literal = vn_entropy_mat(rho_x) + model.beta ** 2 * float(
            np.real(np.trace(dh @ rho_x)))
        ev = ThermoEvaluator(result)
        snap = result.snapshots[-1]
        row = ev.ensemble(snap, ev.branch_rows(snap))
        assert row.u == pytest.approx(u_literal, abs=1e-8)
        assert row.s == pytest.approx(s_literal, abs=1e-8)

    def test_entropy_production_matches_literal_relative_entropies(self, setup):
        model, result, rho, dims, (h0, h1, h_b, v, h_anc), _ = setup
        h_xb = (embed_factors(h1, [0], [2, 2, 2, 2])
                + embed_factors(h_b, [1], [2, 2, 2, 2])
                + embed_factors(v, [0, 1], [2, 2, 2, 2])
                + embed_factors(h_anc, [2], [2, 2, 2, 2]))
        # reference for the total state: thermal state of the full Hamiltonian
        # (nothing acts on the dephaser, so it factorizes as the flat state)
        sigma_tot = gibbs_mat(embed_factors(h_xb, [0, 1, 2, 3], dims), model.beta)
        d_tot = relative_entropy_mat(rho, sigma_tot)
        # reference for the supersystem: its mean-force thermal state
        h_star = mean_force(h_xb, [2, 2, 2, 2], [0, 2, 3], model.beta, h_b)[0]
        rho_x = ptrace_factors(rho, dims, [0, 2, 3])
        d_x = relative_entropy_mat(rho_x, gibbs_mat(h_star, model.beta))
        sigma_literal = d_tot - d_x
        ev = ThermoEvaluator(result)
        snap = result.snapshots[-1]
        row = ev.ensemble(snap, ev.branch_rows(snap))
        assert row.sigma_rel_ent == pytest.approx(sigma_literal, abs=1e-8)
        assert row.sigma_first_law == pytest.approx(sigma_literal, abs=1e-8)
        assert sigma_literal > 0
