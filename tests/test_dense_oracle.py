"""Dense two-step oracle, blind to how the simulator stores a branch.

System, bath and both ancillas are evolved as one literal S (x) B (x) A0 (x) A1
state and conditioned by P_r0 (x) P_r1; every thermodynamic quantity is then
read off those dense matrices.  The package may keep or drop finished
ancillas from its branch states, so only reported numbers are compared:
per branch p, u, s, f, w_meas, w_meas_alt, and per snapshot w_budget and
both entropy-production forms.
"""

import math

import numpy as np
import pytest

from proctherm.algebra import (
    FactorRegistry,
    OperatorMatrix,
    dagger,
    embed_factors,
    expect_herm,
    expm_herm,
    gibbs_mat,
    logsumexp,
    ptrace_factors,
    relative_entropy_mat,
    unitary_log_generator,
    vn_entropy_mat,
)
from proctherm.channels import CPMap, Instrument
from proctherm.protocol import Protocol, Segment
from proctherm.simulate import AutonomousModel, Simulator
from proctherm.thermo import evaluate_run, mean_force_hamiltonian

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.diag([1.0, -1.0]).astype(complex)
PLUS = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
MINUS = np.array([[0.5, -0.5], [-0.5, 0.5]], dtype=complex)

BETA = 0.9
T0, T1, T_SWITCH, T_END = 0.4, 1.5, 1.0, 2.2
REPORTS = (0.8, 1.5, T_END)
DIMS = [2, 2, 2, 2]                      # S, B, A0, A1
H_B = np.diag([0.0, 0.9]).astype(complex)
V = 0.5 * np.kron(SX, SX) + 0.2 * np.kron(SZ, SY)
H_0 = np.diag([0.0, 1.0]).astype(complex)
H_1 = H_0 + 0.5 * SX
H_1B = H_0 + 0.3 * SY                    # drive after outcome "b" of step 0
# step 0 reads out in the computational basis of A0; its Hamiltonian is not
# diagonal there, so the readout changes the ancilla energy
H_A0 = 0.6 * SX + 0.2 * SZ
H_A1 = np.diag([0.0, 0.8]).astype(complex)
PHI = np.array([math.cos(0.3), math.sin(0.3) * np.exp(0.4j)])
PHI_PERP = np.array([-math.sin(0.3) * np.exp(-0.4j), math.cos(0.3)])
RANK1_ROTATED = [np.outer(PHI, PHI.conj()), np.outer(PHI_PERP, PHI_PERP.conj())]


def drive(t, labels):
    if t < T_SWITCH:
        return H_0
    return H_1B if labels[:1] == ("b",) else H_1


def build_model():
    unsharp = [math.sqrt(0.8) * PLUS + math.sqrt(0.2) * MINUS,
               math.sqrt(0.2) * PLUS + math.sqrt(0.8) * MINUS]
    inst = Instrument([("a", CPMap(("S",), [unsharp[0]])),
                       ("b", CPMap(("S",), [unsharp[1]]))])
    partial_swap = expm_herm(
        unitary_log_generator(np.eye(4)[[0, 2, 1, 3]].astype(complex)), -0.7j)
    return AutonomousModel.assemble(
        s_dim=2, b_dim=2, beta=BETA,
        protocol=Protocol(
            [Segment(0.0, T_SWITCH, H_0), Segment(T_SWITCH, T_END, H_1)],
            variants={("b",): [Segment(0.0, T_SWITCH, H_0),
                               Segment(T_SWITCH, T_END, H_1B)]}),
        h_bath=H_B, v_coupling=V,
        steps=[{"time": T0, "instrument": inst, "h_ancilla": H_A0},
               {"time": T1, "h_ancilla": H_A1,
                "collision": {"ancilla_state": gibbs_mat(H_A1, BETA)[0],
                              "unitary": partial_swap,
                              "projectors": RANK1_ROTATED,
                              "labels": ["u", "d"]}}])


def emb(mat, positions):
    return embed_factors(mat, positions, DIMS)


def h_total(h_sys, ancillas=(0, 1)):
    """Global Hamiltonian with the given ancilla terms switched on."""
    h = emb(h_sys, [0]) + emb(H_B, [1]) + emb(V, [0, 1])
    for i in ancillas:
        h = h + emb((H_A0, H_A1)[i], [2 + i])
    return h


def h_sa(h_sys):
    return emb(h_sys, [0]) + emb(H_A0, [2]) + emb(H_A1, [3])


def conj(u, rho):
    return u @ rho @ dagger(u)


def literal_run(model):
    """Dense branch states and measurement work at every report time.

    An ancilla joins the dynamics at its step, so its Hamiltonian drives
    the evolution only from then on; every energy counts all terms.
    """
    hw = [model.hardware(0, ()), model.hardware(1, ())]
    rho0 = np.kron(np.kron(model.sb_init.mat, hw[0].ancilla_state), hw[1].ancilla_state)
    # branch: labels -> (unnormalized state, cumulative w_meas, w_meas_alt)
    branches = {(): (rho0, 0.0, 0.0)}
    snaps = {}
    t, entered = 0.0, ()
    events = sorted([(T0, "step", 0), (T1, "step", 1)]
                    + [(tr, "report", None) for tr in REPORTS],
                    key=lambda e: (e[0], e[1] == "report"))
    for t_next, kind, k in events:
        out = {}
        for labels, (rho, wm, wa) in branches.items():
            for a, b in ((t, min(t_next, T_SWITCH)), (max(t, T_SWITCH), t_next)):
                if b > a:
                    rho = conj(expm_herm(h_total(drive(a, labels), entered), -1j * (b - a)),
                               rho)
            out[labels] = (rho, wm, wa)
        branches, t = out, t_next
        if kind == "report":
            snaps[t] = dict(branches)
            continue
        entered = entered + (k,)
        u = emb(hw[k].unitary, [0, 2 + k])
        h_a = emb((H_A0, H_A1)[k], [2 + k])
        out = {}
        for labels, (rho, wm, wa) in branches.items():
            rho = conj(u, rho)
            h_read = h_sa(drive(t, labels))
            p = np.trace(rho).real
            e_a, e_sa = expect_herm(h_a, rho) / p, expect_herm(h_read, rho) / p
            for r, label in enumerate(hw[k].outcome_labels):
                proj = emb(hw[k].projectors[r], [2 + k])
                child = proj @ rho @ proj
                pc = np.trace(child).real
                out[labels + (label,)] = (
                    child, wm + expect_herm(h_a, child) / pc - e_a,
                    wa + expect_herm(h_read, child) / pc - e_sa)
        branches = out
    return rho0, snaps


def literal_thermo(model, rho, h_sys):
    """(u, s, f) of one dense branch state under the drive ``h_sys``."""
    reg = FactorRegistry([("S", 2), ("B", 2)])
    h_sb = (np.kron(h_sys, np.eye(2)) + np.kron(np.eye(2), H_B) + V)
    mfd = mean_force_hamiltonian(OperatorMatrix(reg, ("S", "B"), h_sb, hermitian=True),
                                 ["S"], beta=BETA, h_bath=H_B)
    h_star, dh = mfd.h_star.mat, mfd.dbeta_h_star.mat
    p = np.trace(rho).real
    rho_s = ptrace_factors(rho, DIMS, [0]) / p
    s_vn = vn_entropy_mat(ptrace_factors(rho, DIMS, [0, 2, 3]) / p)
    e_anc = sum(expect_herm(h, ptrace_factors(rho, DIMS, [2 + i]) / p)
                for i, h in enumerate((H_A0, H_A1)))
    u = expect_herm(h_star + BETA * dh, rho_s) + e_anc
    s = -math.log(p) + s_vn + BETA ** 2 * expect_herm(dh, rho_s)
    f = expect_herm(h_star, rho_s) + e_anc + (math.log(p) - s_vn) / BETA
    return u, s, f


def block_diag(mats):
    d = sum(m.shape[0] for m in mats)
    out = np.zeros((d, d), dtype=complex)
    i = 0
    for m in mats:
        out[i:i + m.shape[0], i:i + m.shape[0]] = m
        i += m.shape[0]
    return out


@pytest.fixture(scope="module")
def runs():
    model = build_model()
    result = Simulator(model).run(report_times=REPORTS)
    ledger = evaluate_run(result)
    rho0, snaps = literal_run(model)
    return model, ledger, rho0, snaps


@pytest.mark.parametrize("t", REPORTS)
def test_branch_rows_match_dense_oracle(runs, t):
    model, ledger, _, snaps = runs
    rows = {r.labels: r for r in ledger.branch_rows[t]}
    assert set(rows) == set(snaps[t])
    for labels, (rho, wm, wa) in snaps[t].items():
        row = rows[labels]
        u, s, f = literal_thermo(model, rho, drive(t, labels))
        assert row.p == pytest.approx(np.trace(rho).real, abs=1e-12)
        assert row.w_meas == pytest.approx(wm, abs=1e-12)
        assert row.w_meas_alt == pytest.approx(wa, abs=1e-12)
        assert row.u == pytest.approx(u, abs=1e-12)
        assert row.s == pytest.approx(s, abs=1e-12)
        assert row.f == pytest.approx(f, abs=1e-12)


@pytest.mark.parametrize("t", REPORTS)
def test_ensemble_matches_dense_oracle(runs, t):
    model, ledger, rho0, snaps = runs
    row = next(r for r in ledger.ensemble_rows if r.time == t)
    branches = snaps[t]
    e0 = expect_herm(h_total(H_0), rho0)
    e_t = sum(expect_herm(h_total(drive(t, l)), rho) for l, (rho, _, _) in branches.items())
    assert row.w_budget == pytest.approx(e_t - e0, abs=1e-12)

    u0, s0, _ = literal_thermo(model, rho0, H_0)
    du = ds = 0.0
    for labels, (rho, _, _) in branches.items():
        p = np.trace(rho).real
        u, s, _ = literal_thermo(model, rho, drive(t, labels))
        du += p * (u - u0)
        ds += p * (s - s0)
    # in an isolated black box the work is the global energy change
    sigma_first_law = ds - BETA * (du - (e_t - e0))
    assert row.sigma_first_law == pytest.approx(sigma_first_law, abs=1e-11)

    # relative-entropy form against the record-conditioned Gibbs states;
    # the memory and dephaser evolve unitarily, so the total entropy is the
    # initial one
    h_r = {l: h_total(drive(t, l)) for l in branches}
    ln_z = logsumexp(np.concatenate([-BETA * np.linalg.eigvalsh(h) for h in h_r.values()]))
    d_tot = BETA * e_t + ln_z - vn_entropy_mat(rho0)
    rho_x = block_diag([ptrace_factors(rho, DIMS, [0, 2, 3])
                        for rho, _, _ in branches.values()])
    sigma_x = block_diag([ptrace_factors(expm_herm(h, -BETA), DIMS, [0, 2, 3])
                          for h in h_r.values()]) / math.exp(ln_z)
    sigma_rel_ent = d_tot - relative_entropy_mat(rho_x, sigma_x)
    assert row.sigma_rel_ent == pytest.approx(sigma_rel_ent, abs=1e-11)
    assert sigma_rel_ent > 0
