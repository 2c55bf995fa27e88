"""Dense two-step oracle for an ancilla that stays in the branch state.

Step 0 reads its three-level ancilla A0 out with a rank-2 projector whose
range is not invariant under A0's Hamiltonian, so on that outcome A0 stays
in the branch state and keeps evolving.  Step 1 is a finite-width control
window on S (x) A1, with a drive switch inside it, so on that outcome A0
sits between the factors the window couples (S B A0 A1) as a spectator.

System, bath and both ancillas are evolved as one literal S (x) B (x) A0 (x) A1
state, with every term of the Hamiltonian switched on from the step its
ancilla joins.  Each branch state of the ledger must equal the partial
trace of the literal branch over the factors it no longer holds (a
finished ancilla read out by a rank-1 projector is a product factor), and
the work tallies and energies must match the literal ones.
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
    ptrace_factors,
    unitary_log_generator,
    vn_entropy_mat,
)
from proctherm.protocol import Protocol, Segment
from proctherm.simulate import AutonomousModel, Simulator
from proctherm.thermo import evaluate_run, mean_force_hamiltonian

from oracles import random_hermitian

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.diag([1.0, -1.0]).astype(complex)

BETA = 0.8
T0, T1, WIDTH, T_SWITCH, T_END = 0.4, 1.1, 0.35, 1.25, 2.2
T_READ = T1 + WIDTH
REPORTS = (0.8, 1.8, T_END)
LABELS = ("S", "B", "A0", "A1")
DIMS = [2, 2, 3, 2]
H_B = np.diag([0.0, 1.1]).astype(complex)
V = 0.4 * np.kron(SX, SX) + 0.25 * np.kron(SY, SZ)
H_0 = np.diag([0.0, 1.0]).astype(complex)
H_1 = H_0 + 0.45 * SX
H_1B = H_0 - 0.3 * SY                    # drive after outcome "b" of step 0
# couples |0> to |1>, so the range of the rank-2 projector is not invariant
H_A0 = np.array([[0.0, 0.3, 0.0], [0.3, 0.7, 0.4], [0.0, 0.4, 1.2]], dtype=complex)
H_A1 = np.array([[0.0, 0.2], [0.2, 0.9]], dtype=complex)
U0 = expm_herm(random_hermitian(np.random.default_rng(11), 6), -1j)
P_A = np.diag([1.0, 0.0, 0.0]).astype(complex)
P_B = np.diag([0.0, 1.0, 1.0]).astype(complex)
SWAP = np.eye(4)[[0, 2, 1, 3]].astype(complex)
PARTIAL_SWAP = expm_herm(unitary_log_generator(SWAP), -0.6j)
PHI = np.array([math.cos(0.4), math.sin(0.4) * np.exp(0.3j)])
PHI_PERP = np.array([-math.sin(0.4) * np.exp(-0.3j), math.cos(0.4)])
RANK1_ROTATED = [np.outer(PHI, PHI.conj()), np.outer(PHI_PERP, PHI_PERP.conj())]


def drive(t, labels):
    if t < T_SWITCH:
        return H_0
    return H_1B if labels[:1] == ("b",) else H_1


def build_model():
    return AutonomousModel.assemble(
        s_dim=2, b_dim=2, beta=BETA,
        protocol=Protocol(
            [Segment(0.0, T_SWITCH, H_0), Segment(T_SWITCH, T_END, H_1)],
            variants={("b",): [Segment(0.0, T_SWITCH, H_0),
                               Segment(T_SWITCH, T_END, H_1B)]}),
        h_bath=H_B, v_coupling=V,
        steps=[{"time": T0, "h_ancilla": H_A0,
                "collision": {"ancilla_state": P_A, "unitary": U0,
                              "projectors": [P_A, P_B], "labels": ["a", "b"]}},
               {"time": T1, "h_ancilla": H_A1, "window": WIDTH,
                "collision": {"ancilla_state": gibbs_mat(H_A1, BETA)[0],
                              "unitary": PARTIAL_SWAP,
                              "projectors": RANK1_ROTATED,
                              "labels": ["u", "d"]}}])


def emb(mat, positions):
    return embed_factors(mat, positions, DIMS)


V_WINDOW = emb(unitary_log_generator(PARTIAL_SWAP) / WIDTH, [0, 3])


def h_total(h_sys, ancillas=(0, 1), window=False):
    """Global Hamiltonian with the given ancilla terms switched on."""
    h = emb(h_sys, [0]) + emb(H_B, [1]) + emb(V, [0, 1])
    for i in ancillas:
        h = h + emb((H_A0, H_A1)[i], [2 + i])
    return h + V_WINDOW if window else h


def h_read(h_sys):
    return emb(h_sys, [0]) + emb(H_A0, [2]) + emb(H_A1, [3])


def conj(u, rho):
    return u @ rho @ dagger(u)


def literal_run(model):
    """Dense branches at every report time.

    A branch is (state, w_sys, w_ctrl, w_meas, w_meas_alt), the tallies per
    unit branch weight; the events are the kick and readout of step 0, the
    window's start, the drive switch inside it, the window's end with the
    readout of step 1, and the report times.
    """
    rho0 = np.kron(np.kron(model.sb_init.mat, P_A), gibbs_mat(H_A1, BETA)[0])
    branches = {(): (rho0, 0.0, 0.0, 0.0, 0.0)}
    snaps = {}
    t, entered, window = 0.0, (), False
    events = [(T0, "step0"), (0.8, "report"), (T1, "window"), (T_SWITCH, "switch"),
              (T_READ, "step1"), (1.8, "report"), (T_END, "report")]
    for t_next, kind in events:
        branches = {
            labels: (conj(expm_herm(h_total(drive(t, labels), entered, window),
                                    -1j * (t_next - t)), rho), *tallies)
            for labels, (rho, *tallies) in branches.items()}
        t = t_next
        out = {}
        for labels, (rho, w_sys, w_ctrl, w_meas, w_alt) in branches.items():
            p = np.trace(rho).real
            if kind == "report":
                out[labels] = (rho, w_sys, w_ctrl, w_meas, w_alt)
            elif kind == "switch":
                dh = emb(drive(t, labels) - H_0, [0])
                out[labels] = (rho, w_sys + expect_herm(dh, rho) / p, w_ctrl, w_meas, w_alt)
            elif kind == "window":
                out[labels] = (rho, w_sys, w_ctrl + expect_herm(V_WINDOW, rho) / p,
                               w_meas, w_alt)
            else:
                k = int(kind[-1])
                if k == 0:
                    after = conj(emb(U0, [0, 2]), rho)
                    w_ctrl += expect_herm(h_total(drive(t, labels), (0,)), after - rho) / p
                    rho = after
                else:
                    w_ctrl -= expect_herm(V_WINDOW, rho) / p
                h_a = emb((H_A0, H_A1)[k], [2 + k])
                h_sa = h_read(drive(t, labels))
                e_a, e_sa = expect_herm(h_a, rho) / p, expect_herm(h_sa, rho) / p
                projs = ([P_A, P_B], RANK1_ROTATED)[k]
                for label, proj in zip(("ab", "ud")[k], projs):
                    proj = emb(proj, [2 + k])
                    child = proj @ rho @ proj
                    pc = np.trace(child).real
                    out[labels + (label,)] = (
                        child, w_sys, w_ctrl, w_meas + expect_herm(h_a, child) / pc - e_a,
                        w_alt + expect_herm(h_sa, child) / pc - e_sa)
        branches = out
        if kind == "report":
            snaps[t] = dict(branches)
        elif kind == "step0":
            entered = (0,)
        elif kind == "window":
            entered, window = (0, 1), True
        elif kind == "step1":
            window = False
    return rho0, snaps


def literal_thermo(rho, h_sys):
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


@pytest.fixture(scope="module")
def runs():
    model = build_model()
    result = Simulator(model).run(report_times=REPORTS)
    rho0, snaps = literal_run(model)
    return model, result, evaluate_run(result), rho0, snaps


@pytest.mark.parametrize("t", REPORTS)
def test_branch_states_match_dense_oracle(runs, t):
    _, result, _, _, snaps = runs
    ledger = next(s.ledger for s in result.snapshots if s.time == t)
    assert set(ledger.branches) == set(snaps[t])
    for labels, (rho, *_) in snaps[t].items():
        br = ledger.branches[labels]
        # A0 stays after the rank-2 outcome "b"; A1 joins at step 1 and is
        # factored out by its rank-1 readout
        expected = ("S", "B") + (("A0",) if labels[0] == "b" else ())
        assert br.support == expected
        keep = [LABELS.index(l) for l in br.support]
        np.testing.assert_allclose(br.state, ptrace_factors(rho, DIMS, keep),
                                   rtol=0, atol=1e-12)


@pytest.mark.parametrize("t", REPORTS)
def test_branch_rows_match_dense_oracle(runs, t):
    _, _, ledger, _, snaps = runs
    rows = {r.labels: r for r in ledger.branch_rows[t]}
    assert set(rows) == set(snaps[t])
    for labels, (rho, w_sys, w_ctrl, w_meas, w_alt) in snaps[t].items():
        row = rows[labels]
        u, s, f = literal_thermo(rho, drive(t, labels))
        assert row.p == pytest.approx(np.trace(rho).real, abs=1e-12)
        assert row.w_sys == pytest.approx(w_sys, abs=1e-12)
        assert row.w_ctrl == pytest.approx(w_ctrl, abs=1e-12)
        assert row.w_meas == pytest.approx(w_meas, abs=1e-12)
        assert row.w_meas_alt == pytest.approx(w_alt, abs=1e-12)
        assert row.u == pytest.approx(u, abs=1e-12)
        assert row.s == pytest.approx(s, abs=1e-12)
        assert row.f == pytest.approx(f, abs=1e-12)


@pytest.mark.parametrize("t", REPORTS)
def test_energy_budget_matches_dense_oracle(runs, t):
    _, _, ledger, rho0, snaps = runs
    row = next(r for r in ledger.ensemble_rows if r.time == t)
    e0 = expect_herm(h_total(H_0), rho0)
    e_t = sum(expect_herm(h_total(drive(t, l)), rho) for l, (rho, *_) in snaps[t].items())
    assert row.w_budget == pytest.approx(e_t - e0, abs=1e-12)
