"""Acceptance suite: one test per release criterion, each printing a
pass/fail line.  Tolerances are pinned here and match the defaults in
:mod:`proctherm.tolerances`."""

import math
import time
from pathlib import Path

import numpy as np
import pytest

from proctherm.algebra import dagger, gibbs_mat, max_norm
from proctherm.channels import CPMap, Instrument, evaluate_process_tensor
from proctherm.dilation import dephasing_unitary, dilate_instrument
from proctherm.protocol import Protocol, Segment
from proctherm.scenario import build_model, parse_scenario
from proctherm.simulate import AutonomousModel, Simulator
from proctherm.thermo import evaluate_run
from proctherm.verify import equivalence_rows

from oracles import (
    mean_force,
    random_density,
    random_hermitian,
    random_kraus_channel,
    richardson_halving,
    singular_control_work,
    tpm_work,
)

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"
SX = np.array([[0, 1], [1, 0]], dtype=complex)


def report(num: int, label: str, passed: bool, detail: str = ""):
    verdict = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {num:02d} [{verdict}] {label}" + (f" ({detail})" if detail else ""))
    assert passed, f"criterion {num}: {label} {detail}"


def shipped_runs():
    out = []
    for path in sorted(SCENARIO_DIR.glob("*.yaml")):
        sc = parse_scenario(path)
        model = build_model(sc)
        result = Simulator(model).run(sc.report_times)
        out.append((sc, model, result, evaluate_run(result)))
    return out


def random_instrument(rng, dim, max_kraus=3, labels=None):
    if labels is None:
        m = int(rng.integers(1, max_kraus + 1))
        n_out = int(rng.integers(1, m + 1))
        labels = [str(i + 1) for i in range(n_out)]
    else:
        n_out = len(labels)
        m = int(rng.integers(n_out, max(max_kraus, n_out) + 1))
    kraus = random_kraus_channel(rng, dim, m)
    cuts = sorted(rng.choice(np.arange(1, m), size=n_out - 1, replace=False)) \
        if n_out > 1 else []
    bounds = [0] + list(cuts) + [m]
    outcomes = [(str(labels[i]), CPMap(("S",), kraus[bounds[i]:bounds[i + 1]]))
                for i in range(n_out)]
    return Instrument(outcomes)


def random_scenario(rng, with_feedback: bool) -> AutonomousModel:
    s_dim = int(rng.choice([2, 2, 4]))
    b_dim = int(rng.choice([1, 2, 4]))
    t_end = 2.0
    h0 = random_hermitian(rng, s_dim)
    h1 = random_hermitian(rng, s_dim)
    n_steps = int(rng.integers(1, 4))
    times = np.sort(rng.uniform(0.1, 1.8, size=n_steps))
    steps = []
    for t in times:
        steps.append({"time": float(t),
                      "instrument": random_instrument(rng, s_dim, max_kraus=2)})
    base_segments = [Segment(0.0, 1.0, h0), Segment(1.0, t_end, h1)]
    feedback = None
    variants = None
    if with_feedback and n_steps >= 2:
        target = int(rng.integers(1, n_steps))
        prefix = tuple(str(rng.choice(steps[j]["instrument"].labels))
                       for j in range(target))
        override = random_instrument(rng, s_dim, max_kraus=2,
                                     labels=list(steps[target]["instrument"].labels))
        feedback = {target: {prefix: override}}
        # the drive variant keeps the base timeline until after the prefix
        # resolves, then switches to a fresh Hamiltonian
        cut = float(min(times[target - 1] + 0.05, t_end - 0.05))
        spliced = []
        for seg in base_segments:
            if seg.t1 <= cut + 1e-12:
                spliced.append(seg)
            elif seg.t0 < cut:
                spliced.append(Segment(seg.t0, cut, seg.h_system))
        spliced.append(Segment(cut, t_end, random_hermitian(rng, s_dim)))
        variants = {prefix: spliced}
    proto = Protocol(base_segments, variants=variants)
    v = None
    h_b = None
    if b_dim > 1:
        h_b = random_hermitian(rng, b_dim)
        v = (0.1 + 0.4 * rng.random()) * random_hermitian(rng, s_dim * b_dim)
    return AutonomousModel.assemble(
        s_dim=s_dim, b_dim=b_dim, beta=1.0, protocol=proto, h_bath=h_b,
        v_coupling=v, steps=steps, feedback=feedback)


class TestAcceptance:
    def test_01_dynamical_equivalence_randomized(self):
        rng = np.random.default_rng(20260809)
        t0 = time.monotonic()
        worst_state, worst_prob = 0.0, 0.0
        n_scenarios = 20
        for i in range(n_scenarios):
            model = random_scenario(rng, with_feedback=(i % 2 == 1))
            result = Simulator(model).run(report_times=[0.9, 2.0])
            for row in equivalence_rows(model, result):
                worst_state = max(worst_state, row["state_dev"])
                worst_prob = max(worst_prob, row["prob_dev"])
        elapsed = time.monotonic() - t0
        ok = worst_state < 1e-9 and worst_prob < 1e-10 and elapsed < 60
        report(1, "autonomous model reproduces every conditional state",
               ok, f"{n_scenarios} scenarios, state {worst_state:.2e}, "
                   f"prob {worst_prob:.2e}, {elapsed:.1f}s")

    def test_02_first_law_everywhere(self):
        worst = 0.0
        for sc, model, result, ledger in shipped_runs():
            for rows in ledger.branch_rows.values():
                for r in rows:
                    worst = max(worst, abs(r.q - (r.du - r.w)),
                                abs(r.q_alt - (r.du - r.w_alt)))
            for row in ledger.ensemble_rows:
                worst = max(worst, abs(row.q - (row.du - row.w)),
                            abs(row.w - row.w_budget))
        report(2, "first law holds per branch and ensemble in every shipped "
                  "scenario", worst < 1e-9, f"worst {worst:.2e}")

    def test_03_second_law_including_strong_coupling(self):
        worst_neg, worst_gap, n_checked = 0.0, 0.0, 0
        runs = shipped_runs()
        # add a strong-coupling case at g equal to the bath level spacing
        spacing = 0.9
        model = AutonomousModel.assemble(
            s_dim=2, b_dim=2, beta=1.0,
            protocol=Protocol([Segment(0.0, 0.7, np.diag([0.0, 1.0])),
                               Segment(0.7, 2.0, np.diag([0.0, 1.0]) + 0.4 * SX)]),
            h_bath=np.diag([0.0, spacing]), v_coupling=spacing * np.kron(SX, SX),
            steps=[{"time": 0.4, "instrument": Instrument([
                ("1", CPMap(("S",), [np.diag([1.0, 0.0])])),
                ("2", CPMap(("S",), [np.diag([0.0, 1.0])]))])}])
        result = Simulator(model).run(report_times=[0.2, 1.0, 2.0])
        runs.append((None, model, result, evaluate_run(result)))
        for _, model, result, ledger in runs:
            if not model.gibbs_initial:
                continue
            for row in ledger.ensemble_rows:
                worst_neg = max(worst_neg, -row.sigma_first_law)
                if row.sigma_rel_ent is not None:
                    worst_gap = max(worst_gap,
                                    abs(row.sigma_first_law - row.sigma_rel_ent))
                    n_checked += 1
        ok = worst_neg < 1e-9 and worst_gap < 1e-8 and n_checked > 0
        report(3, "entropy production nonnegative, both forms agree",
               ok, f"min sigma {-worst_neg:.2e}, form gap {worst_gap:.2e}, "
                   f"{n_checked} rows")

    def test_04_zero_cost_dephasing(self):
        # non-degenerate register energies next to a degenerate dephaser; a
        # multiple of the identity alone would let any unitary pass
        rng = np.random.default_rng(44)
        worst, worst_comm, control = 0.0, 0.0, math.inf
        for d in (2, 3, 4):
            u = dephasing_unitary(d)
            h_m = np.diag(np.cumsum(rng.uniform(0.1, 1.0, d)))
            h = np.kron(h_m, np.eye(d)) + np.kron(np.eye(d), 0.7 * np.eye(d))
            worst_comm = max(worst_comm, max_norm(u @ h - h @ u))
            for _ in range(100):
                rho = random_density(rng, d * d)
                cost = abs(np.trace(h @ (u @ rho @ dagger(u) - rho)))
                worst = max(worst, float(cost.real))
            # negative control: splitting the dephaser levels must cost energy
            h_split = np.kron(np.eye(d), np.diag(0.5 * np.arange(d)))
            control = min(control, max_norm(u @ h_split - h_split @ u))
        report(4, "memory dephasing costs exactly zero energy",
               worst < 1e-12 and worst_comm == 0.0 and control >= 0.5,
               f"worst {worst:.2e} over 300 states, commutator {worst_comm:.1e}, "
               f"split-dephaser control {control:.2f}")

    def test_05_dilation_correctness(self):
        rng = np.random.default_rng(55)
        worst_u, worst_rec = 0.0, 0.0
        for _ in range(50):
            dim = int(rng.choice([2, 3]))
            inst = random_instrument(rng, dim, max_kraus=4)
            dr = dilate_instrument(inst)
            worst_u = max(worst_u, dr.unitarity_residual())
            from proctherm.dilation import apply_dilated
            for r, (label, cp) in enumerate(inst.outcomes):
                for i in range(dim):
                    for j in range(dim):
                        e = np.zeros((dim, dim), dtype=complex)
                        e[i, j] = 1.0
                        direct = sum(k @ e @ dagger(k) for k in cp.kraus)
                        worst_rec = max(worst_rec, max_norm(
                            apply_dilated(dr, e, outcome=r) - direct))
        ok = worst_u < 1e-10 and worst_rec < 1e-9
        report(5, "50 random instruments dilate to exact unitary hardware",
               ok, f"unitarity {worst_u:.2e}, reconstruction {worst_rec:.2e}")

    def test_06_work_convention_average_agreement(self):
        worst_avg, best_branch_gap = 0.0, 0.0
        for sc, model, result, _ in shipped_runs():
            for trace in result.traces:
                worst_avg = max(worst_avg, trace.average_work_gap())
                best_branch_gap = max(best_branch_gap, float(np.max(
                    np.abs(trace.w_meas - trace.w_meas_alt), initial=0.0)))
        ok = worst_avg < 1e-10 and best_branch_gap > 1e-3
        report(6, "work conventions agree on average yet differ per branch",
               ok, f"avg gap {worst_avg:.2e}, max branch gap {best_branch_gap:.2e}")

    def test_07_two_point_measurement_reproduction(self):
        sc = parse_scenario(SCENARIO_DIR / "tpm_qutrit.yaml")
        model = build_model(sc)
        result = Simulator(model).run(sc.report_times)
        rows = {r.labels: r for r in tpm_work(result)}
        # brute-force two-point statistics from the propagator
        from proctherm.algebra import expm_herm
        segs = model.protocol.base
        u = np.eye(3, dtype=complex)
        for seg in segs:
            u = expm_herm(seg.h_system, -1j * (seg.t1 - seg.t0)) @ u
        h0, h1 = segs[0].h_system, segs[-1].h_system
        e0, e1 = np.diag(h0).real, np.diag(h1).real
        pi0 = gibbs_mat(h0, sc.spec["beta"])
        worst_p, worst_w = 0.0, 0.0
        support_ok = True
        for i in range(3):
            for j in range(3):
                p = float(pi0[i, i].real) * abs(u[j, i]) ** 2
                key = (f"E{i}", f"E{j}")
                if p < 1e-14:
                    if key in rows and rows[key].prob > 1e-12:
                        support_ok = False
                    continue
                if key not in rows:
                    support_ok = False
                    continue
                worst_p = max(worst_p, abs(rows[key].prob - p))
                worst_w = max(worst_w, abs(rows[key].work - (e1[j] - e0[i])))
        ok = support_ok and worst_p < 1e-10 and worst_w < 1e-10
        report(7, "alternative-convention work reproduces two-point statistics",
               ok, f"prob {worst_p:.2e}, work {worst_w:.2e}")

    def test_08_two_level_relaxation_example(self):
        sc = parse_scenario(SCENARIO_DIR / "relaxation_two_level.yaml")
        model = build_model(sc)
        result = Simulator(model).run(sc.report_times)
        ledger = evaluate_run(result)
        t_prep, t_meas = sc.report_times
        start = {r.labels: r for r in ledger.branch_rows[t_prep]}[("prep",)]
        end = {r.labels: r for r in ledger.branch_rows[t_meas]}[("prep", "g")]
        du = end.u - start.u
        w = end.w - start.w
        q = du - w
        ok = (abs(du + 1.0) < 1e-9 and abs(w) < 1e-9 and abs(q + 1.0) < 1e-9
              and end.p > 0.5)
        report(8, "relaxation branch books the full gap as heat, no work",
               ok, f"du {du:+.2e}, w {w:+.2e}, q {q:+.2e}, p(g) {end.p:.3f}")

    def test_09_weak_coupling_limit(self):
        h_s, h_b = np.diag([0.0, 1.0]), np.diag([0.0, 0.9])
        norms = []
        for g in (1e-2, 1e-3, 1e-4):
            h = np.kron(h_s, np.eye(2)) + np.kron(np.eye(2), h_b) + g * np.kron(SX, SX)
            norms.append(max_norm(mean_force(h, [2, 2], [0], 1.0, h_b)[0] - h_s))
        ok = norms[0] / norms[1] >= 10 and norms[1] / norms[2] >= 10
        report(9, "mean-force Hamiltonian collapses to the bare one with the "
                  "coupling", ok,
               "norms " + ", ".join(f"{n:.2e}" for n in norms))

    def test_10_singular_control_work_consistency(self):
        from proctherm.algebra import embed_factors, expm_herm
        rng = np.random.default_rng(1010)
        worst = 0.0
        for _ in range(5):
            h_s = random_hermitian(rng, 2)
            h_b = random_hermitian(rng, 2)
            g = 0.3 + 0.3 * rng.random()
            v = g * np.kron(SX, SX)
            gen = random_hermitian(rng, 4)
            sb0 = gibbs_mat(np.kron(h_s, np.eye(2)) + np.kron(np.eye(2), h_b) + v,
                            1.0)
            anc = np.diag([1.0, 0.0]).astype(complex)
            dims = [2, 2, 2]
            h_full = embed_factors(h_s, [0], dims) + embed_factors(h_b, [1], dims) \
                + embed_factors(v, [0, 1], dims)

            def window_work(width):
                v_ctrl = embed_factors(gen, [0, 2], dims) / width
                u = expm_herm(h_full + v_ctrl, -1j * width)
                joint = np.kron(sb0, anc)
                after = u @ joint @ dagger(u)
                return float(np.real(np.trace(v_ctrl @ (joint - after))))

            extrapolated = richardson_halving(
                [window_work(w) for w in (0.004, 0.002, 0.001)])
            w_delta = singular_control_work(
                np.kron(sb0, anc), dims, expm_herm(gen, -1j), [0, 2],
                [(h_s, [0]), (v, [0, 1])])
            worst = max(worst, abs(w_delta - extrapolated))
        report(10, "instantaneous control work equals the zero-width limit",
               worst < 1e-5, f"worst {worst:.2e} over 5 scenarios")
