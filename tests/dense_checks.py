"""Record-by-record comparison of a package run with the dense black box.

:func:`both_routes` runs the package on ``AutonomousModel.assemble(**spec)``
and :func:`oracles.dense_run` on the same ``spec``.  A branch state is
compared with the partial trace of its dense record over the factors the
branch holds, since the package may factor a finished ancilla out.  The
records, and the rows, must come in the dense run's order: parent-major,
then outcome label order.
"""

from __future__ import annotations

from collections import namedtuple
from typing import Mapping, Sequence

import numpy as np
import pytest

from proctherm.algebra import ptrace_factors
from proctherm.simulate import AutonomousModel, Simulator
from proctherm.thermo import evaluate_run

from oracles import dense_run, dense_thermo

ABS = 1e-12        # states, per-record numbers and the energy budget
ABS_SIGMA = 1e-11  # the entropy-production forms

Routes = namedtuple("Routes", "result ledger dense")   # RunResult, ThermoLedger, DenseRun


def both_routes(spec: Mapping, report_times: Sequence[float]) -> Routes:
    result = Simulator(AutonomousModel.assemble(**spec)).run(report_times=report_times)
    return Routes(result, evaluate_run(result), dense_run(spec, report_times))


def check_branch_states(routes: Routes, t: float) -> None:
    ledger = next(s.ledger for s in routes.result.snapshots if s.time == t)
    records = routes.dense.snapshots[t]
    assert list(ledger.branches) == list(records)
    names = ["S", "B"] + [f"A{k}" for k in range(len(routes.dense.dims) - 2)]
    for labels, rec in records.items():
        br = ledger.branches[labels]
        assert br.support == rec.support
        keep = [names.index(l) for l in br.support]
        np.testing.assert_allclose(br.state, ptrace_factors(rec.rho, routes.dense.dims, keep),
                                   rtol=0, atol=ABS)


def check_branch_rows(routes: Routes, t: float) -> None:
    rows = {r.labels: r for r in routes.ledger.branch_rows[t]}
    records = routes.dense.snapshots[t]
    thermo = dense_thermo(routes.dense, t)
    assert list(rows) == list(records)
    for labels, rec in records.items():
        u, s, f = thermo.rows[labels]
        expected = dict(p=rec.p, w_sys=rec.w_sys, w_ctrl=rec.w_ctrl, w_meas=rec.w_meas,
                        w_meas_alt=rec.w_meas_alt, u=u, s=s, f=f)
        for name, value in expected.items():
            assert getattr(rows[labels], name) == pytest.approx(value, abs=ABS), (labels, name)


def check_ensemble(routes: Routes, t: float) -> None:
    row = next(r for r in routes.ledger.ensemble_rows if r.time == t)
    thermo = dense_thermo(routes.dense, t)
    assert row.w_budget == pytest.approx(thermo.w_budget, abs=ABS)
    assert row.sigma_first_law == pytest.approx(thermo.sigma_first_law, abs=ABS_SIGMA)
    assert row.sigma_rel_ent == (None if thermo.sigma_rel_ent is None
                                 else pytest.approx(thermo.sigma_rel_ent, abs=ABS_SIGMA))
