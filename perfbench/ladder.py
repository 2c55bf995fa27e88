"""One-shot ladder sweep: the branching probe over n x d_B.

Each rung runs in its own child process, under a wall-time cap and an
address-space cap (``setrlimit`` on the child only).  Before a rung is
launched its memory is estimated as ``branches x D^2 x 16 B x`` live
copies; a rung over budget is listed as skipped with its estimate, never
dropped.  This mode is not part of the gated benchmark runs.
"""

from __future__ import annotations

import json
import resource
import subprocess
import sys
from pathlib import Path
from time import perf_counter

STEPS = (2, 4, 6, 8, 10)
BATH_DIMS = (2, 4, 8)
# dense D x D copies alive per branch at the end of a run: the branch state,
# the last snapshot's copy and the per-step traces (calibrated at n=6,
# d_B=2, where 64 x 256^2 x 16 B = 67 MB per copy against ~250 MB measured
# above the interpreter's own footprint)
LIVE_COPIES = 4
# address space the interpreter and numpy map before any state exists
BASE_ADDRESS_SPACE = 1 << 30


def shape(n: int, b_dim: int) -> tuple[int, int]:
    """(D, branches) at the end of a rung with two-outcome steps."""
    return 2 * b_dim * 2 ** n, 2 ** n


def estimate_bytes(n: int, b_dim: int) -> int:
    d, branches = shape(n, b_dim)
    return branches * d * d * 16 * LIVE_COPIES


def rung(n: int, b_dim: int, seed: int, workdir: Path) -> int:
    """Child side: run and evaluate one rung, print one JSON line."""
    import proctherm.scenario as scenario
    import proctherm.simulate as simulate
    import proctherm.thermo as thermo
    import workloads

    path = workloads.write_scenario(workloads.branching_scenario(seed, n, b_dim),
                                    workdir / f"rung-{n}-{b_dim}.yaml")
    scen = scenario.parse_scenario(str(path))
    model = scenario.build_model(scen)
    t0 = perf_counter()
    result = simulate.Simulator(model, max_branches=workloads.MAX_BRANCHES).run(
        scen.report_times)
    t1 = perf_counter()
    thermo.evaluate_run(result)
    t2 = perf_counter()
    final = result.final
    print(json.dumps({
        "D": max(br.state.shape[0] for br in final.branches.values()),
        "branches": len(final.branches),
        "run_s": t1 - t0, "evaluate_s": t2 - t1,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}))
    return 0


def sweep(seed: int, budget_gb: float, timeout_s: float, env: dict,
          results: Path) -> int:
    budget = int(budget_gb * 1e9)
    cap = budget + BASE_ADDRESS_SPACE

    def limit_child():
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    run_py = Path(__file__).resolve().parent / "run.py"
    rows = []
    for n in STEPS:
        for b_dim in BATH_DIMS:
            d, branches = shape(n, b_dim)
            est = estimate_bytes(n, b_dim)
            row = {"n": n, "d_B": b_dim, "D": d, "branches": branches,
                   "estimate_gb": est / 1e9}
            if est > budget:
                row["status"] = (f"skipped: memory estimate {est / 1e9:.2f} GB > "
                                 f"budget {budget_gb:g} GB")
            else:
                cmd = [sys.executable, str(run_py), "--ladder-rung", str(n),
                       str(b_dim), "--seed", str(seed)]
                try:
                    proc = subprocess.run(cmd, capture_output=True, text=True,
                                          timeout=timeout_s, preexec_fn=limit_child)
                except subprocess.TimeoutExpired:
                    row["status"] = f"timed out after {timeout_s:g} s"
                else:
                    if proc.returncode == 0:
                        row.update(json.loads(proc.stdout.strip().splitlines()[-1]))
                        row["status"] = "ok"
                    else:
                        last = (proc.stderr.strip().splitlines() or ["no output"])[-1]
                        row["status"] = f"failed: exit {proc.returncode}: {last}"
            rows.append(row)
            print(_format(row), flush=True)
    results.mkdir(parents=True, exist_ok=True)
    out = results / f"ladder-{seed}.json"
    out.write_text(json.dumps({"environment": env, "budget_gb": budget_gb,
                               "address_space_cap_bytes": cap,
                               "rung_timeout_s": timeout_s,
                               "live_copies": LIVE_COPIES, "rungs": rows},
                              indent=1), encoding="utf-8")
    print(f"wrote {out}")
    return 0


def _format(row: dict) -> str:
    head = f"n={row['n']:<2} d_B={row['d_B']}  D={row['D']:<6} branches={row['branches']:<5}"
    if row["status"] == "ok":
        return (f"{head} run={row['run_s']:.2f}s evaluate={row['evaluate_s']:.2f}s "
                f"rss={row['peak_rss_mb']:.0f}MB")
    return f"{head} {row['status']}"
