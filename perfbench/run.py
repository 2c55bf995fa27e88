#!/usr/bin/env python3
"""proctherm benchmark driver.

Run from the root of a checkout:

    python3 perfbench/run.py --workload branching --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload branching --seed 1 --seconds 30 --trace 1
    python3 perfbench/run.py --ladder [--budget-gb 2] [--rung-timeout 300]
    python3 perfbench/run.py --record-reference 0-19

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end metrics; with ``--trace 1`` they are the
per-layer metrics of a traced run.  Details (environment, every sample,
every failure) go to ``perfbench/results/``.  See ``perfbench/README.md``.
"""

import os
import sys

# one BLAS thread, fixed before numpy can be imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
# a fixed string-hash seed, so dict-heavy code (YAML parsing, argparse) does
# not change speed from one process to the next; set by re-executing this
# same process before anything else runs
if os.environ.get("PYTHONHASHSEED") != "0":
    os.environ["PYTHONHASHSEED"] = "0"
    os.execv(sys.executable, [sys.executable] + sys.argv)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = BENCH / "results"
REFERENCE = BENCH / "reference"

WORKLOADS = ("branching", "ramp", "scenarios", "verify_deep")
MIN_ROUNDS = 3            # untraced rounds per run, however long a round takes
TRACE_MIN_ROUNDS = 2      # rounds per half of a traced run
SETUP_SAMPLES = 20        # dedicated set-up repetitions per run ...
SETUP_BUDGET_S = 1.0      # ... cut short after this long, but never below 3


def _import_package():
    """Import proctherm from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "proctherm" / "__init__.py").is_file():
        raise SystemExit(f"error: {src / 'proctherm'} not found; run from a "
                         "proctherm checkout")
    sys.path.insert(0, str(src))
    import proctherm
    if Path(proctherm.__file__).resolve().parent != (src / "proctherm").resolve():
        raise SystemExit(f"error: imported proctherm from {proctherm.__file__}, "
                         f"not from {src}")


# ---------------------------------------------------------------------------
# environment record
# ---------------------------------------------------------------------------

def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _os_threads() -> int:
    try:
        with open("/proc/self/status", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except OSError:
        pass
    import threading
    return threading.active_count()


def _blas_config() -> dict:
    import numpy as np
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        return {k: deps[k] for k in ("blas", "lapack") if k in deps}
    except (TypeError, KeyError):
        return {"numpy_config": "unavailable"}


def environment(seed: int) -> dict:
    import numpy as np
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
        else os.cpu_count()
    threads = _os_threads()
    if threads > nproc:
        raise SystemExit(f"error: {threads} threads exceed nproc={nproc}")
    return {
        "seed": seed,
        "git_commit": _git_commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas_config(),
        "pinned_env": {v: os.environ[v] for v in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                        "PYTHONHASHSEED")},
        "nproc": nproc,
        "process_threads": threads,
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
    }


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def tail(samples: list[float]) -> tuple[float, str]:
    """Value at the highest percentile with at least ten samples beyond it,
    but never below the upper quartile (which is what runs of fewer than
    40 samples report)."""
    xs = sorted(samples)
    n = len(xs)
    if n >= 40:
        return xs[n - 11], f"p{100.0 * (n - 10) / n:.1f} of {n}"
    if n == 1:
        return xs[0], "the only sample"
    return statistics.quantiles(xs, n=4, method="inclusive")[2], f"p75 of {n}"


class Loop:
    """Closed-loop rounds of one workload, with the correctness gate."""

    def __init__(self, wl, seed: int, gate, workdir: Path, clock):
        self.wl, self.seed, self.gate, self.workdir = wl, seed, gate, workdir
        self.clock = clock
        self.attempted = 0
        self.failures: list[dict] = []

    def setup_sample(self, into: list) -> None:
        """Set up every scenario file of the workload once, as one phase."""
        import workloads
        with self.clock.phase("setup_sample", into):
            for p in self.wl.setup_paths:
                workloads.setup(p)

    def round(self, tracer=None) -> dict:
        """Run every op of one round; returns its samples."""
        first_span = tracer.mark() if tracer is not None else None
        setup_rec, done = [], []
        t0 = perf_counter()
        if tracer is None:
            self.setup_sample(setup_rec)
        for fn, path in self.wl.ops:
            self.attempted += 1
            try:
                op = fn(path, self.seed, self.workdir / "out", self.clock)
                problems = self.gate.check(op)
            except Exception as exc:  # an op that raises counts as failed
                problems = [f"{fn.__name__}({path.name}) raised "
                            f"{type(exc).__name__}: {exc}"]
                op = None
                traceback.print_exc(file=sys.stderr)
            if problems:
                self.failures.append({"op": fn.__name__, "scenario": path.name,
                                      "problems": problems})
            if op is not None:
                done.append(op)
        self.clock.checkpoint(force=True)
        out = {"s": perf_counter() - t0, "ops": [], "phases": {}, "wall_phases": {}}
        for op in done:
            if self.wl.timed_kind in (None, op.kind):
                out["ops"].append({"s": op.total("s"), "wall_s": op.total("wall"),
                                   "records": op.records})
            for rec in op.phases:
                for key, field in (("phases", "s"), ("wall_phases", "wall")):
                    out[key][rec["name"]] = out[key].get(rec["name"], 0.0) + rec[field]
        if setup_rec:
            out["setup_s"] = setup_rec[0]["s"]
        if tracer is not None:
            # layer times take the round's overall scale
            recs = [rec for op in done for rec in op.phases]
            wall = sum(r["wall"] for r in recs)
            factor = sum(r["s"] for r in recs) / wall if wall else 1.0
            out["layers"] = {name: (value * factor if unit == "s" else value, unit)
                             for name, (value, unit)
                             in tracer.window_metrics(first_span).items()}
        return out

    def rounds(self, seconds: float, min_rounds: int, tracer=None) -> list[dict]:
        done = []
        t0 = perf_counter()
        while True:
            done.append(self.round(tracer))
            spent = perf_counter() - t0
            typical = statistics.median(r["s"] for r in done)
            if len(done) >= min_rounds and spent + typical > seconds:
                return done


def setup_samples(loop) -> list[float]:
    """A block of scaled set-up times before the first round; each untraced
    round adds one more sample."""
    recs = []
    t0 = perf_counter()
    while len(recs) < SETUP_SAMPLES and (len(recs) < 3 or perf_counter() - t0 < SETUP_BUDGET_S):
        loop.setup_sample(recs)
    loop.clock.checkpoint(force=True)
    return [r["s"] for r in recs]


def op_median(rounds: list[dict]) -> float:
    """Median over rounds of the mean op time in the round.

    Rounds of the scenarios workload mix five scenarios whose op times
    differ tenfold, so a median over single ops would jump between them."""
    return statistics.median(statistics.mean(o["s"] for o in r["ops"])
                             for r in rounds if r["ops"])


def end_to_end(setup: list[float], rounds: list[dict]) -> tuple[dict, dict]:
    op_s = [o["s"] for r in rounds for o in r["ops"]]
    setup = setup + [r["setup_s"] for r in rounds]
    records = sum(o["records"] for r in rounds for o in r["ops"])
    tail_s, tail_label = tail(op_s)

    def phase(name):
        return statistics.median(r["phases"].get(name, 0.0) for r in rounds)

    metrics = {
        "op_s.median": (op_median(rounds), "s"),
        "op_s.tail": (tail_s, "s"),
        "records_per_s": (records / sum(op_s), "1/s"),
        "setup_s": (statistics.median(setup), "s"),
        "run_s": (phase("run"), "s"),
        "evaluate_s": (phase("evaluate"), "s"),
        "check_s": (phase("check"), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    notes = {"op_samples": len(op_s), "op_s.tail": tail_label,
             "rounds": len(rounds), "setup_samples": len(setup)}
    return metrics, notes


def _load_reference(workload: str, key: str) -> dict:
    path = REFERENCE / f"{workload}.json"
    if not path.is_file():
        return {}
    return json.loads(path.read_text(encoding="utf-8")).get(key, {})


def bench(args) -> int:
    _import_package()
    import speed
    import tracing
    import workloads

    env = environment(args.seed)
    workdir = RESULTS / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl = workloads.make_workload(args.workload, args.seed, ROOT, workdir)
        gate = workloads.Gate(_load_reference(args.workload, wl.reference_key))
        # single-op rounds are long enough to probe between an op's phases
        clock = speed.Clock(speed.SpeedProbe(), fine=len(wl.ops) == 1)
        loop = Loop(wl, args.seed, gate, workdir, clock)
        detail = {"workload": args.workload, "trace": args.trace,
                  "seconds": args.seconds, "environment": env}
        if not args.trace:
            setup = setup_samples(loop)
            rounds = loop.rounds(args.seconds, MIN_ROUNDS)
            metrics, notes = end_to_end(setup, rounds)
            detail.update(notes=notes, setup_samples_s=setup, rounds=rounds)
        else:
            # untraced first half as the overhead baseline, traced second half
            plain = loop.rounds(args.seconds / 2, TRACE_MIN_ROUNDS)
            tracer = tracing.Tracer()
            tracer.install()
            try:
                traced = loop.rounds(args.seconds / 2, TRACE_MIN_ROUNDS, tracer)
            finally:
                tracer.uninstall()
            metrics = _layer_metrics(plain, traced)
            tracer.dump(RESULTS / f"spans-{args.workload}-{args.seed}.jsonl")
            detail.update(untraced_rounds=plain, traced_rounds=traced,
                          spans=len(tracer.spans))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    detail.update(attempted=loop.attempted, failures=loop.failures,
                  reference_recorded_in_run=sorted(gate.recorded_in_run),
                  metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()})
    RESULTS.mkdir(parents=True, exist_ok=True)
    out = RESULTS / f"{args.workload}-{args.seed}-trace{int(args.trace)}.json"
    out.write_text(json.dumps(detail, indent=1, default=str), encoding="utf-8")
    for f in loop.failures:
        print(f"FAILED {f['op']} {f['scenario']}: {'; '.join(f['problems'][:3])}")
    print(f"env: commit={env['git_commit'][:12]} python={env['python']} "
          f"numpy={env['numpy']} nproc={env['nproc']} cpu={env['cpu_model']!r}")
    print(f"details: {out.relative_to(ROOT)}")
    failed = len(loop.failures)
    print(json.dumps({"correct": failed == 0, "attempted": loop.attempted,
                      "failed": failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0


def _layer_metrics(plain: list[dict], traced: list[dict]) -> dict:
    metrics = {}
    for name, (_, unit) in traced[0]["layers"].items():
        metrics[name] = (statistics.median(r["layers"][name][0] for r in traced), unit)
    metrics["trace.overhead_s"] = (op_median(traced) - op_median(plain), "s")
    return metrics


# ---------------------------------------------------------------------------
# reference recording
# ---------------------------------------------------------------------------

def record_reference(seeds: list[int], names: list[str]) -> int:
    """Record each workload's ensemble rows per seed, after the op passed
    every other check."""
    _import_package()
    import speed
    import workloads

    clock = speed.Clock(speed.SpeedProbe(), fine=False)
    for name in names:
        path = REFERENCE / f"{name}.json"
        table = json.loads(path.read_text(encoding="utf-8")) if path.is_file() else {}
        for seed in seeds if name != "scenarios" else [0]:
            workdir = RESULTS / f"work-ref-{name}-{seed}-{os.getpid()}"
            workdir.mkdir(parents=True, exist_ok=True)
            try:
                wl = workloads.make_workload(name, seed, ROOT, workdir)
                gate = workloads.Gate({})
                for fn, p in wl.ops:
                    op = fn(p, seed, workdir / "out", clock)
                    problems = gate.check(op)
                    if problems:
                        print(f"error: {name} seed {seed}: {problems}", file=sys.stderr)
                        return 1
                table[wl.reference_key] = gate.reference
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            print(f"recorded {name} {wl.reference_key}")
        REFERENCE.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n",
                        encoding="utf-8")
    return 0


def _seed_list(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += list(range(int(lo), int(hi or lo) + 1))
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--ladder", action="store_true",
                   help="one-shot sweep over n x d_B, each rung in a child process")
    p.add_argument("--budget-gb", type=float, default=2.0,
                   help="ladder: memory budget per rung")
    p.add_argument("--rung-timeout", type=float, default=300.0,
                   help="ladder: wall-time cap per rung, seconds")
    p.add_argument("--ladder-rung", nargs=2, type=int, metavar=("N", "D_B"),
                   help=argparse.SUPPRESS)
    p.add_argument("--record-reference", metavar="SEEDS",
                   help="record reference ensemble rows for seeds like 0-19")
    args = p.parse_args(argv)
    if args.ladder or args.ladder_rung:
        _import_package()
        import ladder
        if args.ladder_rung:
            workdir = RESULTS / f"work-ladder-{os.getpid()}"
            workdir.mkdir(parents=True, exist_ok=True)
            try:
                return ladder.rung(*args.ladder_rung, seed=args.seed, workdir=workdir)
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
        return ladder.sweep(seed=args.seed, budget_gb=args.budget_gb,
                            timeout_s=args.rung_timeout, env=environment(args.seed),
                            results=RESULTS)
    if args.record_reference:
        names = [args.workload] if args.workload else list(WORKLOADS)
        return record_reference(_seed_list(args.record_reference), names)
    if args.workload is None:
        p.error("--workload is required")
    return bench(args)


if __name__ == "__main__":
    sys.exit(main())
