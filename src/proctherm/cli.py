"""Command-line interface.

Subcommands: ``run`` (simulate and report), ``verify`` (pass/fail check
table), ``equiv`` (autonomous vs direct route only), ``dilate`` (dump the
synthesized hardware of one step).  Exit codes: 0 success, 1 check
failure, 2 input error.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from pathlib import Path

import numpy as np

from .channels import evaluate_process_tensor
from .dilation import reconstruction_error
from .protocol import before
from .report import bundle_from_run, dumps, record_string
from .scenario import ScenarioError, _checked, build_model, parse_scenario
from .simulate import survives_prune
from .thermo import evaluate_run
from .tolerances import DEFAULT
from .verify import equivalence_checks, run_verified, verify_model

EXIT_OK, EXIT_CHECK_FAILED, EXIT_INPUT_ERROR = 0, 1, 2


def _parse_overrides(pairs):
    out = {}
    for pair in pairs or []:
        if "=" not in pair:
            raise ScenarioError("--tol-override", f"expected k=v, got {pair!r}")
        key, value = pair.split("=", 1)
        try:
            out[key.strip()] = float(value)
        except ValueError:
            raise ScenarioError("--tol-override",
                                f"{value!r} is not a number") from None
    return out


@functools.cache
def build_parser():
    """The parser, built once per process; each parse makes a fresh namespace."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--scenario", required=True, help="scenario file (YAML)")
    common.add_argument("--out", default=None, help="output directory for reports")
    common.add_argument("--seed", type=int, default=0,
                        help="a label, copied into the seed key of the written "
                             "report; it feeds no number")
    common.add_argument("--tol-override", action="append", metavar="K=V",
                        help="override a named tolerance (repeatable)")
    common.add_argument("--max-branches", type=int, default=4096)
    parser = argparse.ArgumentParser(
        prog="proctherm",
        description="Simulate quantum causal models autonomously and check "
                    "their trajectory thermodynamics.")
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", parents=[common],
                           help="simulate and emit the report bundle")
    p_run.add_argument("--mode", choices=["autonomous", "process-tensor", "both"],
                       default="autonomous")
    sub.add_parser("verify", parents=[common], help="run every invariant suite")
    sub.add_parser("equiv", parents=[common], help="compare the two evaluation routes")
    p_dil = sub.add_parser("dilate", parents=[common],
                           help="dump the dilation of one step")
    p_dil.add_argument("--step", type=int, default=0)
    return parser


def _load(args, direct: bool = True):
    """Scenario, model and the tolerances of the run.  The prune threshold
    is the explicit override, else the scenario's option, else the default.
    ``--out`` must be able to become a writable directory (nothing is made
    here).  When the direct route will run, its records, every outcome
    sequence up to the last report time, must fit ``--max-branches``."""
    if args.seed < 0:
        raise ScenarioError("--seed", f"expected an integer >= 0, got {args.seed}")
    if args.max_branches < 1:
        raise ScenarioError("--max-branches",
                            f"expected an integer >= 1, got {args.max_branches}")
    if args.out is not None:
        _check_out(args.out)
    scenario = parse_scenario(args.scenario)
    model = build_model(scenario)
    if direct:
        t_last = max(scenario.report_times)
        count = math.prod(len(model.schedule.alphabet(k)) for k, t in
                          enumerate(model.schedule.times) if not before(t_last, t))
        if count > args.max_branches:
            raise ScenarioError("--max-branches", f"the direct route would hold {count} "
                                f"records, above the limit {args.max_branches}")
    overrides = _parse_overrides(args.tol_override)
    if "prune_threshold" in scenario.options:
        overrides.setdefault("prune", scenario.options["prune_threshold"])
    # the scenario's option passed the same rule at parse, so a failure is the override's
    return scenario, model, _checked("--tol-override", DEFAULT.replaced, **overrides)


def _check_out(out: str) -> None:
    """Refuse, before any work and without creating anything, an output
    directory that cannot be made or written: the nearest existing path
    of ``out`` and its ancestors must be a writable directory."""
    path = Path(out)
    existing = next(p for p in (path, *path.parents) if p.exists())
    if not existing.is_dir():
        raise ScenarioError("--out", f"{out} cannot be a directory: {existing} is not one")
    if not os.access(existing, os.W_OK | os.X_OK):
        raise ScenarioError("--out", f"{out} cannot be written: {existing} is not writable")


def _write_json(doc: dict, out: str | None, fname: str) -> None:
    """``doc`` as sorted, indented JSON: written to ``out/fname``, or
    printed when there is no output directory."""
    text = dumps(doc)
    if out:
        Path(out).mkdir(parents=True, exist_ok=True)
        (Path(out) / fname).write_text(text, encoding="utf-8")
    else:
        print(text)


def cmd_run(args) -> int:
    scenario, model, tol = _load(args, direct=args.mode != "autonomous")
    if args.mode == "process-tensor":
        direct = evaluate_process_tensor(model.schedule, model.sb_init,
                                         scenario.report_times)
        probs = {t: np.trace(states, axis1=1, axis2=2).real.tolist()
                 for t, (_, states) in direct.items()}
        rows = [{"time": t, "record": record_string(labels), "p": p}
                for t in scenario.report_times
                for labels, p in zip(direct[t][0], probs[t])
                if survives_prune(p, tol.prune)]
        _write_json({"scenario": scenario.name, "mode": args.mode, "seed": args.seed,
                     "scenario_checksum": scenario.checksum, "records": rows},
                    args.out, "report.json")
        return EXIT_OK

    result = run_verified(model, scenario.report_times, prune=tol.prune,
                          max_branches=args.max_branches)
    ledger = evaluate_run(result)
    equivalence, checks = None, []
    if args.mode == "both":
        equivalence, checks = equivalence_checks(model, result, tol)
    bundle = bundle_from_run(result, ledger, mode=args.mode, seed=args.seed,
                             checksum=scenario.checksum, tolerances=tol,
                             equivalence=equivalence)
    if args.out:
        for path in bundle.write(args.out):
            print(f"wrote {path}")
    else:
        print(bundle.to_json())
    if bundle.control_caveat:
        print(f"note: {bundle.control_caveat}", file=sys.stderr)
    for c in checks:
        if c.note:
            print(f"note: {c.name} {c.note}", file=sys.stderr)
    return EXIT_OK if all(c.passed for c in checks) else EXIT_CHECK_FAILED


def cmd_verify(args) -> int:
    scenario, model, tol = _load(args)
    result = run_verified(model, scenario.report_times, prune=tol.prune,
                          max_branches=args.max_branches)
    ledger = evaluate_run(result)
    checks = verify_model(model, result, ledger, tol=tol)
    width = max(len(c.name) for c in checks)
    for c in checks:
        line = (f"{c.name:<{width}}  value={c.value:.3e}  "
                f"tol={c.tolerance:.1e}  "
                f"{'pass' if c.passed else 'FAIL'}")
        if c.note:
            line += f"  ({c.note})"
        print(line)
    if args.out:
        bundle = bundle_from_run(result, ledger, mode="verify", seed=args.seed,
                                 checksum=scenario.checksum, tolerances=tol,
                                 checks=[c.row() for c in checks])
        for path in bundle.write(args.out):
            print(f"wrote {path}")
    return EXIT_OK if all(c.passed for c in checks) else EXIT_CHECK_FAILED


def cmd_equiv(args) -> int:
    scenario, model, tol = _load(args)
    result = run_verified(model, scenario.report_times, prune=tol.prune,
                          max_branches=args.max_branches)
    rows, checks = equivalence_checks(model, result, tol)
    if rows is None:
        print("error: equivalence is defined for instantaneous controls only",
              file=sys.stderr)
        return EXIT_INPUT_ERROR
    worst_s, worst_p = (c.value for c in checks)
    for r in rows:
        print(f"t={r['time']:<8g} record={r['record']:<16} "
              f"state_dev={r['state_dev']:.3e} prob_dev={r['prob_dev']:.3e}")
    print(f"worst: state {worst_s:.3e} (tol {tol.equivalence_state:.1e}), "
          f"probability {worst_p:.3e} (tol {tol.equivalence_prob:.1e})")
    if args.out:
        _write_json({"scenario": scenario.name, "seed": args.seed,
                     "scenario_checksum": scenario.checksum, "rows": rows,
                     "worst_state_dev": worst_s, "worst_prob_dev": worst_p},
                    args.out, "equivalence.json")
    return EXIT_OK if all(c.passed for c in checks) else EXIT_CHECK_FAILED


def cmd_dilate(args) -> int:
    scenario, model, tol = _load(args, direct=False)
    if not 0 <= args.step < model.n_steps:
        print(f"error: scenario has {model.n_steps} step(s), no index {args.step}",
              file=sys.stderr)
        return EXIT_INPUT_ERROR
    hw = model.hardware(args.step, ())
    inst = model.schedule.instrument_at(args.step, ())
    rec_err = reconstruction_error(hw, inst)
    _write_json({
        "scenario": scenario.name,
        "step": args.step,
        "ancilla_dim": hw.ancilla_dim,
        "outcome_labels": list(hw.outcome_labels),
        "unitarity_residual": hw.unitarity_residual(),
        "reconstruction_error": rec_err,
        "unitary": _complex_rows(hw.unitary),
        "projectors": [_complex_rows(p) for p in hw.projectors],
        "ancilla_state": _complex_rows(hw.ancilla_state),
    }, args.out, f"dilation_step{args.step}.json")
    ok = (hw.unitarity_residual() <= tol.dilation_unitary
          and rec_err <= tol.dilation_reconstruction)
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def _complex_rows(mat: np.ndarray) -> list[list[str]]:
    return [[f"{float(v.real)!r}{'+' if v.imag >= 0 else '-'}{float(abs(v.imag))!r}i"
             for v in row] for row in np.asarray(mat, dtype=complex)]


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {"run": cmd_run, "verify": cmd_verify,
                "equiv": cmd_equiv, "dilate": cmd_dilate}
    try:
        return handlers[args.command](args)
    except (KeyError, ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
