"""Smoke test of the benchmark's span tracer against the package.

The tracer rebinds names inside proctherm's modules from outside; a
refactor that moves one of them leaves its counter at zero.
"""

import importlib.util
from pathlib import Path

from proctherm.cli import main

ROOT = Path(__file__).resolve().parent.parent


def load_tracing():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_counts_every_rebound_layer(tmp_path, capsys):
    scenario = str(ROOT / "scenarios" / "driven_feedback.yaml")
    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        first = tracer.mark()
        assert main(["verify", "--scenario", scenario]) == 0
        assert main(["run", "--scenario", scenario, "--mode", "both",
                     "--out", str(tmp_path)]) == 0
        metrics = tracer.window_metrics(first)
    finally:
        tracer.uninstall()
    for name in ("simulate.propagators", "channels.propagators",
                 "thermo.log_partition_calls", "thermo.entropy_calls",
                 "dilation.calls"):
        assert metrics[name][0] > 0, name
    # both readouts are rank 1, so finished ancillas leave the branch state,
    # which stays on system (x) bath
    assert metrics["simulate.dim_max"][0] == 4
