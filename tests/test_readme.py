"""The README's library example runs as written, and its `verify` paragraph
names every row `verify` emits."""

import math
import re
from pathlib import Path

from proctherm.scenario import build_model, parse_scenario
from proctherm.verify import run_verified, verify_model

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_prints_finite_rows(capsys):
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    exec(compile(block, str(README), "exec"), {"__name__": "readme_example"})
    # each row prints time, q, sigma_first_law and sigma_rel_ent; only the
    # last may be None, where the relative-entropy form is skipped
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows and all(len(row) == 4 for row in rows)
    for *numbers, sigma_rel_ent in rows:
        assert all(math.isfinite(float(x)) for x in numbers)
        assert sigma_rel_ent == "None" or math.isfinite(float(sigma_rel_ent))


def test_verify_paragraph_names_every_row():
    # the backticked hyphenated names of the paragraph that documents
    # `verify` are exactly the rows it emits
    (paragraph,) = [p for p in README.read_text(encoding="utf-8").split("\n\n")
                    if p.startswith("`verify` runs")]
    named = set(re.findall(r"`([a-z]+(?:-[a-z]+)+)`", paragraph))
    scenario = parse_scenario(README.parent / "scenarios" / "measurement_work.yaml")
    model = build_model(scenario)
    result = run_verified(model, scenario.report_times, prune=1e-14, max_branches=256)
    assert named == {c.name for c in verify_model(model, result)}
