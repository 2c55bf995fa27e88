"""The README's library example runs as written."""

import math
import re
from pathlib import Path

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
