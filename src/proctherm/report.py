"""Machine-readable run reports: per-branch CSV time series plus one
structured JSON document.  Bundles are deterministic: identical scenario
and seed produce byte-identical output.

Every JSON document is written by :func:`dumps`, which gives the bytes of
``json.dumps(doc, sort_keys=True, indent=2)`` without that call's
pure-Python encoder: flat containers go through the C encoder whole, and
only nesting and indentation are joined here."""

from __future__ import annotations

import dataclasses
import functools
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

from . import __version__
from .simulate import RunResult
from .thermo import EnsembleThermo, ThermoLedger
from .tolerances import Tolerances

__all__ = ["ReportBundle", "bundle_from_run", "record_string", "dumps",
           "CONTROL_CAVEAT"]

CONTROL_CAVEAT = (
    "instantaneous controls with a nonzero system-bath coupling: the booked "
    "control work includes the coupling term, which is not measurable from "
    "system and ancilla records alone")

BRANCH_COLUMNS = ("time", "record", "p", "u", "du", "w_sys", "w_ctrl",
                  "w_meas", "w_meas_alt", "w", "w_alt", "q", "q_alt", "s", "f")
ENSEMBLE_COLUMNS = tuple(f.name for f in dataclasses.fields(EnsembleThermo))

_SCALARS = (str, int, float, type(None))      # bool is an int
# a scalar's JSON token, and the CSV field it spells where the two differ
_CSV_FIELD = {"NaN": "nan", "Infinity": "inf", "-Infinity": "-inf",
              "null": "", "true": "True", "false": "False"}
# a list of scalars with one token per line: no JSON token holds a raw newline
_token_lines = json.JSONEncoder(separators=("\n", ":")).encode


def dumps(doc: Any) -> str:
    """``json.dumps(doc, sort_keys=True, indent=2)``, byte for byte.  A
    :class:`_Table` in ``doc`` stands for its list of rows."""
    return _encode(doc, "\n")


@functools.cache
def _flat_encoder(inner: str):
    """The C encoder of a container of scalars whose items sit on lines
    that start with ``inner``."""
    return json.JSONEncoder(sort_keys=True, separators=("," + inner, ": ")).encode


def _key(k) -> str:
    """A dict key as json spells it: a non-str key as its scalar's token."""
    if not isinstance(k, str):
        if not isinstance(k, _SCALARS):
            raise TypeError(f"keys must be str, int, float, bool or None, "
                            f"not {type(k).__name__}")
        k = json.dumps(k)
    return json.dumps(k)


def _encode(value, nl: str) -> str:
    """``value`` as indented JSON whose closing line starts with ``nl``."""
    if isinstance(value, _Table):
        return value.json(nl)
    if not isinstance(value, (dict, list, tuple)) or not value:
        return json.dumps(value)
    inner = nl + "  "
    items = value.values() if isinstance(value, dict) else value
    if all(isinstance(v, _SCALARS) for v in items):
        text = _flat_encoder(inner)(value)
        return text[0] + inner + text[1:-1] + nl + text[-1]
    if isinstance(value, dict):
        body = (f"{_key(k)}: {_encode(v, inner)}" for k, v in sorted(value.items()))
        return "{" + inner + ("," + inner).join(body) + nl + "}"
    columns = _run_columns(value)
    if columns:
        return _Table(columns, [[row[c] for row in value] for c in columns]).json(nl)
    return "[" + inner + ("," + inner).join(_encode(v, inner) for v in value) + nl + "]"


def _run_columns(rows) -> list | None:
    """The sorted keys of a run of flat objects that all share them, else None."""
    keys = rows[0].keys() if isinstance(rows[0], dict) else None
    if not keys or not all(isinstance(row, dict) and row.keys() == keys for row in rows):
        return None
    return sorted(keys) if _scalar_types(v for row in rows for v in row.values()) else None


def _scalar_types(values) -> bool:
    return all(issubclass(t, _SCALARS) for t in set(map(type, values)))


class _Table:
    """Rows of scalar cells under fixed columns, each cell formatted once.

    ``values`` holds the cells per column.  One C-encoder call per column
    gives every cell's JSON token; the same text, spelled for CSV (``nan``,
    ``inf``, an empty field for None, a string unquoted), is the cell's CSV
    field.
    """

    def __init__(self, columns, values: list[list]):
        self.columns, self.values = tuple(columns), values
        self.tokens = [_tokens(v) for v in values]

    def json(self, nl: str) -> str:
        """The rows as the indented JSON list :func:`dumps` writes for them."""
        if not self.values[0]:
            return "[]"
        mid, deep = nl + "  ", nl + "    "
        order = sorted(range(len(self.columns)), key=self.columns.__getitem__)
        row = "{" + deep + ("," + deep).join(
            _key(self.columns[i]).replace("%", "%%") + ": %s" for i in order) + mid + "}"
        cells = zip(*(self.tokens[i] for i in order))
        return "[" + mid + ("," + mid).join(map(row.__mod__, cells)) + nl + "]"

    def csv(self) -> str:
        fields = []
        for values, tokens in zip(self.values, self.tokens):
            if any(issubclass(t, str) for t in set(map(type, values))):
                fields.append([str(v) if isinstance(v, str) else _CSV_FIELD.get(t, t)
                               for v, t in zip(values, tokens)])
            else:
                fields.append(list(map(_CSV_FIELD.get, tokens, tokens)))
        return "\n".join([",".join(self.columns), *map(",".join, zip(*fields))]) + "\n"


def _tokens(values: list) -> list[str]:
    """The JSON token of each scalar in ``values``, from one C-encoder call."""
    if not values:
        return []
    if not _scalar_types(values):
        raise TypeError("table cells must be str, int, float, bool or None")
    return _token_lines(values)[1:-1].split("\n")


@dataclass(eq=False)
class ReportBundle:
    """Everything one run produced: ``report.json`` holds each field as its key."""

    scenario: str
    mode: str
    seed: int
    scenario_checksum: str
    tolerances: dict[str, float]
    branch_rows: _Table
    ensemble_rows: _Table
    equivalence: list[dict[str, Any]] | None = None
    checks: list[dict[str, Any]] | None = None
    pruned_mass: float = 0.0
    control_caveat: str | None = None
    version: str = __version__

    def to_json(self) -> str:
        return dumps(vars(self))

    def write(self, outdir: str | Path) -> list[Path]:
        outdir = Path(outdir)
        outdir.mkdir(parents=True, exist_ok=True)
        written = []
        for fname, text in (("report.json", self.to_json()),
                            ("branches.csv", self.branch_rows.csv()),
                            ("ensemble.csv", self.ensemble_rows.csv())):
            path = outdir / fname
            path.write_text(text, encoding="utf-8")
            written.append(path)
        return written


def record_string(labels: tuple[str, ...]) -> str:
    """The ``record`` cell of an outcome record: its labels joined by
    ``|``, or ``-`` for the empty record."""
    return "|".join(labels) or "-"


def bundle_from_run(result: RunResult, ledger: ThermoLedger, *, mode: str,
                    seed: int, checksum: str, tolerances: Tolerances,
                    equivalence: list[dict] | None = None,
                    checks: list[dict] | None = None) -> ReportBundle:
    tables = ledger.branch_rows.items()
    numbers = [[getattr(rows, c) for c in BRANCH_COLUMNS[2:]] for _, rows in tables]
    branches = _Table(BRANCH_COLUMNS, [
        [t for t, rows in tables for _ in range(len(rows))],
        [record_string(labels) for _, rows in tables for labels in rows.labels],
        *np.concatenate([np.zeros((len(BRANCH_COLUMNS) - 2, 0)), *numbers], axis=1).tolist()])
    ensemble = _Table(ENSEMBLE_COLUMNS, [[getattr(row, c) for row in ledger.ensemble_rows]
                                         for c in ENSEMBLE_COLUMNS])
    model = result.model
    caveat = model.has_sb_coupling() and any(s.window_width is None for s in model.steps)
    return ReportBundle(
        scenario=model.name, mode=mode, seed=seed,
        scenario_checksum=checksum, tolerances=tolerances.as_dict(),
        branch_rows=branches, ensemble_rows=ensemble,
        equivalence=equivalence, checks=checks,
        pruned_mass=result.final.pruned_mass,
        control_caveat=CONTROL_CAVEAT if caveat else None)
