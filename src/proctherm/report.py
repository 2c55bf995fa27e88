"""Machine-readable run reports: per-branch CSV time series plus one
structured JSON document.  Bundles are deterministic: identical scenario
and seed produce byte-identical output."""

from __future__ import annotations

import dataclasses
import io
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from . import __version__
from .simulate import RunResult
from .thermo import EnsembleThermo, ThermoLedger
from .tolerances import Tolerances

__all__ = ["ReportBundle", "bundle_from_run", "record_string", "CONTROL_CAVEAT"]

CONTROL_CAVEAT = (
    "instantaneous controls with a nonzero system-bath coupling: the booked "
    "control work includes the coupling term, which is not measurable from "
    "system and ancilla records alone")

BRANCH_COLUMNS = ("time", "record", "p", "u", "du", "w_sys", "w_ctrl",
                  "w_meas", "w_meas_alt", "w", "w_alt", "q", "q_alt", "s", "f")
ENSEMBLE_COLUMNS = tuple(f.name for f in dataclasses.fields(EnsembleThermo))


@dataclass(eq=False)
class ReportBundle:
    """Everything one run produced, ready for serialization."""

    scenario_name: str
    mode: str
    seed: int
    checksum: str
    tolerances: dict[str, float]
    branch_rows: list[dict[str, Any]] = field(default_factory=list)
    ensemble_rows: list[dict[str, Any]] = field(default_factory=list)
    equivalence: list[dict[str, Any]] | None = None
    checks: list[dict[str, Any]] | None = None
    pruned_mass: float = 0.0
    control_caveat: str | None = None
    version: str = __version__

    def to_dict(self) -> dict[str, Any]:
        return {
            "scenario": self.scenario_name,
            "mode": self.mode,
            "seed": self.seed,
            "scenario_checksum": self.checksum,
            "version": self.version,
            "tolerances": self.tolerances,
            "pruned_mass": self.pruned_mass,
            "control_caveat": self.control_caveat,
            "branch_rows": self.branch_rows,
            "ensemble_rows": self.ensemble_rows,
            "equivalence": self.equivalence,
            "checks": self.checks,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)

    def branches_csv(self) -> str:
        return _csv(BRANCH_COLUMNS, self.branch_rows)

    def ensemble_csv(self) -> str:
        return _csv(ENSEMBLE_COLUMNS, self.ensemble_rows)

    def write(self, outdir: str | Path) -> list[Path]:
        outdir = Path(outdir)
        outdir.mkdir(parents=True, exist_ok=True)
        written = []
        for fname, text in (("report.json", self.to_json()),
                            ("branches.csv", self.branches_csv()),
                            ("ensemble.csv", self.ensemble_csv())):
            path = outdir / fname
            path.write_text(text, encoding="utf-8")
            written.append(path)
        return written


def record_string(labels: tuple[str, ...]) -> str:
    """The ``record`` cell of an outcome record: its labels joined by
    ``|``, or ``-`` for the empty record."""
    return "|".join(labels) or "-"


def _csv(columns: tuple[str, ...], rows: list[dict[str, Any]]) -> str:
    out = io.StringIO()
    out.write(",".join(columns) + "\n")
    for row in rows:
        cells = []
        for c in columns:
            v = row.get(c)
            if v is None:
                cells.append("")
            elif isinstance(v, float):
                cells.append(repr(v))
            else:
                cells.append(str(v))
        out.write(",".join(cells) + "\n")
    return out.getvalue()


def bundle_from_run(result: RunResult, ledger: ThermoLedger, *, mode: str,
                    seed: int, checksum: str, tolerances: Tolerances,
                    equivalence: list[dict] | None = None,
                    checks: list[dict] | None = None) -> ReportBundle:
    # every branch column after time and record is a BranchThermo attribute
    branch_rows = [{"time": t, "record": record_string(r.labels),
                    **{c: getattr(r, c) for c in BRANCH_COLUMNS[2:]}}
                   for t, rows in ledger.branch_rows.items() for r in rows]
    ensemble_rows = [{c: getattr(row, c) for c in ENSEMBLE_COLUMNS}
                     for row in ledger.ensemble_rows]
    model = result.model
    caveat = model.has_sb_coupling() and any(s.window_width is None for s in model.steps)
    return ReportBundle(
        scenario_name=model.name, mode=mode, seed=seed,
        checksum=checksum, tolerances=tolerances.as_dict(),
        branch_rows=branch_rows, ensemble_rows=ensemble_rows,
        equivalence=equivalence, checks=checks,
        pruned_mass=result.final.pruned_mass,
        control_caveat=CONTROL_CAVEAT if caveat else None)
