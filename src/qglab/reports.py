"""Deterministic report serialization for the command line tools.

All floats are printed with 12 significant digits, scientific notation
outside ``[1e-4, 1e6)``, so repeated runs produce byte-identical files.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass, field


def fmt_float(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, int):
        return str(x)
    x = float(x)
    if x != x:
        return "nan"
    if x == 0.0:
        return "0"
    ax = abs(x)
    if math.isinf(ax):
        return "inf" if x > 0 else "-inf"
    if 1e-4 <= ax < 1e6:
        decimals = 11 - math.floor(math.log10(ax))
        return f"{x:.{max(decimals, 0)}f}"
    return f"{x:.11e}"


def round_sig(x: float) -> float:
    """``x`` rounded to the 12 significant digits that reports print."""
    if not isinstance(x, float) or x == 0.0 or x != x or math.isinf(x):
        return x
    return float(f"{x:.11e}")


def _round_deep(obj):
    if isinstance(obj, float):
        return round_sig(obj)
    if isinstance(obj, dict):
        return {k: _round_deep(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_deep(v) for v in obj]
    return obj


def write_json(path, payload: dict) -> None:
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_round_deep(payload), fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_csv(path, header: list[str], rows) -> None:
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(cell if isinstance(cell, str) else fmt_float(cell) for cell in row))
            fh.write("\n")


@dataclass
class CheckReport:
    """Uniform envelope for one inequality check."""

    check: str
    params: dict
    grid: list[float]
    values: dict[str, list[float]]
    verdict: str
    worst_margin: float
    notes: list[str] = field(default_factory=list)

    def csv_rows(self) -> tuple[list[str], list[list]]:
        names = sorted(self.values)
        header = ["grid"] + names
        rows = []
        for i, g in enumerate(self.grid):
            rows.append([g] + [self.values[n][i] for n in names])
        return header, rows


def write_report(report: CheckReport, out_dir, stem: str, fmt: str = "csv") -> list[str]:
    """Write the JSON report, plus a CSV mirror when requested."""
    paths = []
    jpath = os.path.join(out_dir, f"{stem}.json")
    write_json(jpath, asdict(report))
    paths.append(jpath)
    if fmt == "csv" and report.grid:
        header, rows = report.csv_rows()
        cpath = os.path.join(out_dir, f"{stem}.csv")
        write_csv(cpath, header, rows)
        paths.append(cpath)
    return paths
