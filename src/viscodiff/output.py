"""On-disk result formats: nodal snapshots, flux profiles, diagnostics CSV.

All numeric values are written with %.17g so that reading a file back
reproduces the floating-point values exactly; snapshot round-trips are
used to restart runs from files.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Iterable, Optional, Sequence, Union

import numpy as np

from .diagnostics import CSV_COLUMNS, DiagnosticsRecord

__all__ = [
    "SNAPSHOT_COLUMNS",
    "format_csv",
    "write_snapshot",
    "read_snapshot",
    "write_flux",
    "write_diagnostics",
]

SNAPSHOT_COLUMNS = ("x", "u", "varsigma", "sigma")


def format_csv(header: Sequence[str], rows: Iterable[Sequence[float]],
               note: Optional[str] = None) -> str:
    """An optional ``# note`` line, the header, then one %.17g line per row."""
    template = ",".join(["%.17g"] * len(header))
    lines = [] if note is None else [f"# {note}"]
    lines.append(",".join(header))
    lines.extend(template % tuple(row) for row in rows)
    return "\n".join(lines) + "\n"


def write_snapshot(path: Union[str, Path], x: np.ndarray, u: np.ndarray,
                   varsigma: np.ndarray, sigma: np.ndarray) -> None:
    """Nodal CSV with header exactly ``x,u,varsigma,sigma``."""
    cols = (x, u, varsigma, sigma)
    n = len(x)
    if any(len(c) != n for c in cols):
        raise ValueError("snapshot columns must have equal length")
    Path(path).write_text(format_csv(SNAPSHOT_COLUMNS, zip(*cols)))


def read_snapshot(path: Union[str, Path]) -> dict[str, np.ndarray]:
    """Read a nodal snapshot back as {column name: array}; exact round-trip."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or tuple(h.strip() for h in header) != SNAPSHOT_COLUMNS:
            raise ValueError(
                f"{path}: expected header {','.join(SNAPSHOT_COLUMNS)!r}, "
                f"got {header!r}")
        rows = [[float(v) for v in row] for row in reader if row]
    if not rows:
        raise ValueError(f"{path}: snapshot has no data rows")
    data = np.asarray(rows, dtype=float)
    if data.shape[1] != len(SNAPSHOT_COLUMNS):
        raise ValueError(f"{path}: expected {len(SNAPSHOT_COLUMNS)} columns")
    return {name: data[:, i] for i, name in enumerate(SNAPSHOT_COLUMNS)}


def write_flux(path: Union[str, Path], x_mid: np.ndarray,
               flux: np.ndarray) -> None:
    """Element-centered flux profile.

    The flux lives at cell midpoints, so its grid is offset half a cell
    from the nodal snapshot grid and has one fewer entry.
    """
    if len(x_mid) != len(flux):
        raise ValueError("flux columns must have equal length")
    Path(path).write_text(format_csv(("x_mid", "flux"), zip(x_mid, flux)))


def write_diagnostics(path: Union[str, Path],
                      series: Sequence[DiagnosticsRecord],
                      header_note: Optional[str] = None) -> None:
    """Diagnostics CSV, one row per record; the note leads as a ``#`` line."""
    Path(path).write_text(format_csv(CSV_COLUMNS, series, header_note))
