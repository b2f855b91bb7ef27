"""On-disk result formats: nodal snapshots, flux profiles, diagnostics CSV.

All numeric values are written with %.17g so that reading a file back
reproduces the floating-point values exactly; snapshot round-trips are
used to restart runs from files.  Every writer streams its file in
blocks of BLOCK_ROWS rows, so no whole file is held as text.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Iterator, Optional, Sequence, Union

import numpy as np

from .diagnostics import BLOCK_ROWS, CSV_COLUMNS, DiagnosticsRecord

__all__ = [
    "SNAPSHOT_COLUMNS",
    "csv_blocks",
    "format_csv",
    "write_snapshot",
    "read_snapshot",
    "write_flux",
    "write_diagnostics",
]

SNAPSHOT_COLUMNS = ("x", "u", "varsigma", "sigma")


def csv_blocks(header: Sequence[str], rows, note: Optional[str] = None
               ) -> Iterator[str]:
    """The CSV text of a table in blocks: an optional ``# note`` line and
    the header, then one %.17g line per row, BLOCK_ROWS rows per block.

    ``rows`` is read as a float64 table with one column per header name;
    each block is formatted by one ``%`` over its values.
    """
    table = np.asarray(rows, dtype=float)
    head = ",".join(header) + "\n"
    yield head if note is None else f"# {note}\n{head}"
    line = ",".join(["%.17g"] * len(header)) + "\n"
    full = line * BLOCK_ROWS
    for start in range(0, len(table), BLOCK_ROWS):
        block = table[start:start + BLOCK_ROWS]
        template = full if len(block) == BLOCK_ROWS else line * len(block)
        yield template % tuple(block.ravel().tolist())


def format_csv(header: Sequence[str], rows,
               note: Optional[str] = None) -> str:
    """The whole CSV text of ``csv_blocks`` as one string."""
    return "".join(csv_blocks(header, rows, note))


def _write_csv(path: Union[str, Path], header: Sequence[str], rows,
               note: Optional[str] = None) -> None:
    with open(path, "w") as fh:
        fh.writelines(csv_blocks(header, rows, note))


def write_snapshot(path: Union[str, Path], x: np.ndarray, u: np.ndarray,
                   varsigma: np.ndarray, sigma: np.ndarray) -> None:
    """Nodal CSV with header exactly ``x,u,varsigma,sigma``."""
    cols = (x, u, varsigma, sigma)
    n = len(x)
    if any(len(c) != n for c in cols):
        raise ValueError("snapshot columns must have equal length")
    _write_csv(path, SNAPSHOT_COLUMNS, np.column_stack(cols))


def read_snapshot(path: Union[str, Path]) -> dict[str, np.ndarray]:
    """Read a nodal snapshot back as {column name: array}; exact round-trip."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or tuple(h.strip() for h in header) != SNAPSHOT_COLUMNS:
            raise ValueError(
                f"{path}: expected header {','.join(SNAPSHOT_COLUMNS)!r}, "
                f"got {header!r}")
        rows = []
        for row in filter(None, reader):
            where = f"{path}, line {reader.line_num}"
            if len(row) != len(SNAPSHOT_COLUMNS):
                raise ValueError(f"{where}: expected {len(SNAPSHOT_COLUMNS)} "
                                 f"values, found {len(row)}")
            try:
                rows.append([float(v) for v in row])
            except ValueError as exc:
                raise ValueError(f"{where}: {exc}") from None
    if not rows:
        raise ValueError(f"{path}: snapshot has no data rows")
    data = np.asarray(rows, dtype=float)
    return {name: data[:, i] for i, name in enumerate(SNAPSHOT_COLUMNS)}


def write_flux(path: Union[str, Path], x_mid: np.ndarray,
               flux: np.ndarray) -> None:
    """Element-centered flux profile.

    The flux lives at cell midpoints, so its grid is offset half a cell
    from the nodal snapshot grid and has one fewer entry.
    """
    if len(x_mid) != len(flux):
        raise ValueError("flux columns must have equal length")
    _write_csv(path, ("x_mid", "flux"), np.column_stack((x_mid, flux)))


def write_diagnostics(path: Union[str, Path],
                      series: Sequence[DiagnosticsRecord],
                      header_note: Optional[str] = None) -> None:
    """Diagnostics CSV, one row per record; the note leads as a ``#`` line.

    A ``RecordTable`` is written from its table; a list of records is
    first copied into one.
    """
    _write_csv(path, CSV_COLUMNS, series, header_note)
