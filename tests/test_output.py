"""The file contract: every writer's bytes, exact read-back, bad columns."""

import numpy as np
import pytest

from viscodiff.diagnostics import CSV_COLUMNS, DiagnosticsRecord
from viscodiff.output import (
    SNAPSHOT_COLUMNS,
    read_snapshot,
    write_diagnostics,
    write_flux,
    write_snapshot,
)

# signed zero, the smallest subnormal, a repeating binary fraction, a
# huge and a tiny negative value
VALUES = [-0.0, 5e-324, 1 / 3, 1e300, -1e-17]


def _columns(n):
    """n columns, each holding every value of VALUES in a shifted order."""
    return [np.roll(VALUES, k) for k in range(n)]


def _reference(header, columns, note=None):
    lines = [] if note is None else [f"# {note}"]
    lines.append(",".join(header))
    lines += [",".join(format(float(v), ".17g") for v in row)
              for row in zip(*columns)]
    return "\n".join(lines) + "\n"


def test_snapshot_bytes_and_exact_read_back(tmp_path):
    path = tmp_path / "snapshot.csv"
    cols = _columns(4)
    write_snapshot(path, *cols)
    assert path.read_text() == _reference(SNAPSHOT_COLUMNS, cols)
    back = read_snapshot(path)
    for name, col in zip(SNAPSHOT_COLUMNS, cols):
        assert back[name].tobytes() == col.tobytes()  # -0.0 keeps its sign


def test_flux_bytes(tmp_path):
    path = tmp_path / "flux.csv"
    cols = _columns(2)
    write_flux(path, *cols)
    assert path.read_text() == _reference(("x_mid", "flux"), cols)


def test_diagnostics_bytes(tmp_path):
    path = tmp_path / "diagnostics.csv"
    cols = _columns(len(CSV_COLUMNS))
    records = [DiagnosticsRecord(*row) for row in zip(*cols)]
    write_diagnostics(path, records, header_note="generated sometime")
    assert path.read_text() == _reference(CSV_COLUMNS, cols,
                                          note="generated sometime")


def test_unequal_columns_rejected(tmp_path):
    short = np.zeros(4)
    with pytest.raises(ValueError):
        write_snapshot(tmp_path / "s.csv", np.zeros(5), np.zeros(5), short,
                       np.zeros(5))
    with pytest.raises(ValueError):
        write_flux(tmp_path / "f.csv", np.zeros(5), short)
    assert not any(tmp_path.iterdir())
