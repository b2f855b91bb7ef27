"""The file contract: every writer's bytes, exact read-back, bad columns."""

import numpy as np
import pytest

from viscodiff.diagnostics import (BLOCK_ROWS, CSV_COLUMNS, DiagnosticsRecord,
                                   RecordTable)
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


def _long_columns(n, rows):
    """n columns of ``rows`` values, each cycling through VALUES in a
    shifted order; 5 does not divide BLOCK_ROWS, so a block written out
    of place changes the bytes."""
    return [np.resize(col, rows) for col in _columns(n)]


def _assert_text(path, want):
    """The file holds exactly ``want``; a failure names the first line
    that differs instead of diffing thousands of lines."""
    if path.read_text() != want:
        pairs = enumerate(zip(path.read_text().splitlines(),
                              want.splitlines()), start=1)
        first = next((i for i, (a, b) in pairs if a != b), None)
        where = "in length" if first is None else f"at line {first}"
        pytest.fail(f"{path.name} differs from the reference {where}")


# one row, one block short of full, full, one over, two and a half blocks
ROW_COUNTS = [1, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1,
              5 * BLOCK_ROWS // 2]


@pytest.mark.parametrize("rows", ROW_COUNTS)
def test_bytes_across_block_boundaries(tmp_path, rows):
    snap = _long_columns(4, rows)
    write_snapshot(tmp_path / "snapshot.csv", *snap)
    _assert_text(tmp_path / "snapshot.csv", _reference(SNAPSHOT_COLUMNS, snap))

    flux = _long_columns(2, rows)
    write_flux(tmp_path / "flux.csv", *flux)
    _assert_text(tmp_path / "flux.csv", _reference(("x_mid", "flux"), flux))

    diag = _long_columns(len(CSV_COLUMNS), rows)
    want = _reference(CSV_COLUMNS, diag, note="generated sometime")
    records = [DiagnosticsRecord(*row) for row in zip(*diag)]
    table = RecordTable(np.column_stack(diag))
    for series in (records, table):
        write_diagnostics(tmp_path / "diagnostics.csv", series,
                          header_note="generated sometime")
        _assert_text(tmp_path / "diagnostics.csv", want)


def test_unequal_columns_rejected(tmp_path):
    short = np.zeros(4)
    with pytest.raises(ValueError):
        write_snapshot(tmp_path / "s.csv", np.zeros(5), np.zeros(5), short,
                       np.zeros(5))
    with pytest.raises(ValueError):
        write_flux(tmp_path / "f.csv", np.zeros(5), short)
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("body, found", [
    ("0,1,2,3\n0.5,1,2\n", "expected 4 values, found 3"),
    ("0,1,2,3\n0.5,1,2,3,4\n", "expected 4 values, found 5"),
    ("0,1,2,3\n0.5,abc,2,3\n", "could not convert string to float: 'abc'"),
], ids=["short-row", "long-row", "not-a-number"])
def test_bad_snapshot_row_names_its_file_and_line(tmp_path, body, found):
    # the header is line 1 and the bad row line 3
    path = tmp_path / "bad.csv"
    path.write_text(",".join(SNAPSHOT_COLUMNS) + "\n" + body)
    with pytest.raises(ValueError) as info:
        read_snapshot(path)
    assert str(info.value) == f"{path}, line 3: {found}"
