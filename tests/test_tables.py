import csv

import numpy as np
import pytest

from blowuplab.tables import read_table, write_table

#: values whose repr is the edge of the format: signed zero, the infinities,
#: nan, the least subnormal, the largest double, and the switches between
#: positional and exponent notation
SPECIAL = [-0.0, 0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324,
           1.7976931348623157e308, 1e-05, 1e-4, 1e16, 1e15, 0.1, 1.0 / 3.0]


def _csv_writer_table(path, header, columns):
    """The table as csv.writer writes it, one repr(float(v)) a field."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in zip(*columns):
            writer.writerow([repr(float(v)) for v in row])


def _columns():
    rng = np.random.default_rng(3)
    special = np.array(SPECIAL)
    scaled = rng.standard_normal(special.size) * 10.0 ** rng.integers(
        -300, 300, special.size)
    counts = np.arange(special.size)   # an int column is written as floats
    return [special, scaled, counts, special[::-1].tolist()]


def test_write_table_matches_csv_writer(tmp_path):
    header = ("a", "b_c", "n", "d")
    columns = _columns()
    write_table(tmp_path / "fast.csv", header, columns)
    _csv_writer_table(tmp_path / "ref.csv", header, columns)
    assert (tmp_path / "fast.csv").read_bytes() \
        == (tmp_path / "ref.csv").read_bytes()
    write_table(tmp_path / "empty.csv", header, [[]] * 4)
    _csv_writer_table(tmp_path / "empty_ref.csv", header, [[]] * 4)
    assert (tmp_path / "empty.csv").read_bytes() \
        == (tmp_path / "empty_ref.csv").read_bytes()


def test_read_table_bit_for_bit(tmp_path):
    path = tmp_path / "t.csv"
    header = ("a", "b_c", "n", "d")
    columns = _columns()
    write_table(path, header, columns)
    # any subset of the columns, in any order
    back = read_table(path, ("d", "a", "n", "b_c"))
    for got, want in zip(back, [columns[3], columns[0], columns[2],
                                columns[1]]):
        want = np.asarray(want, dtype=float)
        assert got.dtype == np.float64 and got.shape == want.shape
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_read_table_one_row(tmp_path):
    path = tmp_path / "one.csv"
    write_table(path, ("r", "u"), ([0.5], [-0.0]))
    r, u = read_table(path, ("r", "u"))
    assert r.shape == u.shape == (1,)
    assert r[0] == 0.5 and np.signbit(u[0])


def test_read_table_errors(tmp_path):
    path = tmp_path / "t.csv"
    write_table(path, ("r", "u"), ([0.0, 1.0], [0.0, 2.0]))
    with pytest.raises(ValueError, match="t_left"):
        read_table(path, ("r", "t_left"))
    with pytest.raises(OSError):
        read_table(tmp_path / "missing.csv", ("r",))
    for body in ("r,u\n0,0,7\nx", "r,u\n0,x\n", "r,u\n0,0,7\n1,1,8\n",
                 "r,u\r\n"):
        path.write_text(body)
        with pytest.raises(ValueError):
            read_table(path, ("r", "u"))
