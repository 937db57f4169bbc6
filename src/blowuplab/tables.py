"""CSV tables: a header row, then one row per sample, each value written as
repr(float(v)) so that it reads back bit for bit.

write_table writes the bytes that csv.writer would (fields joined by ",",
rows ended by "\\r\\n"; no header name or float repr needs quoting), with one
string join in place of the csv module's per-field work.  read_table reads
the named columns back with np.loadtxt."""

from __future__ import annotations

import numpy as np


def write_table(path, header, columns):
    """Write equal-length columns under `header` to the CSV file `path`."""
    cells = (map(repr, np.asarray(col, dtype=float).tolist())
             for col in columns)
    lines = [",".join(header), *map(",".join, zip(*cells)), ""]
    with open(path, "w", newline="") as fh:
        fh.write("\r\n".join(lines))


def read_table(path, names):
    """The columns `names` of the CSV table `path`, as 1-D float arrays (of
    length 1 for a one-row table); OSError if the file cannot be read,
    ValueError if the table has no rows, a row does not parse or a name is
    not in its header."""
    with open(path) as fh:
        header = fh.readline().rstrip("\r\n").split(",")
        rows = fh.read().splitlines()
    missing = [name for name in names if name not in header]
    if missing:
        raise ValueError(f"{path} has no column {', '.join(missing)}")
    if not any(rows):
        raise ValueError(f"{path} has no rows")
    data = np.loadtxt(rows, delimiter=",", ndmin=2)
    if data.shape[1] != len(header):
        raise ValueError(f"{path} has {data.shape[1]} fields a row under "
                         f"{len(header)} header names")
    return [data[:, header.index(name)] for name in names]
