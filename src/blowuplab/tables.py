"""CSV tables: a header row, then one row per sample, each value written as
repr(float(v)) so that it reads back bit for bit."""

from __future__ import annotations

import csv


def write_table(path, header, columns):
    """Write equal-length columns under `header` to the CSV file `path`."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in zip(*columns):
            writer.writerow([repr(float(v)) for v in row])
