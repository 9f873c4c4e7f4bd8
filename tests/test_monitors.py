"""monitors.csv rows: one template, with the bytes of per-field formatting."""

import dataclasses
import math

import numpy as np
import pytest

from lmcf.monitors import MONITOR_HEADER, MonitorRecord, read_monitor_csv, write_monitor_csv

EDGE_VALUES = [-0.0, math.inf, -math.inf, math.nan, 5e-324, 1.7976931348623157e308]


def per_field_row(rec):
    return ",".join([f"{x:.17g}" for x in dataclasses.astuple(rec)])


def records_of(values):
    """Records whose fields run through ``values`` in order."""
    width = len(dataclasses.fields(MonitorRecord))
    values = list(values)
    return [MonitorRecord(*values[i:i + width]) for i in range(0, len(values) - width + 1, width)]


@pytest.mark.parametrize("value", EDGE_VALUES)
def test_csv_row_formats_each_field_as_its_fstring(value):
    (rec,) = records_of([value] * 10)
    assert rec.csv_row() == per_field_row(rec)
    mixed = records_of([value, 1.0, -2.5, value, 0.0, 1e-300, value, -1e300, 3.0, value])
    assert mixed[0].csv_row() == per_field_row(mixed[0])


def test_csv_row_on_random_bit_patterns():
    bits = np.random.default_rng(2024).integers(0, 2**64, size=4000, dtype=np.uint64)
    for rec in records_of(bits.view(np.float64).tolist()):
        assert rec.csv_row() == per_field_row(rec)


def test_file_is_the_header_and_one_row_per_record(tmp_path):
    recs = records_of([0.1 * k for k in range(30)] + EDGE_VALUES + [1.0] * 4)
    path = tmp_path / "monitors.csv"
    write_monitor_csv(recs, path)
    want = MONITOR_HEADER + "\n" + "".join(per_field_row(rec) + "\n" for rec in recs)
    assert path.read_bytes() == want.encode("ascii")
    back = read_monitor_csv(path)
    assert [per_field_row(rec) for rec in back] == [per_field_row(rec) for rec in recs]
    write_monitor_csv([], path)
    assert path.read_bytes() == (MONITOR_HEADER + "\n").encode("ascii")
