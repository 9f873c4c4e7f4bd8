"""Time-series monitors: one record per sampled flow time."""

from __future__ import annotations

from dataclasses import dataclass, fields as dc_fields
from operator import attrgetter


@dataclass(frozen=True)
class MonitorRecord:
    """Tracked scalars at one flow time: sup norms, psi, angle range, volume."""

    t: float
    max_u: float
    max_du: float
    max_d2u: float
    max_d3u: float
    psi_max: float
    theta_min: float
    theta_max: float
    volume: float
    dt: float

    def csv_row(self):
        """The fields in header order, each ``f"{x:.17g}"``, formatted by one
        ``%`` template: ``"%.17g" % x`` has the same bytes, NaN and inf included."""
        return _CSV_ROW % _field_values(self)

    @classmethod
    def from_csv_row(cls, row):
        parts = row.strip().split(",")
        if len(parts) != len(_FIELD_NAMES):
            raise ValueError(f"monitor row has {len(parts)} columns, expected {len(_FIELD_NAMES)}")
        return cls(**{n: float(p) for n, p in zip(_FIELD_NAMES, parts)})


_FIELD_NAMES = tuple(f.name for f in dc_fields(MonitorRecord))
_field_values = attrgetter(*_FIELD_NAMES)
_CSV_ROW = ",".join(["%.17g"] * len(_FIELD_NAMES))
MONITOR_HEADER = ",".join(_FIELD_NAMES)


def write_monitor_csv(records, path):
    """monitors.csv: the header and one ``csv_row`` per record, in one write."""
    text = "\n".join([MONITOR_HEADER, *[rec.csv_row() for rec in records], ""])
    with open(path, "w", encoding="ascii") as fh:
        fh.write(text)


def read_monitor_csv(path):
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline().strip()
        if header != MONITOR_HEADER:
            raise ValueError(f"unexpected monitors.csv header: {header!r}")
        return [MonitorRecord.from_csv_row(line) for line in fh if line.strip()]
