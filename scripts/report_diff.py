#!/usr/bin/env python3
"""Compare two ``lmcf verify all`` output directories report by report.

For each report file (``*.report.txt`` and ``verify_summary.txt``) prints
"same" when the two files are byte-identical, else the largest relative
change |b - a| / max(|a|, |b|) in each numeric column: ``eps``,
``residual``, ``bound`` and ``ratio`` of the sample rows, ``constant`` and
``order`` of the verdict rows, and a changed ``#`` note line as both texts.
Exits 1 if any report file, report name, row count or verdict differs.

Usage: python scripts/report_diff.py DIR_A DIR_B
"""

import math
import sys
from pathlib import Path

SAMPLE_COLUMNS = ("eps", "residual", "bound", "ratio")
VERDICT_COLUMNS = ("constant", "order")


def _report_files(directory):
    return {p.name for p in Path(directory).iterdir()
            if p.name.endswith(".report.txt") or p.name == "verify_summary.txt"}


def _relative_change(a, b):
    """0 for equal values, NaN against NaN or the same infinity included."""
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    return abs(b - a) / max(abs(a), abs(b))


def _split(text):
    lines = text.splitlines()
    return ([line.split(",") for line in lines if not line.startswith("#")],
            [line for line in lines if line.startswith("#")])


def compare_file(text_a, text_b):
    """(summary line, structural problems) for one report file's two texts."""
    if text_a == text_b:
        return "same", []
    (rows_a, notes_a), (rows_b, notes_b) = _split(text_a), _split(text_b)
    problems, changes = [], {}
    if len(rows_a) != len(rows_b):
        problems.append(f"row count {len(rows_a)} -> {len(rows_b)}")
    for row_a, row_b in zip(rows_a, rows_b):
        verdict_row = row_a[-1] in ("pass", "fail")
        columns = VERDICT_COLUMNS if verdict_row else SAMPLE_COLUMNS
        width = 1 + len(columns) + verdict_row  # the name, the numbers, the verdict
        if row_a[0] != row_b[0] or not len(row_a) == len(row_b) == width:
            problems.append(f"row {','.join(row_a)} -> {','.join(row_b)}")
            continue
        if verdict_row and row_a[-1] != row_b[-1]:
            problems.append(f"{row_a[0]} verdict {row_a[-1]} -> {row_b[-1]}")
        for name, a, b in zip(columns, row_a[1:], row_b[1:]):
            try:
                change = _relative_change(float(a), float(b))
            except ValueError:
                problems.append(f"{row_a[0]} {name} {a} -> {b}")
                continue
            changes[name] = max(changes.get(name, 0.0), change)
    parts = [f"{name} {change:.3g}" for name, change in changes.items() if change > 0.0]
    parts += [f"note {a!r} -> {b!r}" for a, b in zip(notes_a, notes_b) if a != b]
    if len(notes_a) != len(notes_b):
        parts.append(f"notes {len(notes_a)} -> {len(notes_b)}")
    return ", ".join(parts) or "same rows, different bytes", problems


def main(argv):
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[-1], file=sys.stderr)
        return 2
    dir_a, dir_b = (Path(d) for d in argv)
    names_a, names_b = _report_files(dir_a), _report_files(dir_b)
    failed = False
    for name in sorted(names_a ^ names_b):
        print(f"{name}: only in {dir_a if name in names_a else dir_b}")
        failed = True
    for name in sorted(names_a & names_b):
        summary, problems = compare_file((dir_a / name).read_text(), (dir_b / name).read_text())
        print(f"{name}: {summary}")
        for problem in problems:
            print(f"  DIFFERS: {problem}")
        failed = failed or bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
