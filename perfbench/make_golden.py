"""Regenerate perfbench/golden.json from the current lmcf.

    python3 perfbench/make_golden.py

Run it only when a change is meant to alter lmcf's results; the file is
the correctness reference of every benchmark run.
"""

import json
import os
import shutil
import sys
import tempfile

import run  # noqa: F401  (pins the thread count and puts src/ on sys.path)
from workloads import GOLDEN_PATH, WORKLOADS, make_workload


def main():
    golden = {}
    workdir = tempfile.mkdtemp(dir=run.ROOT, prefix=".golden-")
    try:
        for name in WORKLOADS:
            sizes = ("full",) if name == "certify_all" else ("full", "tiny")
            for size in sizes:
                wl = make_workload(name, 0, size, workdir)
                wl.setup()
                values = wl.golden_values()
                if name == "certify_all":
                    golden[name] = values
                else:
                    golden.setdefault(name, {})[size] = values
                print(f"{name} {size}: {values}", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(GOLDEN_PATH, "w", encoding="ascii") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {os.path.relpath(GOLDEN_PATH, run.ROOT)}")


if __name__ == "__main__":
    main()
