"""The lmcf names that the benchmark's tracer wraps by module attribute.

``perfbench/tracing.py`` installs its spans by replacing module attributes
listed in ``PLAIN_WRAPS`` and ``JET_OPS_SITES``, and the table
``lmcf.suites.SUITES``.  A renamed or deleted name would break ``--trace 1``
only when the benchmark runs; here it fails the test suite instead.
"""

import importlib
from pathlib import Path

import pytest

TRACING_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

# executed from its source text, so that no bytecode cache is written beside it
tracing = {"__name__": "perfbench_tracing"}
exec(compile(TRACING_PATH.read_text(encoding="utf-8"), str(TRACING_PATH), "exec"), tracing)
SITES = sorted({site for sites in tracing["PLAIN_WRAPS"].values() for site in sites}
               | set(tracing["JET_OPS_SITES"]))


@pytest.mark.parametrize("module_name,attr", SITES)
def test_wrapped_name_resolves(module_name, attr):
    assert callable(getattr(importlib.import_module(module_name), attr, None))


def test_battery_table_resolves():
    suites = importlib.import_module("lmcf.suites").SUITES
    assert suites and all(callable(fn) for fn in suites.values())
