"""Tests of the benchmark itself: every workload at a tiny size, the
correctness gate on corrupted outputs, and BENCHMARK.json's consistency.

    python3 -m pytest perfbench/tests
"""

import dataclasses
import json
import math
import os
import shutil
import subprocess
import sys
import time

import pytest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

import run  # noqa: E402
import workloads  # noqa: E402
from tracing import JET_OPS_SITES, PLAIN_WRAPS, Tracer  # noqa: E402

with open(os.path.join(BENCH_DIR, "metrics.json"), encoding="ascii") as _fh:
    METRICS = json.load(_fh)


def bench(*args, cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def last_json(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# BENCHMARK.json and metrics.json

def test_benchmark_json_follows_metrics_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="ascii") as fh:
        spec = json.load(fh)
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert spec["end_to_end"] == [
        {k: m[k] for k in ("name", "unit", "better", "bound")} for m in METRICS["end_to_end"]]
    assert spec["per_layer"] == [
        {k: m[k] for k in ("name", "unit", "better")} for m in METRICS["per_layer"]]
    assert all(m["moves"] for m in METRICS["per_layer"])


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail_percentile(list(range(1, 11))) == (100.0, 10)
    assert run.tail_percentile(list(range(1, 21))) == (50.0, 10)
    assert run.tail_percentile(list(range(1, 1001))) == (99.0, 990)


def test_end_to_end_scales_each_part_of_a_job_by_its_host_factor():
    n = run.calibrate.NOMINAL_S
    assert run.calibrate.host_factor(n, n) == 1.0
    # the same job observed at 2 s on a quiet host, at 3 s on one 1.5x slow,
    # and at 3 s when the host slowed 2x for about its second half
    jobs = [workloads.Job(w, [0.0, w / 2, w], 8, 3, None, []) for w in (2.0, 3.0, 3.0)]
    jobs[0].readings = [(0.0, n), (2.0, n)]
    jobs[1].readings = [(0.0, 1.5 * n), (3.0, 1.5 * n)]
    jobs[2].readings = [(0.0, n), (1.0, n), (1.5, 2.0 * n), (3.0, 2.0 * n)]
    # factors 1, 1 / 1.5 and 0.5 over its three segments
    assert run.calibrate.scaled(jobs[2].readings, 0.0, 3.0) == pytest.approx(1.0 + 0.5 / 1.5 + 0.75)
    metrics, details = run.end_to_end(jobs, ([0.5], [0.7]), 0, 4)
    assert metrics["wall_s"] == pytest.approx(2.0) and metrics["steps_per_s"] == pytest.approx(4.0)
    assert metrics["chunk_ms_p50"] == pytest.approx(1e3) and metrics["setup_s"] == 0.5
    assert details["observed_wall_s"] == 3.0


def test_job_time_leaves_out_host_readings():
    class Sleeps(workloads.Workload):
        def run_job(self, stamp):
            for _ in range(3):
                time.sleep(0.15)
                stamp()

        def check(self, out):
            return 3, 3, None, []

    job = Sleeps(0, "tiny", None).job(read_speed=lambda: time.sleep(0.5) or 1.0)
    # read at 0.30 s of job time only: 0.15 s and 0.45 s are within READ_EVERY_S of a reading
    assert [t for t, _ in job.readings] == pytest.approx([0.30], abs=0.1)
    assert job.wall < 0.8 and job.chunks[1] < 0.4


# ---------------------------------------------------------------------------
# every workload end to end at a tiny size

@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_workload_runs_at_tiny_size(workload, trace):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "0.5",
                 "--size", "tiny", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = last_json(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    section = "per_layer" if trace else "end_to_end"
    expected = {m["name"]: m["unit"] for m in METRICS[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name, metric in result["metrics"].items():
        assert math.isfinite(metric["value"]), name
        if not trace:
            assert metric["value"] > 0.0, name


def test_missing_program_exits_without_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "flow2d_spectral", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


# ---------------------------------------------------------------------------
# the gate fires on corrupted outputs

def tiny(name, tmp_path):
    wl = workloads.make_workload(name, 5, "tiny", str(tmp_path))
    wl.setup()
    assert wl.reference() == []
    return wl


def test_gate_rejects_increasing_psi(tmp_path):
    wl = tiny("flow2d_spectral", tmp_path)
    result = wl.run_job(lambda rec: None)
    assert wl.check(result)[3] == []
    records = list(result.records)
    records[-1] = dataclasses.replace(records[-1], psi_max=2.0 * records[0].psi_max)
    fails = wl.check(dataclasses.replace(result, records=tuple(records)))[3]
    assert any("psi_max increased" in f for f in fails)


def test_gate_rejects_increasing_volume_and_blowup(tmp_path):
    wl = tiny("flow3d_jacobi", tmp_path)
    result = wl.run_job(lambda rec: None)
    records = list(result.records)
    records[-1] = dataclasses.replace(records[-1], volume=records[0].volume + 1e-9)
    fails = wl.check(dataclasses.replace(result, records=tuple(records), outcome="blowup"))[3]
    assert any("volume increased" in f for f in fails)
    assert any("outcome blowup" in f for f in fails)


def test_golden_tolerance_admits_roundoff_not_a_changed_scheme(tmp_path):
    import lmcf.flow

    wl = tiny("flow2d_spectral", tmp_path)
    golden = workloads.load_golden()["flow2d_spectral"]["tiny"]
    cfg, u0 = wl._load(workloads.GOLDEN_SEED, workloads.GOLDEN_STEPS["flow2d_spectral"])
    nudged = {k: v * (1.0 + 1e-13) if isinstance(v, float) else v for k, v in golden.items()}
    assert workloads.compare_golden(nudged, golden, "golden") == []
    other = lmcf.flow.integrate(u0, dataclasses.replace(cfg, scheme="central4"))
    got = dict(workloads.record_scalars(other.records[-1]), steps=other.steps,
               outcome=other.outcome)
    assert workloads.compare_golden(got, golden, "golden") != []


def test_gate_rejects_flipped_checkpoint_byte(tmp_path, monkeypatch):
    import lmcf.cli

    wl = tiny("cli_monitored_1d", tmp_path)
    assert wl.job().failures == []
    save = lmcf.cli.checkpoint_save

    def save_and_flip(state, cfg, path):
        save(state, cfg, path)
        with open(path, "r+b") as fh:
            fh.seek(-3, os.SEEK_END)
            byte = fh.read(1)
            fh.seek(-3, os.SEEK_END)
            fh.write(bytes([byte[0] ^ 0x10]))

    monkeypatch.setattr(lmcf.cli, "checkpoint_save", save_and_flip)
    fails = wl.job().failures
    assert any("not bit-identical" in f for f in fails)


def test_gate_rejects_failed_or_missing_reports():
    from lmcf.verification import ResidualReport

    wl = workloads.make_workload("certify_all", 0, "full", None)
    names = workloads.load_golden()["certify_all"]["reports"]
    reports = [ResidualReport(n, (), 0.0, math.nan, True) for n in names]
    assert wl.check((reports, True))[3] == []
    reports[5] = dataclasses.replace(reports[5], passed=False)
    assert wl.check((reports, False))[3] != []
    assert wl.check((reports[:-1], True))[3] != []


def test_failed_gate_makes_the_command_fail(monkeypatch, capsys):
    import lmcf.flow

    record = lmcf.flow.monitor_record

    def growing_psi(state, cfg):
        rec = record(state, cfg)
        return dataclasses.replace(rec, psi_max=rec.psi_max * (1.0 + 1e3 * state.t))

    monkeypatch.setattr(lmcf.flow, "monitor_record", growing_psi)
    monkeypatch.setattr(run, "probe_setup_times", lambda args: ([0.1], [0.1]))
    code = run.main(["--workload", "flow2d_spectral", "--seed", "2", "--seconds", "0.2",
                     "--size", "tiny"])
    result = last_json(capsys.readouterr().out)
    assert code == 1
    assert result["correct"] is False and result["failed"] == result["attempted"]


# ---------------------------------------------------------------------------

def test_tracer_restores_every_wrapped_name():
    import importlib

    import lmcf.suites

    sites = [site for group in PLAIN_WRAPS.values() for site in group] + JET_OPS_SITES
    before = {site: getattr(importlib.import_module(site[0]), site[1]) for site in sites}
    table = lmcf.suites.SUITES
    tracer = Tracer()
    tracer.install()
    assert lmcf.suites.SUITES is not table
    tracer.uninstall()
    assert lmcf.suites.SUITES is table
    for (mod, attr), value in before.items():
        assert getattr(importlib.import_module(mod), attr) is value, (mod, attr)
