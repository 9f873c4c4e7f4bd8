"""lmcf benchmark: one workload per process, closed loop, checked outputs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; lmcf is imported from ``src/``.  With
``--trace 0`` the last stdout line is a JSON object whose metrics are the
end-to-end metrics of ``perfbench/metrics.json``; with ``--trace 1`` they
are the per-layer metrics, from traced jobs alternating with untraced ones.
End-to-end times are scaled by the host factor of ``calibrate.py``.  Lines
before it (prefixed ``#``) carry details: the machine fingerprint, the
tail percentile and its sample count, reasons for metrics that read 0.
The exit code is 0 when every job passed its correctness gate, 1 when a
gate failed and 2 when lmcf cannot be imported.  Results and traced spans
are also written under ``.perfbench_out/``.
"""

import os

# single-threaded numerics, set before anything imports numpy
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
METRICS_PATH = os.path.join(HERE, "metrics.json")
SETUP_PROBES = 9
PROBE_TIMEOUT_S = 60
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 50.0)
TAIL_BEYOND = 10

sys.path.insert(0, os.path.join(ROOT, "src"))  # the checkout's lmcf, not an installed one

import calibrate  # noqa: E402
from workloads import WORKLOADS, make_workload  # noqa: E402


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny: small grids for the benchmark's own tests")
    p.add_argument("--probe-setup", action="store_true",
                   help="internal: set up once, print 'ready' and exit")
    return p.parse_args(argv)


def tail_percentile(samples):
    """(percentile, value): the highest ladder percentile with at least
    TAIL_BEYOND samples above its nearest-rank position; the maximum when
    there are too few samples for any."""
    s = sorted(samples)
    n = len(s)
    for p in TAIL_LADDER:
        k = math.ceil(p / 100.0 * n)
        if n - k >= TAIL_BEYOND:
            return p, s[k - 1]
    return 100.0, s[-1]


def probe_setup_times(args):
    """Set-up time of fresh processes, spawn to the first timed step, each
    scaled by the host factor read around it: (scaled, as observed)."""
    cmd = [sys.executable, os.path.abspath(__file__), "--probe-setup",
           "--workload", args.workload, "--seed", str(args.seed), "--size", args.size]
    scaled, observed = [], []
    before = calibrate.kernel_seconds()
    for _ in range(SETUP_PROBES):
        t0 = perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            elapsed = perf_counter() - t0
            _, err = proc.communicate(timeout=PROBE_TIMEOUT_S)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe failed ({proc.returncode}): {err.strip()}")
        after = calibrate.kernel_seconds()
        scaled.append(elapsed * calibrate.host_factor(before, after))
        observed.append(elapsed)
        before = after
    return scaled, observed


def run_jobs(wl, seconds):
    """Closed loop: run checked jobs back to back until ``seconds`` pass.
    The host's speed is read before the first job, after every job and at
    the jobs' pause points; each job's ``readings`` end up covering it."""
    jobs = []
    stop = perf_counter() + seconds
    before = calibrate.kernel_seconds()
    while not jobs or perf_counter() < stop:
        job = wl.job(read_speed=calibrate.kernel_seconds)
        after = calibrate.kernel_seconds()
        job.readings = [(0.0, before), *job.readings, (job.wall, after)]
        jobs.append(job)
        before = after
    return jobs


def end_to_end(jobs, setup_times, failed, attempted):
    """End-to-end metrics from the jobs' times scaled by the host factor."""
    walls = [calibrate.scaled(job.readings, 0.0, job.wall) for job in jobs]
    chunks = [calibrate.scaled(job.readings, a, b)
              for job in jobs for a, b in zip(job.stamps, job.stamps[1:])]
    chunks = chunks or walls  # one output per job: the chunk is the job
    pct, tail = tail_percentile(chunks)
    factors = [w / job.wall for job, w in zip(jobs, walls)]
    metrics = {
        "setup_s": statistics.median(setup_times[0]),
        "wall_s": statistics.median(walls),
        "steps_per_s": statistics.median(job.steps / w for job, w in zip(jobs, walls)),
        "reports_per_s": statistics.median(job.reports / w for job, w in zip(jobs, walls)),
        "chunk_ms_p50": 1e3 * statistics.median(chunks),
        "chunk_ms_tail": 1e3 * tail,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_frac": (attempted - failed) / attempted,
    }
    observed = [c for job in jobs for c in job.chunks]
    observed_pct, observed_tail = tail_percentile(observed)
    details = {
        "chunk_tail_percentile": pct,
        "chunk_samples": len(chunks),
        "jobs": len(jobs),
        "failed_frac": failed / attempted,
        "setup_samples_s": setup_times[0],
        "host_factor_p50": statistics.median(factors),
        "host_factor_min_max": [min(factors), max(factors)],
        "host_readings_per_job": statistics.fmean(len(job.readings) for job in jobs),
        # as observed, without the host factor
        "observed_setup_samples_s": setup_times[1],
        "observed_wall_s": statistics.median(job.wall for job in jobs),
        "observed_chunk_ms_p50": 1e3 * statistics.median(observed),
        "observed_chunk_ms_tail": 1e3 * observed_tail,
        "observed_chunk_tail_percentile": observed_pct,
    }
    return metrics, details


def machine_fingerprint():
    import numpy as np

    info = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "fft_backend": fft_backend(),
        "nproc": len(os.sched_getaffinity(0)),
    }
    try:
        out = subprocess.run(["lscpu"], capture_output=True, text=True, timeout=10,
                             env=dict(os.environ, LC_ALL="C")).stdout
    except (OSError, subprocess.SubprocessError):
        out = ""
    fields = {"Model name": "cpu_model", "L1d cache": "l1d_cache", "L2 cache": "l2_cache",
              "L3 cache": "l3_cache"}
    for line in out.splitlines():
        key, _, value = line.partition(":")
        if key.strip() in fields:
            info[fields[key.strip()]] = value.strip()
    return info


def fft_backend():
    import numpy as np

    try:
        import numpy.fft._pocketfft_umath  # noqa: F401
        return f"pocketfft (numpy {np.__version__} C++ ufuncs)"
    except ImportError:
        return f"{np.fft.rfftn.__module__} (numpy {np.__version__})"


def load_metric_units():
    with open(METRICS_PATH, encoding="ascii") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for section in ("end_to_end", "per_layer")
            for m in spec[section]}


def traced_phase(wl, args):
    """Per-layer metrics.  Untraced and traced jobs alternate, so that
    machine load drifting during the run does not enter the overhead; the
    tracer is installed only around the set-up and each traced job."""
    from tracing import Tracer, layer_metrics

    tracer = Tracer()
    tracer.install()
    try:
        wl.setup()
    finally:
        tracer.uninstall()
    untraced, traced = [], []
    stop = perf_counter() + args.seconds
    while not traced or perf_counter() < stop:
        untraced.append(wl.job())
        j = len(traced)
        tracer.install()
        try:
            traced.append(wl.job(lambda fn, stamp: tracer.job_span(j, fn, stamp)))
        finally:
            tracer.uninstall()
    metrics, reasons = layer_metrics(tracer, list(range(len(traced))))
    traced[-1].failures += wl.check_trace(metrics)
    # means, like the per-job layer times, so the layer self times sum to traced_wall
    untraced_wall = statistics.fmean(job.wall for job in untraced)
    traced_wall = statistics.fmean(job.wall for job in traced)
    metrics["trace.untraced_wall_s"] = untraced_wall
    metrics["trace.wall_s"] = traced_wall
    metrics["trace.overhead_frac"] = traced_wall / untraced_wall - 1.0
    layer_sum = sum(metrics[k] for k in metrics if k.endswith(".self_s"))
    spans_path = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.csv.gz")
    tracer.write(spans_path)
    details = {
        "zero_reasons": reasons,
        "self_time_sum_s": layer_sum,
        "self_time_sum_vs_untraced_wall": layer_sum / untraced_wall - 1.0,
        "traced_jobs": len(traced),
        "untraced_jobs": len(untraced),
        "working_set_bytes_computed": tracer.footprint,
        "roofline": "none claimed: bytes and flops are computed from array shapes, "
                    "no bandwidth or peak rate is measured",
        "spans_file": os.path.relpath(spans_path, ROOT),
    }
    return untraced + traced, metrics, details


def run(args, workdir):
    wl = make_workload(args.workload, args.seed, args.size, workdir)
    setup_times = None if args.trace else probe_setup_times(args)
    t0 = perf_counter()
    wl.setup()
    setup_in_process = perf_counter() - t0
    failures = wl.reference()
    failed = 1 if failures else 0
    if args.trace:
        jobs, metrics, details = traced_phase(wl, args)
    else:
        jobs = run_jobs(wl, args.seconds)
    for job in jobs:
        if job.fingerprint != jobs[0].fingerprint:
            job.failures.append("job output differs from the run's first job (non-deterministic)")
        failed += 1 if job.failures else 0
        failures += job.failures
    attempted = 1 + len(jobs)
    if not args.trace:
        metrics, details = end_to_end(jobs, setup_times, failed, attempted)
    details["setup_in_process_s"] = setup_in_process
    units = load_metric_units()
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    record = dict(result, workload=args.workload, seed=args.seed, size=args.size,
                  trace=args.trace, seconds=args.seconds, machine=machine_fingerprint(),
                  details=details, failures=sorted(set(failures)))
    with open(os.path.join(OUT_DIR, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="ascii") as fh:
        json.dump(record, fh, indent=1)
    for key in ("machine", "details"):
        print(f"# {key}: {json.dumps(record[key], sort_keys=True)}")
    for failure in record["failures"]:
        print(f"# FAILED: {failure}")
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


def main(argv=None):
    args = parse_args(argv)
    src = os.path.join(ROOT, "src")
    try:
        import lmcf
    except ImportError as exc:
        print(f"perfbench: cannot import lmcf from {src}: {exc}", file=sys.stderr)
        return 2
    if not os.path.abspath(lmcf.__file__).startswith(src + os.sep):
        print(f"perfbench: lmcf was imported from {lmcf.__file__}, not from {src}",
              file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR)
    try:
        if args.probe_setup:
            make_workload(args.workload, args.seed, args.size, workdir).setup()
            print("ready", flush=True)
            return 0
        return run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
