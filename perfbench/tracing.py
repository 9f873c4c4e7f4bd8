"""Span tracing of the lmcf layers, installed from outside the package.

The traced run replaces public names that lmcf code looks up at call time
(module attributes such as ``lmcf.flow.monitor_record``, the ops object
returned by ``jet_ops``, the battery table ``lmcf.suites.SUITES``) with
wrappers that record one span per call.  Nothing under ``src/`` changes;
``Tracer.uninstall`` puts every original back.

A span is (name, start, end, parent, job).  Spans stay in memory and are
written once, when the run ends.  A span's self time is its duration minus
the durations of its direct children; summing self times by layer
partitions each job's wall time among the layers.
"""

from __future__ import annotations

import functools
import gzip
import math
import os
import statistics
from time import perf_counter

import numpy as np

LAYERS = ("fields", "geometry", "flow", "monitors", "verification", "suites",
          "initial_data", "config_io", "cli")

JOB_SPAN = "bench.job"
SETUP_JOB = -1

CHECK_NAMES = (
    "check_angle_expansion", "check_evolution_inequality", "check_laplacian_difference",
    "check_log_jet_monotone", "check_psi_monotone", "check_second_variation",
    "check_volume_dissipation",
)

# span name -> [(module, attribute), ...] whose current value is wrapped
PLAIN_WRAPS = {
    "fields.derivative": [("lmcf.geometry", "derivative"), ("lmcf.verification", "derivative"),
                          ("lmcf.suites", "derivative")],
    "geometry.jacobi": [("lmcf.geometry", "jacobi_eigenvalues_sym3")],
    "geometry.laplace_beltrami": [("lmcf.verification", "laplace_beltrami")],
    "geometry.induced_metric": [("lmcf.geometry", "induced_metric"),
                                ("lmcf.verification", "induced_metric")],
    "geometry.graph_volume": [("lmcf.geometry", "graph_volume"),
                              ("lmcf.verification", "graph_volume")],
    "flow.integrate": [("lmcf.flow", "integrate"), ("lmcf.suites", "integrate"),
                       ("lmcf.cli", "integrate")],
    "flow.step_rk4": [("lmcf.verification", "step_rk4")],
    "flow.monitor_record": [("lmcf.flow", "monitor_record")],
    "flow.checkpoint_save": [("lmcf.cli", "checkpoint_save")],
    "flow.checkpoint_load": [("lmcf.cli", "checkpoint_load")],
    "monitors.write_csv": [("lmcf.cli", "write_monitor_csv")],
    "verification.sample_trajectory": [("lmcf.suites", "sample_trajectory")],
    "verification.check": [("lmcf.suites", name) for name in CHECK_NAMES],
    "initial_data.build": [("lmcf.config_io", "build_initial"),
                           ("lmcf.suites", "random_bandlimited_potential"),
                           ("lmcf.suites", "single_mode_potential")],
    "config_io.load_setup": [("lmcf.config_io", "load_setup"), ("lmcf.cli", "load_setup")],
    "cli.main": [("lmcf.cli", "main")],
}
JET_OPS_SITES = [("lmcf.flow", "jet_ops"), ("lmcf.verification", "jet_ops"),
                 ("lmcf.initial_data", "jet_ops")]


def layer_of(span_name):
    return span_name.split(".", 1)[0]


# ---------------------------------------------------------------------------
# computed kernel counts of the fields layer

@functools.lru_cache(maxsize=None)
def fields_kernel(sizes, rank, scheme):
    """Computed (ffts, flops, bytes, footprint) of one rank-``rank`` jet call.

    From array shapes only; cache misses are ignored.  A spectral call makes
    one real forward FFT and one inverse per stored component; each numpy pass
    reads and writes its whole operands: forward (8N in, 16M out), per
    component a multiply (16M in, 16M out) and an inverse (16M in, 8N out),
    then ``np.stack`` copies the c outputs (8cN in, 8cN out).  N is the grid
    size and M the half-spectrum size.  A real FFT of size N is counted as
    2.5 N log2 N flops and a complex multiply as 6 flops.  ``central4`` calls
    count no FFTs and only their compulsory input and output bytes.
    """
    dim = len(sizes)
    ncomp = math.comb(dim + rank - 1, rank)
    n = math.prod(sizes)
    if scheme != "spectral":
        return 0, 0.0, 8 * n * (1 + ncomp), 8 * n * (1 + ncomp)
    m = math.prod(sizes[:-1]) * (sizes[-1] // 2 + 1)
    ffts = 1 + ncomp
    fft_flops = 2.5 * n * math.log2(n)
    flops = ffts * fft_flops + 6.0 * m * ncomp
    nbytes = 8 * n + 16 * m + ncomp * (48 * m + 8 * n) + 16 * ncomp * n
    footprint = 8 * n + 32 * m + 16 * ncomp * n
    return ffts, flops, nbytes, footprint


def jacobi_footprint(npoints):
    """Computed bytes live in one 3x3 Jacobi call: input and working copy
    (9 doubles each per point), four per-point scalars and four 3-vectors of
    rotation temporaries."""
    return 8 * npoints * (9 + 9 + 4 + 12)


# ---------------------------------------------------------------------------

class _TracedOps:
    """Stand-in for a jet_ops object that records a span per call."""

    def __init__(self, tracer, ops, spec, scheme):
        self._tracer = tracer
        self._ops = ops
        self._sizes = tuple(spec.sizes)
        self._scheme = scheme

    def __getattr__(self, name):
        return getattr(self._ops, name)

    def _call(self, span, fn, args, rank):
        out = self._tracer.call(span, fn, args, {})
        self._tracer.count_kernel(span, self._sizes, rank, self._scheme)
        if rank == 2:
            self._tracer.capture_hessian(self._sizes, out)
        return out

    def hessian(self, values):
        return self._call("fields.hessian", self._ops.hessian, (values,), 2)

    def components(self, values, rank):
        return self._call("fields.components", self._ops.components, (values, rank), rank)

    def gradient(self, values):
        return self._call("fields.components", self._ops.gradient, (values,), 1)


class Tracer:
    """Records spans and counters while installed; restores lmcf on uninstall."""

    def __init__(self):
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self.jobs = []
        self.job = SETUP_JOB
        self.counters = {}  # (job, key) -> value
        self.footprint = 0
        self.hessian_sample = None
        self._stack = []
        self._saved = []

    # -- recording -------------------------------------------------------

    def call(self, name, fn, args, kwargs):
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.jobs.append(self.job)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(perf_counter())
        try:
            return fn(*args, **kwargs)
        finally:
            self.ends[idx] = perf_counter()
            self._stack.pop()

    def add(self, key, value):
        k = (self.job, key)
        self.counters[k] = self.counters.get(k, 0) + value

    def count_kernel(self, span, sizes, rank, scheme):
        ffts, flops, nbytes, footprint = fields_kernel(sizes, rank, scheme)
        self.add("fields.fft", ffts)
        self.add("fields.flops", flops)
        self.add("fields.bytes", nbytes)
        if span == "fields.hessian":
            self.add("fields.hessian_fft", ffts)
            self.add("fields.hessian_bytes", nbytes)
        self.footprint = max(self.footprint, footprint)

    def capture_hessian(self, sizes, comps):
        # keep the first Hessian of the largest grid; swapping the held array
        # on every call would change how numpy's allocations are reused
        if self.hessian_sample is None or math.prod(sizes) > math.prod(self.hessian_sample[0]):
            self.hessian_sample = (sizes, comps)

    def job_span(self, job, fn, *args):
        """Run ``fn(*args)`` as job ``job`` under a root span."""
        self.job = job
        try:
            return self.call(JOB_SPAN, fn, args, {})
        finally:
            self.job = SETUP_JOB

    # -- installation ----------------------------------------------------

    def _patch(self, module, attr, value):
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def _wrap(self, name, fn, after=None):
        tracer = self

        def traced(*args, **kwargs):
            out = tracer.call(name, fn, args, kwargs)
            if after is not None:
                after(args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def install(self):
        import importlib

        after = {
            "fields.derivative": self._after_derivative,
            "flow.integrate": lambda a, k, out: self.add("flow.steps", out.steps),
            "flow.step_rk4": lambda a, k, out: self.add("flow.steps", 1),
            "flow.checkpoint_save": lambda a, k, out: self.add(
                "flow.checkpoint_bytes", os.path.getsize(a[2] if len(a) > 2 else k["path"])),
            "monitors.write_csv": lambda a, k, out: self.add("monitors.rows", len(a[0])),
            "geometry.jacobi": lambda a, k, out: self._after_jacobi(a),
        }
        for name, sites in PLAIN_WRAPS.items():
            for mod_name, attr in sites:
                module = importlib.import_module(mod_name)
                self._patch(module, attr, self._wrap(name, getattr(module, attr), after.get(name)))
        for mod_name, attr in JET_OPS_SITES:
            module = importlib.import_module(mod_name)
            self._patch(module, attr, self._traced_jet_ops(getattr(module, attr)))
        suites = importlib.import_module("lmcf.suites")
        self._patch(suites, "SUITES", {key: self._wrap(f"suites.{key}", fn, self._after_battery)
                                       for key, fn in suites.SUITES.items()})

    def uninstall(self):
        while self._saved:
            module, attr, value = self._saved.pop()
            setattr(module, attr, value)

    def _traced_jet_ops(self, jet_ops):
        def traced_jet_ops(spec, scheme):
            return _TracedOps(self, jet_ops(spec, scheme), spec, scheme)

        traced_jet_ops.__wrapped__ = jet_ops
        return traced_jet_ops

    def _after_battery(self, args, kwargs, reports):
        self.add("suites.reports", len(reports))
        self.add("suites.reports_failed", sum(1 for rep in reports if not rep.passed))

    def _after_derivative(self, args, kwargs, out):
        order = args[1] if len(args) > 1 else kwargs["order"]
        scheme = args[2] if len(args) > 2 else kwargs.get("scheme", "spectral")
        self.count_kernel("fields.derivative", tuple(args[0].spec.sizes), order, scheme)
        if order == 2:
            self.capture_hessian(tuple(args[0].spec.sizes), out.components)

    def _after_jacobi(self, args):
        dense = np.asarray(args[0])
        self.footprint = max(self.footprint, jacobi_footprint(dense.size // 9))

    # -- reduction -------------------------------------------------------

    def self_times(self):
        """(names, jobs, durations, self durations) as arrays."""
        starts = np.asarray(self.starts)
        dur = np.asarray(self.ends) - starts
        parents = np.asarray(self.parents, dtype=np.int64)
        has_parent = parents >= 0
        child = np.bincount(parents[has_parent], weights=dur[has_parent], minlength=dur.size)
        return np.asarray(self.names), np.asarray(self.jobs), dur, dur - child

    def write(self, path):
        """Write every span as gzip CSV: name,start_s,end_s,parent,job."""
        with gzip.open(path, "wt", encoding="ascii") as fh:
            fh.write("name,start_s,end_s,parent,job\n")
            for row in zip(self.names, self.starts, self.ends, self.parents, self.jobs):
                fh.write("%s,%.9f,%.9f,%d,%d\n" % row)


def replay_angle_us_per_point(tracer, min_seconds=0.2, min_reps=5):
    """Median microseconds per grid point of ``lagrangian_angle`` on a Hessian
    captured from the workload (the RK4 stage reaches the closed forms through
    a private name, so they are timed here rather than by a wrapper)."""
    from lmcf.fields import GridSpec, SymMatrixField
    from lmcf.geometry import lagrangian_angle

    if tracer.hessian_sample is None:
        return 0.0
    sizes, comps = tracer.hessian_sample
    field = SymMatrixField(GridSpec(len(sizes), sizes), comps)
    times = []
    stop = perf_counter() + min_seconds
    while len(times) < min_reps or perf_counter() < stop:
        t0 = perf_counter()
        lagrangian_angle(field)
        times.append(perf_counter() - t0)
    return statistics.median(times) / math.prod(sizes) * 1e6


# per-layer metric -> (span, statistic); statistics are per traced job
SPAN_METRICS = {
    "fields.hessian_calls": ("fields.hessian", "calls"),
    "fields.hessian_s": ("fields.hessian", "time"),
    "fields.components_s": ("fields.components", "time"),
    "fields.derivative_calls": ("fields.derivative", "calls"),
    "fields.derivative_s": ("fields.derivative", "time"),
    "geometry.jacobi_calls": ("geometry.jacobi", "calls"),
    "geometry.jacobi_s": ("geometry.jacobi", "time"),
    "geometry.laplace_beltrami_calls": ("geometry.laplace_beltrami", "calls"),
    "geometry.laplace_beltrami_s": ("geometry.laplace_beltrami", "time"),
    "geometry.induced_metric_s": ("geometry.induced_metric", "time"),
    "geometry.graph_volume_s": ("geometry.graph_volume", "time"),
    "flow.integrate_s": ("flow.integrate", "time"),
    "flow.step_rk4_calls": ("flow.step_rk4", "calls"),
    "flow.step_rk4_s": ("flow.step_rk4", "time"),
    "flow.monitor_record_calls": ("flow.monitor_record", "calls"),
    "flow.monitor_record_s": ("flow.monitor_record", "time"),
    "flow.checkpoint_save_s": ("flow.checkpoint_save", "time"),
    "flow.checkpoint_load_s": ("flow.checkpoint_load", "time"),
    "monitors.write_csv_s": ("monitors.write_csv", "time"),
    "verification.sample_trajectory_s": ("verification.sample_trajectory", "time"),
    "verification.check_calls": ("verification.check", "calls"),
    "verification.check_s": ("verification.check", "time"),
    "suites.geometry_s": ("suites.geometry", "time"),
    "suites.inequalities_s": ("suites.inequalities", "time"),
    "suites.decay_s": ("suites.decay", "time"),
    "suites.variation_s": ("suites.variation", "time"),
    "cli.main_s": ("cli.main", "time"),
    # set-up spans come from the traced set-up, not from the jobs
    "initial_data.build_s": ("initial_data.build", "setup"),
    "config_io.load_setup_s": ("config_io.load_setup", "setup"),
}
# per-layer metric -> (counter, span that feeds it)
COUNTER_METRICS = {
    "fields.fft_count": ("fields.fft", "fields.hessian"),
    "fields.bytes_computed": ("fields.bytes", "fields.hessian"),
    "flow.steps": ("flow.steps", "flow.integrate"),
    "flow.checkpoint_bytes": ("flow.checkpoint_bytes", "flow.checkpoint_save"),
    "monitors.rows": ("monitors.rows", "monitors.write_csv"),
}

# what each span wraps, for the reason given when a metric reads 0
SPAN_TARGETS = {
    "fields.hessian": "ops.hessian of lmcf.fields.jet_ops",
    "fields.components": "ops.components / ops.gradient of lmcf.fields.jet_ops",
    "fields.derivative": "lmcf.fields.derivative",
    "geometry.jacobi": "lmcf.geometry.jacobi_eigenvalues_sym3 (only 3-D angles use it)",
    "geometry.laplace_beltrami": "lmcf.geometry.laplace_beltrami",
    "geometry.induced_metric": "lmcf.geometry.induced_metric",
    "geometry.graph_volume": "lmcf.geometry.graph_volume",
    "flow.integrate": "lmcf.flow.integrate",
    "flow.step_rk4": "lmcf.flow.step_rk4 (integrate steps without it)",
    "flow.monitor_record": "lmcf.flow.monitor_record",
    "flow.checkpoint_save": "lmcf.flow.checkpoint_save (only the CLI writes checkpoints)",
    "flow.checkpoint_load": "lmcf.flow.checkpoint_load (only CLI resume reads checkpoints)",
    "monitors.write_csv": "lmcf.monitors.write_monitor_csv (only the CLI writes monitors.csv)",
    "verification.sample_trajectory": "lmcf.verification.sample_trajectory",
    "verification.check": "the lmcf.verification check_* functions",
    "suites.geometry": "the geometry battery",
    "suites.inequalities": "the inequalities battery",
    "suites.decay": "the decay battery",
    "suites.variation": "the variation battery",
    "cli.main": "lmcf.cli.main",
    "initial_data.build": "lmcf.initial_data builders in the set-up",
    "config_io.load_setup": "lmcf.config_io.load_setup in the set-up",
}


def layer_metrics(tracer, traced_jobs):
    """Per-layer metrics as per-job means over ``traced_jobs``, plus reasons
    for every metric that reads 0."""
    names, jobs, dur, self_dur = tracer.self_times()
    njobs = max(len(traced_jobs), 1)
    in_jobs = np.isin(jobs, traced_jobs)
    in_setup = jobs == SETUP_JOB
    m, reasons = {}, {}

    def per_job(key):
        return sum(tracer.counters.get((j, key), 0) for j in traced_jobs) / njobs

    for metric, (span, stat) in SPAN_METRICS.items():
        sel = (in_setup if stat == "setup" else in_jobs) & (names == span)
        if stat == "calls":
            m[metric] = int(np.count_nonzero(sel)) / njobs
        elif stat == "time":
            m[metric] = float(dur[sel].sum()) / njobs
        else:
            m[metric] = float(dur[sel].sum())
        if not np.any(sel):
            reasons[metric] = f"not called in this workload: {SPAN_TARGETS[span]}"
    for metric, (key, span) in COUNTER_METRICS.items():
        m[metric] = per_job(key)
        if not m[metric]:
            reasons[metric] = f"not called in this workload: {SPAN_TARGETS[span]}"

    m["suites.reports_failed"] = per_job("suites.reports_failed")
    if not m["suites.reports_failed"]:
        reasons["suites.reports_failed"] = ("every report passed" if per_job("suites.reports")
                                            else "no verification battery in this workload")
    hess_calls = m["fields.hessian_calls"]
    nbytes = m["fields.bytes_computed"]
    m["fields.ffts_per_hessian"] = per_job("fields.hessian_fft") / hess_calls if hess_calls else 0.0
    m["fields.bytes_per_hessian"] = per_job("fields.hessian_bytes") / hess_calls if hess_calls else 0.0
    m["fields.flops_per_byte"] = per_job("fields.flops") / nbytes if nbytes else 0.0
    if not hess_calls:
        for metric in ("fields.ffts_per_hessian", "fields.bytes_per_hessian"):
            reasons[metric] = f"not called in this workload: {SPAN_TARGETS['fields.hessian']}"
    if not nbytes:
        reasons["fields.flops_per_byte"] = "no jet or derivative call in this workload"
    m["geometry.angle_us_per_point"] = replay_angle_us_per_point(tracer)
    if not m["geometry.angle_us_per_point"]:
        reasons["geometry.angle_us_per_point"] = "no Hessian captured to replay"

    span_layers = np.array([layer_of(n) for n in names.tolist()], dtype=object)
    for layer in LAYERS + ("bench",):
        sel = in_jobs & (span_layers == layer)
        m[f"{layer}.self_s"] = float(self_dur[sel].sum()) / njobs
        if not np.any(sel):
            reasons[f"{layer}.self_s"] = f"no wrapped {layer} call inside the timed jobs"
    m["trace.spans_per_job"] = int(np.count_nonzero(in_jobs)) / njobs
    return m, reasons
