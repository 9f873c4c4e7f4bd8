"""The benchmark's workloads: inputs from a seed, one timed job, its gate.

Every workload is a closed loop with one caller: the next job starts only
after the previous one returned and was checked.  A workload only writes
generated inputs (config files) for lmcf and reads lmcf's outputs back.

``size="full"`` is the stated size that the benchmark measures;
``size="tiny"`` runs the same code paths on small grids for the
benchmark's own tests.
"""

from __future__ import annotations

import functools
import json
import math
import os
import traceback
from time import perf_counter

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")
GOLDEN_SEED = 20240604  # input of the reference job checked against golden.json
GOLDEN_RTOL = 1e-9  # admits reordered sums (~1e-13 here), not a changed scheme
ORACLE_GAP_MAX = 1e-10
VOLUME_SLACK = 1e-15  # relative: a few ulps of the pairwise volume sum
CERTIFY_REPORTS = 39
# shortest job time between two host-speed readings inside a job (see
# Workload.job); shorter gaps would spend more of the run on readings
READ_EVERY_S = 0.25

# amplitude = sqrt(initial max psi): 0.08^2 = 0.0064 < eps1^2 = 0.01, so
# every input starts inside the certified region
AMPLITUDE = 0.08

FLOW_SIZES = {
    # dim, points per axis, max Fourier mode, RK4 steps per job, monitor cadence
    "flow2d_spectral": {"full": (2, 128, 3, 128, 16), "tiny": (2, 16, 2, 8, 2)},
    "flow3d_jacobi": {"full": (3, 32, 2, 2, 1), "tiny": (3, 8, 2, 2, 1)},
}
CLI_SIZES = {
    # points, steps of the run and again of the resume; with 250 + 250 steps
    # one record interval in 501 is the run-to-resume hand-off, so the p99.9
    # chunk is the median hand-off rather than its noisier low edge
    "full": (256, 250),
    "tiny": (16, 8),
}
GOLDEN_STEPS = {"flow2d_spectral": 8, "flow3d_jacobi": 1, "cli_monitored_1d": 50}


def heat_dt(dim, n, cfl=0.2):
    """The stepper's time step on the unit torus: cfl * h^2 / (2 dim)."""
    h = 1.0 / n
    return cfl * h * h / (2.0 * dim)


def config_text(dim, n, steps, every, modes, seed):
    """One generated lmcf config: t_max ends the run after exactly ``steps``.

    Any integer seed is accepted; lmcf's RNG takes non-negative seeds only.
    """
    return "\n".join([
        f"dim = {dim}",
        f"sizes = {n}",
        "kappa = 0",
        f"t_max = {steps * heat_dt(dim, n):.17g}",
        f"checkpoint_every = {every}",
        "u0_preset = random_bandlimited",
        f"u0_amplitude = {AMPLITUDE}",
        f"u0_modes = {modes}",
        f"u0_seed = {seed % 2**32}",
        "",
    ])


@functools.lru_cache(maxsize=1)
def load_golden():
    with open(GOLDEN_PATH, encoding="ascii") as fh:
        return json.load(fh)


def compare_golden(got, want, what):
    """Failures where a golden scalar differs beyond GOLDEN_RTOL."""
    fails = []
    for key, ref in want.items():
        val = got.get(key)
        if val is None:
            fails.append(f"{what}: missing {key}")
        elif isinstance(ref, str):
            if val != ref:
                fails.append(f"{what}: {key} = {val!r}, golden {ref!r}")
        elif not math.isclose(val, ref, rel_tol=GOLDEN_RTOL, abs_tol=1e-300):
            fails.append(f"{what}: {key} = {val!r}, golden {ref!r}")
    return fails


def record_failures(records, what):
    """psi_max must not increase (check_psi_monotone) and neither may volume."""
    from lmcf.verification import check_psi_monotone

    fails = []
    if not check_psi_monotone(records).passed:
        fails.append(f"{what}: psi_max increased along the records")
    for prev, cur in zip(records, records[1:]):
        if cur.volume > prev.volume * (1.0 + VOLUME_SLACK):
            fails.append(f"{what}: volume increased at t = {cur.t!r}")
            break
    return fails


def record_scalars(rec):
    return {k: getattr(rec, k) for k in ("t", "max_u", "max_du", "max_d2u", "max_d3u",
                                         "psi_max", "theta_min", "theta_max", "volume")}


class Job:
    """What one timed job produced, for the gate and the metrics."""

    def __init__(self, wall, stamps, steps, reports, fingerprint, failures, readings=()):
        self.wall = wall
        self.stamps = stamps  # job time of each delivered output
        self.steps = steps
        self.reports = reports
        self.fingerprint = fingerprint  # equal across jobs of one run
        self.failures = failures
        self.readings = list(readings)  # (job time, host-speed reading) inside the job

    @property
    def chunks(self):
        """Intervals between consecutive outputs delivered to the caller."""
        if len(self.stamps) < 2:
            return [self.wall]
        return [b - a for a, b in zip(self.stamps, self.stamps[1:])]


class Workload:
    name = ""

    def __init__(self, seed, size, workdir):
        self.seed = seed
        self.size = size
        self.workdir = workdir

    def setup(self):
        """Build the inputs and warm lmcf's caches; timed as set-up."""

    def golden_values(self):
        """Scalars of the fixed-input reference job, stored in golden.json."""
        raise NotImplementedError

    def reference(self):
        """Untimed reference job checked against golden.json; returns failures."""
        raise NotImplementedError

    def run_job(self, stamp):
        """The timed call; ``stamp`` is called once per delivered output."""
        raise NotImplementedError

    def pause(self):
        """A point inside a job where the host's speed may be read; a no-op
        outside ``job``."""

    def job(self, timed=None, read_speed=None):
        """Run and check one job; ``timed`` wraps the timed call (tracing).

        With ``read_speed``, the host's speed is read at pause points (each
        delivered output, and ``pause`` calls) at most every READ_EVERY_S.
        Job time excludes the readings: ``wall``, ``stamps`` and the
        readings' offsets are on a clock that stops while one is taken.
        """
        stamps, readings = [], []
        paused = 0.0
        t0 = perf_counter()

        def job_time():
            return perf_counter() - t0 - paused

        def pause():
            nonlocal paused
            now = job_time()
            if read_speed is None or now - (readings[-1][0] if readings else 0.0) < READ_EVERY_S:
                return
            readings.append((now, read_speed()))
            paused = perf_counter() - t0 - now

        def stamp(_rec=None):
            stamps.append(job_time())
            pause()

        self.pause = pause
        try:
            out = self.run_job(stamp) if timed is None else timed(self.run_job, stamp)
            wall = job_time()
            steps, reports, fingerprint, failures = self.check(out)
        except Exception as exc:  # a raising job is a failed job; the loop goes on
            traceback.print_exc()
            return Job(job_time(), stamps, 0, 0, None, [f"job raised {exc!r}"], readings)
        finally:
            del self.pause
        return Job(wall, stamps, steps, reports, fingerprint, failures, readings)

    def check(self, out):
        """(steps, reports, fingerprint, failures) of one job's output."""
        raise NotImplementedError

    def check_trace(self, layer_metrics):
        """Failures visible only in the traced counts."""
        return []

    def write_input(self, filename, text):
        path = os.path.join(self.workdir, filename)
        with open(path, "w", encoding="ascii") as fh:
            fh.write(text)
        return path


# ---------------------------------------------------------------------------

class FlowWorkload(Workload):
    """``integrate`` on one seeded random band-limited potential."""

    def __init__(self, name, seed, size, workdir):
        super().__init__(seed, size, workdir)
        self.name = name
        self.dim, self.n, self.modes, self.steps, self.every = FLOW_SIZES[name][size]

    def _load(self, seed, steps):
        import lmcf.config_io

        path = self.write_input(f"u0_{seed}.cfg",
                                config_text(self.dim, self.n, steps, self.every, self.modes, seed))
        setup = lmcf.config_io.load_setup(path)
        return setup.cfg, setup.build_u0()

    def setup(self):
        import lmcf.fields

        self.cfg, self.u0 = self._load(self.seed, self.steps)
        ops = lmcf.fields.jet_ops(self.cfg.grid, self.cfg.scheme)
        for rank in (1, 2, 3):  # the ranks integrate and monitor_record use
            ops.components(self.u0.values, rank)

    def _integrate(self, u0, cfg, stamp=None):
        import lmcf.flow

        return lmcf.flow.integrate(u0, cfg, sink=stamp)

    def _golden_run(self):
        steps = GOLDEN_STEPS[self.name]
        cfg, u0 = self._load(GOLDEN_SEED, steps)
        result = self._integrate(u0, cfg)
        values = dict(record_scalars(result.records[-1]), steps=result.steps,
                      outcome=result.outcome)
        return values, self._result_failures(result, steps, "golden job")

    def golden_values(self):
        return self._golden_run()[0]

    def reference(self):
        values, fails = self._golden_run()
        return fails + compare_golden(values, load_golden()[self.name][self.size], "golden job")

    def run_job(self, stamp):
        return self._integrate(self.u0, self.cfg, stamp)

    def _result_failures(self, result, steps, what):
        from lmcf.verification import angle_oracle_gap

        fails = []
        if result.outcome != "timed_out":
            fails.append(f"{what}: outcome {result.outcome}, expected timed_out")
        if result.steps != steps:
            fails.append(f"{what}: {result.steps} steps, expected {steps}")
        fails += record_failures(result.records, what)
        gap = angle_oracle_gap(result.state.d2u.components, self.dim)
        if not gap <= ORACLE_GAP_MAX:
            fails.append(f"{what}: final angle-oracle gap {gap:.3g} > {ORACLE_GAP_MAX}")
        return fails

    def check(self, result):
        fails = self._result_failures(result, self.steps, "job")
        fingerprint = tuple(record_scalars(result.records[-1]).values())
        return result.steps, len(result.records), fingerprint, fails


# ---------------------------------------------------------------------------

class CertifyWorkload(Workload):
    """``run_suite("all")``: the full certification battery.

    The battery's inputs are fixed by lmcf.suites, so the seed selects
    nothing here; run-to-run variation is timing only.
    """

    name = "certify_all"

    def setup(self):
        import lmcf.suites  # noqa: F401

    def run_job(self, stamp):
        import lmcf.suites

        def paused_after(battery):
            def call():
                reports = battery()
                self.pause()
                return reports
            return call

        # a pause point after each battery, through the table run_suite reads at call time
        saved = lmcf.suites.SUITES
        lmcf.suites.SUITES = {key: paused_after(fn) for key, fn in saved.items()}
        try:
            out = lmcf.suites.run_suite("all")
        finally:
            lmcf.suites.SUITES = saved
        stamp()
        return out

    def golden_values(self):
        """Report names, and RK4 steps per battery counted by the tracer."""
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
        try:
            out = tracer.job_span(0, self.run_job, lambda: None)
        finally:
            tracer.uninstall()
        return {"reports": [rep.name for rep in out[0]],
                "rk4_steps": tracer.counters[(0, "flow.steps")]}

    def reference(self):
        return []

    def check_trace(self, layer_metrics):
        # steps_per_s of this workload relies on the stored step count
        want = load_golden()[self.name]["rk4_steps"]
        if layer_metrics["flow.steps"] != want:
            return [f"traced RK4 steps per battery {layer_metrics['flow.steps']}, golden {want}"]
        return []

    def check(self, out):
        reports, all_passed = out
        names = [rep.name for rep in reports]
        fails = []
        if len(reports) != CERTIFY_REPORTS:
            fails.append(f"run_suite('all') returned {len(reports)} reports, "
                         f"expected {CERTIFY_REPORTS}")
        if not all_passed or not all(rep.passed for rep in reports):
            failed = [rep.name for rep in reports if not rep.passed]
            fails.append(f"failed reports: {', '.join(failed) or 'all_passed is False'}")
        golden = load_golden()[self.name]
        if names != golden["reports"]:
            fails.append("report names differ from golden.json")
        return golden["rk4_steps"], len(reports), tuple(names), fails


# ---------------------------------------------------------------------------

class CliWorkload(Workload):
    """``lmcf run`` with a monitor every step, then ``lmcf resume``."""

    name = "cli_monitored_1d"

    def __init__(self, seed, size, workdir):
        super().__init__(seed, size, workdir)
        self.n, self.steps = CLI_SIZES[size]
        self.t_end = 2 * self.steps * heat_dt(1, self.n)

    def _config(self, seed, steps):
        return self.write_input(f"run_{seed}_{steps}.cfg",
                                config_text(1, self.n, steps, 1, 3, seed))

    def setup(self):
        import lmcf.cli  # noqa: F401
        import lmcf.config_io
        import lmcf.fields

        self.cfg_path = self._config(self.seed, self.steps)
        setup = lmcf.config_io.load_setup(self.cfg_path)
        u0 = setup.build_u0()
        ops = lmcf.fields.jet_ops(setup.cfg.grid, setup.cfg.scheme)
        for rank in (1, 2, 3):
            ops.components(u0.values, rank)

    def _main(self, argv):
        import lmcf.cli

        return lmcf.cli.main(argv)

    def reference(self):
        """The uninterrupted run that every resume must reproduce, and the
        golden job."""
        fails = []
        self.full_dir = os.path.join(self.workdir, "uninterrupted")
        whole = self._config(self.seed, 2 * self.steps)
        code = self._main(["run", whole, "-o", self.full_dir])
        if code != 2:
            fails.append(f"uninterrupted run: exit code {code}, expected 2")
        self.full_rows = self._rows(self.full_dir, fails, "uninterrupted run")
        if len(self.full_rows) != 2 * self.steps + 1:
            fails.append(f"uninterrupted run: {len(self.full_rows)} records, "
                         f"expected {2 * self.steps + 1}")
        fails += record_failures(self._records(self.full_dir), "uninterrupted run")

        return fails + compare_golden(self.golden_values(), load_golden()[self.name][self.size],
                                      "golden job")

    def golden_values(self):
        golden_dir = os.path.join(self.workdir, "golden")
        code = self._main(["run", self._config(GOLDEN_SEED, GOLDEN_STEPS[self.name]),
                           "-o", golden_dir])
        got = {k: v for k, v in self._summary(golden_dir).items()
               if k in ("outcome", "steps") or k.endswith("_final")}
        fails = []
        self._rows(golden_dir, fails, "golden job")
        got["exit_code"] = code
        got["header_ok"] = "no" if fails else "yes"
        return got

    @staticmethod
    def _records(outdir):
        from lmcf.monitors import read_monitor_csv

        return read_monitor_csv(os.path.join(outdir, "monitors.csv"))

    @staticmethod
    def _summary(outdir):
        out = {}
        with open(os.path.join(outdir, "summary.txt"), encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("#") or " = " not in line:
                    continue
                key, value = line.rstrip("\n").split(" = ", 1)
                try:
                    out[key] = float(value)
                except ValueError:
                    out[key] = value
        return out

    @staticmethod
    def _rows(outdir, fails, what):
        from lmcf.monitors import MONITOR_HEADER

        with open(os.path.join(outdir, "monitors.csv"), encoding="ascii") as fh:
            lines = fh.read().splitlines()
        if not lines or lines[0] != MONITOR_HEADER:
            fails.append(f"{what}: monitors.csv header is not MONITOR_HEADER")
        return lines[1:]

    def run_job(self, stamp):
        import lmcf.cli

        run_dir = os.path.join(self.workdir, "run")
        resume_dir = os.path.join(self.workdir, "resume")
        saved = lmcf.cli.integrate, lmcf.cli.resume_flow
        # observe record delivery through integrate's public sink argument
        lmcf.cli.integrate = functools.partial(saved[0], sink=stamp)
        lmcf.cli.resume_flow = functools.partial(saved[1], sink=stamp)
        try:
            code_run = self._main(["run", self.cfg_path, "-o", run_dir])
            code_resume = self._main([
                "resume", os.path.join(run_dir, "final.lmcf"), "-o", resume_dir,
                "--t-max", repr(self.t_end), "--checkpoint-every", "1",
            ])
        finally:
            lmcf.cli.integrate, lmcf.cli.resume_flow = saved
        return code_run, code_resume, run_dir, resume_dir

    def check(self, out):
        code_run, code_resume, run_dir, resume_dir = out
        fails = []
        if (code_run, code_resume) != (2, 2):
            fails.append(f"exit codes {code_run}, {code_resume}; expected 2, 2 (timed out)")
            return 0, 0, None, fails
        rows_run = self._rows(run_dir, fails, "run")
        rows_resume = self._rows(resume_dir, fails, "resume")
        k = self.steps
        if rows_run != self.full_rows[:k + 1]:
            fails.append("run records differ from the uninterrupted run")
        if rows_resume != self.full_rows[k:]:
            fails.append("resumed records are not bit-identical to the uninterrupted run")
        steps = len(rows_run) + len(rows_resume) - 2
        return steps, len(rows_run) + len(rows_resume), (len(rows_resume),), fails


def make_workload(name, seed, size, workdir):
    if name in FLOW_SIZES:
        return FlowWorkload(name, seed, size, workdir)
    if name == CertifyWorkload.name:
        return CertifyWorkload(seed, size, workdir)
    if name == CliWorkload.name:
        return CliWorkload(seed, size, workdir)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = tuple(FLOW_SIZES) + (CertifyWorkload.name, CliWorkload.name)
