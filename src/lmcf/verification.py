"""Numerical certification of the flow's analytic estimates.

Each check produces a ResidualReport: sampled residuals against the
estimate's bound, a fitted constant (the smallest making the inequality
hold over all samples) and, for amplitude sweeps, a log-log order fit.
Constants are always *fitted*, never asserted against external values:
the only assertable content is sign structure, scaling order and
monotonicity.

Parabolic left-hand sides (d/dt - Laplace_mu) phi are evaluated from
stored triples of consecutive states by centered time differences, so the
O(dt^2) error of the time discretization is folded into the slack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fields import (
    NonFiniteError,
    PeriodicScalarField,
    _as_int,
    derivative,
    jet_ops,
    l2_pairing,
    laplacian_flat,
    sup_norm,
    sym_to_dense,
    sym_trace,
)
from . import flow
from .flow import FlowConfig, FlowState, step_rk4  # noqa: F401  perfbench wraps step_rk4 here
from .geometry import (
    InducedMetricField,
    _angle_values,
    graph_volume,
    induced_metric,  # noqa: F401  unused here; perfbench/tracing.py wraps this module's name
    jacobi_eigenvalues_sym3,
    laplace_beltrami,
    metric_from_potential,
    metric_trace,
    raise_index,
)
from .monitors import MonitorRecord

# the lettered quantity at index k is |D^k u|^2 (FlowState.norm_sq(k))
EVOLUTION_NAMES = ("u2", "du2", "d2u2", "d3u2", "psi")
PSI_SLACK_FACTOR = 1e-6
MONOTONE_SLACK = 1e-8
ORACLE_GAP_TOL = 1e-10  # closed-form angle against the eigenvalue reference, absolute
ROUTE_GAP_TOL = 1e-8  # the two Laplace-Beltrami routes, relative to their size
# two fitted constants agree when each is <= AGREE_FACTOR * other + AGREE_FLOOR
AGREE_FACTOR = 2.0
AGREE_FLOOR = 1e-8
RATE_FLOOR = 1.0  # least local decay rate in the volume-dissipation slack


class RegionViolationError(ValueError):
    """Trajectory left the certified small-data region psi < eps1^2."""


class DegenerateDirectionError(ValueError):
    """Variation direction is constant, so the quadratic form degenerates."""


@dataclass(frozen=True)
class ResidualReport:
    """Outcome of one estimate check.

    ``samples`` holds (amplitude-or-time, residual, bound) tuples;
    ``fitted_constant`` is the smallest c with residual <= c * bound over
    all samples (0.0 for a sweep of roundoff residuals); ``fitted_order`` is
    the log-log slope of residual against amplitude (NaN when not a sweep or
    when its residuals are roundoff).
    """

    name: str
    samples: tuple
    fitted_constant: float
    fitted_order: float
    passed: bool
    note: str = ""

    def lines(self):
        out = []
        for eps, res, bound in self.samples:
            ratio = res / bound if bound > 0.0 else (0.0 if res <= 0.0 else math.inf)
            out.append(f"{self.name},{eps:.9g},{res:.9g},{bound:.9g},{ratio:.9g}")
        verdict = "pass" if self.passed else "fail"
        out.append(f"{self.name},{self.fitted_constant:.9g},{self.fitted_order:.9g},{verdict}")
        return out


def write_report(report, path):
    with open(path, "w", encoding="ascii") as fh:
        for line in report.lines():
            fh.write(line + "\n")
        if report.note:
            fh.write(f"# {report.note}\n")


def _fitted_constant(samples):
    """Smallest c with res <= c * bound on every row; NaN if any residual or bound is NaN."""
    if any(math.isnan(res) or math.isnan(bound) for _, res, bound in samples):
        return math.nan
    c = 0.0
    for _, res, bound in samples:
        if res <= 0.0:
            continue
        if bound <= 0.0:
            return math.inf
        c = max(c, res / bound)
    return c


def _within_bounds(samples):
    return all(res <= bound for _, res, bound in samples)


def _report(name, samples, passed, order=math.nan, note=""):
    """Report whose fitted constant is the smallest c with res <= c * bound."""
    samples = tuple(samples)
    return ResidualReport(name, samples, _fitted_constant(samples), order, passed, note)


def _agreement_samples(x_a, rep_a, x_b, rep_b):
    """Rows stating that the fitted constants of two reports agree: each
    constant against AGREE_FACTOR times the other plus AGREE_FLOOR."""
    ca, cb = rep_a.fitted_constant, rep_b.fitted_constant
    return [(x_a, ca, AGREE_FACTOR * cb + AGREE_FLOOR),
            (x_b, cb, AGREE_FACTOR * ca + AGREE_FLOOR)]


def constants_stable(report_a: ResidualReport, report_b: ResidualReport):
    """True when both fitted constants are finite and agree (``_agreement_samples``)."""
    return (math.isfinite(report_a.fitted_constant) and math.isfinite(report_b.fitted_constant)
            and _within_bounds(_agreement_samples(0.0, report_a, 1.0, report_b)))


def _loglog_slope(rows):
    """Least-squares slope of log(residual) against log(amplitude); NaN if degenerate."""
    pts = [(x, y) for x, y, _ in rows if x > 0.0 and y > 0.0]
    if len(pts) < 2:
        return math.nan
    lx = np.log([p[0] for p in pts])
    ly = np.log([p[1] for p in pts])
    return float(np.polyfit(lx, ly, 1)[0])


def psi_field(u: PeriodicScalarField, cfg: FlowConfig) -> PeriodicScalarField:
    """Pointwise C0*u^2 + C1*|du|^2 + |D^2 u|^2 (the flow's decay monitor)."""
    return PeriodicScalarField(u.spec, FlowState(0.0, u, cfg.scheme).psi(cfg.C0, cfg.C1))


# ---------------------------------------------------------------------------
# oracle closures shared by several reports

def eigen_angle_values(qcomps, dim):
    """Reference angle sum_i arctan(lambda_i(Q)) from the eigenvalues of Q:
    arg(1 + iq) for n = 1 (independent of the closed form's arctan),
    closed-form eigenvalues for n = 2, LAPACK's eigvalsh for n = 3."""
    if dim == 1:
        return np.angle(1.0 + 1j * qcomps[0])
    if dim == 2:
        q00, q01, q11 = qcomps
        mid = 0.5 * (q00 + q11)
        rad = np.sqrt((0.5 * (q00 - q11)) ** 2 + q01 * q01)
        return np.arctan(mid + rad) + np.arctan(mid - rad)
    at = np.arctan(jacobi_eigenvalues_sym3(sym_to_dense(qcomps, 3)))
    return at[..., 0] + at[..., 1] + at[..., 2]


def angle_oracle_gap(qcomps, dim, theta=None):
    """Sup distance between the closed-form angle ``theta`` (recomputed if None) and the
    eigenvalue reference; NaN at a non-finite Q, where both can read a finite angle."""
    if theta is None:
        theta = _angle_values(qcomps, dim)
    gap = float(np.max(np.abs(theta - eigen_angle_values(qcomps, dim))))
    return gap if np.isfinite(qcomps).all() else math.nan


def trace_metric_hessian(f: PeriodicScalarField, M: InducedMetricField, scheme="spectral"):
    """tr_mu(Hess f) = mu^{ij} d_i d_j f (no Christoffel correction)."""
    return PeriodicScalarField(f.spec, metric_trace(M, derivative(f, 2, scheme).components))


def two_route_gap(f: PeriodicScalarField, M: InducedMetricField):
    """(sup difference, sup magnitude) of the two spectral Laplace-Beltrami routes."""
    div = laplace_beltrami(f, M, "divergence")
    chr_ = laplace_beltrami(f, M, "christoffel")
    gap = float(np.max(np.abs(div.values - chr_.values)))
    scale = max(float(np.max(np.abs(div.values))), 1e-300)
    return gap, scale


# ---------------------------------------------------------------------------
# amplitude-sweep checks

def _finite_state(u, scheme):
    """State of a sampled potential; one forward transform serves all its jets."""
    state = FlowState(0.0, u, scheme)
    if not u.is_finite():
        raise NonFiniteError("non-finite potential in an amplitude sweep")
    return state


def _normalized_base(u, scheme):
    """Scale the base field so sup|du| <= 1 and sup|D^2 u| <= 1."""
    state = _finite_state(u, scheme)
    m = max(1.0, sup_norm(state.du), sup_norm(state.d2u))
    return PeriodicScalarField(u.spec, u.values / m)


def _check_sweep(amplitudes):
    """An amplitude sweep needs at least 3 amplitudes to fit an order."""
    if len(amplitudes) < 3:
        raise ValueError("need at least 3 amplitudes for an order fit")


def _order_report(name, rows, closure_ok, min_order, trivial, note):
    """Amplitude-sweep verdict: the closure holds and the residual order is >= min_order;
    a ``trivial`` sweep (roundoff residuals) passes on its closure, with c 0.0 and order NaN."""
    if trivial:
        return ResidualReport(name, tuple(rows), 0.0, math.nan, closure_ok, note)
    order = _loglog_slope(rows)
    passed = closure_ok and math.isfinite(order) and order >= min_order
    return _report(name, rows, passed, order, note)


def check_angle_expansion(samples, amplitudes, scheme="spectral") -> ResidualReport:
    """Angle of the graph versus the flat Laplacian of the potential.

    For small data the difference is cubic in the Hessian (the trace of
    arctan(Q) expands as tr Q - tr(Q^3)/3 + ...), which is consistent with
    and stronger than the quadratic bound c(|du|^2 + |D^2 u|^2).
    """
    _check_sweep(amplitudes)
    if not samples:
        raise ValueError("need at least one sample field")
    bases = [_normalized_base(u, scheme) for u in samples]
    rows = []
    oracle_gap = 0.0
    for eps in amplitudes:
        res = 0.0
        bound = 0.0
        for base in bases:
            state = _finite_state(PeriodicScalarField(base.spec, eps * base.values), scheme)
            hess = state.d2u.components
            dim = base.spec.dim
            theta = state.angle_and_density()[0]
            res = max(res, float(np.max(np.abs(theta - sym_trace(hess, dim)))))
            bound = max(bound, float(np.max(state.norm_sq(1) + state.norm_sq(2))))
            oracle_gap = max(oracle_gap, angle_oracle_gap(hess, dim, theta))
        rows.append((float(eps), res, bound))
    scale = max(r[2] for r in rows)
    return _order_report("angle_expansion", rows, oracle_gap <= ORACLE_GAP_TOL, 1.9,
                         all(r[1] <= 1e-13 * (1.0 + scale) for r in rows),
                         f"angle-oracle closure gap {oracle_gap:.3g}")


def check_laplacian_difference(u, f, amplitudes=(0.5, 0.25, 0.125, 0.0625),
                               scheme="spectral") -> ResidualReport:
    """Laplace-Beltrami minus tr_mu(Hess) against c|df|(|D^3u| + |D^2u| + |du|)."""
    _check_sweep(amplitudes)
    base = _normalized_base(u, scheme)
    df_sup = sup_norm(derivative(f, 1, scheme))
    rows = []
    route_gap_rel = 0.0
    op_scale = 1.0
    for eps in amplitudes:
        state = _finite_state(PeriodicScalarField(base.spec, eps * base.values), scheme)
        M = state.metric()
        lb = laplace_beltrami(f, M, "divergence", scheme)
        tr = trace_metric_hessian(f, M, scheme)
        res = float(np.max(np.abs(lb.values - tr.values)))
        bound = df_sup * (sup_norm(state.d3u) + sup_norm(state.d2u) + sup_norm(state.du))
        # closure is measured spectrally: the two-route tolerance states a
        # spectral-accuracy property, independent of the report's scheme
        if scheme != "spectral":
            M = metric_from_potential(state.u)
        gap, scale = two_route_gap(f, M)
        route_gap_rel = max(route_gap_rel, gap / scale)
        op_scale = max(op_scale, scale)
        rows.append((float(eps), res, bound))
    return _order_report("laplacian_difference", rows, route_gap_rel <= ROUTE_GAP_TOL, 0.9,
                         all(r[1] <= 1e-13 * op_scale for r in rows),
                         f"two-route closure gap {route_gap_rel:.3g} (relative)")


# ---------------------------------------------------------------------------
# trajectory sampling and parabolic checks

@dataclass(frozen=True, eq=False)
class TrajectoryTriple:
    """Three consecutive states (t - dt, t, t + dt) around one sample time."""

    before: FlowState
    at: FlowState
    after: FlowState


@dataclass(frozen=True, eq=False)
class Trajectory:
    """State triples sampled from one run; consecutive states are cfg.dt apart."""

    cfg: FlowConfig
    triples: tuple


def sample_trajectory(u0, cfg, sample_every, n_samples) -> Trajectory:
    """(t-dt, t, t+dt) state triples every ``sample_every`` steps from one
    fixed-step ``integrate`` run (looked up by module name) to the last triple,
    whatever convergence and ``cfg.t_max`` say; its blowup is raised."""
    sample_every = _as_int("sample_every", sample_every)
    n_samples = _as_int("n_samples", n_samples)
    if sample_every < 1 or n_samples < 1:
        raise ValueError("sample_every and n_samples must be >= 1")
    centers = [k * sample_every for k in range(1, n_samples + 1)]
    kept = {}
    result = flow.integrate(u0, cfg, hook=({c + d for c in centers for d in (-1, 0, 1)},
                                           kept.__setitem__))
    if result.blowup is not None:
        raise result.blowup
    triples = tuple(TrajectoryTriple(kept[c - 1], kept[c], kept[c + 1]) for c in centers)
    return Trajectory(cfg=cfg, triples=triples)


def _check_region(trajectory):
    cfg = trajectory.cfg
    for tr in trajectory.triples:
        psi_max = float(np.max(tr.at.psi(cfg.C0, cfg.C1)))
        if cfg.leaves_region(psi_max):
            raise RegionViolationError(
                f"max psi = {psi_max:.3g} >= eps1^2 = {cfg.eps1_sq:.3g} at t = {tr.at.t:.6g}")


def _phi_values(state: FlowState, name, cfg):
    if name == "psi":
        return state.psi(cfg.C0, cfg.C1)
    return state.norm_sq(EVOLUTION_NAMES.index(name))


def _main_and_bound(state: FlowState, name, cfg):
    """Good-sign main term and the c-premultiplied bound of each estimate."""
    kappa = cfg.kappa
    u_sq, du_sq, d2_sq, d3_sq = (state.norm_sq(rank) for rank in range(4))
    if name == "u2":
        main = -du_sq + 2.0 * kappa * u_sq
        bound = np.sqrt(u_sq) * (d3_sq + d2_sq + du_sq)
        return main, float(np.max(bound))
    if name == "du2":
        main = -0.5 * d2_sq
        bound = np.sqrt(d3_sq * du_sq) + du_sq
        return main, float(np.max(bound))
    if name == "d2u2":
        main = -0.5 * d3_sq
        bound = d3_sq * np.sqrt(d2_sq) + d2_sq + du_sq
        return main, float(np.max(bound))
    if name == "d3u2":
        # the -|D^4 u|^2 / 2 dissipation is dropped: that only weakens the bound
        main = np.zeros_like(du_sq)
        bound = d3_sq * d3_sq + d3_sq + d2_sq + du_sq
        return main, float(np.max(bound))
    # psi: fully parameter-free right-hand side; bound slot carries the slack
    main = 2.0 * cfg.C0 * kappa * u_sq
    scale = float(np.max(cfg.C0 * du_sq + cfg.C1 * d2_sq + d3_sq)) + float(
        np.max(np.abs(main))
    )
    return main, PSI_SLACK_FACTOR * scale


def parabolic_lhs(phis, M: InducedMetricField, dt, scheme):
    """(phi(t+dt) - phi(t-dt)) / (2 dt) - Laplace_mu phi(t), pointwise.

    ``phis`` holds phi at (t - dt, t, t + dt); ``M`` is the metric at t.
    """
    phi_b, phi_0, phi_a = phis
    lap = laplace_beltrami(PeriodicScalarField(M.spec, phi_0), M, "divergence", scheme)
    return (phi_a - phi_b) / (2.0 * dt) - lap.values


def _local_rates(times, magnitudes):
    """Per-sample log-decay rate, at least RATE_FLOOR, from consecutive positive samples."""
    rates = []
    for (t0, m0), (t1, m1) in zip(zip(times, magnitudes), zip(times[1:], magnitudes[1:])):
        if m0 > 0.0 and m1 > 0.0 and t1 > t0:
            rates.append(max(RATE_FLOOR, abs(math.log(m1 / m0)) / (t1 - t0)))
        else:
            rates.append(RATE_FLOOR)
    rates.append(rates[-1] if rates else RATE_FLOOR)
    return rates


def _centered_difference_slacks(phi_triples, dt):
    """Per-sample error bar of the centered time difference.

    The centered difference carries a (dt^2 / 6) phi''' error.  Each triple
    (phi(t - dt), phi(t), phi(t + dt)) yields sup|phi'| and sup|phi''|
    directly, so phi''' is estimated locally as (|phi''| / |phi'|)^2 * |phi'|;
    a 3x safety factor and a roundoff floor are added.
    """
    slacks = []
    fd_ref = 0.0
    for phi_b, phi_0, phi_a in phi_triples:
        fd = float(np.max(np.abs(phi_a - phi_b))) / (2.0 * dt)
        dd = float(np.max(np.abs(phi_a - 2.0 * phi_0 + phi_b))) / (dt * dt)
        fd_ref = max(fd_ref, fd)
        if fd > 0.0:
            # cap at the difference quotient itself: an error bar beyond the
            # measurement signals a non-smooth trajectory and must not mask it
            slacks.append(min(0.5 * dt * dt * dd * dd / fd, fd))
        else:
            slacks.append(0.0)
    return [s + 1e-12 * fd_ref for s in slacks]


def check_evolution_inequality(name, trajectory: Trajectory) -> ResidualReport:
    """One parabolic estimate along a stored trajectory.

    For the lettered quantities (u2, du2, d2u2, d3u2) the report fits the
    smallest constant c with LHS <= main + c * bound over all samples.  For
    psi the right-hand side has no free constant, so the check is absolute:
    LHS <= 2 C0 kappa u^2 within a small relative slack.

    Sample residuals are reduced by the centered-difference error bar, so
    the fitted constant measures the estimate rather than the O(dt^2) time
    discretization.
    """
    if name not in EVOLUTION_NAMES:
        raise ValueError(f"unknown evolution quantity {name!r}")
    cfg = trajectory.cfg
    _check_region(trajectory)
    dt = cfg.dt
    phi_triples = [
        tuple(_phi_values(state, name, cfg) for state in (tr.before, tr.at, tr.after))
        for tr in trajectory.triples
    ]
    slacks = _centered_difference_slacks(phi_triples, dt)
    metrics = [tr.at.metric() for tr in trajectory.triples]
    rows = []
    for tr, phis, M, slack in zip(trajectory.triples, phi_triples, metrics, slacks):
        lhs = parabolic_lhs(phis, M, dt, cfg.scheme)
        main, bound = _main_and_bound(tr.at, name, cfg)
        residual = float(np.max(lhs - main)) - slack
        rows.append((tr.at.t, residual, bound))
    # oracle closure: the two Laplace-Beltrami routes must agree on this input
    # (measured spectrally: the tolerance states a spectral-accuracy property)
    gap, scale = two_route_gap(PeriodicScalarField(cfg.grid, phi_triples[0][1]), metrics[0])
    routes_ok = gap <= ROUTE_GAP_TOL * scale
    note = f"two-route closure gap {gap / scale:.3g} (relative)"
    if name == "psi":
        return _report("evolution_psi", rows, routes_ok and _within_bounds(rows), note=(
            "parameter-free: residual must stay below the slack column; " + note))
    passed = routes_ok and math.isfinite(_fitted_constant(rows))
    return _report(f"evolution_{name}", rows, passed, note=note)


def _non_increasing_report(name, series):
    """Each step of a (t, value) series may rise by at most MONOTONE_SLACK."""
    rows = tuple((t, value - prev, MONOTONE_SLACK)
                 for (_, prev), (t, value) in zip(series, series[1:]))
    fitted_c = max((res for _, res, _ in rows), default=0.0)
    return ResidualReport(name, rows, fitted_c, math.nan, _within_bounds(rows))


def check_log_jet_monotone(trajectory: Trajectory, K) -> ResidualReport:
    """max over the grid of log(1 + |D^3 u|^2) + K*psi must not increase."""
    if K < 1.0:
        raise ValueError("K must be >= 1")
    cfg = trajectory.cfg
    values = []
    for tr in trajectory.triples:
        w = np.log1p(tr.at.norm_sq(3)) + K * tr.at.psi(cfg.C0, cfg.C1)
        values.append((tr.at.t, float(np.max(w))))
    return _non_increasing_report("log_jet_monotone", values)


def check_psi_monotone(records) -> ResidualReport:
    """Recorded max psi must be non-increasing within the slack, per sample."""
    return _non_increasing_report("psi_monotone", [(r.t, r.psi_max) for r in records])


# ---------------------------------------------------------------------------
# volume dissipation (Lyapunov identity)

def _dissipation_integral(state: FlowState, cfg: FlowConfig, form):
    """Volume dissipation rate of the graph at one state.

    ``squared`` integrates |d(theta + kappa u)|_mu^2: the mean curvature
    flow identity, exact here when kappa = 0 (flat Calabi-Yau reduction).
    ``pairing`` integrates <d theta, d(theta + kappa u)>_mu: the first
    variation of the flat graph volume along the model flow, exact for
    every kappa in this reduction (the flat-ambient mean curvature 1-form
    is d theta, while the velocity is d(theta + kappa u)).
    """
    theta = state.angle_and_density()[0]
    dtheta = jet_ops(state.spec, cfg.scheme).components(theta, 1)
    if cfg.kappa != 0.0:
        velocity = dtheta + cfg.kappa * state.du.components
    else:
        velocity = dtheta
    first = dtheta if form == "pairing" else velocity
    M = state.metric()
    dens = np.einsum("i...,i...->...", first, raise_index(M, velocity))
    return l2_pairing(PeriodicScalarField(state.spec, dens), M.sqrt_det)


def check_volume_dissipation(trajectory: Trajectory, form=None) -> ResidualReport:
    """Centered volume difference against the negative dissipation integral.

    ``form`` selects the integrand (see ``_dissipation_integral``); by
    default the squared form is used at kappa = 0, where it is the exact
    mean curvature flow identity, and the pairing form otherwise.  The
    comparison slack is 5 dt^2 * lambda^2 * |I|, the size of the third time
    derivative driving the centered-difference error; lambda is estimated
    from the decay of the integral itself.
    """
    cfg = trajectory.cfg
    if form is None:
        form = "squared" if cfg.kappa == 0.0 else "pairing"
    if form not in ("squared", "pairing"):
        raise ValueError(f"unknown dissipation form {form!r}")
    dt = cfg.dt
    fd = []
    integrals = []
    for tr in trajectory.triples:
        fd.append((tr.after.volume() - tr.before.volume()) / (2.0 * dt))
        integrals.append(_dissipation_integral(tr.at, cfg, form))
    times = [tr.at.t for tr in trajectory.triples]
    rates = _local_rates(times, [abs(i) for i in integrals])
    rows = []
    for tr, f, integral, rate in zip(trajectory.triples, fd, integrals, rates):
        residual = abs(f + integral)
        bound = 5.0 * dt * dt * rate * rate * max(abs(integral), 1e-300)
        rows.append((tr.at.t, residual, bound))
    # oracle closure: the angle entering the integrand against the eigenvalue route
    first = trajectory.triples[0].at
    oracle_gap = angle_oracle_gap(first.d2u.components, first.spec.dim,
                                  first.angle_and_density()[0])
    passed = oracle_gap <= ORACLE_GAP_TOL and _within_bounds(rows)
    return _report(
        "volume_dissipation", rows, passed,
        note=f"form {form}, centered-difference slack from local decay rates; "
        f"angle-oracle closure gap {oracle_gap:.3g}",
    )


# ---------------------------------------------------------------------------
# decay fits and the second variation

_FIELD_ALIASES = {"sup_u": "max_u", "sup_du": "max_du", "sup_d2u": "max_d2u"}


def fit_decay_rate(records, field, window):
    """Least-squares slope of log(field) against t over [t1, t2]."""
    attr = _FIELD_ALIASES.get(field, field)
    if attr not in MonitorRecord.__dataclass_fields__:
        raise ValueError(f"unknown monitor field {field!r}")
    t1, t2 = window
    pts = [(r.t, getattr(r, attr)) for r in records if t1 <= r.t <= t2]
    if len(pts) < 2:
        raise ValueError(f"need at least 2 records in window [{t1}, {t2}]")
    for t, y in pts:
        if not 0.0 < y < math.inf:
            raise ValueError(f"non-positive or non-finite {field} = {y} at t = {t} in window")
    ts = np.array([p[0] for p in pts])
    ys = np.log([p[1] for p in pts])
    return float(np.polyfit(ts, ys, 1)[0])


def second_variation_quadrature(h: PeriodicScalarField):
    """Independent target for the second variation: integral of (flat Laplacian h)^2."""
    lap = laplacian_flat(h)
    return l2_pairing(lap, lap)


def _volume_second_difference(h, eps, v0):
    """(V(eps h) - 2 V(0) + V(-eps h)) / eps^2 of the graph volume V, given v0 = V(0)."""
    plus = graph_volume(PeriodicScalarField(h.spec, eps * h.values))
    minus = graph_volume(PeriodicScalarField(h.spec, -eps * h.values))
    return (plus - 2.0 * v0 + minus) / (eps * eps)


def check_second_variation(h: PeriodicScalarField, epsilons=(4e-3, 2e-3, 1e-3)) -> ResidualReport:
    """Second difference of the graph volume along the variation h.

    At a flat minimal graph the second variation equals the integral of
    (Laplacian h)^2, and it is non-negative: the graph is linearly stable
    under these variations.  Richardson extrapolation over the two smallest
    steps removes the quadratic-in-epsilon quadrature bias.
    """
    eps_sorted = sorted(float(e) for e in epsilons)
    if len(eps_sorted) < 2:
        raise ValueError("need at least 2 epsilon steps for Richardson extrapolation")
    if not all(0.0 < e < math.inf for e in eps_sorted) or len(set(eps_sorted)) < len(eps_sorted):
        raise ValueError(f"epsilon steps must be positive, finite and distinct: {epsilons}")
    if sup_norm(derivative(h, 1)) <= 1e-14 * (1.0 + sup_norm(h)):
        raise DegenerateDirectionError("h is constant: the variation direction degenerates")
    target = second_variation_quadrature(h)
    v0 = graph_volume(PeriodicScalarField.zeros(h.spec))
    second = {eps: _volume_second_difference(h, eps, v0) for eps in eps_sorted}
    e1, e2 = eps_sorted[0], eps_sorted[1]
    r = e2 / e1
    richardson = (r * r * second[e1] - second[e2]) / (r * r - 1.0)
    rel_err = abs(richardson - target) / abs(target)
    rows = [(eps, abs(second[eps] - target), eps * eps) for eps in eps_sorted]
    nonneg = all(second[eps] >= -1e-12 * abs(target) for eps in eps_sorted)
    passed = rel_err <= 1e-4 and nonneg
    return _report(
        "second_variation", rows, passed, _loglog_slope(rows),
        note=f"richardson {richardson:.12g} vs quadrature {target:.12g} (rel {rel_err:.3g})",
    )
