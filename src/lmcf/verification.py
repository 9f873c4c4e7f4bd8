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
    PeriodicScalarField,
    derivative,
    jet_ops,
    l2_pairing,
    laplacian_flat,
    psi_values,
    sup_norm,
    sym_norm_sq,
    sym_to_dense,
)
from .flow import FlowConfig, FlowState, step_rk4
from .geometry import (
    InducedMetricField,
    _angle_values,
    graph_volume,
    hessian_volume,
    induced_metric,
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


class RegionViolationError(ValueError):
    """Trajectory left the certified small-data region psi < eps1^2."""


class DegenerateDirectionError(ValueError):
    """Variation direction is constant, so the quadratic form degenerates."""


@dataclass(frozen=True)
class ResidualReport:
    """Outcome of one estimate check.

    ``samples`` holds (amplitude-or-time, residual, bound) tuples;
    ``fitted_constant`` is the smallest c with residual <= c * bound over
    all samples; ``fitted_order`` is the log-log slope of residual against
    amplitude (NaN when not an amplitude sweep or residuals vanish).
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
    c = 0.0
    for _, res, bound in samples:
        if res <= 0.0:
            continue
        if bound <= 0.0:
            return math.inf
        c = max(c, res / bound)
    return c


def _loglog_slope(xs, ys):
    """Least-squares slope of log(y) against log(x); NaN if degenerate."""
    pts = [(x, y) for x, y in zip(xs, ys) if x > 0.0 and y > 0.0]
    if len(pts) < 2:
        return math.nan
    lx = np.log([p[0] for p in pts])
    ly = np.log([p[1] for p in pts])
    return float(np.polyfit(lx, ly, 1)[0])


def psi_field(u: PeriodicScalarField, cfg: FlowConfig) -> PeriodicScalarField:
    """Pointwise C0*u^2 + C1*|du|^2 + |D^2 u|^2 (the flow's decay monitor)."""
    ops = jet_ops(u.spec, cfg.scheme)
    du_sq = sym_norm_sq(ops.components(u.values, 1), u.spec.dim, 1)
    d2_sq = sym_norm_sq(ops.components(u.values, 2), u.spec.dim, 2)
    return PeriodicScalarField(u.spec, psi_values(u.values, du_sq, d2_sq, cfg.C0, cfg.C1))


# ---------------------------------------------------------------------------
# oracle closures shared by several reports

def eigen_angle_values(qcomps, dim):
    """Reference angle sum_i arctan(lambda_i(Q)) from the eigenvalues of Q:
    arg(1 + iq) for n = 1 (independent of the closed form's arctan),
    closed-form eigenvalues for n = 2, cyclic Jacobi sweeps for n = 3."""
    if dim == 1:
        return np.angle(1.0 + 1j * qcomps[0])
    if dim == 2:
        q00, q01, q11 = qcomps
        mid = 0.5 * (q00 + q11)
        rad = np.sqrt((0.5 * (q00 - q11)) ** 2 + q01 * q01)
        return np.arctan(mid + rad) + np.arctan(mid - rad)
    at = np.arctan(jacobi_eigenvalues_sym3(sym_to_dense(qcomps, 3)))
    return at[..., 0] + at[..., 1] + at[..., 2]


def angle_oracle_gap(qcomps, dim):
    """Sup distance between the closed-form angle and the eigenvalue reference."""
    return float(np.max(np.abs(_angle_values(qcomps, dim) - eigen_angle_values(qcomps, dim))))


def trace_metric_hessian(f: PeriodicScalarField, M: InducedMetricField, scheme="spectral"):
    """tr_mu(Hess f) = mu^{ij} d_i d_j f (no Christoffel correction)."""
    return PeriodicScalarField(f.spec, metric_trace(M, derivative(f, 2, scheme).components))


def two_route_gap(f: PeriodicScalarField, M: InducedMetricField, scheme="spectral"):
    """(sup difference, sup magnitude) of the two Laplace-Beltrami routes."""
    div = laplace_beltrami(f, M, "divergence", scheme)
    chr_ = laplace_beltrami(f, M, "christoffel", scheme)
    gap = float(np.max(np.abs(div.values - chr_.values)))
    scale = max(float(np.max(np.abs(div.values))), 1e-300)
    return gap, scale


# ---------------------------------------------------------------------------
# amplitude-sweep checks

def _normalized_base(u, scheme):
    """Scale the base field so sup|du| <= 1 and sup|D^2 u| <= 1."""
    m = max(1.0, sup_norm(derivative(u, 1, scheme)), sup_norm(derivative(u, 2, scheme)))
    return PeriodicScalarField(u.spec, u.values / m)


def check_angle_expansion(samples, amplitudes, scheme="spectral") -> ResidualReport:
    """Angle of the graph versus the flat Laplacian of the potential.

    For small data the difference is cubic in the Hessian (the trace of
    arctan(Q) expands as tr Q - tr(Q^3)/3 + ...), which is consistent with
    and stronger than the quadratic bound c(|du|^2 + |D^2 u|^2).
    """
    if len(amplitudes) < 3:
        raise ValueError("need at least 3 amplitudes for an order fit")
    bases = [_normalized_base(u, scheme) for u in samples]
    rows = []
    oracle_gap = 0.0
    for eps in amplitudes:
        res = 0.0
        bound = 0.0
        for base in bases:
            scaled = PeriodicScalarField(base.spec, eps * base.values)
            hess = derivative(scaled, 2, scheme)
            theta = _angle_values(hess.components, base.spec.dim)
            lap = laplacian_flat(scaled, scheme)
            res = max(res, float(np.max(np.abs(theta - lap.values))))
            grad_sq = sym_norm_sq(derivative(scaled, 1, scheme).components, base.spec.dim, 1)
            hess_sq = sym_norm_sq(hess.components, base.spec.dim, 2)
            bound = max(bound, float(np.max(grad_sq + hess_sq)))
            oracle_gap = max(oracle_gap, angle_oracle_gap(hess.components, base.spec.dim))
        rows.append((float(eps), res, bound))
    fitted_c = _fitted_constant(rows)
    order = _loglog_slope([r[0] for r in rows], [r[1] for r in rows])
    scale = max((r[2] for r in rows), default=0.0)
    trivial = all(r[1] <= 1e-13 * (1.0 + scale) for r in rows)
    oracle_ok = oracle_gap <= 1e-10
    passed = oracle_ok and (trivial or (math.isfinite(order) and order >= 1.9))
    note = f"angle-oracle closure gap {oracle_gap:.3g}"
    return ResidualReport("angle_expansion", tuple(rows), fitted_c,
                          math.nan if trivial else order, passed, note)


def check_laplacian_difference(u, f, amplitudes=(0.5, 0.25, 0.125, 0.0625),
                               scheme="spectral") -> ResidualReport:
    """Laplace-Beltrami minus tr_mu(Hess) against c|df|(|D^3u| + |D^2u| + |du|)."""
    base = _normalized_base(u, scheme)
    df_sup = sup_norm(derivative(f, 1, scheme))
    rows = []
    route_gap_rel = 0.0
    op_scale = 1.0
    for eps in amplitudes:
        scaled = PeriodicScalarField(base.spec, eps * base.values)
        M = metric_from_potential(scaled, scheme)
        lb = laplace_beltrami(f, M, "divergence", scheme)
        tr = trace_metric_hessian(f, M, scheme)
        res = float(np.max(np.abs(lb.values - tr.values)))
        bound = df_sup * (
            sup_norm(derivative(scaled, 3, scheme))
            + sup_norm(derivative(scaled, 2, scheme))
            + sup_norm(derivative(scaled, 1, scheme))
        )
        # closure is measured spectrally: the 1e-8 two-route statement is a
        # spectral-accuracy property, independent of the report's scheme
        gap, scale = two_route_gap(f, metric_from_potential(scaled, "spectral"))
        route_gap_rel = max(route_gap_rel, gap / scale)
        op_scale = max(op_scale, scale)
        rows.append((float(eps), res, bound))
    fitted_c = _fitted_constant(rows)
    order = _loglog_slope([r[0] for r in rows], [r[1] for r in rows])
    trivial = all(r[1] <= 1e-13 * op_scale for r in rows)
    routes_ok = route_gap_rel <= 1e-8
    passed = routes_ok and (trivial or (math.isfinite(order) and order >= 0.9))
    note = f"two-route closure gap {route_gap_rel:.3g} (relative)"
    if trivial:
        fitted_c = 0.0
    return ResidualReport("laplacian_difference", tuple(rows), fitted_c,
                          math.nan if trivial else order, passed, note)


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
    """Integrate and keep (t-dt, t, t+dt) state triples every ``sample_every`` steps."""
    if sample_every < 1 or n_samples < 1:
        raise ValueError("sample_every and n_samples must be >= 1")
    states = [FlowState.initial(u0, cfg)]
    total = sample_every * n_samples + 1
    for _ in range(total):
        states.append(step_rk4(states[-1], cfg))
    triples = tuple(
        TrajectoryTriple(states[k * sample_every - 1],
                         states[k * sample_every],
                         states[k * sample_every + 1])
        for k in range(1, n_samples + 1)
    )
    return Trajectory(cfg=cfg, triples=triples)


def _check_region(trajectory):
    cfg = trajectory.cfg
    lim = cfg.eps1 * cfg.eps1
    for tr in trajectory.triples:
        psi_max = float(np.max(tr.at.psi(cfg.C0, cfg.C1)))
        if psi_max >= lim:
            raise RegionViolationError(
                f"max psi = {psi_max:.3g} >= eps1^2 = {lim:.3g} at t = {tr.at.t:.6g}"
            )


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


def _local_rates(times, magnitudes, floor=1.0):
    """Per-sample log-decay rate from consecutive positive samples."""
    rates = []
    for (t0, m0), (t1, m1) in zip(zip(times, magnitudes), zip(times[1:], magnitudes[1:])):
        if m0 > 0.0 and m1 > 0.0 and t1 > t0:
            rates.append(max(floor, abs(math.log(m1 / m0)) / (t1 - t0)))
        else:
            rates.append(floor)
    rates.append(rates[-1] if rates else floor)
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
    metrics = [induced_metric(tr.at.d2u) for tr in trajectory.triples]
    rows = []
    for tr, phis, M, slack in zip(trajectory.triples, phi_triples, metrics, slacks):
        lhs = parabolic_lhs(phis, M, dt, cfg.scheme)
        main, bound = _main_and_bound(tr.at, name, cfg)
        residual = float(np.max(lhs - main)) - slack
        rows.append((tr.at.t, residual, bound))
    # oracle closure: the two Laplace-Beltrami routes must agree on this input
    # (measured spectrally; the 1e-8 statement is a spectral-accuracy property)
    gap, scale = two_route_gap(
        PeriodicScalarField(cfg.grid, phi_triples[0][1]), metrics[0], "spectral"
    )
    routes_ok = gap <= 1e-8 * scale
    note_closure = f"two-route closure gap {gap / scale:.3g} (relative)"
    if name == "psi":
        passed = routes_ok and all(res <= bound for _, res, bound in rows)
        fitted_c = max(
            (max(0.0, res) / bound for _, res, bound in rows if bound > 0.0),
            default=0.0,
        )
        return ResidualReport(
            "evolution_psi", tuple(rows), fitted_c, math.nan, passed,
            note="parameter-free: residual must stay below the slack column; "
            + note_closure,
        )
    fitted_c = _fitted_constant(rows)
    passed = routes_ok and math.isfinite(fitted_c)
    return ResidualReport(f"evolution_{name}", tuple(rows), fitted_c, math.nan,
                          passed, note=note_closure)


def constants_stable(report_a: ResidualReport, report_b: ResidualReport,
                     factor=2.0, floor=1e-8):
    """True when two fitted constants differ by less than ``factor``.

    Constants below ``floor`` count as stable zeros: the estimate held with
    no constant at all at both resolutions.
    """
    ca, cb = report_a.fitted_constant, report_b.fitted_constant
    if not (math.isfinite(ca) and math.isfinite(cb)):
        return False
    hi, lo = max(ca, cb), min(ca, cb)
    if hi <= floor:
        return True
    return hi < factor * lo + floor


def _non_increasing_report(name, series, slack):
    """Each step of a (t, value) series may rise by at most ``slack``."""
    rows = tuple((t, value - prev, slack) for (_, prev), (t, value) in zip(series, series[1:]))
    passed = all(res <= bound for _, res, bound in rows)
    fitted_c = max((res for _, res, _ in rows), default=0.0)
    return ResidualReport(name, rows, fitted_c, math.nan, passed)


def check_log_jet_monotone(trajectory: Trajectory, K, slack=MONOTONE_SLACK) -> ResidualReport:
    """max over the grid of log(1 + |D^3 u|^2) + K*psi must not increase."""
    if K < 1.0:
        raise ValueError("K must be >= 1")
    cfg = trajectory.cfg
    values = []
    for tr in trajectory.triples:
        w = np.log1p(tr.at.norm_sq(3)) + K * tr.at.psi(cfg.C0, cfg.C1)
        values.append((tr.at.t, float(np.max(w))))
    return _non_increasing_report("log_jet_monotone", values, slack)


def check_psi_monotone(records, slack=MONOTONE_SLACK) -> ResidualReport:
    """Recorded max psi must be non-increasing within the slack, per sample."""
    return _non_increasing_report("psi_monotone", [(r.t, r.psi_max) for r in records], slack)


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
    ops = jet_ops(state.spec, cfg.scheme)
    theta = _angle_values(state.d2u.components, state.spec.dim)
    dtheta = ops.components(theta, 1)
    if cfg.kappa != 0.0:
        velocity = dtheta + cfg.kappa * ops.components(state.u.values, 1)
    else:
        velocity = dtheta
    first = dtheta if form == "pairing" else velocity
    M = induced_metric(state.d2u)
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
        v_b = hessian_volume(tr.before.d2u.components, cfg.grid)
        v_a = hessian_volume(tr.after.d2u.components, cfg.grid)
        fd.append((v_a - v_b) / (2.0 * dt))
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
    oracle_gap = angle_oracle_gap(first.d2u.components, first.spec.dim)
    passed = oracle_gap <= 1e-10 and all(res <= bound for _, res, bound in rows)
    fitted_c = _fitted_constant(rows)
    return ResidualReport(
        "volume_dissipation", tuple(rows), fitted_c, math.nan, passed,
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
        if y <= 0.0:
            raise ValueError(f"non-positive {field} = {y} at t = {t} in window")
    ts = np.array([p[0] for p in pts])
    ys = np.log([p[1] for p in pts])
    return float(np.polyfit(ts, ys, 1)[0])


def second_variation_quadrature(h: PeriodicScalarField, scheme="spectral"):
    """Independent target for the second variation: integral of (flat Laplacian h)^2."""
    lap = laplacian_flat(h, scheme)
    return l2_pairing(lap, lap)


def check_second_variation(h: PeriodicScalarField, epsilons=(4e-3, 2e-3, 1e-3),
                           scheme="spectral") -> ResidualReport:
    """Second difference of the graph volume along the variation h.

    At a flat minimal graph the second variation equals the integral of
    (Laplacian h)^2, and it is non-negative: the graph is linearly stable
    under these variations.  Richardson extrapolation over the two smallest
    steps removes the quadratic-in-epsilon quadrature bias.
    """
    if len(epsilons) < 2:
        raise ValueError("need at least 2 epsilon steps for Richardson extrapolation")
    if sup_norm(derivative(h, 1, scheme)) <= 1e-14 * (1.0 + sup_norm(h)):
        raise DegenerateDirectionError("h is constant: the variation direction degenerates")
    target = second_variation_quadrature(h, scheme)
    eps_sorted = sorted(float(e) for e in epsilons)
    v0 = graph_volume(PeriodicScalarField.zeros(h.spec), scheme)
    second = {}
    for eps in eps_sorted:
        plus = graph_volume(PeriodicScalarField(h.spec, eps * h.values), scheme)
        minus = graph_volume(PeriodicScalarField(h.spec, -eps * h.values), scheme)
        second[eps] = (plus - 2.0 * v0 + minus) / (eps * eps)
    e1, e2 = eps_sorted[0], eps_sorted[1]
    r = e2 / e1
    richardson = (r * r * second[e1] - second[e2]) / (r * r - 1.0)
    rel_err = abs(richardson - target) / abs(target)
    rows = tuple((eps, abs(second[eps] - target), eps * eps) for eps in eps_sorted)
    order = _loglog_slope([r_[0] for r_ in rows], [r_[1] for r_ in rows])
    nonneg = all(second[eps] >= -1e-12 * abs(target) for eps in eps_sorted)
    passed = rel_err <= 1e-4 and nonneg
    return ResidualReport(
        "second_variation", rows, _fitted_constant(rows), order, passed,
        note=f"richardson {richardson:.12g} vs quadrature {target:.12g} (rel {rel_err:.3g})",
    )
