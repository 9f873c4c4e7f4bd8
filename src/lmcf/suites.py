"""Built-in verification batteries behind ``lmcf verify``.

Every battery runs on fixed seeds and desk-scale grids, produces
ResidualReports, and is deterministic.  A battery passes only if every
report in it passes.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .fields import (
    GridSpec,
    PeriodicScalarField,
    derivative,
    sup_norm,
    sym_from_dense,
    sym_indices,
    sym_norm_sq,
    sym_to_dense,
)
from .flow import FlowConfig, Run, integrate
from .geometry import (
    _angle_values,
    angle_gradient,
    metric_from_potential,
)
from .initial_data import random_bandlimited_potential, single_mode_potential
from .verification import (
    EVOLUTION_NAMES,
    ORACLE_GAP_TOL,
    ROUTE_GAP_TOL,
    _agreement_samples,
    _report,
    _volume_second_difference,
    _within_bounds,
    angle_oracle_gap,
    check_angle_expansion,
    check_evolution_inequality,
    check_laplacian_difference,
    check_log_jet_monotone,
    check_psi_monotone,
    check_second_variation,
    check_volume_dissipation,
    constants_stable,
    fit_decay_rate,
    sample_trajectory,
    two_route_gap,
)

EXPANSION_AMPLITUDES = (1e-1, 1e-2, 1e-3)


def _random_sym_batch(rng, dim, count, fro_max):
    """Component stacks of random symmetric matrices with |Q|_F <= fro_max."""
    ncomp = len(sym_indices(dim, 2))
    comps = rng.standard_normal((ncomp, count))
    fro = np.sqrt(sym_norm_sq(comps, dim, 2))
    target = fro_max * rng.random(count)
    comps *= target / fro
    return comps


# ---------------------------------------------------------------------------
# geometry

def _angle_oracle_report():
    rng = np.random.default_rng(2024)
    samples = []
    for dim in (1, 2, 3):
        comps = _random_sym_batch(rng, dim, 1000, 0.5)
        samples.append((float(dim), angle_oracle_gap(comps, dim), ORACLE_GAP_TOL))
    return _report("angle_oracle_equivalence", samples, _within_bounds(samples))


def _angle_gradient_report():
    rng = np.random.default_rng(7)
    delta = 1e-6
    worst = 0.0
    for _ in range(100):
        q = rng.standard_normal((2, 2))
        q = q + q.T
        q *= 0.5 * rng.random() / max(np.linalg.norm(q), 1e-12)
        n = q.shape[0]
        fd = np.zeros_like(q)
        for i in range(n):
            for j in range(i, n):
                pert = np.zeros_like(q)
                pert[i, j] = 1.0
                pert[j, i] = 1.0
                tp = _angle_point(q + delta * pert)
                tm = _angle_point(q - delta * pert)
                # the symmetric pair perturbation moves Q_ij and Q_ji together
                step = 2.0 * delta if i == j else 4.0 * delta
                fd[i, j] = fd[j, i] = (tp - tm) / step
        target = angle_gradient(q)
        worst = max(worst, np.linalg.norm(fd - target) / np.linalg.norm(target))
    samples = [(0.0, worst, 1e-5)]
    return _report("angle_gradient_identity", samples, _within_bounds(samples))


def _angle_point(q):
    n = q.shape[0]
    comps = sym_from_dense(q, n).reshape(-1, 1)
    return float(_angle_values(comps, n)[0])


def _two_route_report():
    samples = []
    for dim, sizes in ((1, (128,)), (2, (128, 128))):
        spec = GridSpec(dim, sizes)
        u_raw = random_bandlimited_potential(spec, 0.05, 3, seed=101 + dim)
        hess = derivative(u_raw, 2)
        scale = 0.3 / sup_norm(hess)
        u = PeriodicScalarField(spec, scale * u_raw.values)
        f = random_bandlimited_potential(spec, 0.05, 3, seed=202 + dim)
        M = metric_from_potential(u)
        gap, mag = two_route_gap(f, M)
        samples.append((float(dim), gap / mag, ROUTE_GAP_TOL))
    return _report("laplace_two_route", samples, _within_bounds(samples))


def _orthogonal_invariance_report():
    rng = np.random.default_rng(31)
    worst = 0.0
    for _ in range(200):
        q = rng.standard_normal((2, 2))
        q = 0.4 * (q + q.T)
        ang = rng.uniform(0.0, 2.0 * np.pi)
        c, s = np.cos(ang), np.sin(ang)
        rot = np.array([[c, -s], [s, c]])
        q_rot = rot @ q @ rot.T
        q_rot = 0.5 * (q_rot + q_rot.T)
        worst = max(worst, abs(_angle_point(q_rot) - _angle_point(q)))
    samples = [(0.0, worst, 1e-12)]
    return _report("angle_orthogonal_invariance", samples, _within_bounds(samples))


def _metric_bounds_report():
    rng = np.random.default_rng(53)
    eps0 = 1.0
    comps = _random_sym_batch(rng, 2, 2000, eps0)
    dense = sym_to_dense(comps, 2)
    mu = np.eye(2) + dense @ dense
    eig = np.linalg.eigvalsh(mu)
    low = float(np.min(eig))
    high = float(np.max(eig))
    samples = [(0.0, 1.0 - low, 1e-12), (1.0, high - (1.0 + eps0 * eps0), 1e-12)]
    return _report("metric_eigenvalue_window", samples, _within_bounds(samples),
                   note="mu lies in [1, 1+eps0^2], inside the admissible [1/2, 2] window")


def _sin_base(n):
    spec = GridSpec(1, (n,))
    x = spec.coordinates()[0]
    return PeriodicScalarField(spec, np.sin(2.0 * np.pi * x))


def _scheme_independence_report(expansion_128, lap_u, lap_f, laplacian_128):
    """Fitted constants must agree within 2x between spectral and central4.

    Takes the spectral reports already computed at N=128 by the battery.
    """
    samples = []
    ok = True
    pairs = [
        (expansion_128,
         check_angle_expansion([_sin_base(128)], EXPANSION_AMPLITUDES, scheme="central4")),
        (laplacian_128, check_laplacian_difference(lap_u, lap_f, scheme="central4")),
    ]
    for spectral, central in pairs:
        ok = ok and constants_stable(spectral, central) and spectral.passed and central.passed
        samples += _agreement_samples(0.0, spectral, 1.0, central)
    return _report("scheme_independence", samples, ok,
                   note="fitted constants, spectral vs central4 at N=128")


def _grid_convergence_report(rep_128):
    """Residual reports at N and 2N must agree on pass/fail."""
    rep_64 = check_angle_expansion([_sin_base(64)], EXPANSION_AMPLITUDES)
    return _report("grid_convergence", _agreement_samples(64.0, rep_64, 128.0, rep_128),
                   rep_64.passed == rep_128.passed and rep_64.passed,
                   note="angle expansion at N=64 and N=128 agree on pass/fail")


def geometry_suite():
    spec = GridSpec(1, (128,))
    expansion_128 = check_angle_expansion([_sin_base(128)], EXPANSION_AMPLITUDES)
    lap_u = random_bandlimited_potential(spec, 0.05, 3, seed=404)
    lap_f = PeriodicScalarField(spec, np.cos(2.0 * np.pi * spec.coordinates()[0]))
    laplacian_128 = check_laplacian_difference(lap_u, lap_f)
    return [
        _angle_oracle_report(),
        _angle_gradient_report(),
        _two_route_report(),
        dataclasses.replace(
            expansion_128,
            passed=expansion_128.passed and expansion_128.fitted_order >= 2.9,
            note=expansion_128.note + "; cubic leading term requires slope >= 2.9",
        ),
        laplacian_128,
        _orthogonal_invariance_report(),
        _metric_bounds_report(),
        _scheme_independence_report(expansion_128, lap_u, lap_f, laplacian_128),
        _grid_convergence_report(expansion_128),
    ]


# ---------------------------------------------------------------------------
# inequalities

INEQUALITY_RUNS = ((11, 0.0), (12, -1.0))  # (seed, kappa)


def _trajectories_for(sizes, sample_every, n_samples):
    """u0s, configs and trajectories of ``INEQUALITY_RUNS`` on one grid, one ensemble."""
    spec = GridSpec(1, (sizes,))
    cfgs = tuple(FlowConfig(grid=spec, kappa=kappa, t_max=1.0, checkpoint_every=0)
                 for _, kappa in INEQUALITY_RUNS)
    u0s = tuple(random_bandlimited_potential(spec, 0.08, 3, seed=seed, C0=cfg.C0, C1=cfg.C1)
                for (seed, _), cfg in zip(INEQUALITY_RUNS, cfgs))
    return u0s, cfgs, sample_trajectory(u0s, cfgs, sample_every, n_samples)


def inequalities_suite():
    tags = [f"kappa{kappa:g}_seed{seed}" for seed, kappa in INEQUALITY_RUNS]
    u0s, cfgs, trajs = _trajectories_for(64, sample_every=40, n_samples=10)
    runs = integrate(tuple(
        Run(u0, dataclasses.replace(cfg, checkpoint_every=50, t_max=0.12, conv_tol=1e-12))
        for u0, cfg in zip(u0s, cfgs)))
    # each trajectory is dropped, with its states' caches, once its checks are done
    trajs, by_names, reports = list(trajs), [], []
    for tag, run in zip(tags, runs):
        traj = trajs.pop(0)
        by_name = {name: check_evolution_inequality(name, traj) for name in EVOLUTION_NAMES}
        per_trajectory = [*by_name.values(), check_log_jet_monotone(traj, K=10.0),
                          check_volume_dissipation(traj), check_psi_monotone(run.records)]
        reports.append([dataclasses.replace(rep, name=f"{rep.name}_{tag}")
                        for rep in per_trajectory])
        by_names.append(by_name)
    del traj
    # resolution stability of the fitted constants (N = 64 vs 128); psi has none
    fine_trajs = list(_trajectories_for(128, sample_every=160, n_samples=10)[2])
    for tag, by_name, seed_reports in zip(tags, by_names, reports):
        traj_fine = fine_trajs.pop(0)
        for name in (name for name in EVOLUTION_NAMES if name != "psi"):
            coarse, fine = by_name[name], check_evolution_inequality(name, traj_fine)
            seed_reports.append(_report(
                f"constant_stability_{name}_{tag}", _agreement_samples(64.0, coarse, 128.0, fine),
                constants_stable(coarse, fine),
                note="fitted c at N=64 and N=128 must agree within 2x"))
    return [rep for seed_reports in reports for rep in seed_reports]


# ---------------------------------------------------------------------------
# decay

def _rate_report(name, records, field, window, target, tol):
    rate = fit_decay_rate(records, field, window)
    samples = [(window[0], abs(rate - target), tol)]
    return _report(name, samples, _within_bounds(samples),
                   note=f"fitted rate {rate:.9g}, target {target:.9g}")


def decay_suite():
    reports = []
    spec = GridSpec(1, (16,))
    kappas = (-1.0, -0.5)
    u0 = PeriodicScalarField.constant(spec, 0.01)
    results = integrate(tuple(Run(u0, FlowConfig(grid=spec, kappa=kappa, t_max=5.0, cfl=0.5,
                                                 conv_tol=1e-13, checkpoint_every=100))
                              for kappa in kappas))
    for kappa, res in zip(kappas, results):
        reports.append(_rate_report(
            f"decay_sup_u_kappa{kappa:g}", res.records, "sup_u", (0.5, 4.5), kappa, 1e-6))
        if kappa == -1.0:
            reports.append(_rate_report(
                "decay_psi_max_kappa-1", res.records, "psi_max", (0.5, 4.5),
                2.0 * kappa, 1e-6))
    heat_spec = GridSpec(1, (64,))
    heat_cfg = FlowConfig(grid=heat_spec, kappa=0.0, t_max=0.15,
                          conv_tol=1e-13, checkpoint_every=50)
    u0 = single_mode_potential(heat_spec, 1e-3, (1,))
    res = integrate(u0, heat_cfg)
    target = -4.0 * np.pi ** 2
    reports.append(_rate_report(
        "decay_sup_du_heat", res.records, "sup_du", (0.01, 0.1),
        target, 0.01 * abs(target)))
    return reports


# ---------------------------------------------------------------------------
# variation

def variation_suite():
    spec = GridSpec(1, (64,))
    reports = [check_second_variation(_sin_base(64))]
    worst = 0.0
    from .geometry import graph_volume

    v0 = graph_volume(PeriodicScalarField.zeros(spec))
    for seed in range(20):
        h = random_bandlimited_potential(spec, 0.3, 3, seed=1000 + seed)
        for eps in (4e-3, 2e-3):
            worst = min(worst, _volume_second_difference(h, eps, v0))
    samples = [(0.0, -worst, 1e-12)]
    reports.append(_report("second_variation_nonnegative", samples, _within_bounds(samples),
                           note="smallest observed second difference"))
    return reports


SUITES = {
    "geometry": geometry_suite,
    "inequalities": inequalities_suite,
    "decay": decay_suite,
    "variation": variation_suite,
}
SUITE_NAMES = ("all", *SUITES)


def run_suite(name):
    """Run one battery (or ``all``, every battery of ``SUITES`` as it is at the
    call, in its order); returns (reports, all_passed)."""
    if name == "all":
        reports = []
        for battery in SUITES.values():
            reports.extend(battery())
    elif name in SUITES:
        reports = SUITES[name]()
    else:
        raise ValueError(f"unknown suite {name!r}; known: {', '.join(SUITE_NAMES)}")
    return reports, all(rep.passed for rep in reports)
