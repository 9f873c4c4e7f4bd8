"""Acceptance battery.

One test per criterion, each printing a PASS/FAIL line and asserting at the
stated tolerance.  Shared trajectory data for the small-data criteria is
built once per module.  Stated runtime budgets are asserted with
wall-clock timers.
"""

import math
import subprocess
import sys
import time

import numpy as np
import pytest

from lmcf.fields import GridSpec, PeriodicScalarField, mean_value, sup_norm
from lmcf.flow import (
    FlowConfig,
    FlowState,
    Run,
    checkpoint_load,
    checkpoint_save,
    integrate,
    step_rk4,
)
from lmcf.geometry import _angle_values, angle_gradient
from lmcf.initial_data import random_bandlimited_potential, single_mode_potential
from lmcf.verification import (
    check_evolution_inequality,
    check_log_jet_monotone,
    check_psi_monotone,
    check_second_variation,
    check_volume_dissipation,
    constants_stable,
    eigen_angle_values,
    fit_decay_rate,
    sample_trajectory,
    second_variation_quadrature,
)

TWO_PI = 2.0 * np.pi
FOUR_PI_SQ = 4.0 * np.pi ** 2
EIGHT_PI_4 = 8.0 * np.pi ** 4


def announce(num, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} criterion {num:2d}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def _sym_batch(rng, dim, count, fro_max):
    from lmcf.fields import sym_indices, sym_multiplicities

    ncomp = len(sym_indices(dim, 2))
    comps = rng.standard_normal((ncomp, count))
    mults = np.array(sym_multiplicities(dim, 2), dtype=np.float64)
    fro = np.sqrt(np.einsum("c...,c->...", comps * comps, mults))
    comps *= fro_max * rng.random(count) / fro
    return comps


# --------------------------------------------------------------------------
# shared small-data runs (criteria 7, 8, 9, 10)

SMALL_DATA_SPECS = tuple(
    (seed, (0.0 if seed % 2 == 0 else -1.0), 0.05 + 0.002 * seed)
    for seed in range(20)
)


def _small_data_cfg(sizes, kappa):
    return FlowConfig(grid=GridSpec(1, (sizes,)), kappa=kappa, t_max=1.0,
                      conv_tol=1e-13, checkpoint_every=50)


def _small_data_u0(cfg, seed, amp):
    return random_bandlimited_potential(cfg.grid, amp, 3, seed=seed, C0=cfg.C0, C1=cfg.C1)


@pytest.fixture(scope="module")
def small_data_runs():
    # the 20 runs step as one ensemble, each member bit-identical to its own run
    members = []
    t0 = time.perf_counter()
    for seed, kappa, amp in SMALL_DATA_SPECS:
        cfg = FlowConfig(grid=GridSpec(1, (64,)), kappa=kappa, t_max=0.12,
                         conv_tol=1e-13, checkpoint_every=50)
        members.append((seed, kappa, amp, cfg, _small_data_u0(cfg, seed, amp)))
    results = integrate(tuple(Run(u0, cfg) for *_, cfg, u0 in members))
    runs = [(*member, result) for member, result in zip(members, results)]
    return runs, time.perf_counter() - t0


def _small_data_trajectories(specs, sizes, sample_every):
    """One ensemble ``sample_trajectory`` of (seed, kappa, amp) specs on one grid."""
    cfgs = tuple(_small_data_cfg(sizes, kappa) for _, kappa, _ in specs)
    u0s = tuple(_small_data_u0(cfg, seed, amp) for (seed, _, amp), cfg in zip(specs, cfgs))
    return sample_trajectory(u0s, cfgs, sample_every, 8)


@pytest.fixture(scope="module")
def small_data_trajectories():
    trajs = _small_data_trajectories(SMALL_DATA_SPECS, 64, 40)
    return [(seed, kappa, traj) for (seed, kappa, _), traj in zip(SMALL_DATA_SPECS, trajs)]


def test_criterion_1_angle_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1)
    worst = 0.0
    for dim in (1, 2, 3):
        comps = _sym_batch(rng, dim, 1000, 0.5)
        reference = eigen_angle_values(comps, dim)
        worst = max(worst, float(np.max(np.abs(_angle_values(comps, dim) - reference))))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed < 1.0
    announce(1, ok, f"angle oracle gap {worst:.3g} (<=1e-10), {elapsed:.2f}s (<1s)")


def test_criterion_2_angle_gradient_identity():
    rng = np.random.default_rng(2)
    delta = 1e-6
    worst = 0.0
    for _ in range(100):
        q = rng.standard_normal((2, 2))
        q = q + q.T
        q *= 0.5 * rng.random() / max(np.linalg.norm(q), 1e-12)
        fd = np.zeros((2, 2))
        for i in range(2):
            for j in range(i, 2):
                pert = np.zeros((2, 2))
                pert[i, j] = pert[j, i] = 1.0
                step = 2.0 * delta if i == j else 4.0 * delta
                qp, qm = q + delta * pert, q - delta * pert
                tp = float(_angle_values(
                    np.array([qp[0, 0], qp[0, 1], qp[1, 1]]).reshape(3, 1), 2)[0])
                tm = float(_angle_values(
                    np.array([qm[0, 0], qm[0, 1], qm[1, 1]]).reshape(3, 1), 2)[0])
                fd[i, j] = fd[j, i] = (tp - tm) / step
        target = angle_gradient(q)
        worst = max(worst, np.linalg.norm(fd - target) / np.linalg.norm(target))
    ok = worst <= 1e-5
    announce(2, ok, f"d(theta)/dQ vs inverse metric, rel err {worst:.3g} (<=1e-5)")


def test_criterion_3_two_route_laplacian():
    from lmcf.fields import derivative
    from lmcf.geometry import laplace_beltrami, metric_from_potential

    spec = GridSpec(1, (128,))
    u_raw = random_bandlimited_potential(spec, 0.05, 3, seed=3)
    u = PeriodicScalarField(
        spec, 0.3 / sup_norm(derivative(u_raw, 2)) * u_raw.values
    )
    f = random_bandlimited_potential(spec, 1.0, 3, seed=4)
    M = metric_from_potential(u)
    div = laplace_beltrami(f, M, "divergence").values
    chr_ = laplace_beltrami(f, M, "christoffel").values
    rel = np.max(np.abs(div - chr_)) / np.max(np.abs(div))
    ok = rel <= 1e-8
    announce(3, ok, f"divergence vs christoffel routes, rel sup diff {rel:.3g} (<=1e-8)")


def test_criterion_4_angle_expansion_slope():
    from lmcf.verification import check_angle_expansion

    t0 = time.perf_counter()
    spec = GridSpec(1, (128,))
    x = spec.coordinates()[0]
    base = PeriodicScalarField(spec, np.sin(TWO_PI * x))
    rep = check_angle_expansion([base], (1e-1, 1e-2, 1e-3))
    elapsed = time.perf_counter() - t0
    ok = rep.passed and rep.fitted_order >= 2.9 and elapsed < 5.0
    announce(4, ok, f"angle-vs-laplacian slope {rep.fitted_order:.3f} (>=2.9), "
                    f"{elapsed:.2f}s (<5s)")


def test_criterion_5_exact_ode_regime():
    t0 = time.perf_counter()
    spec = GridSpec(1, (64,))
    cfg = FlowConfig(grid=spec, kappa=-1.0, t_max=5.0, cfl=0.5,
                     conv_tol=1e-13, checkpoint_every=200)
    res = integrate(PeriodicScalarField.constant(spec, 0.01), cfg)
    elapsed = time.perf_counter() - t0
    sup_err = max(abs(r.max_u - 0.01 * math.exp(-r.t)) for r in res.records)
    rate = fit_decay_rate(res.records, "psi_max", (0.5, 4.5))
    ok = sup_err <= 1e-9 and abs(rate + 2.0) <= 1e-4 and elapsed < 10.0
    announce(5, ok, f"|u - 0.01e^-t| {sup_err:.3g} (<=1e-9), psi rate {rate:.8f} "
                    f"(-2 +/- 1e-4), {elapsed:.1f}s (<10s)")


def test_criterion_6_linearized_decay():
    t0 = time.perf_counter()
    spec = GridSpec(1, (128,))
    cfg = FlowConfig(grid=spec, kappa=0.0, t_max=2.0, conv_tol=1e-8,
                     checkpoint_every=200)
    u0 = single_mode_potential(spec, 1e-3, (1,))
    res = integrate(u0, cfg)
    elapsed = time.perf_counter() - t0
    rate = fit_decay_rate(res.records, "sup_du", (0.01, 0.1))
    rate_ok = abs(rate + FOUR_PI_SQ) <= 0.01 * FOUR_PI_SQ
    drift = np.max(np.abs(res.state.u.values - mean_value(u0)))
    drift_ok = drift <= 10.0 * res.records[0].psi_max
    ok = res.converged and rate_ok and drift_ok and elapsed < 30.0
    announce(6, ok, f"{res.outcome}, du rate {rate:.4f} (target {-FOUR_PI_SQ:.4f} "
                    f"+/-1%), |u_inf - mean u0| {drift:.3g} "
                    f"(<= {10 * res.records[0].psi_max:.3g}), {elapsed:.1f}s (<30s)")


def test_criterion_7_psi_monotone(small_data_runs):
    runs, elapsed = small_data_runs
    worst = -math.inf
    for seed, kappa, amp, cfg, u0, result in runs:
        assert result.records[0].psi_max < cfg.eps1 ** 2
        rep = check_psi_monotone(result.records)
        assert rep.passed, f"seed {seed}, kappa {kappa}"
        worst = max(worst, rep.fitted_constant)
    ok = elapsed < 180.0
    announce(7, ok, f"20 random small-data runs, max psi increment {worst:.3g} "
                    f"(<=1e-8), {elapsed:.1f}s (<180s)")


def test_criterion_8_evolution_certification(small_data_trajectories):
    # parameter-free psi inequality on every trajectory
    for seed, kappa, traj in small_data_trajectories:
        rep = check_evolution_inequality("psi", traj)
        assert rep.passed, f"psi inequality failed for seed {seed}, kappa {kappa}"
    # resolution stability of the fitted lettered constants
    stable_all = True
    details = []
    # each grid's pair of trajectories steps as one ensemble
    pair = SMALL_DATA_SPECS[:2]
    for (seed, kappa, amp), traj_c, traj_f in zip(pair, _small_data_trajectories(pair, 64, 40),
                                                  _small_data_trajectories(pair, 128, 160)):
        for name in ("u2", "du2", "d2u2", "d3u2"):
            rc = check_evolution_inequality(name, traj_c)
            rf = check_evolution_inequality(name, traj_f)
            stable = constants_stable(rc, rf)
            stable_all = stable_all and stable
            details.append(f"{name}/k{kappa:g}: {rc.fitted_constant:.3g}->"
                           f"{rf.fitted_constant:.3g}")
    announce(8, stable_all, "psi inequality pointwise on all 20 trajectories; "
                            "constants N=64 vs 128: " + "; ".join(details[:4]) + " ...")


def test_criterion_9_log_jet_quantity(small_data_trajectories):
    worst = -math.inf
    for seed, kappa, traj in small_data_trajectories:
        rep = check_log_jet_monotone(traj, K=10.0)
        assert rep.passed, f"seed {seed}, kappa {kappa}"
        worst = max(worst, rep.fitted_constant)
    announce(9, True, f"log(1+|D3u|^2) + 10 psi non-increasing on all 20 "
                      f"trajectories, max increment {worst:.3g} (<=1e-8)")


def test_criterion_10_volume_lyapunov(small_data_trajectories):
    # dissipation identity on the kappa = 0 trajectories (flat Calabi-Yau case)
    checked = 0
    for seed, kappa, traj in small_data_trajectories:
        if kappa != 0.0:
            continue
        rep = check_volume_dissipation(traj, form="squared")
        assert rep.passed, f"volume identity failed for seed {seed}"
        checked += 1
    # per-step monotonicity, both signs of kappa
    worst_step = -math.inf
    for kappa in (0.0, -1.0):
        spec = GridSpec(1, (32,))
        cfg = FlowConfig(grid=spec, kappa=kappa, t_max=1.0, conv_tol=1e-13,
                         checkpoint_every=1)
        u0 = random_bandlimited_potential(spec, 0.08, 3, seed=100, C0=cfg.C0,
                                          C1=cfg.C1)
        res = integrate(u0, cfg)
        vols = [r.volume for r in res.records[:500]]
        worst_step = max(worst_step, max(b - a for a, b in zip(vols, vols[1:])))
    ok = checked == 10 and worst_step <= 1e-10
    announce(10, ok, f"dissipation identity on {checked} kappa=0 trajectories; "
                     f"max per-step volume increase {worst_step:.3g} (<=1e-10)")


def test_criterion_11_second_variation():
    spec = GridSpec(1, (64,))
    x = spec.coordinates()[0]
    h = PeriodicScalarField(spec, np.sin(TWO_PI * x))
    target = second_variation_quadrature(h)
    rep = check_second_variation(h)
    target_ok = abs(target - EIGHT_PI_4) <= 1e-9 * EIGHT_PI_4
    nonneg = True
    for seed in range(20):
        hr = random_bandlimited_potential(spec, 0.3, 3, seed=200 + seed)
        rep_r = check_second_variation(hr)
        nonneg = nonneg and rep_r.passed
    ok = rep.passed and target_ok and nonneg
    announce(11, ok, f"richardson vs 8 pi^4 = {EIGHT_PI_4:.7f}: {rep.note[:56]}; "
                     f"20 random directions non-negative: {nonneg}")


def test_criterion_12_engineering_determinism(tmp_path):
    # checkpoint round trip is bit-exact
    spec = GridSpec(1, (32,))
    cfg = FlowConfig(grid=spec, kappa=-0.25, t_max=1.0)
    u = random_bandlimited_potential(spec, 0.05, 3, seed=12)
    state = FlowState(0.375, u, scheme=cfg.scheme)
    path = tmp_path / "c.lmcf"
    checkpoint_save(state, cfg, path)
    loaded, _ = checkpoint_load(path)
    roundtrip_ok = np.array_equal(loaded.u.values, u.values) and loaded.t == state.t

    # repeated integration is bit-identical
    run_cfg = FlowConfig(grid=spec, kappa=-0.25, t_max=0.02, conv_tol=1e-13,
                         checkpoint_every=10)
    r1 = integrate(u, run_cfg)
    r2 = integrate(u, run_cfg)
    repeat_ok = r1.records == r2.records and np.array_equal(
        r1.state.u.values, r2.state.u.values)

    # RK4 order fit
    order_spec = GridSpec(1, (16,))
    u0 = single_mode_potential(order_spec, 0.01, (1,))
    finals = []
    # at N = 16, dt = cfl / 512: 8e-4, 4e-4 and 2e-4 bit for bit
    for cfl in (0.4096, 0.2048, 0.1024):
        order_cfg = FlowConfig(grid=order_spec, kappa=-0.5, t_max=1.0, cfl=cfl)
        st = FlowState.initial(u0, order_cfg)
        for _ in range(round(0.08 / order_cfg.dt)):
            st = step_rk4(st, order_cfg)
        finals.append(st.u.values)
    e1 = np.max(np.abs(finals[0] - finals[1]))
    e2 = np.max(np.abs(finals[1] - finals[2]))
    order = math.log2(e1 / e2)
    order_ok = abs(order - 4.0) <= 0.3

    # full verification battery from a clean process, one core, < 5 minutes
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "lmcf.cli", "verify", "all", "-o",
         str(tmp_path / "verify_all")],
        capture_output=True, text=True, timeout=300,
    )
    elapsed = time.perf_counter() - t0
    verify_ok = proc.returncode == 0 and elapsed < 300.0

    ok = roundtrip_ok and repeat_ok and order_ok and verify_ok
    announce(12, ok, f"roundtrip {roundtrip_ok}, rerun bit-identical {repeat_ok}, "
                     f"RK4 order {order:.3f} (4 +/- 0.3), verify all exit "
                     f"{proc.returncode} in {elapsed:.1f}s (<300s)")
