"""Residual reports: estimates, monotone quantities, decay fits, variation."""

import dataclasses
import gc
import math
import warnings
import weakref

import numpy as np
import pytest

import lmcf.geometry
import lmcf.verification
from lmcf.fields import GridSpec, NonFiniteError, PeriodicScalarField
from lmcf.flow import BlowupError, FlowConfig, FlowState, step_rk4
from lmcf.initial_data import random_bandlimited_potential, single_mode_potential
from lmcf.monitors import MonitorRecord
from lmcf.verification import (
    EVOLUTION_NAMES,
    DegenerateDirectionError,
    RegionViolationError,
    ResidualReport,
    Trajectory,
    TrajectoryTriple,
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
    psi_field,
    sample_trajectory,
    second_variation_quadrature,
    write_report,
)
from test_flow import TestStepRk4 as StepRk4Cases  # not collected a second time here

TWO_PI = 2.0 * np.pi


def make_cfg(sizes=(64,), kappa=0.0, **kw):
    spec = GridSpec(len(sizes), sizes)
    return FlowConfig(grid=spec, kappa=kappa, t_max=1.0, **kw)


@pytest.fixture(scope="module")
def small_trajectory():
    cfg = make_cfg(kappa=0.0)
    u0 = random_bandlimited_potential(cfg.grid, 0.08, 3, seed=41)
    return sample_trajectory(u0, cfg, sample_every=40, n_samples=8)


@pytest.fixture(scope="module")
def small_trajectory_negative_kappa():
    cfg = make_cfg(kappa=-1.0)
    u0 = random_bandlimited_potential(cfg.grid, 0.08, 3, seed=42)
    return sample_trajectory(u0, cfg, sample_every=40, n_samples=8)


def reversed_trajectory(traj):
    """Time-reversed copy: smooth but anti-parabolic, so checks must fail."""
    flipped = tuple(
        TrajectoryTriple(before=tr.after, at=tr.at, after=tr.before)
        for tr in reversed(traj.triples)
    )
    return Trajectory(cfg=traj.cfg, triples=flipped)


class TestPsiField:
    def test_zero(self):
        cfg = make_cfg()
        assert np.all(psi_field(PeriodicScalarField.zeros(cfg.grid), cfg).values == 0.0)

    def test_constant(self):
        cfg = make_cfg()
        got = psi_field(PeriodicScalarField.constant(cfg.grid, 0.02), cfg)
        assert np.allclose(got.values, cfg.C0 * 0.02 ** 2)

    def test_single_mode_formula(self):
        cfg = make_cfg(sizes=(128,))
        eps = 1e-2
        u = single_mode_potential(cfg.grid, eps, (1,))
        x = cfg.grid.coordinates()[0]
        c, s = np.cos(TWO_PI * x), np.sin(TWO_PI * x)
        expected = (
            cfg.C0 * (eps * c) ** 2
            + cfg.C1 * (TWO_PI * eps * s) ** 2
            + (TWO_PI ** 2 * eps * c) ** 2
        )
        assert np.max(np.abs(psi_field(u, cfg).values - expected)) <= 1e-10


class TestAngleExpansion:
    def test_pointwise_cubic_remainder(self):
        # arctan(q) - q at q = 0.1
        assert abs((math.atan(0.1) - 0.1) - (-3.3134750883796e-4)) <= 1e-17

    def test_sin_base_is_cubic(self):
        spec = GridSpec(1, (128,))
        x = spec.coordinates()[0]
        base = PeriodicScalarField(spec, np.sin(TWO_PI * x))
        rep = check_angle_expansion([base], (1e-1, 1e-2, 1e-3))
        assert rep.passed
        assert rep.fitted_order >= 2.9

    def test_constant_base_trivial(self):
        spec = GridSpec(1, (32,))
        rep = check_angle_expansion(
            [PeriodicScalarField.constant(spec, 1.0)], (1e-1, 1e-2, 1e-3)
        )
        assert rep.passed
        assert all(res <= 1e-13 for _, res, _ in rep.samples)

    def test_roundoff_sweep_fits_no_constant(self):
        # at these amplitudes the cubic term is below roundoff: like the
        # Laplacian difference, the sweep fits constant 0 and no order
        spec = GridSpec(1, (64,))
        base = PeriodicScalarField(spec, np.sin(TWO_PI * spec.coordinates()[0]))
        rep = check_angle_expansion([base], (1e-6, 1e-7, 1e-8))
        assert rep.passed
        assert rep.fitted_constant == 0.0
        assert math.isnan(rep.fitted_order)
        assert any(res > 0.0 for _, res, _ in rep.samples)
        lap = check_laplacian_difference(PeriodicScalarField.constant(spec, 1.0), base)
        assert lap.fitted_constant == 0.0 and math.isnan(lap.fitted_order)

    def test_needs_a_sample_field(self):
        with pytest.raises(ValueError, match="sample field"):
            check_angle_expansion([], (0.1, 0.01, 0.001))

    def test_needs_three_amplitudes(self):
        spec = GridSpec(1, (32,))
        with pytest.raises(ValueError):
            check_angle_expansion([PeriodicScalarField.zeros(spec)], (0.1, 0.01))

    @pytest.mark.parametrize("bad", ["sample", "amplitude"])
    @pytest.mark.parametrize("scheme", ["spectral", "central4"])
    def test_non_finite_input_raises(self, bad, scheme):
        spec = GridSpec(1, (32,))
        values = np.sin(TWO_PI * spec.coordinates()[0])
        amplitudes = [0.1, 0.01, 0.001]
        if bad == "sample":
            values[3] = np.inf
        else:
            amplitudes[1] = np.nan
        with pytest.raises(NonFiniteError):
            check_angle_expansion([PeriodicScalarField(spec, values)], amplitudes, scheme)

    @pytest.mark.parametrize("sizes", [(32,), (16, 16), (8, 8, 8)])
    def test_oracle_gap_of_a_cached_angle_is_the_recomputed_one(self, sizes):
        spec = GridSpec(len(sizes), sizes)
        state = FlowState(0.0, random_bandlimited_potential(spec, 0.3, 2, seed=3))
        hess, theta = state.d2u.components, state.angle_and_density()[0]
        assert angle_oracle_gap(hess, spec.dim, theta) == angle_oracle_gap(hess, spec.dim)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_oracle_gap_of_a_non_finite_hessian_is_nan(self, dim, bad):
        # every component in turn, the off-diagonal ones included: an infinite
        # 2-D q01 has the finite angle 0 on both routes, and eigvalsh raises on NaN
        spec = GridSpec(dim, (8,) * dim)
        hess = FlowState(0.0, random_bandlimited_potential(spec, 0.3, 2, seed=3)).d2u.components
        for comp in range(len(hess)):
            bad_hess = hess.copy()
            bad_hess[(comp,) + (2,) * dim] = bad
            with np.errstate(invalid="ignore"):
                assert math.isnan(angle_oracle_gap(bad_hess, dim))

    def test_oracle_reads_the_cached_angle(self, monkeypatch):
        spec = GridSpec(1, (64,))
        base = PeriodicScalarField(spec, np.sin(TWO_PI * spec.coordinates()[0]))
        expected = check_angle_expansion([base], (1e-1, 1e-2, 1e-3)).lines()
        monkeypatch.setattr(lmcf.verification, "_angle_values",
                            lambda *args: pytest.fail("the angle was recomputed"))
        assert check_angle_expansion([base], (1e-1, 1e-2, 1e-3)).lines() == expected

    def test_report_lines_format(self, tmp_path):
        spec = GridSpec(1, (64,))
        x = spec.coordinates()[0]
        rep = check_angle_expansion(
            [PeriodicScalarField(spec, np.sin(TWO_PI * x))], (1e-1, 1e-2, 1e-3)
        )
        lines = rep.lines()
        assert len(lines) == 4
        assert all(line.count(",") == 4 for line in lines[:-1])
        assert lines[-1].endswith(",pass")
        write_report(rep, tmp_path / "r.txt")
        assert (tmp_path / "r.txt").read_text().count("\n") >= 4


class TestLaplacianDifference:
    def test_constant_u_zero_residual(self):
        spec = GridSpec(1, (64,))
        u = PeriodicScalarField.constant(spec, 1.0)
        f = single_mode_potential(spec, 1.0, (1,))
        rep = check_laplacian_difference(u, f)
        assert rep.passed
        assert rep.fitted_constant == 0.0

    def test_constant_f_zero_residual(self):
        spec = GridSpec(1, (64,))
        u = single_mode_potential(spec, 0.1, (1,))
        f = PeriodicScalarField.constant(spec, 2.0)
        rep = check_laplacian_difference(u, f)
        assert rep.passed
        assert rep.fitted_constant == 0.0

    def test_sweep_scaling(self):
        spec = GridSpec(1, (64,))
        u = single_mode_potential(spec, 1.0, (1,))
        f = PeriodicScalarField(spec, np.cos(TWO_PI * spec.coordinates()[0]))
        rep = check_laplacian_difference(u, f)
        assert rep.passed
        assert rep.fitted_order >= 0.9

    @pytest.mark.parametrize("bad", ["u", "f", "amplitude"])
    @pytest.mark.parametrize("scheme", ["spectral", "central4"])
    def test_non_finite_input_raises(self, bad, scheme):
        spec = GridSpec(1, (64,))
        u = single_mode_potential(spec, 1.0, (1,)).values.copy()
        f = np.cos(TWO_PI * spec.coordinates()[0])
        amplitudes = [0.5, 0.25, 0.125]
        if bad == "amplitude":
            amplitudes[2] = np.nan
        else:
            (u if bad == "u" else f)[5] = np.inf
        with pytest.raises(NonFiniteError):
            check_laplacian_difference(PeriodicScalarField(spec, u),
                                       PeriodicScalarField(spec, f), amplitudes, scheme)

    @pytest.mark.parametrize("amplitudes", [(), (0.5, 0.25)])
    def test_needs_three_amplitudes(self, amplitudes):
        # an empty sweep has no rows to fail on: it must not pass
        spec = GridSpec(1, (32,))
        u = single_mode_potential(spec, 1.0, (1,))
        with pytest.raises(ValueError, match="at least 3 amplitudes"):
            check_laplacian_difference(u, u, amplitudes)


class TestSampleTrajectory:
    @staticmethod
    def _chain(u0, cfg, steps):
        """States 0 ... steps of a step_rk4 chain from u0."""
        chain = [FlowState.initial(u0, cfg)]
        for _ in range(steps):
            chain.append(step_rk4(chain[-1], cfg))
        return chain

    # 16, 32 and 128 points run the DFT-matrix route (128 is its bound), 130
    # the 1-D FFT route and 16^2 the 2-D one
    @pytest.mark.parametrize("sizes", [(16,), (32,), (128,), (130,), (16, 16)])
    @pytest.mark.parametrize("sample_every", [1, 3])
    def test_triples_are_states_of_a_step_rk4_chain(self, sizes, sample_every):
        cfg = make_cfg(sizes=sizes, kappa=-0.5)
        u0 = random_bandlimited_potential(cfg.grid, 0.05, 3, seed=7)
        n_samples = 3
        traj = sample_trajectory(u0, cfg, sample_every, n_samples)
        chain = self._chain(u0, cfg, sample_every * n_samples + 1)
        assert len(traj.triples) == n_samples
        for k, tr in enumerate(traj.triples, start=1):
            center = k * sample_every
            for state, ref in zip((tr.before, tr.at, tr.after), chain[center - 1:center + 2]):
                assert state.t == ref.t
                assert np.array_equal(state.u.values, ref.u.values)
                assert np.array_equal(state.d2u.components, ref.d2u.components)
                assert np.array_equal(state.psi(cfg.C0, cfg.C1), ref.psi(cfg.C0, cfg.C1))

    def test_keeps_only_the_states_it_returns(self, monkeypatch):
        cfg = make_cfg(sizes=(32,), kappa=0.0)
        u0 = random_bandlimited_potential(cfg.grid, 0.05, 3, seed=7)
        built = []  # (step index, weak reference) of every state the loop builds
        visited, alive_at_visit = [], []
        from_loop = FlowState._from_loop.__func__

        def recording_from_loop(cls, t, *args):
            state = from_loop(cls, t, *args)
            built.append((round(t / cfg.dt), weakref.ref(state)))
            return state

        def alive():
            gc.collect()
            return {index for index, ref in built if ref() is not None}

        integrate = lmcf.flow.integrate

        def spying_integrate(u0, cfg, hook):
            steps, visit = hook

            def spy(index, state):
                alive_at_visit.append(alive() - {index})  # besides the state handed over
                visited.append(index)
                visit(index, state)
            return integrate(u0, cfg, hook=(steps, spy))

        monkeypatch.setattr(FlowState, "_from_loop", classmethod(recording_from_loop))
        monkeypatch.setattr(lmcf.flow, "integrate", spying_integrate)
        traj = sample_trajectory(u0, cfg, sample_every=4, n_samples=2)
        assert visited == [3, 4, 5, 7, 8, 9]
        # the hand-overs and the result's state: the run builds no record state
        assert [index for index, _ in built] == [3, 4, 5, 7, 8, 9, 9]
        # besides the state handed over, only triple members stay alive
        assert all(alive <= {3, 4, 5, 7, 8} for alive in alive_at_visit)
        assert alive() == {3, 4, 5, 7, 8, 9}
        assert [tr.at.t for tr in traj.triples] == [ref().t for index, ref in built
                                                    if index in (4, 8)]

    @pytest.mark.parametrize("u0_kind,t_max", [("constant", 1.0), ("random", 1e-3)])
    def test_runs_to_the_last_triple(self, u0_kind, t_max):
        # a constant at kappa = 0 has sup|D^2 u| = 0 < conv_tol, and t = 1e-3 is
        # step 3 of 21: neither stops the run short
        cfg = dataclasses.replace(make_cfg(sizes=(16,), kappa=0.0), t_max=t_max)
        u0 = (PeriodicScalarField.constant(cfg.grid, 0.005) if u0_kind == "constant"
              else random_bandlimited_potential(cfg.grid, 0.05, 3, seed=7))
        sample_every, n_samples = 5, 4
        traj = sample_trajectory(u0, cfg, sample_every, n_samples)
        chain = self._chain(u0, cfg, sample_every * n_samples + 1)
        assert len(traj.triples) == n_samples
        for k, tr in enumerate(traj.triples, start=1):
            center = k * sample_every
            # the chain's times: t += dt once per step
            assert [tr.before.t, tr.at.t, tr.after.t] == [
                ref.t for ref in chain[center - 1:center + 2]]
            assert np.array_equal(tr.after.u.values, chain[center + 1].u.values)

    @pytest.mark.parametrize("sample_every,n_samples", [
        pytest.param(5, 3, id="between-centers"),  # state 12 is between centers 10 and 15
        pytest.param(11, 1, id="final-after-state"),  # state 12 is the last triple's after
    ])
    def test_raises_the_blowup_of_a_step_rk4_chain(self, sample_every, n_samples):
        # the data of TestStepRk4's after-12-steps case: state 12 fails the guard
        spec = GridSpec(1, (32,))
        cfg = FlowConfig(grid=spec, kappa=50.0, t_max=0.05)
        u0 = single_mode_potential(spec, 0.24, (1,))
        # every step_rk4 call and the sample_trajectory run are integrate runs
        with pytest.warns(UserWarning, match="kappa > 0 is experimental"):
            raised = StepRk4Cases._chain_blowup(u0, cfg)
            with pytest.raises(BlowupError) as caught:
                sample_trajectory(u0, cfg, sample_every, n_samples)
            last = self._chain(u0, cfg, 11)[-1]
        assert raised.t == last.t + cfg.dt
        StepRk4Cases._assert_same_blowup(raised, caught.value)

    def test_warns_of_no_region_exit(self):
        # psi >> eps1^2 is reported by the checks' RegionViolationError, not by a warning
        cfg = make_cfg(sizes=(32,), kappa=0.0)
        u0 = single_mode_potential(cfg.grid, 0.05, (2,))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            traj = sample_trajectory(u0, cfg, sample_every=2, n_samples=2)
        assert cfg.leaves_region(float(np.max(traj.triples[0].at.psi(cfg.C0, cfg.C1))))
        with pytest.raises(RegionViolationError):
            check_evolution_inequality("psi", traj)

    def test_kappa_positive_trajectory_warns_experimental(self):
        cfg = make_cfg(sizes=(16,), kappa=0.5)
        u0 = random_bandlimited_potential(cfg.grid, 0.01, 2, seed=7)
        with pytest.warns(UserWarning, match="kappa > 0 is experimental"):
            sample_trajectory(u0, cfg, sample_every=2, n_samples=2)

    def test_rejects_u0_on_another_grid(self):
        cfg = make_cfg(sizes=(64,))
        u0 = random_bandlimited_potential(GridSpec(1, (32,)), 0.05, 2, seed=1)
        with pytest.raises(ValueError, match="u0 grid does not match config grid"):
            sample_trajectory(u0, cfg, sample_every=2, n_samples=2)

    def test_rejects_non_finite_u0(self):
        cfg = make_cfg(sizes=(32,))
        values = np.zeros(32)
        values[3] = np.nan
        with pytest.raises(ValueError, match="u0 is not finite"):
            sample_trajectory(PeriodicScalarField(cfg.grid, values), cfg,
                              sample_every=2, n_samples=2)

    @pytest.mark.parametrize("field,counts", [
        ("sample_every", (True, 2)), ("sample_every", (2.0, 2)), ("n_samples", (2, 2.0)),
    ])
    def test_counts_must_be_integers(self, field, counts):
        # a bool or float count is rejected by name
        cfg = make_cfg(sizes=(32,))
        u0 = random_bandlimited_potential(cfg.grid, 0.05, 2, seed=1)
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            sample_trajectory(u0, cfg, *counts)


class TestEvolutionInequalities:
    def test_constant_u2_is_exact_ode(self):
        cfg = make_cfg(sizes=(16,), kappa=-1.0, cfl=0.5)
        u0 = PeriodicScalarField.constant(cfg.grid, 0.005)
        traj = sample_trajectory(u0, cfg, sample_every=5, n_samples=4)
        rep = check_evolution_inequality("u2", traj)
        assert rep.passed
        # LHS = 2 kappa u^2 exactly, main = -|du|^2 + 2 kappa u^2 with du = 0
        assert all(res <= 1e-12 for _, res, _ in rep.samples)

    def test_constant_psi_kappa_zero(self):
        cfg = make_cfg(sizes=(16,), kappa=0.0)
        u0 = PeriodicScalarField.constant(cfg.grid, 0.005)
        traj = sample_trajectory(u0, cfg, sample_every=5, n_samples=4)
        rep = check_evolution_inequality("psi", traj)
        assert rep.passed

    @pytest.mark.parametrize("name", ["u2", "du2", "d2u2", "d3u2", "psi"])
    def test_trajectory_checks_pass(self, small_trajectory, name):
        rep = check_evolution_inequality(name, small_trajectory)
        assert rep.passed

    @pytest.mark.parametrize("name", ["u2", "psi"])
    def test_negative_kappa_checks_pass(self, small_trajectory_negative_kappa, name):
        rep = check_evolution_inequality(name, small_trajectory_negative_kappa)
        assert rep.passed

    def test_unknown_name(self, small_trajectory):
        with pytest.raises(ValueError):
            check_evolution_inequality("u4", small_trajectory)

    def test_metric_built_once_per_state(self, monkeypatch):
        # the evolution checks and the dissipation integral read each state's
        # cached metric, so it is built once per distinct center state
        cfg = make_cfg(sizes=(32,), kappa=-0.5)
        u0 = random_bandlimited_potential(cfg.grid, 0.05, 2, seed=3)
        traj = sample_trajectory(u0, cfg, sample_every=5, n_samples=4)
        built = []
        for module in (lmcf.geometry, lmcf.verification):
            monkeypatch.setattr(module, "induced_metric",
                                lambda Q, *args, build=module.induced_metric:
                                built.append(Q.components) or build(Q, *args))
        reports = [check_evolution_inequality(name, traj) for name in EVOLUTION_NAMES]
        reports.append(check_volume_dissipation(traj))
        assert all(rep.passed for rep in reports)
        assert len(built) == len(traj.triples)
        for comps, tr in zip(built, traj.triples):
            assert comps is tr.at._jet(2)

    def test_region_violation(self):
        cfg = make_cfg(sizes=(32,), kappa=0.0)
        u0 = single_mode_potential(cfg.grid, 0.05, (2,))  # psi far above eps1^2
        traj = sample_trajectory(u0, cfg, sample_every=2, n_samples=2)
        with pytest.raises(RegionViolationError):
            check_evolution_inequality("psi", traj)

    def test_time_reversal_fails_psi(self, small_trajectory):
        rep = check_evolution_inequality("psi", reversed_trajectory(small_trajectory))
        assert not rep.passed

    @pytest.mark.parametrize("row", [(0.0, math.nan, 1.0), (0.0, 1.0, math.nan)])
    def test_nan_row_fits_nan_constant(self, row):
        assert math.isnan(lmcf.verification._fitted_constant([(0.0, 1.0, 2.0), row]))

    def test_nan_bound_fails_lettered_report(self, small_trajectory, monkeypatch):
        main_and_bound = lmcf.verification._main_and_bound

        def nan_bound(state, name, cfg):
            return main_and_bound(state, name, cfg)[0], math.nan

        monkeypatch.setattr(lmcf.verification, "_main_and_bound", nan_bound)
        rep = check_evolution_inequality("du2", small_trajectory)
        assert math.isnan(rep.fitted_constant)
        assert not rep.passed


class TestMonotoneQuantities:
    def test_log_jet_monotone(self, small_trajectory):
        rep = check_log_jet_monotone(small_trajectory, K=10.0)
        assert rep.passed

    def test_log_jet_requires_K(self, small_trajectory):
        with pytest.raises(ValueError):
            check_log_jet_monotone(small_trajectory, K=0.5)

    def test_log_jet_reversed_fails(self, small_trajectory):
        rep = check_log_jet_monotone(reversed_trajectory(small_trajectory), K=10.0)
        assert not rep.passed

    def test_psi_monotone_fails_on_growth(self):
        recs = [
            MonitorRecord(t=float(k), max_u=0, max_du=0, max_d2u=0, max_d3u=0,
                          psi_max=1e-3 * (1.0 + 0.1 * k), theta_min=0, theta_max=0,
                          volume=1.0, dt=1e-3)
            for k in range(4)
        ]
        assert not check_psi_monotone(recs).passed

    def test_psi_monotone_passes_on_decay(self):
        recs = [
            MonitorRecord(t=float(k), max_u=0, max_du=0, max_d2u=0, max_d3u=0,
                          psi_max=1e-3 * math.exp(-k), theta_min=0, theta_max=0,
                          volume=1.0, dt=1e-3)
            for k in range(4)
        ]
        assert check_psi_monotone(recs).passed


class TestVolumeDissipation:
    def test_kappa_zero_squared_form(self, small_trajectory):
        rep = check_volume_dissipation(small_trajectory, form="squared")
        assert rep.passed

    def test_negative_kappa_pairing_form(self, small_trajectory_negative_kappa):
        rep = check_volume_dissipation(small_trajectory_negative_kappa)
        assert "pairing" in rep.note
        assert rep.passed

    def test_negative_kappa_squared_form_is_wrong_model(
        self, small_trajectory_negative_kappa
    ):
        # in the flat reduction the first variation pairs d(theta) with the
        # velocity; the squared form misstates it unless kappa = 0
        rep = check_volume_dissipation(small_trajectory_negative_kappa, form="squared")
        assert not rep.passed

    def test_oracle_reads_the_cached_angle(self, small_trajectory, monkeypatch):
        expected = check_volume_dissipation(small_trajectory).lines()
        monkeypatch.setattr(lmcf.verification, "_angle_values",
                            lambda *args: pytest.fail("the angle was recomputed"))
        assert check_volume_dissipation(small_trajectory).lines() == expected

    def test_bad_form(self, small_trajectory):
        with pytest.raises(ValueError):
            check_volume_dissipation(small_trajectory, form="cubic")

    def test_2d_dissipation(self):
        cfg = make_cfg(sizes=(16, 16), kappa=0.0)
        u0 = random_bandlimited_potential(cfg.grid, 0.05, 2, seed=44)
        traj = sample_trajectory(u0, cfg, sample_every=10, n_samples=4)
        assert check_volume_dissipation(traj).passed


# the seven trajectory checks of the inequalities battery, which runs them in
# 1-D only, where mu is a scalar and the Hessian eigenvalues never interact
TRAJECTORY_CHECKS = {
    **{f"evolution_{name}": (lambda traj, name=name: check_evolution_inequality(name, traj))
       for name in EVOLUTION_NAMES},
    "log_jet_monotone": lambda traj: check_log_jet_monotone(traj, K=10.0),
    "volume_dissipation": check_volume_dissipation,
}


@pytest.fixture(scope="module", params=[
    pytest.param(((32, 32), 10, 4, kappa), id=f"2d-32-kappa{kappa:g}") for kappa in (0.0, -1.0)
] + [
    pytest.param(((32, 32, 32), 4, 3, kappa), id=f"3d-32-kappa{kappa:g}") for kappa in (0.0, -1.0)
])
def higher_dim_trajectory(request):
    sizes, sample_every, n_samples, kappa = request.param
    cfg = make_cfg(sizes=sizes, kappa=kappa)
    u0 = random_bandlimited_potential(cfg.grid, 0.05, 2, seed=7)
    return sample_trajectory(u0, cfg, sample_every, n_samples)


class TestTrajectoryChecksInHigherDimensions:
    @pytest.mark.parametrize("check", TRAJECTORY_CHECKS)
    def test_check_passes(self, higher_dim_trajectory, check):
        rep = TRAJECTORY_CHECKS[check](higher_dim_trajectory)
        assert rep.name == check
        assert rep.passed, rep.lines()


@pytest.mark.parametrize("sizes", [(32, 32), (32, 32, 32)], ids=["2d-32", "3d-32"])
class TestStaticChecksInHigherDimensions:
    """The geometry suite's two amplitude sweeps, on n = 2, 3 band-limited data."""

    def test_angle_expansion(self, sizes):
        spec = GridSpec(len(sizes), sizes)
        base = random_bandlimited_potential(spec, 0.05, 2, seed=7)
        rep = check_angle_expansion([base], (1e-1, 1e-2, 1e-3))
        assert rep.passed, rep.lines()
        assert rep.fitted_order >= 2.9  # the cubic remainder, as the suite requires in 1-D

    def test_laplacian_difference(self, sizes):
        spec = GridSpec(len(sizes), sizes)
        u = random_bandlimited_potential(spec, 0.05, 2, seed=7)
        f = random_bandlimited_potential(spec, 0.05, 2, seed=8)
        rep = check_laplacian_difference(u, f)
        assert rep.passed, rep.lines()


class TestDecayFit:
    def _records(self, rate, n=20):
        return [
            MonitorRecord(t=0.1 * k, max_u=math.exp(rate * 0.1 * k), max_du=1.0,
                          max_d2u=1.0, max_d3u=1.0, psi_max=math.exp(2 * rate * 0.1 * k),
                          theta_min=0.0, theta_max=0.0, volume=1.0, dt=0.1)
            for k in range(n)
        ]

    def test_exact_exponential(self):
        recs = self._records(-1.0)
        assert abs(fit_decay_rate(recs, "sup_u", (0.0, 2.0)) + 1.0) <= 1e-12
        assert abs(fit_decay_rate(recs, "psi_max", (0.0, 2.0)) + 2.0) <= 1e-12

    def test_alias_names(self):
        recs = self._records(-0.5)
        assert abs(fit_decay_rate(recs, "max_u", (0.0, 1.0)) + 0.5) <= 1e-12

    def test_rejects_nonpositive(self):
        recs = self._records(-1.0)
        bad = recs[:3] + [MonitorRecord(t=0.35, max_u=0.0, max_du=1, max_d2u=1,
                                        max_d3u=1, psi_max=1, theta_min=0,
                                        theta_max=0, volume=1, dt=0.1)]
        with pytest.raises(ValueError, match="non-positive"):
            fit_decay_rate(bad, "sup_u", (0.0, 0.4))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite(self, bad):
        # a NaN or inf sample raises as a non-positive one does
        recs = self._records(-1.0)
        recs[2] = dataclasses.replace(recs[2], psi_max=bad)
        with pytest.raises(ValueError, match=f"non-finite psi_max = {bad} at t = {recs[2].t}"):
            fit_decay_rate(recs, "psi_max", (0.0, 0.4))

    def test_rejects_unknown_field(self):
        with pytest.raises(ValueError, match="unknown monitor field"):
            fit_decay_rate(self._records(-1.0), "max_velocity", (0.0, 1.0))

    def test_needs_two_points(self):
        with pytest.raises(ValueError, match="at least 2"):
            fit_decay_rate(self._records(-1.0), "sup_u", (10.0, 11.0))


class TestSecondVariation:
    def test_sin_matches_quadrature(self):
        spec = GridSpec(1, (64,))
        x = spec.coordinates()[0]
        h = PeriodicScalarField(spec, np.sin(TWO_PI * x))
        target = 8.0 * np.pi ** 4
        assert abs(second_variation_quadrature(h) - target) <= 1e-9 * target
        rep = check_second_variation(h)
        assert rep.passed

    def test_random_nonnegative(self):
        spec = GridSpec(1, (32,))
        for seed in range(5):
            h = random_bandlimited_potential(spec, 0.3, 3, seed=seed)
            rep = check_second_variation(h)
            assert rep.passed

    def test_constant_direction_rejected(self):
        spec = GridSpec(1, (32,))
        with pytest.raises(DegenerateDirectionError):
            check_second_variation(PeriodicScalarField.constant(spec, 1.0))

    def test_needs_two_epsilons(self):
        spec = GridSpec(1, (32,))
        h = single_mode_potential(spec, 1.0, (1,))
        with pytest.raises(ValueError):
            check_second_variation(h, epsilons=(1e-3,))

    @pytest.mark.parametrize("epsilons", [(1e-3, 1e-3), (0.0, 1e-3), (-1e-3, 1e-3),
                                          (1e-3, math.nan, 2e-3), (1e-3, math.inf)])
    def test_steps_positive_finite_distinct(self, epsilons):
        spec = GridSpec(1, (32,))
        h = single_mode_potential(spec, 1.0, (1,))
        with pytest.raises(ValueError, match="positive, finite and distinct"):
            check_second_variation(h, epsilons=epsilons)


def _with_constant(c):
    return ResidualReport("r", (), c, math.nan, True)


_EDGE = 2.0 * 1.0 + 1e-8  # AGREE_FACTOR * 1.0 + AGREE_FLOOR


class TestConstantsStable:
    @pytest.mark.parametrize("ca,cb,stable", [
        (0.0, 0.0, True), (0.0, 1e-8, True), (0.0, 2e-8, False), (5e-9, 1e-8, True),
        (3.0, 3.0, True), (1.0, 2.0, True), (1.0, math.nextafter(_EDGE, 0.0), True),
        (1.0, _EDGE, True), (1.0, math.nextafter(_EDGE, math.inf), False), (1e-9, 1e-7, False),
        (math.inf, 1.0, False), (math.inf, math.inf, False), (math.nan, 1.0, False),
        (math.nan, math.nan, False), (0.0, math.nan, False),
    ])
    def test_is_the_within_bounds_verdict_of_the_agreement_rows(self, ca, cb, stable):
        a, b = _with_constant(ca), _with_constant(cb)
        rows = lmcf.verification._agreement_samples(0.0, a, 1.0, b)
        finite = math.isfinite(ca) and math.isfinite(cb)
        assert constants_stable(a, b) == (finite and lmcf.verification._within_bounds(rows))
        assert constants_stable(a, b) == constants_stable(b, a) == stable
