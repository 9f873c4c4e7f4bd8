"""Time integration, convergence detection, checkpoints, determinism."""

import ast
import dataclasses
import math
import os
import re
import struct
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lmcf.fields
import lmcf.flow
import lmcf.geometry
from lmcf.fields import (
    GridSpec,
    PeriodicScalarField,
    SpecMismatchError,
    _DftMatrixJetOps,
    _FftJetOps,
    jet_ops,
    sup_norm,
    sym_norm_sq,
)
from lmcf.flow import (
    HESSIAN_BLOWUP_GUARD,
    BlowupError,
    CheckpointError,
    EnsembleError,
    FlowConfig,
    FlowState,
    Run,
    RunResults,
    _blowup_guard,
    _rhs_values,
    _rk4_update,
    checkpoint_load,
    checkpoint_save,
    integrate,
    monitor_record,
    resume_flow,
    rhs,
    step_rk4,
)
from lmcf.geometry import _angle_values
from lmcf.initial_data import (
    build_initial,
    random_bandlimited_potential,
    single_mode_potential,
)
from lmcf.verification import fit_decay_rate

TWO_PI = 2.0 * np.pi
FOUR_PI_SQ = 4.0 * math.pi ** 2

BLAS_THREADS_RUN = """
import dataclasses, sys
from lmcf.fields import GridSpec
from lmcf.flow import FlowConfig, integrate
from lmcf.initial_data import random_bandlimited_potential
spec = GridSpec(1, (int(sys.argv[1]),))
cfg = FlowConfig(grid=spec, kappa=-0.2, t_max=0.02, conv_tol=1e-13, checkpoint_every=10)
res = integrate(random_bandlimited_potential(spec, 0.05, 3, seed=11), cfg)
print(repr([dataclasses.astuple(rec) for rec in res.records]))
"""

# a hook run has no time limit: a step it could never reach would hang it
HOOK_STEPS_RUN = """
import numpy as np
from lmcf.fields import GridSpec
from lmcf.flow import FlowConfig, integrate
from lmcf.initial_data import random_bandlimited_potential
spec = GridSpec(1, (16,))
cfg = FlowConfig(grid=spec, kappa=-0.5, t_max=1.0)
u0 = random_bandlimited_potential(spec, 0.05, 2, seed=7)
seen = []
res = integrate(u0, cfg, hook=([3, np.int64(3), 1], lambda index, state: seen.append(index)))
print(seen, res.steps)
for steps in ([2.5], [True]):
    try:
        integrate(u0, cfg, hook=(steps, lambda index, state: seen.append(index)))
    except ValueError as exc:
        print(exc)
"""

# an ensemble and its members' own runs; its output must not depend on the BLAS threads
ENSEMBLE_THREADS_RUN = """
import dataclasses, sys
from lmcf.fields import GridSpec
from lmcf.flow import FlowConfig, Run, integrate
from lmcf.initial_data import random_bandlimited_potential
def digest(result):
    return (result.outcome, result.steps, [tuple(vars(rec).values()) for rec in result.records],
            result.state.u.values.tobytes().hex())
for n in sys.argv[1:]:
    spec = GridSpec(1, (int(n),))
    base = FlowConfig(grid=spec, kappa=0.0, t_max=1.0, conv_tol=1e-13)
    runs = [Run(random_bandlimited_potential(spec, 0.05, 3, seed=seed), dataclasses.replace(
                base, kappa=kappa, t_max=steps * base.dt, checkpoint_every=every))
            for seed, kappa, steps, every in ((1, 0.0, 30.25, 7), (2, -0.5, 24.5, 5),
                                              (3, -1.0, 40.25, 6))]
    print(repr([digest(result) for result in integrate(tuple(runs))]))
    print(repr([digest(integrate(run.start, run.cfg)) for run in runs]))
"""

# grids, step counts, schemes and kappas that take integrate through each jet
# route, central4's symbol on both
LOOP_ROUTES = [
    pytest.param((32, 32), 6, "spectral", -0.5, _FftJetOps, id="sizes0-6"),
    pytest.param((16, 16, 16), 3, "spectral", -0.5, _FftJetOps, id="sizes1-3"),
    pytest.param((64,), 8, "spectral", -1.0, _DftMatrixJetOps, id="dft_1d_64"),
    pytest.param((128,), 8, "spectral", -0.5, _DftMatrixJetOps, id="dft_1d_128"),
    pytest.param((256,), 8, "spectral", 0.0, _FftJetOps, id="fft_1d_256"),
    pytest.param((32, 32), 6, "central4", 0.0, _FftJetOps, id="central4_2d"),
    pytest.param((64,), 8, "central4", -0.5, _DftMatrixJetOps, id="central4_1d_64"),
]

# every loop route and the smallest DFT matrix grid
STAGE_ROUTES = LOOP_ROUTES + [
    pytest.param((16,), 8, "spectral", -0.5, _DftMatrixJetOps, id="dft_1d_16"),
]


def rk4_scalar_factor(dt, lam):
    """Amplification factor of one RK4 step for u' = lam * u."""
    z = lam * dt
    return 1.0 + z + z * z / 2.0 + z ** 3 / 6.0 + z ** 4 / 24.0


class TestRhs:
    def test_constant_kappa_zero(self):
        spec = GridSpec(1, (32,))
        u = PeriodicScalarField.constant(spec, 0.7)
        assert sup_norm(rhs(u, 0.0)) == 0.0

    def test_constant_kappa_negative(self):
        spec = GridSpec(1, (32,))
        u = PeriodicScalarField.constant(spec, 0.7)
        assert np.allclose(rhs(u, -1.0).values, -0.7)

    def test_single_mode_formula(self):
        spec = GridSpec(1, (128,))
        eps, kappa = 1e-2, -0.3
        u = single_mode_potential(spec, eps, (1,))
        x = spec.coordinates()[0]
        expected = np.arctan(-(TWO_PI ** 2) * eps * np.cos(TWO_PI * x)) + kappa * u.values
        assert np.max(np.abs(rhs(u, kappa).values - expected)) <= 1e-10


class TestStepRk4:
    def test_matches_scalar_polynomial(self):
        spec = GridSpec(1, (16,))
        cfg = FlowConfig(grid=spec, kappa=-1.0, t_max=1.0)
        c = 0.01
        state = FlowState.initial(PeriodicScalarField.constant(spec, c), cfg)
        nxt = step_rk4(state, cfg)
        expected = c * rk4_scalar_factor(cfg.dt, -1.0)
        assert np.max(np.abs(nxt.u.values - expected)) <= 1e-15

    def test_constants_subspace_many_steps(self):
        spec = GridSpec(1, (16,))
        cfg = FlowConfig(grid=spec, kappa=-1.0, t_max=1.0, cfl=0.5)
        c = 0.01
        state = FlowState.initial(PeriodicScalarField.constant(spec, c), cfg)
        rho = rk4_scalar_factor(cfg.dt, -1.0)
        for k in range(1, 200):
            state = step_rk4(state, cfg)
            assert np.max(np.abs(state.u.values - c * rho ** k)) <= 1e-15

    def test_rejects_state_on_another_grid(self):
        # the 32-point config's dt is 4x the CFL step of a 64-point state
        fine, coarse = GridSpec(1, (64,)), GridSpec(1, (32,))
        cfg = FlowConfig(grid=coarse, kappa=0.0, t_max=1.0)
        state = FlowState(0.0, PeriodicScalarField.zeros(fine))
        with pytest.raises(SpecMismatchError, match=re.escape(
                f"state grid does not match config grid: {fine} vs {coarse}")):
            step_rk4(state, cfg)

    def test_rejects_state_under_another_scheme(self):
        # a spectral state under a central4 config would mix the schemes' stages
        spec = GridSpec(1, (32,))
        cfg = FlowConfig(grid=spec, kappa=0.0, t_max=1.0, scheme="central4")
        state = FlowState(0.0, PeriodicScalarField.zeros(spec), "spectral")
        with pytest.raises(ValueError, match="state scheme does not match config scheme: "
                                             "'spectral' vs 'central4'"):
            step_rk4(state, cfg)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_a_non_finite_state(self, bad):
        # refused at integrate's start, not reported as a blowup of the state
        spec = GridSpec(1, (16,))
        cfg = FlowConfig(grid=spec, kappa=0.0, t_max=1.0)
        values = np.zeros(spec.sizes)
        values[3] = bad
        with pytest.raises(ValueError, match="state is not finite"):
            step_rk4(FlowState(cfg.dt, PeriodicScalarField(spec, values)), cfg)

    @staticmethod
    def _chain_blowup(u0, cfg):
        """The BlowupError a step_rk4 chain from u0 raises before cfg.t_max."""
        state = FlowState.initial(u0, cfg)
        with pytest.raises(BlowupError) as caught:
            while state.t < cfg.t_max:
                state = step_rk4(state, cfg)
        return caught.value

    @staticmethod
    def _assert_same_blowup(raised, reported):
        assert isinstance(reported, BlowupError)
        assert (raised.t, raised.reason) == (reported.t, reported.reason)
        assert np.array_equal([raised.sup_u, raised.sup_d2u],
                              [reported.sup_u, reported.sup_d2u], equal_nan=True)

    @pytest.mark.parametrize("kappa,amplitude,mode,steps", [
        pytest.param(0.0, 0.05, 4, 0, id="at-t0"),  # sup|D2u| ~ 32 from the start
        # sup|D2u| 9.5 at first, and kappa u outgrows the bounded angle
        pytest.param(50.0, 0.24, 1, 12, id="after-12-steps"),
    ])
    def test_raises_the_blowup_integrate_reports(self, kappa, amplitude, mode, steps):
        spec = GridSpec(1, (32,))
        cfg = FlowConfig(grid=spec, kappa=kappa, t_max=0.05)
        u0 = single_mode_potential(spec, amplitude, (mode,))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # kappa > 0 and the certified region
            res = integrate(u0, cfg)
            raised = self._chain_blowup(u0, cfg)
        assert (res.outcome, res.steps) == ("blowup", steps)
        assert res.blowup.reason == "sup|D2u| exceeded 10.0" and res.blowup.sup_d2u > 10.0
        self._assert_same_blowup(raised, res.blowup)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_raises_the_non_finite_blowup_integrate_reports(self, monkeypatch, bad):
        # the poisoned step of TestIntegrate.test_blowup_guard_non_finite
        spec = GridSpec(1, (64,))
        update = lmcf.flow._rk4_update

        def poisoned(*args):
            out = update(*args)
            out[5] = bad
            return out

        monkeypatch.setattr(lmcf.flow, "_rk4_update", poisoned)
        cfg = FlowConfig(grid=spec, kappa=0.0, t_max=1.0)
        u0 = random_bandlimited_potential(spec, 0.01, 2, seed=4)
        res = integrate(u0, cfg)
        raised = self._chain_blowup(u0, cfg)
        assert raised.reason == "non-finite field" and raised.t == cfg.dt
        self._assert_same_blowup(raised, res.blowup)

    def test_zero_field_stays_zero(self):
        spec = GridSpec(1, (16,))
        cfg = FlowConfig(grid=spec, kappa=-1.0, t_max=1.0)
        state = FlowState.initial(PeriodicScalarField.zeros(spec), cfg)
        for _ in range(10):
            state = step_rk4(state, cfg)
        assert sup_norm(state.u) == 0.0

    def test_order_four(self):
        # halving dt shrinks the endpoint difference by ~16
        spec = GridSpec(1, (16,))
        u0 = single_mode_potential(spec, 0.01, (1,))
        T = 0.08
        finals = []
        # at N = 16, dt = cfl / 512: 8e-4, 4e-4 and 2e-4 bit for bit
        for cfl in (0.4096, 0.2048, 0.1024):
            cfg = FlowConfig(grid=spec, kappa=-0.5, t_max=1.0, cfl=cfl)
            state = FlowState.initial(u0, cfg)
            for _ in range(round(T / cfg.dt)):
                state = step_rk4(state, cfg)
            finals.append(state.u.values)
        e1 = np.max(np.abs(finals[0] - finals[1]))
        e2 = np.max(np.abs(finals[1] - finals[2]))
        assert abs(math.log2(e1 / e2) - 4.0) <= 0.3


class TestBoundStage:
    @pytest.mark.parametrize("kappa", [0.0, -0.5])
    @pytest.mark.parametrize("sizes,steps,scheme,route_kappa,route", STAGE_ROUTES)
    def test_bound_call_is_the_public_route(self, sizes, steps, scheme, route_kappa, route,
                                            kappa):
        # each RK4 stage is one bound writer call into the stage buffer, then
        # theta + kappa y, with the public route's bits, signed zeros included;
        # at kappa = 0 that is the angle alone, with no +0.0 * y
        spec = GridSpec(len(sizes), sizes)
        ops = jet_ops(spec, scheme)
        assert type(ops) is route
        dim = spec.dim
        write, stage_hess = ops.hessian_writer()

        def public_rhs(y):
            return _rhs_values(y, ops.components(y, 2), kappa, dim)

        parity = np.indices(spec.sizes).sum(axis=0) % 2
        constant = np.full(spec.sizes, 0.3)  # its FFT Hessians hold some -0.0
        # both schemes' symbols vanish exactly at k = 0, and the DFT pair's shift
        # makes its zeros exact too
        assert not ops.components(constant, 2).any()
        for y in (random_bandlimited_potential(spec, 0.05, 2, seed=6).values, constant,
                  np.where(parity == 0, 0.0, -0.0)):
            hess = ops.components(y, 2)
            assert np.array_equal(write(y), ops.forward(y))
            assert np.array_equal(stage_hess, hess)
            got = _rhs_values(y, stage_hess, kappa, dim)
            wants = [public_rhs(y)]
            if kappa == 0.0:
                wants.append(_angle_values(hess, dim))
            for want in wants:
                assert np.array_equal(got, want)
                assert np.array_equal(np.signbit(got), np.signbit(want))
            # a whole step through the bound writer is the RK4 expression's
            dt = 1e-4
            k1 = public_rhs(y)
            k2 = public_rhs(y + (0.5 * dt) * k1)
            k3 = public_rhs(y + (0.5 * dt) * k2)
            k4 = public_rhs(y + dt * k3)
            want = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            got = _rk4_update(y, public_rhs(y), dt, write, stage_hess, kappa, dim)
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))

    @pytest.mark.parametrize("peak", [0.0, 5e-324, 1e-300, 1e300, math.inf, math.nan])
    def test_blowup_guard_reads_the_bits_of_np_sqrt(self, peak):
        d2u_sq = np.array([0.0, peak, 0.0])
        sup_d2, blowup = _blowup_guard(0.5, np.ones(3), d2u_sq.max())
        want = float(np.sqrt(d2u_sq.max()))
        assert struct.pack("<d", sup_d2) == struct.pack("<d", want)
        if want <= HESSIAN_BLOWUP_GUARD:
            assert blowup is None
        else:
            assert blowup.reason == ("non-finite field" if not np.isfinite(want)
                                     else f"sup|D2u| exceeded {HESSIAN_BLOWUP_GUARD}")
            assert struct.pack("<d", blowup.sup_d2u) == struct.pack("<d", want)


class TestIntegrate:
    def test_ode_regime_tracks_exponential(self):
        spec = GridSpec(1, (16,))
        cfg = FlowConfig(grid=spec, kappa=-1.0, t_max=1.0, cfl=0.5,
                         conv_tol=1e-12, checkpoint_every=100)
        res = integrate(PeriodicScalarField.constant(spec, 0.01), cfg)
        assert res.outcome == "timed_out"
        for rec in res.records:
            assert abs(rec.max_u - 0.01 * math.exp(-rec.t)) <= 1e-10

    def test_converges_to_constant(self):
        spec = GridSpec(1, (32,))
        cfg = FlowConfig(grid=spec, kappa=0.0, t_max=2.0, conv_tol=1e-7,
                         checkpoint_every=200)
        u0 = single_mode_potential(spec, 1e-3, (1,))
        res = integrate(u0, cfg)
        assert res.outcome == "converged"
        final = res.state.u.values
        assert np.max(np.abs(final - final.mean())) <= 1e-6

    def test_2d_small_data_converges(self):
        spec = GridSpec(2, (16, 16))
        cfg = FlowConfig(grid=spec, kappa=0.0, t_max=1.0, conv_tol=1e-7,
                         checkpoint_every=100)
        u0 = random_bandlimited_potential(spec, 0.05, 2, seed=77)
        res = integrate(u0, cfg)
        assert res.outcome == "converged"
        psi = [rec.psi_max for rec in res.records]
        assert all(b <= a + 1e-8 for a, b in zip(psi, psi[1:]))

    def test_3d_small_data_converges(self):
        spec = GridSpec(3, (8, 8, 8))
        cfg = FlowConfig(grid=spec, kappa=0.0, t_max=1.0, conv_tol=1e-6,
                         checkpoint_every=100)
        u0 = random_bandlimited_potential(spec, 0.04, 1, seed=78)
        res = integrate(u0, cfg)
        assert res.outcome == "converged"
        psi = [rec.psi_max for rec in res.records]
        assert all(b <= a + 1e-8 for a, b in zip(psi, psi[1:]))

    def test_central4_scheme_matches_spectral(self):
        spec = GridSpec(1, (64,))
        u0 = single_mode_potential(spec, 1e-3, (1,))
        finals = {}
        for scheme in ("spectral", "central4"):
            cfg = FlowConfig(grid=spec, kappa=0.0, t_max=0.05, conv_tol=1e-13,
                             scheme=scheme, checkpoint_every=500)
            res = integrate(u0, cfg)
            finals[scheme] = res.state.u.values
            rate = np.log(res.records[-1].max_du / res.records[0].max_du) / (
                res.records[-1].t - res.records[0].t)
            assert abs(rate + 4 * np.pi ** 2) <= 0.01 * 4 * np.pi ** 2
        # mode-1 data at N=64: the central4 phase error is ~(2 pi h)^4 / 30
        assert np.max(np.abs(finals["spectral"] - finals["central4"])) <= 1e-6

    def test_mean_drift_bound(self):
        # kappa = 0: the limit constant stays within 10 * initial psi_max of mean(u0)
        spec = GridSpec(1, (64,))
        cfg = FlowConfig(grid=spec, kappa=0.0, t_max=1.0, conv_tol=1e-7,
                         checkpoint_every=500)
        u0 = random_bandlimited_potential(spec, 0.07, 3, seed=3)
        res = integrate(u0, cfg)
        assert res.outcome == "converged"
        from lmcf.fields import mean_value

        drift = np.max(np.abs(res.state.u.values - mean_value(u0)))
        assert drift <= 10.0 * res.records[0].psi_max

    def test_psi_monotone_records(self):
        spec = GridSpec(1, (64,))
        cfg = FlowConfig(grid=spec, kappa=0.0, t_max=0.1, conv_tol=1e-12,
                         checkpoint_every=50)
        u0 = random_bandlimited_potential(spec, 0.08, 3, seed=5)
        res = integrate(u0, cfg)
        psi = [rec.psi_max for rec in res.records]
        assert all(b <= a + 1e-8 for a, b in zip(psi, psi[1:]))

    def test_volume_never_increases_per_step(self):
        spec = GridSpec(1, (32,))
        cfg = FlowConfig(grid=spec, kappa=0.0, t_max=1.0, conv_tol=1e-12,
                         checkpoint_every=1)
        u0 = random_bandlimited_potential(spec, 0.08, 3, seed=6)
        res = integrate(u0, cfg)
        vols = [rec.volume for rec in res.records[:400]]
        assert all(b <= a + 1e-10 for a, b in zip(vols, vols[1:]))

    def test_blowup_guard(self):
        spec = GridSpec(1, (32,))
        cfg = FlowConfig(grid=spec, kappa=0.0, t_max=1.0)
        u0 = single_mode_potential(spec, 0.05, (8,))  # sup|D2u| ~ 126 > 10
        with pytest.warns(UserWarning, match="certified region"):
            res = integrate(u0, cfg)
        assert res.outcome == "blowup"
        assert res.blowup is not None and res.blowup.sup_d2u > 10.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_blowup_guard_non_finite(self, monkeypatch, bad):
        # the guard reads only sup|D2u|, so the bad value must reach it through
        # the Hessian, here the DFT matrix pair of a small 1-D grid (inf * 0 in
        # the matvec makes NaNs); integrate reports it without a numpy warning
        spec = GridSpec(1, (64,))
        assert type(jet_ops(spec, "spectral")) is _DftMatrixJetOps
        update = lmcf.flow._rk4_update

        def poisoned(*args):
            out = update(*args)
            out[5] = bad
            return out

        monkeypatch.setattr(lmcf.flow, "_rk4_update", poisoned)
        cfg = FlowConfig(grid=spec, kappa=0.0, t_max=1.0)
        res = integrate(random_bandlimited_potential(spec, 0.01, 2, seed=4), cfg)
        assert res.outcome == "blowup"
        assert res.blowup.reason == "non-finite field"
        assert res.steps == 1

    @pytest.mark.parametrize("sizes,steps,scheme,kappa,route", LOOP_ROUTES)
    def test_records_match_step_rk4_chain(self, sizes, steps, scheme, kappa, route,
                                          monkeypatch):
        # integrate builds its records from the loop's own arrays and reuses its
        # stage buffers; a step_rk4 chain allocates afresh and records through
        # a FlowState every step
        spec = GridSpec(len(sizes), sizes)
        base = FlowConfig(grid=spec, kappa=kappa, t_max=1.0, scheme=scheme)
        cfg = dataclasses.replace(base, t_max=(steps + 0.25) * base.dt, conv_tol=1e-14,
                                  checkpoint_every=1)
        u0 = random_bandlimited_potential(spec, 0.05, 2, seed=6)
        ops = jet_ops(spec, scheme)
        assert type(ops) is route
        forward = ops.forward
        calls = []
        monkeypatch.setattr(ops, "forward", lambda v: calls.append(v) or forward(v))
        res = integrate(u0, cfg)
        assert res.steps == steps
        # one transform per state and per RK4 stage, records included
        assert len(calls) == 1 + 4 * steps
        state = FlowState.initial(u0, cfg)
        chain = [monitor_record(state, cfg)]
        for _ in range(steps):
            state = step_rk4(state, cfg)
            chain.append(monitor_record(state, cfg))
        assert res.records == tuple(chain)
        assert np.array_equal(res.state.u.values, state.u.values)

    @pytest.mark.parametrize("sizes,steps,scheme,kappa,route", LOOP_ROUTES)
    def test_one_synthesis_per_state_and_stage(self, sizes, steps, scheme, kappa, route,
                                               monkeypatch):
        # a state on the record cadence gets D u, D^2 u and D^3 u from one jets
        # call, every other state and each RK4 stage one call of the bound
        # Hessian writer, counted here as a (2,) synthesis; a final record off
        # the cadence synthesizes D u and D^3 u through the state
        spec = GridSpec(len(sizes), sizes)
        base = FlowConfig(grid=spec, kappa=kappa, t_max=1.0, scheme=scheme)
        cfg = dataclasses.replace(base, t_max=(steps + 0.25) * base.dt, conv_tol=1e-14,
                                  checkpoint_every=3)
        u0 = random_bandlimited_potential(spec, 0.05, 2, seed=6)
        ops = jet_ops(spec, scheme)
        assert type(ops) is route
        forward, jets, hessian_writer = ops.forward, ops.jets, ops.hessian_writer
        forwards, ranks = [], []

        def spy_writer(*members):
            write, hess = hessian_writer(*members)
            return (lambda y: ranks.append((2,)) or write(y)), hess

        monkeypatch.setattr(ops, "forward", lambda v: forwards.append(v) or forward(v))
        monkeypatch.setattr(ops, "jets", lambda c, r: ranks.append(r) or jets(c, r))
        monkeypatch.setattr(ops, "hessian_writer", spy_writer)
        res = integrate(u0, cfg)
        assert res.steps == steps
        assert len(forwards) == 1 + 4 * steps
        want = []
        for step in range(steps + 1):
            want.append((1, 2, 3) if step % 3 == 0 else (2,))
            if step < steps:
                want += [(2,)] * 3
        off_cadence = steps % 3 != 0
        if off_cadence:
            want += [(1,), (3,)]
        assert ranks == want
        assert len(res.records) == want.count((1, 2, 3)) + off_cadence

    @pytest.mark.parametrize("sizes,steps,scheme,kappa,route", LOOP_ROUTES)
    def test_one_buffer_set_per_call(self, sizes, steps, scheme, kappa, route, monkeypatch):
        # the RK4 stages and the Hessian of every state off the record cadence
        # share the stacks of the call's one Hessian writer; the fresh output
        # of a jets call is not counted
        spec = GridSpec(len(sizes), sizes)
        base = FlowConfig(grid=spec, kappa=kappa, t_max=1.0, scheme=scheme)
        cfg = dataclasses.replace(base, t_max=(steps + 0.25) * base.dt, conv_tol=1e-14,
                                  checkpoint_every=3)
        u0 = random_bandlimited_potential(spec, 0.05, 2, seed=6)
        ops = jet_ops(spec, scheme)
        assert type(ops) is route
        writer, jets, hessian_writer = ops._writer, ops.jets, ops.hessian_writer
        inside, calls, sets, bound = [], [], [], []

        def spy_jets(coeffs, ranks):
            inside.append(ranks)
            try:
                return jets(coeffs, ranks)
            finally:
                inside.pop()

        def spy_writer(ranks, *members):
            out = writer(ranks, *members)
            if not inside:
                calls.append(ranks)
                sets.append(out[1])
            return out

        def spy_hessian_writer(*members):
            pair = hessian_writer(*members)
            bound.append(pair)
            return pair

        monkeypatch.setattr(ops, "jets", spy_jets)
        monkeypatch.setattr(ops, "_writer", spy_writer)
        monkeypatch.setattr(ops, "hessian_writer", spy_hessian_writer)
        assert integrate(u0, cfg).steps == steps
        assert calls == [(2,)]
        assert len(bound) == 1 and np.shares_memory(bound[0][1], sets[0][0])

    @pytest.mark.parametrize("sizes,steps,scheme,kappa,route", LOOP_ROUTES)
    def test_result_state_is_a_fresh_state(self, sizes, steps, scheme, kappa, route,
                                           monkeypatch):
        # the result's state is seeded with the loop's arrays: it equals a state
        # built afresh from its u, hands out read-only arrays and needs no
        # further forward transform
        spec = GridSpec(len(sizes), sizes)
        base = FlowConfig(grid=spec, kappa=kappa, t_max=1.0, scheme=scheme)
        cfg = dataclasses.replace(base, t_max=(steps + 0.25) * base.dt, conv_tol=1e-14,
                                  checkpoint_every=3)
        res = integrate(random_bandlimited_potential(spec, 0.05, 2, seed=6), cfg)
        state = res.state
        assert res.steps == steps and state.t == res.records[-1].t
        assert state.scheme == cfg.scheme
        ops = jet_ops(spec, scheme)
        assert type(ops) is route
        forward = ops.forward
        calls = []
        monkeypatch.setattr(ops, "forward", lambda v: calls.append(v) or forward(v))
        got = {"du": state.du.components, "d2u": state.d2u.components,
               "d3u": state.d3u.components, "psi": state.psi(cfg.C0, cfg.C1)}
        got.update((f"norm_sq({k})", state.norm_sq(k)) for k in range(4))
        assert calls == []
        fresh = FlowState(state.t, PeriodicScalarField(spec, state.u.values.copy()), scheme)
        want = {"du": fresh.du.components, "d2u": fresh.d2u.components,
                "d3u": fresh.d3u.components, "psi": fresh.psi(cfg.C0, cfg.C1)}
        want.update((f"norm_sq({k})", fresh.norm_sq(k)) for k in range(4))
        for name, arr in got.items():
            assert np.array_equal(arr, want[name]), name
            assert not arr.flags.writeable, name

    @pytest.mark.parametrize("sizes,steps,scheme,kappa,route", LOOP_ROUTES)
    def test_result_state_off_the_cadence_freezes_the_loop_hessian(self, sizes, steps, scheme,
                                                                   kappa, route):
        # off the record cadence each state's Hessian is written into one buffer
        # the loop owns; the result's state holds it read-only
        spec = GridSpec(len(sizes), sizes)
        base = FlowConfig(grid=spec, kappa=kappa, t_max=1.0, scheme=scheme)
        cfg = dataclasses.replace(base, t_max=(steps + 0.25) * base.dt, conv_tol=1e-14,
                                  checkpoint_every=0)
        res = integrate(random_bandlimited_potential(spec, 0.05, 2, seed=6), cfg)
        assert res.steps == steps and len(res.records) == 2
        hess = res.state._jet(2)
        assert not hess.flags.writeable
        fresh = FlowState(res.state.t, PeriodicScalarField(spec, res.state.u.values.copy()), scheme)
        assert np.array_equal(hess, fresh._jet(2))

    def test_sink_receives_every_record(self):
        spec = GridSpec(1, (32,))
        cfg = FlowConfig(grid=spec, kappa=0.0, t_max=0.02, conv_tol=1e-13,
                         checkpoint_every=10)
        u0 = random_bandlimited_potential(spec, 0.05, 2, seed=8)
        seen = []
        res = integrate(u0, cfg, sink=seen.append)
        assert tuple(seen) == res.records

    def test_records_go_through_monitor_record(self, monkeypatch):
        # integrate looks monitor_record up by module name for every record, so
        # wrapping lmcf.flow.monitor_record sees (and can alter) each of them
        import lmcf.flow

        spec = GridSpec(1, (32,))
        cfg = FlowConfig(grid=spec, kappa=-0.5, t_max=0.02, conv_tol=1e-13,
                         checkpoint_every=10)
        u0 = random_bandlimited_potential(spec, 0.05, 2, seed=8)
        plain = integrate(u0, cfg)
        record = lmcf.flow.monitor_record
        seen_t = []

        def shifted(state, cfg):
            # the wrapper gets a whole FlowState, the same as a fresh one
            seen_t.append(state.t)
            fresh = FlowState(state.t, PeriodicScalarField(spec, state.u.values.copy()),
                              cfg.scheme)
            assert np.array_equal(state.u.values, fresh.u.values)
            assert np.array_equal(state.d2u.components, fresh.d2u.components)
            assert state.scheme == fresh.scheme == cfg.scheme
            assert np.array_equal(state.norm_sq(0), fresh.norm_sq(0))
            return dataclasses.replace(record(state, cfg), psi_max=-1.0)

        monkeypatch.setattr(lmcf.flow, "monitor_record", shifted)
        res = integrate(u0, cfg)
        assert seen_t == [rec.t for rec in plain.records]
        assert res.records == tuple(dataclasses.replace(rec, psi_max=-1.0)
                                    for rec in plain.records)

    @pytest.mark.parametrize("wrapped", [False, True])
    @pytest.mark.parametrize("kappa", [0.0, -0.5])
    @pytest.mark.parametrize("sizes", [(64,), (256,), (32, 24), (16, 12, 8)])
    def test_records_never_perturb_the_trajectory(self, sizes, kappa, wrapped, monkeypatch):
        # a record state's angle is also its RK4 step's k1: a record at every
        # step must leave the trajectory where records at the ends only leave it,
        # also with monitor_record wrapped the way the benchmark's fault
        # injection wraps it
        record, angles = lmcf.flow.monitor_record, []

        def passthrough(state, cfg):
            angles.extend(state.angle_and_density())
            return record(state, cfg)

        if wrapped:
            monkeypatch.setattr(lmcf.flow, "monitor_record", passthrough)
        spec = GridSpec(len(sizes), sizes)
        base = FlowConfig(grid=spec, kappa=kappa, t_max=1.0, conv_tol=1e-14)
        cfg = dataclasses.replace(base, t_max=5.25 * base.dt)
        u0 = random_bandlimited_potential(spec, 0.05, 2, seed=9)
        every, ends = (integrate(u0, dataclasses.replace(cfg, checkpoint_every=n))
                       for n in (1, 0))
        assert (every.steps, len(every.records)) == (5, 6)
        assert (ends.steps, len(ends.records)) == (5, 2)
        assert np.array_equal(every.state.u.values, ends.state.u.values)
        assert every.records[-1] == ends.records[-1]
        assert len(angles) == (16 if wrapped else 0)
        assert not any(array.flags.writeable for array in angles)  # the seeded ones too

    def test_bitwise_determinism(self):
        spec = GridSpec(1, (32,))
        cfg = FlowConfig(grid=spec, kappa=-0.2, t_max=0.05, conv_tol=1e-12,
                         checkpoint_every=25)
        u0 = random_bandlimited_potential(spec, 0.05, 2, seed=7)
        res1 = integrate(u0, cfg)
        res2 = integrate(u0, cfg)
        assert len(res1.records) == len(res2.records)
        for a, b in zip(res1.records, res2.records):
            assert a == b  # dataclass equality on floats: bitwise
        assert np.array_equal(res1.state.u.values, res2.state.u.values)

    def test_records_identical_across_blas_threads(self):
        # small 1-D spectral jets are BLAS matvecs; thread settings must not
        # change a bit of the result, at N = 128 (the largest grid of the DFT
        # matrix route) as at N = 64
        for n in ("64", "128"):
            outs = []
            for threads in ("1", None):
                env = dict(os.environ)
                for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
                    env.pop(var, None)
                if threads is not None:
                    env["OPENBLAS_NUM_THREADS"] = threads
                proc = subprocess.run([sys.executable, "-c", BLAS_THREADS_RUN, n], env=env,
                                      capture_output=True, text=True, timeout=60, check=True)
                outs.append(ast.literal_eval(proc.stdout))
            assert len(outs[0]) > 2
            assert outs[0] == outs[1], n

    def test_kappa_positive_warns(self):
        spec = GridSpec(1, (16,))
        cfg = FlowConfig(grid=spec, kappa=0.5, t_max=5 * FlowConfig(
            grid=spec, kappa=0.0, t_max=1.0).dt)
        with pytest.warns(UserWarning, match="experimental"):
            integrate(PeriodicScalarField.constant(spec, 1e-6), cfg)

    def test_kappa_positive_constant_grows_and_leaves_region(self):
        # for kappa != 0 only u = 0 is stationary: a small constant is not converged
        spec = GridSpec(1, (16,))
        cfg = FlowConfig(grid=spec, kappa=0.5, t_max=0.6, cfl=0.5, checkpoint_every=1)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            res = integrate(PeriodicScalarField.constant(spec, 0.009), cfg)
        assert res.outcome == "timed_out"
        for rec in res.records:
            assert abs(rec.max_u - 0.009 * math.exp(0.5 * rec.t)) <= 1e-10
        eps1_sq = cfg.eps1 * cfg.eps1
        assert res.records[0].psi_max < eps1_sq <= res.records[-1].psi_max
        region = [w for w in caught if "certified region" in str(w.message)]
        assert len(region) == 1

    def test_region_warning(self):
        spec = GridSpec(1, (32,))
        cfg = FlowConfig(grid=spec, kappa=0.0, t_max=0.01, conv_tol=1e-12)
        u0 = single_mode_potential(spec, 0.05, (2,))  # psi >> eps1^2, D2u < 10
        with pytest.warns(UserWarning, match="certified region"):
            integrate(u0, cfg)

    def test_hook_visits_global_steps_and_makes_no_record(self, monkeypatch):
        # resumed at step 10, the run hands over steps 12 and 14 and stops there
        spec = GridSpec(1, (32,))
        cfg = FlowConfig(grid=spec, kappa=-0.5, t_max=1.0, checkpoint_every=2)
        chain = [FlowState.initial(random_bandlimited_potential(spec, 0.05, 3, seed=7), cfg)]
        for _ in range(14):
            chain.append(step_rk4(chain[-1], cfg))
        monkeypatch.setattr(lmcf.flow, "monitor_record", lambda *args: pytest.fail("a record"))
        kept = {}
        res = integrate(chain[10], cfg, hook=({14, 12}, kept.__setitem__))
        assert (res.outcome, res.steps, res.records) == ("timed_out", 4, ())
        assert sorted(kept) == [12, 14]
        for index, state in kept.items():
            assert state.t == chain[index].t
            assert np.array_equal(state.u.values, chain[index].u.values)
            assert np.array_equal(state.d2u.components, chain[index].d2u.components)
        for steps in ({9, 12}, set()):
            with pytest.raises(ValueError, match="must be given and not precede"):
                integrate(chain[10], cfg, hook=(steps, kept.__setitem__))

    def test_hook_visits_each_integer_step_once(self):
        # a repeated step is visited once and a float or bool step is refused;
        # either used to leave a mark the loop never reaches, so this runs in a
        # subprocess whose timeout turns a hang into a failure
        proc = subprocess.run([sys.executable, "-c", HOOK_STEPS_RUN], capture_output=True,
                              text=True, timeout=60, check=True)
        assert proc.stdout.splitlines() == [
            "[1, 3] 3",
            "hook step must be an integer, got 2.5",
            "hook step must be an integer, got True",
        ]


def ensemble_matrix(n):
    """(start, cfg, hook steps or None) of runs on one 1-D grid that differ in
    everything a member owns: kappa 0 / -0.5 / -1, record cadence and t_max,
    conv_tol (run 2 converges at step 12), a blowup mid-run (run 3), a start
    state at t = 13 dt (run 4) and a fixed-step hook run of signed zeros (run 5)."""
    spec = GridSpec(1, (n,))
    base = FlowConfig(grid=spec, kappa=0.0, t_max=1.0, conv_tol=1e-14)
    dt = base.dt

    def cfg(**changes):
        return dataclasses.replace(base, **changes)

    # sup|D^2 u| is this mode's largest jet norm: a tolerance between its values
    # at steps 11 and 12 stops the run at step 12
    conv_u0 = single_mode_potential(spec, 1e-6, (2,))
    probe = integrate(conv_u0, cfg(kappa=-1.0, t_max=12.25 * dt, checkpoint_every=1)).records
    conv_tol = 0.5 * (probe[11].max_d2u + probe[12].max_d2u)
    # sup|D^2 u| starts near the guard, and kappa u grows it by about 500 per unit time
    blowup_u0 = single_mode_potential(spec, (10.0 - 4000.0 * dt) / FOUR_PI_SQ, (1,))
    signed_zeros = PeriodicScalarField(spec, np.where(np.arange(n) % 2, -0.0, 0.0))
    return [
        (random_bandlimited_potential(spec, 0.05, 3, seed=1),
         cfg(t_max=40.25 * dt, checkpoint_every=7), None),
        (random_bandlimited_potential(spec, 0.05, 3, seed=2),
         cfg(kappa=-0.5, t_max=33.75 * dt, checkpoint_every=5), None),
        (conv_u0, cfg(kappa=-1.0, t_max=60.25 * dt, conv_tol=conv_tol, checkpoint_every=4), None),
        (blowup_u0, cfg(kappa=50.0, t_max=60.25 * dt, checkpoint_every=3), None),
        (FlowState(13 * dt, random_bandlimited_potential(spec, 0.05, 3, seed=3), "spectral"),
         cfg(kappa=-1.0, t_max=50.25 * dt, checkpoint_every=6), None),
        (signed_zeros, cfg(), {3, 17, 18, 31}),
    ]


def assert_same_state(got, want):
    assert got.t == want.t
    assert got.u.values.tobytes() == want.u.values.tobytes()  # signed zeros included
    assert got.d2u.components.tobytes() == want.d2u.components.tobytes()


class TestEnsemble:
    @pytest.mark.parametrize("n", [16, 64, 128, 256])
    def test_members_are_their_own_runs(self, n):
        # the DFT matrix pair at 16-128 points, the FFT route at 256
        matrix = ensemble_matrix(n)
        assert type(jet_ops(matrix[0][1].grid, "spectral")) is (
            _DftMatrixJetOps if n <= 128 else _FftJetOps)

        def runs(seen, kept):
            return [Run(start, cfg, sink=seen[i].append if steps is None else None,
                        hook=None if steps is None else (steps, kept[i].__setitem__))
                    for i, (start, cfg, steps) in enumerate(matrix)]

        outputs = []
        for together in (True, False):
            seen, kept = [[] for _ in matrix], [{} for _ in matrix]
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                if together:
                    results = integrate(tuple(runs(seen, kept)))
                else:
                    results = [integrate(run.start, run.cfg, run.sink, run.hook)
                               for run in runs(seen, kept)]
            outputs.append((results, seen, kept, sorted(str(w.message) for w in caught)))
        (ensemble, seen, kept, warned), (alone, seen_alone, kept_alone, warned_alone) = outputs
        assert type(ensemble) is RunResults
        assert ensemble.steps == sum(result.steps for result in alone)
        # one kappa > 0 warning and one region warning per run that earns them
        assert warned == warned_alone and len(warned) == 2
        assert [result.outcome for result in ensemble] == [
            "timed_out", "timed_out", "converged", "blowup", "timed_out", "timed_out"]
        assert ensemble[2].steps == 12 and 0 < ensemble[3].steps < ensemble[1].steps
        assert ensemble[3].blowup.reason == f"sup|D2u| exceeded {HESSIAN_BLOWUP_GUARD}"
        for got, want in zip(ensemble, alone):
            assert (got.outcome, got.steps, got.records) == (want.outcome, want.steps,
                                                             want.records)
            assert_same_state(got.state, want.state)
            assert np.array_equal(np.signbit(got.state.u.values), np.signbit(want.state.u.values))
            assert str(got.blowup) == str(want.blowup)
        for i, (_, _, steps) in enumerate(matrix):
            if steps is None:
                assert seen[i] == seen_alone[i] == list(ensemble[i].records)
            else:
                assert sorted(kept[i]) == sorted(kept_alone[i]) == sorted(steps)
                for index, state in kept[i].items():
                    assert_same_state(state, kept_alone[i][index])

    def test_records_identical_across_blas_threads(self):
        # the members' DFT matrix products are BLAS matvecs at N = 64 and 128
        outs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
            env.pop("OMP_NUM_THREADS", None)
            proc = subprocess.run([sys.executable, "-c", ENSEMBLE_THREADS_RUN, "64", "128"],
                                  env=env, capture_output=True, text=True, timeout=60, check=True)
            lines = [ast.literal_eval(line) for line in proc.stdout.splitlines()]
            for together, alone in zip(lines[::2], lines[1::2]):
                assert together == alone, threads
            outs.append(lines)
        assert len(outs[0]) == 4 and len(outs[0][0][0][2]) > 2
        assert outs[0] == outs[1]

    def test_kappa_zero_row_keeps_signed_zeros(self):
        # a kappa = 0 row of a mixed stack gains no +0.0 * u: -0.0 + 0.0 * 1.0 is +0.0
        hess = np.array([[[-0.0, -0.0, 0.5, -0.25], [-0.0, 0.3, 0.0, 1.0]]])
        u = np.array([[1.0, 2.0, 3.0, -1.0], [1.0, -2.0, 0.5, 4.0]])
        kappas = np.array([[0.0], [-1.0]])
        got = _rhs_values(u, hess, kappas, 1, where=kappas != 0.0)
        for i, kappa in enumerate(kappas[:, 0]):
            want = _rhs_values(u[i], hess[:, i], kappa, 1)
            assert got[i].tobytes() == want.tobytes()
        assert np.signbit(got[0, :2]).all()

    @pytest.mark.parametrize("change,name", [
        (dict(grid=GridSpec(1, (32,))), "grid"),
        (dict(scheme="central4"), "scheme"),
        (dict(cfl=0.1), "dt"),
    ])
    def test_members_share_grid_scheme_and_dt(self, change, name):
        cfg = FlowConfig(grid=GridSpec(1, (16,)), kappa=0.0, t_max=0.01)
        other = dataclasses.replace(cfg, **change)
        runs = tuple(Run(random_bandlimited_potential(c.grid, 0.05, 2, seed=1), c)
                     for c in (cfg, cfg, other))
        with pytest.raises(EnsembleError, match=rf"^run 2: {name} .* differs from the first "
                                                r"run's .*: an ensemble's runs share grid"):
            integrate(runs)

    @pytest.mark.parametrize("sizes", [(16, 16), (8, 8, 8)])
    def test_several_members_need_a_1d_grid(self, sizes):
        cfg = FlowConfig(grid=GridSpec(len(sizes), sizes), kappa=0.0, t_max=0.01)
        u0 = random_bandlimited_potential(cfg.grid, 0.05, 2, seed=1)
        with pytest.raises(EnsembleError, match=rf"^run 0: .* 1-D grids only, got a "
                                                rf"{len(sizes)}-D grid"):
            integrate((Run(u0, cfg), Run(u0, cfg)))
        (alone,) = integrate((Run(u0, cfg),))  # one run is no stack
        assert alone.records == integrate(u0, cfg).records

    def test_admission_names_the_run(self):
        cfg = FlowConfig(grid=GridSpec(1, (16,)), kappa=0.0, t_max=0.01)
        u0 = random_bandlimited_potential(cfg.grid, 0.05, 2, seed=1)
        bad = PeriodicScalarField(cfg.grid, np.full(16, np.nan))
        with pytest.raises(ValueError, match="^run 1: u0 is not finite$"):
            integrate((Run(u0, cfg), Run(bad, cfg)))
        with pytest.raises(SpecMismatchError, match="^run 1: u0 grid does not match"):
            integrate((Run(u0, cfg), Run(PeriodicScalarField.zeros(GridSpec(1, (32,))), cfg)))
        with pytest.raises(TypeError, match="^run 0: expected a Run, got tuple$"):
            integrate(((u0, cfg), Run(u0, cfg)))
        with pytest.raises(ValueError, match="non-empty tuple of Runs"):
            integrate(())
        # one run is the call integrate(start, cfg) and raises its plain errors
        with pytest.raises(ValueError, match="^u0 is not finite$"):
            integrate((Run(bad, cfg),))
        with pytest.raises(TypeError, match="^expected a Run, got tuple$"):
            integrate(((u0, cfg),))

    @pytest.mark.parametrize("extra", [dict(sink=print), dict(hook=({1}, print))])
    def test_runs_carry_their_own_sink_and_hook(self, extra):
        cfg = FlowConfig(grid=GridSpec(1, (16,)), kappa=0.0, t_max=0.01)
        u0 = random_bandlimited_potential(cfg.grid, 0.05, 2, seed=1)
        with pytest.raises(TypeError, match="takes each run's sink and hook from its Run"):
            integrate((Run(u0, cfg),), **extra)


def curve_shortening_potential(spec, a):
    """Mean-zero spectral antiderivative, on a 1-D grid, of v = asinh(a sin 2 pi x) / 2 pi,
    from a 65536-point rfft truncated to the grid's modes below its Nyquist mode."""
    n, fine = spec.sizes[0], 65536
    x = np.arange(fine) / fine
    v_hat = np.fft.rfft(np.arcsinh(a * np.sin(TWO_PI * x)) / TWO_PI)[:n // 2] / fine
    u_hat = np.zeros(n // 2 + 1, dtype=complex)
    u_hat[1:n // 2] = v_hat[1:] / (1j * TWO_PI * np.arange(1, n // 2))
    return PeriodicScalarField(spec, np.fft.irfft(u_hat, n) * n)


def curve_shortening_d2u(x, a):
    """u_xx of the exact 1-D solution whose sup|u_xx| is a, at the points x."""
    return a * np.cos(TWO_PI * x) / np.sqrt(1.0 + (a * np.sin(TWO_PI * x)) ** 2)


class TestExactCurveShortening:
    """In 1-D, v = u_x solves curve shortening v_t = v_xx / (1 + v_x^2), and
    sinh(2 pi v) = a sin 2 pi x with a = A e^{-4 pi^2 t} is an exact solution for
    every A: u_xx = a cos 2 pi x / sqrt(1 + a^2 sin^2 2 pi x), so sup|D^2 u| = a,
    and u is the antiderivative of v with u0's mean.

    It gives exact solutions in n = 2, 3 as well: a sum of 1-D solutions, one
    per axis, has theta = sum_i arctan(u_i''), and u = g(m.x) / |m|^2, with g
    the 1-D solution at time |m|^2 t, has D^2 u = g'' m m^T / |m|^2."""

    # A = 5 is under-resolved at 64 points, so its error falls with N; every
    # case is under the blowup guard
    @pytest.mark.parametrize("amplitude,n,tol,rate_tol", [
        (1.0, 64, 1e-12, 1e-9), (1.0, 128, 1e-12, 1e-9),
        (5.0, 64, 1e-6, 1e-3), (5.0, 128, 1e-11, 1e-6),
    ])
    def test_run_is_the_exact_solution(self, amplitude, n, tol, rate_tol):
        spec = GridSpec(1, (n,))
        cfg = FlowConfig(grid=spec, kappa=0.0, t_max=0.02, checkpoint_every=100)
        with pytest.warns(UserWarning, match="certified region"):  # psi_max >= 1 at t = 0
            res = integrate(curve_shortening_potential(spec, amplitude), cfg)
        assert res.outcome == "timed_out"
        a = amplitude * math.exp(-FOUR_PI_SQ * res.state.t)
        exact_d2u = curve_shortening_d2u(spec.coordinates()[0], a)
        assert np.max(np.abs(res.state.d2u.components[0] - exact_d2u)) <= tol
        exact_u = curve_shortening_potential(spec, a).values
        assert np.max(np.abs(res.state.u.values - exact_u)) <= tol
        sup_d2u = [rec.max_d2u for rec in res.records]
        assert all(later < earlier for earlier, later in zip(sup_d2u, sup_d2u[1:]))
        rate = -fit_decay_rate(res.records, "max_d2u", (0.0, res.state.t))
        assert abs(rate / FOUR_PI_SQ - 1.0) <= rate_tol

    @pytest.mark.parametrize("amplitude,tol", [(1.0, 1e-12), (2.0, 5e-12)])
    def test_rotated_2d_run_is_the_exact_solution(self, amplitude, tol):
        # m = (1, 1): every entry of D^2 u is g''(x + y, 2t) / 2, so this is the one
        # exact case whose Hessian is not diagonal
        n = 64
        line = GridSpec(1, (n,))
        s_index = np.add.outer(np.arange(n), np.arange(n)) % n  # x + y on the grid
        spec = GridSpec(2, (n, n))
        u0 = curve_shortening_potential(line, amplitude).values[s_index] / 2.0
        cfg = FlowConfig(grid=spec, kappa=0.0, t_max=0.005, checkpoint_every=100)
        with pytest.warns(UserWarning, match="certified region"):  # psi_max >= 1 at t = 0
            res = integrate(PeriodicScalarField(spec, u0), cfg)
        assert res.outcome == "timed_out"
        a = amplitude * math.exp(-FOUR_PI_SQ * 2.0 * res.state.t)
        exact_entry = curve_shortening_d2u(s_index / n, a) / 2.0
        assert np.max(np.abs(res.state.d2u.components - exact_entry)) <= tol
        exact_u = curve_shortening_potential(line, a).values[s_index] / 2.0
        assert np.max(np.abs(res.state.u.values - exact_u)) <= 1e-12

    def test_2d_sum_on_unequal_axes_is_the_exact_solution(self):
        # u = g_2(x) + g_1(y): A = 2 on the 64-point axis, A = 1 on the 48-point
        # one, the one exact case on a non-square grid; measured errors 1.1e-12
        # and 2.0e-13 on the diagonal, 1.3e-13 off it, 2.0e-15 in u
        spec = GridSpec(2, (64, 48))
        lines = [GridSpec(1, (n,)) for n in spec.sizes]
        amplitudes = (2.0, 1.0)

        def axis_sum(scale):
            g = [curve_shortening_potential(line, scale * amp).values
                 for line, amp in zip(lines, amplitudes)]
            return g[0][:, None] + g[1][None, :]

        cfg = FlowConfig(grid=spec, kappa=0.0, t_max=0.01, checkpoint_every=100)
        with pytest.warns(UserWarning, match="certified region"):  # psi_max >= 1 at t = 0
            res = integrate(PeriodicScalarField(spec, axis_sum(1.0)), cfg)
        assert res.outcome == "timed_out"
        decay = math.exp(-FOUR_PI_SQ * res.state.t)
        d2u = res.state.d2u.components
        for comp, axis, tol in ((0, 0, 1e-11), (2, 1, 2e-12)):
            exact_diag = curve_shortening_d2u(spec.coordinates()[axis], amplitudes[axis] * decay)
            assert np.max(np.abs(d2u[comp] - exact_diag)) <= tol
        assert np.max(np.abs(d2u[1])) <= 1e-12
        assert np.max(np.abs(res.state.u.values - axis_sum(decay))) <= 1e-13

    def test_3d_sum_past_pi_is_the_exact_solution(self):
        # A = 3 on every axis puts theta_max(0) = 3.75 past pi, onto the 2 pi lift;
        # 32 points under-resolve A = 3 (diagonal error 6.8e-4), while a wrong lift
        # makes the diagonal error about 10 and the off-diagonal entries about 5
        n, amplitude = 32, 3.0
        line = GridSpec(1, (n,))
        spec = GridSpec(3, (n,) * 3)

        def axis_sum(g):
            return g[:, None, None] + g[None, :, None] + g[None, None, :]

        u0 = PeriodicScalarField(spec, axis_sum(curve_shortening_potential(line, amplitude).values))
        assert FlowState(0.0, u0).angle_and_density()[0].max() > np.pi
        cfg = FlowConfig(grid=spec, kappa=0.0, t_max=0.002, checkpoint_every=100)
        with pytest.warns(UserWarning, match="certified region"):
            res = integrate(u0, cfg)
        assert res.outcome == "timed_out"
        a = amplitude * math.exp(-FOUR_PI_SQ * res.state.t)
        d2u = res.state.d2u.components
        for comp, axis in ((0, 0), (3, 1), (5, 2)):
            exact_diag = curve_shortening_d2u(spec.coordinates()[axis], a)
            assert np.max(np.abs(d2u[comp] - exact_diag)) <= 1e-3
        assert np.max(np.abs(d2u[[1, 2, 4]])) <= 1e-12


class TestFlowConfig:
    def test_dt_formula(self):
        spec = GridSpec(2, (32, 64), (1.0, 1.0))
        cfg = FlowConfig(grid=spec, kappa=0.0, t_max=1.0, cfl=0.2)
        h_min = 1.0 / 64
        assert cfg.dt == 0.2 * h_min * h_min / 4.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(cfl=0.6),
            dict(cfl=0.0),
            dict(t_max=-1.0),
            dict(conv_tol=0.0),
            dict(C0=0.5),
            dict(eps1=1.5),
            dict(checkpoint_every=-1),
            dict(scheme="upwind"),
            dict(kappa=math.nan),
            dict(kappa=-math.inf),
            dict(t_max=math.inf),
            dict(conv_tol=math.inf),
            dict(C0=math.nan),
            dict(C0=math.inf),
            dict(C1=math.nan),
        ],
    )
    def test_validation(self, kwargs):
        base = dict(grid=GridSpec(1, (16,)), kappa=0.0, t_max=1.0)
        base.update(kwargs)
        with pytest.raises(ValueError):
            FlowConfig(**base)

    @pytest.mark.parametrize("every", [2.5, 2.0, True, "2", None])
    def test_checkpoint_every_must_be_an_integer(self, every):
        # a float or a bool would set the record cadence without a word
        with pytest.raises(ValueError, match=re.escape(
                f"checkpoint_every must be an integer, got {every!r}")):
            FlowConfig(grid=GridSpec(1, (16,)), kappa=0.0, t_max=1.0, checkpoint_every=every)

    @pytest.mark.parametrize("change", [
        dict(grid=GridSpec(1, (16,), (1e-320,))),  # h^2 underflows: dt = 0
        dict(cfl=1e-320),  # dt = 2e-323: t += dt stops advancing below ulp(t) / 2
        dict(t_max=2.0 ** 52 * FlowConfig(grid=GridSpec(1, (16,)), kappa=0.0, t_max=1.0).dt),
    ])
    def test_dt_must_reach_t_max(self, change):
        base = dict(grid=GridSpec(1, (16,)), kappa=0.0, t_max=1.0)
        base.update(change)
        with pytest.raises(ValueError, match=r"^dt = cfl \* min\(h\)\^2 / \(2n\) = .* from "
                                             r"cfl .*, periods .* and sizes \(16,\) cannot "
                                             r"reach t_max"):
            FlowConfig(**base)

    def test_dt_that_reaches_t_max_is_admitted(self):
        cfg = FlowConfig(grid=GridSpec(1, (16,)), kappa=0.0, t_max=1.0)
        assert dataclasses.replace(cfg, t_max=2.0 ** 51 * cfg.dt).dt == cfg.dt

    def test_checkpoint_every_takes_numpy_integers(self):
        cfg = FlowConfig(grid=GridSpec(1, (16,)), kappa=0.0, t_max=1.0,
                         checkpoint_every=np.int64(3))
        assert cfg.checkpoint_every == 3 and type(cfg.checkpoint_every) is int


class TestCheckpoint:
    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 1000))
    def test_roundtrip_bit_exact(self, seed, tmp_path_factory):
        spec = GridSpec(2, (16, 16), (1.0, 2.0))
        cfg = FlowConfig(grid=spec, kappa=-0.7, t_max=1.0)
        u = random_bandlimited_potential(spec, 0.05, 2, seed=seed)
        state = FlowState(0.123456789, u, scheme=cfg.scheme)
        path = tmp_path_factory.mktemp("ckpt") / "s.lmcf"
        checkpoint_save(state, cfg, path)
        loaded, cfg2 = checkpoint_load(path)
        assert np.array_equal(loaded.u.values, state.u.values)
        assert loaded.t == state.t
        assert cfg2.kappa == cfg.kappa
        assert cfg2.grid == spec

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_state_saves_but_does_not_resume(self, tmp_path, bad):
        # a non-finite blowup's final state is still written; resuming it is refused
        spec = GridSpec(1, (16,))
        cfg = FlowConfig(grid=spec, kappa=-0.5, t_max=1.0)
        values = np.zeros(spec.sizes)
        values[3] = bad
        path = tmp_path / "s.lmcf"
        checkpoint_save(FlowState(0.25, PeriodicScalarField(spec, values)), cfg, path)
        loaded, loaded_cfg = checkpoint_load(path)
        assert np.array_equal(loaded.u.values, values, equal_nan=True)
        with pytest.raises(ValueError, match="state is not finite"):
            resume_flow(loaded, loaded_cfg)

    def test_roundtrip_keeps_stepper_config(self, tmp_path):
        spec = GridSpec(1, (16,))
        cfg = FlowConfig(grid=spec, kappa=-0.25, t_max=3.0, cfl=0.5, scheme="central4",
                         conv_tol=1e-11, C0=50.0, C1=2.0, eps1=0.3, checkpoint_every=7)
        state = FlowState(0.5, single_mode_potential(spec, 1e-3, (1,)), scheme=cfg.scheme)
        path = tmp_path / "s.lmcf"
        checkpoint_save(state, cfg, path)
        loaded, cfg2 = checkpoint_load(path)
        assert cfg2 == dataclasses.replace(cfg, t_max=1.5, checkpoint_every=0)
        assert loaded.scheme == "central4"
        _, cfg3 = checkpoint_load(path, t_max=2.0)
        assert cfg3.t_max == 2.0

    def test_version_1_loads_with_defaults(self, tmp_path):
        spec = GridSpec(2, (8, 8), (1.0, 2.0))
        u = random_bandlimited_potential(spec, 0.05, 2, seed=3)
        path = tmp_path / "v1.lmcf"
        path.write_bytes(b"LMCF" + struct.pack("<II2I2d2d", 1, 2, 8, 8, 1.0, 2.0, 0.25, -0.5)
                         + u.values.astype("<f8").tobytes())
        state, cfg = checkpoint_load(path)
        assert np.array_equal(state.u.values, u.values)
        assert state.t == 0.25
        assert cfg == FlowConfig(grid=spec, kappa=-0.5, t_max=1.25)

    def test_interrupted_save_keeps_previous_file(self, tmp_path, monkeypatch):
        spec = GridSpec(1, (16,))
        cfg = FlowConfig(grid=spec, kappa=0.0, t_max=1.0)
        path = tmp_path / "c.lmcf"
        checkpoint_save(FlowState.initial(PeriodicScalarField.constant(spec, 1.0), cfg),
                        cfg, path)
        before = path.read_bytes()

        def fail(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", fail)
        with pytest.raises(OSError, match="disk full"):
            checkpoint_save(FlowState(0.5, PeriodicScalarField.constant(spec, 2.0)), cfg, path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["c.lmcf"]

    def test_truncated_file(self, tmp_path):
        spec = GridSpec(1, (16,))
        cfg = FlowConfig(grid=spec, kappa=0.0, t_max=1.0)
        state = FlowState.initial(PeriodicScalarField.constant(spec, 1.0), cfg)
        path = tmp_path / "t.lmcf"
        checkpoint_save(state, cfg, path)
        data = path.read_bytes()
        path.write_bytes(data[:-8])
        with pytest.raises(CheckpointError, match="truncated"):
            checkpoint_load(path)

    def test_header_point_count_does_not_wrap(self, tmp_path):
        # 2^93 points wrap to 0 in int64; the header is checked against the
        # bytes the file has before any value is read
        sizes = (2 ** 31,) * 3
        assert GridSpec(3, sizes).npoints == 2 ** 93
        path = tmp_path / "huge.lmcf"
        path.write_bytes(b"LMCF" + struct.pack("<II3I3d2d5dI", 2, 3, *sizes, 1.0, 1.0, 1.0,
                                               0.0, 0.0, 0.2, 1e-8, 100.0, 10.0, 0.1, 0)
                         + np.zeros(2).tobytes())
        with pytest.raises(CheckpointError, match="truncated checkpoint while reading grid values"):
            checkpoint_load(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.lmcf"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(CheckpointError, match="magic"):
            checkpoint_load(path)

    def test_trailing_bytes(self, tmp_path):
        spec = GridSpec(1, (16,))
        cfg = FlowConfig(grid=spec, kappa=0.0, t_max=1.0)
        state = FlowState.initial(PeriodicScalarField.constant(spec, 1.0), cfg)
        path = tmp_path / "t.lmcf"
        checkpoint_save(state, cfg, path)
        path.write_bytes(path.read_bytes() + b"x")
        with pytest.raises(CheckpointError, match="trailing"):
            checkpoint_load(path)

    @pytest.mark.parametrize("other,message", [
        pytest.param(dict(scheme="central4"),
                     "state scheme does not match config scheme: 'central4' vs 'spectral'",
                     id="scheme"),
        pytest.param(dict(grid=GridSpec(1, (64,))),
                     "state grid does not match config grid: GridSpec(dim=1, sizes=(64,)",
                     id="grid"),
    ])
    def test_save_and_resume_reject_a_state_of_another_run(self, tmp_path, other, message):
        # the state's scheme or grid is not the config's: the file would pair
        # them, and a resume would step it with another discretization's dt
        cfg = FlowConfig(grid=GridSpec(1, (32,)), kappa=0.0, t_max=1.0)
        state_cfg = dataclasses.replace(cfg, **other)
        state = FlowState.initial(
            random_bandlimited_potential(state_cfg.grid, 0.05, 2, seed=9), state_cfg)
        path = tmp_path / "c.lmcf"
        with pytest.raises(ValueError, match=re.escape(message)):
            checkpoint_save(state, cfg, path)
        assert not os.path.exists(path) and not os.path.exists(f"{path}.tmp")
        with pytest.raises(ValueError, match=re.escape(message)):
            resume_flow(state, cfg)

    @pytest.mark.parametrize("t", [math.nan, math.inf, -0.5])
    @pytest.mark.parametrize("call", [integrate, step_rk4, checkpoint_save])
    def test_start_time_must_be_finite_and_non_negative(self, tmp_path, call, t):
        # the clock counts steps from t = 0: such a t has no step index
        spec = GridSpec(1, (16,))
        cfg = FlowConfig(grid=spec, kappa=0.0, t_max=1.0)
        state = FlowState(t, random_bandlimited_potential(spec, 0.05, 2, seed=9))
        args = (tmp_path / "c.lmcf",) if call is checkpoint_save else ()
        with pytest.raises(ValueError, match=re.escape(
                f"state t must be finite and >= 0, got {t}")):
            call(state, cfg, *args)
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("t", [math.nan, math.inf, -0.5])
    def test_load_rejects_a_time_off_the_clock(self, tmp_path, t):
        spec = GridSpec(1, (16,))
        cfg = FlowConfig(grid=spec, kappa=0.0, t_max=1.0)
        path = tmp_path / "c.lmcf"
        checkpoint_save(FlowState(0.5, PeriodicScalarField.constant(spec, 1.0)), cfg, path)
        data = bytearray(path.read_bytes())
        data[24:32] = struct.pack("<d", t)  # after magic, version, n, N_0 and P_0
        path.write_bytes(bytes(data))
        with pytest.raises(CheckpointError, match=re.escape(
                f"invalid time in checkpoint: t = {t}")):
            checkpoint_load(path)

    def test_resume_is_bitwise_identical(self, tmp_path):
        spec = GridSpec(1, (32,))
        u0 = random_bandlimited_potential(spec, 0.05, 2, seed=9)
        cadence = 20
        full_cfg = FlowConfig(grid=spec, kappa=-0.3, t_max=0.06, conv_tol=1e-13,
                              checkpoint_every=cadence)
        full = integrate(u0, full_cfg)

        # walk exactly 2 * cadence steps (the shared update path), checkpoint,
        # reload, continue: records and final state must match bit for bit
        state = FlowState.initial(u0, full_cfg)
        for _ in range(2 * cadence):
            state = step_rk4(state, full_cfg)
        path = tmp_path / "mid.lmcf"
        checkpoint_save(state, full_cfg, path)
        loaded, _ = checkpoint_load(path)
        rest = resume_flow(loaded, full_cfg)

        tail_full = [rec for rec in full.records if rec.t >= loaded.t]
        assert len(rest.records) == len(tail_full)
        for a, b in zip(rest.records, tail_full):
            assert a == b
        assert np.array_equal(rest.state.u.values, full.state.u.values)


class TestInitialData:
    def test_random_bandlimited_controls_psi(self):
        # amplitude fixes the initial max of psi, the certified quantity
        spec = GridSpec(1, (64,))
        cfg = FlowConfig(grid=spec, kappa=0.0, t_max=1.0)
        for amp in (0.03, 0.09):
            u0 = random_bandlimited_potential(spec, amp, 3, seed=2,
                                              C0=cfg.C0, C1=cfg.C1)
            from lmcf.verification import psi_field

            psi_max = np.max(psi_field(u0, cfg).values)
            assert abs(psi_max - amp * amp) <= 1e-12 * amp * amp

    def test_random_bandlimited_is_seeded(self):
        spec = GridSpec(1, (32,))
        a = random_bandlimited_potential(spec, 0.05, 3, seed=4)
        b = random_bandlimited_potential(spec, 0.05, 3, seed=4)
        c = random_bandlimited_potential(spec, 0.05, 3, seed=5)
        assert np.array_equal(a.values, b.values)
        assert not np.array_equal(a.values, c.values)

    def test_single_mode_vector(self):
        spec = GridSpec(2, (16, 16))
        u = single_mode_potential(spec, 2.0, (1, 2))
        x, y = spec.coordinates()
        assert np.allclose(u.values, 2.0 * np.cos(TWO_PI * (x + 2 * y)))

    def test_zero_mode_rejected(self):
        spec = GridSpec(1, (16,))
        with pytest.raises(ValueError):
            single_mode_potential(spec, 1.0, (0,))

    @pytest.mark.parametrize("sizes,mode,axis", [((16,), (9,), 0), ((16,), (-9,), 0),
                                                 ((16, 8), (1, 5), 1), ((8, 8, 8), (0, 0, 5), 2)])
    def test_single_mode_above_nyquist_rejected(self, sizes, mode, axis):
        # on N points mode k and mode k - N sample to the same grid values
        spec = GridSpec(len(sizes), sizes)
        with pytest.raises(ValueError, match=f"axis {axis}.*N_{axis}/2 = {sizes[axis] // 2}"):
            single_mode_potential(spec, 1e-3, mode)

    def test_nyquist_mode_accepted(self):
        spec = GridSpec(1, (16,))
        u = single_mode_potential(spec, 1.0, (8,))
        assert np.array_equal(u.values, np.cos(np.pi * np.arange(16)))
        random_bandlimited_potential(GridSpec(2, (8, 8)), 0.05, 4, seed=1)

    @pytest.mark.parametrize("sizes,max_mode,axis", [((16,), 9, 0), ((32, 8), 5, 1)])
    def test_random_bandlimited_above_nyquist_rejected(self, sizes, max_mode, axis):
        spec = GridSpec(len(sizes), sizes)
        with pytest.raises(ValueError, match=f"mode {max_mode} on axis {axis}"):
            random_bandlimited_potential(spec, 0.05, max_mode, seed=1)

    def test_random_bandlimited_negative_seed_named(self):
        with pytest.raises(ValueError, match="seed must be >= 0, got -3"):
            random_bandlimited_potential(GridSpec(1, (32,)), 0.05, 3, seed=-3)

    @pytest.mark.parametrize("mode", [(1.5,), (True,), (1, 2.0), ("1",)])
    def test_single_mode_must_be_integers(self, mode):
        # a float, bool or string mode would run as some other integer mode
        with pytest.raises(ValueError, match="mode must be an integer"):
            single_mode_potential(GridSpec(2, (16, 16)), 1e-3, mode)

    @pytest.mark.parametrize("field,kwargs", [
        ("max_mode", {"modes": (2.7,)}), ("max_mode", {"modes": (True,)}),
        ("max_mode", {"modes": 2.0}), ("seed", {"seed": 4.0}), ("seed", {"seed": True}),
    ])
    def test_random_bandlimited_integers_named(self, field, kwargs):
        # each field is read as an integer or rejected by name, never truncated
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            build_initial(GridSpec(1, (32,)), "random_bandlimited", 0.05, **kwargs)

    def test_integer_inputs_take_numpy_integers(self):
        spec = GridSpec(1, (32,))
        got = build_initial(spec, "random_bandlimited", 0.05, modes=(np.int64(3),),
                            seed=np.int32(4))
        assert np.array_equal(got.values, random_bandlimited_potential(spec, 0.05, 3, 4).values)
        assert np.array_equal(single_mode_potential(spec, 1.0, (np.int64(2),)).values,
                              single_mode_potential(spec, 1.0, (2,)).values)


class TestMonitorRecordContents:
    def test_initial_record_fields(self):
        spec = GridSpec(1, (32,))
        cfg = FlowConfig(grid=spec, kappa=0.0, t_max=1.0)
        u0 = single_mode_potential(spec, 1e-3, (1,))
        rec = monitor_record(FlowState.initial(u0, cfg), cfg)
        assert rec.t == 0.0
        assert abs(rec.max_u - 1e-3) <= 1e-12
        assert abs(rec.max_du - TWO_PI * 1e-3) <= 1e-9
        assert abs(rec.max_d2u - TWO_PI ** 2 * 1e-3) <= 1e-8
        assert rec.volume >= 1.0 - 1e-10
        assert rec.theta_min <= rec.theta_max
        assert abs(rec.theta_max) < np.pi / 2

    @pytest.mark.parametrize("dim,n", [(1, 64), (2, 32), (3, 16)])
    def test_psi_and_volume_agree_across_modules(self, dim, n):
        # the monitor, the verification psi, the initial-data rescaling and both
        # volume routes read one definition each, so they agree bit for bit
        from lmcf.geometry import graph_volume, metric_from_potential, volume
        from lmcf.verification import psi_field

        spec = GridSpec(dim, (n,) * dim)
        cfg = FlowConfig(grid=spec, kappa=0.0, t_max=1.0)
        amp = 0.05
        u0 = random_bandlimited_potential(spec, amp, 2, seed=17, C0=cfg.C0, C1=cfg.C1)
        rec = monitor_record(FlowState.initial(u0, cfg), cfg)
        assert rec.psi_max == np.max(psi_field(u0, cfg).values)
        assert rec.volume == graph_volume(u0) == volume(metric_from_potential(u0))
        assert abs(rec.psi_max - amp * amp) <= 1e-12 * amp * amp
        # the state computes each |D^k u|^2 once and hands out a read-only array
        state = FlowState.initial(u0, cfg)
        assert np.array_equal(state.norm_sq(0), u0.values * u0.values)
        for k, jet in ((1, state.du), (2, state.d2u), (3, state.d3u)):
            assert state.norm_sq(k) is state.norm_sq(k)
            assert np.array_equal(state.norm_sq(k), sym_norm_sq(jet.components, dim, k))
            assert not state.norm_sq(k).flags.writeable
        # psi likewise, once per (C0, C1)
        psi = state.psi(cfg.C0, cfg.C1)
        assert psi is state.psi(cfg.C0, cfg.C1) and not psi.flags.writeable
        assert np.array_equal(psi, psi_field(u0, cfg).values)
        assert not np.array_equal(state.psi(1.0, 1.0), psi)


# a state on each jet route: the DFT matrix pair, the 1-D FFT, 2-D and 3-D FFT
RECORD_GRIDS = [
    pytest.param((64,), (1.0,), id="dft_1d_64"),
    pytest.param((256,), (1.0,), id="fft_1d_256"),
    pytest.param((32, 24), (1.0, 1.5), id="fft_2d_32x24"),
    pytest.param((16, 12, 8), (1.0, 1.5, 0.5), id="fft_3d_16x12x8"),
]


def reduced_apart(state, cfg):
    """Each MonitorRecord field as its own reduction over arrays computed
    apart from any record stack, on a fresh state over a copy of u."""
    fresh = FlowState(state.t, PeriodicScalarField(state.spec, state.u.values.copy()),
                      state.scheme)
    theta = fresh.angle_and_density()[0]
    return (fresh.t, float(np.abs(fresh.u.values).max()),
            *(math.sqrt(fresh.norm_sq(k).max()) for k in (1, 2, 3)),
            float(fresh.psi(cfg.C0, cfg.C1).max()), float(theta.min()), float(theta.max()),
            fresh.volume(), cfg.dt)


def assert_same_fields(rec, want):
    got = dataclasses.astuple(rec)
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a == b or (math.isnan(a) and math.isnan(b)), (got, want)


class TestMonitorStack:
    """A record's sup norms and max psi come from one stack and one reduction,
    each with the bits of its own reduction."""

    @pytest.mark.parametrize("sizes,periods", RECORD_GRIDS)
    def test_loop_records_equal_each_reduction(self, sizes, periods, monkeypatch):
        spec = GridSpec(len(sizes), sizes, periods)
        cfg = FlowConfig(grid=spec, kappa=-0.5, t_max=1.0, checkpoint_every=2)
        cfg = dataclasses.replace(cfg, t_max=5.25 * cfg.dt)
        u0 = random_bandlimited_potential(spec, 0.05, 2, seed=4)
        seen = []
        record = lmcf.flow.monitor_record
        monkeypatch.setattr(lmcf.flow, "monitor_record",
                            lambda state, c: seen.append((state, record(state, c))) or seen[-1][1])
        runs = [Run(u0, cfg)]
        if len(sizes) == 1:  # and two stacked members, one recording off the first's cadence
            runs += [Run(u0, dataclasses.replace(cfg, kappa=-1.0, checkpoint_every=3))]
        for run in runs:
            integrate(run.start, run.cfg)
        if len(runs) > 1:
            integrate(tuple(runs))
        assert len(seen) == (4 if len(sizes) > 1 else 4 + 3 + 4 + 3)
        for state, rec in seen:
            assert_same_fields(rec, reduced_apart(state, cfg))
            # the caches are read-only rows of the one stack
            rows = [state.norm_sq(k) for k in (1, 2, 3)] + [state.psi(cfg.C0, cfg.C1)]
            assert all(row.base is rows[0].base is not None for row in rows)
            assert not any(row.flags.writeable for row in rows)
            assert monitor_record(state, cfg) == rec

    @pytest.mark.parametrize("sizes,periods", RECORD_GRIDS)
    def test_state_records_equal_each_reduction(self, sizes, periods):
        spec = GridSpec(len(sizes), sizes, periods)
        cfg = FlowConfig(grid=spec, kappa=0.0, t_max=1.0)
        u0 = random_bandlimited_potential(spec, 0.05, 2, seed=8)
        state = FlowState(0.25, u0)
        rec = monitor_record(state, cfg)
        assert_same_fields(rec, reduced_apart(state, cfg))
        for k in (1, 2, 3):
            assert not state.norm_sq(k).flags.writeable
        assert not state.psi(cfg.C0, cfg.C1).flags.writeable
        # another (C0, C1) on the same state: psi is its own array, the norms stay
        other = dataclasses.replace(cfg, C0=3.0, C1=2.0)
        assert_same_fields(monitor_record(state, other), reduced_apart(state, other))
        assert monitor_record(state, cfg) == rec
        # quantities cached before the first record are copied into the stack
        early = FlowState(0.25, u0)
        apart = [early.norm_sq(1), early.norm_sq(3), early.psi(cfg.C0, cfg.C1)]
        assert monitor_record(early, cfg) == rec
        for k, was in zip((1, 3), apart):
            assert np.array_equal(early.norm_sq(k), was) and not early.norm_sq(k).flags.writeable
        assert np.array_equal(early.psi(cfg.C0, cfg.C1), apart[2])

    @pytest.mark.parametrize("sizes", [(64,), (256,), (8, 10)])
    def test_nan_propagates_to_every_field(self, sizes):
        spec = GridSpec(len(sizes), sizes)
        cfg = FlowConfig(grid=spec, kappa=0.0, t_max=1.0)
        values = random_bandlimited_potential(spec, 0.05, 2, seed=3).values.copy()
        values.flat[5] = np.nan
        state = FlowState(0.0, PeriodicScalarField(spec, values))
        with np.errstate(invalid="ignore"):
            rec = monitor_record(state, cfg)
            want = reduced_apart(state, cfg)
        assert math.isnan(rec.max_u) and math.isnan(rec.psi_max)
        assert_same_fields(rec, want)


def rk4_constant(c, kappa, dt, tol):
    """(steps, u) of ``integrate`` from the constant c with D^2 u = 0 at every
    stage, so that theta = 0: the loop's RK4 arithmetic in its order on one
    float, until |u| < tol."""
    u, steps = c, 0
    while not abs(u) < tol:
        k1 = 0.0 + kappa * u
        y = k1 * (0.5 * dt) + u
        k2 = 0.0 + kappa * y
        y = k2 * (0.5 * dt) + u
        k3 = 0.0 + kappa * y
        y = k3 * dt + u
        k4 = 0.0 + kappa * y
        u = (((k1 + 2.0 * k2) + 2.0 * k3) + k4) * (dt / 6.0) + u
        steps += 1
    return steps, u


class TestStopTest:
    def test_flat_member_with_kappa_stops_on_sup_u(self):
        # decay's constant kappa -1 / -0.5 pair: D^2 u = 0 at every step on the
        # DFT matrix pair, so only sup|u| < conv_tol can stop a member
        spec = GridSpec(1, (16,))
        u0 = PeriodicScalarField.constant(spec, 1e-3)
        base = FlowConfig(grid=spec, kappa=-1.0, t_max=10.0, conv_tol=5e-4)
        slower = dataclasses.replace(base, kappa=-0.5)
        alone = integrate(u0, base)
        pair = integrate((Run(u0, base), Run(u0, slower)))
        for result, cfg in ((alone, base), (pair[0], base), (pair[1], slower)):
            steps, u = rk4_constant(1e-3, cfg.kappa, cfg.dt, cfg.conv_tol)
            assert (result.outcome, result.steps) == ("converged", steps)
            assert result.state.u.values.tobytes() == np.full(16, u).tobytes()
        assert (alone.records, alone.steps) == (pair[0].records, pair[0].steps) == (
            pair[0].records, 1775)


def run_steps(u0, cfg, steps=40):
    """u after ``steps`` RK4 steps of ``integrate`` from u0."""
    kept = {}
    integrate(u0, cfg, hook=({steps}, kept.__setitem__))
    return kept[steps].u.values


def unit_hessian_data(spec):
    """Band-limited data with sup|D^2 u0| = 1, so that theta is far from linear."""
    u0 = random_bandlimited_potential(spec, 0.05, 3 if spec.dim == 1 else 2, seed=21)
    return u0.values / sup_norm(lmcf.fields.derivative(u0, 2))


class TestExactSymmetries:
    """The flow commutes with scaling the torus and with permuting its axes."""

    @pytest.mark.parametrize("sizes,periods", RECORD_GRIDS)
    @pytest.mark.parametrize("kappa", [0.0, -1.0])
    def test_period_scaling_is_bitwise(self, sizes, periods, kappa):
        # v(x, t) = P^2 u(x / P, t / P^2) solves the flow on P times the periods
        # with kappa / P^2; for P a power of 2 every scaling is exact
        spec = GridSpec(len(sizes), sizes, periods)
        values = unit_hessian_data(spec)
        want = run_steps(PeriodicScalarField(spec, values),
                         FlowConfig(grid=spec, kappa=kappa, t_max=1.0))
        for scale in (2.0, 0.5):
            scaled = GridSpec(spec.dim, sizes, [scale * p for p in periods])
            got = run_steps(PeriodicScalarField(scaled, scale * scale * values),
                            FlowConfig(grid=scaled, kappa=kappa / scale ** 2, t_max=1.0))
            assert got.tobytes() == (scale * scale * want).tobytes()

    @pytest.mark.parametrize("sizes,periods,axes", [
        ((32, 24), (1.0, 1.5), (1, 0)),
        ((16, 12, 8), (1.0, 1.5, 0.5), (2, 0, 1)),
    ])
    @pytest.mark.parametrize("kappa", [0.0, -1.0])
    def test_axis_permutation_within_roundoff(self, sizes, periods, axes, kappa):
        # not bitwise: a component's bits depend on the order of its passes;
        # the gap is 1.5 (2-D) and 2 (3-D) ulps of max|u| on this data
        spec = GridSpec(len(sizes), sizes, periods)
        values = unit_hessian_data(spec)
        want = np.transpose(run_steps(PeriodicScalarField(spec, values),
                                      FlowConfig(grid=spec, kappa=kappa, t_max=1.0)), axes)
        permuted = GridSpec(spec.dim, [sizes[a] for a in axes], [periods[a] for a in axes])
        got = run_steps(PeriodicScalarField(permuted, np.transpose(values, axes)),
                        FlowConfig(grid=permuted, kappa=kappa, t_max=1.0))
        assert np.abs(got - want).max() <= 4 * np.spacing(np.abs(want).max())


class TestFlowState:
    @pytest.mark.parametrize("scheme,sizes", [
        ("spectral", (64,)), ("spectral", (256,)), ("spectral", (16, 12)),
        ("spectral", (8, 8, 16)), ("central4", (16, 16)),
    ])
    def test_one_forward_serves_every_rank(self, scheme, sizes, monkeypatch):
        spec = GridSpec(len(sizes), sizes)
        u0 = random_bandlimited_potential(spec, 0.05, 2, seed=9)
        ops = jet_ops(spec, scheme)
        forward = ops.forward
        calls = []
        monkeypatch.setattr(ops, "forward", lambda v: calls.append(v) or forward(v))
        state = FlowState(0.0, u0, scheme)
        jets = {rank: state._jet(rank) for rank in (1, 2, 3, 4)}
        assert len(calls) == 1 and calls[0] is u0.values
        for rank, comps in jets.items():
            assert np.array_equal(comps, ops.components(u0.values.copy(), rank))
            assert not comps.flags.writeable

    @pytest.mark.parametrize("sizes", [(64,), (16, 12), (8, 8, 16)])
    def test_metric_reads_the_state_density(self, sizes, monkeypatch):
        # no second det(I + iQ) pass: the metric's sqrt(det mu) is the state's density
        spec = GridSpec(len(sizes), sizes)
        state = FlowState(0.0, random_bandlimited_potential(spec, 0.05, 2, seed=9))
        built_alone = lmcf.geometry.induced_metric(state.d2u)
        density = state.angle_and_density()[1]
        passes = []
        angle_and_density = lmcf.geometry._angle_and_density
        monkeypatch.setattr(lmcf.geometry, "_angle_and_density",
                            lambda *args: passes.append(args) or angle_and_density(*args))
        metric = state.metric()
        assert passes == [] and metric.sqrt_det.values is density
        assert np.array_equal(metric.sqrt_det.values, built_alone.sqrt_det.values)
        for name in ("mu", "mu_inv"):
            assert np.array_equal(getattr(metric, name).components,
                                  getattr(built_alone, name).components)
