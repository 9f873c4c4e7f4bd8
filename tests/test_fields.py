"""Field calculus on periodic grids: derivatives, norms, pairings."""

import functools
import importlib.util
import re
import sys
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lmcf import fields
from lmcf.fields import (
    GridSpec,
    NonFiniteError,
    PeriodicScalarField,
    SpecMismatchError,
    SymMatrixField,
    UnsupportedOrderError,
    _DftMatrixJetOps,
    _FftJetOps,
    _multiplier,
    _powers_of,
    _rank_multipliers,
    derivative,
    jet_ops,
    l2_pairing,
    laplacian_flat,
    mean_value,
    sup_norm,
    sym_indices,
    sym_multiplicities,
    sym_norm_sq,
    tree_sum,
)
from lmcf.initial_data import random_bandlimited_potential

TWO_PI = 2.0 * np.pi
EPS = np.finfo(np.float64).eps


class TestNumpyInternals:
    @pytest.mark.parametrize("missing", ["dot_implementation", "pocketfft_module",
                                         "pocketfft_kernel"])
    def test_a_missing_internal_fails_the_import(self, monkeypatch, missing):
        # the module binds numpy internals at import: without one it names the
        # installed and the tested numpy instead of failing at first use
        if missing == "dot_implementation":
            monkeypatch.setattr(np, "dot", lambda a, b, out=None: np.matmul(a, b, out=out))
        elif missing == "pocketfft_module":
            monkeypatch.delattr(np.fft, "_pocketfft_umath")
            monkeypatch.setitem(sys.modules, "numpy.fft._pocketfft_umath", None)
        else:
            monkeypatch.delattr(fields._pocketfft, "irfft")
        spec = importlib.util.find_spec("lmcf.fields")
        fresh = importlib.util.module_from_spec(spec)  # not in sys.modules
        with pytest.raises(ImportError, match=re.escape(f"numpy {np.__version__} lacks") + ".*"
                           + re.escape(f"tested with numpy {fields.TESTED_NUMPY}")):
            spec.loader.exec_module(fresh)
        assert fields.TESTED_NUMPY == "2.4.6"

# numpy.fft's public call for each pocketfft kernel, given the kernel's input and output
PUBLIC_FFT = {
    "rfft_n_even": lambda a, axis, out: np.fft.rfft(a, axis=axis),
    "fft": lambda a, axis, out: np.fft.fft(a, axis=axis),
    "ifft": lambda a, axis, out: np.fft.ifft(a, axis=axis),
    "irfft": lambda a, axis, out: np.fft.irfft(a, n=out.shape[axis], axis=axis),
}


def spy_on_kernels(monkeypatch, check=None):
    """Replace ``fields``' binding of numpy's pocketfft kernels with wrappers
    that log each call's kernel name and, given ``check``, pass it
    (name, a copy of the input, the transformed axis, the output)."""
    real, calls = fields._pocketfft, []

    def spy(name):
        def call(a, fct, axes=None, out=None):
            before = a.copy() if check else None
            kernel = getattr(real, name)
            out = kernel(a, fct, out=out) if axes is None else kernel(a, fct, axes=axes, out=out)
            calls.append(name)
            if check:
                check(name, before, -1 if axes is None else axes[0][0], out)
            return out
        return call

    monkeypatch.setattr(fields, "_pocketfft", SimpleNamespace(**{n: spy(n) for n in PUBLIC_FFT}))
    return calls


def _d1_central4(values, axis, h):
    return (
        -np.roll(values, -2, axis) + 8.0 * np.roll(values, -1, axis)
        - 8.0 * np.roll(values, 1, axis) + np.roll(values, 2, axis)
    ) / (12.0 * h)


def _d2_central4(values, axis, h):
    return (
        -np.roll(values, -2, axis) + 16.0 * np.roll(values, -1, axis) - 30.0 * values
        + 16.0 * np.roll(values, 1, axis) - np.roll(values, 2, axis)
    ) / (12.0 * h * h)


def central4_stencil(values, spec, rank):
    """Packed rank-``rank`` jet of ``values`` by the periodic 4th-order stencils;
    orders 3 and 4 compose the first- and second-derivative stencils."""
    comps = []
    for idx in sym_indices(spec.dim, rank):
        deriv = values
        for axis, m in enumerate(_powers_of(idx, spec.dim)):
            h = spec.spacings[axis]
            for _ in range(m // 2):
                deriv = _d2_central4(deriv, axis, h)
            if m % 2:
                deriv = _d1_central4(deriv, axis, h)
        comps.append(deriv)
    return np.array(comps)


def sin_field(spec, k=1, axis=0):
    x = spec.coordinates()[axis]
    return PeriodicScalarField(spec, np.sin(TWO_PI * k * x / spec.periods[axis]))


class TestGridSpec:
    def test_basic(self):
        spec = GridSpec(2, (32, 64), (1.0, 2.0))
        assert spec.spacings == (1.0 / 32, 2.0 / 64)
        assert spec.npoints == 32 * 64
        assert spec.torus_volume == 2.0

    def test_default_periods(self):
        assert GridSpec(1, (16,)).periods == (1.0,)

    @pytest.mark.parametrize("sizes", [(15,), (6,), (33,)])
    def test_rejects_odd_or_small(self, sizes):
        with pytest.raises(ValueError):
            GridSpec(1, sizes)

    def test_rejects_bad_dim(self):
        with pytest.raises(ValueError):
            GridSpec(4, (8, 8, 8, 8))

    def test_rejects_bad_periods(self):
        with pytest.raises(ValueError):
            GridSpec(1, (16,), (-1.0,))

    def test_hashable_and_eq(self):
        assert GridSpec(1, (16,)) == GridSpec(1, (16,))
        assert hash(GridSpec(1, (16,))) == hash(GridSpec(1, (16,)))

    @pytest.mark.parametrize("dim, sizes, bad", [
        (1, (8.5,), "8.5"), (1, ["12"], "'12'"), (True, (8,), "True"), (2.0, (8, 8), "2.0"),
        (1, (8.0,), "8.0"), (2, (16, np.float64(8.0)), "8.0"), (1, (np.True_,), "True"),
    ])
    def test_rejects_non_integer_arguments(self, dim, sizes, bad):
        with pytest.raises(ValueError, match=f"must be an integer, got .*{bad}"):
            GridSpec(dim, sizes)

    def test_accepts_numpy_integers(self):
        spec = GridSpec(np.int64(2), np.array([16, 8]))
        assert spec == GridSpec(2, (16, 8))
        assert type(spec.dim) is int and all(type(s) is int for s in spec.sizes)


class TestDerivative:
    def test_constant_has_zero_derivative(self):
        spec = GridSpec(1, (32,))
        f = PeriodicScalarField.constant(spec, 3.7)
        for scheme in ("spectral", "central4"):
            assert sup_norm(derivative(f, 1, scheme)) <= 1e-12 * 3.7

    def test_sin_second_derivative_spectral(self):
        spec = GridSpec(1, (64,))
        f = sin_field(spec)
        d2 = derivative(f, 2).component(0, 0)
        exact = -(TWO_PI ** 2) * f.values
        assert np.max(np.abs(d2.values - exact)) <= 1e-9

    def test_central4_converges_at_rate_4(self):
        # Richardson fit against the spectral oracle on sin(2pix)cos(2piy)
        errors = []
        for n in (32, 64, 128):
            spec = GridSpec(2, (n, n))
            x, y = spec.coordinates()
            f = PeriodicScalarField(spec, np.sin(TWO_PI * x) * np.cos(TWO_PI * y))
            ds = derivative(f, 1, "spectral").components
            dc = derivative(f, 1, "central4").components
            errors.append(np.max(np.abs(ds - dc)))
        slopes = np.diff(np.log(errors)) / np.diff(np.log([1 / 32, 1 / 64, 1 / 128]))
        assert abs(np.mean(slopes) - 4.0) <= 0.3

    def test_fourth_derivative(self):
        spec = GridSpec(1, (64,))
        f = sin_field(spec)
        exact = (TWO_PI ** 4) * f.values
        for scheme, tol in (("spectral", 1e-6), ("central4", 1e-1)):
            d4 = derivative(f, 4, scheme).component(0, 0, 0, 0)
            assert np.max(np.abs(d4.values - exact)) <= tol

    def test_mixed_fourth_derivative(self):
        spec = GridSpec(2, (32, 32))
        x, y = spec.coordinates()
        f = PeriodicScalarField(spec, np.sin(TWO_PI * x) * np.sin(TWO_PI * y))
        d4 = derivative(f, 4).component(0, 0, 1, 1)
        exact = (TWO_PI ** 4) * f.values
        assert np.max(np.abs(d4.values - exact)) <= 1e-6

    def test_symmetric_component_lookup(self):
        spec = GridSpec(2, (16, 16))
        x, y = spec.coordinates()
        f = PeriodicScalarField(spec, np.sin(TWO_PI * x) * np.sin(TWO_PI * y))
        hess = derivative(f, 2)
        assert np.array_equal(hess.component(0, 1).values, hess.component(1, 0).values)

    def test_spec_mismatch(self):
        a = PeriodicScalarField.zeros(GridSpec(1, (16,)))
        b = PeriodicScalarField.zeros(GridSpec(1, (32,)))
        with pytest.raises(SpecMismatchError):
            l2_pairing(a, b)

    # a bool is no order: derivative(f, True) is not the gradient
    @pytest.mark.parametrize("order", [0, 5, True, False, 2.0, "2"])
    def test_unsupported_order(self, order):
        f = PeriodicScalarField.zeros(GridSpec(1, (16,)))
        with pytest.raises(UnsupportedOrderError):
            derivative(f, order)

    def test_non_finite_rejected(self):
        spec = GridSpec(1, (16,))
        vals = np.zeros(16)
        vals[3] = np.nan
        with pytest.raises(NonFiniteError):
            derivative(PeriodicScalarField(spec, vals), 1)

    def test_mixed_partials_commute_sequentially(self):
        spec = GridSpec(2, (32, 32))
        f = random_bandlimited_potential(spec, 0.5, 4, seed=5)
        d0 = derivative(f, 1).component(0)
        d1 = derivative(f, 1).component(1)
        d01 = derivative(d0, 1).component(1)
        d10 = derivative(d1, 1).component(0)
        tol = 1e-11 * sup_norm(f) * (TWO_PI * 32) ** 2
        assert np.max(np.abs(d01.values - d10.values)) <= tol

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_mixed_partials_commute_property(self, seed):
        spec = GridSpec(2, (16, 16))
        f = random_bandlimited_potential(spec, 1.0, 3, seed=seed)
        hess = derivative(f, 2)
        d0 = derivative(f, 1).component(0)
        d01 = derivative(d0, 1).component(1)
        tol = 1e-11 * max(sup_norm(f), 1.0) * (TWO_PI * 16) ** 2
        assert np.max(np.abs(hess.component(0, 1).values - d01.values)) <= tol

    @settings(max_examples=20, deadline=None)
    @given(c=st.floats(-1e6, 1e6, allow_nan=False))
    def test_constant_derivative_property(self, c):
        spec = GridSpec(1, (16,))
        f = PeriodicScalarField.constant(spec, c)
        assert sup_norm(derivative(f, 1)) <= 1e-12 * (abs(c) + 1.0)


DFT_SIZES = [8, 12, 16, 24, 64, 96, 128]


class TestCentral4Symbol:
    """central4 is the stencils' Fourier symbol on the grid's spectral route;
    the np.roll stencils themselves are the oracle."""

    @pytest.mark.parametrize("sizes,periods,route", [
        ((64,), None, _DftMatrixJetOps), ((256,), None, _FftJetOps),
        ((16, 12), (1.0, 1.5), _FftJetOps), ((16, 12, 8), (1.0, 2.0, 0.5), _FftJetOps),
    ])
    @pytest.mark.parametrize("rank", [1, 2, 3, 4])
    def test_matches_the_stencils(self, sizes, periods, route, rank):
        # white noise gives every mode unit amplitude, so roundoff in either
        # route is a fixed share of the largest derivative: <= 3.2 EPS measured
        spec = GridSpec(len(sizes), sizes, periods)
        assert type(jet_ops(spec, "central4")) is route
        f = PeriodicScalarField(spec, np.random.default_rng(rank).standard_normal(sizes))
        ref = central4_stencil(f.values, spec, rank)
        out = derivative(f, rank, "central4").components
        assert out.shape == ref.shape
        assert np.max(np.abs(out - ref)) <= 20 * EPS * np.max(np.abs(ref))


class TestDftMatrixRoute:
    """Small 1-D spectral grids: the DFT matrix pair against numpy.fft."""

    @pytest.mark.parametrize("n", DFT_SIZES)
    @pytest.mark.parametrize("rank", [1, 2, 3, 4])
    def test_matches_fft_route(self, n, rank):
        spec = GridSpec(1, (n,))
        u = np.random.default_rng(n).standard_normal(n) + 2.0
        ref = _FftJetOps(spec).components(u, rank)
        out = _DftMatrixJetOps(spec).components(u, rank)
        assert out.shape == ref.shape == (1, n)
        assert np.max(np.abs(out - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("n", DFT_SIZES)
    def test_constant_maps_to_exact_zero(self, n):
        ops = _DftMatrixJetOps(GridSpec(1, (n,)))
        u = np.full(n, 0.7)
        for rank in (1, 2, 3, 4):
            assert (ops.components(u, rank) == 0.0).all()

    @pytest.mark.parametrize("n", [64, 128])
    def test_first_derivative_twice_is_second(self, n):
        spec = GridSpec(1, (n,))
        ops = jet_ops(spec, "spectral")
        f = np.cos(TWO_PI * spec.coordinates()[0])
        d2 = ops.components(f, 2)[0]
        d1d1 = ops.components(ops.components(f, 1)[0], 1)[0]
        assert np.max(np.abs(d1d1 - d2)) <= 1e-13 * np.max(np.abs(d2))

    def test_route_chosen_by_grid(self):
        assert type(jet_ops(GridSpec(1, (128,)), "spectral")) is _DftMatrixJetOps
        assert type(jet_ops(GridSpec(1, (130,)), "spectral")) is _FftJetOps
        assert type(jet_ops(GridSpec(2, (16, 16)), "spectral")) is _FftJetOps

    def test_fresh_builds_bit_identical(self):
        spec = GridSpec(1, (96,))
        u = np.random.default_rng(3).standard_normal(96)
        for rank in (1, 2, 3, 4):
            a = _DftMatrixJetOps(spec).components(u, rank)
            b = _DftMatrixJetOps(spec).components(u, rank)
            assert np.array_equal(a, b)


class TestNyquistRule:
    """An odd power of i k_a zeroes axis a's Nyquist mode, index n//2, on every axis."""

    def test_odd_powers_zero_index_n_over_2_on_a_leading_axis(self):
        for n in range(8, 4097, 2):
            spec = GridSpec(2, (n, 8))
            d1 = _rank_multipliers(spec, 1, "spectral")[0]  # i k_0
            d3 = _rank_multipliers(spec, 3, "spectral")[0]  # (i k_0)^3
            assert d1[n // 2, 0] == 0.0 and d3[n // 2, 0] == 0.0, n

    @pytest.mark.parametrize("sizes, axis, other", [
        ((98, 16), 0, 1), ((8, 98, 8), 1, 2), ((16, 98), 1, 0),  # the last: a control
    ])
    def test_nyquist_mode_derivatives(self, sizes, axis, other):
        spec = GridSpec(len(sizes), sizes)
        x = spec.coordinates()
        k_nyq = np.pi * sizes[axis] / spec.periods[axis]
        u = PeriodicScalarField(spec, np.cos(k_nyq * x[axis]) * np.cos(TWO_PI * x[other]))
        for m in (1, 3):
            d = derivative(u, m).component(*(axis,) * m).values
            assert np.max(np.abs(d)) <= 1e-12 * k_nyq**m
        hess = derivative(u, 2)
        d2 = hess.component(axis, axis).values
        assert np.max(np.abs(d2 + k_nyq**2 * u.values)) <= 1e-12 * k_nyq**2
        assert np.max(np.abs(hess.component(axis, other).values)) <= 1e-12 * k_nyq * TWO_PI

    @pytest.mark.parametrize("sizes, periods", [((98, 16, 8), None), ((16, 12, 8), (1, 2, 0.5))])
    @pytest.mark.parametrize("axis", [0, 1, 2])
    def test_odd_orders_of_a_nyquist_mode_vanish_in_3d(self, sizes, periods, axis):
        # the spectrum of a field that is a pure Nyquist mode along ``axis``:
        # every component of odd order on that axis is exactly 0, whichever
        # stage of the synthesis applies that axis' factor
        spec = GridSpec(3, sizes, periods)
        ops = _FftJetOps(spec)
        rng = np.random.default_rng(axis)
        spectrum = np.zeros(sizes[:2] + (sizes[2] // 2 + 1,), dtype=np.complex128)
        slab = (slice(None),) * axis + (sizes[axis] // 2,)
        spectrum[slab] = rng.standard_normal(spectrum[slab].shape) + 1j
        for rank, stack in zip((1, 2, 3, 4), ops.jets(spectrum, (1, 2, 3, 4))):
            for comp, idx in zip(stack, sym_indices(3, rank)):
                odd = _powers_of(idx, 3)[axis] % 2 == 1
                assert (comp == 0.0).all() == odd, (rank, idx)


class TestOnePassPerState:
    """One forward transform serves every rank; jets are written once."""

    @pytest.mark.parametrize("sizes", [(32, 24), (16, 12, 8)])
    def test_reused_spectrum_matches_fresh_transform(self, sizes, monkeypatch):
        spec = GridSpec(len(sizes), sizes)
        u = random_bandlimited_potential(spec, 0.3, 3, seed=5).values
        ops = _FftJetOps(spec)
        forward = ops.forward
        calls = []
        monkeypatch.setattr(ops, "forward", lambda v: calls.append(v) or forward(v))
        spectrum = ops.forward(u)
        for rank in (1, 2, 3, 4):
            assert np.array_equal(ops.jets(spectrum, (rank,))[0],
                                  ops.components(u.copy(), rank))
        assert sum(v is u for v in calls) == 1
        assert len(calls) == 5
        # the ops object keeps nothing: every call on the same input transforms it
        ops.components(u, 2)
        ops.components(u, 2)
        assert sum(v is u for v in calls) == 3

    @pytest.mark.parametrize("scheme,sizes", [
        ("spectral", (64,)), ("spectral", (256,)), ("spectral", (16, 24)),
        ("spectral", (8, 8, 16)), ("central4", (16, 16)),
    ])
    def test_stacks_read_only_and_written_in_place(self, scheme, sizes):
        spec = GridSpec(len(sizes), sizes)
        ops = jet_ops(spec, scheme)
        u = random_bandlimited_potential(spec, 0.3, 2, seed=2).values
        for rank in (1, 2, 3, 4):
            stack = ops.components(u, rank)
            assert stack.shape == (len(sym_indices(spec.dim, rank)),) + sizes
            assert not stack.flags.writeable
        write, hess = ops.hessian_writer()
        assert hess.shape == (len(sym_indices(spec.dim, 2)),) + sizes and hess.flags.writeable
        for v in (u, 2.0 * u):
            assert np.array_equal(write(v), ops.forward(v))
            assert np.array_equal(hess, ops.components(v, 2))

    @pytest.mark.parametrize("scheme,sizes,route", [
        ("spectral", (64,), _DftMatrixJetOps), ("spectral", (128,), _DftMatrixJetOps),
        ("spectral", (130,), _FftJetOps), ("spectral", (256,), _FftJetOps),
        ("spectral", (32, 24), _FftJetOps), ("spectral", (16, 12, 8), _FftJetOps),
        ("central4", (64,), _DftMatrixJetOps), ("central4", (16, 16), _FftJetOps),
    ])
    def test_multi_rank_synthesis_matches_per_rank(self, scheme, sizes, route):
        # a batched irfft must give each rank the bits of its own synthesis
        spec = GridSpec(len(sizes), sizes)
        ops = jet_ops(spec, scheme)
        assert type(ops) is route
        coeffs = ops.forward(random_bandlimited_potential(spec, 0.3, 3, seed=12).values)
        for ranks in ((1, 2, 3), (1, 2), (4, 1, 3, 2)):
            stacks = ops.jets(coeffs, ranks)
            assert len(stacks) == len(ranks)
            for rank, stack in zip(ranks, stacks):
                assert stack.shape == (len(sym_indices(spec.dim, rank)),) + sizes
                assert not stack.flags.writeable
                assert np.array_equal(stack, ops.jets(coeffs, (rank,))[0])

    @pytest.mark.parametrize("scheme,sizes,route", [
        ("spectral", (16,), _DftMatrixJetOps), ("spectral", (64,), _DftMatrixJetOps),
        ("spectral", (128,), _DftMatrixJetOps), ("spectral", (256,), _FftJetOps),
        ("spectral", (32, 24), _FftJetOps), ("spectral", (16, 12, 8), _FftJetOps),
        ("central4", (64,), _DftMatrixJetOps),
    ])
    def test_writer_writes_in_place(self, scheme, sizes, route):
        # two calls of one writer fill the stacks it returned, each with the
        # bits of a fresh jets call
        spec = GridSpec(len(sizes), sizes)
        ops = jet_ops(spec, scheme)
        assert type(ops) is route
        u = random_bandlimited_potential(spec, 0.3, 3, seed=4).values
        for ranks in ((2,), (1, 2, 3), (4, 1, 3, 2)):
            write, stacks = ops._writer(ranks)
            rows = list(stacks)  # on 1-D grids, views of the one array
            for v in (u, -2.0 * u):
                coeffs = ops.forward(v)
                write(coeffs)
                for row, stack, fresh in zip(rows, stacks, ops.jets(coeffs, ranks), strict=True):
                    assert np.shares_memory(row, stack) and stack.flags.writeable
                    assert np.array_equal(row, fresh)

    @pytest.mark.parametrize("n", [16, 64, 128])
    def test_dft_hessian_write_is_one_c_call(self, n):
        # the single-rank writer is np.dot's C function bound to G_2 and its
        # output row, so an RK4 stage's product runs no Python frame: a stage
        # runs the Hessian writer's frame and forward's, nothing more
        ops = jet_ops(GridSpec(1, (n,)), "spectral")
        write, stacks = ops._writer((2,))
        assert isinstance(write, functools.partial) and write.func is np.dot._implementation
        assert write.args == (ops._inverse_matrix(2),)
        assert np.shares_memory(write.keywords["out"], stacks)
        u = random_bandlimited_potential(GridSpec(1, (n,)), 0.3, 3, seed=4).values

        def python_frames(call, *args):
            frames = []

            def profile(frame, event, arg):
                if event == "call":
                    frames.append(frame.f_code.co_name)
            sys.setprofile(profile)
            try:
                call(*args)
            finally:
                sys.setprofile(None)
            return frames

        assert python_frames(write, ops.forward(u)) == []
        assert python_frames(ops.hessian_writer()[0], u) == ["write_hessian", "forward"]

    @pytest.mark.parametrize("sizes", [(32, 24), (128, 128), (16, 12, 8), (32, 32, 32)])
    def test_inverse_passes_match_irfftn(self, sizes):
        # 2-D jets run irfftn's own passes, the complex one in place; 3-D jets
        # run the one-axis calls in their own order, each axis' factor just
        # before its pass (axis 1, axis 0, then the real pass), which differs
        # from irfftn's by a few ulp
        spec = GridSpec(len(sizes), sizes)
        ops = _FftJetOps(spec)
        spectrum = ops.forward(random_bandlimited_potential(spec, 0.3, 3, seed=4).values)
        axes = tuple(range(spec.dim))
        for rank, stack in zip((1, 2, 3, 4), ops.jets(spectrum, (1, 2, 3, 4))):
            indices = sym_indices(spec.dim, rank)
            for comp, idx, mult in zip(stack, indices, _rank_multipliers(spec, rank, "spectral")):
                full = np.fft.irfftn(spectrum * mult, s=sizes, axes=axes)
                if spec.dim == 2:
                    assert np.array_equal(comp, full)
                    continue
                m0, m1, m2 = _powers_of(idx, 3)
                middle = np.fft.ifft(spectrum * _multiplier(spec, (0, m1, 0), "spectral"), axis=1)
                outer = np.fft.ifft(middle * _multiplier(spec, (m0, 0, 0), "spectral"), axis=0)
                last = outer * _multiplier(spec, (0, 0, m2), "spectral")
                assert np.array_equal(comp, np.fft.irfft(last, n=sizes[-1], axis=2))
                assert np.max(np.abs(comp - full)) <= 4 * EPS * np.max(np.abs(comp))

    @pytest.mark.parametrize("sizes, ranks, passes", [
        ((32, 24), (1, 2, 3), 9), ((32, 24), (2,), 3),
        ((16, 12, 8), (1, 2, 3), 14), ((16, 12, 8), (2,), 9), ((16, 12, 8), (1, 2, 3, 4), 20),
    ])
    def test_components_share_the_axis_1_pass(self, sizes, ranks, passes, monkeypatch):
        # 2-D: one axis-0 pass per component; 3-D: one axis-1 pass per distinct
        # order on axis 1 and one axis-0 pass per distinct (axis-0, axis-1) orders
        spec = GridSpec(len(sizes), sizes)
        ops = _FftJetOps(spec)
        spectrum = ops.forward(random_bandlimited_potential(spec, 0.3, 3, seed=4).values)
        calls = spy_on_kernels(monkeypatch)
        ops.jets(spectrum, ranks)
        ncomp = sum(len(sym_indices(spec.dim, rank)) for rank in ranks)
        assert (calls.count("ifft"), calls.count("irfft")) == (passes, ncomp)
        assert len(calls) == passes + ncomp

    @pytest.mark.parametrize("sizes, complex_passes", [
        ((256,), 0), ((32, 24), 1), ((16, 12, 8), 2),
    ])
    def test_forward_runs_one_real_pass_then_one_per_leading_axis(
            self, sizes, complex_passes, monkeypatch):
        spec = GridSpec(len(sizes), sizes)
        ops = _FftJetOps(spec)
        u = random_bandlimited_potential(spec, 0.3, 3, seed=4).values
        calls = spy_on_kernels(monkeypatch)
        ops.forward(u)
        assert calls == ["rfft_n_even"] + ["fft"] * complex_passes

    @pytest.mark.parametrize("ranks", [(2,), (1, 2, 3), (4, 1, 3, 2)])
    def test_1d_synthesis_is_one_batched_irfft(self, ranks, monkeypatch):
        spec = GridSpec(1, (256,))
        ops = _FftJetOps(spec)
        spectrum = ops.forward(random_bandlimited_potential(spec, 0.3, 3, seed=4).values)
        calls = spy_on_kernels(monkeypatch)
        ops.jets(spectrum, ranks)
        assert calls == ["irfft"]

    def test_wrapping_a_stack_makes_no_copy(self):
        spec = GridSpec(2, (16, 16))
        stack = jet_ops(spec, "spectral").components(np.cos(TWO_PI * spec.coordinates()[0]), 2)
        assert SymMatrixField(spec, stack).components is stack

    @pytest.mark.parametrize("sizes", [(64,), (256,), (16, 16), (8, 8, 8)])
    def test_writable_input_mutated_between_calls(self, sizes):
        spec = GridSpec(len(sizes), sizes)
        ops = jet_ops(spec, "spectral")
        u = np.array(random_bandlimited_potential(spec, 0.3, 2, seed=3).values)
        first = ops.components(u, 2)
        u *= 2.0
        second = ops.components(u, 2)
        assert not np.array_equal(first, second)
        assert np.array_equal(second, type(ops)(spec).components(u.copy(), 2))

    @pytest.mark.parametrize("sizes", [(64,), (256,), (16, 16), (8, 8, 8)])
    def test_refrozen_input_mutated_between_calls(self, sizes):
        spec = GridSpec(len(sizes), sizes)
        ops = jet_ops(spec, "spectral")
        u = np.array(random_bandlimited_potential(spec, 0.3, 2, seed=3).values)
        u.flags.writeable = False
        first = ops.components(u, 2)
        u.flags.writeable = True
        u *= 2.0
        u.flags.writeable = False
        second = ops.components(u, 2)
        assert not np.array_equal(first, second)
        assert np.array_equal(second, type(ops)(spec).components(u.copy(), 2))

    @pytest.mark.parametrize("sizes", [(64,), (256,), (16, 16), (8, 8, 8)])
    def test_read_only_view_mutated_through_base(self, sizes):
        spec = GridSpec(len(sizes), sizes)
        ops = jet_ops(spec, "spectral")
        base = np.array(random_bandlimited_potential(spec, 0.3, 2, seed=3).values)
        view = base.view()
        view.flags.writeable = False
        first = ops.components(view, 2)
        base *= 2.0
        second = ops.components(view, 2)
        assert not np.array_equal(first, second)
        assert np.array_equal(second, type(ops)(spec).components(base.copy(), 2))


class TestPocketfftParity:
    """The FFT route calls numpy's pocketfft kernels itself, with numpy's
    normalization; each pass must keep the bits of its public ``numpy.fft``
    call, so a numpy release that changes the private module fails here
    instead of changing outputs.  Sizes include N = 2 mod 4 and unequal axes."""

    SIZES = [(130,), (258,), (1024,), (14, 22), (98, 16), (128, 128),
             (8, 14, 10), (16, 12, 8), (32, 32, 32)]

    @pytest.mark.parametrize("sizes", SIZES)
    def test_forward_is_rfftn(self, sizes):
        spec = GridSpec(len(sizes), sizes)
        u = random_bandlimited_potential(spec, 0.3, 3, seed=6).values
        spectrum = _FftJetOps(spec).forward(u)
        assert np.array_equal(spectrum, np.fft.rfft(u) if spec.dim == 1 else np.fft.rfftn(u))

    @pytest.mark.parametrize("sizes", SIZES)
    def test_every_pass_is_its_public_call(self, sizes, monkeypatch):
        spec = GridSpec(len(sizes), sizes)
        ops = _FftJetOps(spec)
        u = random_bandlimited_potential(spec, 0.3, 3, seed=6).values
        mismatches = []

        def check(name, a, axis, out):
            if not np.array_equal(out, PUBLIC_FFT[name](a, axis, out)):
                mismatches.append((name, axis))

        calls = spy_on_kernels(monkeypatch, check)
        ops.jets(ops.forward(u), (1, 2, 3, 4))
        expected = {"rfft_n_even", "irfft"} | ({"fft", "ifft"} if spec.dim > 1 else set())
        assert set(calls) == expected
        assert mismatches == []


class TestLaplacian:
    def test_constant(self):
        spec = GridSpec(2, (16, 16))
        f = PeriodicScalarField.constant(spec, 2.5)
        assert sup_norm(laplacian_flat(f)) <= 1e-12

    def test_fourier_eigenfunction(self):
        spec = GridSpec(2, (32, 32))
        x, y = spec.coordinates()
        k = (2, 3)
        f = PeriodicScalarField(spec, np.cos(TWO_PI * (k[0] * x + k[1] * y)))
        lam = -(TWO_PI ** 2) * (k[0] ** 2 + k[1] ** 2)
        assert np.max(np.abs(laplacian_flat(f).values - lam * f.values)) <= 1e-8

    def test_componentwise_oracle(self):
        spec = GridSpec(2, (32, 32))
        f = random_bandlimited_potential(spec, 0.8, 4, seed=9)
        lap = laplacian_flat(f)
        by_hand = (
            derivative(f, 2).component(0, 0).values
            + derivative(f, 2).component(1, 1).values
        )
        assert np.max(np.abs(lap.values - by_hand)) <= 1e-11


class TestNormsAndPairings:
    def test_sup_norm_zero(self):
        assert sup_norm(PeriodicScalarField.zeros(GridSpec(1, (16,)))) == 0.0

    def test_unit_pairing(self):
        spec = GridSpec(2, (16, 32), (1.0, 1.0))
        one = PeriodicScalarField.constant(spec, 1.0)
        assert abs(l2_pairing(one, one) - 1.0) <= 1e-14

    def test_sin_squared(self):
        spec = GridSpec(1, (64,))
        f = sin_field(spec)
        assert abs(l2_pairing(f, f) - 0.5) <= 1e-12

    def test_weighted_pairing(self):
        spec = GridSpec(1, (64,))
        f = sin_field(spec)
        w = PeriodicScalarField.constant(spec, 2.0)
        assert abs(l2_pairing(f, f, weight=w) - 1.0) <= 1e-12

    def test_mean_value(self):
        spec = GridSpec(1, (32,))
        f = PeriodicScalarField(spec, 1.5 + sin_field(spec).values)
        assert abs(mean_value(f) - 1.5) <= 1e-14

    def test_tree_sum_deterministic(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=1000)
        s1 = tree_sum(a)
        s2 = tree_sum(np.array(a))  # fresh copy, same order
        assert s1 == s2

    def test_tree_sum_matches_exact_on_integers(self):
        a = np.arange(1, 101, dtype=float)
        assert tree_sum(a) == 5050.0

    @staticmethod
    def reference_fold(a):
        """The pairwise fold on fresh arrays: a[i] + a[half + i], odd tail carried."""
        a = np.ascontiguousarray(a, dtype=np.float64).reshape(-1)
        while a.size > 1:
            half = a.size // 2
            a = np.concatenate([a[:half] + a[half : 2 * half], a[2 * half :]])
        return float(a[0])

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 9, 17, 255, 256])
    def test_tree_sum_is_the_reference_fold(self, n):
        rng = np.random.default_rng(n)
        a = rng.normal(size=n) * 10.0 ** rng.uniform(-8, 8, size=n)
        before = a.copy()
        assert tree_sum(a) == self.reference_fold(a)
        assert np.array_equal(a, before)  # the fold runs on a copy

    @pytest.mark.parametrize("shape", [(15, 17), (5, 6, 7), (8, 8, 8)])
    def test_tree_sum_is_the_reference_fold_nd(self, shape):
        rng = np.random.default_rng(len(shape))
        a = rng.normal(size=shape) * 10.0 ** rng.uniform(-8, 8, size=shape)
        assert tree_sum(a) == self.reference_fold(a)
        view = a[::2, 1:][..., ::-1]  # non-contiguous, summed in row-major order
        assert not view.flags.c_contiguous
        assert tree_sum(view) == self.reference_fold(view)

    def test_parseval_consistency(self):
        spec = GridSpec(1, (64,))
        f = random_bandlimited_potential(spec, 1.0, 8, seed=17)
        df = derivative(f, 1).component(0)
        quad = l2_pairing(df, df)
        fhat = np.fft.fft(df.values)
        fourier_side = np.sum(np.abs(fhat) ** 2) / 64 * spec.cell_volume
        assert abs(quad - fourier_side) <= 1e-10 * abs(quad)


class TestSymmetricLayout:
    def test_index_counts(self):
        assert len(sym_indices(2, 2)) == 3
        assert len(sym_indices(2, 3)) == 4
        assert len(sym_indices(3, 2)) == 6
        assert len(sym_indices(3, 4)) == 15

    def test_multiplicities(self):
        # (0,1) stands for Q_01 and Q_10
        assert sym_multiplicities(2, 2) == (1, 2, 1)
        assert sym_multiplicities(2, 3) == (1, 3, 3, 1)

    def test_frobenius_norm_counts_multiplicity(self):
        spec = GridSpec(2, (16, 16))
        from lmcf.fields import SymMatrixField

        comps = np.zeros((3,) + spec.sizes)
        comps[1] = 1.0  # off-diagonal entry
        q = SymMatrixField(spec, comps)
        assert np.allclose(q.pointwise_norm_sq().values, 2.0)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("rank", [1, 2, 3, 4])
    def test_norm_sq_is_the_einsum_form(self, dim, rank):
        rng = np.random.default_rng(10 * dim + rank)
        sizes = {1: (64,), 2: (16, 16), 3: (8, 8, 8)}[dim]
        shape = (len(sym_indices(dim, rank)),) + sizes
        comps = rng.normal(size=shape) * 10.0 ** rng.uniform(-4, 4, size=shape)
        weights = np.array(sym_multiplicities(dim, rank), dtype=np.float64)
        assert np.array_equal(sym_norm_sq(comps, dim, rank),
                              np.einsum("c...,c->...", comps * comps, weights))

    def test_fields_are_immutable(self):
        f = PeriodicScalarField.zeros(GridSpec(1, (16,)))
        with pytest.raises(ValueError):
            f.values[0] = 1.0
