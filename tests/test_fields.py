"""Field calculus on periodic grids: derivatives, norms, pairings."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lmcf.fields import (
    GridSpec,
    NonFiniteError,
    PeriodicScalarField,
    SpecMismatchError,
    SymMatrixField,
    UnsupportedOrderError,
    _DftMatrixJetOps,
    _FftJetOps,
    derivative,
    jet_ops,
    l2_pairing,
    laplacian_flat,
    mean_value,
    sup_norm,
    sym_indices,
    sym_multiplicities,
    tree_sum,
)
from lmcf.initial_data import random_bandlimited_potential

TWO_PI = 2.0 * np.pi


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

    @pytest.mark.parametrize("order", [0, 5])
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


class TestOnePassPerState:
    """Jets of one frozen state share one forward transform and are written once."""

    @pytest.mark.parametrize("sizes", [(32, 24), (16, 12, 8)])
    def test_reused_spectrum_matches_fresh_transform(self, sizes, monkeypatch):
        spec = GridSpec(len(sizes), sizes)
        frozen = random_bandlimited_potential(spec, 0.3, 3, seed=5).values
        assert not frozen.flags.writeable and frozen.flags.owndata
        ops = _FftJetOps(spec)
        forward = ops._forward
        calls = []
        monkeypatch.setattr(ops, "_forward", lambda v: calls.append(v) or forward(v))
        with ops.reusing_spectra():
            for rank in (1, 2, 3, 4):
                fresh = ops.components(frozen.copy(), rank)
                assert np.array_equal(ops.components(frozen, rank), fresh)
        assert sum(v is frozen for v in calls) == 1
        assert len(calls) == 5
        # the kept pair goes with the block; outside it every call transforms
        assert ops._held == (None, None)
        ops.hessian(frozen)
        ops.hessian(frozen)
        assert sum(v is frozen for v in calls) == 3

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
        buffers = ops.hessian_buffers()
        for v in (u, 2.0 * u):
            out = ops.hessian_into(v, buffers)
            assert out is buffers[0]
            assert np.array_equal(out, ops.hessian(v))

    def test_wrapping_a_stack_makes_no_copy(self):
        spec = GridSpec(2, (16, 16))
        stack = jet_ops(spec, "spectral").hessian(np.cos(TWO_PI * spec.coordinates()[0]))
        assert SymMatrixField(spec, stack).components is stack

    @pytest.mark.parametrize("sizes", [(64,), (256,), (16, 16), (8, 8, 8)])
    def test_writable_input_mutated_between_calls(self, sizes):
        spec = GridSpec(len(sizes), sizes)
        ops = jet_ops(spec, "spectral")
        u = np.array(random_bandlimited_potential(spec, 0.3, 2, seed=3).values)
        with ops.reusing_spectra():
            first = ops.hessian(u)
            u *= 2.0
            second = ops.hessian(u)
        assert not np.array_equal(first, second)
        assert np.array_equal(second, type(ops)(spec).hessian(u.copy()))

    @pytest.mark.parametrize("sizes", [(64,), (256,), (16, 16), (8, 8, 8)])
    def test_read_only_view_mutated_through_base(self, sizes):
        spec = GridSpec(len(sizes), sizes)
        ops = jet_ops(spec, "spectral")
        base = np.array(random_bandlimited_potential(spec, 0.3, 2, seed=3).values)
        view = base.view()
        view.flags.writeable = False
        with ops.reusing_spectra():
            first = ops.hessian(view)
            base *= 2.0
            second = ops.hessian(view)
        assert not np.array_equal(first, second)
        assert np.array_equal(second, type(ops)(spec).hessian(base.copy()))


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

    def test_fields_are_immutable(self):
        f = PeriodicScalarField.zeros(GridSpec(1, (16,)))
        with pytest.raises(ValueError):
            f.values[0] = 1.0
