"""Lagrangian-graph geometry: metric, angle, mean curvature form, volume."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lmcf.fields import (
    GridSpec,
    PeriodicScalarField,
    SymMatrixField,
    derivative,
    l2_pairing,
    sup_norm,
    sym_from_dense,
)
from lmcf.geometry import (
    _angle_values,
    _det_i_plus_iq,
    angle_gradient,
    graph_volume,
    induced_metric,
    jacobi_eigenvalues_sym3,
    lagrangian_angle,
    laplace_beltrami,
    mean_curvature_one_form,
    metric_from_potential,
    volume,
)
from lmcf.initial_data import random_bandlimited_potential
from lmcf.verification import eigen_angle_values

TWO_PI = 2.0 * np.pi


def const_matrix_field(spec, matrix):
    matrix = np.asarray(matrix, dtype=float)
    from lmcf.fields import sym_indices

    comps = np.stack([np.full(spec.sizes, matrix[i, j]) for i, j in sym_indices(spec.dim, 2)])
    return SymMatrixField(spec, comps)


def point_stack(q):
    """One-point packed component stack of the symmetric matrix q."""
    q = np.asarray(q, dtype=float)
    from lmcf.fields import sym_indices

    return np.array([q[i, j] for i, j in sym_indices(q.shape[0], 2)]).reshape(-1, 1)


def angle_point(q):
    return float(_angle_values(point_stack(q), len(q))[0])


def reference_point(q):
    """Eigenvalue arctan sum of Q at one point (the reference route)."""
    return float(eigen_angle_values(point_stack(q), len(q))[0])


class TestInducedMetric:
    def test_zero_hessian(self):
        spec = GridSpec(2, (16, 16))
        M = induced_metric(const_matrix_field(spec, np.zeros((2, 2))))
        assert np.allclose(M.mu.component(0, 0).values, 1.0)
        assert np.allclose(M.mu.component(0, 1).values, 0.0)
        assert np.allclose(M.sqrt_det.values, 1.0)

    def test_1d_closed_form(self):
        spec = GridSpec(1, (16,))
        q = 0.3
        M = induced_metric(const_matrix_field(spec, [[q]]))
        assert np.allclose(M.mu.component(0, 0).values, 1.0 + q * q)
        assert np.allclose(M.mu_inv.component(0, 0).values, 1.0 / (1.0 + q * q))

    def test_2d_antidiagonal(self):
        spec = GridSpec(2, (16, 16))
        M = induced_metric(const_matrix_field(spec, [[0.0, 1.0], [1.0, 0.0]]))
        assert np.allclose(M.mu.component(0, 0).values, 2.0)
        assert np.allclose(M.mu.component(1, 1).values, 2.0)
        assert np.allclose(M.mu.component(0, 1).values, 0.0)
        assert np.allclose(M.sqrt_det.values, 2.0)

    @pytest.mark.parametrize("dim,sizes", [(1, (32,)), (2, (16, 16)), (3, (8, 8, 8))])
    def test_inverse_identity(self, dim, sizes):
        spec = GridSpec(dim, sizes)
        u = random_bandlimited_potential(spec, 0.08, 2, seed=dim)
        M = metric_from_potential(u)
        mu = M.mu.to_dense()
        inv = M.mu_inv.to_dense()
        prod = np.einsum("...ij,...jk->...ik", mu, inv)
        eye = np.eye(dim)
        assert np.max(np.abs(prod - eye)) <= 1e-12
        assert np.min(M.sqrt_det.values) >= 1.0 - 1e-12

    def test_metric_eigenvalue_window(self):
        # |Q|_F <= eps0 <= 1 puts mu inside [1, 1 + eps0^2]
        rng = np.random.default_rng(1)
        eps0 = 0.8
        for _ in range(100):
            q = rng.normal(size=(2, 2))
            q = q + q.T
            q *= eps0 * rng.random() / np.linalg.norm(q)
            mu = np.eye(2) + q @ q
            eig = np.linalg.eigvalsh(mu)
            assert eig.min() >= 1.0 - 1e-12
            assert eig.max() <= 1.0 + eps0 * eps0 + 1e-12

    def test_non_finite_rejected(self):
        spec = GridSpec(1, (16,))
        comps = np.full((1, 16), np.inf)
        from lmcf.fields import NonFiniteError

        with pytest.raises(NonFiniteError):
            induced_metric(SymMatrixField(spec, comps))


class TestLagrangianAngle:
    def test_zero(self):
        spec = GridSpec(2, (16, 16))
        theta = lagrangian_angle(const_matrix_field(spec, np.zeros((2, 2))))
        assert sup_norm(theta) == 0.0

    def test_identity_hessian(self):
        spec = GridSpec(2, (16, 16))
        theta = lagrangian_angle(const_matrix_field(spec, np.eye(2)))
        assert np.allclose(theta.values, np.pi / 2.0)

    def test_small_1d_value(self):
        # atan(0.1) to machine precision
        assert abs(angle_point([[0.1]]) - math.atan(0.1)) == 0.0
        assert abs(angle_point([[0.1]]) - 0.09966865249116204) <= 1e-16

    def test_oracle_trivial_cases(self):
        assert reference_point(np.zeros((2, 2))) == 0.0
        assert abs(reference_point(np.diag([1.0, -1.0]))) <= 1e-15

    def test_oracle_equivalence_sweep(self):
        rng = np.random.default_rng(8)
        for n in (1, 2, 3):
            for _ in range(200):
                q = rng.normal(size=(n, n))
                q = q + q.T
                q *= 0.5 * rng.random() / max(np.linalg.norm(q), 1e-12)
                assert abs(angle_point(q) - reference_point(q)) <= 1e-10

    def test_oracle_branch(self):
        # Re det(I + iQ) < 0 at diag(5, 5), so arctan(Im/Re) is off by pi there;
        # at diag(5, 5, 5) the angle exceeds pi, so atan2 alone is off by 2 pi
        assert abs(angle_point(np.diag([5.0, 5.0])) - 2.0 * math.atan(5.0)) <= 1e-13
        assert abs(angle_point(np.diag([5.0, 5.0, 5.0])) - 3.0 * math.atan(5.0)) <= 1e-13
        assert 3.0 * math.atan(5.0) > math.pi

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(-3.0, 3.0, allow_nan=False), min_size=3, max_size=3))
    def test_oddness_exact_2d(self, entries):
        a, b, c = entries
        q = np.array([[a, b], [b, c]])
        assert angle_point(-q) == -angle_point(q)

    @settings(max_examples=50, deadline=None)
    @given(st.floats(-5.0, 5.0, allow_nan=False))
    def test_oddness_exact_1d(self, q):
        assert angle_point([[-q]]) == -angle_point([[q]])

    def test_oddness_exact_3d(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            q = rng.normal(size=(3, 3))
            q = 0.4 * (q + q.T)
            assert angle_point(-q) == -angle_point(q)

    def test_orthogonal_invariance(self):
        rng = np.random.default_rng(10)
        for _ in range(100):
            q = rng.normal(size=(2, 2))
            q = 0.5 * (q + q.T)
            ang = rng.uniform(0, TWO_PI)
            c, s = np.cos(ang), np.sin(ang)
            rot = np.array([[c, -s], [s, c]])
            qr = rot @ q @ rot.T
            qr = 0.5 * (qr + qr.T)
            assert abs(angle_point(qr) - angle_point(q)) <= 1e-12

    def test_angle_bound(self):
        rng = np.random.default_rng(11)
        for n in (1, 2, 3):
            for _ in range(50):
                q = rng.normal(size=(n, n)) * 10.0
                q = q + q.T
                assert abs(angle_point(q)) < n * np.pi / 2.0

    def test_gradient_identity(self):
        # d theta / dQ = (I + Q^2)^(-1), checked by central differences
        rng = np.random.default_rng(12)
        delta = 1e-6
        for _ in range(100):
            q = rng.normal(size=(2, 2))
            q = q + q.T
            q *= 0.5 * rng.random() / max(np.linalg.norm(q), 1e-12)
            fd = np.zeros((2, 2))
            for i in range(2):
                for j in range(i, 2):
                    pert = np.zeros((2, 2))
                    pert[i, j] = pert[j, i] = 1.0
                    step = 2.0 * delta if i == j else 4.0 * delta
                    fd[i, j] = fd[j, i] = (
                        angle_point(q + delta * pert) - angle_point(q - delta * pert)
                    ) / step
            target = angle_gradient(q)
            assert np.linalg.norm(fd - target) <= 1e-5 * np.linalg.norm(target)

    def test_jacobi_matches_numpy(self):
        rng = np.random.default_rng(13)
        qs = rng.normal(size=(200, 3, 3))
        qs = qs + np.transpose(qs, (0, 2, 1))
        lam = jacobi_eigenvalues_sym3(qs)
        lam_ref = np.linalg.eigvalsh(qs)
        assert np.max(np.abs(lam - lam_ref)) <= 1e-11


class TestClosedFormAngle3D:
    """arg det(I + iQ) with the branch lift against eigenvalue arctan sums."""

    @staticmethod
    def angles(qs):
        return _angle_values(sym_from_dense(qs, 3), 3)

    @staticmethod
    def rotated(eigs, rng):
        rot, _ = np.linalg.qr(rng.normal(size=(len(eigs), 3, 3)))
        return np.einsum("kij,kj,klj->kil", rot, eigs, rot)

    @pytest.mark.parametrize("scale", [1e-3, 1e-2, 1e-1, 1.0, 1e1, 1e2, 1e3])
    def test_matches_eigvalsh(self, scale):
        rng = np.random.default_rng(int(round(np.log10(scale))) + 40)
        qs = rng.normal(size=(2000, 3, 3)) * scale
        qs = qs + np.transpose(qs, (0, 2, 1))
        ref = np.arctan(np.linalg.eigvalsh(qs)).sum(axis=-1)
        gap = np.abs(self.angles(qs) - ref) / (1.0 + np.linalg.norm(qs, axis=(1, 2)))
        assert np.max(gap) <= 1e-12

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_definite_on_both_sides_of_pi(self, sign):
        # every eigenvalue sqrt(3) * (1 + d) sums to 3 arctan(.) = pi + O(d)
        rng = np.random.default_rng(50)
        d = np.array([-1e-2, -1e-6, -1e-10, 1e-10, 1e-6, 1e-2, 0.5, 5.0])
        base = np.sqrt(3.0) * (1.0 + d)[:, None] * np.exp(0.1 * rng.normal(size=(len(d), 3)))
        eigs = sign * np.concatenate([base, rng.uniform(0.01, 50.0, size=(200, 3))])
        qs = self.rotated(eigs, rng)
        ref = np.arctan(eigs).sum(axis=-1)
        assert (np.abs(ref) > np.pi).any() and (np.abs(ref) < np.pi).any()
        gap = np.abs(self.angles(qs) - ref) / (1.0 + np.linalg.norm(qs, axis=(1, 2)))
        assert np.max(gap) <= 1e-12

    @pytest.mark.parametrize("t0", [np.sqrt(3.0), -np.sqrt(3.0)])
    def test_continuous_across_pi(self, t0):
        values = [angle_point(np.diag([t, t, t])) for t in (t0 - 1e-15, t0, t0 + 1e-15)]
        assert abs(values[1] - math.copysign(np.pi, t0)) <= 1e-15
        assert max(values) - min(values) <= 1e-14

    @pytest.mark.parametrize("lam", [1e-3, 1.0, 7.0, 1e3])
    def test_repeated_and_zero_eigenvalues(self, lam):
        rng = np.random.default_rng(60)
        eigs = np.array([
            [0.0, 0.0, 0.0], [lam, 0.0, 0.0], [lam, lam, 0.0], [lam, lam, lam],
            [lam, -lam, 0.0], [-lam, -lam, -lam], [lam, lam, -lam], [-lam, 0.0, 0.0],
        ])
        qs = np.concatenate([self.rotated(eigs, rng), eigs[:, None, :] * np.eye(3)])
        ref = np.tile(np.arctan(eigs).sum(axis=-1), 2)
        gap = np.abs(self.angles(qs) - ref) / (1.0 + np.linalg.norm(qs, axis=(1, 2)))
        assert np.max(gap) <= 1e-12

    @staticmethod
    def always_masked(qcomps):
        """The branch lift with both masks built for every batch."""
        re, im, (q00, m01, s3) = _det_i_plus_iq(qcomps, 3)
        theta = np.arctan2(im, re)
        definite = m01 > 0.0
        theta[definite & (q00 > 0.0) & (s3 > 0.0) & (theta < -0.5 * np.pi)] += TWO_PI
        theta[definite & (q00 < 0.0) & (s3 < 0.0) & (theta > 0.5 * np.pi)] -= TWO_PI
        return theta

    @pytest.mark.parametrize("batch", ["inside", "straddling", "outside", "nan", "nan_first"])
    def test_lazy_lift_is_the_always_masked_form(self, batch):
        rng = np.random.default_rng(70)
        small = rng.normal(size=(300, 3)) * 0.1  # |theta| < pi/2 everywhere
        definite = rng.uniform(1.0, 50.0, size=(300, 3))
        eigs = {
            "inside": small,
            "straddling": np.concatenate([small, definite, -definite, rng.normal(size=(300, 3)) * 5.0]),
            "outside": np.concatenate([definite, -definite]),
        }.get(batch, np.concatenate([small, definite, -definite]))
        qcomps = sym_from_dense(self.rotated(eigs, rng), 3)
        if batch == "nan":
            qcomps[1, ::7] = np.nan
        elif batch == "nan_first":  # a NaN angle in front: min() would read NaN
            qcomps[:, 0] = np.nan
        expected = self.always_masked(qcomps)
        theta = _angle_values(qcomps, 3)
        assert np.array_equal(theta.view(np.uint64), expected.view(np.uint64))
        assert (np.abs(expected) > np.pi).any() == (batch != "inside")


class TestVolumeDensity:
    """sqrt(det mu) = |det(I + iQ)| against the LU determinant of I + Q^2."""

    @staticmethod
    def matrices(dim, scale, npoints, rng):
        """Q = R diag(lam) R^T with |lam| in [scale, 2 scale]: half of random
        signs, a quarter positive and a quarter negative definite.  I + Q^2 then
        has condition number at most 4, so its LU determinant is a reference
        to a few ulps; spread eigenvalues leave that reference, not the hypot,
        short of 1e-14 (6.7e-12 against 7.1e-15 at |Q| ~ 1e3 in 3-D, both
        measured against a 40-digit determinant)."""
        q = npoints // 4
        signs = np.concatenate([rng.choice([-1.0, 1.0], size=(npoints - 2 * q, dim)),
                                np.ones((q, dim)), -np.ones((q, dim))])
        lam = scale * rng.uniform(1.0, 2.0, size=(npoints, dim)) * signs
        rot, _ = np.linalg.qr(rng.normal(size=(npoints, dim, dim)))
        return np.einsum("kij,kj,klj->kil", rot, lam, rot)

    @pytest.mark.parametrize("scale", [1e-3, 1e-1, 1.0, 1e1, 1e3])
    @pytest.mark.parametrize("dim,sizes", [(1, (64,)), (2, (16, 16)), (3, (8, 8, 8))])
    def test_matches_lu_determinant(self, dim, sizes, scale):
        spec = GridSpec(dim, sizes)
        rng = np.random.default_rng(dim + int(round(np.log10(scale))) + 80)
        dense = self.matrices(dim, scale, spec.npoints, rng)
        ref = np.sqrt(np.linalg.det(np.eye(dim) + dense @ dense))
        comps = sym_from_dense(dense, dim).reshape((-1,) + sizes)
        M = induced_metric(SymMatrixField(spec, comps))
        assert np.max(np.abs(M.sqrt_det.values.reshape(-1) / ref - 1.0)) <= 1e-14
        vol = volume(M)
        assert abs(vol / (np.sum(ref) * spec.cell_volume) - 1.0) <= 1e-14
        if dim == 3 and scale >= 10.0:  # definite Q with theta beyond +-pi
            theta = _angle_values(comps, 3).reshape(-1)
            assert (theta > np.pi).any() and (theta < -np.pi).any()


class TestMeanCurvatureForm:
    def test_constant_potential(self):
        spec = GridSpec(1, (32,))
        u = PeriodicScalarField.constant(spec, 1.3)
        alpha = mean_curvature_one_form(u, kappa=-1.0)
        assert sup_norm(alpha) <= 1e-12

    def test_matches_gradient_definition(self):
        spec = GridSpec(1, (64,))
        u = random_bandlimited_potential(spec, 0.05, 3, seed=21)
        kappa = -0.5
        alpha = mean_curvature_one_form(u, kappa)
        theta = lagrangian_angle(derivative(u, 2))
        s = PeriodicScalarField(spec, theta.values + kappa * u.values)
        expected = derivative(s, 1)
        assert np.max(np.abs(alpha.components + expected.components)) <= 1e-12


class TestLaplaceBeltrami:
    def test_flat_metric_reduces_to_laplacian(self):
        spec = GridSpec(2, (32, 32))
        M = induced_metric(const_matrix_field(spec, np.zeros((2, 2))))
        f = random_bandlimited_potential(spec, 1.0, 3, seed=31)
        from lmcf.fields import laplacian_flat

        flat = laplacian_flat(f).values
        for route in ("divergence", "christoffel"):
            got = laplace_beltrami(f, M, route).values
            assert np.max(np.abs(got - flat)) <= 1e-10 * max(1.0, np.max(np.abs(flat)))

    def test_constant_coefficient_1d(self):
        spec = GridSpec(1, (64,))
        q = 0.4
        M = induced_metric(const_matrix_field(spec, [[q]]))
        x = spec.coordinates()[0]
        f = PeriodicScalarField(spec, np.sin(TWO_PI * x))
        expected = -(TWO_PI ** 2) * np.sin(TWO_PI * x) / (1.0 + q * q)
        got = laplace_beltrami(f, M, "divergence").values
        assert np.max(np.abs(got - expected)) <= 1e-9

    def test_two_routes_agree(self):
        spec = GridSpec(1, (128,))
        u_raw = random_bandlimited_potential(spec, 0.05, 3, seed=32)
        hess = derivative(u_raw, 2)
        u = PeriodicScalarField(spec, 0.3 / sup_norm(hess) * u_raw.values)
        f = random_bandlimited_potential(spec, 1.0, 3, seed=33)
        M = metric_from_potential(u)
        div = laplace_beltrami(f, M, "divergence").values
        chr_ = laplace_beltrami(f, M, "christoffel").values
        assert np.max(np.abs(div - chr_)) <= 1e-8 * np.max(np.abs(div))

    def test_two_routes_agree_3d(self):
        spec = GridSpec(3, (16, 16, 16))
        u = random_bandlimited_potential(spec, 0.05, 1, seed=35)
        f = random_bandlimited_potential(spec, 1.0, 1, seed=36)
        M = metric_from_potential(u)
        div = laplace_beltrami(f, M, "divergence").values
        chr_ = laplace_beltrami(f, M, "christoffel").values
        assert np.max(np.abs(div - chr_)) <= 1e-8 * np.max(np.abs(div))

    def test_bad_route(self):
        spec = GridSpec(1, (16,))
        M = metric_from_potential(PeriodicScalarField.zeros(spec))
        with pytest.raises(ValueError):
            laplace_beltrami(PeriodicScalarField.zeros(spec), M, "spectral-oops")

    def test_self_adjointness(self):
        spec = GridSpec(1, (64,))
        u = random_bandlimited_potential(spec, 0.05, 3, seed=41)
        M = metric_from_potential(u)
        f = random_bandlimited_potential(spec, 1.0, 3, seed=42)
        g = random_bandlimited_potential(spec, 1.0, 3, seed=43)
        lf = laplace_beltrami(f, M)
        lg = laplace_beltrami(g, M)
        scale = (
            sup_norm(derivative(f, 1)) * sup_norm(derivative(g, 1)) * spec.torus_volume
            + 1.0
        )
        sym_gap = abs(
            l2_pairing(f, lg, weight=M.sqrt_det) - l2_pairing(g, lf, weight=M.sqrt_det)
        )
        assert sym_gap <= 1e-8 * scale
        one = PeriodicScalarField.constant(spec, 1.0)
        assert abs(l2_pairing(lf, one, weight=M.sqrt_det)) <= 1e-8 * scale


class TestVolume:
    def test_flat_graph(self):
        spec = GridSpec(1, (32,))
        M = metric_from_potential(PeriodicScalarField.constant(spec, 2.0))
        assert abs(volume(M) - 1.0) <= 1e-13

    def test_against_dense_quadrature(self):
        # oracle: periodic trapezoid quadrature of the exact 1-d integrand
        spec = GridSpec(1, (64,))
        x = spec.coordinates()[0]
        eps = 1e-2
        u = PeriodicScalarField(spec, eps * np.sin(TWO_PI * x))
        got = graph_volume(u)
        xs = np.arange(200_000) / 200_000
        integrand = np.sqrt(1.0 + (eps * (TWO_PI ** 2) * np.sin(TWO_PI * xs)) ** 2)
        oracle = integrand.mean()
        assert abs(got - oracle) <= 1e-10

    def test_excess_scales_quadratically(self):
        spec = GridSpec(1, (64,))
        x = spec.coordinates()[0]
        excesses = []
        eps_list = (4e-3, 2e-3, 1e-3)
        for eps in eps_list:
            u = PeriodicScalarField(spec, eps * np.sin(TWO_PI * x))
            excess = graph_volume(u) - 1.0
            assert excess >= 0.0
            excesses.append(excess)
        slope = np.polyfit(np.log(eps_list), np.log(excesses), 1)[0]
        assert abs(slope - 2.0) <= 0.05
