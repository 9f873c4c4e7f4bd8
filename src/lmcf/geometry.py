"""Pointwise Lagrangian-graph geometry over a flat torus.

For a graph generated by the differential of a potential u, the induced
metric is mu = I + Q^2 with Q the Hessian of u, the Lagrangian angle is
theta = sum_i arctan(lambda_i(Q)), and the mean curvature 1-form is
-d(theta + kappa*u).  Everything here is a pure function of pointwise
matrix data plus flat partial derivatives.

By Harvey and Lawson, the holomorphic volume form restricts to the graph as
det(I + iQ) dx = e^{i theta} dvol, so the angle and the volume density
sqrt(det mu) are the argument and the modulus of one complex number,
(1 - s2) + i(s1 - s3) with s_k the elementary symmetric functions of the
eigenvalues of Q.  Both come from the same pointwise pass: theta is its
atan2, lifted by 2*pi off the principal branch, and sqrt(det mu) its hypot.
The eigenvalue route is kept as the reference
``lmcf.verification.eigen_angle_values``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import (
    NonFiniteError,
    PeriodicScalarField,
    SpecMismatchError,
    SymMatrixField,
    VectorField,
    derivative,
    sym_indices,
    sym_positions,
    tree_sum,
)

@dataclass(frozen=True, eq=False)
class InducedMetricField:
    """mu, its inverse and sqrt(det mu) as fields over one grid."""

    mu: SymMatrixField
    mu_inv: SymMatrixField
    sqrt_det: PeriodicScalarField

    @property
    def spec(self):
        return self.mu.spec


def _square_components(q, dim):
    """Components of Q @ Q from the symmetric component stack of Q."""
    if dim == 1:
        return q[0] * q[0],
    if dim == 2:
        q00, q01, q11 = q
        return (q00 * q00 + q01 * q01, q01 * (q00 + q11), q01 * q01 + q11 * q11)
    q00, q01, q02, q11, q12, q22 = q
    return (
        q00 * q00 + q01 * q01 + q02 * q02,
        q00 * q01 + q01 * q11 + q02 * q12,
        q00 * q02 + q01 * q12 + q02 * q22,
        q01 * q01 + q11 * q11 + q12 * q12,
        q01 * q02 + q11 * q12 + q12 * q22,
        q02 * q02 + q12 * q12 + q22 * q22,
    )


def _metric_arrays(qcomps, dim):
    """(mu comps, mu_inv comps) for mu = I + Q^2, mu_inv by cofactors over det mu."""
    sq = _square_components(qcomps, dim)
    if dim == 1:
        m00 = 1.0 + sq[0]
        return (m00,), (1.0 / m00,)
    if dim == 2:
        m00, m01, m11 = 1.0 + sq[0], sq[1], 1.0 + sq[2]
        det = m00 * m11 - m01 * m01
        return (m00, m01, m11), (m11 / det, -m01 / det, m00 / det)
    m00, m01, m02 = 1.0 + sq[0], sq[1], sq[2]
    m11, m12, m22 = 1.0 + sq[3], sq[4], 1.0 + sq[5]
    c00 = m11 * m22 - m12 * m12
    c01 = m02 * m12 - m01 * m22
    c02 = m01 * m12 - m02 * m11
    det = m00 * c00 + m01 * c01 + m02 * c02
    inv = (
        c00 / det,
        c01 / det,
        c02 / det,
        (m00 * m22 - m02 * m02) / det,
        (m01 * m02 - m00 * m12) / det,
        (m00 * m11 - m01 * m01) / det,
    )
    return (m00, m01, m02, m11, m12, m22), inv


def induced_metric(Q: SymMatrixField, sqrt_det=None) -> InducedMetricField:
    """First fundamental form mu = I + Q^2 of the graph, with inverse and sqrt(det);
    ``sqrt_det``, if given, is Q's ``_angle_and_density`` density, not recomputed."""
    if not np.isfinite(Q.components).all():
        raise NonFiniteError("induced_metric of a non-finite Hessian field")
    mu_c, inv_c = _metric_arrays(Q.components, Q.spec.dim)
    if sqrt_det is None:
        sqrt_det = _angle_and_density(Q.components, Q.spec.dim)[1]
    return InducedMetricField(
        mu=SymMatrixField(Q.spec, np.stack(mu_c)),
        mu_inv=SymMatrixField(Q.spec, np.stack(inv_c)),
        sqrt_det=PeriodicScalarField(Q.spec, sqrt_det),
    )


def jacobi_eigenvalues_sym3(dense):
    """Ascending eigenvalues of a (..., 3, 3) symmetric stack from LAPACK's eigvalsh;
    NaN at a non-finite matrix, on which eigvalsh would raise."""
    finite = np.isfinite(dense).all(axis=(-2, -1))
    if finite.all():
        return np.linalg.eigvalsh(dense)
    eig = np.full(dense.shape[:-1], np.nan)
    eig[finite] = np.linalg.eigvalsh(dense[finite])
    return eig


def _det_i_plus_iq(qcomps, dim):
    """(Re, Im) of det(I + iQ) for n = 2, 3 from the component stack of Q, and
    in 3-D the leading minors (q00, m01, s3) that the branch lift reads."""
    if dim == 2:
        q00, q01, q11 = qcomps
        return 1.0 - (q00 * q11 - q01 * q01), q00 + q11, None
    q00, q01, q02, q11, q12, q22 = qcomps
    m01 = q00 * q11 - q01 * q01
    m12 = q11 * q22 - q12 * q12
    s2 = m01 + (q00 * q22 - q02 * q02) + m12
    s3 = q00 * m12 + q01 * (q12 * q02 - q01 * q22) + q02 * (q01 * q12 - q11 * q02)
    return 1.0 - s2, (q00 + q11 + q22) - s3, (q00, m01, s3)


def _lifted_angle(re, im, minors):
    """arg det(I + iQ) = atan2(Im, Re) on the continuous branch |theta| < n*pi/2."""
    theta = np.arctan2(im, re)
    if minors is None:
        return theta
    # |theta| > pi forces all three arctans to one sign, so off the principal
    # branch Q is definite (Sylvester on q00, m01, s3).  The masks are built
    # only when some atan2 is past pi/2; any() is False on NaN, where min()
    # would return NaN and skip every point.
    q00, m01, s3 = minors
    if (theta < -0.5 * np.pi).any():
        theta[(m01 > 0.0) & (q00 > 0.0) & (s3 > 0.0) & (theta < -0.5 * np.pi)] += 2.0 * np.pi
    if (theta > 0.5 * np.pi).any():
        theta[(m01 > 0.0) & (q00 < 0.0) & (s3 < 0.0) & (theta > 0.5 * np.pi)] -= 2.0 * np.pi
    return theta


def _angle_values(qcomps, dim):
    """theta = sum_i arctan(lambda_i(Q)) = arg det(I + iQ) from the component stack of Q."""
    if dim == 1:
        return np.arctan(qcomps[0])
    return _lifted_angle(*_det_i_plus_iq(qcomps, dim))


def _angle_and_density(qcomps, dim):
    """``(_angle_values, sqrt(det(I + Q^2)))`` of one stack from one det(I + iQ):
    the density is |det(I + iQ)|, the one definition every volume reads."""
    if dim == 1:
        q = qcomps[0]
        return np.arctan(q), np.hypot(1.0, q)
    re, im, minors = _det_i_plus_iq(qcomps, dim)
    return _lifted_angle(re, im, minors), np.hypot(re, im)


def lagrangian_angle(Q: SymMatrixField) -> PeriodicScalarField:
    """Lagrangian angle of the graph with Hessian field Q (continuous branch),
    |theta| < n*pi/2 pointwise."""
    return PeriodicScalarField(Q.spec, _angle_values(np.asarray(Q.components), Q.spec.dim))


def angle_gradient(Q) -> np.ndarray:
    """d(theta)/dQ at one point: the inverse metric (I + Q^2)^(-1)."""
    Q = np.asarray(Q, dtype=np.float64)
    return np.linalg.inv(np.eye(Q.shape[0]) + Q @ Q)


def mean_curvature_one_form(u: PeriodicScalarField, kappa: float) -> VectorField:
    """Mean curvature 1-form of the graph: -d(theta + kappa*u)."""
    hess = derivative(u, 2)
    theta = _angle_values(hess.components, u.spec.dim)
    s = PeriodicScalarField(u.spec, theta + kappa * u.values)
    grad = derivative(s, 1)
    return VectorField(u.spec, -grad.components)


def raise_index(M: InducedMetricField, covector):
    """mu^{ij} v_j for a covector stack of shape (n, *sizes)."""
    n = M.spec.dim
    pos = sym_positions(n, 2)
    inv = M.mu_inv.components
    out = np.zeros((n,) + M.spec.sizes)
    for i in range(n):
        for j in range(n):
            out[i] += inv[pos[i, j]] * covector[j]
    return out


def metric_trace(M: InducedMetricField, sym2):
    """mu^{ij} S_ij for a packed symmetric 2-tensor stack S."""
    n = M.spec.dim
    pos = sym_positions(n, 2)
    inv = M.mu_inv.components
    out = np.zeros(M.spec.sizes)
    for i in range(n):
        for j in range(n):
            out += inv[pos[i, j]] * sym2[pos[i, j]]
    return out


def laplace_beltrami(
    f: PeriodicScalarField,
    M: InducedMetricField,
    route: str = "divergence",
    scheme: str = "spectral",
) -> PeriodicScalarField:
    """Laplace-Beltrami operator of the induced metric applied to f.

    ``divergence`` route: (1/sqrt(det mu)) d_i(sqrt(det mu) mu^{ij} d_j f).
    ``christoffel`` route: mu^{ij} (d_i d_j f - Gamma^k_ij d_k f), kept as an
    independent oracle for the divergence form.
    """
    if f.spec != M.spec:
        raise SpecMismatchError("f and metric live on different grids")
    if route not in ("divergence", "christoffel"):
        raise ValueError(f"unknown route {route!r}")
    n = f.spec.dim
    grad_f = derivative(f, 1, scheme).components

    if route == "divergence":
        sqrt_det = M.sqrt_det.values
        flux = raise_index(M, grad_f)
        out = np.zeros(f.spec.sizes)
        for i in range(n):
            g = PeriodicScalarField(f.spec, sqrt_det * flux[i])
            out += derivative(g, 1, scheme).components[i]
        return PeriodicScalarField(f.spec, out / sqrt_det)

    # christoffel route
    pos = sym_positions(n, 2)
    inv = M.mu_inv.components
    dmu = {}  # dmu[(l, i, j)] = d_l mu_ij
    for i, j in sym_indices(n, 2):
        comp = PeriodicScalarField(f.spec, M.mu.components[pos[i, j]])
        g = derivative(comp, 1, scheme).components
        for l in range(n):
            dmu[(l, i, j)] = g[l]
            dmu[(l, j, i)] = g[l]
    out = metric_trace(M, derivative(f, 2, scheme).components)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                gamma = np.zeros(f.spec.sizes)
                for l in range(n):
                    gamma += inv[pos[k, l]] * (dmu[(i, j, l)] + dmu[(j, i, l)] - dmu[(l, i, j)])
                out -= 0.5 * inv[pos[i, j]] * gamma * grad_f[k]
    return PeriodicScalarField(f.spec, out)


def _sqrt_det_volume(sqrt_det, spec):
    return tree_sum(sqrt_det) * spec.cell_volume


def volume(M: InducedMetricField) -> float:
    """Total Riemannian volume of the graph."""
    return _sqrt_det_volume(M.sqrt_det.values, M.spec)


def metric_from_potential(u: PeriodicScalarField) -> InducedMetricField:
    """Induced metric of the graph generated by the potential u."""
    return induced_metric(derivative(u, 2))


def graph_volume(u: PeriodicScalarField) -> float:
    """Volume of the graph generated by the potential u."""
    hess = derivative(u, 2).components
    return _sqrt_det_volume(_angle_and_density(hess, u.spec.dim)[1], u.spec)
