"""Periodic grid fields on flat tori and their differential calculus.

Fields live on a uniform grid over T^n (n = 1, 2 or 3) with the flat metric,
so every covariant derivative reduces to plain partial derivatives and all
pointwise tensor norms are Euclidean/Frobenius norms of the component arrays.

Two differentiation schemes are provided:

* ``spectral`` — FFT differentiation, exact for band-limited fields up to
  roundoff.  Nyquist modes are zeroed for odd derivative orders so that
  real input always maps to real output.  On 1-D grids of at most
  ``DFT_MATRIX_MAX_N`` = 128 points the same operator runs as two real
  matrix-vector products, which skip numpy.fft's fixed per-call cost; the
  input is shifted by its first value so that a constant maps to exact zeros.
  On the FFT route each state's jets cost one forward transform inside
  ``reusing_spectra`` (the block ``flow.integrate`` runs in): the spectrum of
  the last frozen input is kept and serves every rank.  Arrays lmcf freezes
  must stay frozen; a caller who turns writes back on would get stale jets.
* ``central4`` — 4th-order centered finite differences with periodic wrap,
  kept as an independent fallback so discretization error can be separated
  from modeling error.

Every operator writes its components straight into one packed stack.  The
stacks it returns are read-only; ``hessian_into`` fills caller-owned buffers
instead, so that a time stepper allocates its stage Hessians once.

This module owns the packed symmetric layout: a symmetric tensor stores
each distinct component once, in sorted multi-index order, and everything
that depends on that layout lives here and works on raw component stacks —
Frobenius norms weighted by index multiplicities (``sym_norm_sq``), the
packed <-> dense matrix conversion, and the decay monitor
psi = C0 u^2 + C1 |du|^2 + |D^2 u|^2 (``psi_values``).
"""

from __future__ import annotations

import itertools
import math
import operator
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

SCHEMES = ("spectral", "central4")


class SpecMismatchError(ValueError):
    """Operands were built over different grids."""


class UnsupportedOrderError(ValueError):
    """Requested derivative order outside 1..4."""


class NonFiniteError(ValueError):
    """Input field contains NaN or Inf."""


@dataclass(frozen=True)
class GridSpec:
    """Uniform periodic grid: per-axis point counts and periods.

    Sizes must be even (unambiguous Nyquist handling) and at least 8.
    """

    dim: int
    sizes: tuple
    periods: tuple

    def __init__(self, dim, sizes, periods=None):
        sizes = tuple(int(s) for s in sizes)
        if dim not in (1, 2, 3):
            raise ValueError(f"dim must be 1, 2 or 3, got {dim}")
        if len(sizes) != dim:
            raise ValueError(f"expected {dim} sizes, got {len(sizes)}")
        for s in sizes:
            if s < 8 or s % 2 != 0:
                raise ValueError(f"grid sizes must be even and >= 8, got {s}")
        if periods is None:
            periods = (1.0,) * dim
        periods = tuple(float(p) for p in periods)
        if len(periods) != dim:
            raise ValueError(f"expected {dim} periods, got {len(periods)}")
        for p in periods:
            if not (p > 0.0 and math.isfinite(p)):
                raise ValueError(f"periods must be positive, got {p}")
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "sizes", sizes)
        object.__setattr__(self, "periods", periods)

    @property
    def spacings(self):
        return tuple(p / s for p, s in zip(self.periods, self.sizes))

    @property
    def npoints(self):
        return int(np.prod(self.sizes))

    @property
    def cell_volume(self):
        return float(np.prod(self.spacings))

    @property
    def torus_volume(self):
        return float(np.prod(self.periods))

    def coordinates(self):
        """Meshgrid coordinate arrays, one per axis, shape == sizes."""
        axes = [np.arange(n) * (p / n) for n, p in zip(self.sizes, self.periods)]
        return np.meshgrid(*axes, indexing="ij")


def _frozen_array(values):
    """Read-only C-contiguous float64 copy; reuses arrays already frozen."""
    vals = np.asarray(values)
    if vals.dtype == np.float64 and vals.flags.c_contiguous and not vals.flags.writeable:
        return vals
    vals = np.array(vals, dtype=np.float64, order="C")
    vals.flags.writeable = False
    return vals


def _check_same_spec(a, b):
    if a.spec != b.spec:
        raise SpecMismatchError(f"grid specs differ: {a.spec} vs {b.spec}")


@dataclass(frozen=True, eq=False)
class PeriodicScalarField:
    """Sampled real function on a periodic grid; immutable once built."""

    spec: GridSpec
    values: np.ndarray

    def __post_init__(self):
        vals = _frozen_array(self.values)
        if vals.shape != self.spec.sizes:
            raise ValueError(
                f"values shape {vals.shape} does not match grid {self.spec.sizes}"
            )
        object.__setattr__(self, "values", vals)

    @classmethod
    def zeros(cls, spec):
        return cls(spec, np.zeros(spec.sizes))

    @classmethod
    def constant(cls, spec, value):
        return cls(spec, np.full(spec.sizes, float(value)))

    def is_finite(self):
        return bool(np.isfinite(self.values).all())


@lru_cache(maxsize=None)
def sym_indices(dim, rank):
    """Sorted multi-indices of a fully symmetric rank-``rank`` tensor."""
    return tuple(itertools.combinations_with_replacement(range(dim), rank))


@lru_cache(maxsize=None)
def sym_multiplicities(dim, rank):
    """Number of index permutations represented by each stored component."""
    mults = []
    for idx in sym_indices(dim, rank):
        counts = [idx.count(a) for a in set(idx)]
        m = math.factorial(rank)
        for c in counts:
            m //= math.factorial(c)
        mults.append(m)
    return tuple(mults)


@lru_cache(maxsize=None)
def _multiplicity_weights(dim, rank):
    weights = np.array(sym_multiplicities(dim, rank), dtype=np.float64)
    weights.flags.writeable = False
    return weights


@lru_cache(maxsize=None)
def sym_positions(dim, rank):
    """Packed position of every (unsorted) multi-index of a symmetric tensor."""
    return {
        perm: pos
        for pos, idx in enumerate(sym_indices(dim, rank))
        for perm in itertools.permutations(idx)
    }


def sym_norm_sq(comps, dim, rank):
    """Pointwise squared Frobenius norm of a packed stack of shape (ncomp, ...)."""
    sq = comps * comps
    if len(sq) == 1:  # a lone component has multiplicity 1
        return sq[0]
    return np.einsum("c...,c->...", sq, _multiplicity_weights(dim, rank))


def sym_sup_norm(comps, dim, rank):
    """Max over the grid of the Frobenius norm of a packed stack."""
    # ndarray.max skips np.max's dispatch (~3 us of a 64-point call), same reduction
    return float(np.sqrt(sym_norm_sq(comps, dim, rank).max()))


def sym_to_dense(comps, dim):
    """Dense (..., n, n) matrices from a packed symmetric-matrix stack (ncomp, ...)."""
    dense = np.empty(comps.shape[1:] + (dim, dim))
    for pos, (i, j) in enumerate(sym_indices(dim, 2)):
        dense[..., i, j] = comps[pos]
        dense[..., j, i] = comps[pos]
    return dense


def sym_from_dense(dense, dim):
    """Packed stack (ncomp, ...) of the symmetric matrices in a (..., n, n) array."""
    return np.stack([dense[..., i, j] for i, j in sym_indices(dim, 2)])


def psi_values(u, du_sq, d2u_sq, C0, C1):
    """Pointwise psi = C0 u^2 + C1 |du|^2 + |D^2 u|^2 from u and its squared jet norms."""
    return C0 * u * u + C1 * du_sq + d2u_sq


@dataclass(frozen=True, eq=False)
class SymTensorField:
    """Field of fully symmetric tensors, one array per distinct component."""

    spec: GridSpec
    rank: int
    components: np.ndarray  # shape (ncomp, *sizes)

    def __post_init__(self):
        comps = _frozen_array(self.components)
        ncomp = len(sym_indices(self.spec.dim, self.rank))
        if comps.shape != (ncomp,) + self.spec.sizes:
            raise ValueError(
                f"components shape {comps.shape} does not match "
                f"({ncomp},) + {self.spec.sizes}"
            )
        object.__setattr__(self, "components", comps)

    @property
    def indices(self):
        return sym_indices(self.spec.dim, self.rank)

    def component(self, *idx):
        """One component as a scalar field; index order is irrelevant."""
        key = tuple(sorted(idx))
        pos = self.indices.index(key)
        return PeriodicScalarField(self.spec, self.components[pos])

    def pointwise_norm_sq(self):
        """|T|^2 at every point, counting index multiplicities."""
        return PeriodicScalarField(
            self.spec, sym_norm_sq(self.components, self.spec.dim, self.rank)
        )


class VectorField(SymTensorField):
    def __init__(self, spec, components):
        super().__init__(spec, 1, components)


class SymMatrixField(SymTensorField):
    def __init__(self, spec, components):
        super().__init__(spec, 2, components)

    def to_dense(self):
        """Dense (*sizes, n, n) array of the symmetric matrices."""
        return sym_to_dense(self.components, self.spec.dim)


class SymTensor3Field(SymTensorField):
    def __init__(self, spec, components):
        super().__init__(spec, 3, components)


class SymTensor4Field(SymTensorField):
    def __init__(self, spec, components):
        super().__init__(spec, 4, components)


_TENSOR_BY_RANK = {1: VectorField, 2: SymMatrixField, 3: SymTensor3Field, 4: SymTensor4Field}


# ---------------------------------------------------------------------------
# spectral machinery

@lru_cache(maxsize=32)
def _wavenumbers(spec):
    """Per-axis angular wavenumber arrays in rfftn layout, broadcast-shaped."""
    ks = []
    for axis in range(spec.dim):
        n = spec.sizes[axis]
        d = spec.periods[axis] / n
        if axis == spec.dim - 1:
            k = 2.0 * np.pi * np.fft.rfftfreq(n, d=d)
        else:
            k = 2.0 * np.pi * np.fft.fftfreq(n, d=d)
        shape = [1] * spec.dim
        shape[axis] = k.size
        ks.append(k.reshape(shape))
    return tuple(ks)


@lru_cache(maxsize=32)
def _nyquist_masks(spec):
    """Boolean per-axis masks selecting the Nyquist wavenumber."""
    masks = []
    for axis in range(spec.dim):
        n = spec.sizes[axis]
        if axis == spec.dim - 1:
            idx = np.arange(n // 2 + 1)
        else:
            idx = np.abs(np.fft.fftfreq(n) * n).astype(int)
        m = idx == n // 2
        shape = [1] * spec.dim
        shape[axis] = m.size
        masks.append(m.reshape(shape))
    return tuple(masks)


@lru_cache(maxsize=128)
def _spectral_multiplier(spec, powers):
    """Fourier multiplier of the partial derivative with the given per-axis powers.

    Odd powers zero the Nyquist mode of their axis so real maps to real.
    """
    ks = _wavenumbers(spec)
    nyq = _nyquist_masks(spec)
    mult = np.ones((1,) * spec.dim, dtype=np.complex128)
    for axis, m in enumerate(powers):
        if m == 0:
            continue
        k = ks[axis]
        fac = (-(k * k)) ** (m // 2) if m % 2 == 0 else (1j * k) * (-(k * k)) ** ((m - 1) // 2)
        if m % 2 == 1:
            fac = np.where(nyq[axis], 0.0, fac)
        mult = mult * fac
    mult.flags.writeable = False
    return mult


def _powers_of(idx, dim):
    powers = [0] * dim
    for a in idx:
        powers[a] += 1
    return tuple(powers)


# ---------------------------------------------------------------------------
# 4th-order centered stencils

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


def _central4_partial(values, axis, h, power):
    # powers 3 and 4 compose the first/second-derivative stencils, which
    # keeps 4th-order accuracy and exact commutation across axes
    if power == 1:
        return _d1_central4(values, axis, h)
    if power == 2:
        return _d2_central4(values, axis, h)
    if power == 3:
        return _d1_central4(_d2_central4(values, axis, h), axis, h)
    return _d2_central4(_d2_central4(values, axis, h), axis, h)


# ---------------------------------------------------------------------------
# cached per-grid differentiation operators (hot-loop path)

def _rank_multipliers(spec, rank):
    """Spectral multipliers of the packed rank-``rank`` components, in order."""
    return tuple(
        _spectral_multiplier(spec, _powers_of(idx, spec.dim))
        for idx in sym_indices(spec.dim, rank)
    )


class _JetOps:
    """Jets of raw value arrays on one grid, written into packed stacks.

    ``components`` returns a fresh read-only stack.  ``hessian_into`` writes
    into buffers from ``hessian_buffers`` and returns their (writable) stack,
    which the next call overwrites: a stepper allocates its stage buffers once.
    """

    def __init__(self, spec):
        self.spec = spec
        self._shapes = {rank: (len(sym_indices(spec.dim, rank)),) + spec.sizes
                        for rank in (1, 2, 3, 4)}

    def _work(self):
        """Work buffer that ``_write`` needs besides the output stack."""
        return None

    def reusing_spectra(self):
        """Block whose read-only inputs are not written again while it runs;
        only the FFT route keeps spectra in it."""
        return nullcontext()

    def components(self, values, rank):
        out = np.empty(self._shapes[rank])
        self._write(values, rank, out, self._work())
        out.flags.writeable = False
        return out

    def gradient(self, values):
        return self.components(values, 1)

    def hessian(self, values):
        return self.components(values, 2)

    def hessian_buffers(self):
        return np.empty(self._shapes[2]), self._work()

    def hessian_into(self, values, buffers):
        out, work = buffers
        self._write(values, 2, out, work)
        return out


class _FftJetOps(_JetOps):
    """FFT jets.  Inside ``reusing_spectra`` the spectrum of the last input
    that is read-only and owns its data is kept, so every jet of one state
    costs one forward transform; a writable array or a view (whose base may
    be writable) is transformed on every call.  The kept pair is dropped when
    the block ends, and outside it every call transforms its input.
    """

    def __init__(self, spec):
        super().__init__(spec)
        self._axes = tuple(range(spec.dim))
        self._mults = {}
        self._reuse = False
        self._held = None, None  # (input, spectrum)

    @contextmanager
    def reusing_spectra(self):
        reuse, self._reuse = self._reuse, True
        try:
            yield
        finally:
            self._reuse = reuse
            self._held = None, None

    def _multipliers(self, rank):
        mults = self._mults.get(rank)
        if mults is None:
            mults = self._mults[rank] = _rank_multipliers(self.spec, rank)
        return mults

    def _forward(self, values):
        if self.spec.dim == 1:
            return np.fft.rfft(values)
        return np.fft.rfftn(values, axes=self._axes)

    def _spectrum(self, values):
        held, spectrum = self._held
        if values is held:
            return spectrum
        spectrum = self._forward(values)
        if self._reuse and not values.flags.writeable and values.flags.owndata:
            self._held = values, spectrum
        return spectrum

    def _work(self):
        sizes = self.spec.sizes
        return np.empty(sizes[:-1] + (sizes[-1] // 2 + 1,), dtype=np.complex128)

    def _write(self, values, rank, out, work):
        spectrum = self._spectrum(values)
        sizes = self.spec.sizes
        for comp, mult in zip(out, self._multipliers(rank)):
            np.multiply(spectrum, mult, out=work)
            if self.spec.dim == 1:
                np.fft.irfft(work, n=sizes[0], out=comp)
            else:
                np.fft.irfftn(work, s=sizes, axes=self._axes, out=comp)


# Largest 1-D spectral grid on which the DFT matrix pair beats numpy.fft.  One
# Hessian on a 2-vCPU x86 VM, numpy 2.4 with OpenBLAS 0.3.31 and pocketfft:
# N = 64 4-7 us against 12-20 us, N = 128 9-11 us against 14-22 us, N = 256
# 29 us against 24-25 us.
DFT_MATRIX_MAX_N = 128


class _DftMatrixJetOps(_JetOps):
    """Spectral jets on a small 1-D grid as two real matrix-vector products.

    ``D_r u = G_r @ (F @ (u - u[0]))``: F (N+2, N) stacks the real and
    imaginary parts of ``rfft`` of the identity, and G_r (N, N+2) is ``irfft``
    of the rank-r multiplier times each half-spectrum basis vector.  Keeping
    the transform and the multiplier apart keeps the FFT's roundoff structure,
    so ``D1(D1 u)`` and ``D2 u`` agree as closely as on the FFT route.  The
    shift by ``u[0]`` changes no derivative and makes a constant input map to
    exact zeros.  No spectrum is kept: on these grids the forward product is
    cheaper than the bookkeeping, and the inputs are mostly RK4 stages.
    """

    def __init__(self, spec):
        super().__init__(spec)
        fhat = np.fft.rfft(np.eye(spec.sizes[0]), axis=0)
        self._forward_matrix = _frozen_array(np.concatenate([fhat.real, fhat.imag]))
        self._inverse = {}

    def _inverse_matrix(self, rank):
        inv = self._inverse.get(rank)
        if inv is None:
            n = self.spec.sizes[0]
            half = np.eye(n // 2 + 1)
            (mult,) = _rank_multipliers(self.spec, rank)
            basis = np.concatenate([half, 1j * half]) * mult
            inv = self._inverse[rank] = _frozen_array(np.fft.irfft(basis, n=n).T)
        return inv

    def _write(self, values, rank, out, work):
        np.matmul(self._inverse_matrix(rank), self._forward_matrix @ (values - values[0]),
                  out=out[0])


class _Central4JetOps(_JetOps):
    def _write(self, values, rank, out, work):
        hs = self.spec.spacings
        for comp, idx in zip(out, sym_indices(self.spec.dim, rank)):
            deriv = values
            for axis, m in enumerate(_powers_of(idx, self.spec.dim)):
                if m:
                    deriv = _central4_partial(deriv, axis, hs[axis], m)
            comp[...] = deriv


@lru_cache(maxsize=32)
def jet_ops(spec, scheme):
    """Cached differentiation operator for raw value arrays on one grid."""
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}, expected one of {SCHEMES}")
    if scheme == "central4":
        return _Central4JetOps(spec)
    if spec.dim == 1 and spec.sizes[0] <= DFT_MATRIX_MAX_N:
        return _DftMatrixJetOps(spec)
    return _FftJetOps(spec)


# ---------------------------------------------------------------------------
# public operations

def derivative(f: PeriodicScalarField, order: int, scheme: str = "spectral"):
    """All distinct symmetrized partial derivatives of the given order.

    Returns a VectorField, SymMatrixField, SymTensor3Field or SymTensor4Field
    for order 1..4 respectively.
    """
    try:
        order = operator.index(order)
    except TypeError:
        raise UnsupportedOrderError(f"derivative order must be an integer, got {order!r}") from None
    if order < 1 or order > 4:
        raise UnsupportedOrderError(f"derivative order must be 1..4, got {order}")
    ops = jet_ops(f.spec, scheme)
    if not f.is_finite():
        raise NonFiniteError("derivative of a non-finite field")
    return _TENSOR_BY_RANK[order](f.spec, ops.components(f.values, order))


def laplacian_flat(f: PeriodicScalarField, scheme: str = "spectral"):
    """Trace of the Hessian: the flat-metric Laplacian."""
    hess = derivative(f, 2, scheme)
    out = np.zeros(f.spec.sizes)
    for pos, (i, j) in enumerate(hess.indices):
        if i == j:
            out += hess.components[pos]
    return PeriodicScalarField(f.spec, out)


def sup_norm(field):
    """Max over the grid of the pointwise norm (|.| for scalars, Frobenius for tensors)."""
    if isinstance(field, PeriodicScalarField):
        return float(np.max(np.abs(field.values)))
    return sym_sup_norm(field.components, field.spec.dim, field.rank)


def tree_sum(a):
    """Deterministic fixed-order pairwise summation of a float array.

    Folds the flattened (row-major) array in half repeatedly; the reduction
    order never depends on thread count or chunking, so results are
    bit-identical across runs.
    """
    a = np.ascontiguousarray(a, dtype=np.float64).reshape(-1)
    n = a.size
    if n == 0:
        return 0.0
    while n > 1:
        half = n // 2
        s = a[:half] + a[half : 2 * half]
        if n % 2:
            s = np.concatenate([s, a[2 * half :]])
        a = s
        n = a.size
    return float(a[0])


def l2_pairing(f: PeriodicScalarField, g: PeriodicScalarField, weight=None):
    """Grid quadrature of f*g (optionally *weight) against the flat measure."""
    _check_same_spec(f, g)
    prod = f.values * g.values
    if weight is not None:
        _check_same_spec(f, weight)
        prod = prod * weight.values
    return tree_sum(prod) * f.spec.cell_volume


def mean_value(f: PeriodicScalarField):
    """Average of f over the torus."""
    return tree_sum(f.values) * f.spec.cell_volume / f.spec.torus_volume
