"""Periodic grid fields on flat tori and their differential calculus.

Fields live on a uniform grid over T^n (n = 1, 2 or 3) with the flat metric,
so every covariant derivative reduces to plain partial derivatives and all
pointwise tensor norms are Euclidean/Frobenius norms of the component arrays.

Two differentiation schemes are provided:

* ``spectral`` — FFT differentiation (``_FftJetOps``), exact for band-limited
  fields up to roundoff, on the Fourier multipliers that one cached function,
  ``_multiplier``, builds; 1-D grids of at most ``DFT_MATRIX_MAX_N`` = 128
  points run it as two real matrix-vector products (``_DftMatrixJetOps``).
* ``central4`` — 4th-order centered finite differences with periodic wrap,
  kept as an independent fallback so discretization error can be separated
  from modeling error.

Every operator comes in two halves: ``forward`` maps values to coefficients
(the half-spectrum, or the values themselves for ``central4``) and ``jets``
builds the components of every rank the caller asks for from them in one
synthesis, into fresh read-only packed stacks: a flow record gets ranks 1-3
from one forward transform, and a component's bits never depend on the
ranks a call asks for.  ``hessian_writer`` returns a bound call that writes
a Hessian into the one stack it owns, so that a time stepper allocates its
stage Hessian once.  The operators keep no input between calls.

This module owns the packed symmetric layout: a symmetric tensor stores
each distinct component once, in sorted multi-index order, and everything
that depends on that layout lives here and works on raw component stacks —
Frobenius norms weighted by index multiplicities (``sym_norm_sq``), the
trace (``sym_trace``), the packed <-> dense matrix conversion, and the decay monitor
psi = C0 u^2 + C1 |du|^2 + |D^2 u|^2 (``psi_values``).
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
from numpy.fft import _pocketfft_umath as _pocketfft  # the kernels numpy.fft calls

SCHEMES = ("spectral", "central4")


class SpecMismatchError(ValueError):
    """Operands were built over different grids."""


class UnsupportedOrderError(ValueError):
    """Requested derivative order outside 1..4."""


class NonFiniteError(ValueError):
    """Input field contains NaN or Inf."""


def _as_int(what, value):
    """``value`` as an int: numpy integers pass; floats, strings and bools do not."""
    if not isinstance(value, bool) and hasattr(type(value), "__index__"):
        return operator.index(value)
    raise ValueError(f"{what} must be an integer, got {value!r}")


@dataclass(frozen=True)
class GridSpec:
    """Uniform periodic grid: per-axis point counts and periods.

    Sizes must be even (unambiguous Nyquist handling) and at least 8.
    """

    dim: int
    sizes: tuple
    periods: tuple

    def __init__(self, dim, sizes, periods=None):
        dim = _as_int("dim", dim)
        sizes = tuple(_as_int("grid size", s) for s in sizes)
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
        return math.prod(self.sizes)

    @cached_property
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
def sym_positions(dim, rank):
    """Packed position of every (unsorted) multi-index of a symmetric tensor."""
    return {
        perm: pos
        for pos, idx in enumerate(sym_indices(dim, rank))
        for perm in itertools.permutations(idx)
    }


def sym_norm_sq(comps, dim, rank):
    """Pointwise squared Frobenius norm of a packed stack of shape (ncomp, ...).

    Sums w_c * (c_c * c_c) over the components in packed order, one component
    at a time into one output, with no (ncomp, ...) temporary.
    """
    out = comps[0] * comps[0]  # the first component, (0, ..., 0), has multiplicity 1
    if len(comps) == 1:
        return out
    term = None
    for comp, weight in zip(comps[1:], sym_multiplicities(dim, rank)[1:]):
        term = np.multiply(comp, comp, out=term)
        if weight != 1:
            term *= weight
        out += term
    return out


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


def sym_trace(comps, dim):
    """Pointwise trace of a packed symmetric-matrix stack (ncomp, ...)."""
    return sum(comps[sym_positions(dim, 2)[a, a]] for a in range(dim))


def psi_values(u, du_sq, d2u_sq, C0, C1):
    """Pointwise psi = C0 u^2 + C1 |du|^2 + |D^2 u|^2 from u and its squared jet norms."""
    # in place, in the order of C0 * u * u + C1 * du_sq + d2u_sq: the same bits
    out = C0 * u
    out *= u
    out += C1 * du_sq
    out += d2u_sq
    return out


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

def _powers_of(idx, dim):
    """Per-axis derivative orders of the multi-index ``idx``."""
    return tuple(idx.count(a) for a in range(dim))


@lru_cache(maxsize=256)
def _multiplier(spec, powers):
    """prod_a (i k_a)^m_a for the per-axis orders m = ``powers``, in ``rfftn``
    layout; an axis of order 0 contributes no factor.  An odd m_a zeroes axis
    a's Nyquist mode: position n//2 in both the ``fftfreq`` and the
    ``rfftfreq`` layout."""
    dim = spec.dim
    mult = np.ones((1,) * dim, dtype=np.complex128)
    for axis, m in enumerate(powers):
        if m == 0:
            continue
        n = spec.sizes[axis]
        freq = np.fft.rfftfreq if axis == dim - 1 else np.fft.fftfreq
        k = 2.0 * np.pi * freq(n, d=spec.periods[axis] / n)
        if m % 2 == 0:
            fac = (-(k * k)) ** (m // 2)
        else:
            fac = np.where(np.arange(k.size) == n // 2, 0.0,
                           (1j * k) * (-(k * k)) ** ((m - 1) // 2))
        mult = mult * fac.reshape((1,) * axis + (k.size,) + (1,) * (dim - 1 - axis))
    mult.flags.writeable = False
    return mult


def _rank_multipliers(spec, rank):
    """Multipliers of the packed rank-``rank`` components, in order."""
    dim = spec.dim
    return tuple(_multiplier(spec, _powers_of(idx, dim)) for idx in sym_indices(dim, rank))


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

class _JetOps:
    """Jets of raw value arrays on one grid, written into packed stacks.

    ``jets(forward(values), ranks)[i]`` is ``components(values, ranks[i])``:
    one ``forward`` and one synthesis serve every rank the caller needs.
    """

    def __init__(self, spec):
        self.spec = spec
        self._shapes = {rank: (len(sym_indices(spec.dim, rank)),) + spec.sizes
                        for rank in (1, 2, 3, 4)}

    def _buffers(self, ranks):
        """Output stacks and work for one ``_write`` of ``ranks``: ``(stacks, work)``.

        On 1-D grids every rank has one component and ``stacks`` is one
        (len(ranks), 1, N) array, indexed by rank position; elsewhere it is a
        tuple with an array per rank, freed with its stack.  ``work`` is what
        the route's ``_write`` needs besides them."""
        if self.spec.dim == 1:
            stacks = np.empty((len(ranks), 1) + self.spec.sizes)
        else:
            stacks = tuple(np.empty(self._shapes[rank]) for rank in ranks)
        return stacks, self._work(ranks, stacks)

    def _work(self, ranks, stacks):
        """What ``_write`` needs besides the outputs."""
        return None

    def _plan(self, ranks):
        """What ``_write`` reads of ``ranks``: the ranks themselves unless the route plans."""
        return ranks

    def hessian_writer(self):
        """``(write, hess)``: ``write(y)`` writes the Hessian of y into the
        writable stack ``hess``, which every call overwrites, with the bits of
        ``components(y, 2)``, and returns y's coefficients."""
        stacks, work = self._buffers((2,))
        forward, write, plan = self.forward, self._write, self._plan((2,))

        def write_hessian(y):
            coeffs = forward(y)
            write(coeffs, plan, stacks, work)
            return coeffs
        return write_hessian, stacks[0]

    def jets(self, coeffs, ranks):
        """Fresh read-only packed stacks of D^r u, one per rank r in the tuple ``ranks``."""
        stacks, work = self._buffers(ranks)
        self._write(coeffs, self._plan(ranks), stacks, work)
        if self.spec.dim == 1:
            stacks.setflags(write=False)  # its rows are read-only views
        else:
            for stack in stacks:
                stack.setflags(write=False)
        return stacks

    def components(self, values, rank):
        return self.jets(self.forward(values), (rank,))[0]


class _FftJetOps(_JetOps):
    """FFT jets: the coefficients are the ``rfftn`` half-spectrum.

    Each pass calls the pocketfft gufunc that ``numpy.fft`` calls, with its
    normalization (1 forward, 1/N_a inverse), so it keeps that call's bits.
    ``forward`` runs ``rfftn``'s passes: the real one over the last axis into
    a fresh half-spectrum, then the complex ones in place, axes dim-2 ... 0.
    On 1-D grids one multiply against the ranks' stacked multipliers and one
    batched ``irfft`` write every rank; pocketfft transforms each row as a
    single call would.  2-D, per component: multiply by its whole factor,
    ``ifft`` over axis 0 in place, ``irfft`` into its row, as ``irfftn``.
    3-D, each axis' factor just before its pass: ``ifft`` over axis 1 into
    the middle buffer per distinct order m_1, under it over axis 0 per m_0,
    then ``irfft`` per component.  Unit factors are skipped: the m_0 = 0
    pass runs last, in place in the middle buffer.  3-D differs from
    ``irfftn`` at the ulp level; a component's bits depend on its orders.
    """

    def __init__(self, spec):
        super().__init__(spec)
        sizes = spec.sizes
        self._half = sizes[:-1] + (sizes[-1] // 2 + 1,)
        # per complex axis, in rfftn's order dim-2 ... 0: its gufunc axes and ifft's 1/N_a
        self._passes = {a: ([(a,), (), (a,)], 1.0 / sizes[a])
                        for a in reversed(range(spec.dim - 1))}
        self._inv_n_last = 1.0 / sizes[-1]
        self._plans = {}

    def _plan(self, ranks):
        """Multipliers of ``ranks``: on 1-D grids one (len(ranks), 1, N//2+1) array;
        else [(axis-1 factor, [(axis-0 factor, [(rank position, component position,
        last-axis factor)])])], None if 1; in 2-D the whole factor is axis 0's."""
        plan = self._plans.get(ranks)
        if plan is None:
            spec, dim = self.spec, self.spec.dim
            comps = [(i, c, _powers_of(idx, dim)) for i, rank in enumerate(ranks)
                     for c, idx in enumerate(sym_indices(dim, rank))]
            if dim == 1:
                plan = np.array([_rank_multipliers(spec, rank) for rank in ranks])
                plan.flags.writeable = False
            elif dim == 2:
                plan = [(None, [(_multiplier(spec, m), [(i, c, None)]) for i, c, m in comps])]
            else:
                def factor(*m):
                    return _multiplier(spec, m) if any(m) else None
                tree = {}  # m_1 -> m_0 -> components
                for i, c, (m0, m1, m2) in comps:
                    tree.setdefault(m1, {}).setdefault(m0, []).append((i, c, factor(0, 0, m2)))
                # m_0 = 0 last: its axis-0 pass runs in place in the middle buffer
                plan = [(factor(0, m1, 0), [(factor(m0, 0, 0), leaves) for m0, leaves
                                            in sorted(by_m0.items(), reverse=True)])
                        for m1, by_m0 in tree.items()]
            self._plans[ranks] = plan
        return plan

    def forward(self, values):
        spectrum = np.empty(self._half, dtype=np.complex128)
        _pocketfft.rfft_n_even(values, 1.0, out=spectrum)  # sizes are even
        for axes, _ in self._passes.values():
            _pocketfft.fft(spectrum, 1.0, axes=axes, out=spectrum)
        return spectrum

    def _work(self, ranks, stacks):
        if self.spec.dim == 1:
            return np.empty((len(ranks), 1) + self._half, dtype=np.complex128)
        if self.spec.dim == 2:
            return np.empty(self._half, dtype=np.complex128), None, None
        return tuple(np.empty(self._half, dtype=np.complex128) for _ in range(3))

    def _write(self, spectrum, plan, stacks, work):
        if self.spec.dim == 1:
            np.multiply(spectrum, plan, out=work)
            _pocketfft.irfft(work, self._inv_n_last, out=stacks)
            return
        outer, middle, last = work  # for the axis-0 pass, the axis-1 pass, the last factor
        axes_0, inv_n_0 = self._passes[0]
        for f1, subgroups in plan:
            source = spectrum
            if middle is not None:  # 3-D
                axes_1, inv_n_1 = self._passes[1]
                shared = spectrum if f1 is None else np.multiply(spectrum, f1, out=middle)
                _pocketfft.ifft(shared, inv_n_1, axes=axes_1, out=middle)
                source = middle
            for f0, leaves in subgroups:
                stage = source if f0 is None else np.multiply(source, f0, out=outer)
                _pocketfft.ifft(stage, inv_n_0, axes=axes_0, out=stage)
                for i, c, f2 in leaves:
                    real = stage if f2 is None else np.multiply(stage, f2, out=last)
                    _pocketfft.irfft(real, self._inv_n_last, out=stacks[i][c])


# Largest 1-D spectral grid on the DFT matrix pair.  Forward plus Hessian into
# buffers, DFT pair vs FFT route, 2-vCPU x86 VM, numpy 2.4, OpenBLAS 0.3.31:
# N = 16 1.7 vs 3.3 us, 64 2.5 vs 3.6 us, 128 4.9 vs 4.4 us, 256 11.7 vs 5.3 us.
# The FFT route wins at 128 by ~0.5 us per Hessian; moving the bound would
# change the bits of every 1-D run at N = 128 and of certification report rows.
DFT_MATRIX_MAX_N = 128


class _DftMatrixJetOps(_JetOps):
    """Spectral jets on a small 1-D grid as two real matrix-vector products.

    ``D_r u = G_r @ (F @ (u - u[0]))``: F (N+2, N) stacks the real and
    imaginary parts of ``rfft`` of the identity, and G_r (N, N+2) is ``irfft``
    of the rank-r multiplier times each half-spectrum basis vector.  Keeping
    the transform and the multiplier apart keeps the FFT's roundoff structure,
    so ``D1(D1 u)`` and ``D2 u`` agree as closely as on the FFT route.  The
    shift by ``u[0]`` changes no derivative and makes a constant input map to
    exact zeros.  The coefficients are ``F @ (u - u[0])``; each rank is one
    product with its own G_r.
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

    def forward(self, values):
        return np.dot(self._forward_matrix, values - values[0])

    def _work(self, ranks, stacks):
        """Each rank's product, its G_r and the row it writes, looked up once
        per set of buffers rather than once per call."""
        return [(self._inverse_matrix(rank), stacks[i, 0]) for i, rank in enumerate(ranks)]

    def _write(self, coeffs, ranks, stacks, products):
        # np.dot runs the same gemv as np.matmul with less per-call dispatch
        for inv, out in products:
            np.dot(inv, coeffs, out=out)


class _Central4JetOps(_JetOps):
    """Finite-difference jets: the coefficients are the values themselves."""

    def forward(self, values):
        return values

    def _write(self, values, ranks, stacks, work):
        hs = self.spec.spacings
        for stack, rank in zip(stacks, ranks):
            for comp, idx in zip(stack, sym_indices(self.spec.dim, rank)):
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
    return PeriodicScalarField(f.spec, sym_trace(derivative(f, 2, scheme).components, f.spec.dim))


def sup_norm(field):
    """Max over the grid of the pointwise norm (|.| for scalars, Frobenius for tensors)."""
    if isinstance(field, PeriodicScalarField):
        return float(np.max(np.abs(field.values)))
    return sym_sup_norm(field.components, field.spec.dim, field.rank)


def tree_sum(a):
    """Deterministic fixed-order pairwise summation of a float array.

    Folds the flattened (row-major) array in half repeatedly, adding element
    half + i onto element i and carrying an odd last element along; the
    reduction order never depends on thread count or chunking, so results
    are bit-identical across runs.  The folds run in place on one copy, the
    last ones from 8 elements down on Python floats: the same IEEE additions
    without numpy's per-call cost (256 points: 7.3 -> 5.9 us, 2-vCPU x86 VM).
    """
    a = np.array(a, dtype=np.float64, order="C").ravel()
    n = a.size
    if n == 0:
        return 0.0
    while n > 8:
        half = n // 2
        head = a[:half]  # += on a name, not a[:half], skips a copy back by setitem
        head += a[half : 2 * half]
        if n % 2:
            a[half] = a[2 * half]
        n -= half
    vals = a[:n].tolist()
    while n > 1:
        half = n // 2
        for i in range(half):
            vals[i] += vals[half + i]
        if n % 2:
            vals[half] = vals[2 * half]
        n -= half
    return vals[0]


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
