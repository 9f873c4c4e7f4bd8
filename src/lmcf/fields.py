"""Periodic grid fields on flat tori and their differential calculus.

Fields live on a uniform grid over T^n (n = 1, 2 or 3) with the flat metric,
so every covariant derivative reduces to plain partial derivatives and all
pointwise tensor norms are Euclidean/Frobenius norms of the component arrays.

Derivatives are Fourier multipliers, which one cached function,
``_multiplier``, builds for either of two schemes:

* ``spectral`` — i k per axis, exact for band-limited fields up to roundoff;
* ``central4`` — the symbol of the 4th-order centered finite-difference
  stencil with periodic wrap (a periodic stencil is diagonal in Fourier
  space), kept as an independent discretization so discretization error can
  be separated from modeling error.

The grid alone picks one of two synthesis routes: FFTs (``_FftJetOps``), or
on 1-D grids of at most ``DFT_MATRIX_MAX_N`` = 128 points two real
matrix-vector products (``_DftMatrixJetOps``).  A route is ``forward``,
values to coefficients, and ``_writer(ranks)``, which allocates the stacks
of a synthesis once and returns a call that fills them in place.  ``jets``
runs a fresh writer into read-only stacks (the 1-D FFT route runs its
writer's two calls on fresh arrays, with no writer built): a flow record
gets ranks 1-3 from one forward transform, and a component's bits never
depend on the ranks a call asks for.  ``hessian_writer`` keeps one writer
of a Hessian, so that a time stepper allocates its stage Hessian once.  The
operators keep no input between calls.

On 1-D grids both routes also take an (M, N) stack of M ensemble members,
with a leading member axis on the coefficients and a member axis between
the component and the grid axis of the stacks, (ncomp, M, N), so the
packed-layout functions below apply unchanged.  Each member row keeps the
bits of its own call: the DFT pair makes one matrix-vector product per row
(a matrix product over all rows rounds differently), and pocketfft
transforms each row of a batched call as a single call would.

The routes call two numpy internals, ``numpy.fft._pocketfft_umath`` and the
C function behind ``np.dot``; without them importing this module raises an
ImportError naming the installed numpy and ``TESTED_NUMPY``.

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
from functools import cached_property, lru_cache, partial

import numpy as np

TESTED_NUMPY = "2.4.6"  # the numpy whose internals below lmcf is tested against

try:
    from numpy.fft import _pocketfft_umath as _pocketfft  # the kernels numpy.fft calls
    _pocketfft.rfft_n_even, _pocketfft.fft, _pocketfft.ifft, _pocketfft.irfft  # every pass called
    _dot = np.dot._implementation  # np.dot's C function: matmul's gemv without a dispatcher frame
except (ImportError, AttributeError) as _exc:
    raise ImportError(
        f"lmcf.fields calls numpy internals that numpy {np.__version__} lacks ({_exc}); "
        f"it is tested with numpy {TESTED_NUMPY}") from _exc

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


def sym_norm_sq(comps, dim, rank, out=None):
    """Pointwise squared Frobenius norm of a packed stack of shape (ncomp, ...).

    Sums w_c * (c_c * c_c) over the components in packed order, one component
    at a time into one output, with no (ncomp, ...) temporary.  The output is
    ``out`` if given (a record stack's rows, say), else a fresh array; the
    bits are the same.  A one-component stack (every rank on a 1-D grid) may
    hold several ranks: a (1, R, ...) stack of R ranks gives their R norms.
    """
    first = comps[0]  # the first component, (0, ..., 0), has multiplicity 1
    out = np.multiply(first, first, out=out)
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


def psi_values(u, du_sq, d2u_sq, C0, C1, out=None):
    """Pointwise psi = C0 u^2 + C1 |du|^2 + |D^2 u|^2 from u and its squared jet
    norms, into ``out`` if given, else a fresh array, with the same bits."""
    # in place, in the order of C0 * u * u + C1 * du_sq + d2u_sq: the same bits
    out = np.multiply(C0, u, out=out)
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
def _multiplier(spec, powers, scheme):
    """prod_a D_a^m_a for the per-axis orders m = ``powers``, in ``rfftn``
    layout; an axis of order 0 contributes no factor.  D_a is i k_a for
    ``spectral``; for ``central4`` it is the symbol of the 4th-order centered
    stencil, d1 = i (8 sin kh - sin 2kh) / 6h for odd and d2 = (16 cos kh -
    cos 2kh - 15) / 6h^2 for even orders, D^3 = d1 d2 and D^4 = d2^2: a
    periodic stencil is diagonal in Fourier space.  An odd m_a zeroes axis
    a's Nyquist mode, position n//2 in both the ``fftfreq`` and the
    ``rfftfreq`` layout, where the stencil's d1 vanishes too."""
    dim = spec.dim
    mult = np.ones((1,) * dim, dtype=np.complex128)
    for axis, m in enumerate(powers):
        if m == 0:
            continue
        n, h = spec.sizes[axis], spec.spacings[axis]
        freq = np.fft.rfftfreq if axis == dim - 1 else np.fft.fftfreq
        k = 2.0 * np.pi * freq(n, d=h)
        if scheme == "spectral":
            d1, d2 = 1j * k, -(k * k)
        else:
            kh = k * h
            d1 = 1j * (8.0 * np.sin(kh) - np.sin(2.0 * kh)) / (6.0 * h)
            d2 = (16.0 * np.cos(kh) - np.cos(2.0 * kh) - 15.0) / (6.0 * h * h)
        if m % 2 == 0:
            fac = d2 ** (m // 2)
        else:
            fac = np.where(np.arange(k.size) == n // 2, 0.0, d1 * d2 ** ((m - 1) // 2))
        mult = mult * fac.reshape((1,) * axis + (k.size,) + (1,) * (dim - 1 - axis))
    mult.flags.writeable = False
    return mult


def _rank_multipliers(spec, rank, scheme):
    """Multipliers of the packed rank-``rank`` components, in order."""
    dim = spec.dim
    return tuple(_multiplier(spec, _powers_of(idx, dim), scheme)
                 for idx in sym_indices(dim, rank))


# ---------------------------------------------------------------------------
# cached per-grid differentiation operators (hot-loop path)

def _member_rows(spec, members):
    """The member axis of a writer's stacks: () for one state, (members,) on a 1-D grid."""
    if members is None:
        return ()
    if spec.dim != 1:
        raise ValueError(f"a member stack needs a 1-D grid, got {spec.dim}-D")
    return (members,)


class _JetOps:
    """Jets of raw value arrays on one grid, written into packed stacks.

    A route defines ``forward``, values to coefficients, and ``_writer(ranks,
    members)``, which allocates the packed stacks of the tuple ``ranks`` and
    its work buffers once, binds its multipliers to them and returns ``(write,
    stacks)``: ``write(coeffs)`` fills the stacks in place.  On 1-D grids
    ``stacks`` is one (len(ranks), 1, N) array indexed by rank position,
    elsewhere a tuple with an array per rank.  ``jets(forward(values),
    ranks)[i]`` is ``components(values, ranks[i])``: one ``forward`` and one
    synthesis serve every rank the caller needs.  The ``scheme`` picks the
    multipliers.

    On 1-D grids the values may also be an (M, N) stack of M members: the
    coefficients get a leading member axis, and a writer bound for
    ``members=M`` fills (len(ranks), 1, M, N) stacks, so a rank's stack is
    (ncomp, M, N) and each member's row has the bits of its own call.
    """

    def __init__(self, spec, scheme="spectral"):
        self.spec, self.scheme = spec, scheme

    def hessian_writer(self, members=None):
        """``(write, hess)``: ``write(y)`` writes the Hessian of y into the
        writable stack ``hess``, which every call overwrites, with the bits of
        ``components(y, 2)``, and returns y's coefficients; with ``members``,
        y is a stack of that many 1-D members."""
        forward, (write, stacks) = self.forward, self._writer((2,), members)

        def write_hessian(y):
            coeffs = forward(y)
            write(coeffs)
            return coeffs
        return write_hessian, stacks[0]

    def jets(self, coeffs, ranks):
        """Fresh read-only packed stacks of D^r u, one per rank r in the tuple
        ``ranks``, of one state or of a member stack's coefficients."""
        members = len(coeffs) if coeffs.ndim > self.spec.dim else None
        write, stacks = self._writer(ranks, members)
        write(coeffs)
        for stack in (stacks,) if self.spec.dim == 1 else stacks:  # 1-D: one array
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

    def __init__(self, spec, scheme="spectral"):
        super().__init__(spec, scheme)
        sizes = spec.sizes
        self._half = sizes[:-1] + (sizes[-1] // 2 + 1,)
        # per complex axis, in rfftn's order dim-2 ... 0: its gufunc axes and ifft's 1/N_a
        self._passes = {a: ([(a,), (), (a,)], 1.0 / sizes[a])
                        for a in reversed(range(spec.dim - 1))}
        self._inv_n_last = 1.0 / sizes[-1]
        self._plans = {}

    def _plan(self, ranks):
        """Multipliers of ``ranks``, cached: on 1-D grids one (len(ranks), 1, N//2+1)
        array; else [(axis-1 factor, [(axis-0 factor, [(rank position, component
        position, last-axis factor)])])], None if 1; in 2-D the whole factor is axis 0's."""
        plan = self._plans.get(ranks)
        if plan is None:
            spec, dim, scheme = self.spec, self.spec.dim, self.scheme
            comps = [(i, c, _powers_of(idx, dim)) for i, rank in enumerate(ranks)
                     for c, idx in enumerate(sym_indices(dim, rank))]
            if dim == 1:
                plan = np.array([_rank_multipliers(spec, rank, scheme) for rank in ranks])
                plan.flags.writeable = False
            elif dim == 2:
                plan = [(None, [(_multiplier(spec, m, scheme), [(i, c, None)])
                                for i, c, m in comps])]
            else:
                def factor(*m):
                    return _multiplier(spec, m, scheme) if any(m) else None
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
        half = self._half if values.ndim == self.spec.dim else values.shape[:-1] + self._half
        spectrum = np.empty(half, dtype=np.complex128)
        _pocketfft.rfft_n_even(values, 1.0, out=spectrum)  # sizes are even
        for axes, _ in self._passes.values():
            _pocketfft.fft(spectrum, 1.0, axes=axes, out=spectrum)
        return spectrum

    def jets(self, coeffs, ranks):
        """As ``_JetOps.jets``; on 1-D grids the 1-D writer's two calls run on
        fresh arrays, with no writer built per call (rank 2 at N = 256: 6.5 -> 5.3
        us, 2-vCPU x86 VM)."""
        if self.spec.dim > 1:
            return super().jets(coeffs, ranks)
        plan = self._plan(ranks)
        work = np.multiply(coeffs, plan if coeffs.ndim == 1 else plan[:, :, None])
        stacks = np.empty(work.shape[:-1] + self.spec.sizes)
        _pocketfft.irfft(work, self._inv_n_last, out=stacks)
        stacks.setflags(write=False)
        return stacks

    def _writer(self, ranks, members=None):
        spec, half, plan, inv_n_last = self.spec, self._half, self._plan(ranks), self._inv_n_last
        if spec.dim == 1:
            rows = _member_rows(spec, members)
            stacks = np.empty((len(ranks), 1) + rows + spec.sizes)
            work = np.empty((len(ranks), 1) + rows + half, dtype=np.complex128)
            if rows:
                plan = plan[:, :, None]  # the same multipliers on every member row

            def write(spectrum):
                np.multiply(spectrum, plan, out=work)
                _pocketfft.irfft(work, inv_n_last, out=stacks)
            return write, stacks
        stacks = tuple(np.empty((len(sym_indices(spec.dim, rank)),) + spec.sizes)
                       for rank in ranks)
        outer = np.empty(half, dtype=np.complex128)  # for the axis-0 pass
        middle = last = None  # 3-D: for the axis-1 pass and the last-axis factor
        if spec.dim == 3:
            middle, last = (np.empty(half, dtype=np.complex128) for _ in range(2))
        (axes_0, inv_n_0), (axes_1, inv_n_1) = self._passes[0], self._passes.get(1, (None, None))

        def write(spectrum):
            for f1, subgroups in plan:
                source = spectrum
                if middle is not None:  # 3-D
                    shared = spectrum if f1 is None else np.multiply(spectrum, f1, out=middle)
                    _pocketfft.ifft(shared, inv_n_1, axes=axes_1, out=middle)
                    source = middle
                for f0, leaves in subgroups:
                    stage = source if f0 is None else np.multiply(source, f0, out=outer)
                    _pocketfft.ifft(stage, inv_n_0, axes=axes_0, out=stage)
                    for i, c, f2 in leaves:
                        real = stage if f2 is None else np.multiply(stage, f2, out=last)
                        _pocketfft.irfft(real, inv_n_last, out=stacks[i][c])
        return write, stacks


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
    product with its own G_r, bound to its output row once per writer.
    """

    def __init__(self, spec, scheme="spectral"):
        super().__init__(spec, scheme)
        fhat = np.fft.rfft(np.eye(spec.sizes[0]), axis=0)
        self._forward_matrix = _frozen_array(np.concatenate([fhat.real, fhat.imag]))
        self._inverse = {}

    def _inverse_matrix(self, rank):
        inv = self._inverse.get(rank)
        if inv is None:
            n = self.spec.sizes[0]
            half = np.eye(n // 2 + 1)
            (mult,) = _rank_multipliers(self.spec, rank, self.scheme)
            basis = np.concatenate([half, 1j * half]) * mult
            inv = self._inverse[rank] = _frozen_array(np.fft.irfft(basis, n=n).T)
        return inv

    def hessian_writer(self, members=None):
        """As ``_JetOps.hessian_writer``; for a member stack the shifted values
        and the coefficients go into buffers bound once too, so that ``write(y)``
        runs only bound products, and returns that coefficient buffer, which the
        next call overwrites.  The base writer, the stacked ``forward`` plus
        ``_writer((2,), members)``, makes the same products with the same bits,
        but allocates and slices its rows on every call: at N = 16 and M = 2 an
        RK4 member-step then costs 23.6 instead of 17.8 us (2-vCPU x86 VM)."""
        if members is None:
            return super().hessian_writer()
        n = self.spec.sizes[0]
        shifted, coeffs, hess = np.empty((members, n)), np.empty((members, n + 2)), np.empty(
            (1, members, n))
        forward, inverse = self._forward_matrix, self._inverse_matrix(2)
        products = ([(forward, row, out) for row, out in zip(shifted, coeffs)]
                    + [(inverse, row, out) for row, out in zip(coeffs, hess[0])])

        def write_hessian(y):
            np.subtract(y, y[:, :1], out=shifted)
            for args in products:
                _dot(*args)
            return coeffs
        return write_hessian, hess

    def forward(self, values):
        if values.ndim == 1:
            return _dot(self._forward_matrix, values - values[0])
        coeffs = np.empty((len(values), len(self._forward_matrix)))
        for row, out in zip(values - values[:, :1], coeffs):
            _dot(self._forward_matrix, row, out)
        return coeffs

    def _writer(self, ranks, members=None):
        stacks = np.empty((len(ranks), 1) + _member_rows(self.spec, members) + self.spec.sizes)
        if members is None and len(ranks) == 1:
            # the writer is the product: its call runs no Python frame
            return partial(_dot, self._inverse_matrix(ranks[0]), out=stacks[0, 0]), stacks
        products = [(self._inverse_matrix(rank), stacks[i, 0]) for i, rank in enumerate(ranks)]
        if members is None:
            def write(coeffs):
                for inv, out in products:
                    _dot(inv, coeffs, out)
            return write, stacks

        # one product per member row: one matrix product over the rows rounds differently
        def write_rows(coeffs):
            for inv, outs in products:
                for row, out in zip(coeffs, outs):
                    _dot(inv, row, out)
        return write_rows, stacks


@lru_cache(maxsize=32)
def jet_ops(spec, scheme):
    """Cached differentiation operator for raw value arrays on one grid; the
    grid picks the route, the scheme its multipliers."""
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}, expected one of {SCHEMES}")
    if spec.dim == 1 and spec.sizes[0] <= DFT_MATRIX_MAX_N:
        return _DftMatrixJetOps(spec, scheme)
    return _FftJetOps(spec, scheme)


# ---------------------------------------------------------------------------
# public operations

def derivative(f: PeriodicScalarField, order: int, scheme: str = "spectral"):
    """All distinct symmetrized partial derivatives of the given order.

    Returns a VectorField, SymMatrixField, SymTensor3Field or SymTensor4Field
    for order 1..4 respectively.
    """
    try:
        order = _as_int("derivative order", order)
    except ValueError as exc:
        raise UnsupportedOrderError(str(exc)) from None
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
