"""Explicit time integration of the potential flow du/dt = theta(D^2 u) + kappa*u.

Classical RK4 with a heat-type CFL step dt = cfl * min(h_a)^2 / (2n): the
linearization coefficient matrix mu^(-1) = (I + Q^2)^(-1) satisfies
0 < mu^(-1) <= I on flat tori, so the flat-heat stability bound is
uniformly valid and implicit stepping is unnecessary at desk scale.

The integrator is sequential in time and fully deterministic: identical
configurations reproduce bit-identical trajectories.  Runs on one 1-D grid,
scheme and dt can step as one ensemble, ``integrate(runs)``, each member
bit-identical to its own run.
"""

from __future__ import annotations

import math
import os
import struct
import warnings
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .fields import (
    SCHEMES,
    GridSpec,
    PeriodicScalarField,
    SpecMismatchError,
    SymMatrixField,
    SymTensor3Field,
    VectorField,
    _as_int,
    _frozen_array,
    jet_ops,
    psi_values,
    sym_norm_sq,
    sym_sup_norm,
)
from . import geometry
from .geometry import _angle_and_density, _angle_values, _sqrt_det_volume
from .monitors import MonitorRecord

CHECKPOINT_MAGIC = b"LMCF"
CHECKPOINT_VERSION = 2
HESSIAN_BLOWUP_GUARD = 10.0  # far outside the small-data regime; not graph-like anymore
# t_max / dt must stay below this: then t += dt advances t on every step before t_max
MAX_STEPS = 2.0 ** 52
NEVER = 1 << 62  # a step index the stepping loop never reaches
# a record's stack (FlowState.monitor_maxima): |u|, |du|^2, |D^2 u|^2, |D^3 u|^2, psi
MONITOR_ROWS = 5


class BlowupError(RuntimeError):
    """The state at time t failed the blowup guard (``_blowup_guard``):
    ``step_rk4`` raises it, ``integrate`` returns it as ``FlowResult.blowup``."""

    def __init__(self, t, sup_u, sup_d2u, reason):
        super().__init__(f"blowup at t={t:.6g}: {reason} "
                         f"(sup|u|={sup_u:.6g}, sup|D2u|={sup_d2u:.6g})")
        self.t, self.sup_u, self.sup_d2u, self.reason = t, sup_u, sup_d2u, reason


class CheckpointError(ValueError):
    """Checkpoint file is malformed, truncated or incompatible."""


@dataclass(frozen=True)
class FlowConfig:
    """Grid, Einstein constant and stepper/monitor parameters for one run."""

    grid: GridSpec
    kappa: float
    t_max: float
    cfl: float = 0.2
    scheme: str = "spectral"
    conv_tol: float = 1e-8
    C0: float = 100.0
    C1: float = 10.0
    eps1: float = 0.1
    checkpoint_every: int = 0

    def __post_init__(self):
        for name in ("kappa", "t_max", "conv_tol", "C0", "C1"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if not (0.0 < self.cfl <= 0.5):
            raise ValueError(f"cfl must be in (0, 0.5], got {self.cfl}")
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if not self.t_max > 0.0:
            raise ValueError(f"t_max must be positive, got {self.t_max}")
        if not self.conv_tol > 0.0:
            raise ValueError(f"conv_tol must be positive, got {self.conv_tol}")
        if self.C0 < 1.0 or self.C1 < 1.0:
            raise ValueError("C0 and C1 must be >= 1")
        if not (0.0 < self.eps1 <= 1.0):
            raise ValueError(f"eps1 must be in (0, 1], got {self.eps1}")
        object.__setattr__(self, "checkpoint_every",
                           _as_int("checkpoint_every", self.checkpoint_every))
        if self.checkpoint_every < 0:
            raise ValueError("checkpoint_every must be >= 0")
        dt = self.dt
        if not (0.0 < dt < math.inf and self.t_max / dt < MAX_STEPS):
            raise ValueError(
                f"dt = cfl * min(h)^2 / (2n) = {dt:.3g} from cfl {self.cfl!r}, periods "
                f"{self.grid.periods} and sizes {self.grid.sizes} cannot reach "
                f"t_max = {self.t_max:g}: dt must be positive and finite, and t_max / dt "
                f"below 2^52")

    @cached_property
    def dt(self):
        h_min = min(self.grid.spacings)
        return self.cfl * h_min * h_min / (2.0 * self.grid.dim)

    @cached_property
    def eps1_sq(self):
        return self.eps1 * self.eps1

    def leaves_region(self, psi_max):
        """max psi is outside the certified region psi < eps1^2 (NaN: the blowup guard's)."""
        return psi_max >= self.eps1_sq


class FlowState:
    """Potential u at one time under one scheme, and the one owner of what it
    derives.  Every jet D^k u, its pointwise norm |D^k u|^2, psi, the angle
    and sqrt(det mu), the induced metric mu and the graph volume are computed
    once per state, all jets from one forward transform of u, and cached
    read-only; the field wrappers ``u``, ``du``, ``d2u`` and ``d3u`` are built
    only when asked for.  A record's maxima come from one (5, *grid) stack
    (``monitor_maxima``), whose rows are then the state's |D^k u|^2 (k = 1-3)
    and psi caches.  ``integrate`` builds its records, its result and its
    hook's states over the loop's own arrays, transform, jets and record
    stack included."""

    __slots__ = ("t", "spec", "scheme", "_u", "_values", "_ops", "_coeffs", "_jets",
                 "_norms_sq", "_psi", "_rows", "_peaks", "_angle", "_metric", "_volume",
                 "__weakref__")

    def __init__(self, t, u, scheme="spectral"):
        self.t, self.spec, self.scheme, self._u = float(t), u.spec, scheme, u
        self._values, self._ops, self._coeffs = u.values, jet_ops(u.spec, scheme), None
        self._jets, self._norms_sq, self._psi = {}, {}, {}
        self._rows = self._peaks = self._angle = self._metric = self._volume = None

    @classmethod
    def initial(cls, u0, cfg):
        return cls(0.0, u0, scheme=cfg.scheme)

    @classmethod
    def _from_loop(cls, t, values, coeffs, jets, ops, scheme, rows=None, angle=None):
        """State over ``integrate``'s frozen arrays: u's values, their coefficients
        under ``ops`` and the jet stacks by rank (the Hessian at least); a record
        state also gets the loop's record stack ``rows``, its |D^k u|^2 rows
        (k = 1-3) written, and its read-only (theta, sqrt(det mu)) ``angle``."""
        state = cls.__new__(cls)
        state.t, state.spec, state.scheme, state._u = t, ops.spec, scheme, None
        state._values, state._ops, state._coeffs = values, ops, coeffs
        state._jets, state._psi = jets, {}
        state._rows, state._angle, state._peaks = rows, angle, None
        state._metric = state._volume = None
        if rows is None:
            state._norms_sq = {}
        else:
            norms = rows[1:4]
            norms.setflags(write=False)
            state._norms_sq = dict(zip((1, 2, 3), norms))
        return state

    @property
    def u(self) -> PeriodicScalarField:
        if self._u is None:
            self._u = PeriodicScalarField(self.spec, self._values)
        return self._u

    def _jet(self, rank):
        """Read-only packed stack of D^rank u, computed once per state."""
        comps = self._jets.get(rank)
        if comps is None:
            if self._coeffs is None:
                self._coeffs = self._ops.forward(self._values)
            comps = self._jets[rank] = self._ops.jets(self._coeffs, (rank,))[0]
        return comps

    @property
    def du(self) -> VectorField:
        return VectorField(self.spec, self._jet(1))

    @property
    def d2u(self) -> SymMatrixField:
        return SymMatrixField(self.spec, self._jet(2))

    @property
    def d3u(self) -> SymTensor3Field:
        return SymTensor3Field(self.spec, self._jet(3))

    def norm_sq(self, rank):
        """Read-only pointwise |D^rank u|^2 (u^2 for rank 0), computed once per
        state; ranks 1-3 are record stack rows once the state has one."""
        out = self._norms_sq.get(rank)
        if out is None:
            if rank == 0:
                out = self._values * self._values
            else:
                out = sym_norm_sq(self._jet(rank), self.spec.dim, rank)
            out.setflags(write=False)
            self._norms_sq[rank] = out
        return out

    def monitor_maxima(self, C0, C1):
        """(max |u|, max |du|^2, max |D^2 u|^2, max |D^3 u|^2, max psi) over the
        grid, psi with (C0, C1), computed once per state: the five quantities
        are the rows of one (5, *grid) stack, reduced in one call, and then
        its read-only rows are the state's norm and psi caches.  A quantity
        cached before the stack was made is copied into its row.  A maximum
        is exact, so each equals its own reduction, NaN included."""
        peaks = self._peaks
        if peaks is not None:
            if peaks[0] == (C0, C1):
                return peaks[1]
            # the stack's psi row has other constants: psi(C0, C1) is its own array
            return (*peaks[1][:4], float(self.psi(C0, C1).max()))
        rows, norms, values = self._rows, self._norms_sq, self._values
        if rows is None:  # the loop's record states come with theirs, rows 1-3 written
            jets = [self._jet(rank) for rank in (1, 2, 3)]  # synthesized before the stack
            rows = self._rows = np.empty((MONITOR_ROWS,) + values.shape)
            for rank, jet in enumerate(jets, 1):
                cached = norms.get(rank)  # made before the stack: copied in
                if cached is None:
                    sym_norm_sq(jet, self.spec.dim, rank, rows[rank])
                else:
                    np.copyto(rows[rank], cached)
        np.abs(values, out=rows[0])
        psi = self._psi.get((C0, C1))
        if psi is None:
            psi_values(values, rows[1], rows[2], C0, C1, rows[4])
        else:
            np.copyto(rows[4], psi)
        rows.setflags(write=False)  # and so its rows, the caches from now on
        norms[1], norms[2], norms[3], self._psi[C0, C1] = rows[1:]
        # rows.max(axis=1) without ndarray.max's Python wrapper: the same reduction
        maxima = tuple(np.maximum.reduce(rows.reshape(MONITOR_ROWS, -1), 1).tolist())
        self._peaks = ((C0, C1), maxima)
        return maxima

    def angle_and_density(self):
        """Read-only pointwise (theta, sqrt(det mu)), computed once per state."""
        if self._angle is None:
            self._angle = _angle_and_density(self._jet(2), self.spec.dim)
            for array in self._angle:
                array.setflags(write=False)
        return self._angle

    def metric(self) -> geometry.InducedMetricField:
        """The induced metric mu = I + (D^2 u)^2 with its inverse and the
        state's sqrt(det mu), computed once per state.  ``geometry.induced_metric``
        is looked up by module name, so a wrapper installed there sees each build."""
        if self._metric is None:
            self._metric = geometry.induced_metric(self.d2u, self.angle_and_density()[1])
        return self._metric

    def volume(self):
        """Graph volume, the quadrature of sqrt(det mu), computed once per state."""
        if self._volume is None:
            self._volume = _sqrt_det_volume(self.angle_and_density()[1], self.spec)
        return self._volume

    def psi(self, C0, C1):
        """Read-only pointwise psi = C0 u^2 + C1 |du|^2 + |D^2 u|^2, computed
        once per state and (C0, C1)."""
        out = self._psi.get((C0, C1))
        if out is None:
            out = psi_values(self._values, self.norm_sq(1), self.norm_sq(2), C0, C1)
            out.setflags(write=False)
            self._psi[C0, C1] = out
        return out


@dataclass(frozen=True, eq=False)
class FlowResult:
    """Outcome of one integration: converged, timed_out or blowup."""

    outcome: str
    state: FlowState
    records: tuple
    steps: int
    blowup: BlowupError | None = None

    @property
    def converged(self):
        return self.outcome == "converged"


@dataclass(frozen=True, eq=False)
class Run:
    """One member of an ensemble ``integrate`` call: the arguments of
    ``integrate(start, cfg, sink, hook)``."""

    start: object
    cfg: FlowConfig
    sink: object = None
    hook: object = None


class RunResults(tuple):
    """The members' FlowResults of an ensemble ``integrate`` call, in run order."""

    __slots__ = ()

    @property
    def steps(self):
        """Member-steps taken: the sum of the members' steps."""
        return sum(result.steps for result in self)


class EnsembleError(ValueError):
    """A run cannot step in one stack with the first run of its ensemble: it has
    another grid, scheme or dt, or the runs are several on a 2-D or 3-D grid."""


def rhs(u: PeriodicScalarField, kappa: float) -> PeriodicScalarField:
    """Right-hand side theta(D^2 u) + kappa*u of the potential flow."""
    ops = jet_ops(u.spec, "spectral")
    vals = _rhs_values(u.values, ops.components(u.values, 2), kappa, u.spec.dim)
    return PeriodicScalarField(u.spec, vals)


def _rhs_values(u_vals, hess, kappa, dim, theta=None, where=None):
    """theta(D^2 u) + kappa*u, fresh; ``theta``, if given, is ``hess``' angle.
    On a member stack with several kappas, ``kappa`` is their column and
    ``where`` marks its non-zero rows, or is True for all: a kappa = 0 row
    gains no +0.0 * u, which could flip its signed zeros."""
    out = _angle_values(hess, dim) if theta is None else theta.copy()
    if where is not None:
        np.add(out, kappa * u_vals, out=out, where=where)
    elif kappa != 0.0:
        out += kappa * u_vals
    return out


def _rk4_update(u_vals, k1, dt, write, hess, kappa, dim, where=None):
    """One RK4 step from raw values and k1, a fresh ``_rhs_values`` array of
    u_vals, which the step consumes; each stage is one call of ``write``, an
    ``ops.hessian_writer()`` whose Hessian stack is ``hess``, and then
    ``_rhs_values`` of that stack (``kappa`` and ``where`` as there).
    Returns a fresh array.

    The stage arithmetic runs in place, in the order of
    ``u + (dt / 6) * (k1 + 2 k2 + 2 k3 + k4)`` with ``y = u + c dt k``, so the
    result is bit-identical to the expression.
    """
    y = k1 * (0.5 * dt)
    y += u_vals
    write(y)
    k2 = _rhs_values(y, hess, kappa, dim, None, where)
    np.multiply(k2, 0.5 * dt, out=y)
    y += u_vals
    write(y)
    k3 = _rhs_values(y, hess, kappa, dim, None, where)
    np.multiply(k3, dt, out=y)
    y += u_vals
    write(y)
    k4 = _rhs_values(y, hess, kappa, dim, None, where)
    k2 *= 2.0
    k1 += k2
    k3 *= 2.0
    k1 += k3
    k1 += k4
    k1 *= dt / 6.0
    k1 += u_vals
    return k1


def _blowup_guard(t, u_vals, d2u_max):
    """(sup|D^2 u|, None) of the state at t while sup|D^2 u| <= HESSIAN_BLOWUP_GUARD,
    else (sup|D^2 u|, its BlowupError), from ``d2u_max``, the max of |D^2 u|^2 over
    the grid; a non-finite u has a non-finite Hessian."""
    sup_d2 = math.sqrt(d2u_max)  # the bits of np.sqrt, for less per-call cost
    if sup_d2 <= HESSIAN_BLOWUP_GUARD:
        return sup_d2, None
    reason = ("non-finite field" if not math.isfinite(sup_d2)
              else f"sup|D2u| exceeded {HESSIAN_BLOWUP_GUARD}")
    return sup_d2, BlowupError(t, float(np.abs(u_vals).max()), sup_d2, reason)


def step_rk4(state: FlowState, cfg: FlowConfig) -> FlowState:
    """Advance one RK4 step: a fixed-step ``integrate`` run from ``state`` that
    keeps its next global step.  Raises what ``integrate`` raises, and the
    BlowupError it reports for the state it steps from or returns, so a chain
    stops where ``integrate`` reports a blowup."""
    _admit(state, cfg)  # before its t sets the step
    step = round(state.t / cfg.dt) + 1
    kept = {}
    result = integrate(state, cfg, hook=({step}, kept.__setitem__))
    if result.blowup is not None:
        raise result.blowup
    return kept[step]


def monitor_record(state: FlowState, cfg: FlowConfig) -> MonitorRecord:
    """All tracked scalars of one state (sup norms, psi, angle range, volume),
    read through the state's caches, which then serve later readers too.
    The sup norms and max psi are ``FlowState.monitor_maxima``: one (5, *grid)
    stack of |u|, |du|^2, |D^2 u|^2, |D^3 u|^2 and psi, and one reduction, each
    maximum with the bits of its own reduction."""
    theta = state.angle_and_density()[0]  # first: its temporaries are gone before the stack
    max_u, du_sq, d2u_sq, d3u_sq, psi_max = state.monitor_maxima(cfg.C0, cfg.C1)
    # in field order (t, max_u, max_du, max_d2u, max_d3u, psi_max, theta_min,
    # theta_max, volume, dt): positional arguments cost less than keywords;
    # theta's reductions are theta.min() and .max() without their wrappers
    return MonitorRecord(state.t, max_u, math.sqrt(du_sq), math.sqrt(d2u_sq),
                         math.sqrt(d3u_sq), psi_max, float(np.minimum.reduce(theta, None)),
                         float(np.maximum.reduce(theta, None)), state.volume(), cfg.dt)


def _admit(run, cfg: FlowConfig):
    """Raise ValueError unless ``run`` (u0 or a FlowState) is on the config's
    grid (SpecMismatchError) and a state is under its scheme, at a finite
    t >= 0: another grid or scheme would run with another discretization's
    dt, and the clock counts steps from t = 0.  Returns "u0" or "state"."""
    what = "state" if isinstance(run, FlowState) else "u0"
    if run.spec is not cfg.grid and run.spec != cfg.grid:
        raise SpecMismatchError(
            f"{what} grid does not match config grid: {run.spec} vs {cfg.grid}")
    if what == "state" and run.scheme != cfg.scheme:
        raise ValueError(
            f"state scheme does not match config scheme: {run.scheme!r} vs {cfg.scheme!r}")
    if what == "state" and not 0.0 <= run.t < math.inf:
        raise ValueError(f"state t must be finite and >= 0, got {run.t}")
    return what


class _Member:
    """One run in ``integrate``'s loop: its clock, record cadence, stop rules,
    records and result.  Steps are counted by the loop, from the call's start."""

    __slots__ = ("cfg", "sink", "visit", "marks", "mark", "t", "values", "first_step", "tol",
                 "t_max", "next_record", "records", "last_emitted", "warned_region", "result")

    def __init__(self, run, lead, count):
        cfg = self.cfg = run.cfg
        what = _admit(run.start, cfg)
        start = run.start
        self.t, self.values = (start.t, start._values) if what == "state" else (0.0, start.values)
        if not np.isfinite(self.values).all():
            raise ValueError(f"{what} is not finite")
        if count > 1 and cfg.grid.dim != 1:
            raise EnsembleError(f"several runs step as one stack on 1-D grids only, "
                                f"got a {cfg.grid.dim}-D grid")
        for name in ("grid", "scheme", "dt") if cfg is not lead else ():
            if getattr(cfg, name) != getattr(lead, name):
                raise EnsembleError(
                    f"{name} {getattr(cfg, name)!r} differs from the first run's "
                    f"{getattr(lead, name)!r}: an ensemble's runs share grid, scheme and dt")
        self.sink, self.first_step = run.sink, round(self.t / cfg.dt)
        self.records, self.last_emitted, self.warned_region, self.result = [], -1, False, None
        if run.hook is None:
            self.tol, self.t_max, self.next_record = cfg.conv_tol, cfg.t_max, 0
            self.visit, self.mark = None, NEVER
            return
        # a fixed-step run: sup|D^2 u| < 0 never holds, so no convergence
        steps, self.visit = run.hook
        self.marks = iter(sorted({_as_int("hook step", index) - self.first_step
                                  for index in steps}))
        self.mark, self.tol, self.t_max, self.next_record = (
            next(self.marks, NEVER), 0.0, math.inf, NEVER)
        if self.mark < 0 or self.mark == NEVER:
            raise ValueError("hook steps must be given and not precede the start's step")

    def recorded(self, step):
        """Set the next record step after a record at ``step``."""
        every = self.cfg.checkpoint_every
        self.next_record = step + every - (self.first_step + step) % every if every else NEVER


def _kappa_rows(members):
    """``(kappa, where)`` of the members' kappa*u term for ``_rhs_values``: a
    shared kappa and None, else their column and its non-zero rows (True: all)."""
    kappas = [m.cfg.kappa for m in members]
    if len(set(kappas)) == 1:
        return kappas[0], None
    column = np.array(kappas)[:, None]
    return column, True if all(kappas) else column != 0.0


def integrate(start, cfg: FlowConfig | None = None, sink=None, hook=None):
    """Run the flow from ``start``, a u0 field (t = 0) or a ``FlowState`` (its
    t), until convergence, t_max or blowup; returns a FlowResult.

    Convergence means sup|du| < conv_tol and sup|D^2 u| < conv_tol, plus
    sup|u| < conv_tol when kappa != 0: then only the zero potential is
    stationary.  For kappa = 0 every constant is stationary and any constant
    limit counts.  Blowup raises nothing: the result carries the blowup
    guard's BlowupError.

    Emits ``monitor_record`` (looked up by module name) of a ``FlowState`` at
    the start, at every step whose global index (counted from t = 0) is a
    multiple of ``checkpoint_every``, and at termination; the guard and the
    first RK4 stage read a record state's caches.  A start state continues
    the clock from its t, from its values alone (its caches are not read): the
    update sequence and the record cadence are then bit-identical to the
    uninterrupted run.  Raises what ``_admit`` raises, and ValueError for
    non-finite start values.

    A non-finite field is reported as a blowup, so numpy's invalid-value
    warnings are off inside the loop; ``sink`` runs under the caller's
    floating-point error state.

    ``hook = (steps, visit)`` makes a fixed-step run with no records, no
    convergence test and no time limit: ``steps`` is a non-empty collection
    of integers, and ``visit(index, state)`` gets the guarded state once at
    each distinct global step index in it (its Hessian a read-only
    stage-buffer copy); the run ends "timed_out" at the last.

    ``integrate(runs)``, with a tuple of ``Run(start, cfg, sink, hook)``,
    steps them as one ensemble and returns their ``RunResults``.  Each member
    is the run ``integrate(start, cfg, sink, hook)`` would make, bit for bit:
    its own kappa, clock, record cadence, sink, hook, stop rules and region
    warning.  On 1-D grids the members advance as one (M, N) stack, with one
    synthesis per stage and one guard and convergence test per step for all
    of them, and a member that stops leaves the stack.  The runs must share
    grid, scheme and dt, and several runs need a 1-D grid (``EnsembleError``);
    admission errors of several runs name the run, and one run raises what
    ``integrate(start, cfg)`` raises.  Sink and hook come inside the Runs.
    """
    if cfg is None:
        if sink is not None or hook is not None:
            raise TypeError("integrate(runs) takes each run's sink and hook from its Run")
        runs = tuple(start)
    else:
        runs = (Run(start, cfg, sink, hook),)
    if not runs:
        raise ValueError("integrate needs a start and a config, or a non-empty tuple of Runs")
    members = []
    for index, run in enumerate(runs):
        try:
            if not isinstance(run, Run):
                raise TypeError(f"expected a Run, got {type(run).__name__}")
            members.append(_Member(run, runs[0].cfg, len(runs)))
        except (TypeError, ValueError) as exc:  # subclasses too; several runs: name the one
            if len(runs) == 1:
                raise
            raise type(exc)(f"run {index}: {exc}") from None
        if run.cfg.kappa > 0.0:
            warnings.warn(
                "kappa > 0 is experimental: no convergence guarantee is certified",
                stacklevel=2,
            )

    lead = runs[0].cfg
    ops, scheme = jet_ops(lead.grid, lead.scheme), lead.scheme
    dim, dt, half_dt = lead.grid.dim, lead.dt, 0.5 * lead.dt
    step, angle = 0, None
    caller_errstate = np.geterr()

    def bind(active):
        """The loop's bindings for the members ``active``: whether they are a
        stack, the stage writer and its Hessian, the kappa term, the first steps
        at which one of them records or visits, their largest tolerance, below
        which alone one can converge, and whether every kappa is non-zero, so
        that sup|u| must be below it too."""
        stacked = len(active) > 1
        return (stacked, *ops.hessian_writer(len(active) if stacked else None),
                *_kappa_rows(active), min([m.next_record for m in active]),
                min([m.mark for m in active]), max([m.tol for m in active]),
                all([m.cfg.kappa != 0.0 for m in active]))

    active = members
    (stacked, write_hessian, stage_hess, kappa, where, record_step, mark_step, tol,
     pinned) = bind(active)
    if stacked:  # one member's arrays have no member axis
        u = np.stack([m.values for m in active])
        u.setflags(write=False)
    else:
        u = active[0].values
    timed = any(m.t + half_dt >= m.t_max for m in active)

    def row(a, i):
        """Member i's rows of a loop stack."""
        return a[..., i, :] if stacked else a

    def state_of(i, member, jets):
        if stacked:  # a stack's stage writer may reuse its coefficients (the DFT pair's does)
            return FlowState._from_loop(member.t, u[i], coeffs[i] if fresh else coeffs[i].copy(),
                                        jets, ops, scheme)
        return FlowState._from_loop(member.t, u, coeffs, jets, ops, scheme)

    def record_state(i, member, jets, record_stack, angle):
        """State of a record over member i's rows of the jets, the record stack
        and the angle: views, no copies."""
        if stacked:
            return FlowState._from_loop(member.t, u[i], coeffs[i],
                                        {rank: jet[:, i] for rank, jet in jets.items()}, ops,
                                        scheme, row(record_stack, i), (angle[0][i], angle[1][i]))
        return FlowState._from_loop(member.t, u, coeffs, jets, ops, scheme, record_stack, angle)

    def emit(member, state):
        cfg, sink = member.cfg, member.sink
        rec = monitor_record(state, cfg)
        member.records.append(rec)
        if sink is not None:
            with np.errstate(**caller_errstate):
                sink(rec)
        member.last_emitted = step
        if not member.warned_region and cfg.leaves_region(rec.psi_max):
            member.warned_region = True
            warnings.warn(f"max psi = {rec.psi_max:.3g} is outside the certified region "
                          f"psi < eps1^2 = {cfg.eps1_sq:.3g}", stacklevel=3)

    with np.errstate(invalid="ignore"):
        while True:
            if step == record_step:
                coeffs, fresh = ops.forward(u), True
                # the ranks monitor_record reads, from one synthesis; they leave
                # with the record states, so the RK4 stages and the result
                # states do not hold them
                synthesis = ops.jets(coeffs, (1, 2, 3))
                jets = dict(zip((1, 2, 3), synthesis))
                hess = jets[2]
                # read by the records, which then reuse them; the angle is k1's
                # too; first, so that its temporaries are gone before the stack
                angle = _angle_and_density(hess, dim)
                for array in angle:
                    array.setflags(write=False)
                # the records' stacks (FlowState.monitor_maxima), with a member
                # axis on a stack, their |D^k u|^2 rows (k = 1-3) written here,
                # the guard's among them; 1-D ranks have one component each, so
                # one call writes all three
                record_stack = np.empty((MONITOR_ROWS,) + u.shape)
                if dim == 1:
                    sym_norm_sq(synthesis.swapaxes(0, 1), dim, 1, record_stack[1:4])
                else:
                    for rank in (1, 2, 3):
                        sym_norm_sq(jets[rank], dim, rank, record_stack[rank])
                d2u_sq = record_stack[2]
                for i, member in enumerate(active):
                    if member.next_record == step:
                        emit(member, record_state(i, member, jets, record_stack, angle))
                        member.recorded(step)
                record_step = min([m.next_record for m in active]) if stacked else member.next_record
                del synthesis, jets, record_stack
            else:
                coeffs, fresh = write_hessian(u), False  # k1 reads them before a stage writes
                hess = stage_hess
                d2u_sq = sym_norm_sq(hess, dim, 2)

            # one guard and one convergence test for all members: only when one of
            # them may stop or visit are they looked at one by one
            if stacked:  # the sum bounds every row's maximum and carries a NaN
                maxima = np.maximum.reduce(d2u_sq, -1).tolist()
                worst, least = math.sqrt(sum(maxima)), math.sqrt(min(maxima))
            else:
                maxima = (np.maximum.reduce(d2u_sq, None),)  # d2u_sq.max(), no wrapper
                worst = least = math.sqrt(maxima[0])
            near = least < tol  # then one member may converge
            if near and pinned:  # every kappa != 0: only if its sup|u| is below tol too
                near = np.abs(u).max(axis=-1 if stacked else None).min() < tol
            if timed or step == mark_step or not worst <= HESSIAN_BLOWUP_GUARD or near:
                ended = []
                for i, member in enumerate(active):
                    sup_d2, blowup = _blowup_guard(member.t, row(u, i), maxima[i])
                    if blowup is not None:
                        ended.append((i, "blowup", blowup))
                        continue
                    if step == member.mark:  # the stage buffer's copy: the next step overwrites it
                        member.visit(member.first_step + step,
                                     state_of(i, member, {2: _frozen_array(row(hess, i))}))
                        member.mark = next(member.marks, NEVER)
                        if member.mark == NEVER:
                            ended.append((i, "timed_out", None))
                            continue
                    if sup_d2 < member.tol and (member.cfg.kappa == 0.0
                                                or float(np.abs(row(u, i)).max()) < member.tol):
                        if sym_sup_norm(ops.jets(row(coeffs, i), (1,))[0], dim, 1) < member.tol:
                            ended.append((i, "converged", None))
                            continue
                    if member.t + half_dt >= member.t_max:
                        ended.append((i, "timed_out", None))
                mark_step = min([m.mark for m in active])

                if ended:
                    hess.setflags(write=False)  # the loop writes it no more: the rest step on afresh
                    for i, outcome, blowup in ended:
                        member = active[i]
                        state = state_of(i, member, {2: row(hess, i)})
                        if member.last_emitted != step and member.visit is None:
                            emit(member, state)
                        member.result = FlowResult(outcome, state, tuple(member.records), step,
                                                   blowup=blowup)
                        del state
                    stops = {i for i, _, _ in ended}
                    keep = [i for i in range(len(active)) if i not in stops]
                    if not keep:
                        results = tuple(m.result for m in members)
                        return results[0] if cfg is not None else RunResults(results)
                    rows = keep[0] if len(keep) == 1 else keep
                    u, hess = u[..., rows, :], hess[..., rows, :]
                    angle = None if angle is None else (angle[0][..., rows, :],)
                    active = [active[i] for i in keep]
                    (stacked, write_hessian, stage_hess, kappa, where, record_step, mark_step,
                     tol, pinned) = bind(active)

            # free it before the stage temporaries, as a guard-only temporary would
            # be: kept across the step, it let 2-D 128^2 jobs fault in about 4x
            # the pages on some heap layouts
            del d2u_sq
            k1 = _rhs_values(u, hess, kappa, dim, None if angle is None else angle[0], where)
            angle = None  # freed too, and the next state has one only if it records
            u = _rk4_update(u, k1, dt, write_hessian, stage_hess, kappa, dim, where)
            u.setflags(write=False)  # so the result states wrap it without a copy
            timed = False
            for member in active:
                member.t += dt
                if member.t + half_dt >= member.t_max:
                    timed = True
            step += 1


# ---------------------------------------------------------------------------
# checkpoint persistence (bit-exact round trip)
#
# layout, little-endian: magic "LMCF" | version u32 | n u32 | N_a u32 each |
# P_a f64 each | t f64 | kappa f64 | [version 2: cfl, conv_tol, C0, C1, eps1
# f64 each | scheme u32, the index into SCHEMES] | row-major f64 grid values of u
#
# version 1 files lack the bracketed block; they load with FlowConfig defaults

_STEPPER_FIELDS = ("cfl", "conv_tol", "C0", "C1", "eps1")


def checkpoint_save(state: FlowState, cfg: FlowConfig, path):
    """Write a version-2 checkpoint atomically: an interrupted save leaves any
    previous file at ``path`` intact.  Raises what ``_admit`` raises for a
    state the config does not admit: the file pairs them."""
    _admit(state, cfg)
    spec = state.spec
    n = spec.dim
    parts = [
        CHECKPOINT_MAGIC,
        struct.pack("<II", CHECKPOINT_VERSION, n),
        struct.pack(f"<{n}I", *spec.sizes),
        struct.pack(f"<{n}d", *spec.periods),
        struct.pack("<2d", state.t, cfg.kappa),
        struct.pack("<5d", *(getattr(cfg, name) for name in _STEPPER_FIELDS)),
        struct.pack("<I", SCHEMES.index(cfg.scheme)),
        np.ascontiguousarray(state.u.values, dtype="<f8").tobytes(),
    ]
    tmp = os.fspath(path) + ".tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(b"".join(parts))
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def _read_exact(fh, nbytes, what):
    buf = fh.read(nbytes)
    if len(buf) != nbytes:
        raise CheckpointError(f"truncated checkpoint while reading {what}")
    return buf


def checkpoint_load(path, t_max=None):
    """Load a checkpoint; returns (FlowState, FlowConfig).

    Version 2 stores every stepper parameter except ``checkpoint_every``
    (the returned config has 0) and ``t_max`` (defaults to t + 1); version 1
    files get FlowConfig defaults for the stepper parameters.  Jets are
    recomputed on demand, so the round trip is bit-exact in u.
    """
    with open(path, "rb") as fh:
        magic = _read_exact(fh, 4, "magic")
        if magic != CHECKPOINT_MAGIC:
            raise CheckpointError(f"bad magic {magic!r}, expected {CHECKPOINT_MAGIC!r}")
        (version,) = struct.unpack("<I", _read_exact(fh, 4, "version"))
        if version not in (1, CHECKPOINT_VERSION):
            raise CheckpointError(f"unsupported checkpoint version {version}")
        (n,) = struct.unpack("<I", _read_exact(fh, 4, "dimension"))
        if n not in (1, 2, 3):
            raise CheckpointError(f"unsupported dimension {n}")
        sizes = struct.unpack(f"<{n}I", _read_exact(fh, 4 * n, "grid sizes"))
        periods = struct.unpack(f"<{n}d", _read_exact(fh, 8 * n, "periods"))
        t, kappa = struct.unpack("<2d", _read_exact(fh, 16, "time and kappa"))
        if not 0.0 <= t < math.inf:
            raise CheckpointError(f"invalid time in checkpoint: t = {t}")
        stepper = {}
        if version == 2:
            stepper = dict(zip(_STEPPER_FIELDS, struct.unpack(
                "<5d", _read_exact(fh, 40, "stepper parameters"))))
            (scheme,) = struct.unpack("<I", _read_exact(fh, 4, "scheme"))
            if scheme >= len(SCHEMES):
                raise CheckpointError(f"unknown scheme index {scheme}")
            stepper["scheme"] = SCHEMES[scheme]
        try:
            spec = GridSpec(n, sizes, periods)
        except ValueError as exc:
            raise CheckpointError(f"invalid grid in checkpoint: {exc}") from exc
        # the header alone can ask for any size: check it against the file first
        nbytes = 8 * spec.npoints
        if nbytes > os.fstat(fh.fileno()).st_size - fh.tell():
            raise CheckpointError("truncated checkpoint while reading grid values")
        raw = _read_exact(fh, nbytes, "grid values")
        if fh.read(1):
            raise CheckpointError("trailing bytes after grid values")
    try:
        cfg = FlowConfig(grid=spec, kappa=kappa, t_max=t + 1.0, **stepper)
    except ValueError as exc:
        raise CheckpointError(f"invalid run parameters in checkpoint: {exc}") from exc
    if t_max is not None:
        cfg = replace(cfg, t_max=t_max)
    values = np.frombuffer(raw, dtype="<f8").astype(np.float64).reshape(spec.sizes)
    state = FlowState(t, PeriodicScalarField(spec, values), scheme=cfg.scheme)
    return state, cfg


def resume_flow(state: FlowState, cfg: FlowConfig, sink=None) -> FlowResult:
    """Continue integrating a loaded state until cfg.t_max: ``integrate`` from
    the state, so every emitted record from the resume point on is
    bit-identical to the uninterrupted run."""
    return integrate(state, cfg, sink=sink)
