"""Explicit time integration of the potential flow du/dt = theta(D^2 u) + kappa*u.

Classical RK4 with a heat-type CFL step dt = cfl * min(h_a)^2 / (2n): the
linearization coefficient matrix mu^(-1) = (I + Q^2)^(-1) satisfies
0 < mu^(-1) <= I on flat tori, so the flat-heat stability bound is
uniformly valid and implicit stepping is unnecessary at desk scale.

The integrator is sequential in time and fully deterministic: identical
configurations reproduce bit-identical trajectories.
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
    only when asked for.  ``integrate`` builds its records, its result and its
    hook's states over the loop's own arrays, transform and jets included."""

    __slots__ = ("t", "spec", "scheme", "_u", "_values", "_ops", "_coeffs", "_jets",
                 "_norms_sq", "_psi", "_angle", "_metric", "_volume", "__weakref__")

    def __init__(self, t, u, scheme="spectral"):
        self.t, self.spec, self.scheme, self._u = float(t), u.spec, scheme, u
        self._values, self._ops, self._coeffs = u.values, jet_ops(u.spec, scheme), None
        self._jets, self._norms_sq, self._psi = {}, {}, {}
        self._angle = self._metric = self._volume = None

    @classmethod
    def initial(cls, u0, cfg):
        return cls(0.0, u0, scheme=cfg.scheme)

    @classmethod
    def _from_loop(cls, t, values, coeffs, jets, ops, scheme):
        """State over ``integrate``'s frozen arrays: u's values, their coefficients
        under ``ops`` and the jet stacks by rank (the Hessian at least)."""
        state = cls.__new__(cls)
        state.t, state.spec, state.scheme, state._u = t, ops.spec, scheme, None
        state._values, state._ops, state._coeffs = values, ops, coeffs
        state._jets, state._norms_sq, state._psi = jets, {}, {}
        state._angle = state._metric = state._volume = None
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
        """Read-only pointwise |D^rank u|^2 (u^2 for rank 0), computed once per state."""
        out = self._norms_sq.get(rank)
        if out is None:
            if rank == 0:
                out = self._values * self._values
            else:
                out = sym_norm_sq(self._jet(rank), self.spec.dim, rank)
            out.setflags(write=False)
            self._norms_sq[rank] = out
        return out

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


def rhs(u: PeriodicScalarField, kappa: float) -> PeriodicScalarField:
    """Right-hand side theta(D^2 u) + kappa*u of the potential flow."""
    ops = jet_ops(u.spec, "spectral")
    vals = _rhs_values(u.values, ops.components(u.values, 2), kappa, u.spec.dim)
    return PeriodicScalarField(u.spec, vals)


def _rhs_values(u_vals, hess, kappa, dim, theta=None):
    """theta(D^2 u) + kappa*u, fresh; ``theta``, if given, is ``hess``' angle."""
    out = _angle_values(hess, dim) if theta is None else theta.copy()
    if kappa != 0.0:
        out += kappa * u_vals
    return out


def _rk4_update(u_vals, k1, dt, write, hess, kappa, dim):
    """One RK4 step from raw values and k1, a fresh ``_rhs_values`` array of
    u_vals, which the step consumes; each stage is one call of ``write``, an
    ``ops.hessian_writer()`` whose Hessian stack is ``hess``, and then
    ``_rhs_values`` of that stack.  Returns a fresh array.

    The stage arithmetic runs in place, in the order of
    ``u + (dt / 6) * (k1 + 2 k2 + 2 k3 + k4)`` with ``y = u + c dt k``, so the
    result is bit-identical to the expression.
    """
    y = k1 * (0.5 * dt)
    y += u_vals
    write(y)
    k2 = _rhs_values(y, hess, kappa, dim)
    np.multiply(k2, 0.5 * dt, out=y)
    y += u_vals
    write(y)
    k3 = _rhs_values(y, hess, kappa, dim)
    np.multiply(k3, dt, out=y)
    y += u_vals
    write(y)
    k4 = _rhs_values(y, hess, kappa, dim)
    k2 *= 2.0
    k1 += k2
    k3 *= 2.0
    k1 += k3
    k1 += k4
    k1 *= dt / 6.0
    k1 += u_vals
    return k1


def _blowup_guard(t, u_vals, d2u_sq):
    """(sup|D^2 u|, None) of the state at t while sup|D^2 u| <= HESSIAN_BLOWUP_GUARD,
    else (sup|D^2 u|, its BlowupError); a non-finite u has a non-finite Hessian."""
    sup_d2 = math.sqrt(d2u_sq.max())  # the bits of np.sqrt, for less per-call cost
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
    step = round(state.t / cfg.dt) + 1
    kept = {}
    result = integrate(state, cfg, hook=({step}, kept.__setitem__))
    if result.blowup is not None:
        raise result.blowup
    return kept[step]


def monitor_record(state: FlowState, cfg: FlowConfig) -> MonitorRecord:
    """All tracked scalars of one state (sup norms, psi, angle range, volume),
    read through the state's caches, which then serve later readers too."""
    theta = state.angle_and_density()[0]
    return MonitorRecord(
        t=state.t,
        max_u=float(np.abs(state._values).max()),
        max_du=math.sqrt(state.norm_sq(1).max()),
        max_d2u=math.sqrt(state.norm_sq(2).max()),
        max_d3u=math.sqrt(state.norm_sq(3).max()),
        psi_max=float(state.psi(cfg.C0, cfg.C1).max()),
        theta_min=float(theta.min()),
        theta_max=float(theta.max()),
        volume=state.volume(),
        dt=cfg.dt,
    )


def _admit(run, cfg: FlowConfig):
    """Raise ValueError unless ``run`` (u0 or a FlowState) is on the config's
    grid (SpecMismatchError) and a state is under its scheme: another grid or
    scheme would run with another discretization's dt.  Returns "u0" or "state"."""
    what = "state" if isinstance(run, FlowState) else "u0"
    if run.spec is not cfg.grid and run.spec != cfg.grid:
        raise SpecMismatchError(
            f"{what} grid does not match config grid: {run.spec} vs {cfg.grid}")
    if what == "state" and run.scheme != cfg.scheme:
        raise ValueError(
            f"state scheme does not match config scheme: {run.scheme!r} vs {cfg.scheme!r}")
    return what


def integrate(start, cfg: FlowConfig, sink=None, hook=None) -> FlowResult:
    """Run the flow from ``start``, a u0 field (t = 0) or a ``FlowState`` (its
    t), until convergence, t_max or blowup.

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
    convergence test and no time limit: ``visit(index, state)`` gets the
    guarded state at each global step index in the non-empty ``steps`` (its
    Hessian a read-only stage-buffer copy) and the run ends "timed_out" there.
    """
    what = _admit(start, cfg)
    t, u = (start.t, start._values) if what == "state" else (0.0, start.values)
    if not np.isfinite(u).all():
        raise ValueError(f"{what} is not finite")
    if cfg.kappa > 0.0:
        warnings.warn(
            "kappa > 0 is experimental: no convergence guarantee is certified",
            stacklevel=2,
        )

    ops = jet_ops(cfg.grid, cfg.scheme)
    dim, dt, tol, kappa, t_max = cfg.grid.dim, cfg.dt, cfg.conv_tol, cfg.kappa, cfg.t_max
    write_hessian, stage_hess = ops.hessian_writer()
    record_every, first_record = cfg.checkpoint_every, 0

    step = 0
    first_step = round(t / dt)
    records = []
    last_emitted = -1
    warned_region = False
    caller_errstate = np.geterr()
    angle, mark = None, -1  # mark: the step of the next visit; the loop never reaches -1
    if hook is not None:  # sup|D^2 u| < 0 never holds, so no convergence
        marks, visit = iter(sorted(index - first_step for index in hook[0])), hook[1]
        mark, tol, t_max, record_every, first_record = next(marks, -1), 0.0, math.inf, 0, -1
        if mark < 0:
            raise ValueError("hook steps must be given and not precede the start's step")

    def state_now(jets):
        return FlowState._from_loop(t, u, coeffs, jets, ops, cfg.scheme)

    def emit(state):
        nonlocal last_emitted, warned_region
        rec = monitor_record(state, cfg)
        records.append(rec)
        if sink is not None:
            with np.errstate(**caller_errstate):
                sink(rec)
        last_emitted = step
        if not warned_region and cfg.leaves_region(rec.psi_max):
            warned_region = True
            warnings.warn(f"max psi = {rec.psi_max:.3g} is outside the certified region "
                          f"psi < eps1^2 = {cfg.eps1_sq:.3g}", stacklevel=3)

    def finish(outcome, blowup=None):
        hess.setflags(write=False)  # the loop writes it no more
        state = state_now({2: hess})
        if last_emitted != step and hook is None:
            emit(state)
        return FlowResult(outcome, state, tuple(records), step, blowup=blowup)

    with np.errstate(invalid="ignore"):
        while True:
            if step == first_record or (record_every and (first_step + step) % record_every == 0):
                coeffs = ops.forward(u)
                # the ranks monitor_record reads, from one synthesis; they leave
                # with the record's state, so the RK4 stages and the result's
                # state do not hold them
                jets = dict(zip((1, 2, 3), ops.jets(coeffs, (1, 2, 3))))
                state = state_now(jets)
                # read before the record, which then reuses them; the angle is k1's too
                hess, d2u_sq, angle = jets[2], state.norm_sq(2), state.angle_and_density()
                emit(state)
                del state, jets
            else:
                coeffs = write_hessian(u)  # k1 reads it before a stage overwrites it
                hess = stage_hess
                d2u_sq = sym_norm_sq(hess, dim, 2)

            sup_d2, blowup = _blowup_guard(t, u, d2u_sq)
            if blowup is not None:
                return finish("blowup", blowup)

            if step == mark:  # a copy of the stage buffer, which the next step overwrites
                visit(first_step + step, state_now({2: _frozen_array(hess)}))
                if (mark := next(marks, -1)) < 0:
                    return finish("timed_out")

            if sup_d2 < tol and (kappa == 0.0 or float(np.abs(u).max()) < tol):
                if sym_sup_norm(ops.jets(coeffs, (1,))[0], dim, 1) < tol:
                    return finish("converged")

            if t + 0.5 * dt >= t_max:
                return finish("timed_out")

            # free it before the stage temporaries, as a guard-only temporary would
            # be: kept across the step, it let 2-D 128^2 jobs fault in about 4x
            # the pages on some heap layouts
            del d2u_sq
            k1 = _rhs_values(u, hess, kappa, dim, None if angle is None else angle[0])
            angle = None  # freed too, and the next state has one only if it records
            u = _rk4_update(u, k1, dt, write_hessian, stage_hess, kappa, dim)
            u.setflags(write=False)  # so the result state wraps it without a copy
            t += dt
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
