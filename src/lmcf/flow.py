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
    _TENSOR_BY_RANK,
    SCHEMES,
    GridSpec,
    PeriodicScalarField,
    SymMatrixField,
    SymTensor3Field,
    VectorField,
    jet_ops,
    psi_values,
    sym_norm_sq,
    sym_sup_norm,
)
from .geometry import _angle_values, hessian_volume
from .monitors import MonitorRecord

CHECKPOINT_MAGIC = b"LMCF"
CHECKPOINT_VERSION = 2
HESSIAN_BLOWUP_GUARD = 10.0  # far outside the small-data regime; not graph-like anymore


class BlowupError(RuntimeError):
    """A field left the finite / graph-like regime during a step."""

    def __init__(self, t, sup_u, reason):
        super().__init__(f"blowup at t={t:.6g}: {reason} (sup|u|={sup_u:.6g})")
        self.t = t
        self.sup_u = sup_u
        self.reason = reason


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
        if self.checkpoint_every < 0:
            raise ValueError("checkpoint_every must be >= 0")

    @cached_property
    def dt(self):
        h_min = min(self.grid.spacings)
        return self.cfl * h_min * h_min / (2.0 * self.grid.dim)


class FlowState:
    """Potential u at one time; its jets under the configured scheme, their
    pointwise norms and psi are computed once and cached."""

    def __init__(self, t, u, scheme="spectral"):
        self.t = float(t)
        self.u = u
        self.scheme = scheme
        self._jets = {}
        self._norms_sq = {}
        self._psi = {}

    @classmethod
    def initial(cls, u0, cfg):
        return cls(0.0, u0, scheme=cfg.scheme)

    @property
    def spec(self):
        return self.u.spec

    def _jet(self, rank):
        """Packed rank-``rank`` derivative field of u, computed once per state."""
        field = self._jets.get(rank)
        if field is None:
            comps = jet_ops(self.spec, self.scheme).components(self.u.values, rank)
            field = self._jets[rank] = _TENSOR_BY_RANK[rank](self.spec, comps)
        return field

    @property
    def du(self) -> VectorField:
        return self._jet(1)

    @property
    def d2u(self) -> SymMatrixField:
        return self._jet(2)

    @property
    def d3u(self) -> SymTensor3Field:
        return self._jet(3)

    def norm_sq(self, rank):
        """Read-only pointwise |D^rank u|^2 (u^2 for rank 0), computed once per state."""
        out = self._norms_sq.get(rank)
        if out is None:
            if rank == 0:
                out = self.u.values * self.u.values
            else:
                out = sym_norm_sq(self._jet(rank).components, self.spec.dim, rank)
            out.flags.writeable = False
            self._norms_sq[rank] = out
        return out

    def psi(self, C0, C1):
        """Read-only pointwise psi = C0 u^2 + C1 |du|^2 + |D^2 u|^2, computed
        once per state and (C0, C1)."""
        out = self._psi.get((C0, C1))
        if out is None:
            out = psi_values(self.u.values, self.norm_sq(1), self.norm_sq(2), C0, C1)
            out.flags.writeable = False
            self._psi[C0, C1] = out
        return out


@dataclass(frozen=True)
class BlowupReport:
    t: float
    sup_u: float
    sup_d2u: float
    reason: str


@dataclass(frozen=True, eq=False)
class FlowResult:
    """Outcome of one integration: converged, timed_out or blowup."""

    outcome: str
    state: FlowState
    records: tuple
    steps: int
    blowup: BlowupReport | None = None

    @property
    def converged(self):
        return self.outcome == "converged"


def rhs(u: PeriodicScalarField, kappa: float, scheme: str = "spectral") -> PeriodicScalarField:
    """Right-hand side theta(D^2 u) + kappa*u of the potential flow."""
    ops = jet_ops(u.spec, scheme)
    vals = _rhs_values(u.values, ops.hessian(u.values), kappa, u.spec.dim)
    return PeriodicScalarField(u.spec, vals)


def _rhs_values(u_vals, hess, kappa, dim):
    out = _angle_values(hess, dim)
    if kappa != 0.0:
        out += kappa * u_vals
    return out


def _rk4_update(u_vals, hess, dt, kappa, ops, dim, buffers):
    """One RK4 step from raw values; ``hess`` is the Hessian stack of u_vals and
    ``buffers`` come from ``ops.hessian_buffers()``.  Returns a fresh array.

    The stage arithmetic runs in place, in the order of
    ``u + (dt / 6) * (k1 + 2 k2 + 2 k3 + k4)`` with ``y = u + c dt k``, so the
    result is bit-identical to the expression.
    """
    k1 = _rhs_values(u_vals, hess, kappa, dim)
    y = k1 * (0.5 * dt)
    y += u_vals
    k2 = _rhs_values(y, ops.hessian_into(y, buffers), kappa, dim)
    np.multiply(k2, 0.5 * dt, out=y)
    y += u_vals
    k3 = _rhs_values(y, ops.hessian_into(y, buffers), kappa, dim)
    np.multiply(k3, dt, out=y)
    y += u_vals
    k4 = _rhs_values(y, ops.hessian_into(y, buffers), kappa, dim)
    k2 *= 2.0
    k1 += k2
    k3 *= 2.0
    k1 += k3
    k1 += k4
    k1 *= dt / 6.0
    k1 += u_vals
    return k1


def step_rk4(state: FlowState, cfg: FlowConfig, dt=None) -> FlowState:
    """Advance one RK4 step; jets of the returned state are refreshed lazily."""
    if dt is None:
        dt = cfg.dt
    ops = jet_ops(state.spec, cfg.scheme)
    u_new = _rk4_update(state.u.values, state.d2u.components, dt, cfg.kappa, ops,
                        state.spec.dim, ops.hessian_buffers())
    u_new.flags.writeable = False
    sup_new = float(np.abs(u_new).max())
    if not np.isfinite(sup_new):
        raise BlowupError(state.t + dt, float(np.abs(state.u.values).max()), "non-finite field")
    return FlowState(state.t + dt, PeriodicScalarField(state.spec, u_new), scheme=cfg.scheme)


def monitor_record(state: FlowState, cfg: FlowConfig) -> MonitorRecord:
    """All tracked scalars of one state (sup norms, psi, angle range, volume)."""
    u = state.u.values
    d2u = state.d2u.components
    du_sq = state.norm_sq(1)
    d2u_sq = state.norm_sq(2)
    psi = state.psi(cfg.C0, cfg.C1)
    theta = _angle_values(d2u, state.spec.dim)
    return MonitorRecord(
        t=state.t,
        max_u=float(np.abs(u).max()),
        max_du=float(np.sqrt(du_sq.max())),
        max_d2u=float(np.sqrt(d2u_sq.max())),
        max_d3u=float(np.sqrt(state.norm_sq(3).max())),
        psi_max=float(psi.max()),
        theta_min=float(theta.min()),
        theta_max=float(theta.max()),
        volume=hessian_volume(d2u, state.spec),
        dt=cfg.dt,
    )


def integrate(u0: PeriodicScalarField, cfg: FlowConfig, sink=None, t_start=0.0) -> FlowResult:
    """Run the flow from u0 until convergence, t_max or blowup.

    Convergence means sup|du| < conv_tol and sup|D^2 u| < conv_tol, plus
    sup|u| < conv_tol when kappa < 0 (the zero potential is the target);
    for kappa = 0 constants are stationary and any constant limit counts.

    Emits a MonitorRecord at the start, at every step whose global index
    (counted from t = 0) is a multiple of ``checkpoint_every``, and at
    termination.  Raises nothing on blowup: the result carries a report.

    ``t_start`` continues the clock from a checkpoint: the update sequence and
    the record cadence are then bit-identical to the uninterrupted run.

    A non-finite field is reported as a blowup, so numpy's invalid-value
    warnings are off inside the loop; ``sink`` runs under the caller's
    floating-point error state.

    Each state's jets share one forward transform (``ops.reusing_spectra``);
    the kept spectrum is dropped when ``integrate`` returns.
    """
    if u0.spec != cfg.grid:
        raise ValueError("u0 grid does not match config grid")
    if not u0.is_finite():
        raise ValueError("u0 is not finite")
    if cfg.kappa > 0.0:
        warnings.warn(
            "kappa > 0 is experimental: no convergence guarantee is certified",
            stacklevel=2,
        )

    ops = jet_ops(cfg.grid, cfg.scheme)
    buffers = ops.hessian_buffers()
    dim = cfg.grid.dim
    dt = cfg.dt
    tol = cfg.conv_tol
    kappa = cfg.kappa
    eps1_sq = cfg.eps1 * cfg.eps1
    record_every = cfg.checkpoint_every

    u = u0.values
    t = float(t_start)
    step = 0
    first_step = round(t / dt)
    records = []
    last_emitted = -1
    warned_region = False
    caller_errstate = np.geterr()

    def emit(state):
        nonlocal last_emitted, warned_region
        rec = monitor_record(state, cfg)
        records.append(rec)
        if sink is not None:
            with np.errstate(**caller_errstate):
                sink(rec)
        last_emitted = step
        if not warned_region and rec.psi_max >= eps1_sq:
            warned_region = True
            warnings.warn(
                f"max psi = {rec.psi_max:.3g} is outside the certified region "
                f"psi < eps1^2 = {eps1_sq:.3g}",
                stacklevel=3,
            )

    def make_state(hess_stack):
        state = FlowState(t, PeriodicScalarField(cfg.grid, u), scheme=cfg.scheme)
        state._jets[2] = SymMatrixField(cfg.grid, hess_stack)
        return state

    def finish(outcome, blowup=None):
        state = make_state(hess)
        if last_emitted != step:
            emit(state)
        return FlowResult(outcome, state, tuple(records), step, blowup=blowup)

    with np.errstate(invalid="ignore"), ops.reusing_spectra():
        hess = ops.hessian(u)
        emit(make_state(hess))

        while True:
            # a non-finite u yields a non-finite Hessian, so this guard catches both
            sup_d2 = sym_sup_norm(hess, dim, 2)
            if not (sup_d2 <= HESSIAN_BLOWUP_GUARD):
                return finish("blowup", BlowupReport(
                    t=t,
                    sup_u=float(np.abs(u).max()),
                    sup_d2u=sup_d2,
                    reason="non-finite field" if not np.isfinite(sup_d2)
                    else f"sup|D2u| exceeded {HESSIAN_BLOWUP_GUARD}",
                ))

            if sup_d2 < tol and (kappa >= 0.0 or float(np.abs(u).max()) < tol):
                if sym_sup_norm(ops.gradient(u), dim, 1) < tol:
                    return finish("converged")

            if t + 0.5 * dt >= cfg.t_max:
                return finish("timed_out")

            u = _rk4_update(u, hess, dt, kappa, ops, dim, buffers)
            u.flags.writeable = False  # wrapped without a copy; its spectrum can be kept
            t += dt
            step += 1
            hess = ops.hessian(u)

            if record_every and (first_step + step) % record_every == 0:
                emit(make_state(hess))


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
    previous file at ``path`` intact."""
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
        npoints = spec.npoints
        raw = _read_exact(fh, 8 * npoints, "grid values")
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
    """Continue integrating a loaded state until cfg.t_max.

    The step sequence, and hence every emitted record from the resume point
    on, is bit-identical to the uninterrupted run.
    """
    return integrate(state.u, cfg, sink=sink, t_start=state.t)
