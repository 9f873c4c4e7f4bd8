"""Deterministic initial potentials for experiments.

Three families: exact constants, single Fourier modes with a raw
amplitude, and seeded random band-limited fields.  Random fields are
rescaled so that the initial max of psi = C0 u^2 + C1 |du|^2 + |D^2 u|^2
equals amplitude^2 exactly (psi is homogeneous of degree two in u), since
the certified hypothesis is a psi bound rather than a norm bound on u.
"""

from __future__ import annotations

import itertools

import numpy as np

from .fields import GridSpec, PeriodicScalarField, _as_int, jet_ops, psi_values, sym_norm_sq

PRESET_NAMES = ("constant", "single_mode", "random_bandlimited")


def constant_potential(spec: GridSpec, amplitude: float) -> PeriodicScalarField:
    return PeriodicScalarField.constant(spec, amplitude)


def _check_resolved(spec: GridSpec, mode):
    """A mode above an axis' Nyquist mode N_a/2 would run as an aliased lower one."""
    for axis, (k, n) in enumerate(zip(mode, spec.sizes)):
        if abs(k) > n // 2:
            raise ValueError(f"mode {k} on axis {axis} exceeds the Nyquist mode "
                             f"N_{axis}/2 = {n // 2} of the grid")


def single_mode_potential(spec: GridSpec, amplitude: float, mode) -> PeriodicScalarField:
    """amplitude * cos(2 pi k . x / P) for an integer mode vector k."""
    mode = tuple(_as_int("mode", m) for m in mode)
    if len(mode) == 1 and spec.dim > 1:
        mode = mode + (0,) * (spec.dim - 1)
    if len(mode) != spec.dim:
        raise ValueError(f"mode vector {mode} does not match dimension {spec.dim}")
    if all(m == 0 for m in mode):
        raise ValueError("mode vector must be nonzero; use the constant preset instead")
    _check_resolved(spec, mode)
    coords = spec.coordinates()
    phase = np.zeros(spec.sizes)
    for k, x, p in zip(mode, coords, spec.periods):
        phase += k * x / p
    return PeriodicScalarField(spec, amplitude * np.cos(2.0 * np.pi * phase))


def _half_space_modes(dim, max_mode):
    """Mode vectors with 0 < max|k_a| <= max_mode, one per +/- pair, in a fixed order."""
    modes = []
    for k in itertools.product(range(-max_mode, max_mode + 1), repeat=dim):
        if all(c == 0 for c in k):
            continue
        first = next(c for c in k if c != 0)
        if first > 0:
            modes.append(k)
    return sorted(modes)


def random_bandlimited_potential(
    spec: GridSpec,
    amplitude: float,
    max_mode: int,
    seed: int,
    C0: float = 100.0,
    C1: float = 10.0,
    scheme: str = "spectral",
) -> PeriodicScalarField:
    """Seeded random mean-zero field, scaled so initial max psi = amplitude^2."""
    max_mode, seed = _as_int("max_mode", max_mode), _as_int("seed", seed)
    if max_mode < 1:
        raise ValueError("max_mode must be >= 1")
    if seed < 0:
        raise ValueError(f"random_bandlimited seed must be >= 0, got {seed}")
    _check_resolved(spec, (max_mode,) * spec.dim)
    rng = np.random.default_rng(seed)
    coords = spec.coordinates()
    values = np.zeros(spec.sizes)
    for mode in _half_space_modes(spec.dim, max_mode):
        a, b = rng.standard_normal(2)
        phase = np.zeros(spec.sizes)
        for k, x, p in zip(mode, coords, spec.periods):
            phase += k * x / p
        values += a * np.cos(2.0 * np.pi * phase) + b * np.sin(2.0 * np.pi * phase)
    ops = jet_ops(spec, scheme)
    du, d2u = ops.jets(ops.forward(values), (1, 2))
    du_sq = sym_norm_sq(du, spec.dim, 1)
    d2_sq = sym_norm_sq(d2u, spec.dim, 2)
    psi_max = float(np.max(psi_values(values, du_sq, d2_sq, C0, C1)))
    if psi_max <= 0.0:
        raise ValueError("degenerate random draw")
    values *= amplitude / np.sqrt(psi_max)
    return PeriodicScalarField(spec, values)


def check_recipe(preset, modes):
    """ValueError unless ``preset`` is known and random_bandlimited has one max mode."""
    if preset not in PRESET_NAMES:
        raise ValueError(f"unknown u0_preset {preset!r}; known: {', '.join(PRESET_NAMES)}")
    if preset == "random_bandlimited" and np.ndim(modes) and len(modes) != 1:
        raise ValueError(f"u0_modes of random_bandlimited data is one max mode, got {modes}")


def build_initial(
    spec: GridSpec,
    preset: str,
    amplitude: float,
    modes=(1,),
    seed: int = 0,
    C0: float = 100.0,
    C1: float = 10.0,
    scheme: str = "spectral",
) -> PeriodicScalarField:
    """Dispatch on the preset name; see the module docstring for semantics."""
    check_recipe(preset, modes)
    if preset == "constant":
        return constant_potential(spec, amplitude)
    if preset == "single_mode":
        return single_mode_potential(spec, amplitude, modes)
    max_mode = modes[0] if np.ndim(modes) else modes
    return random_bandlimited_potential(spec, amplitude, max_mode, seed, C0, C1, scheme)
