"""Flat key = value run configuration files and named presets.

The format is a plain text file, one ``key = value`` pair per line, with
``#`` comments.  Keys (exactly): dim, sizes, periods, kappa, cfl, scheme,
t_max, conv_tol, c0, c1, eps1, checkpoint_every, u0_preset, u0_amplitude,
u0_seed, u0_modes.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from .fields import GridSpec
from .flow import FlowConfig
from .initial_data import PRESET_NAMES, build_initial


class ConfigError(ValueError):
    """Malformed or inconsistent run configuration."""


_ALL_KEYS = (
    "dim", "sizes", "periods", "kappa", "cfl", "scheme", "t_max", "conv_tol",
    "c0", "c1", "eps1", "checkpoint_every",
    "u0_preset", "u0_amplitude", "u0_seed", "u0_modes",
)
_REQUIRED_KEYS = ("dim", "sizes", "kappa", "t_max", "u0_preset", "u0_amplitude")
# optional file key -> (FlowConfig field, type); absent keys keep FlowConfig's defaults
_OPTIONAL_FLOW_KEYS = {
    "cfl": ("cfl", float),
    "scheme": ("scheme", str),
    "conv_tol": ("conv_tol", float),
    "c0": ("C0", float),
    "c1": ("C1", float),
    "eps1": ("eps1", float),
    "checkpoint_every": ("checkpoint_every", int),
}


@dataclass(frozen=True)
class RunSetup:
    """A FlowConfig plus the initial-data recipe."""

    cfg: FlowConfig
    u0_preset: str
    u0_amplitude: float
    u0_seed: int
    u0_modes: tuple

    def build_u0(self):
        return build_initial(
            self.cfg.grid,
            self.u0_preset,
            self.u0_amplitude,
            modes=self.u0_modes,
            seed=self.u0_seed,
            C0=self.cfg.C0,
            C1=self.cfg.C1,
            scheme=self.cfg.scheme,
        )


def _parse_pairs(text):
    pairs = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _ALL_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in pairs:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        if not value:
            raise ConfigError(f"line {lineno}: empty value for {key!r}")
        pairs[key] = value
    return pairs


def _get(pairs, key, kind, default=None):
    if key not in pairs:
        return default
    raw = pairs[key]
    try:
        if kind is int:
            return int(raw)
        if kind is float:
            return float(raw)
        return raw
    except ValueError as exc:
        raise ConfigError(f"key {key!r}: cannot parse {raw!r} as {kind.__name__}") from exc


def parse_config_text(text) -> RunSetup:
    pairs = _parse_pairs(text)
    for key in _REQUIRED_KEYS:
        if key not in pairs:
            raise ConfigError(f"missing required key {key!r}")
    dim = _get(pairs, "dim", int)
    try:
        sizes = tuple(int(tok) for tok in pairs["sizes"].split(","))
    except ValueError as exc:
        raise ConfigError(f"sizes: cannot parse {pairs['sizes']!r}") from exc
    if len(sizes) == 1 and dim > 1:
        sizes = sizes * dim
    periods = None
    if "periods" in pairs:
        try:
            periods = tuple(float(tok) for tok in pairs["periods"].split(","))
        except ValueError as exc:
            raise ConfigError(f"periods: cannot parse {pairs['periods']!r}") from exc
        if len(periods) == 1 and dim > 1:
            periods = periods * dim
    try:
        grid = GridSpec(dim, sizes, periods)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    optional = {
        field: _get(pairs, key, kind)
        for key, (field, kind) in _OPTIONAL_FLOW_KEYS.items()
        if key in pairs
    }
    try:
        cfg = FlowConfig(
            grid=grid,
            kappa=_get(pairs, "kappa", float),
            t_max=_get(pairs, "t_max", float),
            **optional,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    preset = pairs["u0_preset"]
    modes_raw = _get(pairs, "u0_modes", str, "1")
    try:
        modes = tuple(int(tok) for tok in modes_raw.split(","))
    except ValueError as exc:
        raise ConfigError(f"u0_modes: cannot parse {modes_raw!r}") from exc
    setup = RunSetup(
        cfg=cfg,
        u0_preset=preset,
        u0_amplitude=_get(pairs, "u0_amplitude", float),
        u0_seed=_get(pairs, "u0_seed", int, 0),
        u0_modes=modes,
    )
    if preset not in PRESET_NAMES:
        raise ConfigError(f"unknown u0_preset {preset!r}")
    return setup


def parse_config_file(path) -> RunSetup:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config_text(text)


def format_stepper_config(cfg: FlowConfig) -> str:
    """``key = value`` lines of the grid and stepper keys (no initial data)."""
    lines = [
        f"dim = {cfg.grid.dim}",
        "sizes = " + ",".join(str(s) for s in cfg.grid.sizes),
        "periods = " + ",".join(f"{p:.17g}" for p in cfg.grid.periods),
        f"kappa = {cfg.kappa:.17g}",
        f"cfl = {cfg.cfl:.17g}",
        f"scheme = {cfg.scheme}",
        f"t_max = {cfg.t_max:.17g}",
        f"conv_tol = {cfg.conv_tol:.17g}",
        f"c0 = {cfg.C0:.17g}",
        f"c1 = {cfg.C1:.17g}",
        f"eps1 = {cfg.eps1:.17g}",
        f"checkpoint_every = {cfg.checkpoint_every}",
    ]
    return "\n".join(lines) + "\n"


def format_config(setup: RunSetup) -> str:
    """Every key of a run configuration, as ``parse_config_text`` reads it."""
    lines = [
        f"u0_preset = {setup.u0_preset}",
        f"u0_amplitude = {setup.u0_amplitude:.17g}",
        f"u0_seed = {setup.u0_seed}",
        "u0_modes = " + ",".join(str(m) for m in setup.u0_modes),
    ]
    return format_stepper_config(setup.cfg) + "\n".join(lines) + "\n"


PRESETS = {
    # linearized stability of the flat torus: a single small mode at kappa = 0
    "stability_kappa0": """
        dim = 1
        sizes = 128
        kappa = 0
        t_max = 2
        conv_tol = 1e-8
        checkpoint_every = 200
        u0_preset = single_mode
        u0_amplitude = 1e-3
        u0_modes = 1
    """,
    # pure ODE regime: constants decay like exp(kappa t)
    "constant_decay": """
        dim = 1
        sizes = 64
        kappa = -1
        cfl = 0.5
        t_max = 5
        conv_tol = 1e-4
        checkpoint_every = 500
        u0_preset = constant
        u0_amplitude = 0.01
    """,
    # certified small-data run: random band-limited u0 with max psi < eps1^2
    "psi_random": """
        dim = 1
        sizes = 64
        kappa = 0
        t_max = 1
        conv_tol = 1e-8
        checkpoint_every = 100
        u0_preset = random_bandlimited
        u0_amplitude = 0.09
        u0_modes = 3
        u0_seed = 1
    """,
    # certified 2-d small-data run
    "psi_random_2d": """
        dim = 2
        sizes = 32,32
        kappa = 0
        t_max = 1
        conv_tol = 1e-8
        checkpoint_every = 100
        u0_preset = random_bandlimited
        u0_amplitude = 0.05
        u0_modes = 2
        u0_seed = 7
    """,
    # EXPLORATORY: C0-small but C1-large data leaves the graph regime at once;
    # outputs are not certified and excluded from acceptance
    "explore_c1_large": """
        dim = 1
        sizes = 64
        kappa = 0
        t_max = 0.5
        checkpoint_every = 50
        u0_preset = single_mode
        u0_amplitude = 0.02
        u0_modes = 8
    """,
}


def load_setup(config_arg) -> RunSetup:
    """Resolve a CLI config argument: a file path or a preset name."""
    if os.path.exists(config_arg):
        return parse_config_file(config_arg)
    if config_arg in PRESETS:
        return parse_config_text(PRESETS[config_arg])
    raise ConfigError(
        f"{config_arg!r} is neither a config file nor a preset "
        f"(known presets: {', '.join(sorted(PRESETS))})"
    )
