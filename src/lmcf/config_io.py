"""Flat key = value run configuration files and named presets.

The format is a plain text file, one ``key = value`` pair per line, with
``#`` comments.  ``KEYS`` lists the keys, in the order the echoes print them.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from operator import attrgetter

from .fields import GridSpec
from .flow import FlowConfig
from .initial_data import build_initial, check_recipe


class ConfigError(ValueError):
    """Malformed or inconsistent run configuration."""


# file key -> (field, type, required), in echo order.  The field is an attribute
# path from RunSetup: ``cfg.grid.*`` keys build the GridSpec, the other ``cfg.*``
# keys the FlowConfig and the rest the RunSetup; an absent optional key keeps
# its class default.  A type in a 1-tuple is a comma-separated list of it.
KEYS = {
    "dim": ("cfg.grid.dim", int, True),
    "sizes": ("cfg.grid.sizes", (int,), True),
    "periods": ("cfg.grid.periods", (float,), False),
    "kappa": ("cfg.kappa", float, True),
    "cfl": ("cfg.cfl", float, False),
    "scheme": ("cfg.scheme", str, False),
    "t_max": ("cfg.t_max", float, True),
    "conv_tol": ("cfg.conv_tol", float, False),
    "c0": ("cfg.C0", float, False),
    "c1": ("cfg.C1", float, False),
    "eps1": ("cfg.eps1", float, False),
    "checkpoint_every": ("cfg.checkpoint_every", int, False),
    "u0_preset": ("u0_preset", str, True),
    "u0_amplitude": ("u0_amplitude", float, True),
    "u0_seed": ("u0_seed", int, False),
    "u0_modes": ("u0_modes", (int,), False),
}


@dataclass(frozen=True)
class RunSetup:
    """A FlowConfig plus the initial-data recipe."""

    cfg: FlowConfig
    u0_preset: str
    u0_amplitude: float
    u0_seed: int = 0
    u0_modes: tuple = (1,)

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
        if key not in KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in pairs:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        if not value:
            raise ConfigError(f"line {lineno}: empty value for {key!r}")
        pairs[key] = value
    return pairs


def _parse_value(key, raw, kind):
    item = kind[0] if isinstance(kind, tuple) else kind
    try:
        if item is kind:
            return item(raw)
        return tuple(item(tok) for tok in raw.split(","))
    except ValueError as exc:
        what = item.__name__ if item is kind else f"comma-separated {item.__name__} list"
        raise ConfigError(f"key {key!r}: cannot parse {raw!r} as {what}") from exc


def _format_value(value, kind):
    item = kind[0] if isinstance(kind, tuple) else kind
    text = "{:.17g}".format if item is float else str
    return text(value) if item is kind else ",".join(map(text, value))


def parse_config_text(text) -> RunSetup:
    pairs = _parse_pairs(text)
    kwargs = {"cfg.grid": {}, "cfg": {}, "": {}}  # by the path of the class they build
    for key, (path, kind, required) in KEYS.items():
        if key in pairs:
            owner, _, name = path.rpartition(".")
            kwargs[owner][name] = _parse_value(key, pairs[key], kind)
        elif required:
            raise ConfigError(f"missing required key {key!r}")
    grid = kwargs["cfg.grid"]
    # one size or period stands for every axis; other dims are left to GridSpec
    if grid["dim"] in (2, 3):
        for name in ("sizes", "periods"):
            if len(grid.get(name, ())) == 1:
                grid[name] *= grid["dim"]
    try:
        cfg = FlowConfig(grid=GridSpec(**grid), **kwargs["cfg"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    setup = RunSetup(cfg=cfg, **kwargs[""])
    try:
        check_recipe(setup.u0_preset, setup.u0_modes)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return setup


def parse_config_file(path) -> RunSetup:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config_text(text)


def _echo(obj, prefix):
    """``key = value`` lines of the keys whose path starts with ``prefix``, read
    from ``obj`` (what the prefix leads to), each formatted by its type."""
    return "".join(
        f"{key} = {_format_value(attrgetter(path[len(prefix):])(obj), kind)}\n"
        for key, (path, kind, _) in KEYS.items() if path.startswith(prefix))


def format_stepper_config(cfg: FlowConfig) -> str:
    """``key = value`` lines of the grid and stepper keys (no initial data)."""
    return _echo(cfg, "cfg.")


def format_config(setup: RunSetup) -> str:
    """Every key of a run configuration, as ``parse_config_text`` reads it."""
    return _echo(setup, "")


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
