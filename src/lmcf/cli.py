"""Command-line front door.

Subcommands::

    lmcf run <config> -o <dir>
    lmcf verify <suite> -o <dir>
    lmcf sweep <config> --param {epsilon,kappa,N} --values v1,v2,... -o <dir>
    lmcf resume <checkpoint> -o <dir> [--t-max T]

Exit codes: 0 converged / all reports pass, 1 config or I/O error,
2 timed out, 3 blowup, 4 failed verification report.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys

from .config_io import ConfigError, RunSetup, format_config, format_stepper_config, load_setup
from .fields import GridSpec
from .flow import checkpoint_load, checkpoint_save, integrate, resume_flow
from .monitors import write_monitor_csv
from .suites import SUITE_NAMES, run_suite
from .verification import fit_decay_rate, write_report

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_TIMEOUT = 2
EXIT_BLOWUP = 3
EXIT_VERIFY_FAILED = 4

_OUTCOME_EXIT = {"converged": EXIT_OK, "timed_out": EXIT_TIMEOUT, "blowup": EXIT_BLOWUP}


def _write_run_outputs(result, cfg, config_echo, outdir, extra_lines=()):
    os.makedirs(outdir, exist_ok=True)
    write_monitor_csv(result.records, os.path.join(outdir, "monitors.csv"))
    checkpoint_save(result.state, cfg, os.path.join(outdir, "final.lmcf"))
    first = result.records[0]
    last = result.records[-1]
    lines = [
        *extra_lines,
        f"outcome = {result.outcome}",
        f"steps = {result.steps}",
        f"t_final = {result.state.t:.17g}",
        f"max_u_final = {last.max_u:.17g}",
        f"max_du_final = {last.max_du:.17g}",
        f"max_d2u_final = {last.max_d2u:.17g}",
        f"psi_max_initial = {first.psi_max:.17g}",
        f"psi_max_final = {last.psi_max:.17g}",
        f"volume_initial = {first.volume:.17g}",
        f"volume_final = {last.volume:.17g}",
    ]
    if result.blowup is not None:
        lines.append(f"blowup_reason = {result.blowup.reason}")
        lines.append(f"blowup_sup_u = {result.blowup.sup_u:.17g}")
    lines.append("")
    lines.append("# configuration")
    lines.append(config_echo.rstrip("\n"))
    with open(os.path.join(outdir, "summary.txt"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _run_setup(setup: RunSetup, outdir):
    """Integrate a setup's u0 under its config and write the run outputs."""
    result = integrate(setup.build_u0(), setup.cfg)
    _write_run_outputs(result, setup.cfg, format_config(setup), outdir)
    return result


def cmd_run(args):
    return _OUTCOME_EXIT[_run_setup(load_setup(args.config), args.output).outcome]


def cmd_verify(args):
    reports, all_passed = run_suite(args.suite)
    os.makedirs(args.output, exist_ok=True)
    summary = []
    for rep in reports:
        write_report(rep, os.path.join(args.output, f"{rep.name}.report.txt"))
        summary.append(rep.lines()[-1])
    with open(os.path.join(args.output, "verify_summary.txt"), "w", encoding="ascii") as fh:
        fh.write("\n".join(summary) + "\n")
    for line in summary:
        print(line)
    return EXIT_OK if all_passed else EXIT_VERIFY_FAILED


def _sweep_value_setup(setup: RunSetup, param, value):
    cfg = setup.cfg
    if param == "epsilon":
        return dataclasses.replace(setup, u0_amplitude=float(value))
    if param == "kappa":
        return dataclasses.replace(setup, cfg=dataclasses.replace(cfg, kappa=float(value)))
    if param == "N":
        n = int(value)
        grid = GridSpec(cfg.grid.dim, (n,) * cfg.grid.dim, cfg.grid.periods)
        return dataclasses.replace(setup, cfg=dataclasses.replace(cfg, grid=grid))
    raise ConfigError(f"unknown sweep parameter {param!r}")


def _fitted_psi_rate(records):
    """Decay rate of psi_max over the second half of the records, NaN if not fittable."""
    if len(records) < 3:
        return math.nan
    t_end = records[-1].t
    window = (0.5 * t_end, t_end)
    try:
        return fit_decay_rate(records, "psi_max", window)
    except ValueError:
        return math.nan


def cmd_sweep(args):
    setup = load_setup(args.config)
    values = [tok.strip() for tok in args.values.split(",") if tok.strip()]
    if not values:
        raise ConfigError("empty sweep value list")
    os.makedirs(args.output, exist_ok=True)
    rows = []
    worst = EXIT_OK
    for value in values:
        subdir = os.path.join(args.output, f"{args.param}_{value}")
        try:
            result = _run_setup(_sweep_value_setup(setup, args.param, value), subdir)
            outcome, code = result.outcome, _OUTCOME_EXIT[result.outcome]
            psi_final = result.records[-1].psi_max
            rate = _fitted_psi_rate(result.records)
        except (ConfigError, ValueError) as exc:
            print(f"sweep value {value}: {exc}", file=sys.stderr)
            outcome, code, psi_final, rate = "error", EXIT_CONFIG, math.nan, math.nan
        rows.append(f"{value},{outcome},{psi_final:.9g},{rate:.9g}")
        worst = max(worst, code)
    with open(os.path.join(args.output, "sweep.csv"), "w", encoding="ascii") as fh:
        fh.write("value,outcome,final_psi_max,fitted_rate\n")
        fh.write("\n".join(rows) + "\n")
    return worst


def cmd_resume(args):
    state, cfg = checkpoint_load(args.checkpoint, t_max=args.t_max)
    if args.t_max is not None and args.t_max <= state.t:
        raise ConfigError(f"--t-max {args.t_max} is not beyond checkpoint time {state.t:.6g}")
    cfg = dataclasses.replace(cfg, checkpoint_every=args.checkpoint_every)
    result = resume_flow(state, cfg)
    # the initial data is the checkpoint (resumed_from): an echo without u0_*
    # keys fails in ``lmcf run`` instead of integrating another potential
    _write_run_outputs(result, cfg, format_stepper_config(cfg), args.output,
                       extra_lines=(f"resumed_from = {args.checkpoint} "
                                    f"(t = {state.t:.17g})",))
    return _OUTCOME_EXIT[result.outcome]


def build_parser():
    parser = argparse.ArgumentParser(
        prog="lmcf",
        description="Lagrangian mean curvature flow in potential form on flat tori",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="integrate one configuration or preset")
    p_run.add_argument("config", help="config file path or preset name")
    p_run.add_argument("-o", "--output", required=True, help="output directory")
    p_run.set_defaults(func=cmd_run)

    p_verify = sub.add_parser("verify", help="run a verification battery")
    p_verify.add_argument("suite", help="one of: " + ", ".join(SUITE_NAMES))
    p_verify.add_argument("-o", "--output", required=True)
    p_verify.set_defaults(func=cmd_verify)

    p_sweep = sub.add_parser("sweep", help="one run per parameter value")
    p_sweep.add_argument("config", help="base config file path or preset name")
    p_sweep.add_argument("--param", required=True, choices=("epsilon", "kappa", "N"))
    p_sweep.add_argument("--values", required=True, help="comma-separated list")
    p_sweep.add_argument("-o", "--output", required=True)
    p_sweep.set_defaults(func=cmd_sweep)

    p_resume = sub.add_parser("resume", help="continue from a checkpoint")
    p_resume.add_argument("checkpoint", help="checkpoint file path")
    p_resume.add_argument("-o", "--output", required=True)
    p_resume.add_argument("--t-max", type=float, default=None,
                          help="new final time (default: checkpoint t + 1)")
    p_resume.add_argument("--checkpoint-every", type=int, default=0,
                          help="monitor cadence in steps")
    p_resume.set_defaults(func=cmd_resume)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ValueError, OSError) as exc:
        # validation failures anywhere in setup are configuration errors
        print(f"lmcf: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
