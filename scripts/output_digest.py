#!/usr/bin/env python3
"""Print sha256 digests of lmcf's deterministic outputs, to compare checkouts.

Runs ``lmcf run`` and then ``lmcf resume`` from its checkpoint on the
certified presets and on configs that cover both jet routes (1-D DFT matrix
pair at N = 16 and 64 and FFT, 2-D and 3-D FFT), the central4 symbol on each
(1-D DFT matrix pair at N = 64, 2-D FFT), unequal sizes and periods per axis
(2-D and 3-D FFT) and a record every step with kappa != 0 (1-D and 3-D),
then ``lmcf verify all``, then what no CLI command runs: the RK4 order fit's
``step_rk4`` chain at dt = 4e-4 (cfl 0.2048 at N = 16), two
``sample_trajectory`` runs (1-D DFT matrix and 2-D FFT), each chain step and
each trajectory one fixed-step ``integrate`` run, three two-member ensemble
``integrate`` runs per 1-D route (DFT matrix pair at N = 16, FFT at N = 256),
and last one more run pair that the blowup guard stops, off its record
cadence, so that the record emitted at a stop and its CSV row are pinned.
Prints one sha256 per run pair, one over all of them but the last (exit
codes, monitors.csv, summary.txt, final.lmcf), one per file of ``lmcf
verify all``, one over all of those files, one per chain or trajectory (t,
u and ``monitor_record`` of every state), one per ensemble's first member
(outcome, steps, records and final t and u), marked "= alone" when it
equals the member's own run, and one for the blowup pair, so two
checkouts' outputs can be compared report by report.  A resumed summary echoes its checkpoint path, so run
it from the root of each checkout with the same relative output directory:

    PYTHONPATH=src python scripts/output_digest.py [out_dir]
"""

import contextlib
import dataclasses
import hashlib
import io
import struct
import sys
from pathlib import Path

from lmcf.cli import main
from lmcf.fields import GridSpec
from lmcf.flow import FlowConfig, FlowState, Run, integrate, monitor_record, step_rk4
from lmcf.initial_data import random_bandlimited_potential, single_mode_potential
from lmcf.verification import sample_trajectory
from run_stability_battery import CERTIFIED_PRESETS  # the script's directory is on sys.path

_RANDOM = "u0_preset = random_bandlimited\nu0_seed = 5\n"
CONFIGS = {
    # the smallest DFT matrix grid, ending off its record cadence (51 steps, a record every 7)
    "dft_1d_16": "dim = 1\nsizes = 16\nkappa = -0.5\nt_max = 0.02\ncheckpoint_every = 7\n"
                 "u0_amplitude = 0.05\nu0_modes = 3\n" + _RANDOM,
    "dft_1d_64": "dim = 1\nsizes = 64\nkappa = -0.5\nt_max = 0.02\ncheckpoint_every = 1\n"
                 "u0_amplitude = 0.09\nu0_modes = 3\n" + _RANDOM,
    "fft_1d_256": "dim = 1\nsizes = 256\nkappa = 0\nt_max = 0.004\ncheckpoint_every = 1\n"
                  "u0_amplitude = 0.05\nu0_modes = 3\n" + _RANDOM,
    # the smallest FFT-route size above DFT_MATRIX_MAX_N, and N = 2 mod 4
    "fft_1d_130": "dim = 1\nsizes = 130\nkappa = -0.5\nt_max = 0.004\ncheckpoint_every = 1\n"
                  "u0_amplitude = 0.05\nu0_modes = 3\n" + _RANDOM,
    "fft_2d_64": "dim = 2\nsizes = 64,64\nkappa = -1\nt_max = 0.01\ncheckpoint_every = 4\n"
                 "u0_amplitude = 0.05\nu0_modes = 3\n" + _RANDOM,
    "fft_3d_16": "dim = 3\nsizes = 16,16,16\nkappa = 0\nt_max = 0.05\ncheckpoint_every = 2\n"
                 "u0_amplitude = 0.04\nu0_modes = 2\n" + _RANDOM,
    "central4_2d_32": "dim = 2\nsizes = 32,32\nkappa = -0.5\nscheme = central4\nt_max = 0.1\n"
                      "checkpoint_every = 3\nu0_amplitude = 0.05\nu0_modes = 2\n" + _RANDOM,
    # central4 on the DFT matrix pair, ending off its record cadence
    "central4_1d_64": "dim = 1\nsizes = 64\nkappa = -0.5\nscheme = central4\nt_max = 0.02\n"
                      "checkpoint_every = 5\nu0_amplitude = 0.05\nu0_modes = 3\n" + _RANDOM,
    "fft_2d_48x32": "dim = 2\nsizes = 48,32\nperiods = 1,1.5\nkappa = -0.5\nt_max = 0.005\n"
                    "checkpoint_every = 2\nu0_amplitude = 0.05\nu0_modes = 3\n" + _RANDOM,
    "fft_3d_16x12x8": "dim = 3\nsizes = 16,12,8\nperiods = 1,2,0.5\nkappa = 0\nt_max = 0.01\n"
                      "checkpoint_every = 2\nu0_amplitude = 0.02\nu0_modes = 2\n" + _RANDOM,
    # 3-D with the Einstein term and a record every step: each step's k1 is its record's angle
    "fft_3d_12x16x10": "dim = 3\nsizes = 12,16,10\nperiods = 1,1.5,0.5\nkappa = -0.5\n"
                       "t_max = 0.0003\ncheckpoint_every = 1\nu0_amplitude = 0.03\nu0_modes = 2\n"
                       + _RANDOM,
}
# sup|D^2 u0| = 4 pi^2 * 0.25083 = 9.9024 starts just below the guard, and
# kappa u grows it past 10 at step 9, off the record cadence of 4
BLOWUP_CONFIG = ("dim = 1\nsizes = 64\nkappa = 50\nt_max = 0.01\ncheckpoint_every = 4\n"
                 "u0_preset = single_mode\nu0_amplitude = 0.25083\nu0_modes = 1\n")
RUN_FILES = ("monitors.csv", "summary.txt", "final.lmcf")


def _digest_files(sha, directory, names):
    for name in names:
        sha.update(name.encode() + b"\0" + (directory / name).read_bytes())


def run_pair(out, name, config):
    """``lmcf run`` then ``lmcf resume`` to twice the run's final time; sha256 of both."""
    first, second = out / name, out / f"{name}_resume"
    code_run = main(["run", config, "-o", str(first)])
    t_final = float(next(line.split("=")[1] for line in
                         (first / "summary.txt").read_text().splitlines()
                         if line.startswith("t_final")))
    code_resume = main(["resume", str(first / "final.lmcf"), "-o", str(second),
                        "--t-max", repr(2.0 * t_final), "--checkpoint-every", "3"])
    sha = hashlib.sha256(f"{code_run},{code_resume}".encode())
    _digest_files(sha, first, RUN_FILES)
    _digest_files(sha, second, RUN_FILES)
    return sha


def _digest_states(sha, states, cfg):
    for state in states:
        sha.update(struct.pack("<d", state.t) + state.u.values.tobytes()
                   + repr(monitor_record(state, cfg)).encode())


def _trajectory_digest(u0, cfg, sample_every, n_samples):
    sha = hashlib.sha256()
    for tr in sample_trajectory(u0, cfg, sample_every, n_samples).triples:
        _digest_states(sha, (tr.before, tr.at, tr.after), cfg)
    return sha


def chain_digests():
    """sha256 of every state of the RK4 order fit's middle ``step_rk4`` chain
    (N = 16, kappa -0.5, cfl 0.2048, so dt = cfl / 512 = 4e-4 bit for bit, to
    t = 0.08; its records carry that dt), of the triples of the
    inequalities battery's ``sample_trajectory`` run at kappa -1, and of a
    2-D one whose triples (steps 2-7) fall on and off a record every 2 steps."""
    spec = GridSpec(1, (16,))
    cfg = FlowConfig(grid=spec, kappa=-0.5, t_max=1.0, cfl=0.2048)
    state = FlowState.initial(single_mode_potential(spec, 0.01, (1,)), cfg)
    chain = hashlib.sha256()
    _digest_states(chain, [state], cfg)
    for _ in range(round(0.08 / cfg.dt)):
        state = step_rk4(state, cfg)
        _digest_states(chain, [state], cfg)

    spec = GridSpec(1, (64,))
    cfg = FlowConfig(grid=spec, kappa=-1.0, t_max=1.0, checkpoint_every=0)
    u0 = random_bandlimited_potential(spec, 0.08, 3, seed=12, C0=cfg.C0, C1=cfg.C1)
    trajectory = _trajectory_digest(u0, cfg, 40, 10)

    spec = GridSpec(2, (16, 16))
    cfg = FlowConfig(grid=spec, kappa=-0.5, t_max=1.0, checkpoint_every=2)
    u0 = random_bandlimited_potential(spec, 0.05, 2, seed=7)
    return {"step_rk4_chain": chain, "sample_trajectory": trajectory,
            "sample_trajectory_2d": _trajectory_digest(u0, cfg, 3, 2)}


def _result_digest(result):
    sha = hashlib.sha256(f"{result.outcome},{result.steps}".encode())
    for rec in result.records:
        sha.update(repr(rec).encode())
    sha.update(struct.pack("<d", result.state.t) + result.state.u.values.tobytes())
    return sha


def ensemble_digests():
    """sha256 of each of three runs per 1-D route, each run stepped in a
    two-member ensemble with a partner that differs from it only in kappa,
    paired with the sha256 of the run alone: kappa 0, -0.5 and -1, each with
    its own t_max and record cadence, the last from a state at step 20."""
    out = {}
    for route, n, t_max in (("dft_16", 16, 0.02), ("fft_256", 256, 0.0015)):
        spec = GridSpec(1, (n,))
        base = FlowConfig(grid=spec, kappa=0.0, t_max=t_max, conv_tol=1e-13)
        u0s = [random_bandlimited_potential(spec, 0.05, 3, seed=seed) for seed in (5, 6, 7)]
        runs = (Run(u0s[0], dataclasses.replace(base, checkpoint_every=7)),
                Run(u0s[1], dataclasses.replace(base, kappa=-0.5, t_max=0.75 * t_max,
                                                checkpoint_every=3)),
                Run(FlowState(20 * base.dt, u0s[2]),
                    dataclasses.replace(base, kappa=-1.0, checkpoint_every=5)))
        for i, (run, kappa) in enumerate(zip(runs, (-1.0, 0.0, -0.5))):
            partner = Run(run.start, dataclasses.replace(run.cfg, kappa=kappa))
            together = integrate((run, partner))[0]
            out[f"ensemble_{route}[{i}]"] = (_result_digest(together),
                                             _result_digest(integrate(run.start, run.cfg)))
    return out


def digest(out_dir):
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    cases = {name: name for name in CERTIFIED_PRESETS}
    for name, text in CONFIGS.items():
        path = out / f"{name}.cfg"
        path.write_text(text)
        cases[name] = str(path)
    runs = hashlib.sha256()
    for name, config in cases.items():
        sha = run_pair(out, name, config)
        print(f"{name:20s} {sha.hexdigest()}")
        runs.update(sha.digest())
    verify_dir = out / "verify_all"
    with contextlib.redirect_stdout(io.StringIO()):  # the summary lines are in the files
        code = main(["verify", "all", "-o", str(verify_dir)])
    names = sorted(p.name for p in verify_dir.iterdir())
    verify = hashlib.sha256(f"{code},{len(names)}".encode())
    _digest_files(verify, verify_dir, names)
    print(f"{'runs':20s} {runs.hexdigest()}")
    for name in names:
        print(f"  {name:40s} {hashlib.sha256((verify_dir / name).read_bytes()).hexdigest()}")
    print(f"{'verify_all':20s} {verify.hexdigest()}  ({len(names)} files, exit {code})")
    for name, sha in chain_digests().items():
        print(f"{name:20s} {sha.hexdigest()}")
    for name, (together, alone) in ensemble_digests().items():
        mark = "= alone" if together.digest() == alone.digest() else f"alone {alone.hexdigest()}"
        print(f"{name:20s} {together.hexdigest()}  {mark}")
    path = out / "blowup_1d_64.cfg"
    path.write_text(BLOWUP_CONFIG)
    print(f"{'blowup_1d_64':20s} {run_pair(out, 'blowup_1d_64', str(path)).hexdigest()}")


if __name__ == "__main__":
    digest(sys.argv[1] if len(sys.argv) > 1 else ".digest_out")
