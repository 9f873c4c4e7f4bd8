#!/usr/bin/env python3
"""Print sha256 digests of lmcf's deterministic outputs, to compare checkouts.

Runs ``lmcf run`` and then ``lmcf resume`` from its checkpoint on the
certified presets and on configs that cover every jet route (1-D DFT matrix
pair at N = 16 and 64 and FFT, 2-D and 3-D FFT, 2-D central4), unequal sizes and periods
per axis (2-D and 3-D FFT) and a record every step with kappa != 0 (1-D and
3-D), then ``lmcf verify all``, then what no CLI command runs: the RK4
order fit's ``step_rk4`` chain at dt = 4e-4 and two ``sample_trajectory``
runs, each one fixed-step ``integrate`` run (1-D DFT matrix and 2-D FFT).
Prints one sha256 per run pair, one over all of them (exit codes,
monitors.csv, summary.txt, final.lmcf), one per file of ``lmcf verify all``,
one over all of those files and one per chain or trajectory (t, u and
``monitor_record`` of every state), so two checkouts' outputs can be
compared report by report.  A resumed summary echoes its checkpoint path, so run
it from the root of each checkout with the same relative output directory:

    PYTHONPATH=src python scripts/output_digest.py [out_dir]
"""

import contextlib
import hashlib
import io
import struct
import sys
from pathlib import Path

from lmcf.cli import main
from lmcf.fields import GridSpec
from lmcf.flow import FlowConfig, FlowState, monitor_record, step_rk4
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
    "fft_2d_48x32": "dim = 2\nsizes = 48,32\nperiods = 1,1.5\nkappa = -0.5\nt_max = 0.005\n"
                    "checkpoint_every = 2\nu0_amplitude = 0.05\nu0_modes = 3\n" + _RANDOM,
    "fft_3d_16x12x8": "dim = 3\nsizes = 16,12,8\nperiods = 1,2,0.5\nkappa = 0\nt_max = 0.01\n"
                      "checkpoint_every = 2\nu0_amplitude = 0.02\nu0_modes = 2\n" + _RANDOM,
    # 3-D with the Einstein term and a record every step: each step's k1 is its record's angle
    "fft_3d_12x16x10": "dim = 3\nsizes = 12,16,10\nperiods = 1,1.5,0.5\nkappa = -0.5\n"
                       "t_max = 0.0003\ncheckpoint_every = 1\nu0_amplitude = 0.03\nu0_modes = 2\n"
                       + _RANDOM,
}
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
    (N = 16, kappa -0.5, dt 4e-4 to t = 0.08), of the triples of the
    inequalities battery's ``sample_trajectory`` run at kappa -1, and of a
    2-D one whose triples (steps 2-7) fall on and off a record every 2 steps."""
    spec = GridSpec(1, (16,))
    cfg = FlowConfig(grid=spec, kappa=-0.5, t_max=1.0)
    state = FlowState.initial(single_mode_potential(spec, 0.01, (1,)), cfg)
    chain = hashlib.sha256()
    _digest_states(chain, [state], cfg)
    for _ in range(round(0.08 / 4e-4)):
        state = step_rk4(state, cfg, dt=4e-4)
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


if __name__ == "__main__":
    digest(sys.argv[1] if len(sys.argv) > 1 else ".digest_out")
