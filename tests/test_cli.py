"""Command-line contracts: exit codes, file formats, determinism."""

import dataclasses
import math
import struct
import subprocess
import sys

import numpy as np
import pytest

import lmcf.flow
from lmcf.cli import main
from lmcf.config_io import (
    KEYS,
    PRESETS,
    ConfigError,
    RunSetup,
    format_config,
    format_stepper_config,
    load_setup,
    parse_config_text,
)
from lmcf.fields import GridSpec
from lmcf.flow import FlowConfig, checkpoint_load
from lmcf.initial_data import build_initial
from lmcf.monitors import MONITOR_HEADER, read_monitor_csv

QUICK_CONFIG = """
dim = 1
sizes = 16
kappa = 0
t_max = 0.6
conv_tol = 1e-8
checkpoint_every = 20
u0_preset = single_mode
u0_amplitude = 1e-3
u0_modes = 1
"""


@pytest.fixture()
def quick_config(tmp_path):
    path = tmp_path / "quick.cfg"
    path.write_text(QUICK_CONFIG)
    return str(path)


class TestConfigParsing:
    def test_roundtrip_defaults(self):
        setup = parse_config_text(QUICK_CONFIG)
        assert setup.cfg.grid == GridSpec(1, (16,))
        assert setup.cfg.cfl == 0.2
        assert setup.cfg.C0 == 100.0
        assert setup.u0_modes == (1,)

    @pytest.mark.parametrize(
        "text,match",
        [
            ("dim = 1\n", "missing required key"),
            (QUICK_CONFIG + "bogus_key = 3\n", "unknown key"),
            (QUICK_CONFIG + "kappa = 0\n", "duplicate key"),
            (QUICK_CONFIG.replace("sizes = 16", "sizes = fifteen"), "sizes"),
            (QUICK_CONFIG.replace("u0_preset = single_mode", "u0_preset = wavelet"),
             "unknown u0_preset"),
            ("this is not a config\n", "expected 'key = value'"),
            (QUICK_CONFIG.replace("kappa = 0", "kappa = nan"), "kappa must be finite"),
            (QUICK_CONFIG.replace("t_max = 0.6", "t_max = inf"), "t_max must be finite"),
            (QUICK_CONFIG.replace("conv_tol = 1e-8", "conv_tol = inf"),
             "conv_tol must be finite"),
            (QUICK_CONFIG + "c0 = inf\n", "C0 must be finite"),
            (QUICK_CONFIG + "c1 = nan\n", "C1 must be finite"),
            # an out-of-range dim is not broadcast to: GridSpec rejects it
            (QUICK_CONFIG.replace("dim = 1", "dim = 9223372036854775808"),
             "dim must be 1, 2 or 3"),
        ],
    )
    def test_malformed(self, text, match):
        with pytest.raises(ConfigError, match=match):
            parse_config_text(text)

    def test_random_bandlimited_takes_one_max_mode(self):
        # a list used to run silently as its first entry
        text = QUICK_CONFIG.replace("single_mode", "random_bandlimited")
        assert parse_config_text(text.replace("u0_modes = 1", "u0_modes = 3")).u0_modes == (3,)
        with pytest.raises(ConfigError, match=r"u0_modes of random_bandlimited data is one "
                                              r"max mode, got \(3, 2\)"):
            parse_config_text(text.replace("u0_modes = 1", "u0_modes = 3,2"))
        spec = GridSpec(1, (16,))
        with pytest.raises(ValueError, match="u0_modes"):
            build_initial(spec, "random_bandlimited", 0.01, modes=(3, 2))
        one = build_initial(spec, "random_bandlimited", 0.01, modes=(3,), seed=2).values
        for modes in (3, np.int64(3)):  # a numpy integer used to raise an IndexError
            again = build_initial(spec, "random_bandlimited", 0.01, modes=modes, seed=2)
            assert np.array_equal(again.values, one)

    def test_format_parse_roundtrip(self):
        setup = parse_config_text(QUICK_CONFIG)
        again = parse_config_text(format_config(setup))
        assert again.cfg == setup.cfg
        assert again.u0_preset == setup.u0_preset
        assert again.u0_amplitude == setup.u0_amplitude
        assert again.u0_modes == setup.u0_modes

    def test_scalar_sizes_broadcast(self):
        text = QUICK_CONFIG.replace("dim = 1", "dim = 2")
        setup = parse_config_text(text)
        assert setup.cfg.grid == GridSpec(2, (16, 16))

    def test_presets_parse(self):
        for name in PRESETS:
            setup = load_setup(name)
            assert setup.cfg.t_max > 0

    def test_one_key_per_field(self):
        # every field of the classes a config builds has exactly one file key
        paths = sorted(path for path, _, _ in KEYS.values())
        want = sorted([f"cfg.grid.{f.name}" for f in dataclasses.fields(GridSpec)]
                      + [f"cfg.{f.name}" for f in dataclasses.fields(FlowConfig)
                         if f.name != "grid"]
                      + [f.name for f in dataclasses.fields(RunSetup) if f.name != "cfg"])
        assert paths == want

    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_preset_echo_round_trips(self, name):
        setup = load_setup(name)
        echo = format_config(setup)
        assert list(KEYS) == [line.split(" = ")[0] for line in echo.splitlines()]
        again = parse_config_text(echo)
        assert again == setup
        assert format_config(again) == echo

    def test_programmatic_ints_echo_as_ints(self):
        cfg = FlowConfig(grid=GridSpec(1, (16,)), kappa=-1, t_max=1, C0=100)
        echo = format_stepper_config(cfg).splitlines()
        assert "kappa = -1" in echo and "c0 = 100" in echo and "t_max = 1" in echo
        assert "cfl = 0.20000000000000001" in echo

    @pytest.mark.parametrize("key", [key for key, (_, kind, _) in KEYS.items() if kind is not str])
    def test_parse_error_names_key_value_and_type(self, key):
        kind = KEYS[key][1]
        what = kind.__name__ if isinstance(kind, type) else f"{kind[0].__name__} list"
        lines = [line for line in QUICK_CONFIG.splitlines() if not line.startswith(key + " ")]
        with pytest.raises(ConfigError) as info:
            parse_config_text("\n".join(lines + [f"{key} = 1,x"]))
        assert f"{key!r}" in str(info.value)
        assert "'1,x'" in str(info.value)
        assert what in str(info.value)

    def test_unknown_config_argument(self):
        with pytest.raises(ConfigError, match="neither a config file nor a preset"):
            load_setup("no_such_preset_or_file")


class TestRunCommand:
    def test_run_quick_config(self, quick_config, tmp_path):
        out = tmp_path / "out"
        assert main(["run", quick_config, "-o", str(out)]) == 0
        records = read_monitor_csv(out / "monitors.csv")
        header = (out / "monitors.csv").read_text().splitlines()[0]
        assert header == MONITOR_HEADER
        assert (out / "final.lmcf").exists()
        assert "outcome = converged" in (out / "summary.txt").read_text()
        assert records[-1].max_du < 1e-8

    def test_monitor_invariants(self, quick_config, tmp_path):
        out = tmp_path / "out"
        main(["run", quick_config, "-o", str(out)])
        records = read_monitor_csv(out / "monitors.csv")
        ts = [r.t for r in records]
        assert all(b > a for a, b in zip(ts, ts[1:]))
        for r in records:
            assert r.psi_max >= 0.0
            assert r.volume >= 1.0 - 1e-10
            assert r.theta_min <= r.theta_max
            assert max(abs(r.theta_min), abs(r.theta_max)) < math.pi / 2
            assert r.dt > 0.0

    def test_malformed_config_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("dim = 1\nwhat even is this\n")
        assert main(["run", str(bad), "-o", str(tmp_path / "o")]) == 1
        assert "lmcf:" in capsys.readouterr().err

    def test_missing_config_exits_1(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "nope.cfg"), "-o", str(tmp_path / "o")]) == 1
        assert "neither" in capsys.readouterr().err

    def test_invalid_initial_data_exits_1(self, tmp_path, capsys):
        cfg = tmp_path / "zero_mode.cfg"
        cfg.write_text(QUICK_CONFIG.replace("u0_modes = 1", "u0_modes = 0"))
        assert main(["run", str(cfg), "-o", str(tmp_path / "o")]) == 1
        assert "nonzero" in capsys.readouterr().err

    @pytest.mark.parametrize("text,match", [
        # on 16 points mode 9 samples to the grid values of mode 7
        (QUICK_CONFIG.replace("u0_modes = 1", "u0_modes = 9"),
         "mode 9 on axis 0 exceeds the Nyquist mode N_0/2 = 8"),
        (QUICK_CONFIG.replace("u0_modes = 1", "u0_modes = 9")
         .replace("single_mode", "random_bandlimited"), "mode 9 on axis 0"),
        (QUICK_CONFIG.replace("single_mode", "random_bandlimited") + "u0_seed = -1\n",
         "seed must be >= 0, got -1"),
    ], ids=["single_mode", "random_bandlimited", "negative_seed"])
    def test_aliased_or_negative_seed_initial_data_exits_1(self, tmp_path, capsys, text, match):
        cfg = tmp_path / "bad_u0.cfg"
        cfg.write_text(text)
        assert main(["run", str(cfg), "-o", str(tmp_path / "o")]) == 1
        assert match in capsys.readouterr().err

    def test_zero_dt_exits_1(self, tmp_path, capsys):
        # h^2 underflows to 0: dt = 0 died in a ZeroDivisionError
        cfg = tmp_path / "zero_dt.cfg"
        cfg.write_text(QUICK_CONFIG + "periods = 1e-320\n")
        assert main(["run", str(cfg), "-o", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("lmcf: dt = cfl * min(h)^2 / (2n) = 0 from cfl 0.2, "
                              "periods (1e-320,)")
        assert not (tmp_path / "o").exists()

    def test_unreachable_dt_exits_1(self, tmp_path):
        # dt = 2e-323 never reached t_max: in a subprocess, whose timeout turns
        # a hang into a failure, and whose stderr shows any traceback
        cfg = tmp_path / "tiny_dt.cfg"
        cfg.write_text(QUICK_CONFIG + "cfl = 1e-320\n")
        proc = subprocess.run([sys.executable, "-m", "lmcf.cli", "run", str(cfg), "-o",
                               str(tmp_path / "o")], capture_output=True, text=True, timeout=60)
        assert proc.returncode == 1
        assert proc.stderr.startswith("lmcf: dt = cfl * min(h)^2 / (2n) = 1.98e-323 "
                                      "from cfl 1e-320,")
        assert "Traceback" not in proc.stderr and not (tmp_path / "o").exists()

    def test_rerun_is_bit_identical(self, quick_config, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["run", quick_config, "-o", str(out1)])
        main(["run", quick_config, "-o", str(out2)])
        for name in ("monitors.csv", "final.lmcf", "summary.txt"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_blowup_exit_code(self, tmp_path):
        cfg = tmp_path / "explode.cfg"
        cfg.write_text(QUICK_CONFIG.replace("u0_amplitude = 1e-3", "u0_amplitude = 0.05")
                       .replace("u0_modes = 1", "u0_modes = 8"))
        with pytest.warns(UserWarning):
            code = main(["run", str(cfg), "-o", str(tmp_path / "o")])
        assert code == 3


class TestSweepCommand:
    def test_epsilon_sweep_all_converge(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(QUICK_CONFIG.replace("conv_tol = 1e-8", "conv_tol = 1e-6"))
        out = tmp_path / "sweep"
        with pytest.warns(UserWarning):  # the 1e-1 run leaves the certified region
            code = main(["sweep", str(cfg), "--param", "epsilon",
                         "--values", "1e-3,1e-2,1e-1", "-o", str(out)])
        assert code == 0
        rows = (out / "sweep.csv").read_text().splitlines()
        assert rows[0] == "value,outcome,final_psi_max,fitted_rate"
        assert len(rows) == 4
        assert all(row.split(",")[1] == "converged" for row in rows[1:])

    def test_grid_refinement_agrees(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(QUICK_CONFIG.replace("conv_tol = 1e-8", "conv_tol = 1e-6"))
        out = tmp_path / "sweep"
        code = main(["sweep", str(cfg), "--param", "N", "--values", "16,32",
                     "-o", str(out)])
        assert code == 0
        coarse, _ = checkpoint_load(out / "N_16" / "final.lmcf")
        fine, _ = checkpoint_load(out / "N_32" / "final.lmcf")
        assert np.max(np.abs(fine.u.values[::2] - coarse.u.values)) < 1e-8

    def test_invalid_value_marks_error_row(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(QUICK_CONFIG)
        out = tmp_path / "sweep"
        code = main(["sweep", str(cfg), "--param", "N", "--values", "15,16",
                     "-o", str(out)])
        assert code == 1  # the odd grid is a config error; the good value still runs
        rows = (out / "sweep.csv").read_text().splitlines()
        assert rows[1].startswith("15,error,")
        assert rows[2].split(",")[1] == "converged"
        assert "sweep value 15" in capsys.readouterr().err

    def test_worst_exit_code_propagates(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(QUICK_CONFIG.replace("t_max = 0.6", "t_max = 0.001"))
        out = tmp_path / "sweep"
        code = main(["sweep", str(cfg), "--param", "epsilon",
                     "--values", "1e-3", "-o", str(out)])
        assert code == 2  # timed out


def summary_values(outdir):
    """``key = value`` lines of summary.txt, outcome and configuration echo alike."""
    lines = (outdir / "summary.txt").read_text().splitlines()
    return dict(line.split(" = ", 1) for line in lines if " = " in line)


STEPPER_KEYS = ("kappa", "cfl", "scheme", "t_max", "conv_tol", "c0", "c1", "eps1",
                "checkpoint_every")


class TestResumeCommand:
    def test_resume_continues_run(self, tmp_path):
        text = QUICK_CONFIG.replace("conv_tol = 1e-8", "conv_tol = 1e-13")
        cfg = tmp_path / "c.cfg"
        cfg.write_text(text.replace("t_max = 0.6", "t_max = 0.05"))
        out1 = tmp_path / "first"
        assert main(["run", str(cfg), "-o", str(out1)]) == 2
        out2 = tmp_path / "second"
        code = main(["resume", str(out1 / "final.lmcf"), "-o", str(out2),
                     "--t-max", "0.5", "--checkpoint-every", "20"])
        full_cfg = tmp_path / "full.cfg"
        full_cfg.write_text(text.replace("t_max = 0.6", "t_max = 0.5"))
        full = tmp_path / "full"
        # the checkpoint carries conv_tol = 1e-13, so the resume times out at
        # 0.5 exactly like the uninterrupted run
        assert code == main(["run", str(full_cfg), "-o", str(full)]) == 2
        records = read_monitor_csv(out2 / "monitors.csv")
        assert records[0].t >= 0.05 - 1e-12
        full_records = read_monitor_csv(full / "monitors.csv")
        assert records[1:] == [r for r in full_records if r.t > records[0].t]

    @pytest.mark.parametrize("first_steps", [30, 40])
    @pytest.mark.parametrize("kappa", [0.0, -1.0])
    @pytest.mark.parametrize("cfl", [0.2, 0.5])
    @pytest.mark.parametrize("scheme", ["spectral", "central4"])
    def test_resume_matches_uninterrupted_run(self, tmp_path, scheme, cfl, kappa,
                                              first_steps):
        # every stored stepper parameter is off its default; the cadence is 20,
        # so a checkpoint after 30 steps lies off the cadence and one after 40 on it
        text = (QUICK_CONFIG.replace("kappa = 0", f"kappa = {kappa}")
                .replace("conv_tol = 1e-8", "conv_tol = 1e-13")
                + f"cfl = {cfl}\nscheme = {scheme}\nc0 = 50\nc1 = 2\neps1 = 0.5\n")
        dt = parse_config_text(text).cfg.dt
        t_first, t_total = first_steps * dt, 70 * dt

        def run(name, t_max):
            path = tmp_path / f"{name}.cfg"
            path.write_text(text.replace("t_max = 0.6", f"t_max = {t_max!r}"))
            assert main(["run", str(path), "-o", str(tmp_path / name)]) == 2
            return read_monitor_csv(tmp_path / name / "monitors.csv")

        full = run("full", t_total)
        first = run("first", t_first)
        assert main(["resume", str(tmp_path / "first" / "final.lmcf"),
                     "-o", str(tmp_path / "rest"), "--t-max", repr(t_total),
                     "--checkpoint-every", "20"]) == 2
        rest = read_monitor_csv(tmp_path / "rest" / "monitors.csv")

        t_c = first[-1].t
        assert rest[0] == first[-1]
        assert [r for r in first + rest[1:] if r.t != t_c] == [r for r in full if r.t != t_c]
        assert all(r == rest[0] for r in full if r.t == t_c)
        assert ((tmp_path / "rest" / "final.lmcf").read_bytes()
                == (tmp_path / "full" / "final.lmcf").read_bytes())
        resumed, uninterrupted = summary_values(tmp_path / "rest"), summary_values(tmp_path / "full")
        assert [resumed[k] for k in STEPPER_KEYS] == [uninterrupted[k] for k in STEPPER_KEYS]

    def test_resume_summary_echoes_stepper_config_only(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(QUICK_CONFIG.replace("t_max = 0.6", "t_max = 0.05")
                       .replace("conv_tol = 1e-8", "conv_tol = 1e-13"))
        assert main(["run", str(cfg), "-o", str(tmp_path / "first")]) == 2
        checkpoint = tmp_path / "first" / "final.lmcf"
        assert main(["resume", str(checkpoint), "-o", str(tmp_path / "rest"),
                     "--t-max", "0.1"]) == 2
        text = (tmp_path / "rest" / "summary.txt").read_text()
        assert f"resumed_from = {checkpoint} (t = " in text
        echo = text.split("# configuration\n", 1)[1]
        assert "u0_" not in echo
        resumed = summary_values(tmp_path / "rest")
        assert [resumed[k] for k in STEPPER_KEYS] == [
            "0", "0.20000000000000001", "spectral", "0.10000000000000001", "1e-13",
            "100", "10", "0.10000000000000001", "0"]
        # the echo cannot silently rerun as some other initial data
        (tmp_path / "echo.cfg").write_text(echo)
        capsys.readouterr()
        assert main(["run", str(tmp_path / "echo.cfg"), "-o", str(tmp_path / "again")]) == 1
        assert "missing required key 'u0_preset'" in capsys.readouterr().err

    def test_resume_rejects_stale_t_max(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(QUICK_CONFIG.replace("t_max = 0.6", "t_max = 0.05")
                       .replace("conv_tol = 1e-8", "conv_tol = 1e-13"))
        out1 = tmp_path / "first"
        main(["run", str(cfg), "-o", str(out1)])
        assert main(["resume", str(out1 / "final.lmcf"), "-o", str(tmp_path / "x"),
                     "--t-max", "0.01"]) == 1
        assert "not beyond" in capsys.readouterr().err

    def test_non_finite_blowup_is_written_and_not_resumed(self, quick_config, tmp_path,
                                                          capsys, monkeypatch):
        # a step that turns the field non-finite is a blowup whose final state is
        # still checkpointed; resuming it is a config error, not a second blowup
        update = lmcf.flow._rk4_update

        def poisoned(*args):
            out = update(*args)
            out[5] = np.nan
            return out

        monkeypatch.setattr(lmcf.flow, "_rk4_update", poisoned)
        first = tmp_path / "first"
        assert main(["run", quick_config, "-o", str(first)]) == 3
        assert summary_values(first)["blowup_reason"] == "non-finite field"
        state, _ = checkpoint_load(first / "final.lmcf")
        assert not state.u.is_finite()
        capsys.readouterr()
        assert main(["resume", str(first / "final.lmcf"), "-o", str(tmp_path / "rest")]) == 1
        assert "lmcf: state is not finite" in capsys.readouterr().err

    def test_resume_refuses_a_negative_time(self, quick_config, tmp_path, capsys):
        # a checkpoint whose header says t = -0.5 is a bad file, not a run
        # that converges before it starts
        first = tmp_path / "first"
        assert main(["run", quick_config, "-o", str(first)]) == 0
        path = first / "final.lmcf"
        data = bytearray(path.read_bytes())
        data[24:32] = struct.pack("<d", -0.5)  # the 1-D header's t
        path.write_bytes(bytes(data))
        capsys.readouterr()
        assert main(["resume", str(path), "-o", str(tmp_path / "rest")]) == 1
        assert "lmcf: invalid time in checkpoint: t = -0.5" in capsys.readouterr().err
        assert not (tmp_path / "rest").exists()

    def test_resume_garbage_checkpoint(self, tmp_path, capsys):
        bad = tmp_path / "bad.lmcf"
        bad.write_bytes(b"garbage")
        assert main(["resume", str(bad), "-o", str(tmp_path / "o")]) == 1


class TestVerifyCommand:
    def test_variation_suite_passes(self, tmp_path, capsys):
        out = tmp_path / "verify"
        assert main(["verify", "variation", "-o", str(out)]) == 0
        summary = (out / "verify_summary.txt").read_text().splitlines()
        assert all(line.endswith(",pass") for line in summary)
        assert (out / "second_variation.report.txt").exists()

    def test_summary_lines_are_report_verdicts(self, tmp_path, capsys):
        out = tmp_path / "verify"
        assert main(["verify", "variation", "-o", str(out)]) == 0
        summary = (out / "verify_summary.txt").read_text().splitlines()
        assert capsys.readouterr().out.splitlines() == summary
        assert len(summary) == 2
        for line in summary:
            name = line.split(",")[0]
            report = (out / f"{name}.report.txt").read_text().splitlines()
            assert [r for r in report if not r.startswith("#")][-1] == line

    def test_unknown_suite(self, tmp_path, capsys):
        assert main(["verify", "everything", "-o", str(tmp_path / "o")]) == 1
        assert "unknown suite" in capsys.readouterr().err
