"""End-to-end command-line behavior: exit codes, files, reproducibility."""

from dataclasses import dataclass
import os

import numpy as np
import pytest

from peribond import cli as cli_module
from peribond import dynamics
from peribond.cli import cli
from peribond.config import parse_config, print_config
from peribond.kernels import QuadraticPotential

TINY_RUN = """\
[domain]
dim = 1
box = 1.0
h = 0.125
periodic = true
[horizon]
delta = 0.375
[kernel]
family = pmb
c0 = 2.0
[time]
dt = 0.01
steps = 10
record_every = 5
[output]
directory = {out}
snapshot_every = 5
"""


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def read_rows(path):
    lines = path.read_text().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def test_run_writes_series_and_snapshots(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = write(tmp_path, "run.cfg", TINY_RUN.format(out=out))
    assert cli(["run", "-c", cfg]) == 0
    msg = capsys.readouterr().out
    assert "10 step(s)" in msg and "series.csv" in msg

    header, rows = read_rows(out / "series.csv")
    assert header == ["t", "kinetic", "potential", "total", "px", "damage_mean"]
    assert len(rows) == 3  # t = 0 plus records at steps 5 and 10
    for name in ("snap_0.csv", "snap_5.csv", "snap_10.csv"):
        sheader, srows = read_rows(out / name)
        assert sheader == ["pos_x", "disp_x", "vel_x", "damage"]  # 3 dim + 1
        assert len(srows) == 8


def test_outputs_use_lf_and_17_digit_floats(tmp_path):
    out = tmp_path / "out"
    cfg = write(tmp_path, "run.cfg", TINY_RUN.format(out=out))
    cli(["run", "-c", cfg])
    blob = (out / "series.csv").read_bytes()
    assert b"\r" not in blob
    _, rows = read_rows(out / "series.csv")
    for row in rows:
        for cell in row:
            # shortest 17-significant-digit form: parsing and re-printing
            # reproduces the exact text, hence the exact binary value
            assert "%.17g" % float(cell) == cell


def test_reruns_are_byte_identical(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    cli(["run", "-c", write(tmp_path, "a.cfg", TINY_RUN.format(out=out_a))])
    cli(["run", "-c", write(tmp_path, "b.cfg", TINY_RUN.format(out=out_b))])
    for name in ("series.csv", "snap_0.csv", "snap_10.csv"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_environment_overrides_output_directory(tmp_path, monkeypatch):
    configured = tmp_path / "configured"
    forced = tmp_path / "forced"
    monkeypatch.setenv("PERIBOND_OUTPUT_DIR", str(forced))
    cfg = write(tmp_path, "run.cfg", TINY_RUN.format(out=configured))
    assert cli(["run", "-c", cfg]) == 0
    assert (forced / "series.csv").exists()
    assert not configured.exists()


def test_zero_step_run_snapshots_initial_state(tmp_path):
    text = TINY_RUN.format(out=tmp_path / "out").replace("steps = 10",
                                                         "steps = 0")
    assert cli(["run", "-c", write(tmp_path, "z.cfg", text)]) == 0
    assert (tmp_path / "out" / "snap_0.csv").exists()
    _, rows = read_rows(tmp_path / "out" / "series.csv")
    assert len(rows) == 1


def test_config_errors_exit_2(tmp_path, capsys):
    assert cli(["run", "-c", str(tmp_path / "absent.cfg")]) == 2
    assert "cannot read config file" in capsys.readouterr().err

    bad = write(tmp_path, "bad.cfg", "[kernel]\nfamily = nonlinear-p\nalpha = 1.5\n")
    assert cli(["run", "-c", bad]) == 2
    assert "open interval (0, 1)" in capsys.readouterr().err

    inf_dt = write(tmp_path, "inf.cfg", "[time]\ndt = inf\n")
    assert cli(["run", "-c", inf_dt]) == 2
    assert "[time] dt" in capsys.readouterr().err

    rod = write(tmp_path, "rod.cfg", "[kernel]\nfamily = rod\n[breaker]\nmode = none\n")
    assert cli(["run", "--preset", "plate2d-precrack", "-c", rod]) == 2
    assert "[kernel] family" in capsys.readouterr().err

    dup = write(tmp_path, "dup.cfg", "[time]\nsteps = 1\nsteps = 2\n")
    assert cli(["print-config", "-c", dup]) == 2
    assert "duplicate key" in capsys.readouterr().err


# a key that only a finite value works for refuses inf before any run,
# naming the key: once each of these ran to a non-finite state (exit 3),
# escaped as a traceback or was blamed on another key
INFINITE_VALUES = [
    ("run", "[domain]\nrho = inf\n", "[domain] rho"),
    ("run", "[domain]\nbox = inf\n", "[domain] box"),
    ("run", "[kernel]\nfamily = nano-fiber\n[horizon]\ndelta = inf\n", "[horizon] delta"),
    ("run", "[kernel]\nc0 = inf\n", "[kernel] c0"),
    ("run", "[kernel]\nfamily = anti-plane-shear\nc = inf\n", "[kernel] c"),
    ("run", "[kernel]\nfamily = quadratic\nalpha = inf\n", "[kernel] alpha"),
    ("run", "[kernel]\nfamily = nonlinear-p\nkappa = inf\n", "[kernel] kappa"),
    ("run", "[kernel]\nfamily = nonlinear-p\np = inf\n", "[kernel] p"),
    ("run", "[kernel]\nfamily = nano-membrane\ng = inf\n", "[kernel] g"),
    ("run", "[kernel]\nfamily = nano-fiber\nvdw_a = inf\n", "[kernel] vdw_a"),
    ("run", "[kernel]\nfamily = nano-fiber\nvdw_b = inf\n", "[kernel] vdw_b"),
    ("run", "[load]\npreset = constant\namplitude = inf\n", "[load] amplitude"),
    ("run", "[scenario]\npreset = bar1d-wave\namplitude = inf\n", "[scenario] amplitude"),
    ("run", "[scenario]\npreset = bar1d-wave\nperiods = inf\n", "[scenario] periods"),
    ("fluid-run", "[scenario]\npreset = fluid-shear\n[memory]\ncoefficient = inf\n",
     "[memory] coefficient"),
    ("fluid-run", "[scenario]\npreset = fluid-shear\nv0 = inf\n", "[scenario] v0"),
]


@pytest.mark.parametrize("command, text, key", INFINITE_VALUES)
def test_an_infinite_value_that_no_run_can_use_exits_2_naming_its_key(
        tmp_path, monkeypatch, capsys, command, text, key):
    def unrun(*args, **kwargs):
        raise AssertionError("a run started")

    monkeypatch.setattr(dynamics, "integrate", unrun)
    assert cli([command, "-c", write(tmp_path, "inf.cfg", text)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {key}: ") and "must be finite" in err


@pytest.mark.parametrize("text", [
    "[scenario]\npreset = plate2d-precrack\n[domain]\ndim = 1\nbox = 1.0\nperiodic = false\n"
    "[load]\npreset = none\n",
    "[scenario]\npreset = plate2d-precrack\n[kernel]\nfamily = rod\n[breaker]\nmode = none\n",
    "[scenario]\npreset = bar1d-wave\n[memory]\nmode = zero\n[time]\ndt = 0.01\n",
    "[scenario]\npreset = fluid-shear\n[domain]\ndim = 1\nbox = 1.0\nperiodic = true\n",
    "[scenario]\npreset = fluid-shear\n[time]\ndt = auto\n",
    "[memory]\nmode = zero\n",
    "[kernel]\nfamily = quadratic\n[breaker]\nmode = critical-stretch\ns0 = 0.1\n",
    "[kernel]\nfamily = quadratic\nalpha = 0\n",
    "[domain]\nh = 0.3\n",
    "[domain]\ndim = 2\nbox = 1.0, 1.0\nperiodic = true, true\n[horizon]\ndelta = 0.6\n",
    "[domain]\nh = 1e-200\n",
])
def test_print_config_refuses_what_run_refuses(tmp_path, capsys, text):
    cfg = write(tmp_path, "bad.cfg", text)
    assert cli(["print-config", "-c", cfg]) == 2
    printed = capsys.readouterr()
    assert printed.out == "" and printed.err.startswith("config error: [")
    assert cli(["run", "-c", cfg]) == 2
    assert capsys.readouterr().err == printed.err


def test_zero_memory_needs_fluid_run(tmp_path, capsys):
    assert cli(["run", "--preset", "fluid-shear"]) == 2
    assert "needs fluid-run" in capsys.readouterr().err


def test_fluid_run_executes_preset(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("PERIBOND_OUTPUT_DIR", str(tmp_path / "f"))
    cfg = write(tmp_path, "f.cfg",
                "[scenario]\npreset = fluid-shear\n[time]\nsteps = 5\n"
                "[domain]\nh = 0.125\n[horizon]\ndelta = 0.375\n")
    assert cli(["fluid-run", "-c", cfg]) == 0
    header, rows = read_rows(tmp_path / "f" / "series.csv")
    assert header[:4] == ["t", "kinetic", "potential", "total"]
    kin = [float(r[1]) for r in rows]
    assert kin[-1] < kin[0]  # the shear layer loses energy immediately


def test_fluid_run_with_infinite_memory_keeps_the_seeded_crack(tmp_path, monkeypatch):
    cfg = write(tmp_path, "p.cfg", "[time]\nsteps = 20\n")
    series = {}
    for command in ("run", "fluid-run"):
        out = tmp_path / command
        monkeypatch.setenv("PERIBOND_OUTPUT_DIR", str(out))
        assert cli([command, "-c", cfg, "--preset", "plate2d-precrack"]) == 0
        series[command] = (out / "series.csv").read_bytes()
    assert series["run"] == series["fluid-run"]
    header, rows = read_rows(tmp_path / "fluid-run" / "series.csv")
    assert float(rows[0][header.index("damage_mean")]) > 0.0


def test_io_failure_exits_3(tmp_path, monkeypatch, capsys):
    blocker = tmp_path / "not-a-dir"
    blocker.write_text("occupied")
    monkeypatch.setenv("PERIBOND_OUTPUT_DIR", str(blocker))
    cfg = write(tmp_path, "run.cfg", TINY_RUN.format(out=tmp_path / "x"))
    assert cli(["run", "-c", cfg]) == 3
    assert "cannot write" in capsys.readouterr().err


def test_print_config_round_trips(tmp_path, capsys):
    cfg = write(tmp_path, "p.cfg", "[domain]\nh = 0.0625\n[kernel]\n"
                                   "family = quadratic\nalpha = 0.25\n")
    assert cli(["print-config", "-c", cfg]) == 0
    text = capsys.readouterr().out
    parsed = parse_config(text)
    assert parsed.get("domain", "h") == 0.0625
    assert parsed.get("kernel", "alpha") == 0.25
    # normalized output is a fixed point: printing it back changes nothing
    assert print_config(parsed) == text


def test_print_config_with_preset_flag(capsys):
    assert cli(["print-config", "--preset", "plate2d-precrack"]) == 0
    text = capsys.readouterr().out
    assert "preset = plate2d-precrack" in text
    assert "mode = critical-stretch" in text


def test_preset_flag_conflicts_with_config_line(tmp_path, capsys):
    cfg = write(tmp_path, "c.cfg", "[scenario]\npreset = bar1d-wave\n")
    assert cli(["print-config", "-c", cfg, "--preset", "fluid-shear"]) == 2
    assert "both on the command line" in capsys.readouterr().err


def test_kernel_check(capsys):
    assert cli(["kernel-check", "--samples", "100", "--seed", "5"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 8
    assert all("[ok]" in line for line in lines)

    assert cli(["kernel-check", "--family", "pmb", "--samples", "50"]) == 0
    assert len(capsys.readouterr().out.strip().splitlines()) == 1

    assert cli(["kernel-check", "--family", "bogus"]) == 2
    assert "unknown kernel family" in capsys.readouterr().err


def test_kernel_check_refuses_a_negative_seed(capsys):
    assert cli(["kernel-check", "--seed", "-1"]) == 2
    printed = capsys.readouterr()
    assert printed.out == ""
    assert printed.err == "config error: seed: must be non-negative, got -1\n"


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_kernel_check_refuses_no_samples(capsys, samples):
    assert cli(["kernel-check", "--samples", samples]) == 2
    printed = capsys.readouterr()
    assert printed.out == ""
    assert printed.err == f"config error: n_samples: must be at least 1, got {samples}\n"


def test_kernel_check_fails_a_broken_family(monkeypatch, capsys):
    @dataclass(frozen=True)
    class Mismatched(QuadraticPotential):
        """A potential twice the force's antiderivative: its gradient check fails."""

        family = "mismatched"

        def _phi(self, q, r, k, mu):
            return 2.0 * super()._phi(q, r, k, mu)

    monkeypatch.setattr(cli_module, "default_models", lambda: {"mismatched": Mismatched()})
    assert cli(["kernel-check", "--samples", "50"]) == 1
    lines = capsys.readouterr().out.strip().splitlines()
    assert "[FAIL]" in lines[0] and "mismatched" in lines[0]
    assert lines[-1] == "1 family failed"


def test_convergence_command(capsys):
    assert cli(["convergence", "--deltas", "0.4,0.2", "--m", "2"]) == 0
    out = capsys.readouterr().out
    assert "fitted rate" in out
    assert cli(["convergence", "--deltas", "0.4;0.2"]) == 2
    assert "comma-separated numbers" in capsys.readouterr().err


def test_convergence_refuses_a_repeated_horizon(capsys):
    assert cli(["convergence", "--deltas", "0.2,0.2"]) == 2
    printed = capsys.readouterr()
    assert printed.out == ""
    assert printed.err == "config error: deltas: each horizon must appear once, got (0.2, 0.2)\n"


def test_convergence_names_the_arguments_of_a_horizon_that_does_not_tile(capsys):
    assert cli(["convergence", "--deltas", "0.4,0.2", "--m", "1"]) == 2
    printed = capsys.readouterr()
    assert printed.out == ""
    assert printed.err.startswith("config error: deltas: horizon 0.4 at m = 1 ")
    assert "[domain]" not in printed.err


@pytest.mark.parametrize("deltas", ["0.4,-0.2", "nan,0.1"])
def test_convergence_names_the_argument_of_a_horizon_that_is_not_positive(
        deltas, monkeypatch, capsys):
    runs = []
    monkeypatch.setattr(dynamics, "run", lambda *args, **kw: runs.append(args))
    assert cli(["convergence", "--deltas", deltas, "--m", "2"]) == 2
    printed = capsys.readouterr()
    assert printed.out == ""
    assert printed.err.startswith("config error: deltas: horizon ")
    assert "[horizon]" not in printed.err
    assert runs == []


def test_an_os_error_on_stdout_exits_3(monkeypatch, capsys):
    class ClosedStdout:
        def write(self, text):
            raise OSError("stdout closed")

    monkeypatch.setattr(cli_module.sys, "stdout", ClosedStdout())
    assert cli(["print-config", "--preset", "bar1d-wave"]) == 3
    assert capsys.readouterr().err == "io error: stdout closed\n"
