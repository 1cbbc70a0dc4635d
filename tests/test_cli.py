import csv
import math
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from wellescape import sde
from wellescape.cli import _fmt, main
from wellescape.config import MODES, ExperimentConfig, parse_scalar
from wellescape.errors import ConfigurationError


def _write_cfg(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


BASE = """\
# escape run at smoke-test scale
mode = plain
potential = cosine
region = (-pi, pi)
T = 1.0
h = 1e-2
N = 2048
seed = 7
"""


# ------------------------------------------------------------------ config


def test_scalar_parsing_accepts_pi_multiples():
    assert parse_scalar("pi") == math.pi
    assert parse_scalar("-pi") == -math.pi
    assert parse_scalar("2pi") == 2 * math.pi
    assert parse_scalar("0.5pi") == 0.5 * math.pi
    assert parse_scalar("2*pi") == 2 * math.pi
    assert parse_scalar("1e-3") == 1e-3
    assert parse_scalar("-0.25") == -0.25
    with pytest.raises(ValueError):
        parse_scalar("two")


def test_file_parsing_with_defaults_and_overrides(tmp_path):
    path = _write_cfg(tmp_path, BASE)
    cfg = ExperimentConfig.from_file(path)
    assert cfg.mode == "plain"
    assert cfg.region == (-math.pi, math.pi)
    assert cfg.N == 2048
    assert cfg.tau == 1e-2          # default
    over = ExperimentConfig.from_file(path, ["--N", "512", "--seed=9"])
    assert over.N == 512
    assert over.seed == 9
    assert over.h == cfg.h          # untouched keys keep file values


def test_unknown_keys_are_rejected_with_context(tmp_path):
    path = _write_cfg(tmp_path, BASE + "wat = 4\n")
    with pytest.raises(ConfigurationError, match=r"exp\.cfg:9.*wat"):
        ExperimentConfig.from_file(path)
    good = _write_cfg(tmp_path, BASE, name="good.cfg")
    with pytest.raises(ConfigurationError, match="command line.*bogus"):
        ExperimentConfig.from_file(good, ["--bogus", "3"])
    with pytest.raises(ConfigurationError, match="missing value"):
        ExperimentConfig.from_file(good, ["--N"])
    with pytest.raises(ConfigurationError, match="expected 'key = value'"):
        ExperimentConfig.from_file(_write_cfg(tmp_path, "just words\n", "b.cfg"))


def test_cross_field_validation(tmp_path):
    path = _write_cfg(tmp_path, BASE)
    with pytest.raises(ConfigurationError, match="one of sigma/epsilon/beta"):
        ExperimentConfig.from_file(path, ["--sigma", "1", "--epsilon", "2"])
    with pytest.raises(ConfigurationError, match="multiple of h"):
        ExperimentConfig.from_file(path, ["--mode", "importance", "--sampling",
                                          "invert", "--tau", "0.005"])
    with pytest.raises(ConfigurationError, match="mode must be"):
        ExperimentConfig.from_file(path, ["--mode", "dance"])
    with pytest.raises(ConfigurationError, match="needs the endpoint"):
        ExperimentConfig.from_file(path, ["--mode", "density"])
    with pytest.raises(ConfigurationError, match="sampling potential"):
        ExperimentConfig.from_file(path, ["--mode", "importance"])
    with pytest.raises(ConfigurationError, match="a < b"):
        ExperimentConfig.from_file(path, ["--region", "(2,1)"])


def test_large_integers_parse_exactly(tmp_path):
    # 2**53 + 1 has no float; a seed must not be rounded to its neighbour
    cfg = ExperimentConfig.from_file(_write_cfg(tmp_path, BASE),
                                     ["--seed", "9007199254740993"])
    assert cfg.seed == 9007199254740993


def test_dump_round_trips(tmp_path):
    path = _write_cfg(tmp_path, BASE)
    cfg = ExperimentConfig.from_file(
        path, ["--mode", "importance", "--sampling", "invert", "--tau", "0.1"]
    )
    echoed = _write_cfg(tmp_path, cfg.dump(), name="echo.cfg")
    again = ExperimentConfig.from_file(echoed)
    assert again == cfg


# --------------------------------------------------------------------- cli


def test_exit_codes(tmp_path, capsys):
    path = _write_cfg(tmp_path, BASE)
    assert main(["run", path, "--N", "256"]) == 0
    assert main(["run", path, "--bogus", "1"]) == 1
    assert main(["run", str(tmp_path / "missing.cfg")]) == 1
    # construction failure at runtime: linear potential cannot be flattened
    code = main(["run", path, "--mode", "importance", "--sampling", "flatten",
                 "--potential", "linear", "--region", "(-1,1)", "--N", "256"])
    assert code == 2
    err = capsys.readouterr().err
    assert "config error" in err
    assert "error:" in err


def test_unallocatable_noise_block_is_a_runtime_error(tmp_path, capsys):
    # one block of 4096 x 10^12 normals (29 PiB): numpy refuses the
    # allocation at once, without touching memory
    path = _write_cfg(tmp_path, BASE)
    code = main(["run", path, "--T", "1", "--h", "1e-12", "--N", "10",
                 "--epsilon", "0.5"])
    assert code == 2
    err = capsys.readouterr().err
    assert "error: cannot allocate a noise block of shape (4096, 1000000000000)" in err
    assert "GiB" in err


@pytest.mark.parametrize("overrides, what", [
    (["--mode", "fp", "--n_cells", "1e12"], "a grid of 1000000000000 cells"),
    (["--mode", "action", "--segments", "1e12"],
     "a path of 1000000000001 knots"),
    (["--mode", "action", "--segments", "1e12", "--x0", "5"],
     "a path of 1000000000001 knots"),
], ids=["fp", "action", "action-escaped-start"])
def test_unallocatable_oracle_grid_is_a_runtime_error(tmp_path, capsys,
                                                      overrides, what):
    # 10^12 float64 grid points (7.3 TiB): numpy refuses at once
    path = _write_cfg(tmp_path, BASE)
    assert main(["run", path, *overrides]) == 2
    assert f"error: cannot allocate {what} (7451 GiB)" in capsys.readouterr().err


@pytest.mark.parametrize("overrides, message", [
    # sizes numpy cannot index: it raises ValueError before allocating
    (["--T", "1e15", "--h", "1e-3"],
     "cannot allocate a noise block of shape (4096, 1000000000000000000)"),
    (["--T", "1e200", "--h", "1e-3"], "cannot allocate a noise block"),
    (["--T", "1", "--h", "1e-19"],
     "cannot allocate a noise block of shape (4096, 10000000000000000000)"),
    (["--mode", "fp", "--n_cells", "1e20"],
     "cannot allocate a grid of 100000000000000000000 cells"),
    (["--mode", "action", "--segments", "1e20"],
     "cannot allocate a path of 100000000000000000001 knots"),
    # values that leave the float range
    (["--mode", "fp", "--x0", "1e200"], "whose square overflows"),
    (["--mode", "fp", "--region", "(-1e300,1e300)"], "whose square overflows"),
    (["--mode", "density", "--y", "0.5", "--t", "1e300"],
     "density bounds at t=1e+300, delta=1e+120 leave the float range"),
    (["--mode", "density", "--y", "0.5", "--t", "0.1", "--delta", "1e300"],
     "density bounds at t=0.1, delta=1e+300 leave the float range"),
    # answers the oracles lost
    (["--mode", "fp", "--potential", "quadratic", "--stiffness", "1e300"],
     "density mass is 0 at t=1, not 1"),
    (["--mode", "fp", "--T", "1e300", "--dt", "1e300"],
     "density mass is 0 at t=1e+300, not 1"),
    (["--mode", "action", "--T", "1e-300", "--segments", "4"],
     "the action of the starting path is inf"),
    # no RuntimeWarning before the error line (the test settings make one
    # an error): the integrand overflows, the kernel variance underflows
    (["--mode", "importance", "--potential", "linear", "--slope", "1e300",
      "--sampling", "same", "--T", "0.1", "--N", "100"],
     "integrand of 'linear(a=1e+300)' against 'linear(a=1e+300)' is non-finite"),
    (["--mode", "density", "--epsilon", "0.25", "--y", "1", "--t", "5e-324"],
     "the kernel variance sigma^2 t = 0.25 * 4.94066e-324 underflows to 0"),
    # an infinite bound times a zero kernel, not inf * 0 in numpy
    (["--mode", "density", "--potential", "linear", "--slope", "1e8",
      "--x0", "1e150", "--epsilon", "1e-300", "--y", "0.5"],
     "density bounds at t=1, delta=1 leave the float range"),
    # grids whose spacing squared leaves the float range: the density's
    # slope grid overflows or underflows, the action's segment is 0
    (["--mode", "density", "--potential", "cosine", "--y", "-1e300"],
     "slope grid over (-1e+300, 3) has spacing dx=1.0001e+296"),
    (["--mode", "density", "--potential", "quadratic", "--stiffness", "1e8",
      "--y", "1e-300", "--t", "5e-324"], "has spacing dx=1.33379e-165"),
    (["--mode", "action", "--T", "5e-324", "--segments", "2"],
     "the segment length T / segments = 4.94066e-324 / 2 underflows to 0"),
    # weights of order exp(-dV / eps) whose mean squares to below the
    # smallest normal float: Lambda would divide by 0
    (["--mode", "importance", "--sampling", "invert", "--epsilon", "0.001",
      "--x0", "2.5", "--T", "3", "--N", "4096"],
     "importance weights underflow: the mean of w 1_A, 9.64936e-176, squares"),
    (["--mode", "sweep", "--sampling", "invert", "--epsilons", "0.001",
      "--x0", "2.5", "--T", "3", "--N", "4096"], "importance weights underflow"),
    # the density's chord integrand overflows: refused without a warning
    (["--mode", "density", "--potential", "quadratic", "--y", "-1e300"],
     "integrand of 'quadratic(k=1.0)' against 'zero' is non-finite at "
     "x=-1.0000000000000001e+298"),
    (["--mode", "density", "--potential", "linear", "--slope", "1e300",
      "--y", "0.5"],
     "integrand of 'linear(a=1e+300)' against 'zero' is non-finite at x=0.0"),
    # values the library refuses after they overflow, without a warning:
    # V at a huge endpoint of D, V(x) - V(y), a huge grid's initial density
    (["--mode", "importance", "--sampling", "flatten", "--potential",
      "quadratic", "--region", "(-1,1e300)"],
     "flatten_on_region: potential 'quadratic(k=1.0)' does not vanish to "
     "first order on the boundary of interval(-1,1e+300) (residual inf at "
     "x=1e+300"),
    (["--mode", "density", "--potential", "quadratic", "--stiffness", "1e-10",
      "--x0", "1e160", "--y", "0.5"],
     "the slope grid over (-2.5, 1e+160) has spacing dx=1.0001e+156"),
    (["--mode", "fp", "--T", "1e307", "--dt", "1e307", "--n_cells", "512"],
     "density mass is 0 at t=1e+307, not 1; "),
    # out paths that cannot be written: the OS refuses one, open another
    (["--out", "no-such-dir/out.csv"],
     "cannot write out 'no-such-dir/out.csv': [Errno 2] No such file"),
    (["--out", "a\x00b.csv"],
     "cannot write out 'a\\x00b.csv': embedded null byte"),
], ids=["noise-too-big", "noise-dimension", "noise-h-tiny", "fp-n_cells-huge",
        "action-segments-huge", "fp-x0-huge", "fp-region-huge", "density-t-huge",
        "density-delta-huge", "fp-mass-underflow", "fp-dt-huge",
        "action-T-tiny", "importance-integrand-overflow", "density-t-underflow",
        "density-bound-times-zero-kernel", "density-slope-grid-overflow",
        "density-slope-grid-underflow", "action-segment-underflow",
        "importance-weights-underflow", "sweep-weights-underflow",
        "density-chord-overflow", "density-chord-slope-overflow",
        "patch-endpoint-overflow", "density-value-overflow",
        "fp-initial-density-underflow", "out-unwritable", "out-null-byte"])
def test_runtime_failures_end_in_one_line(tmp_path, capsys, overrides, message):
    path = _write_cfg(tmp_path, BASE)
    assert main(["run", path, *overrides]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert message in err


def test_noise_block_over_free_memory_is_refused(tmp_path, capsys, monkeypatch):
    # a block numpy can reserve but the machine cannot back (32.8 MB at
    # h = 1e-3 against 16 MiB free) is refused before the run
    monkeypatch.setattr(sde, "available_memory", lambda: 16 * 2**20)
    path = _write_cfg(tmp_path, BASE)
    assert main(["run", path, "--h", "1e-3"]) == 2
    err = capsys.readouterr().err
    assert err == ("error: cannot allocate a noise block of shape (4096, 1000) "
                   "(0.03052 GiB)\n")


@pytest.mark.parametrize("overrides", [
    ["--mode", "importance", "--sampling", "invert", "--sigma", "0"],
    ["--mode", "table5", "--sigma", "0"],
    ["--mode", "sweep", "--sampling", "invert", "--epsilons", "1,0"],
    ["--sigma", "-1"],
    ["--beta", "0"],
    ["--mode", "sweep", "--sampling", "invert", "--epsilons", "1,0.5",
     "--sweep_n", "256,0"],
    ["--mode", "sweep", "--sampling", "invert", "--epsilons", "1,0.5,0.25",
     "--sweep_n", "500"],
    ["--T", "inf"],
    ["--N", "inf"],
    ["--mode", "fp", "--n_cells", "inf"],
    ["--workers", "inf"],
    ["--T", "nan"],
    ["--mode", "fp", "--epsilon", "nan"],
    ["--mode", "action", "--x0", "nan"],
    ["--mode", "density", "--y", "0.5", "--t", "0"],
    ["--mode", "density", "--y", "0.5", "--t", "-1"],
    ["--mode", "density", "--y", "0.5", "--delta", "0"],
    ["--mode", "action", "--segments", "1"],
    ["--mode", "fp", "--n_cells", "1"],
    ["--mode", "fp", "--n_cells", "2"],
    ["--mode", "density", "--y", "0.5", "--t", "0.1", "--sigma", "1e-200"],
    ["--mode", "importance", "--sampling", "flatten", "--sigma", "1e-200"],
    ["--mode", "fp", "--sigma", "1e200"],
    ["--mode", "density", "--y", "0.5", "--t", "0.1", "--sigma", "1e200"],
    ["--epsilon", "1e-320"],
    ["--beta", "1e-310"],
    ["--mode", "sweep", "--sampling", "invert", "--epsilons", "1,1e-320"],
    ["--mode", "sweep", "--sampling", "invert", "--epsilons", ","],
], ids=["importance-sigma0", "table5-sigma0", "sweep-eps0", "sigma-neg",
        "beta0", "sweep-n0", "sweep-n-short", "T-inf", "N-inf", "n_cells-inf",
        "workers-inf", "T-nan", "fp-epsilon-nan", "action-x0-nan",
        "density-t0", "density-t-neg", "density-delta0", "action-segments1",
        "fp-n_cells1", "fp-n_cells2", "density-sigma-tiny",
        "importance-sigma-tiny", "fp-sigma-huge", "density-sigma-huge",
        "epsilon-subnormal", "beta-tiny", "sweep-eps-subnormal",
        "sweep-eps-empty"])
def test_bad_noise_levels_and_counts_are_config_errors(tmp_path, capsys,
                                                       overrides):
    path = _write_cfg(tmp_path, BASE)
    assert main(["run", path, "--N", "256", *overrides]) == 1
    assert "config error" in capsys.readouterr().err


def _violation(rule):
    """A value that breaks a key's rule, and the end of the message it gives."""
    if isinstance(rule, tuple):
        return "bogus", f"must be one of {', '.join(rule)}; got 'bogus'"
    if rule == "positive":
        return "0", "must be positive"
    return str(rule - 1), f"must be at least {rule}"


_RULES = {f.name: (f.metadata["rule"], f.metadata["modes"] or MODES)
          for f in fields(ExperimentConfig) if f.metadata["rule"] is not None}


@pytest.mark.parametrize("key", _RULES)
def test_each_key_rule_is_a_config_error(tmp_path, capsys, key):
    rule, modes = _RULES[key]
    value, message = _violation(rule)
    path = _write_cfg(tmp_path, BASE)
    # the first mode that reads the key; y makes density mode valid
    argv = ["run", path, "--mode", modes[0], "--y", "0.5", f"--{key}", value]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"config error: {key} {message}\n"


@pytest.mark.parametrize("overrides", [
    ["--tau", "0"], ["--dt", "0"], ["--n_cells", "2"], ["--segments", "1"],
    ["--t", "0"], ["--delta", "0"], ["--mode", "fp", "--N", "0"],
    ["--epsilons", "1,0"], ["--sweep_n", "0"], ["--sweep_n", "5,5"],
    ["--mode", "fp", "--epsilons", ","],
    ["--mode", "action", "--epsilons", "1,1e-320"],
], ids=["plain-tau", "plain-dt", "plain-n_cells", "plain-segments", "plain-t",
        "plain-delta", "fp-N", "plain-epsilons", "plain-sweep_n",
        "plain-sweep_n-short", "fp-epsilons-empty", "action-epsilons-subnormal"])
def test_keys_a_mode_does_not_read_are_not_checked(tmp_path, capsys, overrides):
    path = _write_cfg(tmp_path, BASE)
    assert main(["run", path, "--N", "256", *overrides]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("overrides", [
    ["--mode", "plain", "--T", "1.005"],
    ["--mode", "importance", "--sampling", "invert", "--T", "1.005"],
    ["--mode", "table5", "--T", "1.005"],
    ["--mode", "sweep", "--sampling", "invert", "--T", "1.005"],
    ["--mode", "fp", "--T", "1.0003", "--dt", "5e-4"],
    ["--mode", "plain", "--T", "1e300", "--h", "1e-10"],
], ids=["plain", "importance", "table5", "sweep", "fp", "plain-ratio-overflow"])
def test_horizon_off_the_step_grid_is_a_config_error(tmp_path, capsys,
                                                     overrides):
    path = _write_cfg(tmp_path, BASE)
    assert main(["run", path, "--N", "256", *overrides]) == 1
    assert "whole multiple" in capsys.readouterr().err
    # modes without a time step accept any horizon
    for mode, extra in (("action", []), ("density", ["--y", "0.5"])):
        ExperimentConfig.from_file(path, ["--mode", mode, "--T", "1.005", *extra])


@pytest.mark.parametrize("overrides", [
    ["--mode", "importance", "--sampling", "invert", "--tau", "0.03"],
    ["--mode", "sweep", "--sampling", "invert", "--tau", "0.03",
     "--epsilons", "1"],
    ["--mode", "table5", "--T", "0.05", "--h", "1e-3"],
], ids=["importance", "sweep", "table5"])
def test_mesh_that_does_not_divide_the_horizon_is_a_config_error(
        tmp_path, capsys, overrides):
    # the config check finds the partial cell before any sampling
    path = _write_cfg(tmp_path, BASE)
    assert main(["run", path, "--N", "256", *overrides]) == 1
    out, err = capsys.readouterr()
    assert "config error: tau=" in err and "does not divide the horizon" in err
    assert "plain:" not in out


@pytest.mark.parametrize("overrides, code", [
    (["--mode", "plain"], 0),
    (["--mode", "table5", "--N", "512"], 0),
    (["--mode", "importance", "--sampling", "invert"], 1),
], ids=["plain", "table5", "importance"])
def test_tau_is_checked_only_where_it_is_a_mesh(tmp_path, capsys, overrides, code):
    # tau = 0.01 is off the grid of h = 0.003; table5 meshes at 100h, 10h, h
    path = _write_cfg(tmp_path, BASE)
    assert main(["run", path, "--h", "3e-3", "--T", "0.3", *overrides]) == code
    err = capsys.readouterr().err
    message = "config error: tau=0.01 must be a whole multiple of h=0.003"
    assert (message in err) == (code == 1)


def test_overflowing_bound_is_reported_as_infinite(tmp_path, capsys):
    path = _write_cfg(tmp_path, BASE)
    out = str(tmp_path / "is.csv")
    assert main(["run", path, "--mode", "importance", "--sampling", "invert",
                 "--T", "1000", "--h", "1", "--tau", "1", "--N", "1",
                 "--out", out]) == 0
    assert "theorem3_bound=inf" in capsys.readouterr().out
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert rows[0]["theorem3_bound"] == "inf"


@pytest.mark.parametrize("overrides, line", [
    (["--mode", "density", "--epsilon", "5", "--y", "1e150", "--t", "5e-324"],
     "kernel=0"),
    (["--mode", "action", "--potential", "quadratic", "--stiffness", "5",
      "--T", "1e150", "--segments", "3"], "converged=False"),
], ids=["density-kernel-underflow", "action-trial-overflow"])
def test_overflow_the_answer_absorbs_warns_nothing(tmp_path, capsys,
                                                  overrides, line):
    # the test settings turn a numpy RuntimeWarning into an error
    path = _write_cfg(tmp_path, BASE)
    assert main(["run", path, *overrides]) == 0
    out, err = capsys.readouterr()
    assert line in out and err == ""


def test_csv_output_is_byte_identical_across_reruns(tmp_path, capsys):
    path = _write_cfg(tmp_path, BASE)
    out1, out2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    assert main(["run", path, "--out", out1]) == 0
    assert main(["run", path, "--out", out2]) == 0
    b1 = open(out1, "rb").read()
    assert b1 == open(out2, "rb").read()
    assert b1.startswith(b"estimator,potential,N,tau,h,seed,mean")
    capsys.readouterr()


def test_resolved_config_echo_reparses(tmp_path, capsys):
    path = _write_cfg(tmp_path, BASE)
    assert main(["run", path, "--N", "256"]) == 0
    out = capsys.readouterr().out
    body = out.split("# ---")[0]
    echoed = _write_cfg(tmp_path, body, name="echo.cfg")
    cfg = ExperimentConfig.from_file(echoed)
    assert cfg == ExperimentConfig.from_file(path, ["--N", "256"])


def test_table5_emits_seven_rows(tmp_path, capsys):
    path = _write_cfg(tmp_path, BASE)
    out = str(tmp_path / "t5.csv")
    assert main(["run", path, "--mode", "table5", "--out", out]) == 0
    capsys.readouterr()
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 7
    assert rows[0]["estimator"] == "plain"
    assert [r["estimator"] for r in rows[1:]] == ["importance"] * 6
    assert [r["tau"] for r in rows[1:4]] == ["1", "0.1", "0.01"]
    assert "flatten" in rows[1]["potential"]
    assert "invert" in rows[4]["potential"]
    # reweighting tightens the error bars at matched sample count
    assert float(rows[6]["std_error"]) < float(rows[3]["std_error"])


def test_fp_mode_dumps_gaussian_for_zero_potential(tmp_path, capsys):
    path = _write_cfg(tmp_path, BASE)
    out = str(tmp_path / "fp.csv")
    assert main(["run", path, "--mode", "fp", "--potential", "zero",
                 "--region", "(-1,1)", "--n_cells", "2048",
                 "--dt", "1e-3", "--out", out]) == 0
    text = capsys.readouterr().out
    escape = float([l for l in text.splitlines()
                    if l.startswith("escape_probability=")][0].split("=")[1])
    exact = 2 * (1 - 0.5 * (1 + math.erf(1 / math.sqrt(2))))
    assert escape == pytest.approx(exact, rel=1e-3)
    data = np.loadtxt(out, delimiter=",", skiprows=1)
    x, dens = data[:, 0], data[:, 1]
    gauss = np.exp(-x**2 / 2) / math.sqrt(2 * math.pi)
    assert np.max(np.abs(dens - gauss)) / gauss.max() < 1e-3


def test_validate_reports_are_honest(tmp_path, capsys):
    path = _write_cfg(tmp_path, BASE)

    def lines(sampling):
        assert main(["validate", path, "--sampling", sampling]) == 0
        return capsys.readouterr().out

    flat = lines("flatten")
    assert "(i) start-point lift" in flat and "-> PASS" in flat
    assert "M = sup(lap V - lap Vref)/2 = 0.5" in flat

    inv = lines("invert")
    assert "noise-free flow exits D by T" in inv
    assert "equilibrium" in inv          # x0 = 0 never moves, reported as FAIL
    assert "C^1 only" in inv             # second derivative jumps at the rim

    same = lines("same")
    assert "(i) start-point lift" in same
    assert same.count("FAIL") >= 1

    none = lines("none")
    assert "no reference potential" in none


@pytest.mark.parametrize("overrides, rows", [
    # the ring outside D overflows V
    (["--region", "(-1,1e300)"],
     ["(iii) agreement outside D: max|Vref - V|=nan -> FAIL"]),
    # so do the gradient grid on D and the ring
    (["--stiffness", "1e300", "--x0", "10", "--region", "(-1e300,1e300)"],
     ["(ii) gradient domination on D: sup(|grad Vref| - |grad V|)=nan -> FAIL",
      "(iii) agreement outside D: max|Vref - V|=nan -> FAIL"]),
    # the flow's first RK4 step leaves the float range: nan is no exit
    (["--stiffness", "1e300", "--x0", "10", "--region", "(-1e300,1e300)"],
     ["noise-free flow exits D by T: y=nan at t=0.00025 -> FAIL  "
      "(the flow left the float range)"]),
], ids=["ring", "gradient-grid", "flow-state"])
def test_validate_reports_a_non_finite_check_as_fail(tmp_path, capsys,
                                                     overrides, rows):
    # exit 0 and no RuntimeWarning (the test settings make one an error)
    path = _write_cfg(tmp_path, BASE)
    assert main(["validate", path, "--sampling", "same", "--potential",
                 "quadratic", *overrides]) == 0
    out = capsys.readouterr().out.splitlines()
    flat = ("flat boundary V=0, grad V=0 on dD: max boundary |V|,|grad V|=inf"
            " -> FAIL")
    assert set(rows + [flat]) <= set(out)


@pytest.mark.parametrize("sampling, cell", [
    ("flatten", "0.223130160148"),   # e^{-3/2}
    ("invert", "0.0497870683679"),   # e^{-3}
])
def test_theorem3_bound_uses_the_m_that_validate_prints(tmp_path, capsys,
                                                        sampling, cell):
    path = _write_cfg(tmp_path, BASE)
    out = str(tmp_path / "is.csv")
    assert main(["validate", path, "--sampling", sampling]) == 0
    m_line = [ln for ln in capsys.readouterr().out.splitlines()
              if ln.startswith("M = ")]
    m = float(m_line[0].rsplit("=", 1)[1])
    assert main(["run", path, "--mode", "importance", "--sampling", sampling,
                 "--x0", "0", "--sigma", "1", "--T", "1", "--out", out]) == 0
    with open(out) as fh:
        got = next(csv.DictReader(fh))["theorem3_bound"]
    cfg = ExperimentConfig.from_file(path, ["--sampling", sampling])
    V = cfg.build_potential()
    gap = float(V.value(0.0)) - float(cfg.build_sampling_potential(V).value(0.0))
    assert got == format(math.exp(gap / 1.0 + 1.0 * m), ".12g") == cell


def test_sweep_mode_prints_rows(tmp_path, capsys):
    path = _write_cfg(tmp_path, BASE)
    out = str(tmp_path / "sweep.csv")
    assert main(["run", path, "--mode", "sweep", "--sampling", "invert",
                 "--epsilons", "4,2", "--N", "2048", "--out", out]) == 0
    capsys.readouterr()
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert [r["epsilon"] for r in rows] == ["4", "2"]
    assert all(float(r["lambda"]) >= 1.0 for r in rows)


def test_density_mode_writes_bracketed_estimate(tmp_path, capsys):
    path = _write_cfg(tmp_path, BASE)
    out = str(tmp_path / "density.csv")
    assert main(["run", path, "--mode", "density", "--y", "0.7", "--t", "0.1",
                 "--out", out]) == 0
    capsys.readouterr()
    with open(out) as fh:
        rows = {r["quantity"]: float(r["value"]) for r in csv.DictReader(fh)}
    assert list(rows) == ["value", "lower", "upper", "kernel", "delta",
                          "lipschitz", "m1", "m2", "gamma"]
    assert rows["lower"] <= rows["value"] <= rows["upper"]


def test_action_mode_writes_the_exit_path(tmp_path, capsys):
    path = _write_cfg(tmp_path, BASE)
    out = str(tmp_path / "action.csv")
    assert main(["run", path, "--mode", "action", "--segments", "50",
                 "--out", out]) == 0
    assert "converged=True" in capsys.readouterr().out
    data = np.loadtxt(out, delimiter=",", skiprows=1)
    assert data.shape == (51, 2)
    with open(out) as fh:
        times = [row["time"] for row in csv.DictReader(fh)]
    assert times == [_fmt(t) for t in np.linspace(0, 1.0, 51).tolist()]
    assert data[0, 1] == 0.0                       # x0
    assert abs(data[-1, 1]) == float(_fmt(math.pi))


_SCIPY_FREE_MODES = {
    "plain": "",
    "importance": "sampling = invert\n",
    "table5": "",
    "sweep": "sampling = invert\nepsilons = 4,2\n",
    "density": "y = 0.5\nt = 0.1\n",
}
_ORACLE_MODES = {
    "fp": "n_cells = 2048\ndt = 1e-3\n",
    "action": "",
}
_SCIPY_PROBE = """\
import sys
from pathlib import Path
import wellescape
from wellescape.cli import main
assert "scipy" not in sys.modules, "import"
free = sys.argv[2].split(",")
for mode in free + sys.argv[3].split(","):
    assert main(["run", str(Path(sys.argv[1]) / (mode + ".cfg"))]) == 0, mode
    assert mode not in free or "scipy" not in sys.modules, mode
print("scipy.linalg" in sys.modules)
"""


def test_sampling_modes_run_without_scipy(tmp_path):
    """Only the fp and action oracles load scipy, on first use.

    Runs in a fresh interpreter: this one already holds scipy through
    other test modules.
    """
    for mode, extra in {**_SCIPY_FREE_MODES, **_ORACLE_MODES}.items():
        text = BASE.replace("mode = plain", f"mode = {mode}") + "N = 256\n" + extra
        _write_cfg(tmp_path, text, name=f"{mode}.cfg")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", _SCIPY_PROBE, str(tmp_path),
         ",".join(_SCIPY_FREE_MODES), ",".join(_ORACLE_MODES)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "True"


# The benchmark times every estimator pass and FP solve by patching these
# module bindings and reading the named parameters off each call, and the
# summary attributes off each pass's result (with tracing off too), so a
# mode that stops calling through them goes unmeasured.
_SEAM = {
    ("cli", "run_plain"): {"n_samples", "h", "noise", "event"},
    ("cli", "run_importance"): {"n_samples", "h", "noise", "event",
                                "sampling_potential", "tau"},
    ("cli", "run_importance_meshes"): {"n_samples", "h", "noise", "event",
                                       "sampling_potential"},
    ("estimators", "run_importance"): {"n_samples", "h", "noise", "event",
                                       "sampling_potential", "tau"},
    ("cli", "escape_probability"): {"noise", "horizon", "n_cells", "dt"},
}
_SUMMARY_SEAM = ("n", "hits", "mean", "variance", "sum_w_ind", "sum_w2_ind")


@pytest.mark.parametrize("mode, extra, reached", [
    ("importance", ["--sampling", "invert"],
     {("cli", "run_importance"): 1, ("cli", "run_plain"): 1}),
    ("table5", [], {("cli", "run_plain"): 1, ("cli", "run_importance_meshes"): 2}),
    ("sweep", ["--sampling", "invert", "--epsilons", "4,2"],
     {("estimators", "run_importance"): 2}),
    ("fp", ["--n_cells", "512", "--dt", "1e-2"], {("cli", "escape_probability"): 1}),
], ids=["importance", "table5", "sweep", "fp"])
def test_modes_call_through_the_benchmark_seam(tmp_path, capsys, monkeypatch,
                                               mode, extra, reached):
    import inspect

    import wellescape.cli
    import wellescape.estimators

    calls = {key: [] for key in _SEAM}
    for module, name in _SEAM:
        owner = getattr(wellescape, module)
        fn = getattr(owner, name)

        def counted(*args, _fn=fn, _key=(module, name), **kwargs):
            bound = inspect.signature(_fn).bind(*args, **kwargs).arguments
            calls[_key].append(set(bound))
            result = _fn(*args, **kwargs)
            if _key[1] != "escape_probability":     # an AttributeError fails
                for s in result.values() if isinstance(result, dict) else [result]:
                    for attr in _SUMMARY_SEAM:
                        getattr(s, attr)
            return result

        monkeypatch.setattr(owner, name, counted)
    path = _write_cfg(tmp_path, BASE)
    assert main(["run", path, "--mode", mode, "--N", "256", *extra]) == 0
    capsys.readouterr()
    assert {k: len(v) for k, v in calls.items() if v} == reached
    for key, seen in calls.items():
        for names in seen:
            assert _SEAM[key] <= names, (key, _SEAM[key] - names)
