import re
from pathlib import Path

import numpy as np
import pytest

from stagflame import hydro
from stagflame.cli import EXIT_CONFIG, EXIT_OK, EXIT_ORACLE, EXIT_STEP, main


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "case.cfg"
    path.write_text("n_cells = 60\nt_end = 0.0021\n")
    return str(path)


def test_run_verb_writes_outputs(config_file, tmp_path, capsys):
    prefix = str(tmp_path / "out")
    code = main(["run", config_file, "--output-prefix", prefix])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "relative total-energy drift" in out
    assert "L1 errors" in out
    assert (tmp_path / "out_profile.csv").exists()
    assert (tmp_path / "out_diag.csv").exists()


def test_unknown_key_is_a_config_error(config_file, capsys):
    code = main(["run", config_file, "--set", "bogus=1"])
    assert code == EXIT_CONFIG
    assert "configuration error" in capsys.readouterr().err


def test_bad_config_line_is_a_config_error(tmp_path, capsys):
    path = tmp_path / "broken.cfg"
    path.write_text("this line has no equals sign\n")
    assert main(["run", str(path)]) == EXIT_CONFIG
    assert "line 1" in capsys.readouterr().err


@pytest.mark.parametrize("override,reason", [
    ("cfl=nan", "cfl must be finite"),
    ("x_right=-1", "empty domain"),
    ("T_fresh=-1", r"T_fresh must lie in \(0.0, inf\)"),
    ("gamma=nan", "gamma must be finite"),
    ("molar_F=0.5", "molar fractions sum to"),
    ("t_end=1e300", r"needs [\d.]+e\+304 steps .* more than 10000000"),
    ("t_start=0", r"t_start must lie in \(0.0, inf\)"),
    ("n_cells=1.5", "'n_cells' needs an integer"),
    ("limiter=antidiffusive",
     "implicit mode always convects with upwind faces"),
    ("zeta_minus=0.5", "zeta_minus = 0.5 needs time_mode = explicit-limited"),
    ("neighbor_policy=upstream_cells",
     "neighbor_policy = upstream_cells needs time_mode = explicit-limited"),
    ("s_max=1.5", "s_max = 1.5 needs time_mode = explicit-limited"),
])
def test_bad_config_values_are_config_errors(config_file, capsys, override,
                                             reason):
    # each of these used to end in a traceback or an oracle error
    assert main(["run", config_file, "--set", override]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("configuration error")
    assert re.search(reason, err)


@pytest.mark.parametrize("override", [
    "init_mode=uniform", "nonlinear_tol=1e-14", "max_iterations=1",
    "grad_threshold=0", "flame_speed_product=50", "output_prefix=out",
    "epsilon=1e-4",
])
def test_removed_keys_are_config_errors(config_file, capsys, override):
    # the Newton tolerance and cap and the front cutoff are constants, the
    # flame speed is the oracle's, the run starts from the oracle's state,
    # the output prefix is the --output-prefix flag, and the chemical time
    # shrinks with the mesh (epsilon_per_h)
    assert main(["run", config_file, "--set", override]) == EXIT_CONFIG
    assert "unknown config key" in capsys.readouterr().err


_EXPLICIT = ("--set", "time_mode=explicit-limited")


@pytest.mark.parametrize("limiter,override,readers", [
    ("antidiffusive", "zeta_minus=0.3", "muscl"),
    ("antidiffusive", "zeta_plus=1.7", "muscl"),
    ("antidiffusive", "neighbor_policy=upstream_cells", "muscl"),
    ("muscl", "s_max=0.5", "antidiffusive"),
    ("upwind", "zeta_minus=0.3", "muscl"),
    ("upwind", "s_max=0.5", "antidiffusive"),
])
def test_limiter_keys_the_scheme_ignores_are_config_errors(
        config_file, capsys, limiter, override, readers):
    # explicit runs with such a key came out bitwise equal to the defaults
    code = main(["run", config_file, *_EXPLICIT, "--set", f"limiter={limiter}",
                 "--set", override])
    assert code == EXIT_CONFIG
    key, value = override.split("=")
    assert capsys.readouterr().err == (
        f"configuration error: {key} = {value} has no effect: only "
        f"{readers} reads it, not {limiter}\n")


@pytest.mark.parametrize("schemes,override,code", [
    ("antidiffusive", "zeta_minus=0.3", EXIT_CONFIG),
    ("upwind,muscl", "s_max=0.5", EXIT_CONFIG),
    (None, "zeta_minus=0.3", EXIT_OK),  # muscl reads it
])
def test_sweep_rejects_limiter_keys_none_of_its_schemes_reads(
        config_file, capsys, schemes, override, code):
    argv = ["sweep", config_file, *_EXPLICIT, "--set", override,
            "--meshes", "20,40"]
    if schemes is not None:
        argv += ["--schemes", schemes]
    assert main(argv) == code
    captured = capsys.readouterr()
    if code == EXIT_OK:
        assert re.findall(r"scheme = (\w+)", captured.out) == [
            "upwind", "muscl", "antidiffusive"]
    else:
        key = override.split("=")[0]
        assert re.search(rf"^configuration error: {key} = .* has no effect: "
                         rf"only \w+ reads it, not {schemes.replace(',', ', ')}$",
                         captured.err)


def test_explicit_step_past_cfl_one_is_a_step_failure(config_file, capsys):
    # 60 cells at dt = 2e-4 start at a material CFL of about 2
    code = main(["run", config_file, "--set", "time_mode=explicit-limited",
                 "--set", "dt=2e-4", "--set", "t_end=0.0026"])
    assert code == EXIT_STEP
    assert "material CFL" in capsys.readouterr().err


def test_unsolvable_correction_is_a_step_failure(config_file, capsys,
                                                 monkeypatch):
    monkeypatch.setattr(hydro, "_NONLINEAR_TOL", 1e-14)
    monkeypatch.setattr(hydro, "_MAX_ITERATIONS", 1)
    code = main(["run", config_file])
    assert code == EXIT_STEP
    err = capsys.readouterr().err
    # the message names the step and the time it started from
    assert err.startswith("step failure: step 1 (t = 0.002): correction solve")


def test_oracle_verb_prints_pattern_and_samples(config_file, tmp_path, capsys):
    csv = tmp_path / "exact.csv"
    code = main(["oracle", config_file, "--csv", str(csv), "--time", "0.004"])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "flame speed" in out
    assert "worst jump-relation residual" in out
    lines = csv.read_text().splitlines()
    header = lines[0].split(",")
    assert header[0] == "x"
    assert {"p", "rho", "u", "G"} <= set(header)
    assert len(lines) == 1 + 60
    data = np.array([row.split(",") for row in lines[1:]], dtype=float)
    assert np.all(np.isfinite(data))


def test_static_flame_with_heat_release_is_an_oracle_error(config_file, capsys):
    code = main(["oracle", config_file, "--set", "u_flame=0"])
    assert code == EXIT_ORACLE
    assert "oracle error" in capsys.readouterr().err


def test_sweep_verb(config_file, tmp_path, capsys):
    prefix = str(tmp_path / "study")
    code = main(["sweep", config_file, "--meshes", "24,48",
                 "--schemes", "upwind,antidiffusive",
                 "--set", "time_mode=explicit-limited",
                 "--output-prefix", prefix])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "scheme = upwind" in out
    assert "scheme = antidiffusive" in out
    lines = (tmp_path / "study_sweep.csv").read_text().splitlines()
    assert lines[0].startswith("scheme,n_cells,h,")
    # one header plus two meshes per scheme
    assert len(lines) == 1 + 4


@pytest.mark.parametrize("option,text", [
    ("--meshes", "abc"), ("--meshes", "1.5"), ("--meshes", ""),
    ("--schemes", ""), ("--schemes", ","),
])
def test_sweep_list_options_are_config_errors(config_file, capsys, option,
                                              text):
    # a list that does not parse, or names nothing, runs no study
    assert main(["sweep", config_file, option, text]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: {option} needs")
    assert err.rstrip().endswith(f"got {text!r}")


def test_sweep_schemes_default_to_the_time_mode(capsys):
    # the shipped config is implicit, which only convects with upwind faces
    path = Path(__file__).resolve().parents[1] / "configs" / "benchmark.cfg"
    assert main(["sweep", str(path), "--meshes", "24"]) == EXIT_OK
    out = capsys.readouterr().out
    assert re.findall(r"scheme = (\w+)", out) == ["upwind"]
    assert main(["sweep", str(path), "--meshes", "24",
                 "--set", "time_mode=explicit-limited"]) == EXIT_OK
    out = capsys.readouterr().out
    assert re.findall(r"scheme = (\w+)", out) == ["upwind", "muscl",
                                                   "antidiffusive"]


def test_check_verb_loads_the_shipped_config(capsys):
    # every key of configs/benchmark.cfg must still be a known config key
    path = Path(__file__).resolve().parents[1] / "configs" / "benchmark.cfg"
    assert main(["check", str(path)]) == EXIT_OK
    assert "all checks passed" in capsys.readouterr().out


def test_check_verb_passes_on_benchmark(config_file, capsys):
    assert main(["check", config_file]) == EXIT_OK
    out = capsys.readouterr().out
    assert "all checks passed" in out
    assert out.count("[PASS]") == 4
    assert "[FAIL]" not in out
    assert re.search(r"10-step run: gates and energy \(10 steps of dt", out)
