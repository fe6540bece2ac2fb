import math
import re
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stagflame import cli, harness, hydro
from stagflame.cli import EXIT_CONFIG, EXIT_OK, EXIT_ORACLE, EXIT_STEP, main
from stagflame.errors import StepFailure
from stagflame.harness import CaseConfig

SHIPPED = Path(__file__).resolve().parents[1] / "configs" / "benchmark.cfg"


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
    # an integer too large for a float, and the cap: neither builds a grid
    pytest.param("n_cells=" + "9" * 400, r"n_cells must lie in \[3, 1000000\]",
                 id="n_cells=9x400"),
    ("n_cells=1000001", r"n_cells must lie in \[3, 1000000\]"),
    ("u_flame=-1", r"u_flame must lie in \[0.0, inf\)"),
    ("limiter=antidiffusive",
     "implicit mode always convects with upwind faces"),
    # the oracle's bracket search divides by zero on the way, silently
    ("T_fresh=1e300", "zero initial flux"),
    # no heat release: the starting level is the fresh gas at rest
    ("dh_P=0", "set dt instead"),
    # an endothermic mixture, even by a hair, warned and then failed in the
    # oracle
    ("dh_P=1e-300", "the reaction is endothermic"),
    ("dh_P=1e-12", "the reaction is endothermic"),
    ("dh_P=1e12", "the reaction is endothermic"),
    ("dh_P=1e300", "the reaction is endothermic"),
    ("dh_F=-1e300", "the reaction is endothermic"),
    ("dh_O=-1e300", "the reaction is endothermic"),
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
    "epsilon=1e-4", "zeta_minus=1.0", "zeta_plus=1.0",
    "neighbor_policy=opposite_cells", "s_max=2.0",
])
def test_removed_keys_are_config_errors(config_file, capsys, override):
    # the Newton tolerance and cap and the front cutoff are constants, the
    # flame speed is the oracle's, the run starts from the oracle's state,
    # the output prefix is the --output-prefix flag, the chemical time
    # shrinks with the mesh (epsilon_per_h), and the face schemes keep their
    # default tuning, so even a default value is unknown
    assert main(["run", config_file, "--set", override]) == EXIT_CONFIG
    assert "unknown config key" in capsys.readouterr().err


_EXPLICIT = ("--set", "time_mode=explicit-limited")


@pytest.mark.parametrize("argv,stage", [
    (["run", "--set", "time_mode=bogus"], "solve_deflagration_riemann"),
    (["sweep", *_EXPLICIT, "--meshes", "1000", "--schemes", "upwind,bogus"],
     "run_case"),
])
def test_unknown_choice_stops_before_any_work(config_file, capsys,
                                              monkeypatch, argv, stage):
    # the config rejects the name when it is built, before the oracle solve
    # of a run and before the first study of a sweep
    calls = []
    monkeypatch.setattr(harness, stage, lambda *a, **k: calls.append(a))
    assert main([argv[0], config_file, *argv[1:]]) == EXIT_CONFIG
    assert calls == []
    assert re.search(r"^configuration error: unknown (time_mode|limiter) "
                     r"'bogus', expected one of ", capsys.readouterr().err)


def test_explicit_step_past_cfl_one_is_a_step_failure(config_file, capsys):
    # 60 cells at dt = 2e-4 start at a material CFL of about 2
    code = main(["run", config_file, "--set", "time_mode=explicit-limited",
                 "--set", "dt=2e-4", "--set", "t_end=0.0026"])
    assert code == EXIT_STEP
    assert "material CFL" in capsys.readouterr().err


@pytest.mark.parametrize("limiter", ["muscl", "antidiffusive"])
def test_overflowing_correction_is_a_step_failure(limiter, capsys):
    # a vanishing reaction time scales the round-off left in the burnt
    # cells' reaction invariant up to a heat release that drives Newton's
    # pressures past the largest double: the step fails, without a warning
    code = main(["check", str(SHIPPED), "--set", "n_cells=24",
                 "--set", "time_mode=explicit-limited",
                 "--set", f"limiter={limiter}",
                 "--set", "epsilon_per_h=1e-300"])
    assert code == EXIT_STEP
    assert "non-finite Newton step" in capsys.readouterr().err


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


@pytest.mark.parametrize("time", ["-1", "0", "nan"])
def test_oracle_time_must_be_positive(config_file, tmp_path, capsys,
                                      monkeypatch, time):
    # a bad sampling time is a bad command line, refused before the oracle
    # solve
    calls = []
    monkeypatch.setattr(harness, "solve_deflagration_riemann",
                        lambda *a, **k: calls.append(a))
    code = main(["oracle", config_file, "--csv", str(tmp_path / "x.csv"),
                 "--time", time])
    assert code == EXIT_CONFIG
    assert calls == []
    assert capsys.readouterr().err.startswith(
        "configuration error: --time must be positive, got ")


def _work_must_not_run(*args, **kwargs):
    raise AssertionError("the work ran")


@pytest.mark.parametrize("argv,path,module,work", [
    pytest.param(["run", "--output-prefix", "{}/p"], "{}/p_profile.csv",
                 cli, "run_case", id="run"),
    pytest.param(["sweep", "--meshes", "24", "--output-prefix", "{}/p"],
                 "{}/p_sweep.csv", harness, "run_case", id="sweep"),
    pytest.param(["oracle", "--csv", "{}/x.csv"], "{}/x.csv", harness,
                 "solve_deflagration_riemann", id="oracle"),
])
def test_unwritable_output_is_a_config_error(config_file, tmp_path, capsys,
                                             monkeypatch, argv, path, module,
                                             work):
    # the output directory does not exist: no traceback, exit 2, found
    # before the run, the sweep or the oracle solve rather than after it
    monkeypatch.setattr(module, work, _work_must_not_run)
    missing = tmp_path / "missing"
    argv = [argv[0], config_file] + [a.format(missing) for a in argv[1:]]
    assert main(argv) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(
        f"configuration error: cannot write {path.format(missing)}: ")
    assert not missing.exists()


@pytest.mark.parametrize("argv,message", [
    pytest.param(["--meshes", "2000,2"],
                 r"n_cells must lie in \[3, 1000000\], got 2$", id="bad-mesh"),
    pytest.param(["--meshes", "20,20"], r"mesh 20 is repeated",
                 id="repeated-mesh"),
    pytest.param(["--meshes", "20", "--schemes", "upwind,upwind"],
                 r"scheme 'upwind' is repeated", id="repeated-scheme"),
])
def test_sweep_refuses_its_meshes_and_schemes_before_any_run(
        config_file, capsys, monkeypatch, argv, message):
    calls = []
    monkeypatch.setattr(harness, "run_case", lambda *a, **k: calls.append(a))
    assert main(["sweep", config_file, *_EXPLICIT, *argv]) == EXIT_CONFIG
    assert calls == []
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.search(message, captured.err.rstrip())


def test_static_flame_with_heat_release_is_an_oracle_error(config_file, capsys):
    code = main(["oracle", config_file, "--set", "u_flame=0"])
    assert code == EXIT_ORACLE
    assert "oracle error" in capsys.readouterr().err
    # a nearly static flame fails the pattern's own certificate (README,
    # "Inputs that exit 4")
    code = main(["oracle", config_file, "--set", "u_flame=1e-6"])
    assert code == EXIT_ORACLE
    assert capsys.readouterr().err == (
        "oracle error: jump relation residual 1.381e-09 exceeds 1.0e-10\n")


def test_oracle_verb_builds_no_starting_level(config_file, capsys,
                                              monkeypatch):
    # without heat release the pattern is the fresh gas at rest and
    # certifies; that no face carries mass for a CFL target to measure is a
    # run's concern, and the oracle builds no grid to find it
    monkeypatch.setattr(harness, "build_uniform_grid", _work_must_not_run)
    assert main(["oracle", config_file, "--set", "dh_P=0"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "heat release 0.00000000e+00" in out
    assert "worst jump-relation residual: 0.000e+00" in out


@pytest.mark.parametrize("verb", ["oracle", "check"])
def test_vanishing_fresh_density_is_an_oracle_error(config_file, capsys,
                                                    verb):
    # p / (R T) underflows to 0, which the shock relations divide by
    code = main([verb, config_file, "--set", "p_fresh=1e-300",
                 "--set", "T_fresh=1e300"])
    assert code == EXIT_ORACLE
    captured = capsys.readouterr()
    assert captured.err == ("oracle error: the fresh density p / (R T) = 0 "
                            "is not positive and finite\n")
    assert captured.out == ""


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
    assert main(["check", str(SHIPPED)]) == EXIT_OK
    assert "all checks passed" in capsys.readouterr().out


def test_check_verb_passes_on_benchmark(config_file, capsys):
    assert main(["check", config_file]) == EXIT_OK
    out = capsys.readouterr().out.splitlines()
    assert out == [
        "exact solution certified; the starting level on 60 cells passes "
        "every gate",
        out[1],
        "all checks passed",
    ]
    assert re.fullmatch(r"10-step run: 10 steps of dt \S+ hold every gate, "
                        r"energy drift \S+", out[1])


def test_check_verb_static_flame_is_an_oracle_error(config_file, capsys):
    assert main(["check", config_file, "--set", "u_flame=0"]) == EXIT_ORACLE
    captured = capsys.readouterr()
    assert captured.err.startswith("oracle error: ")
    assert "static flame with heat release" in captured.err
    assert captured.out == ""


def test_check_verb_unknown_key_is_a_config_error(config_file, capsys):
    assert main(["check", config_file, "--set", "bogus=1"]) == EXIT_CONFIG
    assert capsys.readouterr().err == (
        "configuration error: unknown config key 'bogus'\n")


def test_check_verb_step_failure_exits_3(config_file, capsys, monkeypatch):
    def failing(state, chem_config):
        raise StepFailure("injected")

    monkeypatch.setattr(harness, "advance", failing)
    assert main(["check", config_file]) == EXIT_STEP
    captured = capsys.readouterr()
    # the oracle and the starting level passed; the run's first step failed
    assert "all checks passed" not in captured.out
    assert captured.err == (
        "step failure: step 1 (t = 0.002): injected\n")


# the extremes of the exit-code scan of every numeric key
EXTREMES = (math.nan, math.inf, -math.inf, -1.0, 0.0, 1e-300, 1e-12, 1e12,
            1e300, -1e300)


def _near(default):
    """Values around a key's default: scaled by 1/2 to 2, or about 0.
    Some break a relation between keys (the molar fractions' sum, the
    stoichiometric mass balance), which is a configuration error."""
    if default is None:  # dt, the alternative to cfl
        return st.floats(1e-7, 1e-4)
    if default == 0.0:  # the formation enthalpies dh_F, dh_O, dh_N
        return st.floats(-1e6, 1e6)
    return st.floats(0.5, 2.0).map(lambda f: f * default)


_DEFAULTS = CaseConfig()
NEAR_DEFAULT = {f.name: _near(getattr(_DEFAULTS, f.name))
                for f in fields(CaseConfig)
                if f.name not in ("n_cells", "time_mode", "limiter")}
NEAR_DEFAULT["n_cells"] = st.integers(3, 48)
NEAR_DEFAULT["x_left"] = NEAR_DEFAULT["x0"] = st.floats(-1.0, 1.0)


@st.composite
def one_key_override(draw):
    key = draw(st.sampled_from(sorted(NEAR_DEFAULT)))
    value = draw(st.one_of(NEAR_DEFAULT[key], st.sampled_from(EXTREMES)))
    return key, value


@settings(max_examples=300, deadline=None)
@given(override=one_key_override(),
       mode=st.sampled_from([("implicit-upwind", "upwind"),
                             ("explicit-limited", "upwind"),
                             ("explicit-limited", "muscl"),
                             ("explicit-limited", "antidiffusive")]))
def test_every_numeric_value_ends_in_a_documented_exit(override, mode):
    # one key of the shipped config set near its default or to an extreme:
    # the check ends in exit 0, 2, 3 or 4, never in a traceback, and any
    # warning fails the test (warnings are errors under pytest here)
    key, value = override
    time_mode, limiter = mode
    argv = ["check", str(SHIPPED), "--set", "n_cells=24",
            "--set", f"time_mode={time_mode}", "--set", f"limiter={limiter}",
            "--set", f"{key}={value!r}"]
    assert main(argv) in (EXIT_OK, EXIT_CONFIG, EXIT_STEP, EXIT_ORACLE)
