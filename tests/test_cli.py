import re
from pathlib import Path

import numpy as np
import pytest

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
    ("t_start=0", "t_start must be positive for init_mode = riemann_oracle"),
    ("n_cells=1.5", "'n_cells' needs an integer"),
    ("max_iterations=x", "'max_iterations' needs an integer"),
    ("limiter=antidiffusive",
     "implicit mode always convects with upwind faces"),
])
def test_bad_config_values_are_config_errors(config_file, capsys, override,
                                             reason):
    # each of these used to end in a traceback or an oracle error
    assert main(["run", config_file, "--set", override]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("configuration error")
    assert re.search(reason, err)


def test_explicit_step_past_cfl_one_is_a_step_failure(config_file, capsys):
    # 60 cells at dt = 2e-4 start at a material CFL of about 2
    code = main(["run", config_file, "--set", "time_mode=explicit-limited",
                 "--set", "dt=2e-4", "--set", "t_end=0.0026"])
    assert code == EXIT_STEP
    assert "material CFL" in capsys.readouterr().err


def test_unsolvable_correction_is_a_step_failure(config_file, capsys):
    code = main(["run", config_file, "--set", "nonlinear_tol=1e-14",
                 "--set", "max_iterations=1"])
    assert code == EXIT_STEP
    assert "step failure" in capsys.readouterr().err


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
