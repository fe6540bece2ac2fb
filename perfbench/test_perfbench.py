"""Tests of the benchmark's own machinery.

Run with ``python -m pytest perfbench`` from the repository root.
"""

import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import spans  # noqa: E402
import speed  # noqa: E402
import workloads as wl  # noqa: E402
import stagflame.harness as harness  # noqa: E402


def traced(config):
    recorder = spans.Recorder()
    with recorder:
        started = time.perf_counter()
        harness.run_case(config)
        wall = time.perf_counter() - started
    return spans.layer_metrics(recorder, wall)


@pytest.mark.parametrize("name", ["implicit-250", "explicit-ad-2000"])
def test_counts_repeat_exactly_between_traced_runs(name):
    config = wl.WORKLOADS[name].config(harness, "n_cells=60")
    first, first_detail = traced(config)
    second, second_detail = traced(config)
    for key in spans.COUNT_METRICS:
        assert first[key] == second[key], key
    assert first_detail["newton_histogram"] == second_detail["newton_histogram"]
    steps = first["harness.steps"]
    assert steps > 0
    assert first["hydro.fallback_steps"] == 0
    # one prediction solve plus one solve per Newton iteration
    assert first["hydro.banded_solves"] == steps * (1 + first["hydro.newton_iters_per_step"])
    if name == "implicit-250":
        assert first["chemistry.banded_solves"] == 4 * steps
        assert first["transport.face_values_calls"] == 0
    else:
        assert first["chemistry.banded_solves"] == 2 * steps
        assert first["transport.face_values_calls"] == 4 * steps
    assert 0.95 <= first["trace.coverage_ratio"] <= 1.0


def test_recorder_restores_the_original_callables():
    import stagflame.hydro as hydro

    before = hydro.solve_banded
    with spans.Recorder():
        assert hydro.solve_banded is not before
        with pytest.raises(RuntimeError):
            spans.assert_unwrapped()
    assert hydro.solve_banded is before
    spans.assert_unwrapped()


def test_absent_callable_is_reported_not_fatal():
    targets = spans.TARGETS + (("stagflame.hydro", "no_such_callable", "hydro.gone"),)
    recorder = spans.Recorder(targets)
    with recorder:
        harness.run_case(wl.WORKLOADS["implicit-250"].config(harness, "n_cells=20"))
    metrics, detail = spans.layer_metrics(recorder, 1.0)
    assert detail["absent"] == ["hydro.gone"]
    assert metrics["trace.absent_spans"] == 1
    spans.assert_unwrapped(targets)


def test_self_time_subtracts_direct_children_only():
    rows = [
        ["outer", 0.0, 10.0, -1, None],
        ["mid", 1.0, 7.0, 0, None],
        ["leaf", 2.0, 5.0, 1, None],
        ["leaf", 8.0, 9.0, 0, None],
    ]
    assert spans.self_times(rows) == [3.0, 3.0, 3.0, 1.0]


def test_coverage_leaves_out_the_top_level_self_time():
    recorder = spans.Recorder()
    recorder.spans = [
        ["harness.run_case", 0.0, 10.0, -1, None],
        ["harness.advance", 1.0, 7.0, 0, None],
        ["hydro.predict_velocity", 2.0, 5.0, 1, None],
    ]
    metrics, _ = spans.layer_metrics(recorder, 10.0)
    assert metrics["harness.loop_self_s"] == 4.0
    assert metrics["trace.coverage_ratio"] == 0.6


def test_pauses_are_removed_from_spans():
    recorder = spans.Recorder()
    recorder.spans = [
        ["outer", 0.0, 10.0, -1, None],
        ["inner", 2.0, 6.0, 0, None],
    ]
    recorder.remove_pauses([(1.0, 1.5), (3.0, 4.0), (8.0, 8.5)])
    assert recorder.spans[0][1:3] == [0.0, 8.0]
    assert recorder.spans[1][1:3] == [1.5, 4.5]


def test_monitor_slices_a_long_call_and_restores_the_handler():
    previous = signal.getsignal(signal.SIGALRM)
    with speed.Monitor() as monitor:
        deadline = time.perf_counter() + 0.35
        while time.perf_counter() < deadline:
            pass
    assert len(monitor.slices) >= 3
    assert monitor.paused_s == sum(end - start for start, end in monitor.slices)
    assert monitor.scale() > 0.0
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_run_fails_without_the_solver_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    spec = json.loads((tmp_path / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        spec["command"][:1] + [str(tmp_path / spec["command"][1]), "--workload",
                               "implicit-250", "--seed", "1", "--seconds", "1",
                               "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
