"""The four short runs of ``tests/digests.py`` stay bitwise what they were
when their digests were recorded."""

from copy import deepcopy
from dataclasses import replace

import numpy as np
import pytest

import digests
from stagflame.harness import CaseConfig, run_case


def test_results_match_the_recorded_digests():
    recorded = digests.load()
    assert set(recorded["runs"]) == set(digests.RUNS)
    status, message = digests.compare(recorded, digests.compute(),
                                      digests.build())
    if status == "other-build":
        pytest.skip(message)
    assert status == "match", message


def test_a_mismatch_is_a_change_only_on_the_recording_build():
    recorded = {"build": {"numpy": "1"}, "runs": {"a": "x", "b": "y"}}
    assert digests.compare(recorded, {"a": "x", "b": "y"},
                           {"numpy": "2"})[0] == "match"
    status, message = digests.compare(recorded, {"a": "x", "b": "z"},
                                      {"numpy": "1"})
    assert status == "changed"
    assert "  b: y -> z  CHANGED" in message.splitlines()
    assert "  a: x -> x" in message.splitlines()
    status, message = digests.compare(recorded, {"a": "x", "b": "z"},
                                      {"numpy": "2"})
    assert status == "other-build"
    assert "does not show a change of the code" in message
    # a run added or dropped is a change too
    assert digests.compare(recorded, {"a": "x"}, {"numpy": "1"})[0] == "changed"


def test_one_ulp_anywhere_changes_the_digest():
    result = run_case(CaseConfig(n_cells=24, t_end=0.0021))
    base = digests.run_digest(result)
    assert digests.run_digest(deepcopy(result)) == base
    for name in digests.LEVEL_FIELDS[1:]:
        field = getattr(result.state, name).copy()
        field[-1] = np.nextafter(field[-1], np.inf)
        moved = replace(result, state=replace(result.state, **{name: field}))
        assert digests.run_digest(moved) != base, name
    rows = deepcopy(result.diagnostics)
    rows[0]["cfl"] = np.nextafter(rows[0]["cfl"], np.inf)
    assert digests.run_digest(replace(result, diagnostics=rows)) != base
    errors = {**result.errors, "T": np.nextafter(result.errors["T"], 0.0)}
    assert digests.run_digest(replace(result, errors=errors)) != base
