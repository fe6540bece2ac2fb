"""The fixed solver workloads of the benchmark and their correctness gates.

Every workload runs ``configs/benchmark.cfg`` with a few overrides through
the public API of ``stagflame.harness``.  A sample passes its gate only if it
reproduces the solution recorded in ``reference.json`` at the seed commit.
"""

import json
import math
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CONFIG = ROOT / "configs" / "benchmark.cfg"
REFERENCE = HERE / "reference.json"

MAX_DRIFT = 1e-12
# L1 errors must match the reference this closely.  Reordered arithmetic or
# a nonlinear solve converged differently within its 1e-12 tolerance moves
# them far less; any change to the discretisation moves them far more.
ERROR_RTOL = 1e-6
WARM_UP_CELLS = 40


class GateFailure(Exception):
    """A sample ran but did not reproduce the reference solution."""


@dataclass(frozen=True)
class Workload:
    name: str
    overrides: tuple

    def config(self, harness, *extra):
        return harness.load_config(str(CONFIG), self.overrides + extra)


WORKLOADS = {w.name: w for w in (
    Workload("implicit-250", ()),
    Workload("explicit-ad-2000", (
        "n_cells=2000", "time_mode=explicit-limited", "limiter=antidiffusive")),
)}


def load_reference():
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


def warm_up(harness, workload):
    """Run the workload once on a tiny mesh, untimed."""
    harness.run_case(workload.config(harness, f"n_cells={WARM_UP_CELLS}"))


def run_sample(harness, config, reference):
    """Time one ``run_case`` call and check its result.

    Returns ``(wall seconds, n_cells * n_steps)``; raises GateFailure if the
    result differs from the reference.
    """
    started = time.perf_counter()
    result = harness.run_case(config)
    wall = time.perf_counter() - started
    return wall, check_run(result, reference)


def check_run(result, reference):
    if result.n_steps != reference["n_steps"]:
        raise GateFailure(f"{result.n_steps} steps, reference {reference['n_steps']}")
    rows = result.diagnostics
    drift = max([row["energy_drift_rel"] for row in rows] + [result.energy_drift_rel])
    if not drift <= MAX_DRIFT:
        raise GateFailure(f"relative energy drift {drift:.3e} exceeds {MAX_DRIFT:.0e}")
    fallbacks = sum(row["used_fallback"] for row in rows)
    if fallbacks:
        raise GateFailure(f"{fallbacks} steps used the fixed-point fallback")
    check_errors(result.errors, reference["errors"])
    return result.config.n_cells * result.n_steps


def check_errors(got, want):
    for field, value in want.items():
        if not math.isclose(got[field], value, rel_tol=ERROR_RTOL, abs_tol=0.0):
            raise GateFailure(
                f"L1 error of {field} is {got[field]!r}, reference {value!r}")
