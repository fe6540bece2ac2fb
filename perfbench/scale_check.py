#!/usr/bin/env python3
"""Checks that the speed scale of ``speed.Monitor`` does not follow the code.

The end-to-end times are scaled by the speed of a fixed numpy/scipy kernel
sliced into each sample.  If a change to the solver moved that kernel's
speed, the scale would cancel part of the change.  This script slows the
solver by known amounts and checks that the scale stays flat while the
scaled wall grows by the added time.  It runs ``implicit-250`` samples in
rounds, one per variant in a seed-chosen order:

- ``shipped`` and ``shipped-again``: the solver as it is, twice, to show
  how far two variants differ by chance;
- ``solves-x2``: every hydro banded solve done twice (more LAPACK work);
- ``chemistry-x2``: every chemistry stage done twice (small-array numpy);
- ``cache-16mb``: every step also sums a 16 MB array (a larger working set).

It prints, per variant, the median scale and its ratio to ``shipped`` in the
same round, the median scaled wall, and the median scaled time of the added
work; ``wall - shipped`` should match ``added``.

    python3 perfbench/scale_check.py --seed 1
"""

import argparse
import random
import statistics
import sys
import time

import run  # noqa: F401  (pins the BLAS threads before numpy is loaded)
import numpy as np  # noqa: E402
import speed  # noqa: E402
import workloads as wl  # noqa: E402

sys.path.insert(0, str(wl.SRC))
import stagflame.harness as harness  # noqa: E402
import stagflame.hydro as hydro  # noqa: E402

# Forty rounds take about three minutes and put the chance difference
# between two unchanged variants near 2% of the scale.
ROUNDS = 40
BIG = np.ones(2 * 1024 * 1024)  # 16 MB


def timed_extra(added, fn):
    """Wraps ``fn`` to run once more, adding the extra call's time to ``added``."""

    def wrapper(*args, **kwargs):
        result = fn(*args, **kwargs)
        started = time.perf_counter()
        fn(*args, **kwargs)
        added[0] += time.perf_counter() - started
        return result

    return wrapper


def with_cache_sweep(added, fn):
    def wrapper(*args, **kwargs):
        started = time.perf_counter()
        BIG.sum()
        added[0] += time.perf_counter() - started
        return fn(*args, **kwargs)

    return wrapper


VARIANTS = {
    "shipped": None,
    "shipped-again": None,
    "solves-x2": (hydro, "solve_banded", timed_extra),
    "chemistry-x2": (harness, "chemistry_step", timed_extra),
    "cache-16mb": (harness, "advance", with_cache_sweep),
}


def sample(variant, config, reference):
    added = [0.0]
    patch = VARIANTS[variant]
    if patch is not None:
        module, attr, wrap = patch
        original = getattr(module, attr)
        setattr(module, attr, wrap(added, original))
    try:
        with speed.Monitor() as monitor:
            wall, _ = wl.run_sample(harness, config, reference)
    finally:
        if patch is not None:
            setattr(module, attr, original)
    scale = monitor.scale()
    return scale, (wall - monitor.paused_s) * scale, added[0] * scale


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    workload = wl.WORKLOADS["implicit-250"]
    reference = wl.load_reference()[workload.name]
    config = workload.config(harness)
    wl.warm_up(harness, workload)
    rng = random.Random(args.seed)
    rows = {v: [] for v in VARIANTS}
    for _ in range(ROUNDS):
        for variant in rng.sample(list(VARIANTS), len(VARIANTS)):
            rows[variant].append(sample(variant, config, reference))
    base_wall = statistics.median(r[1] for r in rows["shipped"])
    print(f"{'variant':<14}{'scale':>8}{'vs shipped':>12}{'wall_s':>9}"
          f"{'- shipped':>11}{'added_s':>9}")
    for variant, results in rows.items():
        ratios = [r[0] / b[0] for r, b in zip(results, rows["shipped"])]
        wall = statistics.median(r[1] for r in results)
        print(f"{variant:<14}{statistics.median(r[0] for r in results):>8.4f}"
              f"{statistics.median(ratios):>12.4f}{wall:>9.4f}"
              f"{wall - base_wall:>11.4f}"
              f"{statistics.median(r[2] for r in results):>9.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
