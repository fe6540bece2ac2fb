"""Heap peak of each phase of one run of ``configs/benchmark.cfg``.

After one untimed warm-up run on 40 cells, the script traces one
``run_case`` with ``tracemalloc`` and prints, for each phase of the run,
the largest heap it saw while that phase ran: every byte the run holds at
that moment, its levels and records included, not only the phase's own
temporaries.  A phase is a call through ``stagflame.harness``, wrapped at
the module attribute ``run_case`` looks it up by, as the benchmark's span
recorder does; a phase called inside another (the starting level's
``check_state_gates`` inside ``initialize_case``) counts for both.
``KEY=VALUE`` arguments override the config, as ``--set`` does.

    python tests/heap_peaks.py
    python tests/heap_peaks.py n_cells=2000 time_mode=explicit-limited \\
        limiter=antidiffusive
"""

import argparse
import sys
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CONFIG = ROOT / "configs" / "benchmark.cfg"
WARM_UP_CELLS = 40
PHASES = ("initialize_case", "chemistry_step", "euler_step", "total_energy",
          "check_state_gates", "l1_error")


def heap_peaks(overrides=()):
    """The heap peak in bytes of each of ``PHASES`` and of the whole run,
    under ``"run_case"``, of one traced ``run_case``."""
    from stagflame import harness

    harness.run_case(harness.load_config(
        str(CONFIG), tuple(overrides) + (f"n_cells={WARM_UP_CELLS}",)))
    config = harness.load_config(str(CONFIG), overrides)
    peaks = dict.fromkeys(PHASES + ("run_case",), 0)
    active = ["run_case"]

    def settle():
        # the peak since the last phase boundary belongs to every open phase
        peak = tracemalloc.get_traced_memory()[1]
        for name in active:
            peaks[name] = max(peaks[name], peak)
        tracemalloc.reset_peak()

    def wrap(name, fn):
        def wrapper(*args, **kwargs):
            settle()
            active.append(name)
            try:
                return fn(*args, **kwargs)
            finally:
                settle()
                active.pop()
        return wrapper

    originals = {name: getattr(harness, name) for name in PHASES}
    for name, fn in originals.items():
        setattr(harness, name, wrap(name, fn))
    tracemalloc.start()
    try:
        harness.run_case(config)
        settle()
    finally:
        tracemalloc.stop()
        for name, fn in originals.items():
            setattr(harness, name, fn)
    return peaks


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("overrides", nargs="*", metavar="KEY=VALUE",
                        help="config overrides, as with --set")
    args = parser.parse_args(argv)
    peaks = heap_peaks(args.overrides)
    width = max(map(len, peaks))
    for name, peak in peaks.items():
        print(f"{name:<{width}}  {peak / 1024:9.1f} KB")
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    sys.exit(main())
