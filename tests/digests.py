"""Bitwise digests of four short runs of ``configs/benchmark.cfg``.

A refactor that claims its results are unchanged is checked against these:
one sha256 per run over its final level arrays, its diagnostics rows and
its L1 errors.  The runs are implicit upwind on 250 cells and explicit
upwind, MUSCL and anti-diffusive on 120 cells.  A digest holds for the
build it was recorded on (Python, numpy and scipy versions, CPU); another
build may round differently, so a mismatch there says nothing about the
code.

    python tests/digests.py          # print recorded -> current digests
    python tests/digests.py --write  # record the current digests and build

A change that alters results on purpose records the new digests with
``--write`` and says so in ``CHANGES.md``.
"""

import argparse
import hashlib
import json
import platform
import sys
from importlib.metadata import version
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
CONFIG = ROOT / "configs" / "benchmark.cfg"
RECORD = Path(__file__).resolve().parent / "digests.json"
_EXPLICIT = ("n_cells=120", "time_mode=explicit-limited")
RUNS = {
    "implicit-upwind-250": (),
    "explicit-upwind-120": _EXPLICIT + ("limiter=upwind",),
    "explicit-muscl-120": _EXPLICIT + ("limiter=muscl",),
    "explicit-antidiffusive-120": _EXPLICIT + ("limiter=antidiffusive",),
}
# the unknowns of a level; every other array of it is built from these
LEVEL_FIELDS = ("dt", "rho_prev", "rho", "u", "p", "h_s", "y_F", "y_O",
                "y_N", "y_P", "z", "G", "flux")


def _update(h, label, values):
    h.update(label.encode())
    h.update(np.asarray(values, dtype=np.float64).tobytes())


def run_digest(result):
    """sha256 of a ``RunResult``'s final level, diagnostics and L1 errors."""
    h = hashlib.sha256()
    for name in LEVEL_FIELDS:
        _update(h, name, getattr(result.state, name))
    # the recorded digests hash each record's fields in name order
    names = sorted(result.diagnostics.dtype.names)
    for row in result.diagnostics:
        _update(h, ",".join(names), [row[k] for k in names])
    errors = result.errors
    _update(h, ",".join(sorted(errors)), [errors[k] for k in sorted(errors)])
    return h.hexdigest()


def compute():
    """The current digest of every run, by name."""
    from stagflame.harness import load_config, run_case

    return {name: run_digest(run_case(load_config(str(CONFIG), overrides)))
            for name, overrides in RUNS.items()}


def _cpu():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def build():
    """What besides the code decides the last bit of a result."""
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": version("scipy"), "machine": platform.machine(),
            "cpu": _cpu()}


def load():
    with open(RECORD, encoding="utf-8") as fh:
        return json.load(fh)


def compare(recorded, current, this_build):
    """Classify ``current`` digests against a ``recorded`` file: returns
    ("match" | "other-build" | "changed", message), the message listing
    every run's recorded -> current digest.  A mismatch counts as a change
    of results only on the build the digests were recorded on."""
    runs = recorded["runs"]
    names = sorted(set(runs) | set(current))
    table = [f"  {name}: {runs.get(name)} -> {current.get(name)}"
             f"{'' if runs.get(name) == current.get(name) else '  CHANGED'}"
             for name in names]
    if all(runs.get(name) == current.get(name) for name in names):
        status, head = "match", "every run matches its recorded digest"
    elif recorded["build"] != this_build:
        status, head = "other-build", (
            f"digests were recorded on {recorded['build']}, this build is "
            f"{this_build}; results may round differently, so a mismatch "
            f"does not show a change of the code")
    else:
        status, head = "changed", (
            "results changed on the recording build; if on purpose, record "
            "them with `python tests/digests.py --write`")
    return status, "\n".join([head] + table)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--write", action="store_true",
                        help="record the current digests and build")
    args = parser.parse_args(argv)
    current = compute()
    recorded = load() if RECORD.exists() else {"build": None, "runs": {}}
    status, message = compare(recorded, current, build())
    print(message)
    if args.write:
        with open(RECORD, "w", encoding="utf-8") as fh:
            json.dump({"build": build(), "runs": current}, fh, indent=2)
            fh.write("\n")
        print(f"wrote {RECORD.name}")
        return 0
    return 0 if status == "match" else 1


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    sys.exit(main())
