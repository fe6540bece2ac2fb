#!/usr/bin/env python3
"""Benchmark of the stagflame solver.

One run measures one workload for about ``--seconds`` seconds:

    python3 perfbench/run.py --workload implicit-250 --seed 1 --seconds 30 --trace 0

Its last line of output is a JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics of ``BENCHMARK.json`` with
``--trace 0``, its per-layer metrics with ``--trace 1``.  The lines before it
give the provenance, sample counts and any failure.  The run exits 1 when a
correctness gate fails and 2 when the solver sources are missing.

``--workload all`` runs every workload once per seed for ``RUNS`` seeds from
``--seed`` on, plus one traced run each, in fresh processes; it prints the
median and quartiles of every end-to-end metric and can write them to
``--out``.
"""

import os

# The benchmark runs the solver in one process on one thread.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ.setdefault(_var, "1")

import argparse
import json
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from datetime import datetime, timezone

import spans
import speed
import workloads as wl

SPEC = wl.ROOT / "BENCHMARK.json"
OUT = wl.HERE / "out"
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 120
RUN_TIMEOUT_S = 900
# A run stops sampling once this many samples failed.
MAX_FAILURES = 3
# Seeds per workload with ``--workload all``.
RUNS = 10
# Share of a traced sample's wall that the layer spans must account for.
MIN_COVERAGE = 0.95

# A fresh interpreter up to a case ready to step: what every user run pays.
SETUP_PROBE = (
    "import sys\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import stagflame.harness as harness\n"
    "setup = harness.initialize_case(harness.load_config(sys.argv[2], sys.argv[3:]))\n"
    "print(setup.n_steps)\n"
)


class Tally:
    """Counts attempted samples and records why any of them failed."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def attempt(self, fn, *args):
        self.attempted += 1
        try:
            return fn(*args)
        except Exception as exc:  # any failure of a sample is a failed run
            traceback.print_exc(file=sys.stderr)
            self.failures.append(f"{type(exc).__name__}: {exc}")
            return None


def setup_probe(workload, expected_steps):
    started = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_PROBE, str(wl.SRC), str(wl.CONFIG),
         *workload.overrides],
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, cwd=wl.ROOT,
    )
    elapsed = time.perf_counter() - started
    if proc.returncode != 0:
        raise wl.GateFailure(
            f"set-up probe exited {proc.returncode}: {proc.stderr.strip()[-400:]}")
    if proc.stdout.split() != [str(expected_steps)]:
        raise wl.GateFailure(
            f"set-up probe gave {proc.stdout.strip()!r} steps, expected {expected_steps}")
    return elapsed


def scaled_sample(harness, config, reference, recorder=None):
    """One sample under the speed monitor: ``(wall, scale, cell steps)``.

    ``wall`` excludes the monitor's own slices; ``wall * scale`` is the time
    at the reference speed.  With a ``recorder`` the sample is traced, and
    the slices are removed from its spans too.
    """
    with speed.Monitor() as monitor:
        if recorder is None:
            spans.assert_unwrapped()
            wall, cell_steps = wl.run_sample(harness, config, reference)
        else:
            with recorder:
                wall, cell_steps = wl.run_sample(harness, config, reference)
    if recorder is not None:
        recorder.remove_pauses(monitor.slices)
    return wall - monitor.paused_s, monitor.scale(), cell_steps


def measure_untraced(harness, workload, config, reference, seconds, rng):
    """Samples of the workload with set-up probes at seed-chosen points."""
    probe_at = sorted(rng.uniform(0.0, seconds) for _ in range(SETUP_PROBES))
    tally = Tally()
    done_samples, setups = [], []
    busy = longest = 0.0
    done = False
    while probe_at or not done:
        if probe_at and (done or probe_at[0] <= busy):
            probe_at.pop(0)
            elapsed = tally.attempt(setup_probe, workload, reference["n_steps"])
            if elapsed is not None:
                setups.append(elapsed)
            continue
        if (longest and busy + longest > seconds) or len(tally.failures) >= MAX_FAILURES:
            done = True
            continue
        started = time.perf_counter()
        sample = tally.attempt(scaled_sample, harness, config, reference)
        took = time.perf_counter() - started
        busy += took
        longest = max(longest, took)
        if sample is not None:
            done_samples.append(sample)
    scaled = [wall * scale for wall, scale, _ in done_samples]
    metrics = {}
    if scaled:
        metrics["wall_s"] = statistics.median(scaled)
        metrics["cell_steps_per_s"] = statistics.median(
            steps / t for t, (_, _, steps) in zip(scaled, done_samples))
        print(f"unscaled wall: median {statistics.median(w for w, _, _ in done_samples)!r} s; "
              f"speed scale: median {statistics.median(s for _, s, _ in done_samples)!r}")
    if setups:
        metrics["setup_s"] = statistics.median(setups)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    samples = {"wall_s": len(scaled), "cell_steps_per_s": len(scaled),
               "setup_s": len(setups), "peak_rss_mb": 1}
    record = {"walls": [w for w, _, _ in done_samples],
              "scales": [s for _, s, _ in done_samples], "setups": setups}
    return tally, metrics, samples, record, []


def traced_sample(harness, config, reference):
    recorder = spans.Recorder()
    wall, scale, _ = scaled_sample(harness, config, reference, recorder)
    metrics, detail = spans.layer_metrics(recorder, wall)
    return wall * scale, metrics, detail, recorder


def measure_traced(harness, workload, config, reference, seconds, rng):
    """Pairs of one untraced and one traced sample, in seed-chosen order."""
    tally = Tally()
    untraced, traced = [], []
    recorder = None
    busy = longest = 0.0
    while not (longest and busy + longest > seconds) and len(tally.failures) < MAX_FAILURES:
        started = time.perf_counter()
        for trace_on in rng.sample((False, True), 2):
            if trace_on:
                result = tally.attempt(traced_sample, harness, config, reference)
                if result is not None:
                    traced.append(result[:3])
                    recorder = result[3]
            else:
                result = tally.attempt(scaled_sample, harness, config, reference)
                if result is not None:
                    untraced.append(result[0] * result[1])
        took = time.perf_counter() - started
        busy += took
        longest = max(longest, took)
    if not traced:
        return tally, {}, {}, {}, []
    layers = [t[1] for t in traced]
    details = [t[2] for t in traced]
    metrics = {k: statistics.median(m[k] for m in layers) for k in layers[0]}
    if untraced:
        metrics["trace.overhead_ratio"] = (
            statistics.median(t[0] for t in traced) / statistics.median(untraced) - 1.0)
    problems = []
    for key in spans.COUNT_METRICS:
        seen = sorted({m[key] for m in layers})
        if len(seen) > 1:
            problems.append(f"{key} differs between traced samples: {seen}")
    if len({json.dumps(d["newton_histogram"]) for d in details}) > 1:
        problems.append("Newton iteration histogram differs between traced samples")
    if not metrics["trace.coverage_ratio"] >= MIN_COVERAGE:
        problems.append(
            f"the layer spans cover {metrics['trace.coverage_ratio']:.3f} of the traced "
            f"wall, below {MIN_COVERAGE}: work moved out of the wrapped callables")
    samples = {k: len(layers) for k in metrics}
    samples["trace.overhead_ratio"] = min(len(traced), len(untraced))
    origin = recorder.spans[0][1] if recorder.spans else 0.0
    record = {
        "untraced_scaled_walls": untraced,
        "traced_scaled_walls": [t[0] for t in traced],
        "newton_histogram": details[-1]["newton_histogram"],
        "absent_spans": details[-1]["absent"],
        "spans_of_last_traced_sample": {
            "columns": ["name", "start_s", "end_s", "parent"],
            "rows": [[name, start - origin, end - origin, parent]
                     for name, start, end, parent, _ in recorder.spans],
        },
    }
    return tally, metrics, samples, record, problems


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit():
    """The checked-out commit, read from ``.git`` without leaving the checkout."""
    git = wl.ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(args, loadavg):
    import numpy
    import scipy

    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "commit": git_commit(),
        "started_utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "cpu": cpu_model(), "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "loadavg_at_start": list(loadavg),
    }


def run_one(args, spec):
    loadavg = os.getloadavg()
    sys.path.insert(0, str(wl.SRC))
    import stagflame.harness as harness

    info = provenance(args, loadavg)
    print("provenance: " + json.dumps(info, sort_keys=True), flush=True)
    workload = wl.WORKLOADS[args.workload]
    reference = wl.load_reference()[workload.name]
    config = workload.config(harness)
    rng = random.Random(args.seed)
    measure = measure_traced if args.trace else measure_untraced
    declared = spec["per_layer" if args.trace else "end_to_end"]
    setup = Tally()
    setup.attempt(wl.warm_up, harness, workload)
    if setup.failures:
        tally, metrics, samples, record, problems = Tally(), {}, {}, {}, []
    else:
        tally, metrics, samples, record, problems = measure(
            harness, workload, config, reference, args.seconds, rng)
    failures = setup.failures + tally.failures
    out = {}
    for m in declared:
        if m["name"] not in metrics:
            problems.append(f"metric {m['name']} was not measured")
            continue
        out[m["name"]] = {"value": metrics[m["name"]], "unit": m["unit"]}
        print(f"{m['name']} = {metrics[m['name']]!r} {m['unit']} "
              f"({samples[m['name']]} samples)")
    for message in failures + problems:
        print(f"FAILED: {message}")
    result = {
        "correct": not failures and not problems,
        "attempted": setup.attempted + tally.attempted,
        "failed": len(failures),
        "metrics": out,
    }
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"provenance": info, "result": result, "samples": samples,
                   "failures": failures, "problems": problems, "record": record}, fh)
    print(f"record: {path.relative_to(wl.ROOT)}")
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


def _child(args, name, seed, trace):
    """Run one workload in a fresh process; returns its result and record."""
    cmd = [sys.executable, str(wl.HERE / "run.py"), "--workload", name,
           "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
    if proc.returncode != 0:
        result["correct"] = False
        print(proc.stdout + proc.stderr, file=sys.stderr)
    path = OUT / f"{name}-seed{seed}-trace{trace}.json"
    record = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    return result, record


def run_all(args, spec):
    """Every workload over ``RUNS`` seeds, then one traced run each."""
    seeds = range(args.seed, args.seed + RUNS)
    names = [w["name"] for w in spec["workloads"]]
    runs = {name: [] for name in names}
    for seed in seeds:
        for name in names:
            runs[name].append(_child(args, name, seed, 0))
            print(f"{name} seed {seed}: {json.dumps(runs[name][-1][0])}", flush=True)
    summary = {"seeds": list(seeds), "seconds": args.seconds, "commit": git_commit(),
               "workloads": {}}
    ok = True
    print(f"\n{'workload':<18}{'metric':<20}{'unit':<7}{'median':>13}{'q1':>13}"
          f"{'q3':>13}{'spread':>8}{'runs':>6}{'samples':>9}")
    for name in names:
        entry = {"end_to_end": {}, "attempted": 0, "failed": 0}
        for result, _ in runs[name]:
            ok &= result["correct"]
            entry["attempted"] += result["attempted"]
            entry["failed"] += result["failed"]
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r, _ in runs[name]
                      if m["name"] in r["metrics"]]
            count = sum(rec.get("samples", {}).get(m["name"], 0) for _, rec in runs[name])
            if len(values) < 2:
                ok = False
                continue
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            entry["end_to_end"][m["name"]] = {
                "unit": m["unit"], "median": med, "q1": q1, "q3": q3,
                "spread": spread, "bound": m["bound"], "runs": len(values),
                "samples": count, "values": values,
            }
            print(f"{name:<18}{m['name']:<20}{m['unit']:<7}{med:>13.6g}{q1:>13.6g}"
                  f"{q3:>13.6g}{spread:>8.3f}{len(values):>6}{count:>9}")
        entry["unscaled_wall_s_per_run"] = [
            statistics.median(rec["record"]["walls"]) for _, rec in runs[name]
            if rec.get("record", {}).get("walls")]
        traced, record = _child(args, name, args.seed, 1)
        summary.setdefault("provenance", record.get("provenance"))
        ok &= traced["correct"]
        entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        summary["workloads"][name] = entry
    print("\nattempted/failed: " + ", ".join(
        f"{n} {e['attempted']}/{e['failed']}" for n, e in summary["workloads"].items()))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(wl.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="summary JSON path with --workload all")
    args = parser.parse_args(argv)
    missing = [p for p in (wl.SRC / "stagflame" / "harness.py", wl.CONFIG, SPEC)
               if not p.is_file()]
    if missing:
        print("missing: " + ", ".join(str(p) for p in missing), file=sys.stderr)
        return 2
    with open(SPEC, encoding="utf-8") as fh:
        spec = json.load(fh)
    if args.workload == "all":
        return run_all(args, spec)
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
