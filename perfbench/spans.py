"""In-memory span recorder for the traced benchmark run.

The traced run replaces public callables of the solver with wrappers at the
module attribute where their caller looks them up (``run_case`` calls
``advance`` through ``stagflame.harness``, ``correction_solve`` calls
``solve_banded`` through ``stagflame.hydro``), records one span per call and
puts the originals back afterwards.  Nothing inside ``src/`` knows about it.
"""

import bisect
import importlib
import itertools
import statistics
import time
from collections import Counter

# (module, attribute the caller looks up, span name).  The span name's prefix
# is the layer the time is charged to.
TARGETS = (
    ("stagflame.harness", "run_case", "harness.run_case"),
    ("stagflame.harness", "initialize_case", "harness.initialize_case"),
    ("stagflame.harness", "advance", "harness.advance"),
    ("stagflame.harness", "check_state_gates", "harness.check_state_gates"),
    ("stagflame.harness", "total_energy", "harness.total_energy"),
    ("stagflame.harness", "l1_error", "harness.l1_error"),
    ("stagflame.harness", "solve_deflagration_riemann", "oracle.riemann"),
    ("stagflame.harness", "exact_cell_averages", "oracle.cell_averages"),
    ("stagflame.harness", "exact_dual_averages", "oracle.dual_averages"),
    ("stagflame.harness", "chemistry_step", "chemistry.chemistry_step"),
    ("stagflame.chemistry", "solve_banded", "chemistry.solve_banded"),
    ("stagflame.chemistry", "face_values", "transport.face_values"),
    ("stagflame.harness", "euler_step", "hydro.euler_step"),
    ("stagflame.hydro", "predict_velocity", "hydro.predict_velocity"),
    ("stagflame.hydro", "correction_solve", "hydro.correction_solve"),
    ("stagflame.hydro", "solve_banded", "hydro.solve_banded"),
)


def _band_bytes(args, kwargs, result):
    ab = args[1] if len(args) > 1 else kwargs["ab"]
    return int(ab.nbytes)


def _newton(args, kwargs, result):
    return (int(result.iterations), bool(result.used_fallback))


# What a span keeps from its call besides the times.
ATTRIBUTES = {
    "hydro.solve_banded": _band_bytes,
    "chemistry.solve_banded": _band_bytes,
    "hydro.correction_solve": _newton,
}

# Metrics that count work; two traced runs of one workload must agree on them.
COUNT_METRICS = (
    "hydro.banded_solves", "hydro.banded_bytes", "hydro.newton_iters_per_step",
    "hydro.newton_iters_max", "hydro.fallback_steps", "chemistry.banded_solves",
    "chemistry.banded_bytes", "transport.face_values_calls", "harness.steps",
)


class Recorder:
    """Spans of one traced sample: ``[name, start, end, parent, attribute]``.

    ``parent`` is the index of the enclosing span, -1 at top level.
    """

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans = []
        self.absent = []
        self._stack = []

    def wrap(self, name, fn):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        attribute = ATTRIBUTES.get(name)

        def wrapper(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
                if attribute is not None:
                    span[4] = attribute(args, kwargs, result)
                return result
            finally:
                span[2] = clock()
                stack.pop()

        wrapper.__wrapped__ = fn
        wrapper.perfbench_span = name
        return wrapper

    def remove_pauses(self, pauses):
        """Shift span times so that the ``(start, end)`` pauses take no time.

        A pause runs in a signal handler between two clock readings of the
        spans, so it never straddles a span boundary.
        """
        ends = [end for _, end in pauses]
        before = list(itertools.accumulate((end - start for start, end in pauses),
                                           initial=0.0))
        for span in self.spans:
            for i in (1, 2):
                span[i] -= before[bisect.bisect_right(ends, span[i])]

    def __enter__(self):
        self._originals = []
        self.absent = []
        for module_name, attr, name in self.targets:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                # renamed or removed by a later change: report, do not crash
                self.absent.append(name)
                continue
            self._originals.append((module, attr, original))
            setattr(module, attr, self.wrap(name, original))
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._originals):
            setattr(module, attr, original)
        for module, attr, original in self._originals:
            if getattr(module, attr) is not original:
                raise RuntimeError(f"{module.__name__}.{attr} was not restored")
        return False


def assert_unwrapped(targets=TARGETS):
    """Raise if any traced callable is still a wrapper (untraced samples)."""
    for module_name, attr, _ in targets:
        fn = getattr(importlib.import_module(module_name), attr, None)
        if hasattr(fn, "perfbench_span"):
            raise RuntimeError(f"{module_name}.{attr} is still wrapped")


def self_times(spans):
    """Each span's duration minus the durations of its direct children."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def covered_time(spans, own):
    """Self time of every span below the top level.

    A top-level span (``run_case``) has as self time all the work its wrapped
    callees do not account for, so it is left out: work moved out of the
    wrapped callables lowers the coverage instead of hiding in it.
    """
    return sum(s for span, s in zip(spans, own) if span[3] >= 0)


def layer_metrics(recorder, wall):
    """Per-layer metrics of one traced sample whose call took ``wall`` s."""
    spans = recorder.spans
    own = self_times(spans)
    total = Counter()
    self_s = Counter()
    calls = Counter()
    attrs = {}
    for span, s in zip(spans, own):
        name, start, end, _, attr = span
        total[name] += end - start
        self_s[name] += s
        calls[name] += 1
        attrs.setdefault(name, []).append(attr)
    newton = attrs.get("hydro.correction_solve", [])
    iters = [it for it, _ in newton]
    advance_ms = [
        1e3 * (end - start) for name, start, end, _, _ in spans
        if name == "harness.advance"
    ]
    p50, p90 = _p50_p90(advance_ms)
    metrics = {
        "hydro.banded_solve_s": total["hydro.solve_banded"],
        "hydro.banded_solves": calls["hydro.solve_banded"],
        "hydro.banded_bytes": sum(attrs.get("hydro.solve_banded", [])),
        "hydro.correction_s": total["hydro.correction_solve"],
        "hydro.correction_self_s": self_s["hydro.correction_solve"],
        "hydro.newton_iters_per_step": sum(iters) / len(iters) if iters else 0.0,
        "hydro.newton_iters_max": max(iters, default=0),
        "hydro.fallback_steps": sum(fb for _, fb in newton),
        "hydro.predict_s": total["hydro.predict_velocity"],
        "hydro.euler_step_s": self_s["hydro.euler_step"],
        "chemistry.step_s": total["chemistry.chemistry_step"],
        "chemistry.self_s": self_s["chemistry.chemistry_step"],
        "chemistry.banded_solve_s": total["chemistry.solve_banded"],
        "chemistry.banded_solves": calls["chemistry.solve_banded"],
        "chemistry.banded_bytes": sum(attrs.get("chemistry.solve_banded", [])),
        "transport.face_values_s": total["transport.face_values"],
        "transport.face_values_calls": calls["transport.face_values"],
        "harness.advance_ms_p50": p50,
        "harness.advance_ms_p90": p90,
        "harness.advance_self_s": self_s["harness.advance"],
        "harness.loop_self_s": self_s["harness.run_case"],
        "harness.steps": calls["harness.advance"],
        "harness.gates_s": total["harness.check_state_gates"],
        "harness.energy_audit_s": total["harness.total_energy"],
        "harness.initialize_s": total["harness.initialize_case"],
        "harness.l1_error_s": total["harness.l1_error"],
        "oracle.riemann_s": total["oracle.riemann"],
        "oracle.averages_s": total["oracle.cell_averages"] + total["oracle.dual_averages"],
        "trace.coverage_ratio": covered_time(spans, own) / wall,
        "trace.absent_spans": len(recorder.absent),
    }
    detail = {
        "newton_histogram": {str(k): v for k, v in sorted(Counter(iters).items())},
        "absent": list(recorder.absent),
    }
    return metrics, detail


def _p50_p90(values):
    if len(values) < 2:
        return (values[0], values[0]) if values else (0.0, 0.0)
    deciles = statistics.quantiles(values, n=10)
    return statistics.median(values), deciles[8]
