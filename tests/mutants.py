"""Mutation scan of ``src/stagflame``: the conditions tier-1 does not tell
apart.

Each mutant changes one condition of one module:

- the test of an ``if``, ``while`` or conditional expression forced to
  ``False``, then to ``True``;
- one comparison flipped: ``<`` and ``<=``, ``>`` and ``>=``, ``==`` and
  ``!=``, one operator of a chain at a time;
- ``and`` and ``or`` swapped;
- a ``not`` dropped.

Conditions inside f-strings are left alone.  Every mutant runs the tier-1
tests with ``-x`` in a copy of the tree (the tree itself is never written),
the mutated module's own test file first.  A mutant that fails a test, or
that runs past the time limit (a hang), is killed; one that passes every
test survives.  Survivors are printed with their file, line and mutation,
those listed in ``EQUIVALENT`` apart, with the reason no test can tell them
from the code.  Each killed mutant's line names the test that killed it,
so a kill by a flaky test shows.  A mutant may run three times as long as
the unmutated tier-1 run, and at least 60 s.  Some acceptance criteria time
themselves (1 s budgets), and a loaded machine can fail them: run nothing
else beside the scan.  Run it by hand, not in tier-1; a full scan takes
about 30 minutes on a two-core machine:

    python tests/mutants.py

The exit code is 1 when a survivor is not listed as equivalent, else 0.
"""

import ast
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "stagflame"

# Survivors that no test can kill: (module, replaced source, replacement)
# -> why the mutant behaves as the code does.
EQUIVALENT = {
    ("harness.py", "lo < value < hi", "lo < value <= hi"):
        "every range with a finite upper bound is closed, so its bound is "
        "admitted either way, and an open range's bound is inf, which the "
        "finiteness test has already refused",
    ("harness.py", "err > 1e-10", "err >= 1e-10"):
        "near 1 a sum of doubles minus 1 is exact and a multiple of 2**-53, "
        "which the double 1e-10 is not, and a sum far from 1 errs far past "
        "it",
    ("harness.py", "e > 0", "e >= 0"):
        "errors are L1 norms, never negative, and at an error of 0 the log "
        "is -inf, so the fit reads NaN either way",
    ("transport.py", 'scheme != "antidiffusive"', "False"):
        "upwind and MUSCL stencils then also build the anti-diffusive "
        "zeta, which only the anti-diffusive face values read",
    ("linalg.py", "_scipy is None", "False"):
        "scipy is installed wherever the tests run; without it the "
        "mutant fails at the next line instead of naming the package",
    ("cli.py", '__name__ == "__main__"', "False"):
        "the tests call main() and never run the module as a script",
    ("hydro.py", "alpha > 1e-6", "alpha >= 1e-06"):
        "the line step's alpha is always a power of two, which the double "
        "1e-6 is not",
    ("oracle.py", "f_lo < 0.0", "f_lo <= 0.0"):
        "_bisect returns an end or midpoint where f is exactly zero before "
        "any sign test, so no value a sign test reads is 0",
    ("oracle.py", "f_hi < 0.0", "f_hi <= 0.0"):
        "_bisect returns an end or midpoint where f is exactly zero before "
        "any sign test, so no value a sign test reads is 0",
    ("oracle.py", "f_mid < 0.0", "f_mid <= 0.0"):
        "_bisect returns an end or midpoint where f is exactly zero before "
        "any sign test, so no value a sign test reads is 0",
    ("linalg.py", "c >= 0.0", "c > 0.0"):
        "the band differs only at a face with c = +0 or -0, and there only "
        "in the sign of a zero off-diagonal entry; the four runs of "
        "tests/digests.py, which hash the bytes of every final array, match "
        "under the mutant",
}

_FLIPS = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
          ast.Eq: ast.NotEq, ast.NotEq: ast.Eq}
_COPY_IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis",
                                      ".pytest_cache", "out", "results")


def _mutations(node):
    """The mutants of one AST node: pairs of the node a mutant replaces and
    the expression it puts in its place."""
    if isinstance(node, (ast.If, ast.While, ast.IfExp)):
        yield node.test, "False"
        yield node.test, "True"
    elif isinstance(node, ast.Compare):
        for i, op in enumerate(node.ops):
            flip = _FLIPS.get(type(op))
            if flip is not None:
                ops = node.ops[:i] + [flip()] + node.ops[i + 1:]
                yield node, ast.unparse(ast.Compare(node.left, ops,
                                                    node.comparators))
    elif isinstance(node, ast.BoolOp):
        swap = ast.Or if isinstance(node.op, ast.And) else ast.And
        yield node, ast.unparse(ast.BoolOp(swap(), node.values))
    elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
        yield node, ast.unparse(node.operand)


def module_mutants(path):
    """Every mutant of one source file, in source order: dicts with the
    ``module``, ``line``, ``source`` (the replaced expression as written),
    ``mutation`` (what replaces it) and the mutated file ``text``."""
    data = path.read_bytes()
    tree = ast.parse(data)
    starts = [0]
    for line in data.splitlines(keepends=True):
        starts.append(starts[-1] + len(line))
    in_fstring = {id(n) for f in ast.walk(tree) if isinstance(f, ast.JoinedStr)
                  for n in ast.walk(f)}
    found = []
    for node in ast.walk(tree):
        if id(node) in in_fstring:
            continue
        for target, replacement in _mutations(node):
            if replacement == ast.unparse(target):  # `while True` forced true
                continue
            # ast offsets count UTF-8 bytes
            a = starts[target.lineno - 1] + target.col_offset
            b = starts[target.end_lineno - 1] + target.end_col_offset
            text = data[:a] + f"({replacement})".encode() + data[b:]
            compile(text, str(path), "exec")
            found.append((a, {
                "module": path.name, "line": target.lineno,
                "source": " ".join(data[a:b].decode().split()),
                "mutation": replacement, "text": text,
            }))
    return [m for _, m in sorted(found, key=lambda item: item[0])]


def _describe(m):
    return f"{m['module']}:{m['line']}: {m['source']}  ->  {m['mutation']}"


def tier1(tree, first, timeout):
    """Run tier-1 with ``-x`` in ``tree``, the test file ``first`` first.
    Returns the outcome, "passed", "failed" or "hang", and the test that
    failed, or ""."""
    files = sorted(p.name for p in (tree / "tests").glob("test_*.py"))
    if first in files:
        files.remove(first)
        files.insert(0, first)
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-rfE", "-p",
           "no:cacheprovider", *(f"tests/{name}" for name in files)]
    env = {**os.environ, "PYTHONPATH": str(tree / "src"),
           "PYTHONDONTWRITEBYTECODE": "1"}
    try:
        proc = subprocess.run(cmd, cwd=tree, env=env, timeout=timeout,
                              stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
    except subprocess.TimeoutExpired:
        return "hang", ""
    if proc.returncode == 0:
        return "passed", ""
    # the short summary names the failed test: "FAILED <id> - <message>"
    failed = [line.split(" ", 1)[1].split(" - ", 1)[0]
              for line in proc.stdout.splitlines()
              if line.startswith(("FAILED ", "ERROR "))]
    return "failed", failed[0] if failed else f"exit {proc.returncode}"


def scan(tree, mutants, timeout):
    """Run every mutant in turn in ``tree``, a copy of the repository, and
    restore the module after each; returns the outcome of each mutant."""
    outcomes = []
    for i, m in enumerate(mutants, 1):
        target = tree / "src" / "stagflame" / m["module"]
        original = target.read_bytes()
        target.write_bytes(m["text"])
        try:
            outcome, killer = tier1(tree, f"test_{m['module']}", timeout)
        finally:
            target.write_bytes(original)
        outcomes.append(outcome)
        print(f"[{i}/{len(mutants)}] {outcome:6} {_describe(m)}  "
              f"{killer}".rstrip(), flush=True)
    return outcomes


def main():
    mutants = [m for p in sorted(SRC.glob("*.py")) for m in module_mutants(p)]
    with tempfile.TemporaryDirectory(prefix="stagflame-mutants-") as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(ROOT, tree, ignore=_COPY_IGNORE)
        started = time.perf_counter()
        outcome, killer = tier1(tree, "", None)
        if outcome != "passed":
            sys.exit(f"tier-1 fails on the unmutated tree ({killer}); "
                     f"nothing to scan")
        baseline = time.perf_counter() - started
        timeout = max(60.0, 3.0 * baseline)
        print(f"{len(mutants)} mutants; the unmutated tier-1 run took "
              f"{baseline:.0f} s, so a mutant may run {timeout:.0f} s",
              flush=True)
        outcomes = scan(tree, mutants, timeout)
    survivors = [m for m, o in zip(mutants, outcomes) if o == "passed"]
    equivalent = [m for m in survivors
                  if (m["module"], m["source"], m["mutation"]) in EQUIVALENT]
    open_ = [m for m in survivors if m not in equivalent]
    print(f"\n{len(mutants)} mutants: {outcomes.count('failed')} killed by "
          f"a test, {outcomes.count('hang')} by the time limit, "
          f"{len(survivors)} survived ({len(equivalent)} equivalent)")
    for m in equivalent:
        reason = EQUIVALENT[(m["module"], m["source"], m["mutation"])]
        print(f"  equivalent {_describe(m)}\n    ({reason})")
    for m in open_:
        print(f"  SURVIVED {_describe(m)}")
    return 1 if open_ else 0


if __name__ == "__main__":
    sys.exit(main())
