"""Every function, method and class in ``src/stagflame`` has a use there,
and the package loads no more of scipy than its LAPACK extension.

Code that only tests call belongs in ``tests/``.  The check is by name: a
definition counts as used when a name or an attribute spelled like it is
read anywhere in ``src/stagflame`` outside the definition itself.  Imports
do not count, and dunder methods are skipped.
"""

import ast
import subprocess
import sys
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "stagflame"

# No caller in src/ yet: ROADMAP item 3 (the per-cell total-energy balance)
# gives them one.
EXEMPT = {"hydro.cell_kinetic_energy", "hydro.internal_energy_residual"}

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _reads(node):
    """Names and attribute names read anywhere below ``node``."""
    out = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            out[sub.id] += 1
        elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            out[sub.attr] += 1
    return out


def unused_definitions(src=SRC):
    """{"module.name": line} of every definition without a use."""
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(src.glob("*.py"))}
    reads = sum((_reads(tree) for tree in trees.values()), Counter())
    unused = {}
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if not isinstance(node, _DEFS):
                continue
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            if reads[name] == _reads(node)[name]:
                unused[f"{module}.{name}"] = node.lineno
    return unused


def test_every_definition_is_used_in_src():
    unused = unused_definitions()
    assert {k: v for k, v in unused.items() if k not in EXEMPT} == {}
    # an exemption whose name is gone or has found a caller must be dropped
    assert EXEMPT <= set(unused)


# Prints every scipy module a fresh interpreter has loaded once the
# command-line entry point is imported.
_IMPORT_PROBE = (
    "import sys\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import stagflame.cli\n"
    "print(*sorted(name for name in sys.modules\n"
    "              if name == 'scipy' or name.startswith('scipy.')))\n"
)


def test_only_the_lapack_extension_of_scipy_is_imported():
    # scipy serves LAPACK gtsv alone, loaded from its extension module: the
    # package init of scipy and scipy.linalg would add about 0.35 s to every
    # cold start, and scipy.optimize about 0.3 s more, so the oracle carries
    # its own port of brentq
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, str(SRC.parent)],
                          capture_output=True, text=True, check=True)
    assert proc.stdout.split() == ["scipy.linalg._flapack"]
