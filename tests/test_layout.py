"""Every function, method and class in ``src/stagflame`` has a use there,
every defaulted parameter is passed by some call, every dataclass field is
read, no parameter takes the same literal from every call in
``src/stagflame``, the package loads no more of scipy than its LAPACK
extension, and the per-step code calls reductions as ndarray methods.

Code that only tests call belongs in ``tests/``.  The checks go by name: a
definition counts as used when a name or an attribute spelled like it is
read anywhere in ``src/stagflame`` outside the definition itself (imports
do not count, and dunder methods are skipped); a parameter counts as passed
when a call of a function of that name in ``src/``, ``tests/`` or
``perfbench/`` passes it by keyword or by position; a field counts as read
when ``src/stagflame`` loads an attribute of that name or spells it as a
string, which is how ``getattr`` loops name fields; an ``InitVar`` is a
constructor argument, not a stored field, and is not checked.
"""

import ast
import subprocess
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "stagflame"
CALLERS = (ROOT / "src", ROOT / "tests", ROOT / "perfbench")

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


def _functions(tree):
    """(def node, True for a method) of every function in ``tree``."""
    methods = {id(item) for cls in ast.walk(tree)
               if isinstance(cls, ast.ClassDef) for item in cls.body}
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            static = any(getattr(d, "id", None) == "staticmethod"
                         for d in node.decorator_list)
            yield node, id(node) in methods and not static


def _calls(roots):
    """{name: [call nodes]} of every call in ``roots``, by called name."""
    calls = {}
    for root in roots:
        for path in sorted(Path(root).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Call):
                    func = node.func
                    name = (func.attr if isinstance(func, ast.Attribute)
                            else getattr(func, "id", None))
                    calls.setdefault(name, []).append(node)
    return calls


def unpassed_parameters(src=SRC, callers=CALLERS):
    """{"module.function(param)": line} of every parameter with a default,
    of a function or method in ``src``, that no call in ``callers`` passes:
    by keyword, by position, or through ``*args`` or ``**kwargs``."""
    calls = _calls(callers)
    unpassed = {}
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for func, method in _functions(tree):
            if func.name.startswith("__"):
                continue
            args = func.args
            positional = args.posonlyargs + args.args
            defaulted = [(i, a) for i, a in enumerate(positional)
                         if i >= len(positional) - len(args.defaults)]
            defaulted += [(None, a) for a, d in zip(args.kwonlyargs,
                                                    args.kw_defaults)
                          if d is not None]
            for index, arg in defaulted:
                if not any(_passes(call, index, arg.arg, method)
                           for call in calls.get(func.name, ())):
                    unpassed[f"{path.stem}.{func.name}({arg.arg})"] = arg.lineno
    return unpassed


def _passes(call, index, name, method):
    """Whether ``call`` passes parameter ``name``, at positional ``index``
    (None when keyword-only); a method call's arguments skip ``self``."""
    if any(kw.arg in (None, name) for kw in call.keywords):
        return True
    if index is None:
        return False
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    return len(call.args) > index - method


def test_every_defaulted_parameter_is_passed():
    assert unpassed_parameters() == {}


def unread_fields(src=SRC):
    """{"module.Class.field": line} of every annotated field of a dataclass
    in ``src`` that nothing in ``src`` reads; ``InitVar`` arguments are left
    out, since ``__post_init__`` takes them as parameters."""
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(src.glob("*.py"))}
    reads = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                reads.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                reads.add(node.value)
    unread = {}
    for module, tree in trees.items():
        for cls in ast.walk(tree):
            if not (isinstance(cls, ast.ClassDef)
                    and any(_is_dataclass(d) for d in cls.decorator_list)):
                continue
            for item in cls.body:
                if (isinstance(item, ast.AnnAssign)
                        and isinstance(item.target, ast.Name)
                        and not _is_init_var(item.annotation)
                        and item.target.id not in reads):
                    unread[f"{module}.{cls.name}.{item.target.id}"] = item.lineno
    return unread


def _is_init_var(annotation):
    if isinstance(annotation, ast.Subscript):
        annotation = annotation.value
    return getattr(annotation, "id", getattr(annotation, "attr", None)) == "InitVar"


def _is_dataclass(decorator):
    if isinstance(decorator, ast.Call):
        decorator = decorator.func
    return getattr(decorator, "id", getattr(decorator, "attr", None)) == "dataclass"


def test_every_dataclass_field_is_read_in_src():
    assert unread_fields() == {}


def test_parameter_and_field_guards_see_dead_code(tmp_path):
    src = tmp_path / "src"
    tests = tmp_path / "tests"
    src.mkdir()
    tests.mkdir()
    (src / "mod.py").write_text(
        "from dataclasses import dataclass\n\n"
        "@dataclass(frozen=True)\n"
        "class Box:\n"
        "    kept: int = 0\n"
        "    named: int = 0\n"
        "    dead: int = 0\n\n"
        "    def scaled(self, k=1, *, shift=0):\n"
        "        return self.kept * k + getattr(self, 'named') + shift\n\n"
        "def f(a, b=1, c=2, *, e=4, g=5):\n"
        "    return a + b + c + e + g\n\n"
        "def h(x=0, y=0):\n    return x + y\n\n"
        "def k(x=0, *, y=0):\n    return x + y\n\n"
        "def run(box, xs, opts):\n"
        "    return f(1, e=0) + box.scaled(2) + h(*xs) + k(**opts)\n")
    (tests / "test_mod.py").write_text(
        "def test_f():\n    assert f(0, 0) == 9\n")
    # h and k take every argument through *xs and **opts; a call from the
    # tests counts like one from src
    assert unpassed_parameters(src, (src,)) == {
        "mod.scaled(shift)": 9, "mod.f(b)": 12, "mod.f(c)": 12, "mod.f(g)": 12}
    assert unpassed_parameters(src, (src, tests)) == {
        "mod.scaled(shift)": 9, "mod.f(c)": 12, "mod.f(g)": 12}
    assert unread_fields(src) == {"mod.Box.dead": 7}


def test_field_guard_skips_init_vars_only(tmp_path):
    # ``given`` reaches the class as a constructor argument alone; ``dead``
    # is stored but never read
    (tmp_path / "mod.py").write_text(
        "from dataclasses import InitVar, dataclass, field\n\n"
        "@dataclass\n"
        "class Level:\n"
        "    x: int = 0\n"
        "    given: InitVar[int] = None\n"
        "    twice: int = field(init=False)\n"
        "    dead: int = field(init=False)\n\n"
        "    def __post_init__(self, given):\n"
        "        self.twice = 2 * self.x if given is None else given\n"
        "        self.dead = 0\n\n"
        "    def scaled(self):\n"
        "        return self.twice\n")
    assert unread_fields(tmp_path) == {"mod.Level.dead": 8}


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


# np.max(x) goes through numpy's Python-level reduction wrapper: 3.8 us
# against 1.6 us for x.max() on 250 cells, the same ufunc reduce and so the
# same bits.  The step makes about 25 such reductions, so the per-step code
# calls the methods: these modules whole, and these functions of harness.
_WRAPPED_REDUCTIONS = {"max", "min", "sum", "all", "any"}
_STEP_MODULES = ("hydro", "chemistry", "transport", "errors")
_STEP_FUNCTIONS = {"harness": ("advance", "run_case", "check_state_gates")}


def wrapped_reduction_calls(src=SRC):
    """["module:line np.name"] of every np.max, np.min, np.sum, np.all or
    np.any call in the per-step code, plus "module.name missing" for a
    listed function that is not there."""
    found = []
    for module in _STEP_MODULES + tuple(_STEP_FUNCTIONS):
        tree = ast.parse((src / f"{module}.py").read_text(encoding="utf-8"))
        roots = [tree]
        if module in _STEP_FUNCTIONS:
            defs = {node.name: node for node in tree.body
                    if isinstance(node, ast.FunctionDef)}
            roots = [defs[name] for name in _STEP_FUNCTIONS[module]
                     if name in defs]
            found += [f"{module}.{name} missing"
                      for name in _STEP_FUNCTIONS[module] if name not in defs]
        for root in roots:
            for node in ast.walk(root):
                func = getattr(node, "func", None)
                if (isinstance(node, ast.Call)
                        and isinstance(func, ast.Attribute)
                        and isinstance(func.value, ast.Name)
                        and func.value.id == "np"
                        and func.attr in _WRAPPED_REDUCTIONS):
                    found.append(f"{module}:{node.lineno} np.{func.attr}")
    return found


def test_step_reductions_are_ndarray_methods():
    assert wrapped_reduction_calls() == []


def test_reduction_guard_sees_calls_and_missing_functions(tmp_path):
    for module in _STEP_MODULES:
        (tmp_path / f"{module}.py").write_text("import numpy as np\n")
    (tmp_path / "hydro.py").write_text(
        "import numpy as np\n\ndef norm(r):\n    return np.max(np.abs(r))\n")
    (tmp_path / "harness.py").write_text(
        "import numpy as np\n\n"
        "def advance(x):\n    return bool(np.any(x))\n\n"
        "def run_case(x):\n    return x.sum()\n\n"
        "def l1_error(x):\n    return np.sum(x)\n")
    assert wrapped_reduction_calls(tmp_path) == [
        "hydro:4 np.max", "harness.check_state_gates missing",
        "harness:4 np.any"]


# A parameter that every call in src/ passes, each time as the same literal,
# is a constant spelled at each call site.  Calls from tests do not count: a
# test of a knob does not justify the knob.


def _passed_literal(call, index, name, method):
    """``ast.dump`` of the literal ``call`` passes as parameter ``name`` (at
    positional ``index``, None when keyword-only); None when the call does
    not pass it, passes it through ``*args`` or ``**kwargs``, or passes
    something other than a literal."""
    node = next((kw.value for kw in call.keywords if kw.arg == name), None)
    if node is None and index is not None:
        position = index - method
        head = call.args[:position + 1]
        if (len(call.args) > position
                and not any(isinstance(a, ast.Starred) for a in head)):
            node = call.args[position]
    if node is None:
        return None
    try:
        ast.literal_eval(node)
    except ValueError:
        return None
    return ast.dump(node)


def same_value_parameters(src=SRC):
    """{"module.function(param)": line} of every parameter of a function or
    method in ``src`` that at least one call in ``src`` passes and every
    call in ``src`` passes as the same literal."""
    calls = _calls((src,))
    found = {}
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for func, method in _functions(tree):
            sites = calls.get(func.name, ())
            if func.name.startswith("__") or not sites:
                continue
            args = func.args
            params = list(enumerate(args.posonlyargs + args.args))[method:]
            params += [(None, a) for a in args.kwonlyargs]
            for index, arg in params:
                values = {_passed_literal(call, index, arg.arg, method)
                          for call in sites}
                if len(values) == 1 and None not in values:
                    found[f"{path.stem}.{func.name}({arg.arg})"] = arg.lineno
    return found


def test_no_parameter_takes_one_literal_from_every_caller():
    assert same_value_parameters() == {}


def test_same_value_guard_sees_constant_parameters(tmp_path):
    (tmp_path / "mod.py").write_text(
        "def solve(band, ab, b, scan=True, tol=1e-9):\n"
        "    return ab\n\n"
        "def wrap(x, *, mode='a'):\n"
        "    return x\n\n"
        "def pack(x, *, mode='a'):\n"
        "    return x\n\n"
        "def spread(a, b=0):\n"
        "    return a + b\n\n"
        "class Box:\n"
        "    def scaled(self, k, shift=0):\n"
        "        return k + shift\n\n"
        "def run(ab, b, box, opts, n):\n"
        "    solve((1, 1), ab, b, False)\n"
        "    solve((1, 1), ab, b, scan=False, tol=n)\n"
        "    wrap(ab, mode='a') + wrap(b, mode='a')\n"
        "    pack(ab, mode='a') + pack(b, **opts)\n"
        "    spread(1, 2) + spread(*opts)\n"
        "    return box.scaled(2, shift=n) + box.scaled(2)\n")
    # by position or keyword alike; a name, a call that leaves the parameter
    # out or one that may pass it through *opts or **opts breaks the rule,
    # and self is no parameter a call passes; run has no call at all
    assert same_value_parameters(tmp_path) == {
        "mod.solve(band)": 1, "mod.solve(scan)": 1, "mod.wrap(mode)": 4,
        "mod.scaled(k)": 14}
