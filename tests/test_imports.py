"""Every import in src/ and tests/ is used, every function parameter in
src/wavecrit is read, every module-level function or class of
src/wavecrit, and every method of its classes, is read by the package or
the benchmark, and every defaulted parameter of src/wavecrit is passed by
some call of the package or the benchmark.

A name bound by an import counts as used if the module reads it anywhere,
as a name or as the root of an attribute chain; a parameter counts as read
if its function's body (nested functions included) names it.  A top-level
definition counts as read if some module of src/wavecrit or perfbench/
names it, as a name or as an attribute; a property counts as read if one
of them names it as an attribute, a plain method only if one of them
calls it as one (x.name(...)), so that an attribute of another class
with the same name does not count, and dunder methods, which Python calls
implicitly, always do.  A call passes a defaulted parameter if it names
it as a keyword, or reaches its position, under the function's name (a
class's for __init__, a method's as an attribute).  The test oracles kept
in the package on purpose, and main for its argv, are the only exceptions.
Only the standard library's ast module is needed.

Importing the CLI, in a fresh interpreter, leaves scipy.optimize out.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(p for d in ("src", "tests") for p in (ROOT / d).rglob("*.py"))
PACKAGE = sorted((ROOT / "src" / "wavecrit").rglob("*.py"))
READERS = PACKAGE + sorted((ROOT / "perfbench").rglob("*.py"))
#: package names that only the tests read: oracles kept on purpose
ORACLES = ("build_matrix", "limit_amplitudes_DY", "second_harmonic_rate", "trace_density",
           "wall_trace_check", "quadratic_Q", "skew_energy", "grad_Wapp_Linf",
           "PeriodicBox",
           # the paper's two-lobe envelope A(k, m); assemble_W0 samples its
           # plus lobe in the quadrature variables directly
           "Envelope.amplitude",
           # the DNS divergence check; the planned div_residual column of
           # dns_series.csv (ROADMAP item 4) is to be its first reader
           "Solver.div_residual",
           # x-space oracles of the DNS's W_app columns (dns.WappNodes.place)
           # and of its Parseval sums; perfbench/spans.py still traces
           # evaluate_packet by name until it is re-pointed (ROADMAP item 14(b))
           "evaluate_packet", "Grid.integral",
           # the dissipation oracle of the Parseval sums; perfbench/spans.py
           # still traces it by name until it is re-pointed (ROADMAP item 14(b))
           "Solver.dissipation",
           # the group velocity: critical_carrier's incidence holds for every
           # k0 > 0 in closed form, which test_carrier_is_incident checks with it
           "group_velocity")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    bound = {}  # name -> line of the import that binds it
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                bound[a.asname or a.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                bound[a.asname or a.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"{name} (line {line})" for name, line in sorted(bound.items())
            if name not in used]


def test_checker_sees_unused_and_used_names():
    src = "import os\nimport numpy as np\nfrom a.b import c, d\nnp.x(c)\n"
    assert unused_imports(src) == ["d (line 3)", "os (line 1)"]


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def unused_params(source: str) -> list[str]:
    """Parameters (self and cls aside) that their function never reads."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        args = node.args
        params = [a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs,
                                  args.vararg, args.kwarg) if a is not None]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {n.id for stmt in body for n in ast.walk(stmt) if isinstance(n, ast.Name)}
        name = getattr(node, "name", "<lambda>")
        out += [f"{name}({p}) (line {node.lineno})" for p in params
                if p not in read and p not in ("self", "cls")]
    return out


def test_param_checker_sees_unread_and_read_params():
    src = ("def f(a, b, *c, d=1, **e):\n    return a + d(c)\n"
           "class K:\n    def m(self, x):\n        def g():\n            return x\n")
    assert unused_params(src) == ["f(b) (line 1)", "f(e) (line 1)"]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unread_params(path):
    assert unused_params(path.read_text(encoding="utf-8")) == []


def read_names(sources) -> set[str]:
    """Every name the sources read, as a name or as an attribute."""
    return {n.id if isinstance(n, ast.Name) else n.attr
            for source in sources for n in ast.walk(ast.parse(source))
            if isinstance(n, (ast.Name, ast.Attribute))}


def called_methods(sources) -> set[str]:
    """Every attribute name the sources call, as x.name(...)."""
    return {n.func.attr for source in sources for n in ast.walk(ast.parse(source))
            if isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)}


def _is_property(node) -> bool:
    """Whether a method is a property, read on access rather than called."""
    return any(isinstance(d, ast.Name) and d.id in ("property", "cached_property")
               for d in node.decorator_list)


def unread_definitions(source: str, read: set[str], called: set[str]) -> list[str]:
    """Module-level functions and classes not in read, and methods other
    than dunders (named Class.method) not in called, or for a property not
    in read, of the source."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    out = []
    for node in ast.parse(source).body:
        if not isinstance(node, defs):
            continue
        if node.name not in read:
            out.append(f"{node.name} (line {node.lineno})")
        if isinstance(node, ast.ClassDef):
            out += [f"{node.name}.{m.name} (line {m.lineno})" for m in node.body
                    if isinstance(m, defs)
                    and m.name not in (read if _is_property(m) else called)
                    and not (m.name.startswith("__") and m.name.endswith("__"))]
    return out


def test_definition_checker_sees_unread_and_read_names():
    """L.total shares its name with an attribute that is read but never
    called (a dataclass field of another class): it is not read."""
    src = ("def f():\n    return g()\ndef g():\n    pass\nclass K:\n    pass\n"
           "class L:\n    def __len__(self):\n        return 0\n"
           "    def used(self):\n        pass\n    def unused(self):\n        pass\n"
           "    def total(self):\n        pass\n"
           "    @property\n    def size(self):\n        return 0\n")
    readers = [src, "import m\nm.K\nm.L().used()\nm.L().size\nm.Record().total\n"]
    assert unread_definitions(src, read_names(readers), called_methods(readers)) == [
        "f (line 1)", "L.unused (line 12)", "L.total (line 14)"]


def test_no_test_only_package_names():
    sources = [p.read_text(encoding="utf-8") for p in READERS]
    read, called = read_names(sources), called_methods(sources)
    unread = {str(p.relative_to(ROOT)): [
        d for d in unread_definitions(p.read_text(encoding="utf-8"), read, called)
        if d.split()[0] not in ORACLES] for p in PACKAGE}
    assert {path: names for path, names in unread.items() if names} == {}


def defaulted_params(source: str) -> list[tuple[str, str, str, int | None]]:
    """(call name, Class.function or function, parameter, position at a call)
    of every parameter with a default; a method's position skips self or
    cls, a keyword-only parameter has none, and __init__ is called by its
    class's name."""
    out = []

    def visit(body, cls):
        for node in body:
            if isinstance(node, ast.ClassDef):
                visit(node.body, node.name)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a = node.args
                positional = [p.arg for p in (*a.posonlyargs, *a.args)]
                bound = cls is not None and not any(
                    isinstance(d, ast.Name) and d.id == "staticmethod"
                    for d in node.decorator_list)
                called = cls if node.name == "__init__" else node.name
                name = f"{cls}.{node.name}" if cls else node.name
                for i in range(len(positional) - len(a.defaults), len(positional)):
                    out.append((called, name, positional[i], i - bound))
                out.extend((called, name, p.arg, None)
                           for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None)
                visit(node.body, None)

    visit(ast.parse(source).body, None)
    return out


def passed_params(sources) -> set[tuple[str, str | int]]:
    """(call name, keyword or position) that some call of the sources passes;
    the call name is a plain name or an attribute's.  A call with *args is
    recorded as position "*" and one with **kwargs as keyword "**": either
    may pass any parameter of its kind."""
    out = set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if not isinstance(node, ast.Call):
                continue
            f = node.func
            name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
            for i, arg in enumerate(node.args):
                out.add((name, "*" if isinstance(arg, ast.Starred) else i))
            out |= {(name, k.arg or "**") for k in node.keywords}
    return out


def unpassed_defaults(source: str, passed: set) -> list[str]:
    """Defaulted parameters of the source's functions that no call passes."""
    out = []
    for called, name, param, pos in defaulted_params(source):
        if name.split(".")[0] in ORACLES or name in ORACLES or name == "main":
            continue
        ways = {(called, param), (called, "**")}
        if pos is not None:
            ways |= {(called, pos), (called, "*")}
        if not ways & passed:
            out.append(f"{name}({param})")
    return out


def test_default_checker_sees_passed_and_unpassed():
    src = ("def f(a, b=1, *, c=2, d=3):\n    pass\n"
           "class K:\n    def __init__(self, x=0):\n        pass\n"
           "    def m(self, y=0, z=1):\n        pass\n"
           "def g(e=0):\n    pass\n")
    calls = "f(1, 2, d=4)\nK()\nk.m(5)\ng(*args)\n"
    assert unpassed_defaults(src, passed_params([src, calls])) == [
        "f(c)", "K.__init__(x)", "K.m(z)"]


def test_every_default_is_passed():
    """A defaulted parameter is a knob: some call of the package or the
    benchmark sets it, or it goes (the test oracles and main aside)."""
    passed = passed_params(p.read_text(encoding="utf-8") for p in READERS)
    unpassed = {str(p.relative_to(ROOT)): unpassed_defaults(p.read_text(encoding="utf-8"),
                                                            passed) for p in PACKAGE}
    assert {path: names for path, names in unpassed.items() if names} == {}


def test_cli_import_leaves_out_scipy_optimize():
    """Importing the CLI loads numpy, scipy.linalg and scipy.sparse, not
    scipy.optimize (about 0.25 s and 19 MB of start-up)."""
    code = "import sys, wavecrit.cli; print('scipy.optimize' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "False"
