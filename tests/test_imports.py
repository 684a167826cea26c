"""Every import in src/ and tests/ is used, every function parameter in
src/wavecrit is read, and every module-level function or class of
src/wavecrit, and every method of its classes, is read by the package or
the benchmark.

A name bound by an import counts as used if the module reads it anywhere,
as a name or as the root of an attribute chain; a parameter counts as read
if its function's body (nested functions included) names it.  A top-level
definition counts as read if some module of src/wavecrit or perfbench/
names it, as a name or as an attribute; a method counts as read if one of
them names it as an attribute, and dunder methods, which Python calls
implicitly, always do.  The test oracles kept in the package on purpose
are the only exceptions.  Only the standard library's ast module is
needed.
"""

import ast
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
           "Solver.div_residual")


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


def unread_definitions(source: str, read: set[str]) -> list[str]:
    """Module-level functions and classes, and methods other than dunders
    (named Class.method), of the source that are not in read."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    out = []
    for node in ast.parse(source).body:
        if not isinstance(node, defs):
            continue
        if node.name not in read:
            out.append(f"{node.name} (line {node.lineno})")
        if isinstance(node, ast.ClassDef):
            out += [f"{node.name}.{m.name} (line {m.lineno})" for m in node.body
                    if isinstance(m, defs) and m.name not in read
                    and not (m.name.startswith("__") and m.name.endswith("__"))]
    return out


def test_definition_checker_sees_unread_and_read_names():
    src = ("def f():\n    return g()\ndef g():\n    pass\nclass K:\n    pass\n"
           "class L:\n    def __len__(self):\n        return 0\n"
           "    def used(self):\n        pass\n    def unused(self):\n        pass\n")
    read = read_names([src, "import m\nm.K\nm.L().used()\n"])
    assert unread_definitions(src, read) == ["f (line 1)", "L.unused (line 12)"]


def test_no_test_only_package_names():
    read = read_names(p.read_text(encoding="utf-8") for p in READERS)
    unread = {str(p.relative_to(ROOT)): [
        d for d in unread_definitions(p.read_text(encoding="utf-8"), read)
        if d.split()[0] not in ORACLES] for p in PACKAGE}
    assert {path: names for path, names in unread.items() if names} == {}
