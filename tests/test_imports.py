"""Static checks on the package's source: every module-level import is
used, every import names the standard library, numpy or the package, every
function and method is referenced by the package itself, every parameter
with a default is passed by some call, every name the benchmark's tracer
(perfbench/spans.py) wraps exists, and only the CLI's main prints a failure
or picks a failure exit code."""

import ast
import importlib
import pathlib
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "stresstomo"


def unused_imports(source):
    """Names bound by module-level imports that the module never reads."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in read)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text()) == []


def test_unused_import_is_found():
    src = "from __future__ import annotations\nimport os\nfrom a import b, c as d\nprint(b)\n"
    assert unused_imports(src) == [(2, "os"), (3, "d")]


_ALLOWED_ROOTS = set(sys.stdlib_module_names) | {"numpy", "stresstomo"}


def foreign_imports(source):
    """(line, module) of every import, at module or function level, whose
    top-level module is neither standard library, numpy nor the package
    (relative imports are the package)."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        found += [(node.lineno, n) for n in names if n.split(".")[0] not in _ALLOWED_ROOTS]
    return sorted(found)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_imports_are_stdlib_numpy_or_package(path):
    # numpy is the one runtime dependency in pyproject.toml
    assert foreign_imports(path.read_text()) == []


def test_foreign_import_is_found():
    src = (
        "import os, numpy.linalg\nfrom . import io\nfrom stresstomo.fields import Grid3\n"
        "def f():\n    import scipy.linalg\n    from matplotlib import pyplot\n"
    )
    assert foreign_imports(src) == [(5, "scipy.linalg"), (6, "matplotlib")]


# ---------------------------------------------------------------------------
# the CLI has one failure path: its commands raise, and main alone prints the
# failure and picks its exit code

_FAILURE_CODES = {"EXIT_CONFIG", "EXIT_CONDITION", "EXIT_NUMERICAL"}
_FAILURE_OWNERS = {"main", "_ArgumentParser.error"}


def failure_sites(source):
    """(line, qualified name of the enclosing def or class, "" at module
    level) of every use of sys.stderr or read of a failure exit code
    outside main and _ArgumentParser.error."""
    found = []

    def visit(node, qual):
        for ch in ast.iter_child_nodes(node):
            if isinstance(ch, (ast.FunctionDef, ast.ClassDef)):
                visit(ch, f"{qual}.{ch.name}" if qual else ch.name)
                continue
            stderr = (isinstance(ch, ast.Attribute) and ch.attr == "stderr"
                      and isinstance(ch.value, ast.Name) and ch.value.id == "sys")
            code = (isinstance(ch, ast.Name) and ch.id in _FAILURE_CODES
                    and isinstance(ch.ctx, ast.Load))
            if (stderr or code) and qual not in _FAILURE_OWNERS:
                found.append((ch.lineno, qual))
            visit(ch, qual)

    visit(ast.parse(source), "")
    return found


def test_cli_fails_through_main_only():
    assert failure_sites((SRC / "cli.py").read_text()) == []


def test_failure_site_is_found():
    src = (
        "import sys\nEXIT_CONFIG = 1\n\nclass _ArgumentParser:\n    def error(self, m):\n"
        "        print(m, file=sys.stderr)\n        return EXIT_CONFIG\n\n"
        "def cmd_x():\n    print('x', file=sys.stderr)\n    return EXIT_NUMERICAL\n\n"
        "def main():\n    def inner():\n        return EXIT_CONDITION\n"
        "    print('x', file=sys.stderr)\n    return EXIT_CONFIG\n"
    )
    assert failure_sites(src) == [(10, "cmd_x"), (11, "cmd_x"), (15, "main.inner")]


# ---------------------------------------------------------------------------
# the names perfbench/spans.py wraps exist on their modules

SPANS = SRC.parents[1] / "perfbench" / "spans.py"


def _strings(node, consts, env):
    """The strings a spans.py expression stands for: a literal, a name
    bound by a comprehension or to a module-level tuple, a sum of those, or
    an f-string over one comprehension variable."""
    if isinstance(node, ast.Constant):
        return [node.value]
    if isinstance(node, ast.Name):
        return list(env.get(node.id, consts.get(node.id, ())))
    if isinstance(node, ast.Tuple):
        return [v for e in node.elts for v in _strings(e, consts, env)]
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
        return _strings(node.left, consts, env) + _strings(node.right, consts, env)
    if isinstance(node, ast.JoinedStr):
        out = [""]
        for part in node.values:
            expr = part.value if isinstance(part, ast.FormattedValue) else part
            out = [a + str(b) for a in out for b in _strings(expr, consts, env)]
        return out
    raise AssertionError(f"spans.py line {node.lineno}: cannot read {ast.dump(node)}")


def span_targets(source):
    """(module, name) of everything spans.py wraps, read without importing it.

    Read are the (label, module, attribute, counter) tuples that
    Tracer.install lists, literally or in comprehensions over its name
    tuples, and the class attributes it rebinds in a loop over classes
    (as "Class.attribute")."""
    tree = ast.parse(source)
    consts = {
        node.targets[0].id: ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Tuple)
        and isinstance(node.targets[0], ast.Name)
    }
    install = next(n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef) and n.name == "install")
    found = []
    for node in ast.walk(install):
        if isinstance(node, ast.ListComp) and isinstance(node.elt, ast.Tuple):
            (gen,) = node.generators
            items = [(node.elt, {gen.target.id: [v]}) for v in _strings(gen.iter, consts, {})]
        elif isinstance(node, ast.List):
            items = [(e, {}) for e in node.elts]
        elif isinstance(node, ast.For) and isinstance(node.iter, ast.Tuple):
            for cls in node.iter.elts:
                for stmt in node.body:
                    for t in getattr(stmt, "targets", ()):
                        if isinstance(t, ast.Attribute) and t.value.id == node.target.id:
                            found.append((cls.value.id, f"{cls.attr}.{t.attr}"))
            continue
        else:
            continue
        for elt, env in items:
            if isinstance(elt, ast.Tuple) and len(elt.elts) == 4:
                module = elt.elts[1].id
                found += [(module, a) for a in _strings(elt.elts[2], consts, env)]
    return sorted(set(found))


def missing_span_targets(source):
    missing = []
    for module, name in span_targets(source):
        obj = importlib.import_module(f"stresstomo.{module}")
        for part in name.split("."):
            obj = getattr(obj, part, None)
        if obj is None:
            missing.append((module, name))
    return missing


def test_perfbench_spans_wrap_existing_names():
    source = SPANS.read_text()
    names = {name for _, name in span_targets(source)}
    for name in ("trilinear", "build_line_families", "build_sphere_family", "kdata_adjoint",
                 "cmd_verify", "write_sinogram", "read_report", "PlaneFamily.chords",
                 "SphereFamily.chords", "verify_poincare", "f_from_c", "inc_potential"):
        assert name in names, name
    assert missing_span_targets(source) == []


def test_missing_span_target_is_found():
    source = SPANS.read_text().replace('"kdata_adjoint")', '"kdata_adjoint", "no_such_transform")')
    assert missing_span_targets(source) == [("forward", "no_such_transform")]


# ---------------------------------------------------------------------------
# every function and method of the package is used by the package

# Functions and methods that nothing else in the package references, besides
# those perfbench/spans.py wraps, each with the reason it stays.
_KEPT = {
    "cli._ArgumentParser.error": "argparse calls it on a usage error",
    "fields.null_space_witness": "paper: the S(alpha g) kernel of the compressional data",
    "geometry.ConformalMetric.from_function": "paper: geodesics of an analytic wave speed",
}


def unreferenced(sources):
    """Qualified names (module.[Class.]function) of the functions and
    methods in sources (module name -> source) that no code outside their
    own definition references: a function by its name, a method or
    property as an attribute.  Dunder methods are exempt."""
    defs, refs = [], []
    for module, source in sources.items():
        tree = ast.parse(source)

        def visit(node, prefix, in_class):
            for ch in ast.iter_child_nodes(node):
                if isinstance(ch, ast.FunctionDef):
                    defs.append((module, prefix + ch.name, ch.name, in_class, ch.lineno, ch.end_lineno))
                    visit(ch, prefix + ch.name + ".", False)
                elif isinstance(ch, ast.ClassDef):
                    visit(ch, prefix + ch.name + ".", True)
                else:
                    visit(ch, prefix, in_class)

        visit(tree, "", False)
        for n in ast.walk(tree):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                refs.append((module, n.id, False, n.lineno))
            elif isinstance(n, ast.Attribute):
                refs.append((module, n.attr, True, n.lineno))
    out = []
    for module, qual, name, method, lo, hi in defs:
        if name.startswith("__") and name.endswith("__"):
            continue
        if not any(r[1] == name and r[2] == method and not (r[0] == module and lo <= r[3] <= hi)
                   for r in refs):
            out.append(f"{module}.{qual}")
    return sorted(out)


def test_every_package_function_is_referenced_in_the_package():
    found = unreferenced({p.stem: p.read_text() for p in SRC.glob("*.py")})
    spans = {f"{module}.{name}" for module, name in span_targets(SPANS.read_text())}
    assert [q for q in found if q not in spans and q not in _KEPT] == []
    assert sorted(q for q in _KEPT if q not in found) == []  # no stale entries


def test_unreferenced_function_is_found():
    sources = {
        "a": "def used():\n    return 1\n\ndef alone():\n    return alone() + used()\n",
        "b": "from .a import used\n\nclass C:\n    def m(self):\n        return used\n\n"
             "    def n(self):\n        return self.m()\n",
    }
    assert unreferenced(sources) == ["a.alone", "b.C.n"]


# ---------------------------------------------------------------------------
# every parameter with a default is set by some caller

# Parameters with a default that no call in src/, tests/ or perfbench/ passes,
# each with the reason it stays settable.
_UNSET_KEPT = {
    "fields.random_bump_sym(degree)": "test_random_bumps_equal_full_grid_reference passes it "
                                      "through a generator variable",
}


def defaulted_parameters(source):
    """(qualified name, callee name, parameter, position) of every parameter
    with a default on a def in source.  position is the parameter's index
    among the positional arguments of a call, None for a keyword-only one;
    a method's self or cls takes none, and __init__ is called by its class's
    name."""
    out = []

    def visit(node, prefix, in_class):
        for ch in ast.iter_child_nodes(node):
            if isinstance(ch, ast.FunctionDef):
                args = ch.args
                pos = args.posonlyargs + args.args
                static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                             for d in ch.decorator_list)
                if in_class and not static:
                    pos = pos[1:]
                first = len(pos) - len(args.defaults)
                params = [(p.arg, i) for i, p in enumerate(pos) if i >= first]
                params += [(p.arg, None) for p, d in zip(args.kwonlyargs, args.kw_defaults)
                           if d is not None]
                callee = prefix.rstrip(".").rsplit(".", 1)[-1] if (
                    in_class and ch.name == "__init__") else ch.name
                out.extend((prefix + ch.name, callee, p, i) for p, i in params)
                visit(ch, prefix + ch.name + ".", False)
            elif isinstance(ch, ast.ClassDef):
                visit(ch, prefix + ch.name + ".", True)
            else:
                visit(ch, prefix, in_class)

    visit(ast.parse(source), "", False)
    return out


def call_sites(source):
    """(callee name, positional count, keywords) of every call in source:
    the callee is a name or an attribute, the count stops at the first
    starred argument, and **mapping passes no keyword."""
    out = []
    for n in ast.walk(ast.parse(source)):
        if isinstance(n, ast.Call) and isinstance(n.func, (ast.Name, ast.Attribute)):
            name = n.func.id if isinstance(n.func, ast.Name) else n.func.attr
            npos = next((i for i, a in enumerate(n.args) if isinstance(a, ast.Starred)),
                        len(n.args))
            out.append((name, npos, {k.arg for k in n.keywords if k.arg}))
    return out


def unset_parameters(package, callers):
    """"module.qualname(parameter)" for every parameter with a default in
    package (module name -> source) that no call in callers (sources) passes,
    by keyword or by position, to a def of its name."""
    calls = [c for source in callers for c in call_sites(source)]
    out = []
    for module, source in package.items():
        for qual, callee, param, index in defaulted_parameters(source):
            if not any(name == callee and (param in kws or index is not None and npos > index)
                       for name, npos, kws in calls):
                out.append(f"{module}.{qual}({param})")
    return sorted(out)


def test_every_defaulted_parameter_is_passed_by_some_call():
    root = SRC.parents[1]
    callers = [p.read_text() for d in ("src", "tests", "perfbench")
               for p in sorted((root / d).rglob("*.py"))]
    found = unset_parameters({p.stem: p.read_text() for p in SRC.glob("*.py")}, callers)
    assert [q for q in found if q not in _UNSET_KEPT] == []
    assert sorted(q for q in _UNSET_KEPT if q not in found) == []  # no stale entries


def test_unset_parameter_is_found():
    package = {
        "a": "def f(x, y=1, *, z=2):\n    return x\n\n"
             "class C:\n    def __init__(self, u=0, v=1):\n        pass\n\n"
             "    def m(self, w=3):\n        return w\n",
    }
    callers = ["f(0, 5)\nC(v=2)\nobj.m(*args, **kwargs)\n", "from a import f\nf(1, z=3)\n"]
    assert unset_parameters(package, callers) == ["a.C.__init__(u)", "a.C.m(w)"]
