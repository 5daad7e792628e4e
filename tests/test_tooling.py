"""The benchmark still runs against the package.

perfbench/spans.py wraps prefractal's public functions by name, so
deleting or renaming one of them breaks every traced benchmark run. One
test per wrapped name looks it up where the tracer will, so a deleted
name fails under its own name. One test installs the tracer in a fresh
interpreter and reads the edge count of one traced graph build, without
running a workload; a second runs two CLI commands under the tracer,
whose modules are imported only when the command runs; another runs the
benchmark's self-test, whose checks parse every artifact of the
workloads at tiny sizes. The last four read the package's own sources
for imports they never use, for an import of dataclasses, for top-level
names nothing uses, and for defaulted parameters no call in src/, tests/
or demos/ sets.
"""

import ast
import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _traced_names():
    """(home module, name) of every callable perfbench/spans.py wraps."""
    spec = importlib.util.spec_from_file_location("spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return [(home, target) for home, target, *_ in spans.TARGETS]


@pytest.mark.parametrize("home,name", _traced_names())
def test_traced_name_resolves(home, name):
    # Tracer.install reads a function from its module and a method from its
    # class's own __dict__, both with no default
    module = importlib.import_module("prefractal." + home)
    owner, _, attr = name.rpartition(".")
    found = getattr(module, owner).__dict__ if owner else vars(module)
    assert attr in found, "perfbench wraps prefractal.%s.%s" % (home, name)


def test_perfbench_tracer_installs(tmp_path):
    # the tracer counts metric.edges as len(graph.edges) of every graph
    # gasket_metric_graph returns: 3^4 curves at level 3
    code = ("import sys; sys.path.insert(0, %r)\n"
            "from spans import Tracer\n"
            "tracer = Tracer()\n"
            "tracer.install()\n"
            "from prefractal import gasket, metric\n"
            "metric.gasket_metric_graph(gasket.build_gasket(3), 3)\n"
            "print(tracer.counts['metric.edges'])\n" % str(ROOT / "perfbench"))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["81"]


def test_perfbench_tracer_sees_call_time_imports(tmp_path):
    # the CLI imports build_gasket and enumerate_eigenvalues inside its
    # commands, after the tracer replaced them: the spans must still come
    # from the wrappers, and the level-2 complex has 15 vertices
    code = ("import sys; sys.path.insert(0, %r)\n"
            "import contextlib, io\n"
            "from spans import Tracer\n"
            "tracer = Tracer()\n"
            "tracer.install()\n"
            "from prefractal import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert cli.main(['gen', '--level', '2']) == 0\n"
            "    assert cli.main(['spectrum', '--level', '2', '--cutoff', '50']) == 0\n"
            "print(' '.join(sorted({span[0] for span in tracer.spans})))\n"
            "print(tracer.counts['gasket.vertices'])\n" % str(ROOT / "perfbench"))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    names, vertices = proc.stdout.splitlines()
    assert {"cli.self", "gasket.build", "spectrum.enumerate"} <= set(names.split())
    assert vertices == "15"


def test_perfbench_selftest_passes():
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "selftest.py")],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]


def _imports_by_scope(node, scope, found):
    """Map each function, and the module, to the imports whose innermost
    enclosing function it is."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.Import, ast.ImportFrom)):
            found.setdefault(scope, []).append(child)
        inner = child if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else scope
        _imports_by_scope(child, inner, found)
    return found


def test_package_modules_use_their_imports():
    # a stdlib stand-in for a linter's unused-import rule: every name an
    # import binds must be read in its scope, the whole module for an
    # import outside any function and the function body for one inside
    unused = []
    for path in sorted((ROOT / "src" / "prefractal").glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        for scope, imports in _imports_by_scope(tree, tree, {}).items():
            bound = {}
            for node in imports:
                if isinstance(node, ast.Import):
                    for alias in node.names:
                        bound[alias.asname or alias.name.split(".")[0]] = node.lineno
                elif node.module != "__future__":
                    for alias in node.names:
                        bound[alias.asname or alias.name] = node.lineno
            read = {n.id for n in ast.walk(scope) if isinstance(n, ast.Name)}
            unused += ["%s:%d %s" % (path.name, line, name)
                       for name, line in bound.items() if name not in read]
    assert unused == []


def test_package_imports_no_dataclasses():
    # the records are named tuples: dataclasses costs a command about 7 ms
    # of start-up for the inspect, ast, dis and tokenize modules it loads
    found = []
    for path in sorted((ROOT / "src" / "prefractal").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            names = ([a.name for a in node.names] if isinstance(node, ast.Import)
                     else [node.module] if isinstance(node, ast.ImportFrom) else [])
            found += ["%s:%d" % (path.name, node.lineno)
                      for name in names if name and name.split(".")[0] == "dataclasses"]
    assert found == []


def test_package_top_level_names_are_used():
    # a dead-code scan: a module-level function or class must be exported,
    # a dunder, or named somewhere in the package beside its definition
    exported = set(importlib.import_module("prefractal").__all__)
    trees = {path.name: ast.parse(path.read_text())
             for path in sorted((ROOT / "src" / "prefractal").glob("*.py"))}
    named = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.alias):
                named.add(node.name)
    unused = ["%s:%d %s" % (file, node.lineno, node.name)
              for file, tree in trees.items() for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
              and node.name not in exported | named
              and not (node.name.startswith("__") and node.name.endswith("__"))]
    assert unused == []


def _defaulted_parameters(tree, module):
    """(module, owner class, function, parameter, positional index or None)
    for every defaulted parameter of a public function, method or __init__
    of a public class."""
    found = []

    def scan(fn, owner):
        if fn.name.startswith("_") and fn.name != "__init__":
            return
        args = fn.args
        positional = args.posonlyargs + args.args
        # self or cls is bound by the call, not passed
        skip = 1 if owner and not any(
            isinstance(d, ast.Name) and d.id == "staticmethod" for d in fn.decorator_list) else 0
        for k, arg in enumerate(positional[len(positional) - len(args.defaults):],
                                len(positional) - len(args.defaults)):
            found.append((module, owner, fn.name, arg.arg, k - skip))
        found.extend((module, owner, fn.name, arg.arg, None)
                     for arg, default in zip(args.kwonlyargs, args.kw_defaults)
                     if default is not None)

    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            scan(node, None)
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    scan(item, node.name)
    return found


def _calls_by_name(trees):
    """Called name -> list of (positional count, keyword names), or None
    for a call that passes *args or **kwargs. A call of a class, or of cls
    inside one of its classmethods, counts as a call of its __init__."""
    calls = {}

    def visit(node, cls_name):
        for child in ast.iter_child_nodes(node):
            inner = cls_name
            if isinstance(child, ast.ClassDef):
                inner = child.name
            if isinstance(child, ast.Call):
                func = child.func
                name = (func.id if isinstance(func, ast.Name)
                        else func.attr if isinstance(func, ast.Attribute) else None)
                if name == "cls" and cls_name:
                    name = cls_name
                if name and name[:1].isupper():
                    name += ".__init__"
                spread = (any(isinstance(a, ast.Starred) for a in child.args)
                          or any(k.arg is None for k in child.keywords))
                calls.setdefault(name, []).append(
                    None if spread else (len(child.args), {k.arg for k in child.keywords}))
            visit(child, inner)

    for tree in trees:
        visit(tree, None)
    return calls


def _unused_options(root):
    """Defaulted parameters of the package's public functions, methods and
    constructors that no call in src/, tests/ or demos/ passes."""
    package = sorted((root / "src" / "prefractal").glob("*.py"))
    callers = [p for d in ("src", "tests", "demos") for p in sorted((root / d).rglob("*.py"))]
    calls = _calls_by_name(ast.parse(p.read_text()) for p in callers)
    unused = []
    for path in package:
        for module, owner, fn, param, index in _defaulted_parameters(
                ast.parse(path.read_text()), path.stem):
            name = "%s.__init__" % owner if fn == "__init__" else fn
            if not any(c is None or param in c[1] or (index is not None and index < c[0])
                       for c in calls.get(name, [])):
                unused.append("%s.%s%s(%s=)" % (module, owner + "." if owner else "",
                                                fn, param))
    return unused


def test_every_option_is_passed_somewhere():
    # an unused-option scan beside the dead-code scan: a defaulted
    # parameter that no call sets is a constant; calls match by name, so
    # any function or method of the same name that passes it counts
    assert _unused_options(ROOT) == []
