"""The benchmark still runs against the package.

perfbench/spans.py wraps prefractal's public functions by name, so
deleting or renaming one of them breaks every traced benchmark run. One
test per wrapped name looks it up where the tracer will, so a deleted
name fails under its own name. One test installs the tracer in a fresh
interpreter and reads the edge count of one traced graph build, without
running a workload; a second runs two CLI commands under the tracer,
whose modules are imported only when the command runs; another runs the
benchmark's self-test, whose checks parse every artifact of the
workloads at tiny sizes. The last two read the package's own sources for
imports they never use and for top-level names nothing uses.
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
