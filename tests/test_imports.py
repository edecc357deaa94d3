"""Static checks on the package's own import graph: every intra-package
import sits at module top level, where it runs at import time, and no two
modules import each other, directly or through others. A deferred import
inside a function is the usual way to hide such a cycle from the
interpreter; the graph counts it all the same. No module reaches into
another's `_`-private names either: a rule one module needs from another is
that module's public API, so it has one owner."""

import ast
import importlib
import inspect
from graphlib import CycleError, TopologicalSorter
from pathlib import Path

import pytest

import trea

PACKAGE = Path(trea.__file__).parent
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py"))


def _parse(name):
    return ast.parse((PACKAGE / f"{name}.py").read_text(), filename=f"{name}.py")


def _intra_imports(node):
    """Package modules an import statement names ([] if none)."""
    if isinstance(node, ast.Import):
        targets = [a.name for a in node.names]
    elif isinstance(node, ast.ImportFrom):
        mod = ".".join(filter(None, ["trea" if node.level else "", node.module]))
        targets = [f"{mod}.{a.name}" for a in node.names] if mod == "trea" else [mod]
    else:
        return []
    parts = [t.split(".") for t in targets]
    return [p[1] for p in parts if p[0] == "trea" and len(p) > 1 and p[1] in MODULES]


def test_intra_package_imports_are_at_module_top_level():
    nested = []
    for name in MODULES:
        tree = _parse(name)
        top = {id(node) for node in tree.body}
        nested += [f"{name}.py:{node.lineno}" for node in ast.walk(tree)
                   if _intra_imports(node) and id(node) not in top]
    assert not nested, f"intra-package imports below module level: {nested}"


def test_intra_package_import_graph_is_acyclic():
    graph = {name: {dep for node in ast.walk(_parse(name)) for dep in _intra_imports(node)}
             for name in MODULES}
    # the check is vacuous if the parser misses the package's imports
    assert {"net", "mac", "errors"} <= graph["sharp"]
    try:
        tuple(TopologicalSorter(graph).static_order())
    except CycleError as exc:
        pytest.fail("import cycle: " + " -> ".join(exc.args[1]))


def _private(name):
    return name.startswith("_") and not name.startswith("__")


def test_no_module_uses_another_modules_private_names():
    uses = []
    for name in MODULES:
        tree = _parse(name)
        modules = set()   # local names of modules bound by `from . import mod`
        for node in ast.walk(tree):
            if not _intra_imports(node):
                continue
            for alias in node.names:
                if _private(alias.name.rpartition(".")[2]):
                    uses.append(f"{name}.py:{node.lineno} imports {alias.name}")
                if getattr(node, "module", "") in (None, "trea"):
                    modules.add(alias.asname or alias.name)
        uses += [f"{name}.py:{node.lineno} reads {node.value.id}.{node.attr}"
                 for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                 and node.value.id in modules and _private(node.attr)]
    assert not uses, f"private names used across modules: {uses}"


def test_all_lists_exactly_the_public_api():
    # in every module that declares `__all__`, each listed name resolves
    # under `import *` and each public function or class the module defines
    # is listed
    for name in ["trea"] + [f"trea.{m}" for m in MODULES if m != "__init__"]:
        module = importlib.import_module(name)
        if not hasattr(module, "__all__"):
            continue
        exec(f"from {name} import *", {})
        defined = {k for k, v in vars(module).items()
                   if not k.startswith("_") and (inspect.isfunction(v) or inspect.isclass(v))
                   and v.__module__ == name}
        missing = sorted(defined - set(module.__all__))
        assert not missing, f"{name}.__all__ misses {missing}"
