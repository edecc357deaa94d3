"""Static checks on the package's own import graph: every intra-package
import sits at module top level, where it runs at import time, and no two
modules import each other, directly or through others. A deferred import
inside a function is the usual way to hide such a cycle from the
interpreter; the graph counts it all the same."""

import ast
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
