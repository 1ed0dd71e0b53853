"""Every name a surrkit module imports is used in that module."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "surrkit").glob("*.py"))
# Imported and unused on purpose: perfbench/test_perfbench.py checks that its
# tracer rebinds these in the modules that import them by name.
TRACER_BINDINGS = {("multifid", "gpr_fit"), ("multifid", "gpr_predict"), ("tuner", "gpr_fit")}


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            params = args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]
            yield from (p.annotation for p in params if p is not None and p.annotation)
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def used_names(tree: ast.Module) -> set[str]:
    """Names the module reads: in code, in quoted annotations, and in ``__all__``."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                quoted = ast.parse(node.value, mode="eval")
                used |= {n.id for n in ast.walk(quoted) if isinstance(n, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {elt.value for elt in node.value.elts}
    return used


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = [
        alias.asname or alias.name.split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and not (isinstance(node, ast.ImportFrom) and node.module == "__future__")
        for alias in node.names
    ]
    used = used_names(tree)
    return [name for name in imported if name not in used]


@pytest.mark.parametrize("path", SOURCES, ids=[path.stem for path in SOURCES])
def test_module_imports_only_what_it_uses(path):
    unused = unused_imports(path.read_text(encoding="utf-8"))
    assert [name for name in unused if (path.stem, name) not in TRACER_BINDINGS] == []


def test_tracer_bindings_are_still_imported():
    """The allowance names imports that exist, so it cannot outlive them."""
    by_module = {path.stem: unused_imports(path.read_text(encoding="utf-8")) for path in SOURCES}
    assert all(name in by_module[module] for module, name in TRACER_BINDINGS)


@pytest.mark.parametrize("source, unused", [
    ("import os\nimport sys\nsys.exit()\n", ["os"]),
    ("from a import b as c, d\nd()\n", ["c"]),
    ("import numpy as np\nx: 'np.ndarray' = 1\n", []),
    ("from a import b\n__all__ = ['b']\n", []),
    ("from __future__ import annotations\n", []),
], ids=["module", "alias", "quoted-annotation", "all", "future"])
def test_unused_import_finder(source, unused):
    assert unused_imports(source) == unused
