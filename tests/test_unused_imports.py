"""No import under harvester_ray/ goes unread.

A stdlib-only stand-in for a linter's unused-import rule (pyflakes
F401): every name an ``import`` binds in a module, class or function
must be read somewhere in that scope, nested scopes included. String
annotations count as reads. ``__future__`` imports, ``__init__.py``
re-exports and lines marked ``# noqa: F401`` (imports kept for their
side effect) are exempt.
"""

import ast
import os

import pytest

import harvester_ray

PKG = os.path.dirname(harvester_ray.__file__)
_SCOPES = (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)


def _modules() -> list[str]:
    return sorted(
        os.path.relpath(os.path.join(d, f), PKG)
        for d, _, files in os.walk(PKG)
        for f in files
        if f.endswith(".py")
    )


def _reads(scope: ast.AST) -> set[str]:
    """Names loaded anywhere under ``scope``, including inside string
    annotations."""
    names: set[str] = set()
    for node in ast.walk(scope):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        for ann in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                names |= _reads(ast.parse(ann.value, mode="eval"))
    return names


def unused_imports(source: str, is_init: bool = False) -> list[tuple[int, str]]:
    """(line, bound name) of every import in ``source`` whose name its
    scope never reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    found: list[tuple[ast.AST, int, str]] = []

    def visit(node: ast.AST, scope: ast.AST) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.Import, ast.ImportFrom)):
                if (is_init and scope is tree) or getattr(child, "module", "") == "__future__":
                    continue
                for alias in child.names:
                    if alias.name == "*":
                        continue
                    line = alias.lineno
                    if "noqa: F401" in lines[child.lineno - 1] + lines[line - 1]:
                        continue
                    bound = alias.asname or alias.name.split(".")[0]
                    found.append((scope, line, bound))
            visit(child, child if isinstance(child, _SCOPES) else scope)

    visit(tree, tree)
    reads: dict[int, set[str]] = {}
    for scope, _, _ in found:
        if id(scope) not in reads:
            reads[id(scope)] = _reads(scope)
            if scope is tree:
                reads[id(scope)] |= _exported(tree)
    return [(line, name) for scope, line, name in found if name not in reads[id(scope)]]


def _exported(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return {e.value for e in ast.walk(node.value) if isinstance(e, ast.Constant)}
    return set()


@pytest.mark.parametrize("rel", _modules())
def test_no_unused_imports(rel):
    with open(os.path.join(PKG, rel)) as f:
        source = f.read()
    dead = unused_imports(source, is_init=os.path.basename(rel) == "__init__.py")
    assert not dead, f"{rel}: unread imports " + ", ".join(f"{n} (line {ln})" for ln, n in dead)


def test_checker_sees_nested_reads_and_exemptions():
    src = (
        "import os\n"
        "import sys  # noqa: F401\n"
        "def f():\n"
        "    import json\n"
        "    import re\n"
        "    def g() -> 'json.JSONDecoder':\n"
        "        return os.sep\n"
        "    return g\n"
    )
    assert unused_imports(src) == [(5, "re")]
    assert unused_imports("from .a import b\n", is_init=True) == []
