"""Guard: ``src/flashspec`` defines no function, class or method that only
tests use.

Every name defined by a ``def`` or ``class`` in ``src/flashspec/*.py`` that
the tests reference must also be referenced by the engine (``src/``), the
benchmark (``flashbench/``) or the tools (``tools/``).  A reference is a
name, an attribute, an imported name or a string constant naming an
identifier (``flashbench/tracing.py`` patches methods by their names); a
``def`` or ``class`` line and a docstring are not references, and neither
is the package's re-export of a name in ``src/flashspec/__init__.py``.
Dunder methods, and methods that override a method of a class from outside
the package (numpy calls ``generate_state`` on a seed sequence), are called
by code this scan does not read and are skipped.

The scan matches names only, so a test-only definition whose name collides
with a name production code references escapes it: a test-only method
``size`` passes because production code reads numpy's ``.size``, and a
test-only ``to_json`` passes while ``Report.to_json`` is called.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "flashspec"


def _docstrings(tree: ast.AST) -> set[int]:
    """ids of the string constants that are docstrings or bare expressions."""
    return {
        id(node.value)
        for node in ast.walk(tree)
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
    }


def _overrides_outside(cls: type, name: str) -> bool:
    return any(
        name in vars(base)
        for base in cls.__mro__[1:]
        if not base.__module__.startswith("flashspec")
    )


def defined_names(path: Path) -> set[str]:
    tree = ast.parse(path.read_text())
    stem = "" if path.stem == "__init__" else f".{path.stem}"
    module = importlib.import_module(f"flashspec{stem}")
    outside = {
        item.name
        for node in tree.body
        if isinstance(node, ast.ClassDef)
        for item in node.body
        if isinstance(item, ast.FunctionDef)
        and _overrides_outside(getattr(module, node.name), item.name)
    }
    return {
        node.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
    } - outside


def referenced_names(path: Path) -> set[str]:
    tree = ast.parse(path.read_text())
    skip = _docstrings(tree)
    reexport = path == PACKAGE / "__init__.py"
    out: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias) and not reexport:
            out.update(node.name.split("."))
        elif (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and id(node) not in skip
        ):
            out.update(p for p in node.value.split(".") if p.isidentifier())
    return out


def _references(*dirs: str) -> set[str]:
    out: set[str] = set()
    for d in dirs:
        for path in sorted((ROOT / d).rglob("*.py")):
            out |= referenced_names(path)
    return out


def test_no_src_name_is_referenced_only_by_tests():
    defined = set().union(*(defined_names(p) for p in sorted(PACKAGE.glob("*.py"))))
    assert defined, "no definitions found under src/flashspec"
    production = _references("src", "flashbench", "tools")
    test_only = sorted((defined & _references("tests")) - production)
    assert test_only == [], (
        f"defined in src/flashspec but referenced only from tests/: {test_only}"
    )
