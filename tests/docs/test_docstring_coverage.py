"""Docstring-coverage gate for the public serving/scaling surface.

Mirrors ruff's pydocstyle D1 rules (undocumented public module / class
/ method / function; dunders and underscore-prefixed names exempt, as
are ``TYPE_CHECKING``-only and overload stubs) over the packages whose
public API is documentation-critical: ``obs/``, ``persist/``,
``server/``, ``sharding/``, ``store/planner/`` and ``tenancy/``. CI runs the same rules
through ``ruff check --select D1`` in the lint job; this stdlib
implementation keeps the gate enforceable in environments without ruff
(it is the tier-1 copy of the gate).

The required coverage is 100% — a pinned *floor* would silently rot as
code grows. New public names must arrive documented or be made private.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent.parent / "src" / "repro"

GATED_PACKAGES = ("obs", "persist", "server", "sharding", "store/planner", "tenancy")


def _is_public(name: str) -> bool:
    return not name.startswith("_")


def _missing_in(tree: ast.Module, module_label: str) -> list[str]:
    missing = []
    if ast.get_docstring(tree) is None:
        missing.append(f"{module_label}: module docstring")

    def walk(node, prefix: str, public_scope: bool) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                public = public_scope and _is_public(child.name)
                label = f"{prefix}{child.name}"
                if public and ast.get_docstring(child) is None:
                    missing.append(f"{module_label}: class {label}")
                walk(child, f"{label}.", public)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if not (public_scope and _is_public(child.name)):
                    continue
                if any(
                    isinstance(d, ast.Name) and d.id == "overload"
                    for d in child.decorator_list
                ):
                    continue
                if ast.get_docstring(child) is None:
                    missing.append(f"{module_label}: def {prefix}{child.name}")

    walk(tree, "", True)
    return missing


def gated_modules() -> list[Path]:
    modules = []
    for package in GATED_PACKAGES:
        root = SRC / package
        assert root.is_dir(), f"gated package moved: {root}"
        modules.extend(sorted(root.rglob("*.py")))
    return modules


@pytest.mark.parametrize(
    "module", gated_modules(), ids=lambda p: str(p.relative_to(SRC))
)
def test_public_api_is_documented(module):
    tree = ast.parse(module.read_text(encoding="utf-8"))
    missing = _missing_in(tree, str(module.relative_to(SRC.parent.parent)))
    assert not missing, "undocumented public API:\n  " + "\n  ".join(missing)
