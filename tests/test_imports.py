"""Source hygiene: no module of the package imports a name it never uses."""

import ast
from pathlib import Path

import pytest

import redform

MODULES = sorted(p for p in Path(redform.__file__).parent.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str):
    """Names bound by the module's imports (``from __future__`` exempt) that
    no other name in it reads; an attribute chain reads its leftmost name."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_every_import_is_used(path):
    unused = unused_imports(path.read_text(encoding="utf-8"))
    assert not unused, f"{path.name} imports names it never reads (line, name): {unused}"


def test_the_check_sees_an_unused_import():
    source = "from __future__ import annotations\nimport os.path\nfrom .a import b, c as d\nx = d(os)\n"
    assert unused_imports(source) == [(3, "b")]
