"""Source hygiene: no module in the package or the tests imports a name that
it never uses.  Names listed in ``__all__`` count as used, so re-exports
stay declared in one place.  Standard library ``ast`` only."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted((ROOT / "src" / "gtorsion").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Imported names, at module level or inside a function, that nothing in
    the module reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in sorted(imported.items(), key=lambda x: x[1])
            if name not in used]


def test_scanner_sees_unused_and_used_names():
    src = (
        "from __future__ import annotations\nimport os\nimport a.b\n"
        "from m import x, y as z\n__all__ = ['x']\n"
        "def f():\n    from m import w\n    return a\n"
    )
    assert unused_imports(src) == ["os (line 2)", "z (line 4)", "w (line 7)"]


@pytest.mark.parametrize("path", FILES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
