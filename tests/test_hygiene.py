"""Source hygiene: no module in the package or the tests imports a name that
it never uses (names listed in ``__all__`` count as used, so re-exports stay
declared in one place), and each kernel has one home: ``_merge_sign`` is
called only where it fills the sign table, ``mask_of`` only inside ``KForm``,
``echelon`` is the one row reduction and ``_wedge_row`` is called only by the
minors table and the change of frame.  A frame carries its one metric, so no
function takes a metric beside a frame.  Standard library ``ast`` only."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = sorted((ROOT / "src" / "gtorsion").glob("*.py"))
FILES = SRC + sorted((ROOT / "tests").glob("*.py"))


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


def call_sites(source: str, name: str) -> list[str]:
    """The module-level statement around each call of ``name``: the names a
    statement assigns, or the function or class it defines."""
    out = []
    for stmt in ast.parse(source).body:
        calls = [n for n in ast.walk(stmt) if isinstance(n, ast.Call) and isinstance(n.func, ast.Name) and n.func.id == name]
        if isinstance(stmt, ast.Assign):
            where = ",".join(t.id for t in stmt.targets if isinstance(t, ast.Name))
        else:
            where = getattr(stmt, "name", type(stmt).__name__)
        out += [where] * len(calls)
    return out


def test_call_site_scanner():
    src = "T = L(lambda k: f(k))\ndef g():\n    return f(1) + h(f)\nclass C:\n    x = f(2)\n"
    assert call_sites(src, "f") == ["T", "g", "C"]


def test_merge_sign_only_fills_the_sign_table():
    # wedge, the star, d and the top-degree pairing read forms._ODD
    sites = [f"{path.name}:{where}" for path in SRC for where in call_sites(path.read_text(), "_merge_sign")]
    assert sites == ["forms.py:_ODD"]


def test_mask_of_only_inside_kform():
    # KForm.from_terms and KForm.coeff: the parser builds forms through
    # from_terms, so it keeps no accumulation path of its own
    sites = [f"{path.name}:{where}" for path in SRC for where in call_sites(path.read_text(), "mask_of")]
    assert sites == ["forms.py:KForm", "forms.py:KForm"]


def test_echelon_is_the_one_row_reduction():
    sites = sorted(f"{path.name}:{where}" for path in SRC for where in call_sites(path.read_text(), "echelon"))
    assert sites == ["forms.py:_mat_inverse", "linsolve.py:solve_unique_sparse", "structures.py:solve_skew_torsion"]
    defined = {node.name for path in SRC for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.FunctionDef)}
    assert not defined & {"eliminate", "back_substitute"}


def test_wedge_row_only_expands_minors():
    sites = sorted(f"{path.name}:{where}" for path in SRC for where in call_sites(path.read_text(), "_wedge_row"))
    assert sites == ["forms.py:_minors", "forms.py:transform_form"]


def metric_beside_frame(source: str) -> list[str]:
    """Functions and methods with a ``frame`` parameter and a ``geom``,
    ``geometry`` or ``base_geometry`` one."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            names = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
            if "frame" in names and names & {"geom", "geometry", "base_geometry"}:
                out.append(node.name)
    return out


def test_metric_beside_frame_scanner():
    src = "def f(frame, geom=None): pass\nclass C:\n    def g(self, frame, *, geometry): pass\ndef h(frame, lc): pass\n"
    assert metric_beside_frame(src) == ["f", "g"]


def test_no_metric_parameter_beside_a_frame():
    # a structure's frame carries the structure's metric
    assert [f"{path.name}:{name}" for path in SRC for name in metric_beside_frame(path.read_text())] == []
