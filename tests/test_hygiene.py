"""Source hygiene: no module in the package or the tests imports a name that
it never uses (names listed in ``__all__`` count as used, so re-exports stay
declared in one place), no package module imports ``fractions``, ``decimal``
or ``numbers`` (a Scalar is the one exact number, and the command-line import
stays free of them, as of ``json``, ``typing`` and ``importlib.resources``,
which a default run does not use), and each kernel has one home: ``_merge_sign`` is
called only where it fills the sign table, ``mask_of`` only inside ``KForm``,
``echelon`` is the one row reduction, the adapted frame of a reduction runs
none, ``_wedge_row`` is called only by the minors table and the change of
frame, and the connections and the Bismut curvature are built only in a
structure's analysis.  A frame carries its
one metric, so no function takes a metric beside a frame.  Every public
function and method in the package has a reader in the package or is named
in ``API`` with the reason it stays.  Standard library only."""

import ast
import functools
import os
import subprocess
import sys
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


NUMERIC_TOWER = {"fractions", "decimal", "numbers"}


def imported_modules(source: str) -> set[str]:
    """Top-level names of the modules that ``source`` imports, anywhere."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            out.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            out.add(node.module.split(".")[0])
    return out


def test_imported_modules_scanner():
    src = "import os.path\nfrom fractions import Fraction\nfrom . import x\ndef f():\n    import decimal\n"
    assert imported_modules(src) == {"os", "fractions", "decimal"}


@pytest.mark.parametrize("path", SRC, ids=lambda p: p.name)
def test_no_package_module_imports_the_numeric_tower(path):
    assert imported_modules(path.read_text()) & NUMERIC_TOWER == set()


@functools.cache
def command_line_modules() -> frozenset[str]:
    """The modules that importing the command-line modules loads, in a fresh
    interpreter run with -S: no site hooks (a .pth file may preload modules),
    so every module loaded after the snapshot is the package's doing."""
    code = (
        "import sys\nbefore = set(sys.modules)\n"
        "import gtorsion.engine, gtorsion.registry, gtorsion.cli\n"
        "print(' '.join(sorted(set(sys.modules) - before)))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True)
    return frozenset(out.stdout.split())


def test_command_line_import_loads_no_numeric_tower():
    loaded = command_line_modules()
    assert "gtorsion.cli" in loaded
    assert loaded & (NUMERIC_TOWER | {"_decimal", "_pydecimal"}) == set()


# loaded only where a run uses them: json when a report is written as JSON;
# typing, importlib.resources and what they pull in, never
ON_DEMAND = {"json", "typing", "importlib.resources", "pathlib", "zipfile", "tempfile"}


def test_command_line_import_loads_only_what_a_run_uses():
    assert command_line_modules() & ON_DEMAND == set()


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
    # KForm.from_terms: the parser builds forms through it, so it keeps no
    # accumulation path of its own
    sites = [f"{path.name}:{where}" for path in SRC for where in call_sites(path.read_text(), "mask_of")]
    assert sites == ["forms.py:KForm"]


def test_echelon_is_the_one_row_reduction():
    sites = sorted(f"{path.name}:{where}" for path in SRC for where in call_sites(path.read_text(), "echelon"))
    assert sites == ["forms.py:_mat_inverse", "linsolve.py:solve_unique_sparse", "structures.py:solve_skew_torsion"]
    defined = {node.name for path in SRC for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.FunctionDef)}
    assert not defined & {"eliminate", "back_substitute"}


def test_wedge_row_only_expands_minors():
    sites = sorted(f"{path.name}:{where}" for path in SRC for where in call_sites(path.read_text(), "_wedge_row"))
    assert sites == ["forms.py:CoframeChange", "forms.py:_minors"]


def test_adapted_frame_runs_no_elimination():
    # the adapted coframe is read off the Gram-Schmidt covectors and
    # certified by A B^T = 1, so reduction needs no inverse
    tree = ast.parse((ROOT / "src" / "gtorsion" / "reduction.py").read_text())
    names = {alias.asname or alias.name for node in ast.walk(tree)
             if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}
    assert names & {"_mat_inverse", "echelon"} == set()


def test_connections_are_built_only_in_the_analysis():
    # GStructure's cached properties build the Levi-Civita and Bismut
    # connections and the Bismut Ricci tensor; soliton.scalar_curvature
    # traces the Levi-Civita Ricci tensor, and the soliton residuals and the
    # reduction read the rest from a structure
    sites = {name: sorted(f"{path.name}:{where}" for path in SRC for where in call_sites(path.read_text(), name))
             for name in ("levi_civita", "bismut_connection", "curvature")}
    assert sites == {
        "levi_civita": ["structures.py:GStructure"],
        "bismut_connection": ["structures.py:GStructure"],
        "curvature": ["soliton.py:scalar_curvature", "structures.py:GStructure"],
    }
    for path in SRC:
        if path.name in ("reduction.py", "soliton.py"):
            names = {alias.asname or alias.name for node in ast.walk(ast.parse(path.read_text()))
                     if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}
            assert names & {"levi_civita", "bismut_connection"} == set(), path.name


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


def public_defs(tree: ast.Module):
    """(qualified name, node) of each public function at module level and
    each public method of a module-level class."""
    out = []
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            out.append((node.name, node))
        elif isinstance(node, ast.ClassDef):
            out += [(f"{node.name}.{sub.name}", sub) for sub in node.body
                    if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_")]
    return out


def read_names(tree: ast.AST, skip: ast.AST) -> set[str]:
    """Every name and attribute read in ``tree`` outside the subtree ``skip``
    (a string in ``__all__`` is no read)."""
    out, stack = set(), [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return out


def unread_public_defs(sources: dict[str, str]) -> list[str]:
    """``module:qualname`` of each public function or method whose name
    nothing in ``sources`` reads outside its own definition."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    return [f"{module}:{qual}" for module, tree in trees.items() for qual, node in public_defs(tree)
            if not any(node.name in read_names(t, node) for t in trees.values())]


def test_unread_public_def_scanner():
    sources = {
        "a.py": (
            "__all__ = ['f', 'g']\ndef f():\n    return f()\ndef g():\n    pass\n"
            "class C:\n    def m(self):\n        pass\n    def n(self):\n        return self.m()\n"
            "    def _p(self):\n        pass\n"
        ),
        "b.py": "from a import g\ng()\n",
    }
    assert unread_public_defs(sources) == ["a.py:f", "a.py:C.n"]


# Public names that stay without a reader in the package, and why.
API = {
    "cli.py:main": "the gtorsion console entry point",
    "cli.py:_ArgumentParser.parse_known_args": "argparse hook, called by parse_args",
    "cli.py:_ArgumentParser.error": "argparse hook, called on every argparse error",
    "engine.py:run_check": "engine entry point",
    "engine.py:run_reduce": "engine entry point",
    "engine.py:run_extend": "engine entry point",
    "registry.py:names": "registry entry point",
    "registry.py:input_text": "registry entry point",
    "registry.py:run_example": "registry entry point",
    "frames.py:ConnectionCoeffs.gamma": "bench/spans.py keys traced connections by it",
    "frames.py:change_frame": "bench/gen.py builds its rotated frames with it",
    "parser.py:InputDocument.serialize": "bench/gen.py writes its rotated inputs with it",
    "reduction.py:TransverseSlice.as_lie_frame": "bench/gen.py builds its SU(3) quotient input with it",
    "soliton.py:g2_rigidity_identity": "the rigid-case verdict of ROADMAP item 3 reports it",
}


def test_every_public_def_has_a_reader_in_the_package():
    sources = {path.name: path.read_text() for path in SRC}
    assert [name for name in unread_public_defs(sources) if name not in API] == []
    defined = {f"{module}:{qual}" for module, text in sources.items() for qual, _ in public_defs(ast.parse(text))}
    assert sorted(set(API) - defined) == []
