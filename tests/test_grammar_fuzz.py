"""Fuzz of the input grammar: any text ends in a report or a typed error.

Texts are built from fixture lines and statement fragments, inserted
anywhere (before the header too), deleted, swapped and mutated character
by character.  ``check`` on each must return a documented exit code (never
4, the internal-error code) with at most one line on stderr, and a text
that parses must round-trip through ``serialize``.
"""

import io
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gtorsion import registry
from gtorsion.cli import main
from gtorsion.parser import ParseError, parse
from gtorsion.structures import StructureError

_AH4 = "dim 4\nframe e1 e2 e3 e4\nd e1 = e3^e4\nstructure ah\nomega = e1^e2 + e3^e4\n"

BASES = [registry.input_text(name) for name in registry.names()] + [_AH4, ""]
LINES = sorted({line for text in BASES for line in text.splitlines()})
FRAGMENTS = [
    "dim 4", "dim 9", "frame e1 e2 e3 e4", "field rational", "field sqrt 2", "field sqrt 3",
    "field sqrt 4", "field float", "metric identity", "metric rows", "1 0 0 0", "(sqrt2) 0 1/2 0",
    "orientation e2 e1 e3 e4", "structure ah", "structure su3", "structure g2", "structure spin7",
    "structure u2", "omega = model", "Omega+ = model", "phi = model", "Psi = model",
    "omega = e1^e2 + e3^e4", "d e2 = 1/0*e1^e3", "d e3 = (sqrt2+1)/3*e1^e2", "d e9 = 0",
    "vector df = 0", "vector df = e1", "vector V = e1", "flux F = 0", "flux F = e1^e2",
    "# comment", "",
]
CHARS = "0123456789-+*/^()=e #sqrt"


@st.composite
def texts(draw):
    lines = draw(st.sampled_from(BASES)).splitlines()
    for _ in range(draw(st.integers(0, 4))):
        op = draw(st.sampled_from(["insert", "insert", "delete", "swap", "char"]))
        if op == "insert":
            line = draw(st.sampled_from(FRAGMENTS + LINES))
            lines.insert(draw(st.integers(0, len(lines))), line)
        elif not lines:
            continue
        elif op == "delete":
            del lines[draw(st.integers(0, len(lines) - 1))]
        elif op == "swap":
            i, j = (draw(st.integers(0, len(lines) - 1)) for _ in range(2))
            lines[i], lines[j] = lines[j], lines[i]
        else:
            i = draw(st.integers(0, len(lines) - 1))
            pos = draw(st.integers(0, len(lines[i])))
            cut = draw(st.integers(0, 1))  # replace a character, or insert one
            lines[i] = lines[i][:pos] + draw(st.sampled_from(CHARS)) + lines[i][pos + cut:]
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=100, deadline=None, derandomize=True)
@given(text=texts())
@example(text=_AH4 + "field sqrt 2\n")
@example(text="flux F = 0\n" + _AH4)
@example(text="vector df = 0\n" + _AH4)
@example(text="dim 4\nflux F = e1^e2\nframe e1 e2 e3 e4\n")
def test_any_text_gives_report_or_typed_error(workdir, text):
    path = workdir / "input.gs"
    path.write_text(text)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["check", str(path)])
    assert code in (0, 1, 2, 3), err.getvalue()
    assert len(err.getvalue().splitlines()) <= 1
    try:
        doc = parse(text)
    except (ParseError, StructureError):
        return
    canonical = doc.serialize()
    assert parse(canonical).serialize() == canonical
