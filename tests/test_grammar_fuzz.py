"""Fuzz of the input grammar: any text ends in a report or a typed error.

Texts are built from fixture lines and statement fragments, inserted
anywhere (before the header too), deleted, swapped and mutated character
by character.  ``check`` on each must return a documented exit code (never
4, the internal-error code) with at most one line on stderr, and a text
that parses must round-trip through ``serialize``.

Drawn form lines (repeated masks, sums that cancel, unsorted chains,
repeated indices, sqrt terms) and ``model`` forms must parse to the form
that a Scalar-by-Scalar sum of their terms gives.
"""

import io
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import Q, Q2, Q3
from gtorsion import registry
from gtorsion.cli import main
from gtorsion.forms import KForm
from gtorsion.parser import ParseError, _parse_form, parse
from gtorsion.structures import KINDS, StructureError

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


def _reference(n, field, terms):
    """The {mask: Scalar} form of the (chain, Scalar) ``terms``, summed
    Scalar by Scalar: a chain with a repeated index is 0, any other is
    sorted with the sign of its inversions, and zero sums are dropped."""
    acc = {}
    for chain, c in terms:
        if len(set(chain)) < len(chain):
            continue
        inversions = sum(a > b for i, a in enumerate(chain) for b in chain[i + 1:])
        mask = sum(1 << (i - 1) for i in chain)
        acc[mask] = acc.get(mask, field.zero()) + (-c if inversions % 2 else c)
    return {m: c for m, c in acc.items() if not c.is_zero()}


def _header(n, field):
    line = f"field sqrt {field.d}\n" if field.d else ""
    return f"dim {n}\n{line}frame {' '.join(f'e{i}' for i in range(1, n + 1))}\n"


@st.composite
def form_lines(draw):
    """(field, n, k, text, terms): a sum of products with k-chains over a
    few indices, so masks repeat and chains come unsorted or with a
    repeated index; some terms come back negated in another order, so
    sums cancel; a sqrt field adds *sqrtd and /sqrtd factors."""
    field = draw(st.sampled_from([Q, Q2, Q3]))
    n = draw(st.integers(3, 8))
    k = draw(st.integers(1, 3))
    pool = st.integers(1, min(n, k + 2))
    terms, parts = [], []
    for _ in range(draw(st.integers(1, 7))):
        chain = draw(st.lists(pool, min_size=k, max_size=k))
        num, den = draw(st.integers(0, 5)), draw(st.integers(1, 4))
        root = draw(st.sampled_from(["", "*", "/"])) if field.d else ""
        c = field.scalar(Fraction(num, den))
        if root:
            c = c * field.sqrt_d() if root == "*" else c / field.sqrt_d()
        copies = [(chain, False)]
        if draw(st.booleans()):  # the same term negated, its chain reversed
            copies.append((chain[::-1], k * (k - 1) // 2 % 2 == 0))
        for ch, neg in copies:
            factor = f"{root}sqrt{field.d}" if root else ""
            parts.append(f"{'-' if neg else '+'} {num}/{den}{factor}*{'^'.join(f'e{i}' for i in ch)}")
            terms.append((ch, -c if neg else c))
    order = draw(st.permutations(range(len(parts))))
    text = " ".join(parts[i] for i in order)
    return field, n, k, text, [terms[i] for i in order]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(form_lines())
@example((Q2, 4, 2, "e1^e2 + e2^e1 + sqrt2*e3^e4 - 2/sqrt2*e4^e3 + e1^e1",
          [((1, 2), Q2.one()), ((2, 1), Q2.one()), ((3, 4), Q2.sqrt_d()), ((4, 3), -Q2.sqrt_d()), ((1, 1), Q2.one())]))
def test_form_lines_parse_to_the_scalar_sum_of_their_terms(case):
    field, n, k, text, terms = case
    form = _parse_form(text, parse(_header(n, field)), k, 1)
    want = _reference(n, field, terms)
    assert (form.n, form.k, form.field) == (n, k, field)
    assert dict(form.coeffs) == want
    assert form == KForm(n, k, field, want)


@pytest.mark.parametrize("field", [Q, Q2, Q3])
@pytest.mark.parametrize("kind, n", [("ah", 4), ("su3", 6), ("g2", 7), ("spin7", 8)])
def test_model_forms_parse_to_the_scalar_sum_of_their_terms(kind, n, field):
    # "= model" and the model terms written out, each chain reversed and its
    # coefficient split into 1/3 and 2/3 with the sign of the reversal
    text = _header(n, field) + f"structure {kind}\n"
    written = _header(n, field) + f"structure {kind}\n"
    refs = []
    for slot, name, degree, model in KINDS[kind].slots:
        terms = model or [((i, i + 1), 1) for i in range(1, n, 2)]
        refs.append(_reference(n, field, [(chain, field.scalar(c)) for chain, c in terms]))
        flip = degree * (degree - 1) // 2 % 2
        parts = [f"{'-' if (c < 0) != flip else '+'} {f}/3*{'^'.join(f'e{i}' for i in chain[::-1])}"
                 for chain, c in terms for f in (1, 2)]
        text += f"{name} = model\n"
        written += f"{name} = {' '.join(parts)}\n"
    for doc in (parse(text), parse(written)):
        got = [doc.structure_forms[slot] for slot, *_ in KINDS[kind].slots]
        assert [dict(form.coeffs) for form in got] == refs
        assert got == [KForm(n, form.k, field, ref) for form, ref in zip(got, refs)]
