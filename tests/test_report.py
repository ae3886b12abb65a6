"""The report boundary.  ``form_str`` and ``vector_str`` read a form's or a
vector's int body and write what the Scalar-view rendering wrote
(``conftest.ref_form_str``) without building the view, and
``Report.to_json`` writes the bytes of ``json.dumps(data,
ensure_ascii=False, indent=2)``."""

import gc
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import Q, Q2, Q3, S3XT4_G2, ref_form_str, ref_vector_str
from gtorsion import engine, registry
from gtorsion.forms import KForm, VectorField
from gtorsion.parser import parse
from gtorsion.report import Report, form_str, vector_str

FIELDS = [Q, Q2, Q3]


def special_coefficients(field):
    """+-1, +-sqrt d and p +- q sqrt d with and without a denominator, and
    rationals with and without one."""
    one = field.one()
    out = [one, -one, field.scalar(5), field.scalar(-2), field.scalar(Fraction(3, 2)), field.scalar(Fraction(-2, 7))]
    if field.d:
        r = field.sqrt_d()
        out += [r, -r, r * 3, -r * Fraction(1, 2), r * Fraction(4, 3), 1 + r, 2 - r, -1 - r, r - 5,
                (3 + r * 2) / 4, (1 - r) / 2, (-1 - r * 3) / 6, (r - 5) / 6]
    return out


def labels_of(n):
    return [f"e{i}" for i in range(1, n + 1)]


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_body_strings_match_the_scalar_view_rendering(field):
    coeffs = special_coefficients(field)
    for n, k in ((4, 1), (4, 2), (5, 3)):
        masks = [m for m in range(1 << n) if m.bit_count() == k]
        labels = labels_of(n)
        for shift in range(len(coeffs)):
            form = KForm(n, k, field, {m: coeffs[(i + shift) % len(coeffs)] for i, m in enumerate(masks)})
            # one term alone, then every term; a negated form is a fresh body
            for x in (KForm(n, k, field, {masks[0]: coeffs[shift]}), form, -form):
                assert form_str(x, labels) == ref_form_str(x, labels)
    for c in coeffs:
        bare = KForm(3, 0, field, {0: c})  # a 0-form is a bare scalar
        assert form_str(bare, labels_of(3)) == ref_form_str(bare, labels_of(3)) == str(c)
        v = VectorField(4, field, [c, 0, -c, c * 2])
        assert vector_str(v, labels_of(4)) == ref_vector_str(v, labels_of(4))
    assert form_str(KForm.zero(4, 2, field), labels_of(4)) == "0"
    assert form_str(KForm.zero(4, 0, field), labels_of(4)) == "0"
    assert vector_str(VectorField.zero(4, field), labels_of(4)) == "0"


def test_body_strings_pin_the_sign_and_bracket_rules():
    r = Q3.sqrt_d()
    form = KForm(3, 1, Q3, {1: Q3.one(), 2: -r, 4: (1 - r) / 2})
    assert form_str(form, labels_of(3)) == "e1 - sqrt3*e2 + (1/2-1/2*sqrt3)*e3"
    assert form_str(-form, ["a", "b", "c"]) == "-a + sqrt3*b + (-1/2+1/2*sqrt3)*c"
    assert form_str(KForm(3, 0, Q3, {0: -1 - r}), labels_of(3)) == "-1-sqrt3"
    assert vector_str(VectorField(3, Q, [0, Fraction(-3, 4), 1]), labels_of(3)) == "-3/4*e2 + e3"


@st.composite
def summed_forms(draw):
    """x + y for drawn forms x, y of one degree: the sum's body has one
    denominator, so its entries are not each in lowest terms."""
    field, n = draw(st.sampled_from(FIELDS)), draw(st.integers(1, 8))
    k = draw(st.integers(0, n))
    masks = [m for m in range(1 << n) if m.bit_count() == k]
    pool = special_coefficients(field)

    def form():
        picked = draw(st.lists(st.sampled_from(masks), max_size=6, unique=True))
        return KForm(n, k, field, {m: draw(st.sampled_from(pool)) * Fraction(draw(st.integers(-9, 9)), draw(st.integers(1, 12)))
                                   for m in picked})

    return form() + form()


@settings(max_examples=80, deadline=None, derandomize=True)
@given(summed_forms())
def test_drawn_body_strings_match_the_scalar_view_rendering(form):
    labels = labels_of(form.n)
    got = form_str(form, labels)
    assert form._view is None  # written off the body: no Scalar view built
    assert got == ref_form_str(form, labels)
    if form.k == 1:
        v = VectorField(form.n, form.field, [form.coeffs.get(1 << i, 0) for i in range(form.n)])
        assert vector_str(-v, labels) == ref_vector_str(-v, labels)


def test_form_str_builds_no_scalar_view():
    doc = parse(registry.input_text("nonintG2nonclosedLee"))
    s = doc.structure()
    fresh = [-s.h, -s.lee, *(-d for d in s.frame.coframe_d)]
    v = -VectorField(2, Q2, [1, Q2.sqrt_d()])
    assert all(x._view is None for x in (*fresh, v))
    for x in fresh:
        form_str(x, list(doc.labels))
    vector_str(v, ["a", "b"])
    assert all(x._view is None for x in (*fresh, v))


def reports():
    """Every fixture's example report, then a check, reduce and extend."""
    for name in registry.names():
        yield registry.run_example(name)[0]
    yield engine.run_check(parse(registry.input_text("nonintsu3")))
    yield engine.run_reduce(parse(registry.input_text("nonintG2nonclosedLee")))
    yield engine.run_reduce(parse(registry.input_text("nonintSpin7Two")))  # with a reduction_error
    yield engine.run_extend(parse(S3XT4_G2 + "flux F = 0\n"))


def test_to_json_matches_json_dumps_on_reports():
    commands = []
    for rep in reports():
        assert rep.to_json() == json.dumps(rep.data, ensure_ascii=False, indent=2)
        commands.append(rep.data["command"])
    assert set(commands) == {"check", "reduce", "extend"}


def test_to_json_leaves_no_cyclic_garbage():
    # json.dumps with an indent builds its encoder from closures that refer
    # to each other, 33 objects of cyclic garbage per call on nonintG2
    rep, _ = registry.run_example("nonintG2")
    rep.to_json()  # first use: imports
    gc.collect()
    gc.disable()
    try:
        rep.to_json()
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("name", registry.names())
def test_to_text_leaves_no_cyclic_garbage(name):
    # a writer that recursed through a closure left a function-cell cycle
    # behind every call, 5 objects on nonintG2
    rep, _ = registry.run_example(name)
    gc.collect()
    gc.disable()
    try:
        rep.to_text()
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_to_text_keeps_the_flat_indentation():
    # pins the text bytes the writer has always produced, for compatibility,
    # not a layout to keep: a depth-2 key (c) and the list items get the same
    # two spaces as their parent's siblings (b, e), so the text cannot tell
    # nesting from siblings
    nested = Report().set("a", {"b": {"c": [1, "x"], "d": True}, "e": []}).set("f", "g")
    assert nested.to_text() == "a:\n  b:\n  c:\n  - 1\n  - x\n  d: True\n  e:\nf: g"


# strings with quotes, backslashes, control characters and non-ASCII text
_TEXT = st.text(st.one_of(st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f é√ωΩ'), st.characters()), max_size=8)
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | _TEXT,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_TEXT, inner, max_size=4),
    max_leaves=16,
)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.dictionaries(_TEXT, _JSON, max_size=5), _JSON)
def test_to_json_matches_json_dumps_on_drawn_values(data, value):
    rep = Report()
    for k, v in data.items():
        rep.set(k, v)
    rep.set("value", value).set("empty", [{}, [], ""])
    assert rep.to_json() == json.dumps(rep.data, ensure_ascii=False, indent=2)


@pytest.mark.parametrize("value, name", [(1.5, "float"), ({"x": [Q.one()]}, "Scalar"), ({1}, "set"),
                                         (KForm.zero(2, 1, Q), "KForm"), ((1, 2), "tuple")])
def test_to_json_rejects_other_value_types_naming_the_type(value, name):
    with pytest.raises(TypeError, match=f"Object of type {name} is not JSON serializable"):
        Report().set("key", value).to_json()
