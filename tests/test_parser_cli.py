"""Input grammar, CLI behavior, exit codes, report determinism."""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import PSI_ALL_PLUS, Q, Q2, Q3, S3XT4_G2, sheared_text
from gtorsion import cli, engine, registry
from gtorsion.cli import main
from gtorsion.engine import run_check
from gtorsion.forms import GeometryError, KForm
from gtorsion.frames import FrameError
from gtorsion.parser import ParseError, _parse_form, parse
from gtorsion.reduction import ReductionError
from gtorsion.report import form_str, scalar_str
from gtorsion.scalars import GTorsionError, NotRepresentable
from gtorsion.soliton import PreconditionError
from gtorsion.structures import StructureError

SRC = Path(__file__).resolve().parent.parent / "src"

MINI = """
# toy frame
dim 3
frame e1 e2 e3
d e1 = -2*e2^e3
d e2 = -2*e3^e1
d e3 = -2*e1^e2
metric identity
"""


def test_parse_frame_and_equations():
    doc = parse(MINI)
    fr = doc.frame()
    assert fr.labels == ("e1", "e2", "e3")
    assert fr.coframe_d[0] == KForm.from_terms(3, doc.field, [((2, 3), -2)])


def test_parse_repeated_label_wedges_to_zero():
    doc = parse("dim 3\nframe e1 e2 e3\nd e1 = e1^e1\n")
    assert doc.frame().coframe_d[0].is_zero()


def test_parse_unknown_label_reports_line():
    with pytest.raises(ParseError) as err:
        parse("dim 3\nframe e1 e2 e3\nd e1 = e4^e2\n")
    assert "line 3" in str(err.value)


def test_parse_jacobi_failure_names_generator():
    text = (
        "dim 3\nframe e1 e2 e3\n"
        "d e1 = -2*e2^e3\nd e2 = -2*e3^e1\nd e3 = -2*e1^e2 + e1^e3\n"
    )
    doc = parse(text)
    with pytest.raises(ParseError, match="Jacobi"):
        doc.frame()


def test_parse_malformed_scalar_location():
    with pytest.raises(ParseError) as err:
        parse("dim 3\nframe e1 e2 e3\nd e1 = sqrt5*e2^e3\n")
    assert "sqrt5" in str(err.value)


def test_parse_quadratic_coefficients():
    text = (
        "dim 2\nfield sqrt 3\nframe e1 e2\nd e1 = (sqrt3+1)/7 * e1^e2\nd e2 = 0\n"
    )
    doc = parse(text)
    c = doc.frame().coframe_d[0].coeffs[0b11]
    f = doc.field
    assert c == (f.sqrt_d() + f.one()) * f.scalar(Fraction(1, 7))


def test_parse_orientation_permutation_sign():
    text = "dim 3\nframe e1 e2 e3\nd e1 = 0\nd e2 = 0\nd e3 = 0\norientation e2 e1 e3\n"
    doc = parse(text)
    assert doc.orientation_sign == -1


def test_parse_metric_rows():
    text = (
        "dim 2\nframe e1 e2\nd e1 = 0\nd e2 = 0\nmetric rows\n4 0\n0 1\n"
    )
    doc = parse(text)
    assert doc.frame().geometry.metric[0][0] == doc.field.scalar(4)


def test_parse_vector_and_flux_blocks():
    text = registry.input_text("nonintG2") + "\nflux F = e1^e2 - e5^e6\n"
    assert parse(text).flux is not None
    # V is the canonical vector, computed from the structure and df
    with pytest.raises(ParseError, match="vector V is computed from the structure and df, not read"):
        parse(text + "vector V = e7\n")


def test_run_check_fixture_registry_all_green():
    for name in registry.names():
        rep, failures = registry.run_example(name)
        assert not failures, failures


def test_json_reports_byte_stable():
    for name in registry.names():
        r1, f1 = registry.run_example(name)
        r2, f2 = registry.run_example(name)
        assert r1.to_json() == r2.to_json()
        assert not f1 and not f2


def test_parse_serialize_roundtrip():
    extra = "\nvector df = 0\nflux F = e1^e2 - e5^e6\n"
    for name in registry.names():
        text = registry.input_text(name)
        if name == "nonintG2":
            text += extra
        doc1 = parse(text)
        doc2 = parse(doc1.serialize())
        assert doc2.dim == doc1.dim and doc2.labels == doc1.labels
        assert doc2.field == doc1.field
        for lab in doc1.labels:
            a = doc1.coframe.get(lab)
            b = doc2.coframe.get(lab)
            assert (a is None and b is None) or a == b
        assert doc2.structure_kind == doc1.structure_kind
        for slot, form in doc1.structure_forms.items():
            assert doc2.structure_forms[slot] == form
        assert (doc1.flux is None) == (doc2.flux is None)
        if doc1.flux is not None:
            assert doc2.flux == doc1.flux
        # a second serialize is byte-identical (canonical form)
        assert doc2.serialize() == doc1.serialize()


_ACCEPTED = {**{name: registry.input_text(name) for name in registry.names()}, "s3xt4": S3XT4_G2}


@settings(max_examples=10, deadline=None, derandomize=True)
@given(name=st.sampled_from(sorted(_ACCEPTED)), step=st.integers(0, 3), df=st.booleans())
@example(name="nonintsu3", step=0, df=False)  # metric identity, SU(3)
@example(name="s3xt4", step=0, df=True)  # metric identity, G2
@example(name="nonintSpin7Two", step=2, df=False)  # non-diagonal metric rows
def test_accepted_document_round_trips_to_the_same_structure_and_report(name, step, df):
    # step 0 keeps the declared frame; a band shear declares non-diagonal rows
    text = sheared_text(_ACCEPTED[name], step) if step else _ACCEPTED[name]
    doc1 = parse(text + ("vector df = 0\n" if df else ""))
    assert ("metric identity" in text) == (step == 0)
    doc2 = parse(doc1.serialize())
    s1, s2 = doc1.structure(), doc2.structure()
    assert (s2.kind, s2.frame.labels, s2.frame.coframe_d) == (s1.kind, s1.frame.labels, s1.frame.coframe_d)
    assert (s2.geometry.metric, s2.geometry.orientation_sign) == (s1.geometry.metric, s1.geometry.orientation_sign)
    assert s2.forms == s1.forms
    assert run_check(doc2).to_json() == run_check(doc1).to_json()
    assert doc2.serialize() == doc1.serialize()


def test_missing_d_line_means_closed():
    body = "dim 4\nframe e1 e2 e3 e4\nd e1 = e3^e4\n{}structure ah\nomega = e1^e2 + e3^e4\n"
    omitted = parse(body.format(""))
    explicit = parse(body.format("d e4 = 0\n"))
    assert omitted.frame().coframe_d[3].is_zero()
    assert run_check(omitted).to_json() == run_check(explicit).to_json()


def test_parse_ah_structure():
    text = registry.input_text("nonintsu3").split("structure su3")[0]
    text += "structure ah\nomega = eta1^eta2 + eta3^eta4 + eta5^eta6\n"
    doc = parse(text)
    s = doc.structure()
    assert s.kind == "ah"
    rep = run_check(doc)
    assert rep.data["lee_form"] == "0"
    assert rep.data["nijenhuis_zero"] is False
    assert rep.data["strong_torsion"] is True


def test_cli_raw_lee_flag(tmp_path, capsys):
    p = tmp_path / "lee.gs"
    p.write_text(registry.input_text("nonintG2nonclosedLee"))
    assert _run_cli(["reduce", str(p), "--raw-lee", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert "raw_reduction" in data and "reduction" not in data


def _run_cli(args):
    return main(args)


def test_cli_check_exit_zero(tmp_path, capsys):
    p = tmp_path / "su3.gs"
    p.write_text(registry.input_text("nonintsu3"))
    assert _run_cli(["check", str(p), "--format", "json"]) == 0
    out = capsys.readouterr().out
    data = json.loads(out)
    assert data["schema"] == "report_v1"
    assert data["torsion"]["sigma0"] == "-2"


def test_cli_reduce_oneA(tmp_path, capsys):
    p = tmp_path / "oneA.gs"
    p.write_text(registry.input_text("nonintSpin7OneA"))
    assert _run_cli(["reduce", str(p), "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["reduction"]["torsion"]["tau0"] == "-6/7"
    assert not any(data["reduction"]["splitting"].values())


def test_cli_parse_error_exit_two(tmp_path, capsys):
    p = tmp_path / "bad.gs"
    p.write_text("dim 3\nframe e1 e2 e3\nd e1 = e9^e2\n")
    assert _run_cli(["check", str(p)]) == 2


def test_cli_structure_error_exit_three(tmp_path):
    # valid frame, invalid structure normalization
    text = registry.input_text("nonintsu3").replace(
        "Omega+ = eta1^eta3^eta5", "Omega+ = 2*eta1^eta3^eta5"
    )
    import tempfile, os

    fd, path = tempfile.mkstemp(suffix=".gs")
    os.write(fd, text.encode())
    os.close(fd)
    try:
        assert _run_cli(["check", path]) == 3
    finally:
        os.unlink(path)


@pytest.mark.parametrize("d5, d6", [("e1^e2", "e1^e3"), ("e1^e3", "e1^e2")])
def test_cli_check_su3_lambda2_8_torsion_fails_on_nijenhuis(tmp_path, capsys, d5, d6):
    # model SU(3) forms with sigma2 != 0 (first) or pi2 != 0 (second): the
    # torsion classes exist, and check names the real obstruction
    p = tmp_path / "nil.gs"
    p.write_text("\n".join([
        "dim 6", "frame e1 e2 e3 e4 e5 e6", *(f"d e{i} = 0" for i in range(1, 5)),
        f"d e5 = {d5}", f"d e6 = {d6}", "metric identity", "structure su3",
        "omega = e1^e2 + e3^e4 + e5^e6",
        "Omega+ = e1^e3^e5 - e1^e4^e6 - e2^e3^e6 - e2^e4^e5",
    ]) + "\n")
    assert _run_cli(["check", str(p)]) == 3
    assert capsys.readouterr().err == (
        "structure error: Nijenhuis tensor not skew: no skew-torsion connection exists\n"
    )


def test_cli_example_mode_green(capsys):
    for name in registry.names():
        assert _run_cli(["example", "--name", name, "--format", "json"]) == 0
        capsys.readouterr()


def test_cli_example_mode_detects_drift(monkeypatch, capsys):
    bad = dict(registry.EXPECTATIONS)
    bad["nonintsu3"] = dict(bad["nonintsu3"])
    bad["nonintsu3"]["torsion.sigma0"] = "-3"
    monkeypatch.setattr(registry, "EXPECTATIONS", bad)
    assert _run_cli(["example", "--name", "nonintsu3"]) == 1
    err = capsys.readouterr().err
    assert "drift" in err


def test_cli_emit_input(capsys):
    assert _run_cli(["example", "--name", "nonintG2", "--emit-input"]) == 0
    out = capsys.readouterr().out
    assert "structure g2" in out


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_cli_example_in_a_fresh_interpreter(fmt):
    # -S: no site hooks preload json, so this runs the path that imports it
    # when the report is written
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run(
        [sys.executable, "-S", "-m", "gtorsion.cli", "example", "--name", "nonintsu3", "--format", fmt],
        env=env, capture_output=True, text=True,
    )
    assert (out.returncode, out.stderr) == (0, "")
    rep, failures = registry.run_example("nonintsu3")
    assert failures == []
    assert out.stdout == (rep.to_json() if fmt == "json" else rep.to_text()) + "\n"


@pytest.mark.parametrize("name", registry.names())
def test_input_text_is_the_bundled_file(name):
    assert registry.input_text(name) == (SRC / "gtorsion" / "data" / f"{name}.gs").read_text(encoding="utf-8")


def test_input_text_unknown_name():
    with pytest.raises(KeyError, match="nosuch"):
        registry.input_text("nosuch")


def test_cli_extend_roundtrip(tmp_path, capsys):
    # reduced data of the closed-Lee fixture: quotient structure with F = 0
    from conftest import fixture_structure
    from gtorsion.reduction import reduce_g2
    from gtorsion.report import form_str

    s = fixture_structure("nonintG2")
    red = reduce_g2(s)
    qfr = red.transverse.as_lie_frame()
    labels = list(qfr.labels)
    lines = ["dim 6", "frame " + " ".join(labels)]
    for i, lab in enumerate(labels):
        lines.append(f"d {lab} = {form_str(qfr.coframe_d[i], labels)}")
    lines.append("metric identity")
    lines.append("structure su3")
    lines.append("omega = " + form_str(red.omega, labels))
    lines.append("Omega+ = " + form_str(red.omega_plus, labels))
    lines.append("flux F = 0")
    p = tmp_path / "reduced.gs"
    p.write_text("\n".join(lines) + "\n")
    assert _run_cli(["extend", str(p), "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["kind"] == "g2"
    assert data["strong_torsion"] is True
    assert data["torsion_matches_formula"] is True


def _rows_of_two(text):
    # phi and (omega, Omega+) induce the identity, so declared rows of 2 I
    # disagree with the structure's metric
    n = parse(text).dim
    rows = "".join(" ".join("2" if i == j else "0" for j in range(n)) + "\n" for i in range(n))
    return text.replace("metric identity\n", "metric rows\n" + rows)


def _e1_terms_doubled(text):
    # phi with its three e1 terms doubled induces diag(4, 1, ..., 1), which
    # disagrees with the declared identity (this input once exited 0)
    for term in ("e1^e4^e7", "e1^e2^e3", "e1^e5^e6"):
        text = text.replace(term, "2*" + term)
    return text


@pytest.mark.parametrize("name, declare", [
    ("nonintG2", _rows_of_two), ("nonintsu3", _rows_of_two), ("nonintG2", _e1_terms_doubled),
], ids=["nonintG2", "nonintsu3", "nonintG2-identity"])
def test_cli_declared_metric_must_equal_induced_one_line_exit_3(tmp_path, capsys, name, declare):
    text = registry.input_text(name)
    assert "metric identity\n" in text
    p = tmp_path / "declared.gs"
    p.write_text(declare(text))
    assert _run_cli(["check", str(p)]) == 3
    assert capsys.readouterr().err == (
        "structure error: declared frame metric disagrees with the structure-induced metric\n"
    )


def _psi_minus_model(text):
    doc = parse(text)
    return form_str(-doc.structure_forms["psi"], list(doc.labels))


@pytest.mark.parametrize("step", [0, 1])
@pytest.mark.parametrize("psi", [lambda text: PSI_ALL_PLUS, _psi_minus_model], ids=["all-plus", "minus-model"])
@pytest.mark.parametrize("command", ["check", "reduce"])
def test_cli_spin7_form_outside_the_model_orbit_one_line_exit_3(tmp_path, capsys, command, psi, step):
    # the all-plus form has a 9-dimensional stabilizer, minus the model form
    # a Spin(7) one but the other orbit; check exited 0 on both before, with
    # torsion_oracle_agree false; the band shear (step 1) makes the flat of
    # e1 and e2 differ from e^1 and e^2
    text = registry.input_text("nonintSpin7OneA")
    text = text.replace("Psi = model", "Psi = " + psi(text))
    p = tmp_path / "psi.gs"
    p.write_text(sheared_text(text, step) if step else text)
    assert _run_cli([command, str(p)]) == 3
    assert capsys.readouterr().err == (
        "structure error: Psi is not in the Spin(7) orbit: star(beta ^ Psi) != -3 beta on the first two frame vectors\n"
    )


def test_cli_df_flag(tmp_path, capsys):
    p = tmp_path / "g2.gs"
    p.write_text(registry.input_text("nonintG2"))
    # df = e7 cancels the Lee dual: canonical vector becomes zero
    assert _run_cli(["check", str(p), "--df", "e7", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["canonical_vector"] == "0"


@pytest.mark.parametrize("flags, reduction_error", [
    (["--df", "e1"], "df is not basic: carries a mu component"),
    (["--df", "e1", "--raw-lee"], None),
    ([], "rigid case: V = 0, no reduction"),
], ids=["reduce", "raw-lee", "rigid"])
def test_cli_reduce_g2_zero_lee_reports_each_pass(tmp_path, capsys, flags, reduction_error):
    # S^3 x T^4 has theta = 0, so the raw presentation along theta^sharp has
    # no gauge covector; its error does not stop the normalized pass along
    # V = -grad f, which stops because V = -e1 moves f, or because V = 0
    p = tmp_path / "s3xt4.gs"
    p.write_text(S3XT4_G2)
    assert _run_cli(["reduce", str(p), *flags, "--format", "json"]) == 0
    out = capsys.readouterr()
    data = json.loads(out.out)
    assert out.err == ""
    assert data["raw_reduction_error"] == (
        "raw reduction needs theta != 0: the gauge covector mu_g = e^j0 / (theta#)^j0 is undefined"
    )
    assert data.get("reduction_error") == reduction_error
    assert "raw_reduction" not in data and "reduction" not in data


@pytest.mark.parametrize("text, message", [
    (registry.input_text("nonintsu3"), "no canonical reduction for kind 'su3'"),
    ("dim 7\nframe e1 e2 e3 e4 e5 e6 e7\nd e1 = e2^e3\nstructure g2\nphi = model\n",
     "tau2 != 0: no skew-torsion connection for this G2 structure"),
], ids=["su3", "g2-tau2"])
def test_cli_reduce_structure_error_exits_3(tmp_path, capsys, text, message):
    p = tmp_path / "in.gs"
    p.write_text(text)
    assert _run_cli(["reduce", str(p)]) == 3
    assert capsys.readouterr().err == f"structure error: {message}\n"


def test_cli_reduce_spin7_zero_lee_raw_phi_zero(tmp_path, capsys):
    # only the G2 remainder Omega+ needs the gauge covector: i_0 Psi = 0
    p = tmp_path / "r8.gs"
    p.write_text("dim 8\nframe e1 e2 e3 e4 e5 e6 e7 e8\nstructure spin7\nPsi = model\n")
    assert _run_cli(["reduce", str(p), "--df", "e1", "--raw-lee", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["raw_reduction"] == {"phi": "0", "flux": "0"}


def test_metric_row_sum_in_parentheses_is_one_entry():
    doc = parse("dim 2\nframe a b\nmetric rows\n  (1 + 2) -1\n  -1 1\n")
    assert doc.metric == [[Q.scalar(3), Q.scalar(-1)], [Q.scalar(-1), Q.one()]]


def test_metric_row_sign_before_a_number_starts_an_entry():
    doc = parse("dim 2\nframe a b\nmetric rows\n  2 -1\n  - 1 1\n")
    assert doc.metric == [[Q.scalar(2), Q.scalar(-1)], [Q.scalar(-1), Q.one()]]


def test_parse_truncated_metric_rows():
    with pytest.raises(ParseError, match="expected 2 rows, got 1"):
        parse("dim 2\nframe a b\nmetric rows\n  2 0\n")


_E3 = "dim 3\nframe e1 e2 e3\n"


@pytest.mark.parametrize(
    "text, message",
    [
        # a second chain in one product was dropped (e3^e4 kept, exit 0) or
        # misread as one chain of degree 1
        ("dim 4\nframe e1 e2 e3 e4\nd e1 = e2^e3*e3^e4\n", "a product holds at most one wedge chain (line 3, col 14)"),
        (_E3 + "d e1 = e2*e3\n", "a product holds at most one wedge chain (line 3, col 11)"),
        (_E3 + "d e1 = e1^\n", "expected a frame label after '^' (line 3, col 11)"),
        (_E3 + "d e1 = e1^2\n", "expected a frame label after '^' (line 3, col 11)"),
        (_E3 + "d e1 = e2^e3 +   )\n", "expected a coefficient or frame label (line 3, col 18)"),
        (_E3 + "d e1 = e2^e3 +\n", "expected a coefficient or frame label (line 3, col 15)"),
        (_E3 + "  d e1 = (1 + 2*e2^e3\n", "parentheses and divisors hold scalars only, not the frame label 'e2' (line 3, col 17)"),
        (_E3 + "d e1 = (-1/4)*(e2^e3)\n", "parentheses and divisors hold scalars only, not the frame label 'e2' (line 3, col 16)"),
        (_E3 + "d e1 = e2^e3/e1\n", "parentheses and divisors hold scalars only, not the frame label 'e1' (line 3, col 14)"),
        (_E3 + "d e1 = e2^e3 ? e1\n", "unexpected character '?' (line 3, col 14)"),
        ("dim 2\nframe a b\nmetric rows\n  1 0  # first row\n  0 1/0\n", "division by zero (line 5, col 7)"),
        ("dim 2\nframe a b\nmetric rows\n\n  1 0\n  0 (1\n", "expected ')' (line 6, col 7)"),
        # read as the two entries 1 and 2 before
        ("dim 2\nframe a b\nmetric rows\n  1 + 2\n  0 1\n",
         "metric row entries are separated by spaces: write a sum as (a + b) (line 4, col 5)"),
        # read as the two entries 1 and -2 before
        ("dim 2\nframe a b\nmetric rows\n  1 - 2\n  0 1\n",
         "metric row entries are separated by spaces: write a difference as (a - b) (line 4, col 5)"),
    ],
    ids=["two-chains", "two-labels", "trailing-wedge", "wedge-number", "token-after-spaces",
         "trailing-plus", "chain-in-parentheses", "form-in-parentheses", "label-divisor", "bad-character",
         "metric-zero-divisor", "metric-open-parenthesis", "metric-binary-plus", "metric-binary-minus"],
)
def test_expression_errors_name_the_token_and_its_column_in_the_line(tmp_path, capsys, text, message):
    p = tmp_path / "input.gs"
    p.write_text(text)
    assert _run_cli(["check", str(p)]) == 2
    assert capsys.readouterr().err == f"parse error: {message}\n"


def _header(n, field):
    return f"dim {n}\n" + (f"field sqrt {field.d}\n" if field.d else "") + "frame " + " ".join(f"e{i}" for i in range(1, n + 1)) + "\n"


_FIELDS = st.sampled_from([Q, Q2, Q3])
_INTS = st.one_of(st.integers(-9, 9), st.integers(-10**30, 10**30))


@st.composite
def _scalars(draw, field):
    den = draw(st.one_of(st.integers(1, 9), st.integers(1, 10**20)))
    c = field.scalar(Fraction(draw(_INTS), den))
    return c + field.sqrt_d() * Fraction(draw(_INTS), den) if field.d else c


@st.composite
def _forms(draw):
    field, n = draw(_FIELDS), draw(st.integers(1, 8))
    k = draw(st.integers(1, n))  # a bare scalar (degree 0) is no input
    masks = [m for m in range(1 << n) if m.bit_count() == k]
    coeffs = {m: draw(_scalars(field)) for m in draw(st.lists(st.sampled_from(masks), max_size=6, unique=True))}
    return field, KForm(n, k, field, coeffs)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_forms())
def test_form_str_parses_back_to_the_same_form(case):
    field, form = case
    labels = [f"e{i}" for i in range(1, form.n + 1)]
    doc = parse(_header(form.n, field))
    assert _parse_form(form_str(form, labels), doc, form.k, 1) == form


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.data())
def test_scalar_str_metric_rows_parse_back_to_the_same_matrix(data):
    field, n = data.draw(_FIELDS), data.draw(st.integers(1, 8))
    rows = [[data.draw(_scalars(field)) for _ in range(n)] for _ in range(n)]
    text = _header(n, field) + "metric rows\n" + "".join(" ".join(f"({scalar_str(x)})" for x in row) + "\n" for row in rows)
    assert parse(text).metric == rows


_SU3_FRAME = "dim 6\nframe e1 e2 e3 e4 e5 e6\n"


@pytest.mark.parametrize(
    "text, flags, code, message",
    [
        ("dim 3\nfield float 1e-9\nframe e1 e2 e3\n", [], 2, "the float backend was removed: use 'field rational' or 'field sqrt d' (line 2)"),
        ("dim 3\nfield float -1\nframe e1 e2 e3\n", [], 2, "the float backend was removed: use 'field rational' or 'field sqrt d' (line 2)"),
        ("dim 7\nframe e1 e2 e3 e4 e5 e6 e7\nstructure g2\n", [], 2, "needs a 'phi = ...' line"),
        (registry.input_text("nonintG2"), ["--df", "e1"], 2, "closed 1-form"),
        (None, [], 2, "cannot read"),
        ("dim 2\nframe e1 e2\nstructure ah\nomega = e1^e2\n", [], 3, "even n >= 4"),
        ("dim 3\nframe e1 e2 e3\nd e1 = 1/0*e2^e3\n", [], 2, "division by zero (line 3, col 10)"),
        (registry.input_text("nonintG2"), ["--df", "1/0*e1"], 2, "parse error: division by zero (--df, col 3)"),
        (_SU3_FRAME + "structure su3\nomega = 0\nOmega+ = model\n", [], 3, "omega is degenerate"),
        (_SU3_FRAME + "structure su3\nPsi = model\n", [], 2, "structure su3 has no Psi form (line 4)"),
        (
            "dim 7\nframe e1 e2 e3 e4 e5 e6 e7\nphi = model\nstructure g2\n", [], 2,
            "declare the structure before its phi line (line 3)",
        ),
        (
            registry.input_text("nonintG2"), ["--backend", "float"], 2,
            "parse error: unrecognized arguments: --backend float; the float backend was removed",
        ),
        (registry.input_text("nonintG2"), ["--tol", "1e-9"], 2, "--tol 1e-9; the float backend was removed"),
        (registry.input_text("nonintG2"), ["--format", "xml"], 2, "parse error: argument --format: invalid choice"),
        (_SU3_FRAME + "d e1 = 0\nd e2 = e1^e3\nd e1 = e2^e3\n", [], 2, "repeated statement 'd e1' (line 5)"),
        (_SU3_FRAME + "structure su3\nstructure su3\n", [], 2, "repeated statement 'structure' (line 4)"),
        (_SU3_FRAME + "structure su3\nomega = model\nOmega+ = model\nomega = model\n", [], 2, "repeated statement 'omega' (line 6)"),
        (_SU3_FRAME + "vector df = 0\nvector df = e1\n", [], 2, "repeated statement 'vector df' (line 4)"),
        (
            _SU3_FRAME + "vector V = e1\nvector V = e1\n", [], 2,
            "vector V is computed from the structure and df, not read: remove the line (line 3)",
        ),
        (_SU3_FRAME + "flux F = 0\nflux F = e1^e2\n", [], 2, "repeated statement 'flux F' (line 4)"),
    ],
    ids=[
        "float-tolerance", "negative-tolerance", "missing-phi", "df-not-closed", "missing-file", "ah-dim-2",
        "zero-divisor-in-file", "zero-divisor-in-df", "model-keeps-other-slot", "slot-of-other-kind",
        "form-before-structure", "removed-backend-flag", "removed-tol-flag", "bad-flag-value",
        "repeated-d", "repeated-structure", "repeated-form-slot", "repeated-df", "repeated-v", "repeated-flux",
    ],
)
def test_cli_bad_input_one_line_and_exit_code(tmp_path, capsys, text, flags, code, message):
    p = tmp_path / "input.gs"
    if text is not None:
        p.write_text(text)
    assert _run_cli(["check", str(p), *flags]) == code
    err = capsys.readouterr().err
    assert message in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("command", ["run_check", "run_reduce", "run_extend"])
@pytest.mark.parametrize("metric", ["induced", "disagreeing"])
def test_engine_rejects_a_df_block_that_is_not_closed(command, metric):
    # every command reads the potential before the structure, so in-process
    # callers get the CLI's parse error, ahead of a structure error too
    text = registry.input_text("nonintG2") + "vector df = e1\nflux F = 0\n"
    if metric == "disagreeing":  # phi with its e1 terms doubled induces diag(4, 1, ..., 1)
        for term in ("e1^e4^e7", "e1^e2^e3", "e1^e5^e6"):
            text = text.replace(term, "2*" + term)
        with pytest.raises(StructureError, match="declared frame metric disagrees"):
            parse(text).structure()
    with pytest.raises(ParseError) as info:
        getattr(engine, command)(parse(text))
    assert str(info.value) == "df must be a closed 1-form: d(df) != 0"


def test_cli_removed_flag_before_subcommand_one_line(capsys):
    assert _run_cli(["--backend", "float", "check", "input.gs"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("parse error: ") and err.endswith("; the float backend was removed\n")
    assert len(err.strip().splitlines()) == 1


_AH4 = "dim 4\nframe e1 e2 e3 e4\nd e1 = e3^e4\nstructure ah\nomega = e1^e2 + e3^e4\n"


@pytest.mark.parametrize(
    "text, message",
    [
        (_AH4 + "field sqrt 2\n", "declare field before frame, metric rows and forms (line 6)"),
        ("dim 2\nmetric rows\n1 0\n0 1\nfield sqrt 2\nframe a b\n", "declare field before frame, metric rows and forms (line 5)"),
        ("flux F = 0\n" + _AH4, "declare the frame before a 2-form (line 1)"),
        ("vector df = 0\n" + _AH4, "declare the frame before a 1-form (line 1)"),
        ("dim 4\nflux F = a^b\nframe a b c d\n", "declare the frame before a 2-form (line 2)"),
        ("dim 3\nframe a b c\ndim 2\n", "repeated statement 'dim' (line 3)"),
        ("dim 3\nframe a b c\nd a = b^c\nframe x y z\n", "repeated statement 'frame' (line 4)"),
        ("structure ah\nomega = model\ndim 4\nframe a b c d\n", "declare dim before the omega model (line 2)"),
    ],
    ids=["field-after-forms", "field-after-metric", "flux-before-dim", "df-before-dim",
         "flux-before-frame", "repeated-dim", "repeated-frame", "model-before-dim"],
)
def test_statement_order_one_line_exit_2(tmp_path, capsys, text, message):
    p = tmp_path / "input.gs"
    p.write_text(text)
    assert _run_cli(["check", str(p)]) == 2
    assert capsys.readouterr().err == f"parse error: {message}\n"


def test_model_needs_dim_only():
    # a model form is built from dim alone, so it may precede the frame
    doc = parse("dim 4\nstructure ah\nomega = model\nframe e1 e2 e3 e4\n")
    assert run_check(doc).data["kind"] == "ah"


def test_unexpected_exception_is_one_line_exit_4(tmp_path, capsys, monkeypatch):
    def broken(doc, df=None):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "run_check", broken)
    p = tmp_path / "su3.gs"
    p.write_text(registry.input_text("nonintsu3"))
    assert _run_cli(["check", str(p)]) == 4
    assert capsys.readouterr().err == "internal error: RuntimeError: boom\n"


def test_input_errors_share_one_base_class():
    for exc in (ParseError, FrameError):
        assert issubclass(exc, GTorsionError) and (exc.exit_code, exc.label) == (2, "parse error")
    for exc in (GeometryError, StructureError, ReductionError, PreconditionError, NotRepresentable):
        assert issubclass(exc, GTorsionError) and (exc.exit_code, exc.label) == (3, "structure error")
