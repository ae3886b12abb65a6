"""Input grammar, CLI behavior, exit codes, report determinism."""

import json
from fractions import Fraction

import pytest

from conftest import Q
from gtorsion import registry
from gtorsion.cli import main
from gtorsion.engine import run_check, run_reduce
from gtorsion.forms import KForm
from gtorsion.parser import ParseError, parse

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
    text = registry.input_text("nonintG2") + "\nvector V = e7\nflux F = e1^e2 - e5^e6\n"
    doc = parse(text)
    assert doc.vector is not None and doc.vector.components[6] == doc.field.one()
    assert doc.flux is not None


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


def test_cli_extend_roundtrip(tmp_path, capsys):
    # reduced data of the closed-Lee fixture: quotient structure with F = 0
    from conftest import fixture_structure
    from gtorsion.reduction import reduce_g2
    from gtorsion.report import form_str
    from gtorsion.structures import bismut_torsion, su3_assemble

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


def test_cli_df_flag(tmp_path, capsys):
    p = tmp_path / "g2.gs"
    p.write_text(registry.input_text("nonintG2"))
    # df = e7 cancels the Lee dual: canonical vector becomes zero
    assert _run_cli(["check", str(p), "--df", "e7", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["canonical_vector"] == "0"


def test_parse_truncated_metric_rows():
    with pytest.raises(ParseError, match="expected 2 rows, got 1"):
        parse("dim 2\nframe a b\nmetric rows\n  2 0\n")


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
        ("dim 3\nframe e1 e2 e3\nd e1 = 1/0*e2^e3\n", [], 2, "division by zero (line 3, col 4)"),
        (registry.input_text("nonintG2"), ["--df", "1/0*e1"], 2, "parse error: division by zero (--df, col 3)"),
        (_SU3_FRAME + "structure su3\nomega = 0\nOmega+ = model\n", [], 3, "omega is degenerate"),
        (_SU3_FRAME + "structure su3\nPsi = model\n", [], 2, "structure su3 has no Psi form (line 4)"),
        (
            "dim 7\nframe e1 e2 e3 e4 e5 e6 e7\nphi = model\nstructure g2\n", [], 2,
            "declare the structure before its phi line (line 3)",
        ),
    ],
    ids=[
        "float-tolerance", "negative-tolerance", "missing-phi", "df-not-closed", "missing-file", "ah-dim-2",
        "zero-divisor-in-file", "zero-divisor-in-df", "model-keeps-other-slot", "slot-of-other-kind",
        "form-before-structure",
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
