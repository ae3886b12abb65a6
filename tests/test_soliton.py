"""Soliton residuals, weighted scalar curvature, canonical vector,
rigidity and dilatino identities."""

from fractions import Fraction

import pytest

from conftest import (
    Q,
    S3XT4_G2,
    fixture_structure,
    model_form,
    nabla,
    random_kform,
    random_vector,
    su2su2u1_frame,
    with_h,
)
from gtorsion import registry
from gtorsion.forms import FrameGeometry, KForm, VectorField, musical_inv, wedge
from gtorsion.frames import LieAlgebraFrame, levi_civita
from gtorsion.parser import parse
from gtorsion.soliton import (
    PreconditionError,
    canonical_vector,
    divergence,
    g2_rigidity_identity,
    grs_residual,
    parallel_certificate,
    scalar_curvature,
    spin7_dilatino_residual,
    string_grs_residual,
    weighted_scalar,
)
from gtorsion.structures import (
    bismut_torsion,
    g2_assemble,
    torsion_g2,
    torsion_spin7,
)


def abelian(n):
    return LieAlgebraFrame(
        [f"e{i}" for i in range(1, n + 1)],
        [KForm.zero(n, 2, Q)] * n,
        FrameGeometry(n, Q),
    )


def zero_matrix(mat):
    return not mat.entries


# -- GRS residuals -------------------------------------------------------------


@pytest.mark.parametrize("name,factor", [
    ("nonintG2", 1),
    ("nonintG2nonclosedLee", 1),
    ("nonintSpin7OneA", Fraction(7, 6)),
    ("nonintSpin7Two", Fraction(7, 6)),
])
def test_grs_residual_vanishes_on_fixtures(name, factor):
    s = fixture_structure(name)
    assert zero_matrix(grs_residual(s, canonical_vector(s)))


def test_grs_residual_abelian_trivial():
    s = with_h(abelian(5), KForm.zero(5, 3, Q))
    assert zero_matrix(grs_residual(s, VectorField.zero(5, Q)))


def test_grs_residual_linear_in_x(rng):
    s = with_h(su2su2u1_frame(Q), random_kform(7, 3, Q, rng, density=0.3))
    x1 = random_vector(7, Q, rng)
    x2 = random_vector(7, Q, rng)

    def res(x):
        return grs_residual(s, x).rows(7)

    r12 = res(x1 + x2)
    r1 = res(x1)
    r2 = res(x2)
    r0 = res(VectorField.zero(7, Q))
    for i in range(7):
        for j in range(7):
            assert (r12[i][j] - r1[i][j] - r2[i][j] + r0[i][j]).is_zero()


def test_string_residual_f_zero_specializes(rng):
    fr = su2su2u1_frame(Q)
    h = random_kform(7, 3, Q, rng, density=0.3)
    s = with_h(fr, h)
    x = random_vector(7, Q, rng)
    s1, s2, s3 = string_grs_residual(s, x, KForm.zero(7, 2, Q))
    base = grs_residual(s, x).rows(7)
    for i in range(7):
        for j in range(7):
            assert s1.rows(7)[i][j] == base[i][j]
    assert s2.is_zero()
    assert s3 == fr.d(h)


def test_bianchi_slot():
    # slot 3 of the string residual is dH + F ^ F
    f = KForm.from_terms(7, Q, [((1, 2), 1), ((4, 5), 1)])
    s = with_h(su2su2u1_frame(Q), KForm.zero(7, 3, Q))
    assert not wedge(f, f).is_zero()
    assert string_grs_residual(s, VectorField.zero(7, Q), f)[2] == wedge(f, f)


# -- weighted scalar -------------------------------------------------------------


def test_weighted_scalar_abelian_zero():
    s = with_h(abelian(6), KForm.zero(6, 3, Q))
    assert weighted_scalar(s, VectorField.zero(6, Q)).is_zero()


def test_weighted_scalar_regression_values():
    # frozen regression constants for the built-in fixtures
    s = fixture_structure("nonintsu3")
    assert weighted_scalar(s, VectorField.zero(6, s.field)) == s.field.scalar(Fraction(68, 3))

    g = fixture_structure("nonintG2")
    assert weighted_scalar(g, canonical_vector(g)) == g.field.scalar(Fraction(11, 6))


def test_scalar_curvature_round_su2_product():
    # de1 = -2 e23 twice: each factor has R = 6 at radius 1/2 scaling
    from conftest import su2su2_frame

    fr = su2su2_frame(Q, scale=-2)
    assert scalar_curvature(fr, levi_civita(fr)) == Q.scalar(12)


def test_frame_calls_on_a_structure_frame_read_its_metric():
    # doubling the three e1 terms of phi makes it induce diag(4, 1, ..., 1)
    # on a frame whose own metric is the identity; a frame-level call on
    # s.frame must use the induced metric (with the identity it gave another
    # Levi-Civita connection and scalar curvature 3).  The structure is
    # assembled directly, since parsing rejects the declared identity.
    text = registry.input_text("nonintG2")
    for term in ("e1^e4^e7", "e1^e2^e3", "e1^e5^e6"):
        assert text.count(term) == 1
        text = text.replace(term, "2*" + term)
    doc = parse(text)
    assert doc.frame().geometry._is_identity
    s = g2_assemble(doc.structure_forms["phi"], doc.frame())
    assert s.geometry.metric == [[Q.scalar(4 if i == j == 0 else int(i == j)) for j in range(7)] for i in range(7)]
    assert levi_civita(s.frame).entries == s.levi_civita.entries
    assert scalar_curvature(s.frame, levi_civita(s.frame)) == scalar_curvature(s.frame, s.levi_civita) == Q.scalar(Fraction(3, 2))


def test_divergence_unimodular_zero(rng):
    fr = su2su2u1_frame(Q)
    for _ in range(5):
        x = random_vector(7, Q, rng)
        assert divergence(fr, x, levi_civita(fr)).is_zero()


# -- canonical vector -------------------------------------------------------------


def test_canonical_vector_g2_fixture():
    s = fixture_structure("nonintG2")
    v = canonical_vector(s)
    assert v == VectorField.basis(7, s.field, 7)
    cert = parallel_certificate(s, v)
    assert cert["parallel"] and cert["norm_sq"] == s.field.one()


def test_canonical_vector_su3_fixture_zero():
    s = fixture_structure("nonintsu3")
    assert canonical_vector(s).is_zero()


def test_canonical_vector_spin7_two_certificate():
    s = fixture_structure("nonintSpin7Two")
    t = torsion_spin7(s)
    v = canonical_vector(s)
    # V = (7/6) theta-sharp
    assert v == musical_inv(t["lee"].scale(Fraction(7, 6)), s.geometry)
    cert = parallel_certificate(with_h(s.frame, bismut_torsion(s)), v)
    assert cert["parallel"]
    assert cert["norm_sq"] == s.field.scalar(4)


@pytest.mark.parametrize("name", registry.names())
def test_parallel_certificate_matches_nabla_of_each_frame_vector(name, rng):
    # one pass over the Bismut symbols gives every nabla_{e_i} V at once
    s = fixture_structure(name)
    basis = [VectorField.basis(s.n, s.field, i) for i in range(1, s.n + 1)]
    for v in [canonical_vector(s), *basis, random_vector(s.n, s.field, rng)]:
        want = all(nabla(s.bismut, e, v).is_zero() for e in basis)
        assert parallel_certificate(s, v) == {"parallel": want, "norm_sq": s.geometry.norm_sq(v)}


def test_canonical_vector_with_df():
    s = fixture_structure("nonintG2")
    df = KForm.from_terms(7, s.field, [((7,), 1)])
    v = canonical_vector(s, df)  # theta-sharp minus df-sharp cancels here
    assert v.is_zero()


# -- rigidity identity -------------------------------------------------------------


def torsion_free_g2():
    return g2_assemble(model_form("g2", 7, Q), abelian(7))


def s3xt4_g2():
    """theta = 0, tau0 = 6/7, strong torsion: su(2) block on (5,6,7)."""
    return parse(S3XT4_G2).structure()


def test_rigidity_torsion_free():
    lhs, rhs = g2_rigidity_identity(torsion_free_g2())
    assert lhs.is_zero() and rhs.is_zero()


def test_rigidity_balanced_strong_example():
    s = s3xt4_g2()
    t = torsion_g2(s)
    assert t["lee"].is_zero()
    assert s.frame.d(bismut_torsion(s)).is_zero()
    lhs, rhs = g2_rigidity_identity(s)
    assert lhs == rhs == Q.one()


def test_rigidity_precondition_violated():
    s = fixture_structure("nonintG2")
    with pytest.raises(PreconditionError):
        g2_rigidity_identity(s)


# -- dilatino -------------------------------------------------------------


@pytest.mark.parametrize("name", ["nonintSpin7OneA", "nonintSpin7Two"])
def test_dilatino_zero_on_fixtures(name):
    s = fixture_structure(name)
    assert spin7_dilatino_residual(s).is_zero()


def test_dilatino_torsion_free_termwise_zero():
    from gtorsion.structures import spin7_assemble

    s = spin7_assemble(model_form("spin7", 8, Q), abelian(8))
    t = torsion_spin7(s)
    assert t["lee"].is_zero() and t["zeta5"].is_zero()
    assert spin7_dilatino_residual(s).is_zero()
