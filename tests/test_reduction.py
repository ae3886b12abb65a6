"""Symmetry reduction, theorem verifiers, splitting, central extension."""

from fractions import Fraction

import pytest

from conftest import (
    Q,
    Q2,
    fixture_structure,
    rotation_matrix,
    rotate_frame_and_forms,
    su2su2u1_frame,
)
from gtorsion.forms import (
    FrameGeometry,
    KForm,
    VectorField,
    interior,
    musical,
    musical_inv,
    wedge,
    hodge_star,
)
from gtorsion.frames import (
    LieAlgebraFrame,
    bismut_connection,
    covariant_derivative_oneform,
    curvature,
    levi_civita,
    transform_bilinear,
)
from gtorsion.reduction import (
    ReductionError,
    TransverseSlice,
    adapt_frame,
    central_extend,
    reduce_g2,
    reduce_pair,
    reduce_spin7,
    split_parallel_form,
    splitting_check,
)
from gtorsion.structures import (
    StructureError,
    bismut_torsion,
    g2_assemble,
    model_form,
    spin7_assemble,
    su3_assemble,
    torsion_g2,
    torsion_su3,
)
from gtorsion.soliton import canonical_vector


# -- adapt_frame -------------------------------------------------------------


def test_adapt_frame_coordinate_direction():
    s = fixture_structure("nonintG2")
    ad = adapt_frame(s.frame, VectorField.basis(7, s.field, 7), s.geometry)
    # transverse coframe stays e1..e6, mu is e7
    for i in range(7):
        expected = KForm(7, 1, s.field, {1 << i: s.field.one()})
        assert ad.to_adapted(expected) == KForm(7, 1, s.field, {1 << i: s.field.one()})


def test_adapt_frame_rotated_direction():
    s = fixture_structure("nonintG2nonclosedLee")
    f = s.field
    v = VectorField(7, f, [0, 0, -1, 1, 0, 0, 0])
    ad = adapt_frame(s.frame, v, s.geometry)
    # the last adapted vector is V/|V| = (e4 - e3)/sqrt2, and the complement
    # contains (e3 + e4)/sqrt2
    half_rt2 = f.sqrt_d() * f.scalar(Fraction(1, 2))
    mu = ad.to_adapted(musical(v.scale(f.sqrt_d().inverse() * f.scalar(Fraction(1, 2)).inverse() * f.scalar(Fraction(1, 2))), s.geometry))
    # simpler: the mu coframe element expressed in ambient terms
    amb_mu = ad.to_ambient(KForm(7, 1, f, {1 << 6: f.one()}))
    assert amb_mu == KForm(7, 1, f, {1 << 3: half_rt2, 1 << 2: -half_rt2})
    found = False
    for i in range(6):
        amb = ad.to_ambient(KForm(7, 1, f, {1 << i: f.one()}))
        if amb == KForm(7, 1, f, {1 << 2: half_rt2, 1 << 3: half_rt2}):
            found = True
    assert found


def test_adapt_frame_rejects_nonkilling():
    # every invariant field is Killing for a bi-invariant metric, so use a
    # Heisenberg-type frame where ad is not skew
    d = [KForm.from_terms(7, Q, [((2, 3), 1)])] + [KForm.zero(7, 2, Q)] * 6
    fr = LieAlgebraFrame([f"e{i}" for i in range(1, 8)], d, FrameGeometry(7, Q))
    with pytest.raises(ReductionError, match="Killing"):
        adapt_frame(fr, VectorField.basis(7, Q, 2))


def test_adapt_frame_rejects_zero():
    s = fixture_structure("nonintG2")
    with pytest.raises(ReductionError):
        adapt_frame(s.frame, VectorField.zero(7, s.field), s.geometry)


# -- reduce_pair -------------------------------------------------------------


def test_reduce_pair_roundtrip_identity():
    s = fixture_structure("nonintG2")
    h = bismut_torsion(s)
    v = canonical_vector(s)
    red = reduce_pair(s.frame, h, v, geometry=s.geometry)
    assert red.h == wedge(red.mu, red.flux) + red.h_hat
    # g = mu (x) mu + g^ holds by construction of the adapted orthonormal frame
    assert red.anomaly.is_zero()
    assert interior(red.v, red.h_hat).is_zero()


def test_reduce_pair_requires_unit_or_normalize():
    s = fixture_structure("nonintG2nonclosedLee")
    h = bismut_torsion(s)
    v = canonical_vector(s)  # |V| = sqrt2
    with pytest.raises(ReductionError, match="normalize"):
        reduce_pair(s.frame, h, v, geometry=s.geometry)
    red = reduce_pair(s.frame, h, v, normalize=True, geometry=s.geometry)
    assert red.anomaly.is_zero()


def test_reduce_pair_rejects_nonparallel():
    s = fixture_structure("nonintG2")
    v = VectorField.basis(7, s.field, 1)  # Killing but d mu != i_V H when H = 0
    with pytest.raises(ReductionError, match="parallel"):
        reduce_pair(s.frame, KForm.zero(7, 3, s.field), v, geometry=s.geometry)


def test_reduce_pair_abelian_trivial():
    fr = LieAlgebraFrame(
        [f"e{i}" for i in range(1, 8)],
        [KForm.zero(7, 2, Q)] * 7,
        FrameGeometry(7, Q),
    )
    red = reduce_pair(fr, KForm.zero(7, 3, Q), VectorField.basis(7, Q, 7))
    assert red.flux.is_zero() and red.h_hat.is_zero() and red.anomaly.is_zero()


def test_reduce_pair_basic_checks_oneA():
    s = fixture_structure("nonintSpin7OneA")
    h = bismut_torsion(s)
    v = canonical_vector(s)
    red = reduce_pair(s.frame, h, v, normalize=True, geometry=s.geometry)
    assert interior(red.v, red.h_hat).is_zero()
    assert interior(red.v, s.frame.d(red.h_hat)).is_zero()


# -- split_parallel_form -------------------------------------------------------


def test_split_model_g2():
    phi0 = model_form("g2", 7, Q)
    v = VectorField.basis(7, Q, 7)
    mu = KForm(7, 1, Q, {1 << 6: Q.one()})
    alpha, beta = split_parallel_form(phi0, v, mu)
    assert alpha == KForm.from_terms(7, Q, [((1, 2), 1), ((3, 4), 1), ((5, 6), 1)])
    assert beta == KForm.from_terms(7, Q, [((1, 3, 5), 1), ((1, 4, 6), -1), ((2, 3, 6), -1), ((2, 4, 5), -1)])


def test_split_model_spin7():
    psi0 = model_form("spin7", 8, Q)
    v = VectorField.basis(8, Q, 8)
    mu = KForm(8, 1, Q, {1 << 7: Q.one()})
    alpha, beta = split_parallel_form(psi0, v, mu)
    # beta is the Hodge dual of alpha in the i_V vol orientation of the slice
    alpha7 = KForm(7, 3, Q, dict(alpha.coeffs))
    g7 = FrameGeometry(7, Q, orientation_sign=-1)  # i_{e8} vol = -e^{1..7}
    beta7 = KForm(7, 4, Q, dict(beta.coeffs))
    assert beta7 == hodge_star(alpha7, g7)


def test_split_orthogonal_direction():
    phi = KForm.from_terms(7, Q, [((1, 2, 3), 1)])
    v = VectorField.basis(7, Q, 7)
    mu = KForm(7, 1, Q, {1 << 6: Q.one()})
    alpha, beta = split_parallel_form(phi, v, mu)
    assert alpha.is_zero() and beta == phi


# -- structured reductions ------------------------------------------------------


def test_reduce_g2_fixture_values():
    s = fixture_structure("nonintG2")
    red = reduce_g2(s)
    f = s.field
    assert red.omega == KForm.from_terms(6, f, [((1, 4), 1), ((2, 5), 1), ((3, 6), -1)])
    assert red.omega_plus == KForm.from_terms(
        6, f, [((1, 2, 3), 1), ((1, 5, 6), 1), ((2, 4, 6), -1), ((3, 4, 5), -1)]
    )
    assert red.reduced_torsion.nonzero_names() == ["sigma0", "pi0", "nu3"]
    assert red.reduced_torsion["sigma0"] == f.scalar(Fraction(1, 2))
    assert red.verifier_ok()
    assert all(splitting_check(red).values())


def test_reduce_g2_raw_fixture():
    s = fixture_structure("nonintG2nonclosedLee")
    red = reduce_g2(s, raw=True)
    f = s.field
    assert red.omega == KForm.from_terms(
        7, f, [((1, 6), 1), ((2, 5), 1), ((3, 7), -1), ((1, 5), 1), ((2, 6), -1), ((4, 7), -1)]
    )
    assert red.omega_plus == KForm.from_terms(
        7, f, [((1, 2, 7), 1), ((1, 4, 6), -1), ((2, 4, 5), -1), ((5, 6, 7), 1), ((1, 3, 6), -1), ((2, 3, 5), -1)]
    )
    assert red.flux == KForm.from_terms(7, f, [((5, 6), 1), ((1, 2), -1)])


def test_reduce_g2_nonclosed_verifier():
    s = fixture_structure("nonintG2nonclosedLee")
    red = reduce_g2(s)
    assert red.verifier_ok()
    sp = splitting_check(red)
    assert not any(sp.values())


def test_reduce_g2_rigid_case_errors():
    from test_soliton import s3xt4_g2

    with pytest.raises(ReductionError, match="rigid"):
        reduce_g2(s3xt4_g2())


def test_reduce_spin7_fixture_values():
    s = fixture_structure("nonintSpin7OneA")
    red = reduce_spin7(s)
    assert red.reduced_torsion["tau0"] == s.field.scalar(Fraction(-6, 7))
    assert red.verifier_ok()
    assert not any(splitting_check(red).values())


def test_reduce_spin7_raw_oneA_printed_14_terms():
    s = fixture_structure("nonintSpin7OneA")
    red = reduce_spin7(s, raw=True)
    f = s.field
    c = Fraction(6, 7)
    # i_{theta#} Psi, frame labels e0..e7 at positions 1..8
    expected = KForm.from_terms(8, f, [
        ((2, 3, 4), c), ((2, 3, 5), c), ((1, 2, 6), c), ((1, 3, 6), c),
        ((1, 2, 7), c), ((1, 3, 7), -c), ((4, 6, 7), c), ((5, 6, 7), c),
        ((1, 4, 8), -c), ((1, 5, 8), -c), ((2, 6, 8), c), ((3, 6, 8), -c),
        ((2, 7, 8), -c), ((3, 7, 8), -c),
    ])
    assert red.phi == expected


def test_reduce_spin7_two_raw_and_field_limit():
    s = fixture_structure("nonintSpin7Two")
    red = reduce_spin7(s, raw=True)
    assert len(red.phi.coeffs) == 49
    with pytest.raises(ReductionError, match="sqrt"):
        reduce_spin7(s)


@pytest.mark.parametrize("name", ["nonintG2nonclosedLee", "nonintSpin7OneA"])
def test_change_of_basis_matches_adapted_frame_rebuild(name):
    # The reduction moves the ambient Ricci tensor and nabla df into the
    # adapted frame as B M B^T; the reference rebuilds the connection in the
    # adapted frame of the rescaled unit-|V| geometry.
    s = fixture_structure(name)
    f, n = s.field, s.n
    assert not (s.geometry.norm_sq(canonical_vector(s)) - f.one()).is_zero()
    red = (reduce_g2 if s.kind == "g2" else reduce_spin7)(s)
    ad = red.adapted
    theta = KForm.from_terms(n, f, [((1,), 1), ((3,), 2)])
    theta_ad = ad.to_adapted(theta)
    for conn, rebuilt in (
        (s.levi_civita, levi_civita(ad.frame)),
        (s.bismut, bismut_connection(ad.frame, ad.to_adapted(red.h))),
    ):
        ric = curvature(s.frame, conn).ricci
        assert transform_bilinear(ric, ad.b, f) == curvature(ad.frame, rebuilt).ricci
        nabla_theta = covariant_derivative_oneform(s.frame, conn, theta)
        assert transform_bilinear(nabla_theta, ad.b, f) == covariant_derivative_oneform(
            ad.frame, rebuilt, theta_ad
        )
    # the Levi-Civita Ricci tensor is nonzero, so a transposed B would show
    lc_ric = curvature(s.frame, s.levi_civita).ricci
    assert any(not x.is_zero() for row in lc_ric for x in row)


# -- splitting equivalence on randomized rotations --------------------------------


def test_splitting_equivalence_randomized(rng):
    # the three splitting conditions are ambient statements, so the check
    # runs on the string-ansatz split without building the adapted frame
    cases = 0
    for name in ("nonintG2", "nonintG2nonclosedLee"):
        base = fixture_structure(name)
        for _ in range(6):
            rot = rotation_matrix(7, rng, field=base.field)
            fr2, (phi2,) = rotate_frame_and_forms(base.frame, [base.form("phi")], rot)
            s2 = g2_assemble(phi2, fr2)
            v = canonical_vector(s2)
            red = reduce_pair(fr2, bismut_torsion(s2), v, normalize=True, geometry=s2.geometry)
            sp = splitting_check(red)  # raises if the three disagree
            assert len(set(sp.values())) == 1
            cases += 1
    assert cases == 12


# -- central extension -------------------------------------------------------------


def quotient_su3_of_nonintG2():
    s = fixture_structure("nonintG2")
    red = reduce_g2(s)
    qfr = red.transverse.as_lie_frame()
    qs = su3_assemble(red.omega, red.omega_plus, qfr)
    h_hat = KForm(6, 3, s.field, dict(red.adapted.to_adapted(red.h_hat).coeffs))
    flux = KForm(6, 2, s.field, dict(red.adapted.to_adapted(red.flux).coeffs))
    return s, red, qfr, qs, h_hat, flux


def test_central_extend_roundtrip():
    s, red, qfr, qs, h_hat, flux = quotient_su3_of_nonintG2()
    ext = central_extend(qfr, qs, flux, "g2", h_hat=h_hat)
    assert ext["strong"] and ext["torsion_matches"]
    # the extended structure is the original one up to the frame isomorphism
    # sending the new generator to the last slot
    f = s.field
    n = 7
    a = [[f.zero()] * n for _ in range(n)]
    a[0][6] = f.one()
    for i in range(6):
        a[i + 1][i] = f.one()
    from gtorsion.forms import _mat_inverse
    from gtorsion.frames import transform_form

    phi_ad = red.adapted.to_adapted(s.form("phi"))
    assert transform_form(phi_ad, _mat_inverse(a, f), f) == ext["structure"].form("phi")


def test_central_extend_f_zero_is_product():
    # F = 0: the extension splits as a product (flux-free string ansatz)
    s, red, qfr, qs, h_hat, flux = quotient_su3_of_nonintG2()
    assert flux.is_zero()
    ext = central_extend(qfr, qs, KForm.zero(6, 2, s.field), "g2", h_hat=h_hat)
    ext_s = ext["structure"]
    red2 = reduce_g2(ext_s)
    assert all(splitting_check(red2).values())


def test_central_extend_rejects_wrong_sigma0():
    s = fixture_structure("nonintsu3")  # sigma0 = -2
    with pytest.raises(ReductionError, match="sigma0"):
        central_extend(s.frame, s, KForm.zero(6, 2, s.field), "g2")


def test_central_extend_bianchi_obstruction():
    s, red, qfr, qs, h_hat, flux = quotient_su3_of_nonintG2()
    f = s.field
    bad_flux = KForm.from_terms(6, f, [((2, 3), 1), ((5, 6), 1)])  # closed, F ^ F != 0
    assert qfr.d(bad_flux).is_zero()
    with pytest.raises(ReductionError, match="Bianchi"):
        central_extend(qfr, qs, bad_flux, "g2", h_hat=h_hat)


def test_central_extend_rejects_nonclosed_flux():
    s, red, qfr, qs, h_hat, flux = quotient_su3_of_nonintG2()
    f = s.field
    nonclosed = KForm.from_terms(6, f, [((1, 4), 1)])  # crosses the two factors
    assert not qfr.d(nonclosed).is_zero()
    with pytest.raises(ReductionError, match="closed"):
        central_extend(qfr, qs, nonclosed, "g2", h_hat=h_hat)


def test_central_extend_spin7_target():
    # a balanced constant-type G2 structure extends (flux-free) to a strong
    # torsion Spin(7) structure on the product
    from test_soliton import s3xt4_g2

    s = s3xt4_g2()
    t = torsion_g2(s)
    assert t["lee"].is_zero()
    ext = central_extend(s.frame, s, KForm.zero(7, 2, Q), "spin7")
    assert ext["strong"] and ext["torsion_matches"]
    assert ext["structure"].kind == "spin7"


# -- anomaly on randomized strong-torsion inputs ------------------------------------


def test_anomaly_vanishes_randomized(rng):
    cases = 0
    for name in ("nonintG2", "nonintG2nonclosedLee"):
        base = fixture_structure(name)
        for _ in range(8):
            rot = rotation_matrix(7, rng, field=base.field)
            fr2, (phi2,) = rotate_frame_and_forms(base.frame, [base.form("phi")], rot)
            s2 = g2_assemble(phi2, fr2)
            red = reduce_pair(fr2, bismut_torsion(s2), canonical_vector(s2), normalize=True, geometry=s2.geometry)
            assert red.anomaly.is_zero()
            cases += 1
    base = fixture_structure("nonintSpin7OneA")
    for _ in range(4):
        rot = rotation_matrix(8, rng, field=base.field)
        fr2, (psi2,) = rotate_frame_and_forms(base.frame, [base.form("psi")], rot)
        s2 = spin7_assemble(psi2, fr2)
        red = reduce_pair(fr2, bismut_torsion(s2), canonical_vector(s2), normalize=True, geometry=s2.geometry)
        assert red.anomaly.is_zero()
        cases += 1
    assert cases == 20
