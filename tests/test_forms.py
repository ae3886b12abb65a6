"""Exterior algebra layer: examples with independent oracles, then the
randomized property suites."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    Q,
    Q2,
    Q3,
    coeff,
    inverse_metric,
    model_form,
    random_kform,
    random_posdef_geometry,
    random_vector,
    ref_combination,
    ref_d,
    ref_inner,
    ref_interior,
    ref_move,
    ref_star,
    ref_wedge,
)
from gtorsion.frames import LieAlgebraFrame, ce_differential, transform_form
from gtorsion.forms import (
    FrameGeometry,
    GeometryError,
    KForm,
    VectorField,
    _masks,
    _sort_sign,
    contract_2_3,
    form_inner,
    hodge_star,
    interior,
    mask_of,
    musical,
    musical_inv,
    wedge,
)
from gtorsion.scalars import FieldMismatch
from gtorsion.soliton import _flux_square


def kf(n, *terms, field=Q):
    return KForm.from_terms(n, field, terms)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.lists(st.integers(1, 8), max_size=8))
def test_mask_of_reads_the_mask_and_the_sort_parity(indices):
    m, odd = mask_of(indices)
    if len(set(indices)) < len(indices):
        assert (m, odd) == (-1, False)
    else:
        assert m == sum(1 << (i - 1) for i in indices)
        assert odd == (_sort_sign(tuple(indices)) < 0)


def test_from_terms_adds_only_where_a_mask_repeats():
    f = kf(4, ((2, 1), Q2.sqrt_d()), ((3, 4), Fraction(1, 2)), ((1, 2), 3), field=Q2)
    assert dict(f.coeffs) == {0b11: 3 - Q2.sqrt_d(), 0b1100: Q2.scalar(Fraction(1, 2))}
    assert kf(3, ((1, 2), 1), ((2, 1), 1)).is_zero()


def test_from_terms_drops_masks_that_cancel():
    # repeated terms that sum to zero leave no mask in the body or the view,
    # and a form whose every mask cancels is the zero form of its degree
    s = Q2.sqrt_d()
    f = kf(4, ((1, 2), 1 + s), ((3, 4), Fraction(1, 2)), ((2, 1), 1 + s), ((1, 3), s), ((4, 3), Fraction(1, 2)), field=Q2)
    assert (f._den, f._p, f._q, dict(f.coeffs)) == (1, {}, {0b101: 1}, {0b101: s})
    assert f == KForm(4, 2, Q2, {0b101: s})
    z = kf(4, ((1, 2, 3), s), ((2, 1, 3), s), ((3, 4, 1), 2), ((1, 4, 3), 2), field=Q2)
    assert (z.k, z._den, z._p, z._q, dict(z.coeffs)) == (3, 1, {}, {}, {})
    assert z == KForm.zero(4, 3, Q2)


# -- wedge ---------------------------------------------------------------


def test_wedge_basis():
    assert wedge(kf(7, ((1,), 1)), kf(7, ((2,), 1))) == kf(7, ((1, 2), 1))


def test_wedge_repeated_index_is_zero():
    assert wedge(kf(7, ((1, 2), 1)), kf(7, ((1, 3), 1))).is_zero()


def test_wedge_mu_omega_model():
    mu = kf(7, ((7,), 1))
    omega0 = kf(7, ((1, 2), 1), ((3, 4), 1), ((5, 6), 1))
    assert wedge(mu, omega0) == kf(7, ((1, 2, 7), 1), ((3, 4, 7), 1), ((5, 6, 7), 1))


def test_wedge_dimension_mismatch():
    with pytest.raises(GeometryError):
        wedge(kf(6, ((1,), 1)), kf(7, ((2,), 1)))


def test_graded_commutativity(rng):
    cases = 0
    for n in (6, 7, 8):
        for _ in range(12):
            ka = rng.randint(0, n)
            kb = rng.randint(0, n)
            a = random_kform(n, ka, Q, rng)
            b = random_kform(n, kb, Q, rng)
            sign = (-1) ** (ka * kb)
            ab = wedge(a, b)
            ba = wedge(b, a)
            assert ab == (ba if sign > 0 else -ba)
            cases += 1
    assert cases >= 36


# -- interior product ------------------------------------------------------


def test_interior_model_g2():
    phi0 = model_form("g2", 7, Q)
    assert interior(VectorField.basis(7, Q, 7), phi0) == kf(7, ((1, 2), 1), ((3, 4), 1), ((5, 6), 1))


def test_interior_printed_example():
    phi0 = model_form("g2", 7, Q)
    v = VectorField(7, Q, [0, 0, -1, 1, 0, 0, 0])
    expected = kf(7, ((1, 6), 1), ((2, 5), 1), ((3, 7), -1), ((1, 5), 1), ((2, 6), -1), ((4, 7), -1))
    assert interior(v, phi0) == expected


def test_interior_square_zero_and_antisym(rng):
    cases = 0
    for n in (6, 7, 8):
        for _ in range(10):
            k = rng.randint(1, n)
            a = random_kform(n, k, Q, rng)
            x = random_vector(n, Q, rng)
            y = random_vector(n, Q, rng)
            assert interior(x, interior(x, a)).is_zero() if k >= 1 else True
            if k >= 2:
                assert interior(x, interior(y, a)) == -interior(y, interior(x, a))
            cases += 1
    assert cases >= 30


def test_interior_antiderivation(rng):
    cases = 0
    for n in (6, 7):
        for _ in range(12):
            ka = rng.randint(1, 3)
            kb = rng.randint(1, 3)
            a = random_kform(n, ka, Q, rng)
            b = random_kform(n, kb, Q, rng)
            x = random_vector(n, Q, rng)
            lhs = interior(x, wedge(a, b))
            rhs = wedge(interior(x, a), b)
            term = wedge(a, interior(x, b))
            rhs = rhs + (term if ka % 2 == 0 else -term)
            assert lhs == rhs
            cases += 1
    assert cases >= 24


def test_interior_zero_form():
    a = KForm(7, 0, Q, {0: Q.scalar(5)})
    assert interior(VectorField.basis(7, Q, 1), a).is_zero()


# -- hodge star -------------------------------------------------------------


def brute_force_star(b, geom):
    """Oracle: solve alpha ^ X = <alpha, b> vol for X over the basis alphas."""
    n, k = b.n, b.k
    field = b.field
    vol = geom.volume_form()
    full = (1 << n) - 1
    comps = {}
    # alpha = e^I runs over the k-masks; X is determined componentwise since
    # e^I ^ e^{I^c} hits the top cell exactly once
    for im in _masks(n, k):
        alpha = KForm(n, k, field, {im: field.one()})
        target = form_inner(alpha, b, geom) * vol.coeffs.get(full, field.zero())
        comp = full ^ im
        sign = wedge(alpha, KForm(n, n - k, field, {comp: field.one()})).coeffs.get(full)
        comps[comp] = target * sign.inverse() if sign is not None else field.zero()
    return KForm(n, n - k, field, {m: c for m, c in comps.items() if not c.is_zero()})


def test_star_dim6_identity():
    g6 = FrameGeometry(6, Q)
    assert hodge_star(kf(6, ((1, 2), 1)), g6) == kf(6, ((3, 4, 5, 6), 1))


def test_star_phi0_oracle():
    g7 = FrameGeometry(7, Q)
    phi0 = model_form("g2", 7, Q)
    star = hodge_star(phi0, g7)
    assert star == brute_force_star(phi0, g7)
    assert wedge(phi0, star) == g7.volume_form().scale(7)


def test_star_star_identity(rng):
    cases = 0
    for n in (6, 7, 8):
        geoms = [FrameGeometry(n, Q), random_posdef_geometry(n, Q, rng)]
        for geom in geoms:
            for k in range(n + 1):
                a = random_kform(n, k, Q, rng)
                ss = hodge_star(hodge_star(a, geom), geom)
                sign = (-1) ** (k * (n - k))
                assert ss == (a if sign > 0 else -a)
                cases += 1
    assert cases >= 40


def test_star_pairing_identity(rng):
    # alpha ^ star(beta) = <alpha, beta> vol on random pairs, dims 6, 7, 8,
    # identity and randomized positive-definite rational metrics
    cases = 0
    for n in (6, 7, 8):
        for geom in [FrameGeometry(n, Q), random_posdef_geometry(n, Q, rng)]:
            vol = geom.volume_form()
            for k in range(n + 1):
                a = random_kform(n, k, Q, rng)
                b = random_kform(n, k, Q, rng)
                assert wedge(a, hodge_star(b, geom)) == vol.scale(form_inner(a, b, geom))
                cases += 1
    assert cases >= 40


def test_vector_lifts_rational_components_into_its_field():
    # a QQ component of a vector declared over QQ(sqrt3) is lifted, as
    # KForm(...) lifts it, so interior sees one field; a sqrt(d) component of
    # another field is refused
    x = VectorField(3, Q3, [Q.one(), Q.zero(), Q.zero()])
    assert all(c.field is Q3 for c in x.components)
    assert interior(x, KForm(3, 1, Q3, {1: Q3.sqrt_d()})) == KForm(3, 0, Q3, {0: Q3.sqrt_d()})
    with pytest.raises(FieldMismatch):
        VectorField(3, Q3, [Q2.sqrt_d(), 0, 0])


def test_star_nonsquare_determinant_errors():
    g = FrameGeometry(2, Q, [[2, 0], [0, 1]])
    with pytest.raises(GeometryError):
        hodge_star(kf(2, ((1,), 1)), g)


def test_star_rejects_indefinite_metric():
    g = FrameGeometry(2, Q, [[1, 0], [0, -1]])
    with pytest.raises(GeometryError):
        g.check_positive_definite()


# -- inner product ----------------------------------------------------------


def test_inner_model_values():
    g7 = FrameGeometry(7, Q)
    omega0 = kf(7, ((1, 2), 1), ((3, 4), 1), ((5, 6), 1))
    assert form_inner(omega0, omega0, g7) == Q.scalar(3)
    phi0 = model_form("g2", 7, Q)
    assert form_inner(phi0, phi0, g7) == Q.scalar(7)


def test_inner_nonorthonormal_gram(rng):
    # <e^1, e^1> = g^{11} for a non-identity metric
    geom = random_posdef_geometry(4, Q, rng)
    a = kf(4, ((1,), 1))
    assert form_inner(a, a, geom) == inverse_metric(geom)[0][0]


# -- musical isomorphisms ---------------------------------------------------


def test_musical_identity_metric():
    g7 = FrameGeometry(7, Q)
    assert musical(VectorField.basis(7, Q, 7), g7) == kf(7, ((7,), 1))


def test_musical_roundtrip(rng):
    for n in (5, 7):
        geom = random_posdef_geometry(n, Q, rng)
        for _ in range(8):
            x = random_vector(n, Q, rng)
            assert musical_inv(musical(x, geom), geom) == x
            a = random_kform(n, 1, Q, rng)
            assert musical(musical_inv(a, geom), geom) == a


def test_musical_pairing(rng):
    geom = random_posdef_geometry(6, Q, rng)
    x = random_vector(6, Q, rng)
    y = random_vector(6, Q, rng)
    assert form_inner(musical(x, geom), musical(y, geom), geom) == geom.g(x, y)


# -- F^2 and <F,H> ----------------------------------------------------------


def brute_two_form_square(f, geom):
    n = f.n
    out = []
    for i in range(1, n + 1):
        row = []
        for j in range(1, n + 1):
            row.append(
                form_inner(
                    interior(VectorField.basis(n, f.field, i), f),
                    interior(VectorField.basis(n, f.field, j), f),
                    geom,
                )
            )
        out.append(row)
    return out


def test_two_form_square_basic():
    g4 = FrameGeometry(4, Q)
    f = kf(4, ((1, 2), 1))
    sq = _flux_square(f, g4).rows(4)
    expected = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]
    for i in range(4):
        for j in range(4):
            assert sq[i][j] == Q.scalar(expected[i][j])
    assert _flux_square(KForm.zero(4, 2, Q), g4).is_zero()


def test_two_form_square_oracle(rng):
    # F g^{-1} F^T on int bodies against the Gram matrix of the i_{e_i} F,
    # over Q and with sqrt(2) parts in F and g
    for field in (Q, Q2):
        geom = random_posdef_geometry(6, field, rng)
        if field.d:
            geom = FrameGeometry(6, field, [[x + field.sqrt_d() * int(i == j) for j, x in enumerate(row)]
                                            for i, row in enumerate(geom.metric)])
        for _ in range(5):
            f = random_kform(6, 2, field, rng)
            if field.d:
                f = f + random_kform(6, 2, field, rng).scale(field.sqrt_d())
            sq = _flux_square(f, geom).rows(6)
            oracle = brute_two_form_square(f, geom)
            for i in range(6):
                for j in range(6):
                    assert sq[i][j] == oracle[i][j]
                    assert sq[i][j] == sq[j][i]
            # positive semidefinite: diagonal of the Gram matrix is nonnegative
            for i in range(6):
                assert sq[i][i].sign() >= 0


def test_contract_2_3_single():
    g3 = FrameGeometry(3, Q)
    f = kf(3, ((1, 2), 1))
    h = kf(3, ((1, 2, 3), 1))
    assert contract_2_3(f, h, g3) == kf(3, ((3,), 1))
    assert contract_2_3(f, KForm.zero(3, 3, Q), g3).is_zero()


def brute_contract_2_3(f, h, geom):
    """Oracle: raise F with explicit inverse-metric sums and contract."""
    n = f.n
    field = f.field
    ginv = inverse_metric(geom)
    comps = {}
    for z in range(1, n + 1):
        total = field.zero()
        for a in range(1, n + 1):
            for b in range(1, n + 1):
                fab = field.zero()
                for i in range(1, n + 1):
                    for j in range(1, n + 1):
                        c = coeff(f, i, j)
                        if not c.is_zero():
                            fab = fab + ginv[a - 1][i - 1] * ginv[b - 1][j - 1] * c
                hv = coeff(h, a, b, z)
                if not hv.is_zero() and not fab.is_zero():
                    total = total + fab * hv
        total = total * field.scalar(Fraction(1, 2))
        if not total.is_zero():
            comps[1 << (z - 1)] = total
    return KForm(n, 1, field, comps)


def test_contract_2_3_oracle(rng):
    for geom in [FrameGeometry(5, Q), random_posdef_geometry(5, Q, rng)]:
        for _ in range(4):
            f = random_kform(5, 2, Q, rng)
            h = random_kform(5, 3, Q, rng)
            assert contract_2_3(f, h, geom) == brute_contract_2_3(f, h, geom)


# -- integer bodies against Scalar-by-Scalar references ------------------------
#
# A form holds one denominator and int numerators; every kernel below sums
# ints and normalizes once.  Each result must equal the reference summed one
# Scalar at a time, and equal forms must have equal bodies and hashes.

DENS = [1, 2, 3, 4, 5, 6, 7, 12, 35]  # mixed denominators: common factors and coprime ones
# diagonal metrics whose determinant is a square, so the star stays exact
DIAGONALS = {3: [2, Fraction(1, 2), 9], 4: [2, Fraction(1, 2), 3, Fraction(1, 3)],
             5: [2, Fraction(1, 2), 3, Fraction(1, 3), 4], 6: [2, Fraction(1, 2), 3, Fraction(1, 3), 5, Fraction(1, 5)]}


def _values(field):
    rat = st.builds(Fraction, st.integers(-6, 6), st.sampled_from(DENS))
    if field is Q:
        return rat.map(Q.scalar)
    return st.tuples(rat, rat).map(lambda pq: field.scalar(pq[0]) + field.sqrt_d() * pq[1])


def _forms(field, n, k):
    masks = [m for m in range(1 << n) if m.bit_count() == k]
    return st.dictionaries(st.sampled_from(masks), _values(field), max_size=len(masks)).map(
        lambda c: KForm(n, k, field, c))


@st.composite
def body_cases(draw):
    field = draw(st.sampled_from([Q, Q2, Q3]))
    n = draw(st.integers(3, 6))
    k = draw(st.integers(0, n))
    a, a2 = draw(_forms(field, n, k)), draw(_forms(field, n, k))
    b = draw(_forms(field, n, draw(st.integers(0, n - k))))
    x = VectorField(n, field, [draw(_values(field)) for _ in range(n)])
    coframe_d = [draw(_forms(field, n, 2)) for _ in range(n)]
    c = draw(_values(field))
    sign = draw(st.sampled_from([1, -1]))
    zero = field.zero()
    diag = [[field.scalar(DIAGONALS[n][i]) if i == j else zero for j in range(n)] for i in range(n)]
    # g = U^T U, U upper triangular with rational diagonal: det g is a square,
    # and over QQ(sqrt d) the entries of g and g^{-1} carry sqrt d parts
    u = [[field.scalar(draw(st.integers(1, 3))) if i == j else draw(_values(field)) if j > i else zero
          for j in range(n)] for i in range(n)]
    dense = [[sum((u[t][i] * u[t][j] for t in range(n)), zero) for j in range(n)] for i in range(n)]
    geoms = [FrameGeometry(n, field, orientation_sign=sign), FrameGeometry(n, field, diag, orientation_sign=sign),
             FrameGeometry(n, field, dense, orientation_sign=sign)]
    m = [[draw(st.one_of(st.just(zero), _values(field))) for _ in range(n)] for _ in range(n)]
    return field, n, a, a2, b, x, coframe_d, c, geoms, m


def _same(got, want: dict, k):
    """got has the reference coefficients, and the body and hash of the form
    the public constructor builds from them."""
    ref = KForm(got.n, k, got.field, want)
    assert got.k == k and dict(got.coeffs) == want
    assert got == ref and hash(got) == hash(ref)
    assert (got._den, got._p, got._q) == (ref._den, ref._p, ref._q)


@settings(max_examples=40, deadline=None)
@given(body_cases())
def test_bodies_match_scalar_references(case):
    field, n, a, a2, b, x, coframe_d, c, geoms, m = case
    one = field.one()
    _same(transform_form(a, m, field), ref_move(a, m), a.k)
    _same(wedge(a, b), ref_wedge(a, b), a.k + b.k)
    if a.k:
        _same(interior(x, a), ref_interior(x, a), a.k - 1)
    if a.k < n:
        frame = LieAlgebraFrame([f"e{i}" for i in range(1, n + 1)], coframe_d, FrameGeometry(n, field), check_closure=False)
        _same(ce_differential(frame, a), ref_d(coframe_d, a), a.k + 1)
    _same(a + a2, ref_combination(field, [(one, a), (one, a2)]), a.k)
    _same(a - a2, ref_combination(field, [(one, a), (-one, a2)]), a.k)
    _same(-a, ref_combination(field, [(-one, a)]), a.k)
    _same(a.scale(c), ref_combination(field, [(c, a)]), a.k)
    _same(a.scale(-3), ref_combination(field, [(field.scalar(-3), a)]), a.k)
    # kernel outputs as inputs: bodies that no constructor built
    w = wedge(a, b) - wedge(a2, b)
    _same(w, ref_combination(field, [(one, wedge(a, b)), (-one, wedge(a2, b))]), a.k + b.k)
    for geom in geoms:
        ginv = inverse_metric(geom)
        assert [[sum((g * h for g, h in zip(row, col)), field.zero()) for col in zip(*ginv)] for row in geom.metric] == \
            [[one if i == j else field.zero() for j in range(n)] for i in range(n)]
        _same(hodge_star(a, geom), ref_star(a, geom, ginv), n - a.k)
        _same(hodge_star(w, geom), ref_star(w, geom, ginv), n - w.k)
        assert form_inner(a, a2, geom) == ref_inner(a, a2, ginv)
    # equal forms, built different ways, have equal bodies and hashes
    back = (a + a2) - a2
    assert back == a and hash(back) == hash(a) and (back._den, back._p, back._q) == (a._den, a._p, a._q)
    assert (a - a).is_zero() and (a - a) == KForm.zero(n, a.k, field) and hash(a - a) == hash(KForm.zero(n, a.k, field))
