"""Exterior algebra layer: examples with independent oracles, then the
randomized property suites."""

from fractions import Fraction

import pytest

from conftest import (
    Q,
    Q2,
    random_kform,
    random_posdef_geometry,
    random_vector,
)
from gtorsion.forms import (
    FrameGeometry,
    GeometryError,
    KForm,
    VectorField,
    _masks,
    contract_2_3,
    form_inner,
    hodge_star,
    interior,
    musical,
    musical_inv,
    two_form_square,
    wedge,
)
from gtorsion.structures import model_form


def kf(n, *terms, field=Q):
    return KForm.from_terms(n, field, terms)


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
    a = KForm.scalar_form(7, Q, 5)
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
    assert form_inner(a, a, geom) == geom.inverse_metric()[0][0]


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
    sq = two_form_square(f, g4)
    expected = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]
    for i in range(4):
        for j in range(4):
            assert sq[i][j] == Q.scalar(expected[i][j])
    zero = two_form_square(KForm.zero(4, 2, Q), g4)
    assert all(x.is_zero() for row in zero for x in row)


def test_two_form_square_oracle(rng):
    geom = random_posdef_geometry(6, Q, rng)
    for _ in range(5):
        f = random_kform(6, 2, Q, rng)
        sq = two_form_square(f, geom)
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
    ginv = geom.inverse_metric()
    comps = {}
    for z in range(1, n + 1):
        total = field.zero()
        for a in range(1, n + 1):
            for b in range(1, n + 1):
                fab = field.zero()
                for i in range(1, n + 1):
                    for j in range(1, n + 1):
                        c = f.coeff(i, j)
                        if not c.is_zero():
                            fab = fab + ginv[a - 1][i - 1] * ginv[b - 1][j - 1] * c
                hv = h.coeff(a, b, z)
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
