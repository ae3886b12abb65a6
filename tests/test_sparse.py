"""The sparse tensor layer against dense component formulas.

Connections are stored by nonzero entries, the Ricci tensor is contracted
off them (checked against the trace of conftest's Riemann reference, itself
checked against a dense formula here), and a diagonal metric takes a
product fast path for Gram minors and the Hodge star.  The
oracles here loop over every index and use only the coframe differentials,
the metric rows and a determinant or an inverse written out in this file.
No bench input has a metric off the diagonal, so the analysis of the
fixtures is also checked here in a band-sheared frame (``metric rows``) and
over QQ(sqrt2) in a frame with sqrt2 entries.
"""

from fractions import Fraction

import pytest

from conftest import (
    Q,
    Q2,
    coeff,
    coframe_text,
    is_diagonal,
    random_kform,
    random_posdef_geometry,
    rotate_frame_and_forms,
    rotation_matrix,
    sheared_text,
    su2su2_frame,
    su2su2u1_frame,
    Riemann,
    riemann,
    riemann_r,
)
from gtorsion import registry
from gtorsion.forms import FrameGeometry, _masks, form_inner, hodge_star, indices_of, musical
from gtorsion.frames import LieAlgebraFrame, bismut_connection, covariant_derivative_oneform, curvature, levi_civita
from gtorsion.parser import parse
from gtorsion.report import form_str, scalar_str
from gtorsion.soliton import canonical_vector, grs_residual, scalar_curvature, weighted_scalar
from gtorsion.structures import KINDS, solve_skew_torsion


def _det(m):
    """Laplace expansion along the first row, skipping zero entries."""
    if not m:
        return Q.one()
    acc = Q.zero()
    for j, x in enumerate(m[0]):
        if not x.is_zero():
            minor = [row[:j] + row[j + 1:] for row in m[1:]]
            term = x * _det(minor)
            acc = acc + (term if j % 2 == 0 else -term)
    return acc


def _adjugate_inverse(m):
    """m^{-1} as the adjugate over the determinant: entry (i, j) is the
    (j, i) cofactor of m divided by det m."""
    n, det = len(m), _det(m)

    def cofactor(i, j):
        c = _det([row[:j] + row[j + 1:] for r, row in enumerate(m) if r != i])
        return c if (i + j) % 2 == 0 else -c

    return [[cofactor(j, i) / det for j in range(n)] for i in range(n)]


def _parity(seq):
    return sum(1 for a in range(len(seq)) for b in range(a + 1, len(seq)) if seq[a] > seq[b]) % 2


def _with_metric(frame, kind, rng):
    """The frame's structure equations with the identity, lam^2 I, or a
    random non-diagonal SPD metric given as ``metric rows`` input."""
    n = frame.n
    if kind == "identity":
        return frame
    if kind == "lam2":
        lam2 = Q.scalar(4)
        metric = [[lam2 if i == j else Q.zero() for j in range(n)] for i in range(n)]
        return LieAlgebraFrame(frame.labels, frame.coframe_d, FrameGeometry(n, Q, metric))
    metric = random_posdef_geometry(n, Q, rng).metric
    labels = list(frame.labels)
    lines = [f"dim {n}", "frame " + " ".join(labels)]
    lines += [f"d {lab} = {form_str(d, labels)}" for lab, d in zip(labels, frame.coframe_d)]
    lines += ["metric rows"] + ["  " + " ".join(f"({scalar_str(x)})" for x in row) for row in metric]
    return parse("\n".join(lines) + "\n").frame()


def _gauss_inverse(m, field):
    """m^{-1} by Gauss-Jordan elimination on Scalars."""
    n = len(m)
    rows = [list(row) + [field.one() if i == j else field.zero() for j in range(n)] for i, row in enumerate(m)]
    for col in range(n):
        piv = next(r for r in range(col, n) if not rows[r][col].is_zero())
        rows[col], rows[piv] = rows[piv], rows[col]
        inv = rows[col][col].inverse()
        rows[col] = [x * inv for x in rows[col]]
        for r in range(n):
            if r != col and not rows[r][col].is_zero():
                f = rows[r][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[col])]
    return [row[n:] for row in rows]


def _dense_connection(frame, h=None):
    """Gamma[i][j][l] from the Koszul formula, plus (1/2) g^{-1} H."""
    n, g, field = frame.n, frame.geometry.metric, frame.field
    zero = field.zero()
    ginv = _gauss_inverse(g, field)
    c = [[[-coeff(frame.coframe_d[k], i + 1, j + 1) for k in range(n)] for j in range(n)] for i in range(n)]

    def low_c(i, j, k):  # <[e_i, e_j], e_k>
        return sum((c[i][j][m] * g[m][k] for m in range(n)), zero)

    half = field.scalar(Fraction(1, 2))
    gam = [[[zero] * n for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            low = [(low_c(i, j, k) - low_c(j, k, i) + low_c(k, i, j)) * half for k in range(n)]
            if h is not None:
                low = [x + coeff(h, i + 1, j + 1, k + 1) * half for k, x in enumerate(low)]
            for l in range(n):
                gam[i][j][l] = sum((ginv[l][k] * low[k] for k in range(n)), zero)
    return c, gam


def _dense_curvature(c, gam):
    """R[i][j][k][l] = R^l_{ijk} and Rc[j][k] = sum_a R^a_{ajk}."""
    n, zero = len(gam), gam[0][0][0].field.zero()
    rng_ = range(n)
    r = [[[[sum((gam[j][k][m] * gam[i][m][l] - gam[i][k][m] * gam[j][m][l] - c[i][j][m] * gam[m][k][l]
                 for m in rng_), zero) for l in rng_] for k in rng_] for j in rng_] for i in rng_]
    ric = [[sum((r[a][j][k][a] for a in rng_), zero) for k in rng_] for j in rng_]
    return r, ric


def _dense_ricci(c, gam):
    """Rc[j][k] = sum_{a,m} (Gamma^m_{jk} Gamma^a_{am} - Gamma^m_{ak} Gamma^a_{jm}
    - c^m_{aj} Gamma^a_{mk}), the trace of R^a_{ajk} without the rest of R."""
    n, zero = len(gam), gam[0][0][0].field.zero()
    return [[sum((gam[j][k][m] * gam[a][m][a] - gam[a][k][m] * gam[j][m][a] - c[a][j][m] * gam[m][k][a]
                  for a in range(n) for m in range(n)), zero) for k in range(n)] for j in range(n)]


def _dense_nabla_form(gam, a, i):
    """(nabla_i a)(e_K) = -sum_m sum_s Gamma^s_{i k_m} a(.., e_s, ..) at each
    increasing K, as a {mask: Scalar} of its nonzero values."""
    n, out = len(gam), {}
    for mask in _masks(n, a.k):
        ks = [x - 1 for x in indices_of(mask)]
        v = sum((-gam[i][k][s] * coeff(a, *[t + 1 for t in ks[:m]], s + 1, *[t + 1 for t in ks[m + 1:]])
                 for m, k in enumerate(ks) for s in range(n) if not gam[i][k][s].is_zero()), a.field.zero())
        if not v.is_zero():
            out[mask] = v
    return out


@pytest.mark.parametrize("metric", ["identity", "lam2", "spd"])
@pytest.mark.parametrize("base", [su2su2_frame, su2su2u1_frame])
def test_sparse_connections_and_curvature_match_dense_formula(rng, base, metric):
    fr = base()
    fr, _ = rotate_frame_and_forms(fr, [], rotation_matrix(fr.n, rng, planes=2))
    fr = _with_metric(fr, metric, rng)
    n = fr.n
    assert is_diagonal(fr.geometry) == (metric != "spd")
    h = random_kform(n, 3, Q, rng, density=0.3)
    lc = levi_civita(fr)
    for conn, dense_h in ((lc, None), (bismut_connection(fr, h, lc), h)):
        c, gam = _dense_connection(fr, dense_h)
        assert all(not v.is_zero() for v in conn.entries.values())
        for i in range(n):
            for j in range(n):
                assert list(conn.gamma[i][j].components) == gam[i][j]
        ref = Riemann(conn)
        r, ric = _dense_curvature(c, gam)
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    assert list(riemann_r(ref, i, j, k).components) == r[i][j][k]
        assert (not ref.entries) == all(x.is_zero() for a in r for b in a for cc in b for x in cc)
        # the Ricci tensor contracted off the symbols is the reference's trace
        assert curvature(fr, conn).rows(n) == ref.ricci == ric


@pytest.mark.parametrize("metric", ["identity", "lam2", "spd"])
def test_scalar_curvature_is_trace_of_full_ricci(rng, metric):
    fr = _with_metric(su2su2u1_frame(), metric, rng)
    n = fr.n
    lc = levi_civita(fr)
    rm = riemann(Riemann(lc))
    ginv = _adjugate_inverse(fr.geometry.metric)
    ricci = [[sum((rm[a][j][k].components[a] for a in range(n)), Q.zero()) for k in range(n)] for j in range(n)]
    assert curvature(fr, lc).rows(n) == ricci
    full = sum((ginv[j][k] * ricci[j][k] for j in range(n) for k in range(n)), Q.zero())
    assert scalar_curvature(fr, lc) == full
    assert not full.is_zero()


def _diagonal_geometries(n, rng):
    lam2 = Q.scalar(Fraction(9, 4))
    squares = [Q.scalar(Fraction(rng.randint(1, 5), rng.randint(1, 4)) ** 2) for _ in range(n)]
    return [
        FrameGeometry(n, Q, [[lam2 if i == j else Q.zero() for j in range(n)] for i in range(n)], orientation_sign=-1),
        FrameGeometry(n, Q, [[squares[i] if i == j else Q.zero() for j in range(n)] for i in range(n)]),
    ]


@pytest.mark.parametrize("n", [6, 7])
def test_star_and_inner_match_minor_determinants(rng, n):
    geoms = _diagonal_geometries(n, rng) + [random_posdef_geometry(n, Q, rng)]
    assert [not is_diagonal(geom) for geom in geoms] == [False, False, True]
    for geom in geoms:
        ginv = _adjugate_inverse(geom.metric)
        rho = _det(geom.metric).sqrt() * geom.orientation_sign
        grams = {}

        def gram(a, b):
            if (a, b) not in grams:
                grams[a, b] = _det([[ginv[i - 1][j - 1] for j in indices_of(b)] for i in indices_of(a)])
            return grams[a, b]

        for k in range(n + 1):
            masks = list(_masks(n, k))
            x = random_kform(n, k, Q, rng, density=0.5)
            y = random_kform(n, k, Q, rng, density=0.5)
            inner = sum((x.coeffs[a] * y.coeffs[b] * gram(a, b) for a in x.coeffs for b in y.coeffs), Q.zero())
            assert form_inner(x, y, geom) == inner
            # star(x) = rho sum_I eps(I, I^c) <e^I, x> e^{I^c}
            star = hodge_star(x, geom)
            full = (1 << n) - 1
            for i in masks:
                up = sum((x.coeffs[b] * gram(i, b) for b in x.coeffs), Q.zero())
                eps = -1 if _parity(indices_of(i) + indices_of(full ^ i)) else 1
                assert star.coeffs.get(full ^ i, Q.zero()) == up * rho * eps
            assert hodge_star(star, geom) == x.scale((-1) ** (k * (n - k)))


def _off_the_diagonal(name, frame):
    """The fixture in the band-sheared frame of step 1 (``metric rows``
    over its own field), or over QQ(sqrt2) in the frame f = A e with sqrt2
    entries on and above the diagonal of A."""
    text = registry.input_text(name)
    if frame == "sheared":
        return parse(sheared_text(text, 1)).structure()
    text = text.replace("field rational", "field sqrt 2")
    n = parse(text).dim
    r2, one, zero = Q2.sqrt_d(), Q2.one(), Q2.zero()
    a = [[(r2 if i % 2 else one) if i == j else r2 if j == i + 1 else zero for j in range(n)] for i in range(n)]
    return parse(coframe_text(text, a)).structure()


@pytest.mark.parametrize("frame", ["sheared", "sqrt2"])
@pytest.mark.parametrize("name", ["nonintsu3", "nonintG2", "nonintSpin7OneA"])
def test_fixture_analysis_matches_dense_formulas_off_the_diagonal(name, frame):
    # Levi-Civita, Bismut, both Ricci traces, nabla V^flat, the weighted
    # scalar and the oracle's H against dense formulas on a metric that is
    # not diagonal
    s = _off_the_diagonal(name, frame)
    fr, field, n, geom = s.frame, s.field, s.n, s.geometry
    g, zero = geom.metric, field.zero()
    assert not is_diagonal(geom)
    assert any(x.q for row in g for x in row) == (frame == "sqrt2")
    v = canonical_vector(s)
    vs = v.components
    flat = [sum((g[i][j] * vs[i] for i in range(n)), zero) for j in range(n)]
    for conn, h in ((s.levi_civita, None), (s.bismut, s.h)):
        c, gam = _dense_connection(fr, h)
        assert dict(conn.entries) == {
            (i, j, l): x for i in range(n) for j in range(n) for l, x in enumerate(gam[i][j]) if not x.is_zero()
        }
        ric = _dense_ricci(c, gam)
        assert curvature(fr, conn).rows(n) == ric
        nabla_flat = [[-sum((flat[t] * gam[i][j][t] for t in range(n)), zero) for j in range(n)] for i in range(n)]
        assert covariant_derivative_oneform(fr, conn, musical(v, geom)).rows(n) == nabla_flat
        if h is None:
            ginv = _gauss_inverse(g, field)
            r = sum((ginv[j][k] * ric[j][k] for j in range(n) for k in range(n)), zero)
            div = sum((vs[j] * gam[i][j][i] for i in range(n) for j in range(n)), zero)
    assert scalar_curvature(fr, s.levi_civita) == r
    x2 = sum((flat[j] * vs[j] for j in range(n)), zero)
    h2 = form_inner(s.h, s.h, geom)
    assert weighted_scalar(s, v) == r - h2 * field.scalar(Fraction(1, 12)) + div * field.scalar(2) - x2
    assert grs_residual(s, v).is_zero()  # every fixture is a soliton
    # the oracle's H: the dense Bismut connection of it preserves every
    # structure form
    h = solve_skew_torsion(s)
    assert h == s.h
    _, gam = _dense_connection(fr, h)
    for slot, *_ in KINDS[s.kind].slots:
        for i in range(n):
            assert _dense_nabla_form(gam, s.forms[slot], i) == {}, (slot, i)
