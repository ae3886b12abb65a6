"""The sparse tensor layer against dense component formulas.

Connections are stored by nonzero entries, the Ricci tensor is contracted
off them (checked against the trace of conftest's Riemann reference, itself
checked against a dense formula here), and a diagonal metric takes a
product fast path for Gram minors and the Hodge star.  The
oracles here loop over every index and use only the coframe differentials,
the metric rows and a determinant written out in this file.
"""

from fractions import Fraction

import pytest

from conftest import (
    Q,
    coeff,
    random_kform,
    random_posdef_geometry,
    rotate_frame_and_forms,
    rotation_matrix,
    su2su2_frame,
    su2su2u1_frame,
    Riemann,
    riemann,
    riemann_r,
)
from gtorsion.forms import FrameGeometry, _masks, form_inner, hodge_star, indices_of
from gtorsion.frames import LieAlgebraFrame, bismut_connection, curvature, levi_civita
from gtorsion.parser import parse
from gtorsion.report import form_str, scalar_str
from gtorsion.soliton import scalar_curvature


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


def _dense_connection(frame, h=None):
    """Gamma[i][j][l] from the Koszul formula, plus (1/2) g^{-1} H."""
    n, g = frame.n, frame.geometry.metric
    ginv = _adjugate_inverse(g)
    c = [[[-coeff(frame.coframe_d[k], i + 1, j + 1) for k in range(n)] for j in range(n)] for i in range(n)]

    def low_c(i, j, k):  # <[e_i, e_j], e_k>
        return sum((c[i][j][m] * g[m][k] for m in range(n)), Q.zero())

    half = Q.scalar(Fraction(1, 2))
    gam = [[[Q.zero()] * n for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            low = [(low_c(i, j, k) - low_c(j, k, i) + low_c(k, i, j)) * half for k in range(n)]
            if h is not None:
                low = [x + coeff(h, i + 1, j + 1, k + 1) * half for k, x in enumerate(low)]
            for l in range(n):
                gam[i][j][l] = sum((ginv[l][k] * low[k] for k in range(n)), Q.zero())
    return c, gam


def _dense_curvature(c, gam):
    """R[i][j][k][l] = R^l_{ijk} and Rc[j][k] = sum_a R^a_{ajk}."""
    n = len(gam)
    rng_ = range(n)
    r = [[[[sum((gam[j][k][m] * gam[i][m][l] - gam[i][k][m] * gam[j][m][l] - c[i][j][m] * gam[m][k][l]
                 for m in rng_), Q.zero()) for l in rng_] for k in rng_] for j in rng_] for i in rng_]
    ric = [[sum((r[a][j][k][a] for a in rng_), Q.zero()) for k in rng_] for j in rng_]
    return r, ric


@pytest.mark.parametrize("metric", ["identity", "lam2", "spd"])
@pytest.mark.parametrize("base", [su2su2_frame, su2su2u1_frame])
def test_sparse_connections_and_curvature_match_dense_formula(rng, base, metric):
    fr = base()
    fr, _ = rotate_frame_and_forms(fr, [], rotation_matrix(fr.n, rng, planes=2))
    fr = _with_metric(fr, metric, rng)
    n = fr.n
    assert (fr.geometry.diagonal is None) == (metric == "spd")
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
        assert curvature(fr, conn) == ref.ricci == ric


@pytest.mark.parametrize("metric", ["identity", "lam2", "spd"])
def test_scalar_curvature_is_trace_of_full_ricci(rng, metric):
    fr = _with_metric(su2su2u1_frame(), metric, rng)
    n = fr.n
    lc = levi_civita(fr)
    rm = riemann(Riemann(lc))
    ginv = _adjugate_inverse(fr.geometry.metric)
    ricci = [[sum((rm[a][j][k].components[a] for a in range(n)), Q.zero()) for k in range(n)] for j in range(n)]
    assert curvature(fr, lc) == ricci
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
    assert [geom.diagonal is None for geom in geoms] == [False, False, True]
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
