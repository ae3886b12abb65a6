"""Lie frame layer: Chevalley-Eilenberg differential, connections,
curvature, codifferential; oracles are written independently here."""

from fractions import Fraction

import pytest

from conftest import (
    Q,
    Q3,
    bracket,
    cartan_three_form,
    covariant_derivative_form,
    heisenberg_frame,
    random_kform,
    rotation_matrix,
    rotate_frame_and_forms,
    su2_frame,
    su2su2_frame,
    su2su2u1_frame,
    fixture_doc,
    inverse_metric,
    lowered,
    metric_compatible,
    nabla,
    Riemann,
    riemann_r,
    solution,
    structure_constants,
    torsion_form,
)
from gtorsion.forms import (
    FrameGeometry,
    KForm,
    VectorField,
    form_inner,
    interior,
)
from gtorsion.frames import (
    FrameError,
    LieAlgebraFrame,
    bismut_connection,
    change_frame,
    codifferential,
    covariant_derivative_oneform,
    curvature,
    levi_civita,
)
from gtorsion.scalars import _ints


# -- construction + differential -------------------------------------------


def test_jacobi_gate_rejects_bad_constants():
    d = [
        KForm.from_terms(3, Q, [((2, 3), -2)]),
        KForm.from_terms(3, Q, [((3, 1), -2)]),
        KForm.from_terms(3, Q, [((1, 2), -2), ((1, 3), 1)]),  # breaks d^2 = 0
    ]
    with pytest.raises(FrameError):
        LieAlgebraFrame(["e1", "e2", "e3"], d, FrameGeometry(3, Q))


def test_jacobi_gate_walks_the_closure_once(monkeypatch):
    # the defect that sets ``closed`` also names the failing coframe element
    d = [
        KForm.from_terms(3, Q, [((2, 3), -2)]),
        KForm.from_terms(3, Q, [((3, 1), -2)]),
        KForm.from_terms(3, Q, [((1, 2), -2), ((1, 3), 1)]),
    ]
    walks = []
    orig = LieAlgebraFrame._closure_defect
    monkeypatch.setattr(LieAlgebraFrame, "_closure_defect", lambda self: walks.append(self) or orig(self))
    with pytest.raises(FrameError, match=r"^d\^2 e\^e1 = .* != 0: structure equations violate the Jacobi identity$"):
        LieAlgebraFrame(["e1", "e2", "e3"], d, FrameGeometry(3, Q))
    assert len(walks) == 1
    unchecked = LieAlgebraFrame(["e1", "e2", "e3"], d, FrameGeometry(3, Q), check_closure=False)
    assert not unchecked.closed and len(walks) == 2


def test_jacobi_gate_reads_the_sqrt_part_of_d_squared():
    # the gate sums d^2 on the frame's ints: over QQ(sqrt3), d e1 = sqrt3 e34
    # and d e4 = e12 give d^2 e^1 = -sqrt3 e123, a pure sqrt(3) part, while
    # su(2) scaled by sqrt3 has d^2 = 0 with every product a multiple of 3
    r3 = Q3.sqrt_d()
    d = [KForm.from_terms(4, Q3, [((3, 4), r3)]), KForm.zero(4, 2, Q3), KForm.zero(4, 2, Q3),
         KForm.from_terms(4, Q3, [((1, 2), 1)])]
    with pytest.raises(FrameError, match=r"^d\^2 e\^e1 = KForm\(4,3; \(-sqrt3\)e123\) != 0: structure equations violate"):
        LieAlgebraFrame(["e1", "e2", "e3", "e4"], d, FrameGeometry(4, Q3))
    su2 = [KForm.from_terms(3, Q3, [(chain, r3)]) for chain in ((2, 3), (3, 1), (1, 2))]
    assert LieAlgebraFrame(["e1", "e2", "e3"], su2, FrameGeometry(3, Q3)).closed


def test_d_squared_zero_all_degrees(rng):
    frames = [su2su2_frame(), su2su2u1_frame(), heisenberg_frame()]
    cases = 0
    for base in frames:
        for _ in range(7):
            rot = rotation_matrix(base.n, rng, planes=1)
            fr, _ = rotate_frame_and_forms(base, [], rot)
            for k in range(base.n):
                a = random_kform(base.n, k, Q, rng, density=0.3)
                assert fr.d(fr.d(a)).is_zero()
                cases += 1
    assert cases >= 100


def test_eta_frame_is_rotation_of_product_frame():
    # the stored eta-coframe equations agree with the transform
    # eta = A e of the S^3 x S^3 frame
    e_frame = su2su2_frame(Q, scale=-2)
    half = Fraction(1, 2)
    a = [
        [half, 0, 0, -half, 0, 0],
        [half, 0, 0, half, 0, 0],
        [0, half, 0, 0, -half, 0],
        [0, half, 0, 0, half, 0],
        [0, 0, half, 0, 0, -half],
        [0, 0, half, 0, 0, half],
    ]
    rotated = change_frame(e_frame, a, new_labels=[f"h{i}" for i in range(1, 7)])
    stored = fixture_doc("nonintsu3").frame()
    for i in range(6):
        assert rotated.coframe_d[i] == stored.coframe_d[i]


def test_d_top_degree_vanishes():
    fr = su2su2u1_frame()
    vol = fr.geometry.volume_form()
    assert fr.d(vol).is_zero()


def test_structure_constants_roundtrip():
    fr = su2_frame()
    e2, e3 = VectorField.basis(3, Q, 2), VectorField.basis(3, Q, 3)
    assert bracket(fr, e2, e3) == VectorField(3, Q, [2, 0, 0])
    assert bracket(fr, e3, e2) == VectorField(3, Q, [-2, 0, 0])


# -- Levi-Civita ------------------------------------------------------------


def koszul_oracle(frame, geom, i, j, k):
    """2 <D_i e_j, e_k> from the brackets, written out directly."""
    ei, ej, ek = (VectorField.basis(frame.n, frame.field, x + 1) for x in (i, j, k))
    t = geom.g(bracket(frame, ei, ej), ek)
    t = t - geom.g(bracket(frame, ej, ek), ei)
    t = t + geom.g(bracket(frame, ek, ei), ej)
    return t


def test_levi_civita_su2_biinvariant():
    fr = su2_frame()
    lc = levi_civita(fr)
    # half the bracket on a bi-invariant metric
    assert nabla(lc, VectorField.basis(3, Q, 2), VectorField.basis(3, Q, 3)) == VectorField(3, Q, [1, 0, 0])
    for i in range(3):
        for j in range(3):
            for k in range(3):
                low = lowered(lc, i, j, k, fr.geometry)
                assert low + low == koszul_oracle(fr, fr.geometry, i, j, k)


def test_levi_civita_abelian_vanishes():
    fr = LieAlgebraFrame(
        ["e1", "e2", "e3", "e4"],
        [KForm.zero(4, 2, Q)] * 4,
        FrameGeometry(4, Q),
    )
    lc = levi_civita(fr)
    assert all(lc.gamma[i][j].is_zero() for i in range(4) for j in range(4))


def test_levi_civita_torsion_free_and_metric(rng):
    for _ in range(5):
        rot = rotation_matrix(6, rng)
        fr, _ = rotate_frame_and_forms(su2su2_frame(), [], rot)
        lc = levi_civita(fr)
        assert metric_compatible(lc, fr.geometry)
        assert torsion_form(lc).is_zero()


def test_levi_civita_unique_by_independent_solve(rng):
    """Solve the torsion-free + metric system independently and compare."""
    fr = su2su2u1_frame()
    geom = fr.geometry
    n = fr.n
    c = structure_constants(fr)
    # unknowns: lowered coefficients L[i][j][k] = <D_i e_j, e_k>
    idx = {}
    for i in range(n):
        for j in range(n):
            for k in range(n):
                idx[(i, j, k)] = len(idx)
    rows = []
    # metric: L[i][j][k] + L[i][k][j] = 0
    for i in range(n):
        for j in range(n):
            for k in range(n):
                rows.append(({idx[(i, j, k)]: Q.one(), idx[(i, k, j)]: Q.one()}, Q.zero()))
    # torsion-free: L[i][j][k] - L[j][i][k] = <[e_i, e_j], e_k>
    for i in range(n):
        for j in range(n):
            for k in range(n):
                rhs = Q.zero()
                for m in range(n):
                    if not c[m][i][j].is_zero():
                        rhs = rhs + c[m][i][j] * geom.metric[m][k]
                row = {idx[(i, j, k)]: Q.one()}
                key = idx[(j, i, k)]
                row[key] = row.get(key, Q.zero()) - Q.one()
                rows.append((row, rhs))
    sol = solution([_ints({**row, -1: rhs}, Q)[1:] for row, rhs in rows], len(idx), Q)
    lc = levi_civita(fr)
    for (i, j, k), col in idx.items():
        assert lowered(lc, i, j, k, geom) == sol[col]


# -- Bismut connection -------------------------------------------------------


def test_bismut_zero_torsion_is_levi_civita():
    fr = su2su2_frame()
    lc = levi_civita(fr)
    bc = bismut_connection(fr, KForm.zero(6, 3, Q), lc)
    for i in range(6):
        for j in range(6):
            assert bc.gamma[i][j] == lc.gamma[i][j]


def test_bismut_torsion_roundtrip(rng):
    cases = 0
    for _ in range(10):
        rot = rotation_matrix(6, rng)
        fr, _ = rotate_frame_and_forms(su2su2_frame(), [], rot)
        h = random_kform(6, 3, Q, rng, density=0.3)
        bc = bismut_connection(fr, h, levi_civita(fr))
        assert torsion_form(bc) == h
        assert metric_compatible(bc, fr.geometry)
        cases += 1
    assert cases == 10


def test_cartan_connection_flat():
    fr = su2su2_frame(Q, scale=-2)
    h = cartan_three_form(fr)
    assert h == KForm.from_terms(6, Q, [((1, 2, 3), 2), ((4, 5, 6), 2)])
    zero = [[Q.zero()] * 6 for _ in range(6)]
    lc = levi_civita(fr)
    for conn in (bismut_connection(fr, h, lc), bismut_connection(fr, -h, lc)):
        assert not Riemann(conn).entries
        assert curvature(fr, conn).rows(6) == zero


def test_round_su2_ricci():
    fr = su2_frame()  # de1 = -2 e23
    ricci = curvature(fr, levi_civita(fr)).rows(3)
    for i in range(3):
        for j in range(3):
            assert ricci[i][j] == (Q.scalar(2) if i == j else Q.zero())


def test_flat_abelian_curvature():
    fr = LieAlgebraFrame(["e1", "e2", "e3"], [KForm.zero(3, 2, Q)] * 3, FrameGeometry(3, Q))
    lc = levi_civita(fr)
    assert not Riemann(lc).entries
    assert curvature(fr, lc).is_zero()


# -- first Bianchi with torsion ----------------------------------------------


def test_first_bianchi_torsion_correction(rng):
    """cyclic R(X,Y)Z = cyclic [ T(T(X,Y),Z) + (nabla_X T)(Y,Z) ],
    with every term on the right expanded by brute force."""
    for trial in range(4):
        rot = rotation_matrix(6, rng)
        fr, _ = rotate_frame_and_forms(su2su2_frame(), [], rot)
        geom = fr.geometry
        h = random_kform(6, 3, Q, rng, density=0.25, span=2)
        conn = bismut_connection(fr, h, levi_civita(fr))
        cur = Riemann(conn)
        basis = [VectorField.basis(6, Q, i) for i in range(1, 7)]

        def t_vec(x, y):
            # g(T(X,Y), .) = H(X,Y,.)
            comps = []
            ginv = inverse_metric(geom)
            vals = [interior(y, interior(x, h)).coeffs.get(1 << m, Q.zero()) for m in range(6)]
            for a in range(6):
                acc = Q.zero()
                for m in range(6):
                    if not vals[m].is_zero():
                        acc = acc + ginv[a][m] * vals[m]
                comps.append(acc)
            return VectorField(6, Q, comps)

        def nabla_t(x, y, z):
            return nabla(conn, x, t_vec(y, z)) - t_vec(nabla(conn, x, y), z) - t_vec(y, nabla(conn, x, z))

        picks = [(0, 1, 2), (1, 3, 5), (0, 4, 2)]
        for (i, j, k) in picks:
            x, y, z = basis[i], basis[j], basis[k]
            lhs = riemann_r(cur, i, j, k) + riemann_r(cur, j, k, i) + riemann_r(cur, k, i, j)
            rhs = (
                t_vec(t_vec(x, y), z) + nabla_t(x, y, z)
                + t_vec(t_vec(y, z), x) + nabla_t(y, z, x)
                + t_vec(t_vec(z, x), y) + nabla_t(z, x, y)
            )
            assert lhs == rhs


# -- codifferential -----------------------------------------------------------


def test_codifferential_examples():
    fr = su2su2u1_frame()
    e7 = KForm.from_terms(7, Q, [((7,), 1)])
    assert codifferential(fr, e7).is_zero()
    assert codifferential(fr, KForm(7, 0, Q, {0: Q.scalar(5)})).is_zero()


def test_codifferential_adjoint_on_unimodular(rng):
    frames = [su2su2_frame(), su2su2u1_frame()]
    for fr in frames:
        assert fr.is_unimodular()
        n = fr.n
        for _ in range(6):
            k = rng.randint(1, n - 1)
            a = random_kform(n, k - 1, Q, rng, density=0.3)
            b = random_kform(n, k, Q, rng, density=0.3)
            lhs = form_inner(fr.d(a), b, fr.geometry)
            rhs = form_inner(a, codifferential(fr, b), fr.geometry)
            assert lhs == rhs


# -- covariant derivatives -----------------------------------------------------


def test_parallel_volume(rng):
    for _ in range(3):
        rot = rotation_matrix(6, rng)
        fr, _ = rotate_frame_and_forms(su2su2_frame(), [], rot)
        h = random_kform(6, 3, Q, rng, density=0.3)
        conn = bismut_connection(fr, h, levi_civita(fr))
        vol = fr.geometry.volume_form()
        assert all(f.is_zero() for f in covariant_derivative_form(fr, conn, vol))


def test_covariant_derivative_oneform_matches_form_version(rng):
    fr = su2su2u1_frame()
    h = random_kform(7, 3, Q, rng, density=0.3)
    conn = bismut_connection(fr, h, levi_civita(fr))
    theta = random_kform(7, 1, Q, rng, density=0.8)
    mat = covariant_derivative_oneform(fr, conn, theta).rows(7)
    forms = covariant_derivative_form(fr, conn, theta)
    for i in range(7):
        for j in range(7):
            assert mat[i][j] == forms[i].coeffs.get(1 << j, Q.zero())
