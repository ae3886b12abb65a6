"""Structure layer: model forms, assembly/validation, projections, torsion
classes, Nijenhuis, skew-torsion formulas against the independent solver."""

import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    Q,
    Q2,
    Q3,
    band_shear,
    bracket,
    cartan_three_form,
    coframe_text,
    covariant_derivative_form,
    derivation,
    derivation_columns,
    fixture_structure,
    inverse_metric,
    is_diagonal,
    last_index,
    mat_inverse,
    mat_vec,
    model_form,
    moves_of,
    rotation_matrix,
    rotate_frame_and_forms,
    nonzero_names,
    random_kform,
    ref_interior,
    ref_wedge,
    sheared_text,
    skew_form,
    solution,
    PSI_ALL_PLUS,
)
from gtorsion import forms, registry, structures
from gtorsion.forms import (
    FrameGeometry,
    KForm,
    VectorField,
    form_inner,
    hodge_star,
    interior,
    wedge,
    Tensor,
    _mat_det,
    _masks,
    _matrix,
)
from gtorsion.frames import ConnectionCoeffs, LieAlgebraFrame, transform_form
from gtorsion.linsolve import InconsistentSystem, LinearSolveError
from gtorsion.parser import parse
from gtorsion.reduction import TransverseSlice, reduce_g2
from gtorsion.scalars import _ints, _norm
from gtorsion.structures import (
    KINDS,
    StructureError,
    _pair_moves,
    ah_assemble,
    bismut_ricci_form,
    bismut_torsion,
    g2_assemble,
    induced_metric_g2,
    lee_form,
    nijenhuis,
    project,
    solve_skew_torsion,
    spin7_assemble,
    su3_assemble,
    torsion_g2,
    torsion_spin7,
    torsion_su3,
)


def kf(n, *terms, field=Q):
    return KForm.from_terms(n, field, terms)


def abelian(n, field=Q):
    return LieAlgebraFrame(
        [f"e{i}" for i in range(1, n + 1)],
        [KForm.zero(n, 2, field)] * n,
        FrameGeometry(n, field),
    )


# -- model forms ---------------------------------------------------------


def test_model_su3():
    om, op = model_form("su3", 6, Q)
    assert om == kf(6, ((1, 2), 1), ((3, 4), 1), ((5, 6), 1))
    assert op == kf(6, ((1, 3, 5), 1), ((1, 4, 6), -1), ((2, 3, 6), -1), ((2, 4, 5), -1))


def test_model_g2():
    phi = model_form("g2", 7, Q)
    assert phi == kf(
        7,
        ((1, 2, 7), 1), ((1, 3, 5), 1), ((1, 4, 6), -1), ((2, 3, 6), -1),
        ((2, 4, 5), -1), ((3, 4, 7), 1), ((5, 6, 7), 1),
    )
    # inserting the last frame vector recovers the model 2-form
    assert interior(VectorField.basis(7, Q, 7), phi) == kf(7, ((1, 2), 1), ((3, 4), 1), ((5, 6), 1))


def test_model_spin7():
    psi = model_form("spin7", 8, Q)
    assert len(psi.coeffs) == 14
    g8 = FrameGeometry(8, Q)
    assert wedge(psi, psi) == g8.volume_form().scale(14)
    assert hodge_star(psi, g8) == psi


def test_model_kind_dimension_mismatch():
    with pytest.raises(StructureError):
        model_form("g2", 6, Q)


# -- metric induction -------------------------------------------------------


def brute_hitchin_metric(phi):
    """Oracle: B and det computed with fully explicit loops."""
    field = phi.field
    full = (1 << 7) - 1
    b = []
    for i in range(1, 8):
        row = []
        ii = interior(VectorField.basis(7, field, i), phi)
        for j in range(1, 8):
            jj = interior(VectorField.basis(7, field, j), phi)
            top = wedge(wedge(ii, jj), phi)
            row.append(top.coeffs.get(full, field.zero()) / field.scalar(6))
        b.append(row)
    det = _mat_det(_matrix(b, field), 7)
    sign = 1 if b[0][0].sign() > 0 else -1
    bo = [[x * sign for x in row] for row in b]
    scale = (det * sign).root(9).inverse()
    return [[x * scale for x in row] for row in bo], sign


def test_g2_metric_model_identity():
    geom = induced_metric_g2(model_form("g2", 7, Q))
    assert geom._is_identity and geom.orientation_sign == 1


def test_g2_metric_rescaled_hitchin():
    # e1 -> 2 e1: the coefficient of every term containing index 1 doubles
    phi = model_form("g2", 7, Q)
    terms = {m: (c * Q.scalar(2) if m & 1 else c) for m, c in phi.coeffs.items()}
    phi2 = KForm(7, 3, Q, terms)
    geom = induced_metric_g2(phi2)
    assert geom._view is None  # handed the int Tensor: no Scalar rows built
    oracle, sign = brute_hitchin_metric(phi2)
    assert sign == 1
    assert geom._metric == _matrix(oracle, Q) == Tensor(Q, {(0, 0): 4, **{(i, i): 1 for i in range(1, 7)}})


def test_g2_metric_rejects_indefinite():
    # flipping one term of the model breaks positivity
    phi = model_form("g2", 7, Q)
    terms = dict(phi.coeffs)
    m = next(iter(terms))
    terms[m] = -terms[m]
    with pytest.raises(StructureError, match=r"^not a positive 3-form$"):
        induced_metric_g2(KForm(7, 3, Q, terms))


def test_g2_metric_rejects_degenerate():
    with pytest.raises(StructureError, match=r"^not a positive 3-form \(det B = 0\)$"):
        induced_metric_g2(kf(7, ((1, 2, 3), 1), ((1, 4, 5), 1)))


@pytest.mark.parametrize("term", sorted(model_form("g2", 7, Q).coeffs))
def test_g2_metric_rejects_missing_ninth_root(term):
    # doubling any one term of the model gives det B = 8
    terms = dict(model_form("g2", 7, Q).coeffs)
    terms[term] = terms[term] * 2
    with pytest.raises(StructureError, match=r"^metric not representable exactly: det B = 8 has no 9th root in QQ$"):
        induced_metric_g2(KForm(7, 3, Q, terms))


@st.composite
def moved_g2_forms(draw):
    """+-phi for the model phi, pulled back by a positive diagonal D, then a
    unipotent shear S, then a rational rotation R, over QQ or QQ(sqrt2); so
    det B = det(RSD)^9 keeps its 9th root."""
    field = draw(st.sampled_from([Q, Q2]))
    scales = [Fraction(1), Fraction(2), Fraction(1, 2)]
    unit = [field.one()] + ([field.sqrt_d()] if field is Q2 else [])
    diag = [field.scalar(draw(st.sampled_from(scales))) * draw(st.sampled_from(unit)) for _ in range(7)]
    shear = [
        [field.one() if i == j else field.zero() if i > j
         else field.scalar(draw(st.integers(-1, 1))) + draw(st.sampled_from(unit)) * draw(st.integers(-1, 1))
         for j in range(7)]
        for i in range(7)
    ]
    rot = rotation_matrix(7, random.Random(draw(st.integers(0, 2**16))), field, planes=draw(st.integers(0, 2)))
    phi = model_form("g2", 7, field)
    phi = transform_form(phi, [[x if i == j else field.zero() for j in range(7)] for i, x in enumerate(diag)], field)
    phi = transform_form(transform_form(phi, shear, field), rot, field)
    return -phi if draw(st.booleans()) else phi


def test_g2_metric_closed_form_matches_brute_force():
    signs = set()

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(moved_g2_forms())
    def check(phi):
        geom = induced_metric_g2(phi)
        oracle, sign = brute_hitchin_metric(phi)
        assert geom._metric == _matrix(oracle, phi.field) and geom.orientation_sign == sign
        signs.add(sign)

    check()
    assert signs == {1, -1}


def _pairing_by_interiors(alpha, beta, form, c):
    """c top((i_{e_i} alpha) ^ (i_{e_j} beta) ^ form) for every (i, j), from
    the Scalar references of interior and wedge."""
    n, field = form.n, form.field
    full = (1 << n) - 1
    ints = [[KForm(n, x.k - 1, field, ref_interior(VectorField.basis(n, field, i), x)) for i in range(1, n + 1)]
            for x in (alpha, beta)]
    entries = {}
    for i, a in enumerate(ints[0]):
        for j, b in enumerate(ints[1]):
            ab = KForm(n, a.k + b.k, field, ref_wedge(a, b))
            top = ref_wedge(ab, form).get(full)
            if top is not None:
                entries[i, j] = c * top
    return Tensor(field, entries)


def _random_form(n, k, field, rng, density):
    a = random_kform(n, k, field, rng, density=density, span=2)
    return a + random_kform(n, k, field, rng, density=density / 2, span=2).scale(field.sqrt_d()) if field.d else a


def test_top_pairing_matches_the_interior_route():
    # the SU(3) pair (omega, Omega+, Omega+) is not symmetric in general; the
    # G2 one (phi, phi, phi) is, and sums only j >= i; random forms over QQ
    # and QQ(sqrt2), and the model forms in band-sheared coframes, whose
    # induced metrics are dense and not the identity
    rng = random.Random(3307)
    seen = set()
    cases = []
    for field in (Q, Q2):
        for _ in range(6):
            density = rng.choice((0.15, 0.4, 0.8))
            cases.append((_random_form(6, 2, field, rng, density), _random_form(6, 3, field, rng, density), None))
            phi = _random_form(7, 3, field, rng, density)
            cases.append((phi, phi, phi))
            cases.append((_random_form(7, 3, field, rng, density), _random_form(7, 3, field, rng, density), phi))
        for step in (1, 2, 3):
            om, op = (transform_form(x, band_shear(field, 6, step), field) for x in model_form("su3", 6, field))
            phi = transform_form(model_form("g2", 7, field), band_shear(field, 7, step), field)
            cases += [(om, op, op), (phi, phi, phi)]
    for alpha, beta, form in cases:
        form = beta if form is None else form
        c = alpha.field.scalar(Fraction(-3, 5))
        got = structures._top_pairing(alpha, beta, form, c)
        assert got == _pairing_by_interiors(alpha, beta, form, c)
        rows = got.rows(form.n)
        seen.add("symmetric" if all(rows[i][j] == rows[j][i] for i in range(form.n) for j in range(i)) else "not symmetric")
        seen.add("sqrt" if got._q else "rational")
        seen.add("dense" if sum(1 for i, j in got._p if i != j) > form.n else "sparse")
    assert seen == {"symmetric", "not symmetric", "sqrt", "rational", "dense", "sparse"}


@pytest.mark.parametrize("field", [Q, Q2])
@pytest.mark.parametrize("step", [1, 2, 3])
def test_induced_metric_g2_expands_one_minors_table(monkeypatch, field, step):
    # det B and Sylvester's test read one table, that of sign B; the
    # geometry of g = sign B / det_o^{1/9} is handed sqrt(det g) = det_o^{1/9}
    # and expands no table of g for the volume form
    tables = []
    orig = forms._minors

    def counted(mask, minors, rows, d):
        if not any(t is minors for t in tables):
            tables.append(minors)
        return orig(mask, minors, rows, d)

    phi = transform_form(model_form("g2", 7, field), band_shear(field, 7, step), field)
    monkeypatch.setattr(forms, "_minors", counted)
    geom = induced_metric_g2(phi)
    vol = geom.volume_form()
    assert len(tables) == 1
    monkeypatch.setattr(forms, "_minors", orig)
    own = FrameGeometry(7, field, geom._metric, orientation_sign=geom.orientation_sign)
    assert not geom._is_identity
    assert geom.sqrt_det() == own.sqrt_det() and vol == own.volume_form()
    oracle, sign = brute_hitchin_metric(phi)
    assert geom._metric == _matrix(oracle, field) and geom.orientation_sign == sign


# -- assembly ----------------------------------------------------------------


def test_su3_assemble_model():
    om, op = model_form("su3", 6, Q)
    s = su3_assemble(om, op, abelian(6))
    assert s.geometry._is_identity and s.geometry._view is None  # handed the int Tensor
    # standard J: J e1 = -e2 on the first block
    assert mat_vec(s.j_matrix.rows(6), VectorField.basis(6, Q, 1)) == VectorField(6, Q, [0, -1, 0, 0, 0, 0])
    assert s.form("omega_minus") == kf(6, ((1, 3, 6), 1), ((1, 4, 5), 1), ((2, 3, 5), 1), ((2, 4, 6), -1))


def test_su3_assemble_eta_fixture_metric_identity():
    s = fixture_structure("nonintsu3")
    assert s.geometry._is_identity


def test_su3_assemble_rejects_wrong_normalization():
    om, op = model_form("su3", 6, Q)
    with pytest.raises(StructureError):
        su3_assemble(om, op.scale(2), abelian(6))


def test_su3_assemble_rejects_incompatible():
    om, op = model_form("su3", 6, Q)
    bad = om + kf(6, ((1, 3), 1))
    with pytest.raises(StructureError):
        su3_assemble(bad, op, abelian(6))


def test_spin7_assemble_rejects_nonadapted_frame():
    psi = model_form("spin7", 8, Q)
    g = FrameGeometry(8, Q, [[Fraction(4) if i == j == 0 else (1 if i == j else 0) for j in range(8)] for i in range(8)])
    fr = LieAlgebraFrame([f"e{i}" for i in range(8)], [KForm.zero(8, 2, Q)] * 8, g)
    with pytest.raises(StructureError):
        spin7_assemble(psi, fr)


# -- projections --------------------------------------------------------------


def test_project_g2_two_forms_fixture():
    s = fixture_structure("nonintG2nonclosedLee")
    t = torsion_g2(s)
    dtheta = s.frame.d(t["lee"])
    parts = project(s, dtheta)
    assert parts["7"].is_zero()
    assert parts["14"] == dtheta


def test_project_g2_decomposition_properties(rng):
    s = fixture_structure("nonintG2")
    from conftest import random_kform

    for _ in range(6):
        a = random_kform(7, 2, Q, rng)
        parts = project(s, a)
        assert parts["7"] + parts["14"] == a
        a3 = random_kform(7, 3, Q, rng)
        parts3 = project(s, a3)
        assert parts3["1"] + parts3["7"] + parts3["27"] == a3


def test_project_spin7_fixture():
    s = fixture_structure("nonintSpin7OneA")
    t = torsion_spin7(s)
    dtheta = s.frame.d(t["lee"])
    parts = project(s, dtheta)
    assert parts["7"].is_zero()
    assert parts["21"] == dtheta


def test_project_su3_omega_trivial():
    s = fixture_structure("nonintsu3")
    parts = project(s, s.form("omega"))
    assert parts["1"] == s.form("omega")
    assert parts["6"].is_zero() and parts["8"].is_zero()


def test_project_wrong_degree_errors():
    s = fixture_structure("nonintG2")
    with pytest.raises(StructureError):
        project(s, kf(7, ((1,), 1)))


# -- torsion classes -----------------------------------------------------------


def test_torsion_su3_fixture_values():
    s = fixture_structure("nonintsu3")
    t = torsion_su3(s)
    assert t["sigma0"] == Q.scalar(-2)
    assert t["nu3"] == KForm.from_terms(
        6, s.field, [((1, 3, 5), 3), ((1, 4, 6), 1), ((2, 3, 6), 1), ((2, 4, 5), 1)]
    )
    assert nonzero_names(t) == ["sigma0", "nu3"]


def test_torsion_su3_model_abelian_zero():
    om, op = model_form("su3", 6, Q)
    s = su3_assemble(om, op, abelian(6))
    t = torsion_su3(s)
    assert nonzero_names(t) == []


def test_torsion_g2_fixture_values():
    s = fixture_structure("nonintG2")
    t = torsion_g2(s)
    assert t["tau0"] == s.field.scalar(Fraction(6, 7))
    assert t["lee"] == KForm.from_terms(7, s.field, [((7,), 1)])
    assert t["tau2"].is_zero()
    assert s.frame.d(t["lee"]).is_zero()


def test_torsion_g2_nonclosed_lee():
    s = fixture_structure("nonintG2nonclosedLee")
    t = torsion_g2(s)
    assert t["lee"] == KForm.from_terms(7, s.field, [((4,), 1), ((3,), -1)])
    dth = s.frame.d(t["lee"])
    assert dth == KForm.from_terms(7, s.field, [((5, 6), 1), ((1, 2), -1)])


def test_torsion_g2_model_abelian_zero():
    s = g2_assemble(model_form("g2", 7, Q), abelian(7))
    t = torsion_g2(s)
    assert all(
        (v.is_zero() if hasattr(v, "is_zero") else v.is_zero())
        for v in t.components.values()
    )


def test_torsion_spin7_fixture_values():
    s = fixture_structure("nonintSpin7OneA")
    t = torsion_spin7(s)
    assert t["lee"] == KForm.from_terms(
        8, s.field, [((5,), Fraction(6, 7)), ((4,), Fraction(-6, 7))]
    )


def test_torsion_spin7_sqrt3_fixture():
    s = fixture_structure("nonintSpin7Two")
    f = s.field
    t = torsion_spin7(s)
    s3 = f.sqrt_d()
    th = Fraction(3, 7)
    expected = KForm(8, 1, f, {
        1 << 1: f.scalar(-th),
        1 << 2: (f.one() + s3) * f.scalar(th),
        1 << 3: f.scalar(-th),
        1 << 4: f.scalar(-2 * th),
        1 << 5: (f.one() - s3) * f.scalar(th),
        1 << 6: f.scalar(-th),
        1 << 7: f.scalar(th),
    })
    assert t["lee"] == expected


def test_torsion_spin7_model_abelian_zero():
    s = spin7_assemble(model_form("spin7", 8, Q), abelian(8))
    t = torsion_spin7(s)
    assert t["lee"].is_zero() and t["zeta5"].is_zero()


@pytest.mark.parametrize("d5, d6, name", [((1, 2), (1, 3), "sigma2"), ((1, 3), (1, 2), "pi2")])
def test_torsion_su3_lambda2_8_classes_on_nilpotent_frames(d5, d6, name):
    # model SU(3) forms on d e5 = e^{d5}, d e6 = e^{d6}: star(beta ^ omega) =
    # -beta on Lambda^2_8 fixes the sign that the reconstruction checks
    d = [KForm.zero(6, 2, Q)] * 4 + [kf(6, (d5, 1)), kf(6, (d6, 1))]
    fr = LieAlgebraFrame([f"e{i}" for i in range(1, 7)], d, FrameGeometry(6, Q))
    t = torsion_su3(su3_assemble(*model_form("su3", 6, Q), fr))
    assert t[name] == kf(6, ((1, 2), Fraction(-1, 3)), ((3, 4), Fraction(-1, 3)), ((5, 6), Fraction(2, 3)))


_DIMS = {"su3": 6, "g2": 7, "spin7": 8}


@st.composite
def almost_lie_structures(draw, kind):
    """Model forms on a frame with random structure constants (Jacobi not
    required).  Some draws pull the forms back by an upper-triangular A
    with positive diagonal, so the induced metric is A^T A."""
    n = _DIMS[kind]
    pairs = list(_masks(n, 2))
    d = []
    for _ in range(n):
        cs = draw(st.lists(st.integers(-2, 2), min_size=len(pairs), max_size=len(pairs)))
        d.append(KForm(n, 2, Q, {m: Q.scalar(c) for m, c in zip(pairs, cs) if c}))
    forms = model_form(kind, n, Q)
    forms = list(forms) if kind == "su3" else [forms]
    geom = FrameGeometry(n, Q)
    if draw(st.booleans()):
        a = [[Q.scalar(draw(st.integers(1, 2)) if i == j else draw(st.integers(-1, 1)) if i < j else 0)
              for j in range(n)] for i in range(n)]
        forms = [transform_form(f, a, Q) for f in forms]
        geom = FrameGeometry(n, Q, [[sum((a[k][i] * a[k][j] for k in range(n)), Q.zero())
                                     for j in range(n)] for i in range(n)])
    labels = [f"e{i}" for i in range(1, n + 1)]
    if kind == "spin7":  # Psi is checked against the frame metric
        return spin7_assemble(forms[0], LieAlgebraFrame(labels, d, geom, check_closure=False))
    fr = LieAlgebraFrame(labels, d, FrameGeometry(n, Q), check_closure=False)
    return su3_assemble(*forms, fr) if kind == "su3" else g2_assemble(forms[0], fr)


@pytest.mark.parametrize("kind, classes", [
    ("su3", {"pi1", "pi2", "sigma2"}), ("g2", {"tau2"}), ("spin7", {"lee", "zeta5"}),
])
def test_torsion_read_offs_on_random_frames(kind, classes):
    # the fixtures have tau2 = pi1 = pi2 = sigma2 = 0; random frames reach them
    seen = set()

    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(almost_lie_structures(kind))
    def check(s):
        t = s.torsion  # raises unless every reconstruction check passes
        seen.update(nonzero_names(t))
        if s.geometry.metric != FrameGeometry(s.n, Q).metric:
            seen.add("metric")
        star = lambda a: hodge_star(a, s.geometry)
        if kind == "su3":
            split = [s.d(s.form("omega")), star(s.d(s.form("omega_plus"))), star(s.d(s.form("omega_minus")))]
        elif kind == "g2":
            split = [star(s.d(s.form("phi"))), star(s.d(s.form("star_phi")))]
        else:
            split = [star(s.d(s.form("psi"))), s.d(t["lee"])]
        for a in split:
            assert sum(project(s, a).values(), KForm.zero(s.n, a.k, Q)) == a

    check()
    assert classes | {"metric"} <= seen


# -- Nijenhuis / d^c ------------------------------------------------------------


def brute_nijenhuis(s):
    """Reference: g(N(e_i, e_j), e_k) with N(X,Y) = [JX,JY] - J[JX,Y] -
    J[X,JY] - [X,Y] from four brackets per pair; None when not skew."""
    n, field, geom = s.n, s.field, s.geometry
    amb = getattr(s.frame, "ambient", None)

    def br(x, y):  # a transverse slice brackets in its ambient frame
        if amb is None:
            return bracket(s.frame, x, y)
        pad = lambda v: VectorField(amb.n, field, list(v.components) + [field.zero()])
        return VectorField(n, field, bracket(amb, pad(x), pad(y)).components[:n])

    def apply_j(x):
        return mat_vec(s.j_matrix.rows(n), x)

    basis = [VectorField.basis(n, field, i) for i in range(1, n + 1)]
    jb = [apply_j(b) for b in basis]
    vals = {}
    for i in range(n):
        for j in range(i + 1, n):
            nv = (br(jb[i], jb[j]) - apply_j(br(jb[i], basis[j]))
                  - apply_j(br(basis[i], jb[j])) - br(basis[i], basis[j]))
            for k in range(n):
                vals[(i, j, k)] = geom.g(nv, basis[k])
                vals[(j, i, k)] = -vals[(i, j, k)]
    return skew_form(n, field, lambda i, j, k: vals.get((i, j, k), field.zero()))


def _nijenhuis_matches_reference(s) -> bool:
    """nijenhuis(s) equals the bracket reference, or both find N not skew;
    True when N is skew."""
    want = brute_nijenhuis(s)
    if want is None:
        with pytest.raises(StructureError, match="^Nijenhuis tensor not skew: no skew-torsion connection exists$"):
            nijenhuis(s)
        return False
    assert nijenhuis(s) == want
    return True


def test_nijenhuis_matches_brackets_on_random_frames():
    seen = set()

    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(almost_lie_structures("su3"))
    def check(s):
        seen.add(_nijenhuis_matches_reference(s))

    check()
    assert False in seen


def test_nijenhuis_matches_brackets_on_moved_fixture():
    # random almost-Lie frames almost never have a skew N; the fixture's N
    # is skew and stays so in every frame, here with off-diagonal metrics
    s = fixture_structure("nonintsu3")
    dense = []

    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(st.lists(st.integers(-1, 1), min_size=15, max_size=15), st.integers(0, 2**16))
    def check(upper, seed):
        it = iter(upper)
        shear = [[Q.one() if i == j else Q.scalar(next(it)) if i < j else Q.zero() for j in range(6)]
                 for i in range(6)]
        rot = rotation_matrix(6, random.Random(seed), Q)
        fr, forms = rotate_frame_and_forms(s.frame, [s.form("omega"), s.form("omega_plus")], shear)
        fr, forms = rotate_frame_and_forms(fr, forms, rot)
        moved = su3_assemble(*forms, fr)
        assert _nijenhuis_matches_reference(moved) and not moved.nijenhuis.is_zero()
        dense.append(not is_diagonal(moved.geometry))

    check()
    assert any(dense)


def test_nijenhuis_matches_brackets_on_transverse_slice():
    # the SU(3) quotient of nonintG2 lives on a transverse slice
    reduced = reduce_g2(fixture_structure("nonintG2")).reduced_structure
    assert isinstance(reduced.frame, TransverseSlice)
    assert _nijenhuis_matches_reference(reduced) and not reduced.nijenhuis.is_zero()


def test_nijenhuis_integrable_zero():
    om, op = model_form("su3", 6, Q)
    s = su3_assemble(om, op, abelian(6))
    assert nijenhuis(s).is_zero()


def test_nijenhuis_fixture_nonzero_and_quarter_identity():
    s = fixture_structure("nonintsu3")
    n_form = nijenhuis(s)
    assert not n_form.is_zero()
    # the (3,0)+(0,3) part of a 3-form is its Lambda^3_{1+1} piece
    h = bismut_torsion(s)
    assert project(s, h)["1+1"] == n_form.scale(Fraction(1, 4))


# -- skew-torsion oracle ------------------------------------------------------


def reference_skew_torsion(s):
    """Reference: the oracle row by row.  Row (i, M) of each structure form
    alpha holds the e^M coefficient of nabla_i alpha moved by each H_K,
    K = {i, t, k}, against -(nabla_i alpha)[M]; all rows go to one solve."""
    field, n = s.field, s.n
    masks3 = list(_masks(n, 3))
    column = {K: col for col, K in enumerate(masks3)}
    half_ginv = [[x * Fraction(1, 2) for x in row] for row in inverse_metric(s.geometry)]
    zero = field.zero()
    rows = []
    for slot, *_ in KINDS[s.kind][1]:
        alpha = s.forms[slot]
        base = covariant_derivative_form(s.frame, s.levi_civita, alpha)
        entries = {}
        for t in range(n):
            for k in range(t + 1, n):
                # the derivation e^j -> (1/2)(g^{jk} e^t - g^{jt} e^k)
                action = {j: {t: g[k], k: -g[t]} for j, g in enumerate(half_ginv)}
                moved = derivation(alpha, action).coeffs
                for i in set(range(n)) - {t, k}:
                    # H_{i,t,k} is +H_K for t < i < k and -H_K otherwise
                    sign = 1 if t < i < k else -1
                    col = column[(1 << i) | (1 << t) | (1 << k)]
                    for mask, v in moved.items():
                        entries.setdefault((i, mask), {})[col] = v if sign > 0 else -v
        keys = set(entries) | {(i, mask) for i in range(n) for mask in base[i].coeffs}
        rows += [{**entries.get(key, {}), -1: -base[key[0]].coeffs.get(key[1], zero)} for key in sorted(keys)]
    try:
        sol = solution([_ints(row, field)[1:] for row in rows], len(masks3), field)
    except InconsistentSystem as exc:
        raise StructureError("no skew-torsion connection: the linear system is inconsistent") from exc
    except LinearSolveError as exc:
        raise StructureError("non-unique skew torsion: dimension count violated") from exc
    return KForm(n, 3, field, dict(zip(masks3, sol)))


def _oracle_matches_reference(s) -> bool:
    """solve_skew_torsion(s) equals the row-by-row reference, or both raise
    the same StructureError; True when H exists."""
    try:
        want = reference_skew_torsion(s)
    except StructureError as exc:
        with pytest.raises(StructureError, match=f"^{re.escape(str(exc))}$"):
            solve_skew_torsion(s)
        return False
    assert solve_skew_torsion(s) == want
    return True


@pytest.mark.parametrize("kind, outcomes", [("g2", {False}), ("spin7", {True}), ("su3", {False})])
def test_oracle_matches_row_by_row_reference_on_random_frames(kind, outcomes):
    # random constants give tau2 != 0 (g2) and a non-skew Nijenhuis tensor
    # (su3), so no H; every Spin(7) structure has one
    seen = set()

    @settings(max_examples=6, deadline=None, derandomize=True)
    @given(almost_lie_structures(kind))
    def check(s):
        seen.add(_oracle_matches_reference(s))

    check()
    assert outcomes <= seen


_ASSEMBLE = {"su3": su3_assemble, "g2": g2_assemble, "spin7": spin7_assemble}


def test_oracle_matches_row_by_row_reference_on_moved_fixtures():
    # each fixture sheared (off-diagonal metric) and rotated: H exists in every frame
    names = ["nonintsu3", "nonintG2", "nonintG2nonclosedLee", "nonintSpin7OneA", "nonintSpin7Two"]
    seen = set()

    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(st.sampled_from(names), st.lists(st.integers(-1, 1), min_size=28, max_size=28), st.integers(0, 2**16))
    def check(name, upper, seed):
        s = _moved_fixture(name, upper, seed)
        assert _oracle_matches_reference(s)
        seen.add(s.kind)

    check()
    assert seen == set(_ASSEMBLE)


def _actions(ginv):
    """The pair derivations L_p, p = (t < k), on Scalars: e^j -> g^{jk} e^t -
    g^{jt} e^k for the dense g^{-1} rows ``ginv``, zeros left out."""
    n = len(ginv)
    return [{j: {x: v for x, v in ((t, g[k]), (k, -g[t])) if not v.is_zero()} for j, g in enumerate(ginv)
             if not (g[k].is_zero() and g[t].is_zero())}
            for t in range(n) for k in range(t + 1, n)]


def _geometries():
    """Non-identity metrics: each fixture's in band shears 1-3, a diagonal
    QQ(sqrt2) one and a non-diagonal QQ(sqrt3) one."""
    geoms = [parse(sheared_text(registry.input_text(name), step)).structure().geometry
             for name in registry.names() for step in (1, 2, 3)]
    r2, r3 = Q2.sqrt_d(), Q3.sqrt_d()
    diag = [2, 1 + r2, Q2.scalar(Fraction(1, 3)), 3 - r2, Q2.one()]
    geoms.append(FrameGeometry(5, Q2, [[diag[i] if i == j else Q2.zero() for j in range(5)] for i in range(5)]))
    rows = [[Q3.scalar(int(i == j)) for j in range(6)] for i in range(6)]
    rows[0][0], rows[0][1], rows[1][0], rows[1][1] = Q3.scalar(2), r3, r3, Q3.scalar(2)
    rows[2][4] = rows[4][2] = r3 / 4
    rows[3][5] = rows[5][3] = Q3.scalar(Fraction(-1, 2))
    geoms.append(FrameGeometry(6, Q3, rows))
    return geoms


def test_pair_moves_match_scalar_actions():
    # the oracle's pair moves, read straight off g^{-1}'s int body, equal
    # the moves of the Scalar actions over their one denominator, in order
    for geom in _geometries():
        ginv = geom._inverse
        assert not geom._is_identity
        assert moves_of(_actions(inverse_metric(geom)), geom.field) == (ginv._den, _pair_moves(ginv._p, ginv._q, geom.n))
    assert any(geom._inverse._q for geom in _geometries())


@pytest.mark.parametrize("n", range(3, 9))
def test_identity_moves_table_matches_an_explicit_identity(n):
    identity = FrameGeometry(n, Q, [[Q.scalar(int(i == j)) for j in range(n)] for i in range(n)])
    assert structures._IDENTITY_MOVES[n] == moves_of(_actions(inverse_metric(identity)), Q)[1]
    assert structures._IDENTITY_MOVES[n] == _pair_moves(identity._inverse._p, identity._inverse._q, n)
    assert len({p for targets in structures._IDENTITY_MOVES[n][0].values() for p, _, _ in targets}) == n * (n - 1) // 2


def _norm_per_unknown(s, monkeypatch):
    """The oracle's H and the same solution read back the old way: one
    ``_norm`` per unknown, then the KForm scaled by 2/E."""
    bodies = []
    solve = structures.solve_unique_sparse

    def kept(*args):
        bodies.append(solve(*args))
        return bodies[-1]

    monkeypatch.setattr(structures, "solve_unique_sparse", kept)
    h = solve_skew_torsion(s)
    monkeypatch.undo()
    [(den, p, q)] = bodies
    masks3, field = list(_masks(s.n, 3)), s.field
    sol = [_norm(field, p.get(c, 0), q.get(c, 0), den) for c in range(len(masks3))]
    return h, KForm(s.n, 3, field, dict(zip(masks3, sol))).scale(field.scalar(2, s.levi_civita.lowered._den))


@pytest.mark.parametrize("name", registry.names())
def test_oracle_int_solution_matches_norm_per_unknown(monkeypatch, name):
    # rotated frames (identity metric, dense symbols) and band shears 1-3
    # (non-identity g^{-1}); the int body is the canonical one, key for key
    n = fixture_structure(name).n
    moved = [_moved_fixture(name, [0] * (n * (n - 1) // 2), seed, planes) for seed, planes in ((5, 1), (6, 2))]
    moved += [parse(sheared_text(registry.input_text(name), step)).structure() for step in (1, 2, 3)]
    for s in moved:
        h, want = _norm_per_unknown(s, monkeypatch)
        assert not h.is_zero()
        assert (h._den, list(h._p.items()), list(h._q.items())) == (want._den, list(want._p.items()), list(want._q.items()))
        assert h == s.h


@pytest.mark.parametrize("step", [0, 1])
def test_oracle_rejects_forms_with_the_wrong_stabilizer(step):
    # self-dual with Psi ^ Psi = 14 vol, so spin7_assemble takes it, but its
    # derivation matrix has rank 19: stabilizer of dimension 28 - 19 = 9
    text = registry.input_text("nonintSpin7OneA").replace("Psi = model", "Psi = " + PSI_ALL_PLUS)
    doc = parse(sheared_text(text, step) if step else text)
    s = spin7_assemble(doc.structure_forms["psi"], doc.frame())
    with pytest.raises(StructureError, match=r"^the structure forms' stabilizer has dimension 9, not 21: not a Spin\(7\) structure$"):
        solve_skew_torsion(s)


@pytest.mark.parametrize("step", [1, 2, 3])
@pytest.mark.parametrize("name", registry.names())
def test_oracle_matches_row_by_row_reference_on_sheared_fixtures(name, step):
    # g^{-1} is not diagonal, so other derivation rows repeat up to sign than
    # in an orthonormal frame
    s = parse(sheared_text(registry.input_text(name), step)).structure()
    assert _oracle_matches_reference(s)


def _moved_fixture(name, upper, seed, planes=1):
    """The fixture in the coframe f = R A e: A unit upper-triangular with the
    entries ``upper`` above its diagonal (row by row), R a random rotation
    with ``planes`` Givens planes drawn from ``seed``."""
    s = fixture_structure(name)
    n, field, it = s.n, s.field, iter(upper)
    shear = [[field.one() if i == j else field.scalar(next(it)) if i < j else field.zero() for j in range(n)]
             for i in range(n)]
    fr, forms = rotate_frame_and_forms(s.frame, [s.forms[slot] for slot, *_ in KINDS[s.kind][1]], shear)
    fr, forms = rotate_frame_and_forms(fr, forms, rotation_matrix(n, random.Random(seed), field, planes))
    return _ASSEMBLE[s.kind](*forms, fr)


def _assert_lambda_gamma_is_nabla(s):
    """Lambda gamma_i = nabla_i alpha for every structure form alpha and index
    i: Lambda[M][p] is the e^M coefficient of alpha moved by the pair
    derivation L_p, p = (t, k), and gamma_i[p] = -2 <D_i e_t, e_k> the lowered
    Levi-Civita symbols.  The oracle's right-hand side rests on this identity,
    its sign and its factor 2."""
    n = s.n
    half_ginv = [[x * Fraction(1, 2) for x in row] for row in inverse_metric(s.geometry)]
    pairs = [(t, k) for t in range(n) for k in range(t + 1, n)]
    # L_p: e^j -> (1/2)(g^{jk} e^t - g^{jt} e^k)
    actions = _actions(half_ginv)
    low = last_index(s.levi_civita.entries, s.geometry, up=False)
    zero = s.field.zero()
    for slot, *_ in KINDS[s.kind].slots:
        alpha = s.forms[slot]
        lam = derivation_columns(alpha, actions)
        for i, nabla in enumerate(covariant_derivative_form(s.frame, s.levi_civita, alpha)):
            gamma = [low.get((i, t, k), zero) * -2 for t, k in pairs]
            got = {m: sum((v * gamma[p] for p, v in row.items()), zero) for m, row in lam.items()}
            assert KForm(s.n, alpha.k, s.field, got) == nabla, (slot, i)


@pytest.mark.parametrize("name", registry.names())
def test_lambda_gamma_is_nabla_on_fixtures(name):
    s = fixture_structure(name)
    _assert_lambda_gamma_is_nabla(s)
    # a rotated frame (dense symbols, identity metric) and a band-sheared one
    # (off-diagonal metric); no shear and no rotation leave the fixture
    band = [int(j == i + 1) for i in range(s.n) for j in range(i + 1, s.n)]
    _assert_lambda_gamma_is_nabla(_moved_fixture(name, [0] * len(band), 5, planes=2))
    _assert_lambda_gamma_is_nabla(_moved_fixture(name, band, 5, planes=0))


@pytest.mark.parametrize("kind", ["su3", "g2", "spin7"])
def test_lambda_gamma_is_nabla_on_random_frames(kind):
    @settings(max_examples=4, deadline=None, derandomize=True)
    @given(almost_lie_structures(kind))
    def check(s):
        _assert_lambda_gamma_is_nabla(s)

    check()


@pytest.mark.parametrize("name", ["nonintG2", "nonintG2nonclosedLee", "nonintSpin7OneA"])
def test_oracle_on_sqrt2_forms_and_metric(monkeypatch, name):
    # no bench input has a sqrt(d) entry in the oracle's matrix; here the
    # fixture is pulled back, over QQ(sqrt2), by a diagonal with sqrt2
    # entries and a shear with sqrt2 entries above it (as moved_g2_forms
    # moves phi), so the forms, the metric and the rows of both eliminations
    # carry sqrt2 parts, and pivot leads with a sqrt2 part turn up
    text = registry.input_text(name).replace("field rational", "field sqrt 2")
    n = parse(text).dim
    r2, one, zero = Q2.sqrt_d(), Q2.one(), Q2.zero()
    a = [[(r2 if i % 2 else one) if i == j else r2 if j == i + 1 else zero for j in range(n)] for i in range(n)]
    s = parse(coframe_text(text, a)).structure()
    assert any(x.q for row in s.geometry.metric for x in row)
    assert all(any(c.q for c in s.forms[slot].coeffs.values()) for slot, *_ in KINDS[s.kind].slots)
    eliminated = []
    echelon = structures.echelon

    def eliminates(rows, field):
        eliminated.append(list(rows))
        return echelon(rows, field)

    monkeypatch.setattr(structures, "echelon", eliminates)
    h = solve_skew_torsion(s)
    assert any(q for p, q in eliminated[0])
    assert h == reference_skew_torsion(s) == bismut_torsion(s)


@pytest.mark.parametrize("key", [(0, 1, 1), (0, 1, 2)])
def test_oracle_rejects_non_skew_symbols(key):
    # the dropped consistency rows held only because <D_i e_t, e_k> is skew
    # in (t, k): a diagonal symbol or an unpaired one breaks the identity
    s = fixture_structure("nonintG2")
    entries = dict(s.levi_civita.entries)
    entries[key] = entries.get(key, s.field.zero()) + 1
    low = Tensor(s.field, last_index(entries, s.geometry, up=False))
    s.levi_civita = ConnectionCoeffs(s.frame, Tensor(s.field, entries), low)
    with pytest.raises(StructureError, match=r"^Levi-Civita symbols not skew: <D_1 e_[23], e_[123]> = "):
        solve_skew_torsion(s)


def test_torsion_formula_vs_solver_fixtures():
    for name in ("nonintsu3", "nonintG2", "nonintG2nonclosedLee", "nonintSpin7OneA", "nonintSpin7Two"):
        s = fixture_structure(name)
        assert bismut_torsion(s) == solve_skew_torsion(s), name


def test_su3_fixture_strong_and_cartan():
    s = fixture_structure("nonintsu3")
    h = bismut_torsion(s)
    assert s.frame.d(h).is_zero()
    assert h == -cartan_three_form(s.frame)


def test_g2_fixture_h_phi_inner_identity():
    # <H_phi, phi> = (7/6) tau0
    for name in ("nonintG2", "nonintG2nonclosedLee"):
        s = fixture_structure(name)
        t = torsion_g2(s)
        h = bismut_torsion(s)
        assert form_inner(h, s.form("phi"), s.geometry) == s.field.scalar(Fraction(7, 6)) * t["tau0"]


def test_spin7_two_fixture_flat_cartan():
    s = fixture_structure("nonintSpin7Two")
    h = bismut_torsion(s)
    assert s.frame.d(h).is_zero()
    assert h == -cartan_three_form(s.frame)


def test_g2_tau2_nonzero_rejected():
    # the model 3-form on a Heisenberg-type frame has tau2 != 0, so no
    # compatible skew-torsion connection exists
    d = [kf(7, ((2, 3), 1))] + [KForm.zero(7, 2, Q)] * 6
    fr = LieAlgebraFrame([f"e{i}" for i in range(1, 8)], d, FrameGeometry(7, Q))
    s = g2_assemble(model_form("g2", 7, Q), fr)
    t = torsion_g2(s)
    assert not t["tau2"].is_zero()
    with pytest.raises(StructureError):
        bismut_torsion(s)
    with pytest.raises(StructureError, match="^no skew-torsion connection: the linear system is inconsistent$"):
        solve_skew_torsion(s)


def test_bismut_ricci_form_fixture_zero():
    s = fixture_structure("nonintsu3")
    assert bismut_ricci_form(s).is_zero()


def test_structure_forms_parallel_under_own_connection():
    from gtorsion.frames import bismut_connection

    for name, keys in (
        ("nonintG2", ["phi", "star_phi"]),
        ("nonintsu3", ["omega", "omega_plus", "omega_minus"]),
        ("nonintSpin7OneA", ["psi"]),
    ):
        s = fixture_structure(name)
        conn = bismut_connection(s.frame, bismut_torsion(s), s.levi_civita)
        for key in keys:
            derivs = covariant_derivative_form(s.frame, conn, s.form(key))
            assert all(d.is_zero() for d in derivs), (name, key)


def test_bismut_ricci_form_generic_nonzero():
    # Hermitian structure on a Kodaira-Thurston-type nilpotent frame:
    # integrable J, nonvanishing Bismut Ricci form
    d = [KForm.zero(6, 2, Q)] * 5 + [kf(6, ((1, 2), 1))]
    fr6 = LieAlgebraFrame([f"e{i}" for i in range(1, 7)], d, FrameGeometry(6, Q))
    om, op = model_form("su3", 6, Q)
    s = su3_assemble(om, op, fr6)
    assert nijenhuis(s).is_zero()
    assert not bismut_ricci_form(s).is_zero()


def test_nijenhuis_not_skew_rejected():
    # an almost-abelian solvable frame where the model J has non-skew
    # Nijenhuis tensor: no skew-torsion connection exists
    d = [
        kf(6, ((1, 6), 1)),
        kf(6, ((2, 6), -1)),
        kf(6, ((3, 6), 2)),
        kf(6, ((4, 6), -2)),
        KForm.zero(6, 2, Q),
        KForm.zero(6, 2, Q),
    ]
    fr6 = LieAlgebraFrame([f"e{i}" for i in range(1, 7)], d, FrameGeometry(6, Q))
    om, op = model_form("su3", 6, Q)
    s = su3_assemble(om, op, fr6)
    with pytest.raises(StructureError, match="skew"):
        nijenhuis(s)
    with pytest.raises(StructureError, match="skew"):
        bismut_torsion(s)


def test_lee_form_equals_two_nu1():
    # the almost Hermitian Lee contraction agrees with 2 nu1 on SU(3) data
    for name in ("nonintsu3",):
        s = fixture_structure(name)
        t = torsion_su3(s)
        assert lee_form(s) == t["nu1"].scale(2)


def test_lee_form_ah_dim4_d_omega_identity(rng):
    # on R x Heisenberg with J e1 = -e2, J e3 = -e4 (integrable), d omega =
    # theta ^ omega with theta = e2; a rotated frame moves theta with the forms
    d = [KForm.from_terms(4, Q, [((3, 4), 1)])] + [KForm.zero(4, 2, Q)] * 3
    base = LieAlgebraFrame(["e1", "e2", "e3", "e4"], d, FrameGeometry(4, Q))
    omega = KForm.from_terms(4, Q, [((1, 2), 1), ((3, 4), 1)])
    assert lee_form(ah_assemble(omega, base)) == KForm.from_terms(4, Q, [((2,), 1)])
    for _ in range(3):
        fr, (om,) = rotate_frame_and_forms(base, [omega], rotation_matrix(4, rng, planes=2))
        s = ah_assemble(om, fr)
        theta = lee_form(s)
        assert not theta.is_zero()
        assert wedge(theta, om) == fr.d(om)


# -- frame equivariance ----------------------------------------------------------


def test_torsion_scalars_frame_equivariant(rng):
    base = fixture_structure("nonintG2")
    t0 = torsion_g2(base)["tau0"]
    from gtorsion.frames import transform_form

    for _ in range(4):
        rot = rotation_matrix(7, rng)
        fr2, (phi2,) = rotate_frame_and_forms(base.frame, [base.form("phi")], rot)
        s2 = g2_assemble(phi2, fr2)
        t2 = torsion_g2(s2)
        assert t2["tau0"] == t0
        # 1-form components transform covariantly
        rinv = mat_inverse(rot, Q)
        assert t2["lee"] == transform_form(torsion_g2(base)["lee"], rinv, Q)
