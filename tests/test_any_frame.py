"""The Lee form and the Bismut-Ricci form of almost Hermitian and SU(3)
structures in any frame.  Both are traces: theta contracts H with omega's
indices raised by g, rho traces J against the Bismut symbols with no metric
and no curvature tensor.  So they agree with the frame-vector sums they
replaced on orthonormal frames, move covariantly under any change of frame
(as does the Nijenhuis form), ``check`` on a fixture in a sheared or a
drawn frame reports the fixture's values, and ``extend`` accepts the SU(3)
quotient in such frames.  ``reduce`` rescales to unit |V| on the declared
frame, so a sheared G2 fixture reaches the adapted frame, which matches the
elimination route in drawn frames too."""

import json
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    HYPERBOLIC_G2,
    HYPERBOLIC_SPIN7,
    Q,
    S3XT4_G2,
    Riemann,
    band_shear,
    coframe_text,
    fixture_structure,
    mat_inverse,
    mat_vec,
    model_form,
    random_kform,
    rotate_frame_and_forms,
    rotation_matrix,
    sheared_text,
    su2su2_frame,
)
from test_kinds import _Doc
from test_reduction import check_adapted_frame, check_moved_forms, quotient_su3_of_nonintG2
from gtorsion import engine, reduction, registry
from gtorsion.engine import run_extend
from gtorsion.forms import FrameGeometry, KForm, Tensor, VectorField, indices_of
from gtorsion.frames import ConnectionCoeffs, LieAlgebraFrame, change_frame, transform_form
from gtorsion.parser import parse
from gtorsion.soliton import canonical_vector
from gtorsion.structures import (
    KINDS,
    ah_assemble,
    bismut_ricci_form,
    lee_form,
    nijenhuis,
    su3_assemble,
)


def old_lee_form(s):
    """theta_a = -1/2 sum_{p,q,r} H_pqr J^p_a J^r_q over the frame vectors:
    right on orthonormal frames only."""
    field = s.field
    j = s.j_matrix.rows(s.n)
    w = [field.zero()] * s.n
    for m, c in s.h.coeffs.items():
        x, y, z = (i - 1 for i in indices_of(m))
        for p, q, r in ((x, y, z), (y, z, x), (z, x, y)):
            w[p] = w[p] + c * (j[r][q] - j[q][r])
    half = field.scalar(Fraction(-1, 2))
    comps = {}
    for a in range(s.n):
        val = sum((j[p][a] * wp for p, wp in enumerate(w)), field.zero()) * half
        if not val.is_zero():
            comps[1 << a] = val
    return KForm(s.n, 1, field, comps)


def old_bismut_ricci_form(s):
    """rho(X, Y) = 1/2 sum_i R(X, Y, e_i, J e_i) over the frame vectors, R
    the Riemann tensor of the Bismut connection: right on orthonormal frames
    only."""
    field, n, geom = s.field, s.n, s.geometry
    zero = field.zero()
    coeffs = {}
    for (x, y, i, l), v in Riemann(s.bismut).entries.items():
        w = geom.g(VectorField.basis(n, field, l + 1), mat_vec(s.j_matrix.rows(n), VectorField.basis(n, field, i + 1)))
        if not w.is_zero():
            m = (1 << x) | (1 << y)
            coeffs[m] = coeffs.get(m, zero) + v * w
    half = field.scalar(Fraction(1, 2))
    return KForm(n, 2, field, {m: v * half for m, v in coeffs.items()})


def _assemble(kind, forms, frame):
    return su3_assemble(*forms, frame) if kind == "su3" else ah_assemble(forms[0], frame)


def _in_frame(s, a):
    """The structure s in the coframe f = A e, and A^{-1}."""
    ainv = mat_inverse(a, s.field)
    forms = [transform_form(s.form(slot), ainv, s.field) for slot, *_ in KINDS[s.kind].slots]
    return _assemble(s.kind, forms, change_frame(s.frame, a)), ainv


def _su2_frame(n):
    """su(2) + R (n = 4) or su(2) + su(2) (n = 6) on the identity metric:
    nonzero structure constants, so rho's bracket term is exercised."""
    if n == 6:
        return su2su2_frame()
    d = [KForm.from_terms(4, Q, [(pair, -2)]) for pair in ((2, 3), (3, 1), (1, 2))] + [KForm.zero(4, 2, Q)]
    return LieAlgebraFrame(["e1", "e2", "e3", "e4"], d, FrameGeometry(4, Q))


@st.composite
def orthonormal_structures(draw):
    """The model SU(3) or almost Hermitian (n = 4, 6) structure on su(2) + R
    or su(2) + su(2) in a random rotated orthonormal frame, with a random H
    and Bismut connection set in its analysis in place of computed ones."""
    kind, n = draw(st.sampled_from([("su3", 6), ("ah", 4), ("ah", 6)]))
    rng = random.Random(draw(st.integers(0, 2**32)))
    forms = model_form(kind, n, Q)
    forms = list(forms) if kind == "su3" else [forms]
    frame, forms = rotate_frame_and_forms(_su2_frame(n), forms, rotation_matrix(n, rng, planes=2))
    s = _assemble(kind, forms, frame)
    assert s.geometry._is_identity
    s.h = random_kform(n, 3, Q, rng, density=0.5)
    entries = {}
    for i in range(n):
        for j in range(n):
            for l in range(n):
                v = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                if v and rng.random() < 0.1:
                    entries[(i, j, l)] = Q.scalar(v)
    s.bismut = ConnectionCoeffs(s.frame, Tensor(s.field, entries))
    return s


def test_traces_match_frame_vector_sums_on_orthonormal_frames():
    nonzero = []

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(orthonormal_structures())
    def check(s):
        theta, rho = lee_form(s), bismut_ricci_form(s)
        assert theta == old_lee_form(s)
        assert rho == old_bismut_ricci_form(s)
        nonzero.append(not theta.is_zero() and not rho.is_zero())

    check()
    assert sum(nonzero) >= 20


def _r_times_heisenberg():
    # J e1 = -e2, J e3 = -e4 integrable, theta = e2
    d = [KForm.from_terms(4, Q, [((3, 4), 1)])] + [KForm.zero(4, 2, Q)] * 3
    frame = LieAlgebraFrame(["e1", "e2", "e3", "e4"], d, FrameGeometry(4, Q))
    return ah_assemble(model_form("ah", 4, Q), frame)


def _kodaira_thurston_su3():
    # integrable J with rho != 0
    d = [KForm.zero(6, 2, Q)] * 5 + [KForm.from_terms(6, Q, [((1, 2), 1)])]
    frame = LieAlgebraFrame([f"e{i}" for i in range(1, 7)], d, FrameGeometry(6, Q))
    return su3_assemble(*model_form("su3", 6, Q), frame)


BASES = {"r_x_heisenberg": _r_times_heisenberg, "kodaira_thurston": _kodaira_thurston_su3}


def _assert_covariant(s, a):
    """theta, rho and N of s in the coframe f = A e are those of s moved by
    A^{-1}, and rho is the J-trace of the Bismut curvature tensor there."""
    t, ainv = _in_frame(s, a)
    for trace in (lee_form, bismut_ricci_form, nijenhuis):
        assert trace(t) == transform_form(trace(s), ainv, s.field), trace.__name__
    assert bismut_ricci_form(t) == Riemann(t.bismut).ricci_form(t.j_matrix)


@pytest.mark.parametrize("name", BASES)
def test_traces_move_covariantly_under_shears(name):
    # J is integrable on both bases, so N = 0 here; nonintsu3 below has N != 0
    s = BASES[name]()
    n, field = s.n, s.field
    assert not lee_form(s).is_zero() and not bismut_ricci_form(s).is_zero()

    @settings(max_examples=8, deadline=None, derandomize=True)
    @given(st.lists(st.sampled_from([-1, 0, 1, Fraction(1, 2)]), min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2))
    def check(upper):
        # the coframe f = A e, A unit upper triangular
        entries = iter(upper)
        _assert_covariant(s, [[field.scalar(1 if i == j else next(entries) if j > i else 0) for j in range(n)] for i in range(n)])

    check()


@pytest.mark.parametrize("step", [1, 2, 3, 4])
def test_traces_and_nijenhuis_move_covariantly_on_nonintsu3(step):
    # the Bismut connection of nonintsu3 is flat, so rho and the J-trace of
    # the reference tensor are both 0; kodaira_thurston above has rho != 0
    s = fixture_structure("nonintsu3")
    assert not s.nijenhuis.is_zero()
    assert bismut_ricci_form(s) == Riemann(s.bismut).ricci_form(s.j_matrix)
    _assert_covariant(s, band_shear(s.field, 6, step))


# two inputs with a nonzero GRS residual S: the squashed Hopf surface (strong
# torsion, theta = -2 e4) and a nilpotent G2 structure (tau0 = 2/7)
SQUASHED_HOPF = """dim 4
frame e1 e2 e3 e4
d e1 = 2*e2^e3
d e2 = e3^e1
d e3 = e1^e2
metric identity
structure ah
omega = e4^e1 + e2^e3
"""
NILPOTENT_G2 = """dim 7
frame e1 e2 e3 e4 e5 e6 e7
d e7 = e1^e2
metric identity
structure g2
phi = model
"""


_INPUTS = {**{name: registry.input_text(name) for name in registry.names()}, "s3xt4": S3XT4_G2,
           "hopf": SQUASHED_HOPF, "nilpotent_g2": NILPOTENT_G2, "hyperbolic_g2": HYPERBOLIC_G2,
           "hyperbolic_spin7": HYPERBOLIC_SPIN7}


@st.composite
def drawn_frames(draw, field, n):
    """A = U P for the coframe f = A e: U unit upper triangular with entries
    drawn from -1, 0, 1 and 1/2, P the matrix of a drawn even permutation of
    the n labels (so A keeps the orientation)."""
    perm = draw(st.permutations(range(n)))
    if sum(perm[a] > perm[b] for a in range(n) for b in range(a + 1, n)) % 2:
        perm[0], perm[1] = perm[1], perm[0]
    upper = iter(draw(st.lists(st.sampled_from([-1, 0, 1, Fraction(1, 2)]), min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2)))
    u = [[1 if i == j else next(upper) if j > i else 0 for j in range(n)] for i in range(n)]
    a = [[field.zero()] * n for _ in range(n)]
    for i in range(n):
        for k in range(n):  # (U P)[i][perm[k]] = U[i][k]
            a[i][perm[k]] = field.scalar(u[i][k])
    return a


def _in_drawn_frames(field, n, check):
    """Run ``check(A)`` on a few drawn frames A (``drawn_frames``)."""
    settings(max_examples=2, deadline=None, derandomize=True)(given(drawn_frames(field, n))(check))()


@pytest.mark.parametrize("step", [1, 2, 3, "drawn"])
@pytest.mark.parametrize("name", sorted(_INPUTS))
def test_check_on_sheared_input_reports_unsheared_values(name, step):
    # the declared metric rows of a band shear are not diagonal, so the
    # frame's metric meets the structure's; before theta became a trace,
    # sheared nonintsu3 gave lee_form -2*eta1 + 2*eta2 - 2*eta5 + 2*eta6
    # (step 1) and 2*eta1 + 2*eta3 - 2*eta4 + 2*eta5 - 2*eta6 (step 3), both
    # with |V|^2 = 12 and weighted scalar 32/3
    text = _INPUTS[name]
    doc = parse(text)
    want = json.loads(engine.run_check(doc).to_json())
    keys = ["strong_torsion", "torsion_oracle_agree", "grs_residual_zero", "grs_residual_norm_sq", "weighted_scalar",
            "canonical_vector_parallel", "canonical_vector_norm_sq"]
    keys += [key for key in ("dilatino_residual", "nijenhuis_zero", "bismut_ricci_form_zero") if key in want]
    if want["lee_form"] == "0":  # a zero form reads 0 in every frame
        keys.append("lee_form")
    # the scalar torsion classes, read off the induced metric
    scalars = [key for key in ("tau0", "sigma0", "pi0") if key in want.get("torsion", {})]

    def check(a):
        got = json.loads(engine.run_check(parse(coframe_text(text, a))).to_json())
        for key in keys:
            assert got[key] == want[key], key
        for key in scalars:
            assert got["torsion"][key] == want["torsion"][key], key

    n = doc.dim
    if step == "drawn":
        _in_drawn_frames(doc.field, n, check)
        return
    a = band_shear(doc.field, n, step)
    sheared = parse(coframe_text(text, a))
    assert any(not sheared.metric[i][j].is_zero() for i in range(n) for j in range(n) if i != j)
    check(a)


@pytest.mark.parametrize("text,norm", [(SQUASHED_HOPF, "8"), (NILPOTENT_G2, "4/3")], ids=["hopf", "nilpotent_g2"])
def test_grs_residual_norm_is_one_value_in_every_frame(text, norm):
    # |S|^2_g = g^{ia} g^{jb} S_ij S_ab; the sum of squares of the components
    # it replaced read 8, 84, 20, 8 (Hopf) and 4/3, 134, 200/9, 28/3 (G2) in
    # band shears 0-3
    doc = parse(text)

    def check(t):
        got = engine.run_check(parse(t)).data
        assert (got["grs_residual_norm_sq"], got["grs_residual_zero"]) == (norm, False)

    for step in range(4):
        check(sheared_text(text, step) if step else text)
    _in_drawn_frames(doc.field, doc.dim, lambda a: check(coframe_text(text, a)))


@pytest.mark.parametrize("step", [1, 2, 3, 4, "drawn"])
def test_extend_on_sheared_su3_quotient(step):
    # the SU(3) quotient of nonintG2 has theta_omega = 0 = df in every frame;
    # before theta became a trace, steps 1, 2 and 4 failed with "extension
    # hypotheses violated: theta_omega != df".  S^3 x T^4 (G2 -> Spin(7),
    # F = 0) extends to strong torsion matching the formula unsheared, and
    # must in band shears 1-3 and drawn frames too
    s = quotient_su3_of_nonintG2()[3]
    inputs = [(s.field, 6, lambda a: _in_frame(s, a)[0], ("g2", True, True))]
    if step != 4:
        inputs.append((Q, 7, lambda a: parse(coframe_text(S3XT4_G2, a)).structure(), ("spin7", True, True)))
    for field, n, in_frame, want in inputs:

        def check(a):
            rep = run_extend(_Doc(in_frame(a)))
            assert (rep.data["kind"], rep.data["strong_torsion"], rep.data["torsion_matches_formula"]) == want

        if step == "drawn":
            _in_drawn_frames(field, n, check)
        else:
            check(band_shear(field, n, step))


@pytest.mark.parametrize("name", ["nonintG2", "nonintG2nonclosedLee", "nonintSpin7OneA"])
def test_adapted_frame_in_drawn_frames(name, monkeypatch):
    # a drawn frame's metric is not diagonal, so the Gram-Schmidt covectors
    # differ from the vectors; where a complement norm has no root, the
    # reference Gram-Schmidt meets the same one first (nonintSpin7Two, whose
    # declared frame already stops there, is left to the fixture test)
    text = registry.input_text(name)
    doc = parse(text)
    outcomes = Counter()

    def check(a):
        s = parse(coframe_text(text, a)).structure()
        unit, v = reduction._unit_length(s, canonical_vector(s))
        metric = unit.geometry.metric
        diagonal = all(metric[i][j].is_zero() for i in range(s.n) for j in range(s.n) if i != j)
        ad = check_adapted_frame(unit.frame, v)
        outcomes["diagonal" if diagonal else "sheared", ad is not None] += 1
        if ad is not None:
            assert check_moved_forms(monkeypatch, s).verifier_ok()

    settings(max_examples=8, deadline=None, derandomize=True)(given(drawn_frames(doc.field, doc.dim))(check))()
    assert outcomes["sheared", True] >= 1, outcomes


@pytest.mark.parametrize("step, error", [
    (1, "cannot normalize adapted frame: |w|^2 = 3 has no sqrt in QQ(sqrt2)"),
    (2, "cannot normalize adapted frame: |w|^2 = 3 has no sqrt in QQ(sqrt2)"),
    (3, None),
])
def test_reduce_on_sheared_nonintG2nonclosedLee(step, error):
    # the unit-|V| rescaling takes g to lam^2 g and each form to lam^degree
    # times it; reassembling lam^3 phi instead met the declared metric rows,
    # and every step exited 3 with "declared frame metric disagrees with the
    # structure-induced metric"; steps 1 and 2 now stop at the adapted
    # frame's root (ROADMAP item 2)
    rep = engine.run_reduce(parse(sheared_text(registry.input_text("nonintG2nonclosedLee"), step)))
    assert rep.data.get("reduction_error") == error
    assert rep.data.get("verifier_ok") is (None if error else True)
