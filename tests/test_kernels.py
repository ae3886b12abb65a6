"""The shared exact kernels: the minors table (determinant,
positive-definiteness) and the elimination kernel (inverse, the sparse
overdetermined solve) against cofactor expansion, the solve's independence
of the order and the scale of its rows, the skew 3-form
packer, the derivation action, the fused multiply-accumulate kernels
checked term by term against plain Scalar sums, the well-formedness of
every kernel output that skips the public constructor, and the change of
frame checked against a chain of wedges."""

import math
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (
    Q, Q2, Q3, coeff, derivation, derivation_columns, mat_inverse, random_kform, random_posdef_geometry, ref_collect,
    ref_d, ref_interior, ref_wedge, skew_form, solution, su2su2_frame,
)
from gtorsion import forms, scalars
from gtorsion.forms import (
    CoframeChange,
    FrameGeometry,
    GeometryError,
    KForm,
    Tensor,
    VectorField,
    _mat_det,
    _matrix,
    contract_2_3,
    form_inner,
    hodge_star,
    indices_of,
    interior,
    musical,
    skew_three_form,
    wedge,
)
from gtorsion.frames import LieAlgebraFrame, ce_differential, transform_form
from gtorsion.linsolve import (
    InconsistentSystem,
    LinearSolveError,
    _axpy,
    _back_substitute,
    echelon,
    solve_unique_sparse,
)
from gtorsion.scalars import FieldMismatch, Scalar, _ints


def cofactor_det(m, field):
    if not m:
        return field.one()
    acc = field.zero()
    for c in range(len(m)):
        minor = [row[:c] + row[c + 1:] for row in m[1:]]
        term = m[0][c] * cofactor_det(minor, field)
        acc = acc + term if c % 2 == 0 else acc - term
    return acc


def solve_dense(a, b):
    """Reference: solve A x = b for square exact A by Cramer's rule on
    ``cofactor_det``; raises on singular A."""
    field = b[0].field
    det = cofactor_det(a, field)
    if det.is_zero():
        raise LinearSolveError("singular system")
    # x_c = det(A with column c replaced by b) / det A
    return [cofactor_det([row[:c] + [bi] + row[c + 1:] for row, bi in zip(a, b)], field) / det for c in range(len(a))]


def random_matrix(n, field, rng):
    """Sparse entries, so leading zeros force row swaps; in Q(sqrt2) some
    entries carry a sqrt2 part."""
    out = []
    for _ in range(n):
        row = []
        for _ in range(n):
            x = field.scalar(Fraction(rng.randint(-3, 3), rng.randint(1, 2))) if rng.random() < 0.5 else field.zero()
            if field is Q2 and rng.random() < 0.3:
                x = x + Q2.sqrt_d() * rng.randint(-2, 2)
            row.append(x)
        out.append(row)
    return out


@pytest.mark.parametrize("field", [Q, Q2])
def test_determinant_matches_cofactor_expansion(field, rng):
    swapped = singular = 0
    for _ in range(150):
        n = rng.randint(1, 4)
        m = random_matrix(n, field, rng)
        det = _mat_det(_matrix(m, field), n)
        assert det == cofactor_det(m, field)
        if m[0][0].is_zero() and not det.is_zero():
            swapped += 1
        if det.is_zero():
            singular += 1
            with pytest.raises(GeometryError, match="singular metric"):
                mat_inverse(m, field)
            with pytest.raises(LinearSolveError, match="singular system"):
                solve_dense(m, [field.one()] * n)
            continue
        inv = mat_inverse(m, field)
        for i in range(n):
            for j in range(n):
                entry = sum((m[i][k] * inv[k][j] for k in range(n)), field.zero())
                assert entry == (field.one() if i == j else field.zero())
        b = [field.scalar(i + 1) for i in range(n)]
        x = solve_dense(m, b)
        assert [sum((m[i][k] * x[k] for k in range(n)), field.zero()) for i in range(n)] == b
    assert swapped >= 10 and singular >= 10


def test_sylvester_reads_the_signs_of_int_minors(monkeypatch):
    # an indefinite metric with a positive diagonal (its 2x2 minor is -3) is
    # rejected; over QQ(sqrt2) the leading minors 1 + sqrt2 and sqrt2 are
    # positive, and 1 - 2 = -1 is not
    r2 = Q2.sqrt_d()
    indefinite = FrameGeometry(2, Q, [[1, 2], [2, 1]])
    definite = FrameGeometry(2, Q2, [[1 + r2, Q2.one()], [Q2.one(), Q2.one()]])
    sqrt2_indefinite = FrameGeometry(2, Q2, [[Q2.one(), r2], [r2, Q2.one()]])
    # the signs are read on the minors' numerators: no change of frame is
    # built and no minor becomes a Scalar

    def refuse(*args):
        raise AssertionError("Sylvester's test built a Scalar or a CoframeChange")

    monkeypatch.setattr(forms, "_norm", refuse)
    monkeypatch.setattr(forms, "CoframeChange", refuse)
    definite.check_positive_definite()
    for g in (indefinite, sqrt2_indefinite):
        with pytest.raises(GeometryError, match="^metric is not positive-definite$"):
            g.check_positive_definite()


def test_positive_definite_rejects_zero_leading_minor():
    m = [[0, 1, 0], [1, 0, 0], [0, 0, -1]]
    g = FrameGeometry(3, Q, m)
    assert g.det_metric() == Q.one()
    with pytest.raises(GeometryError, match="metric is not positive-definite"):
        g.check_positive_definite()


def _table_leading(geom):
    """The leading principal minors of den g by one minors-table expansion
    on the metric's int rows, whatever the metric."""
    n, minors = geom.n, ({0: {0: 1}}, {0: {}})
    forms._minors((1 << n) - 1, minors, forms._bit_rows(geom._metric, n), geom.field.d)
    return [(minors[0][m].get(m, 0), minors[1][m].get(m, 0)) for m in ((1 << k) - 1 for k in range(1, n + 1))]


@pytest.mark.parametrize("field", [Q, Q2])
@pytest.mark.parametrize("n", range(1, 9))
def test_identity_leading_minors_need_no_table(monkeypatch, n, field):
    # the identity, by default or as explicit rows, reads n ones with no
    # expansion; 4 I is no identity and still expands, to minors 4^k
    expanded = []
    orig = forms._minors
    monkeypatch.setattr(forms, "_minors", lambda *args: expanded.append(args[0]) or orig(*args))
    rows = [[field.scalar(int(i == j)) for j in range(n)] for i in range(n)]
    for geom in (FrameGeometry(n, field), FrameGeometry(n, field, rows)):
        geom.check_positive_definite()
        assert (geom.det_metric(), geom.sqrt_det()) == (field.one(), field.one())
        assert geom._leading == [(1, 0)] * n
        assert not expanded
        assert _table_leading(geom) == geom._leading
        expanded.clear()
    four = FrameGeometry(n, field, [[x * 4 for x in row] for row in rows])
    assert (four.det_metric(), four.sqrt_det()) == (field.scalar(4**n), field.scalar(2**n))
    assert expanded
    assert four._leading == _table_leading(four) == [(4**k, 0) for k in range(1, n + 1)]


@st.composite
def symmetric_matrices(draw):
    """A symmetric matrix over Q or Q(sqrt2): small random entries, where
    leading minors are often zero, or A^T D A for an invertible
    upper-triangular A and a diagonal D that is positive, has one -1
    (indefinite) or has one 0 (a zero leading minor from that row on)."""
    field = draw(st.sampled_from([Q, Q2]))
    n = draw(st.integers(1, 5))
    kind = draw(st.sampled_from(["entries", "definite", "indefinite", "degenerate"]))
    if kind == "entries":
        upper = {(i, j): draw(_entry(field)) for i in range(n) for j in range(i, n)}
        return field, [[upper[min(i, j), max(i, j)] for j in range(n)] for i in range(n)]
    nonzero = _entry(field).filter(lambda x: not x.is_zero())
    a = [[draw(nonzero) if j == i else draw(_entry(field)) if j > i else field.zero() for j in range(n)] for i in range(n)]
    d = [field.scalar(draw(st.sampled_from([1, 2]))) for _ in range(n)]
    if kind != "definite":
        d[draw(st.integers(0, n - 1))] = field.scalar(-1 if kind == "indefinite" else 0)
    return field, [[sum((a[k][i] * d[k] * a[k][j] for k in range(n)), field.zero()) for j in range(n)] for i in range(n)]


@settings(max_examples=60, deadline=None)
@given(symmetric_matrices())
def test_positive_definite_exactly_when_leading_cofactor_minors_are_positive(case):
    field, m = case
    n = len(m)
    sylvester = all(cofactor_det([row[:k] for row in m[:k]], field).sign() > 0 for k in range(1, n + 1))
    g = FrameGeometry(n, field, m)
    if sylvester:
        g.check_positive_definite()
    else:
        with pytest.raises(GeometryError, match="^metric is not positive-definite$"):
            g.check_positive_definite()


# -- skew 3-form packer --------------------------------------------------------


def test_skew_three_form_roundtrip(rng):
    h = random_kform(6, 3, Q, rng, density=0.5)
    assert skew_form(6, Q, lambda i, j, k: coeff(h, i + 1, j + 1, k + 1)) == h


def _skew_entries(h):
    """The components t(i, j, k) of the 3-form h, 0-based, at every order of
    the indices of every term."""
    out = {}
    for m, c in h.coeffs.items():
        i, j, k = (x - 1 for x in indices_of(m))
        for key, sign in (((i, j, k), 1), ((j, k, i), 1), ((k, i, j), 1), ((j, i, k), -1), ((i, k, j), -1), ((k, j, i), -1)):
            out[key] = c * sign
    return out


def test_skew_three_form_rejects_partial_skewness():
    # skew in the first two slots, zero on repeated indices, not totally skew
    def t(i, j, k):
        if len({i, j, k}) < 3:
            return Q.zero()
        return Q.one() if i < j else -Q.one()

    assert skew_form(3, Q, t) is None
    s = Q2.sqrt_d()
    h = KForm.from_terms(6, Q2, [((1, 2, 3), 1 + s), ((2, 4, 6), -2), ((1, 5, 6), s)])
    full = _skew_entries(h)
    assert skew_three_form(6, Tensor(Q2, full)) == h
    missing = {key: v for key, v in full.items() if key != (5, 3, 1)}  # one order of e246 left out
    wrong_sign = {**full, (2, 1, 0): -full[2, 1, 0]}  # one order of e123 with the sign of the sorted one
    sqrt_part = {**full, (1, 0, 2): -1 + s}  # -(1 + sqrt2) wanted: the rational part right, the sqrt2 part not
    for bad in (missing, wrong_sign, sqrt_part):
        assert skew_three_form(6, Tensor(Q2, bad)) is None


def test_skew_three_form_rejects_repeated_index_entry():
    h = KForm.from_terms(3, Q, [((1, 2, 3), 1)])

    def t(i, j, k):
        if (i, j, k) == (0, 0, 1):
            return Q.one()
        return coeff(h, i + 1, j + 1, k + 1)

    assert skew_form(3, Q, t) is None
    assert skew_three_form(3, Tensor(Q, {(1, 1, 1): 1})) is None
    # a repeated index in the sqrt2 part alone
    full = _skew_entries(KForm.from_terms(4, Q2, [((1, 2, 3), 1)]))
    assert skew_three_form(4, Tensor(Q2, {**full, (3, 0, 3): Q2.sqrt_d()})) is None


# -- derivation ------------------------------------------------------------------


def random_action(n, field, rng):
    action = {}
    for j in range(n):
        for t in range(n):
            if rng.random() < 0.4:
                action.setdefault(j, {})[t] = field.scalar(Fraction(rng.randint(-3, 3), rng.randint(1, 2)))
    return action


def test_derivation_on_one_forms(rng):
    action = random_action(5, Q, rng)
    for j in range(5):
        ej = KForm(5, 1, Q, {1 << j: Q.one()})
        expected = KForm(5, 1, Q, {1 << t: v for t, v in action.get(j, {}).items()})
        assert derivation(ej, action) == expected


def test_derivation_leibniz(rng):
    cases = 0
    for _ in range(30):
        n = rng.randint(3, 7)
        action = random_action(n, Q, rng)
        ka = rng.randint(0, n - 1)
        kb = rng.randint(0, n - ka)
        a = random_kform(n, ka, Q, rng)
        b = random_kform(n, kb, Q, rng)
        lhs = derivation(wedge(a, b), action)
        rhs = wedge(derivation(a, action), b) + wedge(a, derivation(b, action))
        assert lhs == rhs
        cases += 1
    assert cases == 30


# -- sparse overdetermined solve ---------------------------------------------


def _rows(field, *rows):
    """Int rows of the equations sum_c row[c] x_c = rhs, the right-hand side
    under key -1."""
    return [_ints({**{c: field.scalar(v) for c, v in row.items()}, -1: field.scalar(rhs)}, field)[1:] for row, rhs in rows]


def test_sparse_inconsistent_before_full_rank():
    # x0 + x1 = 1 and 2 x0 + 2 x1 = 3 meet while only one pivot is known
    rows = _rows(Q, ({0: 1, 1: 1}, 1), ({0: 2, 1: 2}, 3), ({1: 1, 2: 1}, 0), ({0: 1, 1: 2, 2: 3}, 0))
    with pytest.raises(LinearSolveError, match="^no solution$"):
        solve_unique_sparse(rows, 3, Q)


def test_sparse_inconsistent_deferred_row():
    # full rank after the three short rows; the long one is checked by substitution
    rows = _rows(Q, ({0: 1}, 1), ({1: 1}, 2), ({2: 1}, 3), ({0: 1, 1: 1, 2: 1}, 7))
    with pytest.raises(LinearSolveError, match="^no solution$"):
        solve_unique_sparse(rows, 3, Q)
    rows[-1][0][-1] = 6
    assert solution(rows, 3, Q) == [Q.scalar(1), Q.scalar(2), Q.scalar(3)]


def test_sparse_rank_deficient():
    rows = _rows(Q, ({0: 1, 1: 1}, 1), ({0: 2, 1: 2}, 2), ({2: 1}, 5), ({0: -1, 1: -1, 2: 1}, 4))
    with pytest.raises(LinearSolveError, match="^non-unique solution$"):
        solve_unique_sparse(rows, 3, Q)


def test_echelon_reduces_against_several_right_hand_sides():
    # x0 + x1 = (1, 2) twice over: one pivot carries both sides (keys -1, -2)
    rows = [_ints({0: Q.one(), 1: Q.one(), -1: Q.one(), -2: Q.scalar(2)}, Q)[1:],
            _ints({0: Q.scalar(2), 1: Q.scalar(2), -1: Q.scalar(2), -2: Q.scalar(4)}, Q)[1:]]
    assert echelon(rows, Q) == {1: ({1: 1, 0: 1, -1: 1, -2: 2}, {})}
    rows[1][0][-2] = 5  # the second side is inconsistent
    with pytest.raises(InconsistentSystem, match="^no solution$"):
        echelon(rows, Q)


def test_sparse_waiting_sqrt_row_is_checked_by_substitution():
    # x0 = 1 and x1 = sqrt2 give every column a pivot, so x0 + sqrt2 x1 = rhs
    # waits and is checked at the solution: 1 + sqrt2 sqrt2 = 3
    def rows(rhs):
        return _rows(Q2, ({0: 1}, 1), ({1: 1}, Q2.sqrt_d()), ({0: 1, 1: Q2.sqrt_d()}, rhs))

    assert solution(rows(3), 2, Q2) == [Q2.one(), Q2.sqrt_d()]
    for rhs in (4, 3 + Q2.sqrt_d()):
        with pytest.raises(InconsistentSystem, match="^no solution$"):
            solve_unique_sparse(rows(rhs), 2, Q2)


def test_echelon_makes_a_sqrt_lead_rational():
    # (1 + sqrt2) x0 = 1 times the conjugate 1 - sqrt2 reads -x0 = 1 - sqrt2,
    # made primitive with a positive lead: x0 = -1 + sqrt2
    rows = _rows(Q2, ({0: 1 + Q2.sqrt_d()}, 1))
    assert echelon(rows, Q2) == {0: ({0: 1, -1: -1}, {-1: 1})}
    assert solution(rows, 1, Q2) == [Q2.sqrt_d() - 1]
    # a lead with no rational part: x0 + sqrt2 x1 = 0 times -sqrt2 reads
    # 2 x1 + sqrt2 x0 = 0, beside the pivot x0 = 1
    rows = _rows(Q2, ({0: 1}, 1), ({0: 1, 1: Q2.sqrt_d()}, 0))
    assert echelon(rows, Q2) == {0: ({0: 1, -1: 1}, {}), 1: ({1: 2}, {0: 1})}
    assert solution(rows, 2, Q2) == [Q2.one(), -Q2.sqrt_d() / 2]


def test_sparse_reduces_a_sqrt_entry_at_its_pivot():
    # x0 + (a + b sqrt2) x1 = 0 waits for the pivot L x1 = 1, then is reduced
    # at x1: L row - (a + b sqrt2) pivot leaves L x0 = -(a + b sqrt2)
    r2 = Q2.sqrt_d()
    rows = _rows(Q2, ({1: 1}, 1), ({0: 1, 1: r2}, 0))
    assert echelon(rows, Q2) == {1: ({1: 1, -1: 1}, {}), 0: ({0: 1}, {-1: -1})}
    assert solution(rows, 2, Q2) == [-r2, Q2.one()]
    rows = _rows(Q2, ({1: 2}, 1), ({0: 1, 1: 1 + r2}, 0))
    assert echelon(rows, Q2) == {1: ({1: 2, -1: 1}, {}), 0: ({0: 2, -1: -1}, {-1: -1})}
    assert solution(rows, 2, Q2) == [-(1 + r2) / 2, Q2.scalar(Fraction(1, 2))]


def test_back_substitute_reads_sqrt_entries_and_several_sides():
    # 2 x0 = (1, sqrt2) and sqrt2 x0 + 3 x1 = (0, 1) on the sides -1 and -2
    pivots = {0: ({0: 2, -1: 1}, {-2: 1}), 1: ({1: 3, -2: 1}, {0: 1})}
    den, sides = _back_substitute(pivots, 2, 2, (-1, -2))
    assert den == 6
    r2 = Q2.sqrt_d()
    want = [[Q2.scalar(Fraction(1, 2)), -r2 / 6], [r2 / 2, (1 - Q2.scalar(2) / 2) / 3]]
    for (p, q), x in zip(sides, want):
        assert [scalars._norm(Q2, p[c], q[c], den) for c in range(2)] == x


def test_back_substitute_divides_over_the_product_of_the_leads():
    # leads 2 and 2: 2 x0 = 1 and x0 + 2 x1 = 1 give (1/2, 1/4), over 4;
    # over the lcm 2 of the leads x1 would need the non-int numerator 1/2
    rows = _rows(Q, ({0: 2}, 1), ({0: 1, 1: 2}, 1))
    assert solve_unique_sparse(rows, 2, Q) == (4, {0: 2, 1: 1}, {})
    assert solution(rows, 2, Q) == [Q.scalar(Fraction(1, 2)), Q.scalar(Fraction(1, 4))]


def _entry(field):
    small = st.integers(-3, 3)
    if field is Q:
        return small.map(Q.scalar)
    return st.tuples(small, small).map(lambda ab: Q2.scalar(ab[0]) + Q2.sqrt_d() * ab[1])


@st.composite
def consistent_systems(draw):
    """A random square core A x = b, A invertible, plus random combinations of
    its rows, all shuffled."""
    field = draw(st.sampled_from([Q, Q2]))
    n = draw(st.integers(1, 5))
    core = [[draw(_entry(field)) for _ in range(n)] for _ in range(n)]
    assume(not cofactor_det(core, field).is_zero())
    b = [draw(_entry(field)) for _ in range(n)]
    rows = [(dict(enumerate(row)), rhs) for row, rhs in zip(core, b)]
    for _ in range(draw(st.integers(0, 2 * n))):
        coefs = [draw(st.integers(-2, 2)) for _ in range(n)]
        row = {c: sum((core[r][c] * f for r, f in enumerate(coefs)), field.zero()) for c in range(n)}
        rows.append((row, sum((b[r] * f for r, f in enumerate(coefs)), field.zero())))
    return field, core, b, draw(st.permutations(rows))


@settings(max_examples=40, deadline=None)
@given(consistent_systems())
def test_sparse_solve_matches_dense_core(system):
    field, core, b, rows = system
    assert solution([_ints({**row, -1: rhs}, field)[1:] for row, rhs in rows], len(core), field) == solve_dense(core, b)


def _nonzero_factor(field):
    """A nonzero scalar (a + b sqrt d)/c of ``field`` with small ints."""
    small = st.integers(-3, 3)
    if field is Q:
        return st.builds(Fraction, small, st.integers(1, 4)).filter(bool).map(Q.scalar)
    return st.tuples(small, small, st.integers(1, 4)).filter(lambda t: t[0] or t[1]).map(
        lambda t: (Q2.scalar(t[0]) + Q2.sqrt_d() * t[1]) / t[2])


@st.composite
def sparse_systems(draw):
    """A small random system over QQ or QQ(sqrt2), as (field, unknowns,
    [(row, rhs)]): solvable, inconsistent or rank-deficient."""
    field = draw(st.sampled_from([Q, Q2]))
    n = draw(st.integers(1, 4))
    entry = _entry(field)
    rows = [({c: draw(entry) for c in range(n)}, draw(entry)) for _ in range(draw(st.integers(1, 6)))]
    return field, n, rows


def _outcome(field, n, rows):
    """The solution of the Scalar rows, or the error type and message."""
    try:
        return solution([_ints({**row, -1: rhs}, field)[1:] for row, rhs in rows], n, field)
    except LinearSolveError as exc:
        return type(exc), str(exc)


@settings(max_examples=80, deadline=None)
@given(st.one_of(consistent_systems().map(lambda s: (s[0], len(s[1]), s[3])), sparse_systems()), st.data())
def test_solve_ignores_row_order_and_row_scale(system, data):
    # the solution, and the exact error message, do not depend on the order
    # of the rows or on a nonzero factor (of QQ(sqrt2) too) on each of them;
    # the triangular pivots may, but each is primitive with a positive lead
    # at its last column
    field, n, rows = system
    want = _outcome(field, n, rows)
    factors = [data.draw(_nonzero_factor(field)) for _ in rows]
    moved = data.draw(st.permutations([({c: f * v for c, v in row.items()}, f * rhs) for (row, rhs), f in zip(rows, factors)]))
    assert _outcome(field, n, moved) == want
    try:
        pivots = echelon([_ints({**row, -1: rhs}, field)[1:] for row, rhs in moved], field)
    except InconsistentSystem:
        return
    for lead, (p, q) in pivots.items():
        assert gcd(*p.values(), *q.values()) == 1 and p[lead] > 0 and lead == max(p.keys() | q.keys())


# -- fused multiply-accumulate kernels ----------------------------------------
#
# Each reference below sums its terms one by one with plain Scalar + and *,
# the way the kernels summed before they accumulated through scalars._mac.

N = 5
DENS = [1, 2, 3, 5, 7, 14, 35]  # non-unit and mixed denominators


def _value(field):
    rat = st.builds(Fraction, st.integers(-4, 4), st.sampled_from(DENS))
    if field is Q:
        return rat.map(Q.scalar)
    return st.tuples(rat, rat).map(lambda ab: field.scalar(ab[0]) + field.sqrt_d() * ab[1])


def _forms(field, k):
    masks = [m for m in range(1 << N) if m.bit_count() == k]
    return st.dictionaries(st.sampled_from(masks), _value(field), max_size=len(masks)).map(
        lambda c: KForm(N, k, field, c)
    )


def ref_derivation(a, action):
    terms = []
    for m, c in a.coeffs.items():
        idx = indices_of(m)
        for p, i in enumerate(idx):
            for t, v in action.get(i - 1, {}).items():
                terms.append((idx[:p] + (t + 1,) + idx[p + 1:], c * v))
    return ref_collect(a.field, terms)


def ref_contract_2_3(f, h, ginv):
    """(1/2) sum over ordered (a, b) of F^{ab} H(e_a, e_b, e_z), diagonal g."""
    field, half = f.field, f.field.scalar(Fraction(1, 2))
    terms = []
    for z in range(1, N + 1):
        for a in range(1, N + 1):
            for b in range(1, N + 1):
                fup = coeff(f, a, b) * ginv[a - 1] * ginv[b - 1]
                terms.append(((z,), half * fup * coeff(h, a, b, z)))
    return ref_collect(field, terms)


def ref_axpy(row, f, other):
    out = dict(row)
    for c, v in other.items():
        out[c] = out.get(c, f.field.zero()) + f * v
    return {c: v for c, v in out.items() if not v.is_zero()}


FIELDS = [Q, Q3]


@st.composite
def kernel_inputs(draw):
    field = draw(st.sampled_from(FIELDS))
    ka = draw(st.integers(1, 3))
    a = draw(_forms(field, ka))
    # a 1-form wedged with itself cancels on every key
    b = a if ka == 1 and draw(st.booleans()) else draw(_forms(field, draw(st.integers(0, N - ka))))
    x = VectorField(N, field, [draw(_value(field)) for _ in range(N)])
    action = draw(st.dictionaries(st.integers(0, N - 1), st.dictionaries(st.integers(0, N - 1), _value(field))))
    coframe_d = [draw(_forms(field, 2)) for _ in range(N)]
    return field, a, b, x, action, coframe_d


@settings(max_examples=60, deadline=None)
@given(kernel_inputs())
def test_fused_kernels_match_termwise_sums(inputs):
    field, a, b, x, action, coframe_d = inputs
    assert_same = _assert_same_form
    assert_same(wedge(a, b), ref_wedge(a, b), a.k + b.k, field)
    assert_same(interior(x, a), ref_interior(x, a), a.k - 1, field)
    assert_same(derivation(a, action), ref_derivation(a, action), a.k, field)
    # several actions in one walk: column p of each row is the p-th derivation
    flipped = {}
    for j, row in action.items():
        for t, v in row.items():
            flipped.setdefault(t, {})[j] = -v
    actions = [action, {}, flipped]
    rows = derivation_columns(a, actions)
    assert all(rows.values())  # a mask whose every column cancels is absent
    for p, act in enumerate(actions):
        assert_same(KForm(N, a.k, field, {m: row[p] for m, row in rows.items() if p in row}), ref_derivation(a, act),
                    a.k, field)
    frame = LieAlgebraFrame([f"e{i}" for i in range(1, N + 1)], coframe_d, FrameGeometry(N, field), check_closure=False)
    assert_same(ce_differential(frame, a), ref_d(coframe_d, a), a.k + 1, field)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(FIELDS).flatmap(lambda F: st.tuples(_forms(F, 2), _forms(F, 3))), st.booleans())
def test_fused_contract_2_3_matches_termwise_sum(fh, diagonal):
    f, h = fh
    field = f.field
    g = [field.scalar(v) for v in ((1, 2, 1, 3, Fraction(1, 5)) if diagonal else (1,) * N)]
    geom = FrameGeometry(N, field, [[g[i] if i == j else 0 for j in range(N)] for i in range(N)])
    _assert_same_form(contract_2_3(f, h, geom), ref_contract_2_3(f, h, [v.inverse() for v in g]), 1, field)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(FIELDS).flatmap(lambda F: st.tuples(
    st.dictionaries(st.integers(0, 6), _value(F).filter(lambda v: not v.is_zero())),
    _value(F),
    st.dictionaries(st.integers(0, 6), _value(F)),
)))
def test_fused_axpy_matches_termwise_sum(case):
    # on int rows: D (row + f other) = (D/Dr) R + (D/Do) f O, with R = Dr row
    # and O = Do other the int rows and D = Dr Do fden
    row, f, other = case
    field = f.field
    want = ref_axpy(row, f, other)
    dr, do = (math.lcm(1, *(v.den for v in part.values())) for part in (row, other))
    rp, rq = _ints(row, field)[1:]
    acc = ({c: v * do * f.den for c, v in rp.items()}, {c: v * do * f.den for c, v in rq.items()})
    _axpy(acc, dr * f.p, dr * f.q, _ints(other, field)[1:], field.d)
    p, q = ({c: v for c, v in part.items() if v} for part in acc)  # _axpy leaves cancelled sums as zeros
    got = {c: scalars._norm(field, p.get(c, 0), q.get(c, 0), dr * do * f.den) for c in p.keys() | q.keys()}
    assert got == want


def _canonical(v):
    return v.den > 0 and gcd(v.p, v.q, v.den) == 1 and not v.is_zero()


def _assert_same_form(got, want, k, field):
    """got is a k-form of dimension N over field whose coefficients are the
    reference's {mask: Scalar} ``want``, each canonical and in that field.
    Degree and field are checked on got itself, so a zero result counts too."""
    assert (got.n, got.k, got.field) == (N, k, field)
    assert all(m.bit_count() == k for m in want)
    assert got.coeffs == want  # a cancelled key is absent, not zero
    assert all(_canonical(v) and v.field is got.field for v in got.coeffs.values())


def _q(x):
    return Q.scalar(Fraction(x))


def e(*idx):
    return sum(1 << (i - 1) for i in idx)


def test_top_degree_wedge_matches_termwise_sums():
    # to top degree each mask of a looks up its complement in b; drawn over
    # QQ and QQ(sqrt3) with small values, so sums cancel
    rng = random.Random(5309)
    full = (1 << N) - 1
    seen = set()
    for trial in range(300):
        field = (Q, Q3)[trial % 2]

        def draw(k):
            terms = {}
            for m in range(1 << N):
                if m.bit_count() == k and rng.random() < 0.5:
                    v = field.scalar(rng.choice((1, -1, 2)))
                    terms[m] = v + field.sqrt_d() * rng.choice((0, 1, -1)) if field is Q3 else v
            return KForm(N, k, field, terms)

        a = draw(rng.randint(0, N))
        b = draw(N - a.k)
        got = wedge(a, b)
        _assert_same_form(got, ref_wedge(a, b), N, field)
        pairs = sum(1 for m in a.coeffs if full ^ m in b.coeffs)
        if pairs:
            seen.add("top-degree pair")
            seen.add("cancels" if got.is_zero() else "sqrt part" if got._q else "rational")
    assert seen == {"top-degree pair", "cancels", "sqrt part", "rational"}


def test_fused_kernels_drop_keys_that_cancel():
    # every cancelled key pairs a raw 6/70 with a 3/35: equal values, mixed dens
    a = KForm(N, 2, Q, {e(1, 2): _q("2/5"), e(1, 3): _q(1)})
    b = KForm(N, 1, Q, {e(3): _q("3/14"), e(2): _q("3/35"), e(4): _q("1/3")})
    w = wedge(a, b)  # e123: 2/5 * 3/14 - 3/35
    assert e(1, 2, 3) not in w.coeffs
    _assert_same_form(w, ref_wedge(a, b), 3, Q)
    assert set(w.coeffs) == {e(1, 2, 4), e(1, 3, 4)}

    a = KForm(N, 2, Q, {e(1, 3): _q("2/5"), e(2, 3): _q(1)})
    x = VectorField(N, Q, [_q("3/14"), _q("-3/35"), _q("1/3"), 0, 0])
    i = interior(x, a)  # e3: 2/5 * 3/14 - 3/35
    assert e(3) not in i.coeffs
    _assert_same_form(i, ref_interior(x, a), 1, Q)

    action = {2: {1: _q("3/14"), 0: _q("6/35")}}  # e3 -> 3/14 e2 + 6/35 e1
    a = KForm(N, 2, Q, {e(1, 3): _q("2/5"), e(2, 3): _q("1/2")})
    dv = derivation(a, action)  # e12: 2/5 * 3/14 - 1/2 * 6/35
    assert not dv.coeffs
    _assert_same_form(dv, ref_derivation(a, action), 2, Q)

    coframe_d = [KForm(N, 2, Q, {e(2, 3): _q("2/5")}), KForm.zero(N, 2, Q), KForm.zero(N, 2, Q),
                 KForm(N, 2, Q, {e(2, 3): _q("-3/35")}), KForm.zero(N, 2, Q)]
    frame = LieAlgebraFrame([f"e{i}" for i in range(1, N + 1)], coframe_d, FrameGeometry(N, Q))
    theta = KForm(N, 1, Q, {e(1): _q("3/14"), e(4): _q(1), e(5): _q(7)})
    assert not ce_differential(frame, theta).coeffs  # e23: 3/14 * 2/5 - 3/35

    f = KForm(N, 2, Q, {e(1, 2): _q("2/5"), e(1, 3): _q(1)})
    h = KForm(N, 3, Q, {e(1, 2, 4): _q("3/14"), e(1, 3, 4): _q("-3/35"), e(1, 2, 5): _q(1)})
    c = contract_2_3(f, h, FrameGeometry(N, Q))  # e4: 2/5 * 3/14 - 3/35
    assert set(c.coeffs) == {e(5)}
    _assert_same_form(c, ref_contract_2_3(f, h, [Q.one()] * N), 1, Q)

    # (3/35, 1) + 2/5 (-3/14, 0) on int rows over 35 * 14 * 5: 210 - 210 at
    # key 0, an exact zero; _axpy keeps it
    acc = ({0: 3 * 14 * 5, 1: 35 * 14 * 5}, {})
    _axpy(acc, 35 * 2, 0, ({0: -3}, {}), 0)
    assert acc == ({0: 0, 1: 35 * 14 * 5}, {})
    # echelon reduces the second row at its last column, key 1, where the
    # first row's pivot cancels it exactly, and drops that zero from the row
    rows = [_ints({1: _q("-3/14")}, Q)[1:], _ints({0: _q(1), 1: _q("3/35")}, Q)[1:]]
    assert echelon(rows, Q) == {1: ({1: 1}, {}), 0: ({0: 1}, {})}


def test_fused_kernels_reject_mixed_fields():
    msg = r"^mixed-field arithmetic: QQ vs QQ\(sqrt3\)$"
    qa = KForm(N, 1, Q, {1: Q.one(), 2: _q("1/2")})
    q3 = KForm(N, 1, Q3, {4: Q3.sqrt_d()})
    with pytest.raises(FieldMismatch, match=msg):
        wedge(qa, q3)
    with pytest.raises(FieldMismatch, match=msg):
        interior(VectorField(N, Q3, [Q3.sqrt_d()] * N), qa)
    with pytest.raises(FieldMismatch, match=msg):
        derivation(qa, {0: {2: Q3.sqrt_d()}})
    coframe_d = [KForm(N, 2, Q3, {e(2, 3): Q3.sqrt_d()})] + [KForm.zero(N, 2, Q3)] * (N - 1)
    frame = LieAlgebraFrame([f"e{i}" for i in range(1, N + 1)], coframe_d, FrameGeometry(N, Q3))
    with pytest.raises(FieldMismatch, match=msg):
        ce_differential(frame, qa)
    f = KForm(N, 2, Q, {3: Q.one()})
    h = KForm(N, 3, Q3, {7: Q3.sqrt_d()})
    with pytest.raises(FieldMismatch, match=msg):
        contract_2_3(f, h, FrameGeometry(N, Q))
    mixed = [[Q3.sqrt_d() if i == j == 0 else Q.one() if i == j else Q.zero() for j in range(N)] for i in range(N)]
    with pytest.raises(FieldMismatch, match=msg):
        transform_form(qa, mixed, Q)
    with pytest.raises(FieldMismatch, match=msg):
        mat_inverse(mixed, Q)  # its rows become int rows of QQ
    # det [[1, sqrt3], [sqrt3, 1]] = -2: read without sqrt3 it is the identity
    geom = FrameGeometry(2, Q, [[Q.one(), Q3.sqrt_d()], [Q3.sqrt_d(), Q.one()]])
    with pytest.raises(FieldMismatch, match=msg):
        geom.check_positive_definite()
    with pytest.raises(FieldMismatch, match=msg):
        geom.det_metric()



def _values(field, c):
    """A 2-form, a vector and a tensor over ``field``, each c at one key."""
    return KForm(3, 2, field, {3: c}), VectorField(3, field, [c, 0, 0]), Tensor(field, {(0, 1): c})


def test_bodies_of_different_types_are_never_equal():
    # a form, a vector and a tensor compare False under ==
    # and True under !=, with no error, in either order
    form = KForm(N, 1, Q, {e(1): Q.one()})
    vector = VectorField(N, Q, [Q.one()] + [0] * (N - 1))
    tensor = Tensor(Q, {(0, 0): Q.one()})
    for a, b in [(form, vector), (form, tensor), (vector, tensor)]:
        assert not a == b and not b == a
        assert a != b and b != a


@pytest.mark.parametrize("q3", [Q3.sqrt_d(), Q3.one()], ids=["sqrt3", "rational"])
def test_one_field_rule(q3):
    # bodies of two fields meet only when one of them is zero, whatever the
    # sqrt(d) parts, and a frame, a geometry or a change of frame counts as
    # nonzero; the error names the first operand's field first
    fwd, back = r"^mixed-field arithmetic: QQ vs QQ\(sqrt3\)$", r"^mixed-field arithmetic: QQ\(sqrt3\) vs QQ$"
    for qa, qz, xa, xz in zip(_values(Q, Q.one()), _values(Q, Q.zero()), _values(Q3, q3), _values(Q3, Q3.zero())):
        for op in (lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a == b):
            with pytest.raises(FieldMismatch, match=fwd):
                op(qa, xa)
            with pytest.raises(FieldMismatch, match=back):
                op(xa, qa)
        # a zero meets a body of another field and takes its field
        for total in (qz + xa, xa + qz, xa - qz, -(qz - xa)):
            assert total == xa and total.field is Q3
        assert qz != xa and xa != qz and qa != xz and qz == xz

    (qf, qv, _), (qzf, qzv, _) = _values(Q, Q.one()), _values(Q, Q.zero())
    (xf, xv, xt), (xzf, xzv, _) = _values(Q3, q3), _values(Q3, Q3.zero())
    q1, x1 = KForm(3, 1, Q, {4: Q.one()}), KForm(3, 1, Q3, {4: q3})
    q3form, x3form = KForm(3, 3, Q, {7: Q.one()}), KForm(3, 3, Q3, {7: q3})
    geom_q, geom_x = FrameGeometry(3, Q, [[2, 0, 0], [0, 1, 0], [0, 0, 1]]), FrameGeometry(3, Q3)
    change = CoframeChange(Tensor(Q3, {(0, 0): Q3.one(), (1, 1): q3, (2, 2): Q3.one()}), 3)
    frame = LieAlgebraFrame(["e1", "e2", "e3"], [KForm(3, 2, Q3, {6: q3}), KForm.zero(3, 2, Q3), KForm.zero(3, 2, Q3)],
                            geom_x)
    raising = [
        (fwd, lambda: wedge(qf, x1)),
        (back, lambda: wedge(x1, qf)),
        (fwd, lambda: interior(xv, qf)),
        (back, lambda: interior(qv, xf)),
        (fwd, lambda: musical(xv, geom_q)),
        (back, lambda: musical(qv, geom_x)),
        (fwd, lambda: form_inner(qf, xf, geom_q)),
        (fwd, lambda: contract_2_3(qf, x3form, geom_q)),
        (back, lambda: contract_2_3(xf, q3form, geom_q)),
        (fwd, lambda: change.move(qf)),
        (fwd, lambda: ce_differential(frame, q1)),
    ]
    for msg, call in raising:
        with pytest.raises(FieldMismatch, match=msg):
            call()
    # against a zero nothing raises, and the value is zero
    zeros = [
        wedge(qzf, x1), wedge(qf, KForm.zero(3, 1, Q3)), interior(xzv, qf), interior(qv, xzf), interior(xv, qzf),
        musical(qzv, geom_x), form_inner(qzf, xf, geom_q), form_inner(qf, xzf, geom_q),
        contract_2_3(qzf, x3form, geom_q), contract_2_3(qf, KForm.zero(3, 3, Q3), geom_q),
        change.move(qzf), ce_differential(frame, KForm.zero(3, 1, Q)),
    ]
    assert all(z.is_zero() for z in zeros)
    assert change.move(qzf).field is Q3 and musical(qzv, geom_x).field is Q3
    assert xt - xt == Tensor(Q, {}) and (xt - xt).field is Q3


def _count_norms(monkeypatch):
    calls = []
    orig = scalars._norm

    def counting(*args):
        calls.append(args)
        return orig(*args)

    for mod in (scalars, forms):
        monkeypatch.setattr(mod, "_norm", counting)
    return calls


@pytest.mark.parametrize("field", FIELDS)
def test_fused_kernels_normalize_once_per_output_mask(monkeypatch, field):
    # dense forms with mixed denominators: every output mask gets many terms
    def dense(k, shift):
        coeffs = {}
        for m in range(1 << 7):
            if m.bit_count() == k:
                v = field.scalar(Fraction(m % 5 - 2 or 1, DENS[(m + shift) % len(DENS)]))
                coeffs[m] = v + field.sqrt_d() * Fraction(1, 1 + m % 3) if field is Q3 else v
        return KForm(7, k, field, coeffs)

    a, b = dense(2, 0), dense(3, 1)
    action = {j: {t: field.scalar(Fraction(j - t, DENS[(j * 7 + t) % len(DENS)])) for t in range(7)} for j in range(7)}
    calls = _count_norms(monkeypatch)
    w = wedge(a, b)
    assert not calls  # the body is normalized once, by one gcd over the form
    # the Scalar view is built on first read, one normalization per mask
    assert 0 < len(w.coeffs) == len(calls) <= 35  # the 5-forms of n = 7
    calls.clear()
    d = derivation(b, action)
    assert not calls  # derivation_rows sums ints: only the test helper builds Scalars
    assert d.coeffs == ref_derivation(b, action)


@pytest.mark.parametrize("field", [Q, Q3])
def test_body_kernels_build_no_scalar(monkeypatch, field):
    # wedge, star, d, + and - sum ints into one body per form: on forms whose
    # coeffs are never read, no Scalar is built
    rng = random.Random(5)
    frame = su2su2_frame(field)
    root = field.sqrt_d() if field is Q3 else field.one()
    a0 = random_kform(6, 2, field, rng) + KForm(6, 2, field, {e(1, 4): field.scalar(Fraction(2, 3)) + root})
    b0 = random_kform(6, 1, field, rng)
    diagonal = [[(1, 4, 1, 9, 1, 1)[i] if i == j else 0 for j in range(6)] for i in range(6)]
    geoms = [FrameGeometry(6, field), FrameGeometry(6, field, diagonal), random_posdef_geometry(6, field, rng)]
    for geom in geoms:  # the geometry's own caches: sqrt det g and the minors of g^{-1}
        hodge_star(frame.d(wedge(a0, b0)), geom)
    a, b = wedge(a0, b0), a0 + a0  # body forms: their coeffs are never read
    built = []
    init = Scalar.__init__
    monkeypatch.setattr(Scalar, "__init__", lambda self, *args: built.append(args) or init(self, *args))
    for geom in geoms:
        s = hodge_star(frame.d(a + a - wedge(b, b0)), geom)  # 3-form -> 4-form -> 2-form
        hodge_star(wedge(s, b) - wedge(b, s) + wedge(s, s), geom)
    monkeypatch.undo()
    assert built == []
    assert a._view is None and b._view is None


# -- kernel outputs and the change of frame -----------------------------------
#
# Kernel outputs are built on int bodies by ``forms._normalize``, which skips
# the public constructor's checks.  Each output must still be what that
# constructor would build: nonzero canonical coefficients of the form's field
# on masks of its degree.


def _well_formed(f):
    return all(m.bit_count() == f.k and _canonical(c) and c.field is f.field for m, c in f.coeffs.items())


def ref_transform_form(form, old_in_new, field):
    """The change of frame as a chain of one-form wedges per term, summed form
    by form."""
    n = form.n
    one_forms = [KForm(n, 1, field, {1 << i: old_in_new[j][i] for i in range(n)}) for j in range(n)]
    out = KForm.zero(n, form.k, field)
    for m, coef in form.coeffs.items():
        piece = KForm(n, 0, field, {0: field.one()})
        for i in indices_of(m):
            piece = wedge(piece, one_forms[i - 1])
        out = out + piece.scale(coef)
    return out


@st.composite
def kernel_output_inputs(draw):
    field = draw(st.sampled_from([Q, Q2]))
    k, l = draw(st.integers(0, N)), draw(st.integers(0, N))
    a, c, b = draw(_forms(field, k)), draw(_forms(field, k)), draw(_forms(field, l))
    f, h = draw(_forms(field, 2)), draw(_forms(field, 3))
    x = VectorField(N, field, [draw(_value(field)) for _ in range(N)])
    action = draw(st.dictionaries(st.integers(0, N - 1), st.dictionaries(st.integers(0, N - 1), _value(field))))
    coframe_d = [draw(_forms(field, 2)) for _ in range(N)]
    m = [[draw(_value(field)) for _ in range(N)] for _ in range(N)]
    metric = draw(st.sampled_from(["identity", "diagonal", "dense"]))
    if metric == "identity":
        geom = FrameGeometry(N, field)
    elif metric == "diagonal":  # det g = 36
        geom = FrameGeometry(N, field, [[(1, 4, 1, 9, 1)[i] if i == j else 0 for j in range(N)] for i in range(N)])
    else:
        geom = random_posdef_geometry(N, field, random.Random(draw(st.integers(0, 2**32))))
    return field, a, b, c, f, h, x, action, coframe_d, m, geom


@settings(max_examples=25, deadline=None)
@given(kernel_output_inputs())
def test_kernel_outputs_are_well_formed(inputs):
    field, a, b, c, f, h, x, action, coframe_d, m, geom = inputs
    frame = LieAlgebraFrame([f"e{i}" for i in range(1, N + 1)], coframe_d, geom, check_closure=False)
    outs = {
        "wedge": wedge(a, b), "interior": interior(x, a), "derivation": derivation(a, action),
        "hodge_star": hodge_star(a, geom), "ce_differential": ce_differential(frame, a),
        "transform_form": transform_form(a, m, field), "contract_2_3": contract_2_3(f, h, geom),
        "+": a + c, "-": a - c, "neg": -a, "scale": a.scale(b.coeffs.get(0, 2)),
    }
    for name, out in outs.items():
        assert _well_formed(out), name
    # cancelled and zero entries are dropped, not kept as zeros
    assert (a - a).coeffs == (a + -a).coeffs == a.scale(0).coeffs == a.scale(field.zero()).coeffs == {}
    assert (a + c) - c == a


def test_public_kform_keeps_its_checks():
    with pytest.raises(ValueError, match="^mask 111 has wrong cardinality for degree 2$"):
        KForm(N, 2, Q, {0b111: Q.one()})
    with pytest.raises(ValueError, match="^mixed degrees in term list$"):
        KForm.from_terms(N, Q, [((1, 2), 1), ((3,), 1)])
    assert KForm(N, 2, Q, {e(1, 2): Q.zero(), e(1, 3): Q.one()}).coeffs == {e(1, 3): Q.one()}
    assert KForm.from_terms(N, Q, [((1, 2), 1), ((2, 1), 1), ((3, 4), 0)]).coeffs == {}


@st.composite
def gl_changes(draw):
    """A form over Q or Q(sqrt3) and an invertible rational matrix, dense or
    with zero entries."""
    field = draw(st.sampled_from(FIELDS))
    a = draw(_forms(field, draw(st.integers(0, N))))
    entries = st.builds(Fraction, st.integers(-3, 3), st.sampled_from([1, 2, 3]))
    m = [[field.scalar(draw(entries)) for _ in range(N)] for _ in range(N)]
    assume(not _mat_det(_matrix(m, field), N).is_zero())
    return field, a, m


@settings(max_examples=60, deadline=None)
@given(gl_changes())
def test_transform_form_matches_wedge_chain(case):
    field, a, m = case
    got = transform_form(a, m, field)
    _assert_same_form(got, ref_transform_form(a, m, field).coeffs, a.k, field)
    # and back: the inverse matrix undoes the change
    assert transform_form(got, mat_inverse(m, field), field) == a
