"""The shared exact kernels: dense elimination (determinant, inverse, solve,
positive-definiteness), the sparse overdetermined solve, the skew 3-form
packer and the derivation action."""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import Q, Q2, random_kform
from gtorsion.forms import (
    FrameGeometry,
    GeometryError,
    KForm,
    _mat_det,
    _mat_inverse,
    derivation,
    skew_three_form,
    wedge,
)
from gtorsion.linsolve import LinearSolveError, solve_dense, solve_unique_sparse


def cofactor_det(m, field):
    if not m:
        return field.one()
    acc = field.zero()
    for c in range(len(m)):
        minor = [row[:c] + row[c + 1:] for row in m[1:]]
        term = m[0][c] * cofactor_det(minor, field)
        acc = acc + term if c % 2 == 0 else acc - term
    return acc


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
        det = _mat_det(m, field)
        assert det == cofactor_det(m, field)
        if m[0][0].is_zero() and not det.is_zero():
            swapped += 1
        if det.is_zero():
            singular += 1
            with pytest.raises(GeometryError, match="singular metric"):
                _mat_inverse(m, field)
            with pytest.raises(LinearSolveError, match="singular system"):
                solve_dense(m, [field.one()] * n, field)
            continue
        inv = _mat_inverse(m, field)
        for i in range(n):
            for j in range(n):
                entry = sum((m[i][k] * inv[k][j] for k in range(n)), field.zero())
                assert entry == (field.one() if i == j else field.zero())
        b = [field.scalar(i + 1) for i in range(n)]
        x = solve_dense(m, b, field)
        assert [sum((m[i][k] * x[k] for k in range(n)), field.zero()) for i in range(n)] == b
    assert swapped >= 10 and singular >= 10


def test_positive_definite_rejects_zero_leading_minor():
    m = [[0, 1, 0], [1, 0, 0], [0, 0, -1]]
    g = FrameGeometry(3, Q, m)
    assert g.det_metric() == Q.one()
    with pytest.raises(GeometryError, match="metric is not positive-definite"):
        g.check_positive_definite()


# -- skew 3-form packer --------------------------------------------------------


def test_skew_three_form_roundtrip(rng):
    h = random_kform(6, 3, Q, rng, density=0.5)
    assert skew_three_form(6, Q, lambda i, j, k: h.coeff(i + 1, j + 1, k + 1)) == h


def test_skew_three_form_rejects_partial_skewness():
    # skew in the first two slots, zero on repeated indices, not totally skew
    def t(i, j, k):
        if len({i, j, k}) < 3:
            return Q.zero()
        return Q.one() if i < j else -Q.one()

    assert skew_three_form(3, Q, t) is None


def test_skew_three_form_rejects_repeated_index_entry():
    h = KForm.from_terms(3, Q, [((1, 2, 3), 1)])

    def t(i, j, k):
        if (i, j, k) == (0, 0, 1):
            return Q.one()
        return h.coeff(i + 1, j + 1, k + 1)

    assert skew_three_form(3, Q, t) is None


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
    return [({c: field.scalar(v) for c, v in row.items()}, field.scalar(rhs)) for row, rhs in rows]


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
    rows[-1] = (rows[-1][0], Q.scalar(6))
    assert solve_unique_sparse(rows, 3, Q) == [Q.scalar(1), Q.scalar(2), Q.scalar(3)]


def test_sparse_rank_deficient():
    rows = _rows(Q, ({0: 1, 1: 1}, 1), ({0: 2, 1: 2}, 2), ({2: 1}, 5), ({0: -1, 1: -1, 2: 1}, 4))
    with pytest.raises(LinearSolveError, match="^non-unique solution$"):
        solve_unique_sparse(rows, 3, Q)


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
    assume(_mat_det(core, field) != field.zero())
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
    assert solve_unique_sparse(rows, len(core), field) == solve_dense(core, b, field)
