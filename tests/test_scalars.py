from decimal import Decimal, localcontext
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gtorsion.scalars import (
    FieldMismatch,
    NotRepresentable,
    QuadraticField,
    RationalField,
)

Q = RationalField()
Q2 = QuadraticField(2)
Q3 = QuadraticField(3)


def test_rational_arithmetic():
    a = Q.scalar(Fraction(2, 3))
    b = Q.scalar(Fraction(-1, 6))
    assert a + b == Q.scalar(Fraction(1, 2))
    assert a * b == Q.scalar(Fraction(-1, 9))
    assert (a / b) == Q.scalar(-4)
    assert (a - a).is_zero()


def test_quadratic_norm_identity():
    # (a + b sqrt d)(a - b sqrt d) = a^2 - d b^2
    x = Q3.scalar(Fraction(5, 7)) + Q3.sqrt_d() * Q3.scalar(Fraction(2, 3))
    conj = Q3.scalar(Fraction(5, 7)) - Q3.sqrt_d() * Q3.scalar(Fraction(2, 3))
    prod = x * conj
    expected = Q3.scalar(Fraction(25, 49) - 3 * Fraction(4, 9))
    assert prod == expected


def test_quadratic_inverse_and_division():
    x = Q2.scalar(3) + Q2.sqrt_d()
    assert (x * x.inverse()) == Q2.one()
    y = Q2.sqrt_d()
    assert (y * y) == Q2.scalar(2)


@pytest.mark.parametrize("field", [Q, Q2, Q3])
def test_ring_laws(field, rng):
    vals = []
    for _ in range(6):
        a = field.scalar(Fraction(rng.randint(-5, 5), rng.randint(1, 4)))
        if hasattr(field, "sqrt_d") and rng.random() < 0.5:
            a = a + field.sqrt_d() * field.scalar(rng.randint(-2, 2))
        vals.append(a)
    for x in vals:
        for y in vals:
            assert x + y == y + x
            assert x * y == y * x
            for z in vals:
                assert (x + y) + z == x + (y + z)
                assert x * (y + z) == x * y + x * z


def test_mixed_fields_rejected():
    with pytest.raises(FieldMismatch):
        Q2.sqrt_d() + Q3.sqrt_d()
    with pytest.raises(FieldMismatch):
        Q.scalar(1)._coerce(Q3.sqrt_d())


def test_sign_ordering():
    # sqrt3 - 3/2 > 0, sqrt3 - 7/4 < 0
    assert (Q3.sqrt_d() - Q3.scalar(Fraction(3, 2))).sign() == 1
    assert (Q3.sqrt_d() - Q3.scalar(Fraction(7, 4))).sign() == -1
    assert Q3.zero().sign() == 0
    assert (-Q3.sqrt_d()).sign() == -1


def test_sqrt_inside_field():
    assert Q.scalar(Fraction(9, 4)).sqrt() == Q.scalar(Fraction(3, 2))
    assert Q2.scalar(2).sqrt() == Q2.sqrt_d()
    assert Q2.scalar(8).sqrt() == Q2.sqrt_d() * Q2.scalar(2)
    # (1 + sqrt2)^2 = 3 + 2 sqrt2
    x = Q2.scalar(3) + Q2.sqrt_d() * Q2.scalar(2)
    r = x.sqrt()
    assert r * r == x and r.sign() > 0
    with pytest.raises(NotRepresentable):
        Q.scalar(2).sqrt()
    with pytest.raises(NotRepresentable):
        Q3.scalar(2).sqrt()


def test_higher_roots():
    assert Q.scalar(Fraction(27, 8)).root(3) == Q.scalar(Fraction(3, 2))
    # (8 sqrt2)^9 = 2^31 sqrt2
    x = Q2.sqrt_d() * Q2.scalar(2**31)
    assert x.root(9) == Q2.sqrt_d() * Q2.scalar(8)
    with pytest.raises(NotRepresentable):
        Q.scalar(2).root(3)


def test_float_never_implicit():
    with pytest.raises(FieldMismatch):
        Q.scalar(1) + 0.5  # floats do not silently enter exact fields


def test_str_canonical():
    assert str(Q.scalar(Fraction(-2, 4))) == "-1/2"
    assert str(Q3.sqrt_d()) == "sqrt3"
    x = Q3.scalar(Fraction(1, 7)) + Q3.sqrt_d() * Q3.scalar(Fraction(1, 7))
    assert str(x) == "1/7+1/7*sqrt3"


def test_roots_of_big_integers():
    assert Q.scalar(2**2000).sqrt() == Q.scalar(2**1000)
    # a 9th power beyond float range, as in the G2 metric's det(B)^(1/9)
    base = Fraction(10**40 + 7, 3)
    assert base**9 > 1e308
    assert Q.scalar(base**9).root(9) == Q.scalar(base)
    with pytest.raises(NotRepresentable):
        Q.scalar(2**2001).sqrt()
    assert Q2.scalar(2**2001).sqrt() == Q2.sqrt_d() * Q2.scalar(2**1000)


def test_fields_are_interned():
    assert QuadraticField(3) is Q3
    assert RationalField() is Q
    assert QuadraticField(2) is not QuadraticField(3)
    for field in (Q, Q2, Q3):
        assert field.zero() is field.zero() and field.one() is field.one()
        assert field.scalar(0) is field.zero() and field.scalar(1) is field.one()
        x = field.scalar(Fraction(-5, 3))
        assert x + field.zero() is x and field.zero() + x is x and x - field.zero() is x
        assert (x * field.zero()).is_zero() and (x - x) is field.zero()


def test_huge_operands_stay_canonical():
    big = 2**2000
    for field in (Q, Q2, Q3):
        d = field.d
        x = field.scalar(Fraction(big + 1, 3)) + _sqrt_d(field) * field.scalar(Fraction(7, big))
        y = field.scalar(Fraction(-big, big + 3))
        for got, want in ((x + y, _add(_parts(x), _parts(y))), (x * y, _mul(_parts(x), _parts(y), d)),
                          (x / y, _mul(_parts(x), _inv(_parts(y), d), d)), ((x * x).sqrt(), _parts(x))):
            _check_canonical(got)
            assert _parts(got) == want


# -- kernel property test against a Fraction-pair reference -----------------
#
# The reference value of a scalar is the pair (a, b) meaning a + b*sqrt(d),
# with d = 0 in QQ; every kernel result is checked against it.

FIELDS = [Q, Q2, Q3]
fracs = st.fractions(min_value=-50, max_value=50, max_denominator=30)


def _sqrt_d(field):
    return field.sqrt_d() if field.d else field.zero()


def _parts(x):
    return (x.a, x.b)


def _add(x, y):
    return (x[0] + y[0], x[1] + y[1])


def _mul(x, y, d):
    return (x[0] * y[0] + d * x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _inv(x, d):
    norm = x[0] * x[0] - d * x[1] * x[1]
    return (x[0] / norm, -x[1] / norm)


def _sign(x, d):
    """Sign of a + b sqrt d from 60 digits of sqrt d: nonzero values here
    are far larger than the rounding error."""
    with localcontext() as ctx:
        ctx.prec = 60
        a, b = (Decimal(f.numerator) / Decimal(f.denominator) for f in x)
        v = a + b * Decimal(d).sqrt()
    return (v > 0) - (v < 0)


def _str(x, d):
    """The canonical string: a, then the sqrt d part with its sign."""
    a, b = x
    if b == 0:
        return str(a)
    bpart = f"sqrt{d}" if abs(b) == 1 else f"{abs(b)}*sqrt{d}"
    if a == 0:
        return bpart if b > 0 else f"-{bpart}"
    return f"{a}{'+' if b > 0 else '-'}{bpart}"


def _check_canonical(x):
    assert x.den > 0
    assert gcd(x.p, x.q, x.den) == 1
    if not x.field.d:
        assert x.q == 0
    assert x == x.field.scalar(x.a) + _sqrt_d(x.field) * x.field.scalar(x.b)
    assert hash(x) == hash(x.field.scalar(x.a) + _sqrt_d(x.field) * x.field.scalar(x.b))


@st.composite
def operands(draw):
    field = draw(st.sampled_from(FIELDS))
    pairs = [(draw(fracs), draw(fracs) if field.d else Fraction(0)) for _ in range(2)]
    x, y = (field.scalar(a) + _sqrt_d(field) * field.scalar(b) for a, b in pairs)
    return field, x, y, pairs[0], pairs[1]


@settings(max_examples=60, deadline=None)
@given(operands())
def test_kernel_matches_fraction_pair_reference(ops):
    field, x, y, rx, ry = ops
    d = field.d
    assert _parts(x) == rx and _parts(y) == ry
    results = [
        (x + y, _add(rx, ry)),
        (x - y, _add(rx, (-ry[0], -ry[1]))),
        (x * y, _mul(rx, ry, d)),
        (-x, (-rx[0], -rx[1])),
    ]
    if ry != (0, 0):
        results.append((y.inverse(), _inv(ry, d)))
        results.append((x / y, _mul(rx, _inv(ry, d), d)))
    for got, want in results:
        _check_canonical(got)
        assert _parts(got) == want
        assert got.sign() == _sign(want, d)
        assert str(got) == _str(want, d)
        assert got.is_zero() == (want == (0, 0))
    assert (x == y) == (rx == ry)
    assert (x == rx[0]) == (rx[1] == 0)
    square = x * x
    root = square.sqrt()
    _check_canonical(root)
    assert _parts(root) in (rx, (-rx[0], -rx[1])) and root.sign() >= 0
    for other in FIELDS:
        if other is field:
            continue
        z = other.scalar(2)
        for op in (lambda u, v: u + v, lambda u, v: u - v, lambda u, v: u * v, lambda u, v: u / v):
            with pytest.raises(FieldMismatch):
                op(x, z)
