import math
from fractions import Fraction

import pytest

from gtorsion.scalars import (
    FieldMismatch,
    FloatField,
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


def test_float_backend_tolerance():
    F = FloatField(1e-9)
    a = F.scalar(1.0)
    b = F.scalar(1.0 + 1e-12)
    assert a == b
    c = F.scalar(1.0 + 1e-6)
    assert not (a == c)
    assert F.scalar(2.0).sqrt() == F.scalar(math.sqrt(2.0))
    assert F.scalar(-3.0).sign() == -1


def test_float_never_implicit():
    with pytest.raises(ValueError):
        FloatField(-1.0)
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
