"""Exact scalar arithmetic for the engine: the fields QQ and QQ(sqrt d).

A Scalar is the number (p + q*sqrt(d)) / den held as three plain ints in
canonical form: den > 0, gcd(p, q, den) = 1, and q = 0 in QQ.  Equal
values therefore have equal (p, q, den), so equality compares ints, and
the rational parts ``a``, ``b`` (value = a + b*sqrt(d)) are built as
Fractions only on request.

Fields are interned: ``QuadraticField(3) is QuadraticField(3)``, so fields
compare by identity, and ``zero()`` / ``one()`` return one object per
field.  Scalars from different fields never mix silently; binary
operations raise ``FieldMismatch``.  Plain ints and Fractions lift into any
field.
"""

from __future__ import annotations

import math
from fractions import Fraction
from math import gcd

__all__ = [
    "Field",
    "RationalField",
    "QuadraticField",
    "Scalar",
    "FieldMismatch",
    "NotRepresentable",
]


class FieldMismatch(TypeError):
    pass


class NotRepresentable(ArithmeticError):
    """A requested value (sqrt, root) does not exist in the scalar field."""


def _issquarefree(d: int) -> bool:
    if d < 1:
        return False
    k = 2
    while k * k <= d:
        if d % (k * k) == 0:
            return False
        k += 1
    return True


def _int_root(x: int, r: int) -> int | None:
    """Exact r-th root of a positive int, or None.  Integer Newton from
    above, so operands of any size stay exact."""
    if r == 2:
        y = math.isqrt(x)
    else:
        y = 1 << -(-x.bit_length() // r)  # 2^ceil(bits/r) > x^(1/r)
        while True:
            z = ((r - 1) * y + x // y ** (r - 1)) // r
            if z >= y:
                break
            y = z
    return y if y**r == x else None


def _frac_root(x: Fraction, r: int) -> Fraction | None:
    """Exact r-th root of a nonnegative Fraction, or None."""
    if x < 0:
        return None
    if x == 0:
        return Fraction(0)
    a = _int_root(x.numerator, r)
    b = _int_root(x.denominator, r)
    if a is None or b is None:
        return None
    return Fraction(a, b)


def _ratstr(n: int, d: int) -> str:
    """str(Fraction(n, d)) for d > 0, without building the Fraction."""
    g = gcd(n, d)
    if g != 1:
        n //= g
        d //= g
    return str(n) if d == 1 else f"{n}/{d}"


class Field:
    """An interned scalar field: QQ (d = 0) or QQ(sqrt d)."""

    d = 0
    _interned: dict[int, "Field"] = {}

    @classmethod
    def _intern(cls, d: int) -> "Field":
        field = Field._interned.get(d)
        if field is None:
            field = object.__new__(cls)
            field.d = d
            field._zero = Scalar(field, 0, 0, 1)
            field._one = Scalar(field, 1, 0, 1)
            Field._interned[d] = field
        return field

    def scalar(self, value) -> "Scalar":
        if isinstance(value, Scalar):
            if value.field is self:
                return value
            if value.field.d == 0:  # QQ lifts into every field
                return Scalar(self, value.p, 0, value.den)
            raise FieldMismatch(f"cannot lift {value!r} into {self!r}")
        if isinstance(value, int):
            if value == 0:
                return self._zero
            if value == 1:
                return self._one
            return Scalar(self, int(value), 0, 1)
        v = Fraction(value)
        return Scalar(self, v.numerator, 0, v.denominator)

    def zero(self) -> "Scalar":
        return self._zero

    def one(self) -> "Scalar":
        return self._one

    # Fields are interned, so equality is identity.  It stays an explicit
    # method: bench/spans.py counts calls of ``Field.__eq__`` by name.
    def __eq__(self, other):
        return self is other

    def __hash__(self):
        return hash((type(self).__name__, (self.d,) if self.d else ()))


class RationalField(Field):
    def __new__(cls):
        return cls._intern(0)

    def __repr__(self):
        return "QQ"


class QuadraticField(Field):
    """The field QQ(sqrt(d)) for a fixed square-free integer d > 1."""

    def __new__(cls, d: int):
        if d <= 1 or not _issquarefree(d):
            raise ValueError(f"d must be a square-free integer > 1, got {d}")
        return cls._intern(d)

    def sqrt_d(self) -> "Scalar":
        return Scalar(self, 0, 1, 1)

    def __repr__(self):
        return f"QQ(sqrt{self.d})"


def _norm(field: Field, p: int, q: int, den: int) -> "Scalar":
    """The scalar (p + q sqrt d)/den in canonical form; den != 0."""
    if den != 1:
        if den < 0:
            p, q, den = -p, -q, -den
        g = gcd(p, q, den)
        if g != 1:
            p //= g
            q //= g
            den //= g
    if not p and not q:
        return field._zero
    return Scalar(field, p, q, den)


def _from_parts(field: Field, a: Fraction, b: Fraction) -> "Scalar":
    """The scalar a + b sqrt d from its rational parts."""
    ad, bd = a.denominator, b.denominator
    den = math.lcm(ad, bd)
    return _norm(field, a.numerator * (den // ad), b.numerator * (den // bd), den)


def _sum(x: "Scalar", y: "Scalar", negate: bool) -> "Scalar":
    """x + y, or x - y when ``negate``; both scalars in one field."""
    yp, yq, yd = y.p, y.q, y.den
    if not yp and not yq:
        return x
    if negate:
        yp, yq = -yp, -yq
    xp, xq, xd = x.p, x.q, x.den
    if not xp and not xq:
        return Scalar(x.field, yp, yq, yd) if negate else y
    if xd == yd:
        return _norm(x.field, xp + yp, xq + yq, xd)
    return _norm(x.field, xp * yd + yp * xd, xq * yd + yq * xd, xd * yd)


class Scalar:
    """A field element (p + q*sqrt(d)) / den.  Immutable; supports +, -, *,
    /, ==, sign tests.

    The constructor stores its ints as given; they must already be in
    canonical form.  Build scalars with ``field.scalar`` or by arithmetic.
    """

    __slots__ = ("field", "p", "q", "den")

    def __init__(self, field: Field, p: int, q: int, den: int):
        self.field = field
        self.p = p
        self.q = q
        self.den = den

    @property
    def a(self) -> Fraction:
        """The rational part of a + b sqrt(d)."""
        return Fraction(self.p, self.den)

    @property
    def b(self) -> Fraction:
        """The sqrt(d) coefficient of a + b sqrt(d); 0 in QQ."""
        return Fraction(self.q, self.den)

    # -- helpers -------------------------------------------------------

    def _coerce(self, other) -> "Scalar":
        if isinstance(other, Scalar):
            if other.field is not self.field:
                raise FieldMismatch(
                    f"mixed-field arithmetic: {self.field!r} vs {other.field!r}"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.scalar(other)
        raise FieldMismatch(f"cannot coerce {other!r} into {self.field!r}")

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        return _sum(self, self._coerce(other), False)

    __radd__ = __add__

    def __neg__(self):
        if not self.p and not self.q:
            return self
        return Scalar(self.field, -self.p, -self.q, self.den)

    def __sub__(self, other):
        return _sum(self, self._coerce(other), True)

    def __rsub__(self, other):
        return _sum(self._coerce(other), self, True)

    def __mul__(self, other):
        o = self._coerce(other)
        xp, xq = self.p, self.q
        if not xp and not xq:
            return self
        yp, yq = o.p, o.q
        if not yp and not yq:
            return o
        if xq or yq:
            p = xp * yp + self.field.d * xq * yq
            q = xp * yq + xq * yp
        else:
            p, q = xp * yp, 0
        return _norm(self.field, p, q, self.den * o.den)

    __rmul__ = __mul__

    def inverse(self) -> "Scalar":
        p, q, den = self.p, self.q, self.den
        if not q:
            if not p:
                raise ZeroDivisionError("scalar inverse of zero")
            # gcd(p, den) = 1 already
            return Scalar(self.field, -den, 0, -p) if p < 0 else Scalar(self.field, den, 0, p)
        # (p + q sqrt d)(p - q sqrt d) = p^2 - d q^2, nonzero by irrationality
        return _norm(self.field, den * p, -den * q, p * p - self.field.d * q * q)

    def __truediv__(self, other):
        return self * self._coerce(other).inverse()

    def __rtruediv__(self, other):
        return self._coerce(other) * self.inverse()

    # -- comparisons ---------------------------------------------------

    def is_zero(self) -> bool:
        return not self.p and not self.q

    def __eq__(self, other):
        try:
            o = self._coerce(other)
        except FieldMismatch:
            return NotImplemented
        return self.p == o.p and self.q == o.q and self.den == o.den

    def __hash__(self):
        return hash((self.field, self.a, self.b))

    def sign(self) -> int:
        """-1, 0, or +1, exactly."""
        p, q = self.p, self.q
        if not q:
            return (p > 0) - (p < 0)
        if not p:
            return 1 if q > 0 else -1
        if p > 0 and q > 0:
            return 1
        if p < 0 and q < 0:
            return -1
        # opposite signs: compare p^2 with d q^2 (den > 0 scales both)
        lhs, rhs = p * p, self.field.d * q * q
        if p > 0:  # q < 0
            return 1 if lhs > rhs else (-1 if lhs < rhs else 0)
        return 1 if lhs < rhs else (-1 if lhs > rhs else 0)

    # -- roots ---------------------------------------------------------

    def sqrt(self) -> "Scalar":
        """Exact square root inside the field; NotRepresentable otherwise."""
        if self.sign() < 0:
            raise NotRepresentable("sqrt of negative scalar")
        field, d = self.field, self.field.d
        a, b = self.a, self.b
        zero = Fraction(0)
        if b == 0:
            r = _frac_root(a, 2)
            if r is not None:
                return _from_parts(field, r, zero)
            if d:
                q = _frac_root(a / d, 2)
                if q is not None:
                    return _from_parts(field, zero, q)
            raise NotRepresentable(f"sqrt({a}) not in {field!r}")
        # solve (p + q sqrt d)^2 = a + b sqrt d
        disc = a * a - d * b * b
        rd = _frac_root(disc, 2)
        if rd is not None:
            for p2 in ((a + rd) / 2, (a - rd) / 2):
                p = _frac_root(p2, 2)
                if p is not None and p != 0:
                    cand = _from_parts(field, p, b / (2 * p))
                    if cand.sign() >= 0 and cand * cand == self:
                        return cand
                    cand = -cand
                    if cand.sign() >= 0 and cand * cand == self:
                        return cand
        raise NotRepresentable(f"sqrt({self!r}) not in {field!r}")

    def root(self, r: int) -> "Scalar":
        """Exact r-th root of a nonnegative scalar; handles rational values
        and monomials q*sqrt(d)."""
        if r == 2:
            return self.sqrt()
        if self.sign() < 0:
            raise NotRepresentable("root of negative scalar")
        field, d = self.field, self.field.d
        a, b = self.a, self.b
        zero = Fraction(0)
        if b == 0:
            v = _frac_root(a, r)
            if v is not None:
                return _from_parts(field, v, zero)
            if d and r % 2 == 0:
                q = _frac_root(a / Fraction(d) ** (r // 2), r)
                if q is not None:
                    return _from_parts(field, zero, q)
        elif a == 0 and r % 2 == 1:
            # (q sqrt d)^r = q^r d^{(r-1)/2} sqrt d
            q = _frac_root(b / Fraction(d) ** ((r - 1) // 2), r)
            if q is not None:
                return _from_parts(field, zero, q)
        raise NotRepresentable(f"{r}-th root of {self!r} not in {field!r}")

    # -- display -------------------------------------------------------

    def __repr__(self):
        return f"Scalar({self})"

    def __str__(self):
        p, q, den = self.p, self.q, self.den
        if not q:
            return _ratstr(p, den)
        d = self.field.d
        bpart = f"sqrt{d}" if abs(q) == den else f"{_ratstr(abs(q), den)}*sqrt{d}"
        if not p:
            return bpart if q > 0 else f"-{bpart}"
        op = "+" if q > 0 else "-"
        return f"{_ratstr(p, den)}{op}{bpart}"
