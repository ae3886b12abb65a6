"""Exact scalar arithmetic for the engine.

Three backends share one interface:

* rational        -- plain Fraction arithmetic,
* quadratic(d)    -- numbers a + b*sqrt(d) with a, b rational, d square-free,
* float(tol)      -- machine floats with explicit comparison tolerance.

Scalars from different fields never mix silently; binary operations raise
``FieldMismatch``.  Plain ints and Fractions lift into any field.
"""

from __future__ import annotations

import math
from fractions import Fraction

__all__ = [
    "Field",
    "RationalField",
    "QuadraticField",
    "FloatField",
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


class Field:
    """Base class; concrete fields construct and compare Scalars."""

    exact = True

    def scalar(self, value) -> "Scalar":
        raise NotImplementedError

    def zero(self) -> "Scalar":
        return self.scalar(0)

    def one(self) -> "Scalar":
        return self.scalar(1)

    def __eq__(self, other):
        return type(self) is type(other) and self._key() == other._key()

    def __hash__(self):
        return hash((type(self).__name__, self._key()))

    def _key(self):
        return ()


class RationalField(Field):
    def scalar(self, value) -> "Scalar":
        if isinstance(value, Scalar):
            if value.field != self:
                raise FieldMismatch(f"cannot lift {value!r} into QQ")
            return value
        return Scalar(self, Fraction(value), Fraction(0))

    def __repr__(self):
        return "QQ"


class QuadraticField(Field):
    """The field QQ(sqrt(d)) for a fixed square-free integer d > 1."""

    def __init__(self, d: int):
        if d <= 1 or not _issquarefree(d):
            raise ValueError(f"d must be a square-free integer > 1, got {d}")
        self.d = d

    def _key(self):
        return (self.d,)

    def scalar(self, value) -> "Scalar":
        if isinstance(value, Scalar):
            if isinstance(value.field, RationalField) and value.b == 0:
                return Scalar(self, value.a, Fraction(0))
            if value.field != self:
                raise FieldMismatch(f"cannot lift {value!r} into {self!r}")
            return value
        return Scalar(self, Fraction(value), Fraction(0))

    def sqrt_d(self) -> "Scalar":
        return Scalar(self, Fraction(0), Fraction(1))

    def __repr__(self):
        return f"QQ(sqrt{self.d})"


class FloatField(Field):
    """Floats with an explicit equality tolerance (never implicit)."""

    exact = False

    def __init__(self, tol: float):
        if tol < 0:
            raise ValueError("tolerance must be nonnegative")
        self.tol = tol

    def _key(self):
        return (self.tol,)

    def scalar(self, value) -> "Scalar":
        if isinstance(value, Scalar):
            return Scalar(self, value.as_float(), 0.0)
        return Scalar(self, float(value), 0.0)

    def __repr__(self):
        return f"Float(tol={self.tol})"


class Scalar:
    """A field element.  Immutable; supports +, -, *, /, ==, sign tests.

    Exact backends store (a, b) meaning a + b*sqrt(d) (b is 0 in QQ);
    the float backend stores the value in ``a``.
    """

    __slots__ = ("field", "a", "b")

    def __init__(self, field: Field, a, b=Fraction(0)):
        self.field = field
        self.a = a
        self.b = b

    # -- helpers -------------------------------------------------------

    def _coerce(self, other) -> "Scalar":
        if isinstance(other, Scalar):
            if other.field != self.field:
                raise FieldMismatch(
                    f"mixed-field arithmetic: {self.field!r} vs {other.field!r}"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.scalar(other)
        if isinstance(other, float) and not self.field.exact:
            return self.field.scalar(other)
        raise FieldMismatch(f"cannot coerce {other!r} into {self.field!r}")

    def _d(self) -> int:
        return self.field.d if isinstance(self.field, QuadraticField) else 0

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if not self.field.exact:
            return Scalar(self.field, self.a + o.a)
        return Scalar(self.field, self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __neg__(self):
        if not self.field.exact:
            return Scalar(self.field, -self.a)
        return Scalar(self.field, -self.a, -self.b)

    def __sub__(self, other):
        o = self._coerce(other)
        if not self.field.exact:
            return Scalar(self.field, self.a - o.a)
        return Scalar(self.field, self.a - o.a, self.b - o.b)

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        o = self._coerce(other)
        if not self.field.exact:
            return Scalar(self.field, self.a * o.a)
        # rational fast paths (b parts vanish for most values in practice)
        if not self.b:
            if not o.b:
                return Scalar(self.field, self.a * o.a)
            return Scalar(self.field, self.a * o.a, self.a * o.b)
        if not o.b:
            return Scalar(self.field, self.a * o.a, self.b * o.a)
        d = self._d()
        return Scalar(
            self.field,
            self.a * o.a + d * self.b * o.b,
            self.a * o.b + self.b * o.a,
        )

    __rmul__ = __mul__

    def inverse(self) -> "Scalar":
        if not self.field.exact:
            return Scalar(self.field, 1.0 / self.a)
        if self.is_zero():
            raise ZeroDivisionError("scalar inverse of zero")
        if not self.b:
            return Scalar(self.field, 1 / self.a, Fraction(0))
        d = self._d()
        # (a + b sqrt d)(a - b sqrt d) = a^2 - d b^2, nonzero by irrationality
        norm = self.a * self.a - d * self.b * self.b
        return Scalar(self.field, self.a / norm, -self.b / norm)

    def __truediv__(self, other):
        return self * self._coerce(other).inverse()

    def __rtruediv__(self, other):
        return self._coerce(other) * self.inverse()

    # -- comparisons ---------------------------------------------------

    def is_zero(self) -> bool:
        if not self.field.exact:
            return abs(self.a) <= self.field.tol
        return self.a == 0 and self.b == 0

    def __eq__(self, other):
        try:
            o = self._coerce(other)
        except FieldMismatch:
            return NotImplemented
        return (self - o).is_zero()

    def __hash__(self):
        if not self.field.exact:
            raise TypeError("float-backend scalars are not hashable")
        return hash((self.field, self.a, self.b))

    def sign(self) -> int:
        """-1, 0, or +1.  Exact in every backend."""
        if not self.field.exact:
            if abs(self.a) <= self.field.tol:
                return 0
            return 1 if self.a > 0 else -1
        a, b = self.a, self.b
        if b == 0:
            return 0 if a == 0 else (1 if a > 0 else -1)
        d = self._d()
        if a == 0:
            return 1 if b > 0 else -1
        if a > 0 and b > 0:
            return 1
        if a < 0 and b < 0:
            return -1
        # opposite signs: compare a^2 with d b^2
        lhs, rhs = a * a, d * b * b
        if a > 0:  # b < 0
            return 1 if lhs > rhs else (-1 if lhs < rhs else 0)
        return 1 if lhs < rhs else (-1 if lhs > rhs else 0)

    def is_positive(self) -> bool:
        return self.sign() > 0

    # -- roots ---------------------------------------------------------

    def sqrt(self) -> "Scalar":
        """Exact square root inside the field; NotRepresentable otherwise."""
        if not self.field.exact:
            if self.a < -self.field.tol:
                raise NotRepresentable("sqrt of negative")
            return Scalar(self.field, math.sqrt(max(self.a, 0.0)))
        if self.sign() < 0:
            raise NotRepresentable("sqrt of negative scalar")
        d = self._d()
        if self.b == 0:
            r = _frac_root(self.a, 2)
            if r is not None:
                return Scalar(self.field, r, Fraction(0))
            if d:
                q = _frac_root(self.a / d, 2)
                if q is not None:
                    return Scalar(self.field, Fraction(0), q)
            raise NotRepresentable(f"sqrt({self.a}) not in {self.field!r}")
        # solve (p + q sqrt d)^2 = a + b sqrt d
        disc = self.a * self.a - d * self.b * self.b
        rd = _frac_root(disc, 2)
        if rd is not None:
            for p2 in ((self.a + rd) / 2, (self.a - rd) / 2):
                p = _frac_root(p2, 2)
                if p is not None and p != 0:
                    q = self.b / (2 * p)
                    cand = Scalar(self.field, p, q)
                    if cand.sign() >= 0 and cand * cand == self:
                        return cand
                    cand = -cand
                    if cand.sign() >= 0 and cand * cand == self:
                        return cand
        raise NotRepresentable(f"sqrt({self!r}) not in {self.field!r}")

    def root(self, r: int) -> "Scalar":
        """Exact r-th root of a nonnegative scalar; handles rational values
        and monomials q*sqrt(d)."""
        if not self.field.exact:
            if self.a < -self.field.tol:
                raise NotRepresentable("root of negative")
            return Scalar(self.field, max(self.a, 0.0) ** (1.0 / r))
        if r == 2:
            return self.sqrt()
        if self.sign() < 0:
            raise NotRepresentable("root of negative scalar")
        d = self._d()
        if self.b == 0:
            v = _frac_root(self.a, r)
            if v is not None:
                return Scalar(self.field, v, Fraction(0))
            if d and r % 2 == 0:
                q = _frac_root(self.a / Fraction(d) ** (r // 2), r)
                if q is not None:
                    return Scalar(self.field, Fraction(0), q)
        elif self.a == 0 and r % 2 == 1:
            # (q sqrt d)^r = q^r d^{(r-1)/2} sqrt d
            q = _frac_root(self.b / Fraction(d) ** ((r - 1) // 2), r)
            if q is not None:
                return Scalar(self.field, Fraction(0), q)
        raise NotRepresentable(f"{r}-th root of {self!r} not in {self.field!r}")

    # -- conversions / display -----------------------------------------

    def as_float(self) -> float:
        if not self.field.exact:
            return self.a
        return float(self.a) + float(self.b) * math.sqrt(self._d() or 1)

    def __repr__(self):
        return f"Scalar({self})"

    def __str__(self):
        if not self.field.exact:
            return repr(self.a)
        if self.b == 0:
            return str(self.a)
        d = self._d()
        bpart = f"sqrt{d}" if abs(self.b) == 1 else f"{abs(self.b)}*sqrt{d}"
        if self.a == 0:
            return bpart if self.b > 0 else f"-{bpart}"
        op = "+" if self.b > 0 else "-"
        return f"{self.a}{op}{bpart}"
