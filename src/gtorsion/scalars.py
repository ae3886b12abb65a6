"""Exact scalar arithmetic for the engine: the fields QQ and QQ(sqrt d).

A Scalar is the number (p + q*sqrt(d)) / den held as three plain ints in
canonical form: den > 0, gcd(p, q, den) = 1, and q = 0 in QQ.  Equal
values therefore have equal (p, q, den), so equality and hashing read ints.
Scalar is the package's only exact number: roots and rational constants
are computed on the int triple too.

Fields are interned: ``QuadraticField(3) is QuadraticField(3)``, so fields
compare by identity, and ``zero()`` / ``one()`` return one object per
field.  Scalars from different fields never mix silently; binary
operations raise ``FieldMismatch``.  Plain ints, exact rationals such as
Fractions and QQ scalars lift into any field.

Every exact tensor of the analysis is an integer body, not Scalars: forms,
vectors, the metric and its inverse, the structure constants, the
connection symbols, J, the Ricci traces and a reduction's adapted frame
each share one denominator and are normalized by one gcd (``forms``), and
no Scalar accumulator exists.  Scalars remain at the boundaries: the parser
reads them in, one per product, and the Gram-Schmidt of the adapted frame
builds one per projection and one per norm; ``linsolve`` and the torsion
oracle build none.  A report writes a form or a vector straight off its
body: ``_coeff_str`` formats one coefficient from its ints, for the report
and for ``str(Scalar)`` alike.  ``_ints`` is the one conversion of Scalars
to an integer body (one denominator, the rational and sqrt(d) numerators
apart), for forms, vectors, tensors and linear-system rows alike, and it
sums the signed terms of a parsed form by mask; ``_norm`` is the way back,
and builds a body's Scalar view only when it is read.
``_sign`` reads the sign of p + q sqrt(d) on the ints of a Scalar or of a
body.
"""

from __future__ import annotations

import math
from itertools import repeat
from math import gcd, lcm

__all__ = [
    "Field",
    "RationalField",
    "QuadraticField",
    "Scalar",
    "FieldMismatch",
    "GTorsionError",
    "NotRepresentable",
]


class GTorsionError(Exception):
    """Base of the errors an input can cause.  The CLI prints
    ``label: message`` as one line and exits with ``exit_code``."""

    exit_code = 3
    label = "structure error"


class FieldMismatch(TypeError):
    pass


class NotRepresentable(GTorsionError, ArithmeticError):
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


def _frac_root(n: int, m: int, r: int) -> tuple[int, int] | None:
    """Exact r-th root (a, b), meaning a/b, of the rational n/m (m > 0), or
    None: the roots of n/m in lowest terms."""
    if n < 0:
        return None
    g = gcd(n, m)
    a = _int_root(n // g, r) if n else 0
    b = _int_root(m // g, r)
    if a is None or b is None:
        return None
    return a, b


def _ratstr(n: int, d: int) -> str:
    """str(Fraction(n, d)) for d > 0, without building the Fraction."""
    g = gcd(n, d)
    if g != 1:
        n //= g
        d //= g
    return str(n) if d == 1 else f"{n}/{d}"


def _coeff_str(p: int, q: int, den: int, d: int) -> str:
    """The string of (p + q sqrt d)/den for den > 0, each part in lowest
    terms: a Scalar's, and a report's for each entry of an int body, which
    it reads without building the Scalar.  The string does not change when
    p, q and den are scaled together, so the body need not be reduced."""
    if not q:
        return _ratstr(p, den)
    bpart = f"sqrt{d}" if abs(q) == den else f"{_ratstr(abs(q), den)}*sqrt{d}"
    if not p:
        return bpart if q > 0 else f"-{bpart}"
    return f"{_ratstr(p, den)}{'+' if q > 0 else '-'}{bpart}"


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

    def scalar(self, num, den: int = 1) -> "Scalar":
        """num/den in this field.  ``num`` is an int, a Scalar (a QQ one
        lifts into every field) or an exact rational with int ``numerator``
        and ``denominator``, such as a Fraction; ``den`` is a nonzero int."""
        if isinstance(num, Scalar):
            if num.field is self and den == 1:
                return num
            if num.field is not self and num.field.d:
                raise FieldMismatch(f"cannot lift {num!r} into {self!r}")
            p, q, m = num.p, num.q, num.den
        elif isinstance(num, int):
            if num == 1 == den:
                return self._one
            p, q, m = int(num), 0, 1
        else:
            p, q, m = getattr(num, "numerator", None), 0, getattr(num, "denominator", None)
            if not (isinstance(p, int) and isinstance(m, int)):
                raise FieldMismatch(f"cannot coerce {num!r} into {self!r}")
        if not den:
            raise ZeroDivisionError("scalar with zero denominator")
        return _norm(self, p, q, m * den)

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


def _ints(values, field: Field, signs=None) -> tuple[int, dict, dict]:
    """The canonical int body of the Scalars {key: x} of ``field``, the way
    back from ``_norm``: (den, p, q) with den the lcm of their denominators
    and p, q the int numerators of their rational and sqrt(d) parts by key,
    zeros dropped.  With ``signs``, ``values`` is a list of (key, x) pairs
    instead, whose keys may repeat: the body is that of the sums of
    signs[i] x_i (each +-1) by key, the keys in the order they first come,
    and a sum that cancels is dropped.  A sqrt(d) part from another field
    raises FieldMismatch."""
    pairs = values.items() if signs is None else values
    den = 1
    for _, x in pairs:
        if x.q and x.field is not field:
            raise FieldMismatch(f"mixed-field arithmetic: {field!r} vs {x.field!r}")
        if den % x.den:
            den = lcm(den, x.den)
    p, q, d, summed = {}, {}, field.d, False
    for (k, x), s in zip(pairs, repeat(1) if signs is None else signs):
        f = den // x.den if s > 0 else -(den // x.den)
        if k in p:  # a repeated key: only a list of pairs has one
            summed = True
            p[k] += f * x.p
            if d:
                q[k] += f * x.q
        else:
            p[k] = f * x.p
            if d:
                q[k] = f * x.q
    if 0 in p.values():
        p = {k: v for k, v in p.items() if v}
    if 0 in q.values():
        q = {k: v for k, v in q.items() if v}
    g = gcd(den, *p.values(), *q.values()) if summed else 1  # a sum may leave a common factor
    if g != 1:
        den //= g
        p = {k: v // g for k, v in p.items()}
        q = {k: v // g for k, v in q.items()}
    return den, p, q


def _sign(p: int, q: int, d: int) -> int:
    """The sign -1, 0 or +1 of p + q sqrt(d), read on the ints: a Scalar's
    (its den is positive) or an int body's numerators."""
    if not q:
        return (p > 0) - (p < 0)
    if not p:
        return 1 if q > 0 else -1
    if p > 0 and q > 0:
        return 1
    if p < 0 and q < 0:
        return -1
    # opposite signs: compare p^2 with d q^2
    lhs, rhs = p * p, d * q * q
    if p > 0:  # q < 0
        return 1 if lhs > rhs else (-1 if lhs < rhs else 0)
    return 1 if lhs < rhs else (-1 if lhs > rhs else 0)


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

    # -- helpers -------------------------------------------------------

    def _coerce(self, other) -> "Scalar":
        if isinstance(other, Scalar):
            if other.field is not self.field:
                raise FieldMismatch(
                    f"mixed-field arithmetic: {self.field!r} vs {other.field!r}"
                )
            return other
        return self.field.scalar(other)

    # -- arithmetic ----------------------------------------------------

    # A Scalar of the same field skips ``_coerce``, which lifts or raises.
    def __add__(self, other):
        o = other if other.__class__ is Scalar and other.field is self.field else self._coerce(other)
        return _sum(self, o, False)

    __radd__ = __add__

    def __neg__(self):
        if not self.p and not self.q:
            return self
        return Scalar(self.field, -self.p, -self.q, self.den)

    def __sub__(self, other):
        o = other if other.__class__ is Scalar and other.field is self.field else self._coerce(other)
        return _sum(self, o, True)

    def __rsub__(self, other):
        return _sum(self._coerce(other), self, True)

    def __mul__(self, other):
        o = other if other.__class__ is Scalar and other.field is self.field else self._coerce(other)
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
        return hash((self.field, self.p, self.q, self.den))

    def sign(self) -> int:
        """-1, 0, or +1, exactly."""
        return _sign(self.p, self.q, self.field.d)

    # -- roots ---------------------------------------------------------

    def sqrt(self) -> "Scalar":
        """Exact square root inside the field; NotRepresentable otherwise."""
        if self.sign() < 0:
            raise NotRepresentable("sqrt of negative scalar")
        field, d = self.field, self.field.d
        p, q, den = self.p, self.q, self.den
        if not q:
            r = _frac_root(p, den, 2)
            if r is not None:
                return _norm(field, r[0], 0, r[1])
            if d:
                r = _frac_root(p, den * d, 2)
                if r is not None:
                    return _norm(field, 0, r[0], r[1])
            raise NotRepresentable(f"sqrt({self}) not in {field!r}")
        # (P + B sqrt d)^2 = (p + q sqrt d)/den gives P^2 = (p +- sqrt(p^2 - d q^2))/(2 den)
        # and B = q/(2 P den); with P = x/y the root is (2 x^2 den + q y^2 sqrt d)/(2 x y den)
        rd = _frac_root(p * p - d * q * q, 1, 2)
        if rd is not None:
            for n in (p + rd[0], p - rd[0]):
                r = _frac_root(n, 2 * den, 2)
                if r is not None and r[0]:
                    x, y = r
                    cand = _norm(field, 2 * x * x * den, q * y * y, 2 * x * y * den)
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
        p, q, den = self.p, self.q, self.den
        if not q:
            v = _frac_root(p, den, r)
            if v is not None:
                return _norm(field, v[0], 0, v[1])
            if d and r % 2 == 0:
                v = _frac_root(p, den * d ** (r // 2), r)
                if v is not None:
                    return _norm(field, 0, v[0], v[1])
        elif not p and r % 2 == 1:
            # (b sqrt d)^r = b^r d^{(r-1)/2} sqrt d
            v = _frac_root(q, den * d ** ((r - 1) // 2), r)
            if v is not None:
                return _norm(field, 0, v[0], v[1])
        raise NotRepresentable(f"{r}-th root of {self!r} not in {field!r}")

    # -- display -------------------------------------------------------

    def __repr__(self):
        return f"Scalar({self})"

    def __str__(self):
        return _coeff_str(self.p, self.q, self.den, self.field.d)
