"""Graded exterior algebra over an oriented inner-product frame, n <= 8.

Basis k-vectors are index subsets of {1..n} encoded as n-bit masks
(bit i-1 set means index i is present).  A form holds one integer body:
a positive denominator shared by the whole form, the int numerators of
the rational parts keyed by mask and, apart from them, those of the
sqrt(d) parts (empty over QQ, so no kernel touches them there).  The
coefficient at a mask is (p + q sqrt d)/den, and missing masks mean zero.
The body is canonical: no zero entries, and den and every numerator have
gcd 1.  So ==, ``is_zero`` and hashing compare ints, and a kernel sums
int products straight into its output's numerators and normalizes the
form once, by one gcd over den and every numerator, not once per
coefficient.  ``coeffs`` is a read-only view of canonical Scalars, built
on first read and kept; the public constructor, ``from_terms`` and
``_trusted`` take Scalars.  All values are immutable and all operations
are pure.

A diagonal metric is found lazily (see ``FrameGeometry``); the identity
raises no index at all.  Every other raise, and every minor of a matrix
that is not diagonal, comes from one table, the Cauchy-Binet minors of a matrix's leading rows
(``_minors``), held in a ``CoframeChange``: a change of frame, the
raising of indices by g^{-1} (one change cached per geometry), det g and
Sylvester's test all read it, so the forms one change moves share the
minors.  The table holds the minors of the matrix scaled to ints by one
denominator.

Merge signs and index tuples are read from two lazily filled module-level
tables, ``_ODD`` and ``_INDICES``; their keys are masks of n <= 8 bits, so
they never hold more than 3^8 and 2^8 entries, and nothing is built at
import.
"""

from __future__ import annotations

import math
from collections import defaultdict
from collections.abc import Iterable
from functools import cached_property
from math import gcd, lcm
from types import MappingProxyType

from .linsolve import InconsistentSystem, echelon
from .scalars import Field, FieldMismatch, GTorsionError, NotRepresentable, Scalar, _mac, _norm, _settle

__all__ = [
    "KForm",
    "FrameGeometry",
    "VectorField",
    "mask_of",
    "indices_of",
    "wedge",
    "interior",
    "derivation_rows",
    "skew_three_form",
    "hodge_star",
    "form_inner",
    "musical",
    "musical_inv",
    "two_form_square",
    "contract_2_3",
    "transform_form",
    "CoframeChange",
    "GeometryError",
]


class GeometryError(GTorsionError, ValueError):
    pass


def mask_of(indices: Iterable[int]) -> int:
    m = 0
    for i in indices:
        bit = 1 << (i - 1)
        if m & bit:
            return -1  # repeated index
        m |= bit
    return m


def indices_of(mask: int) -> tuple[int, ...]:
    """The indices of a mask, ascending and 1-based."""
    return _INDICES[mask]


def _merge_sign(a: int, b: int) -> int:
    """Parity sign of sorting the concatenation of disjoint masks a, b."""
    parity = 0
    while b:
        low = b & -b
        parity += (a & -(low << 1)).bit_count()  # bits of a above this bit of b
        b ^= low
    return -1 if parity & 1 else 1


class _Lazy(dict):
    """A module-level table that computes each missing key once with
    ``fill`` and keeps it."""

    def __init__(self, fill):
        super().__init__()
        self.fill = fill

    def __missing__(self, key):
        value = self[key] = self.fill(key)
        return value


# disjoint masks a, b keyed a << 8 | b -> True when sorting a + b is odd
_ODD = _Lazy(lambda key: _merge_sign(key >> 8, key & 0xFF) < 0)
_INDICES = _Lazy(lambda mask: tuple(i + 1 for i in range(mask.bit_length()) if mask >> i & 1))
_new = object.__new__


def _mismatch(x: Field, y: Field) -> FieldMismatch:
    return FieldMismatch(f"mixed-field arithmetic: {x!r} vs {y!r}")


def _from_body(n: int, k: int, field: Field, den: int, p: dict, q: dict) -> "KForm":
    """A KForm over a canonical body, as a kernel or another form holds it;
    the dicts are shared, never written."""
    form = _new(KForm)
    form.n, form.k, form.field, form._den, form._p, form._q, form._view = n, k, field, den, p, q, None
    return form


def _normalize(n: int, k: int, field: Field, den: int, p: dict, q: dict) -> "KForm":
    """The KForm over the raw sums den, p, q (den > 0): zero entries are
    dropped and one gcd over den and every numerator is divided out."""
    g = gcd(den, *p.values(), *q.values()) if den != 1 else 1
    if g != 1:
        den //= g
        p = {m: v // g for m, v in p.items() if v}
        q = {m: v // g for m, v in q.items() if v}
    else:
        if 0 in p.values():
            p = {m: v for m, v in p.items() if v}
        if 0 in q.values():
            q = {m: v for m, v in q.items() if v}
    return _from_body(n, k, field, den, p, q)


def _trusted(n: int, k: int, field: Field, coeffs: dict) -> "KForm":
    """A KForm over ``coeffs`` without the public constructor's checks: every
    value is a nonzero canonical Scalar on a mask of k bits, as ``_settle``
    returns them or as a checked form holds them."""
    form = _new(KForm)
    form.n, form.k, form.field = n, k, field
    _fill(form, coeffs)
    return form


def _fill(form: "KForm", coeffs: dict) -> None:
    """Give ``form`` the body of the canonical Scalars ``coeffs`` and keep
    them as its view: den is the lcm of theirs, which leaves it canonical."""
    den = 1
    for c in coeffs.values():
        if den % c.den:
            den = lcm(den, c.den)
    p, q = {}, {}
    for m, c in coeffs.items():
        s = den // c.den
        if c.p:
            p[m] = c.p * s
        if c.q:
            q[m] = c.q * s
    form._den, form._p, form._q, form._view = den, p, q, MappingProxyType(coeffs)


def _axpy_ints(acc: dict, c: int, x: dict) -> None:
    """acc += c x on int dicts keyed by mask."""
    if not c:
        return
    if c == 1 and not acc:
        acc.update(x)
        return
    get = acc.get
    for m, v in x.items():
        acc[m] = get(m, 0) + c * v


def _combination(n: int, k: int, field: Field, terms) -> "KForm":
    """sum c f over the ``terms`` (cp, cq, cden, den, p, q): the scalar
    c = (cp + cq sqrt d)/cden times the body f = (den, p, q), summed over
    one denominator and normalized by one gcd."""
    den = 1
    for t in terms:
        den = lcm(den, t[2] * t[3])
    d = field.d
    p, q = {}, {}
    for cp, cq, cden, fden, fp, fq in terms:
        s = den // (cden * fden)
        cp, cq = cp * s, cq * s
        _axpy_ints(p, cp, fp)
        if fq:
            _axpy_ints(q, cp, fq)
            _axpy_ints(p, d * cq, fq)
        if cq:
            _axpy_ints(q, cq, fp)
    return _normalize(n, k, field, den, p, q)


def _product(kernel, d: int, xp: dict, xq: dict, yp, yq) -> tuple[dict, dict]:
    """The rational and sqrt(d) numerators of the bilinear ``kernel`` at
    x = xp + xq sqrt d and y = yp + yq sqrt d, where kernel(u, v, acc) adds
    its int map of u, v into acc; yq is falsy when y is rational.  Over QQ
    the kernel runs once."""
    p, q = {}, {}
    kernel(xp, yp, p)
    if xq or yq:
        if xq and yq:
            kernel({m: d * v for m, v in xq.items()}, yq, p)
        if yq:
            kernel(xp, yq, q)
        if xq:
            kernel(xq, yp, q)
    return p, q


class KForm:
    """Invariant k-form: dimension n, degree k and its integer body (den,
    rational numerators, sqrt(d) numerators); ``coeffs`` is the
    {mask: Scalar} view."""

    __slots__ = ("n", "k", "field", "_den", "_p", "_q", "_view")

    def __init__(self, n: int, k: int, field: Field, coeffs: dict[int, Scalar] | None = None):
        if not 1 <= n <= 8:
            raise ValueError(f"dimension {n} outside 1..8")
        if not 0 <= k <= n:
            raise ValueError(f"degree {k} outside 0..{n}")
        self.n = n
        self.k = k
        self.field = field
        clean: dict[int, Scalar] = {}
        if coeffs:
            for m, c in coeffs.items():
                if m.bit_count() != k:
                    raise ValueError(f"mask {m:b} has wrong cardinality for degree {k}")
                if not c.is_zero():
                    clean[m] = c if c.field is field else field.scalar(c)
        _fill(self, clean)

    @property
    def coeffs(self) -> MappingProxyType:
        """The nonzero coefficients {mask: Scalar}, canonical, read-only."""
        view = self._view
        if view is None:
            field, den, p, q = self.field, self._den, self._p, self._q
            out = {m: _norm(field, v, q.get(m, 0), den) for m, v in p.items()}
            for m, v in q.items():
                if m not in p:
                    out[m] = _norm(field, 0, v, den)
            view = self._view = MappingProxyType(out)
        return view

    # -- constructors --------------------------------------------------

    @classmethod
    def zero(cls, n: int, k: int, field: Field) -> "KForm":
        return cls(n, k, field, {})

    @classmethod
    def from_terms(cls, n: int, field: Field, terms: Iterable[tuple[Iterable[int], object]]) -> "KForm":
        """Build from (indices, coefficient) pairs; all same degree."""
        acc: dict[int, Scalar] = {}
        deg = None
        for idx, c in terms:
            idx = tuple(idx)
            if deg is None:
                deg = len(idx)
            elif len(idx) != deg:
                raise ValueError("mixed degrees in term list")
            m = mask_of(idx)
            if m < 0:
                continue  # repeated index wedges to zero
            val = field.scalar(c)
            if _sort_sign(idx) < 0:
                val = -val
            acc[m] = acc.get(m, field.zero()) + val
        if deg is None:
            raise ValueError("empty term list needs an explicit degree")
        return cls(n, deg, field, acc)

    # -- ring structure --------------------------------------------------

    def __add__(self, other: "KForm") -> "KForm":
        return self._plus(other, False)

    def __sub__(self, other: "KForm") -> "KForm":
        return self._plus(other, True)

    def _plus(self, other: "KForm", negate: bool) -> "KForm":
        """self + other, or self - other when ``negate``; sums that cancel
        are dropped."""
        self._check_compatible(other)
        field = self.field
        if other.field is not field and (other._p or other._q):
            raise _mismatch(field, other.field)
        return _combination(self.n, self.k, field, ((1, 0, 1, self._den, self._p, self._q),
                                                    (-1 if negate else 1, 0, 1, other._den, other._p, other._q)))

    def __neg__(self) -> "KForm":
        return _from_body(self.n, self.k, self.field, self._den,
                          {m: -v for m, v in self._p.items()}, {m: -v for m, v in self._q.items()})

    def scale(self, c) -> "KForm":
        s = c if c.__class__ is int else self.field.scalar(c)
        term = (s, 0, 1) if s.__class__ is int else (s.p, s.q, s.den)
        return _combination(self.n, self.k, self.field, ((*term, self._den, self._p, self._q),))

    def __eq__(self, other) -> bool:
        if not isinstance(other, KForm):
            return NotImplemented
        if self.n != other.n or self.k != other.k:
            return False
        if other.field is not self.field and (self._p or self._q or other._p or other._q):
            raise _mismatch(self.field, other.field)
        return self._den == other._den and self._p == other._p and self._q == other._q

    def __hash__(self):
        return hash((self.n, self.k, self._den, frozenset(self._p.items()), frozenset(self._q.items())))

    def is_zero(self) -> bool:
        return not self._p and not self._q

    def _check_compatible(self, other: "KForm"):
        if self.n != other.n:
            raise GeometryError(f"dimension mismatch: {self.n} vs {other.n}")
        if self.k != other.k:
            raise GeometryError(f"degree mismatch: {self.k} vs {other.k}")

    def __repr__(self):
        coeffs = self.coeffs
        if not coeffs:
            return f"KForm({self.n},{self.k}; 0)"
        parts = []
        for m in sorted(coeffs):
            idx = "".join(str(i) for i in indices_of(m))
            parts.append(f"({coeffs[m]})e{idx}")
        return f"KForm({self.n},{self.k}; " + " + ".join(parts) + ")"


def _support(form: KForm) -> list[int]:
    """The masks of ``form`` in the order of its ``coeffs`` view."""
    p = form._p
    return [*p, *(m for m in form._q if m not in p)]


def _sort_sign(idx: tuple[int, ...]) -> int:
    """Parity of the permutation sorting idx (assumed distinct)."""
    sign = 1
    lst = list(idx)
    for i in range(len(lst)):
        for j in range(i + 1, len(lst)):
            if lst[i] > lst[j]:
                sign = -sign
    return sign


class VectorField:
    """Invariant vector field: n components in the frame basis."""

    __slots__ = ("n", "field", "components")

    def __init__(self, n: int, field: Field, components):
        comps = [c if isinstance(c, Scalar) else field.scalar(c) for c in components]
        if len(comps) != n:
            raise ValueError("component count != n")
        self.n = n
        self.field = field
        self.components = tuple(comps)

    @classmethod
    def zero(cls, n: int, field: Field) -> "VectorField":
        return cls(n, field, [field.zero()] * n)

    @classmethod
    def basis(cls, n: int, field: Field, i: int) -> "VectorField":
        one, zero = field.one(), field.zero()
        return cls(n, field, [one if j == i else zero for j in range(1, n + 1)])

    def __add__(self, other: "VectorField") -> "VectorField":
        return VectorField(self.n, self.field, [a + b for a, b in zip(self.components, other.components)])

    def __sub__(self, other: "VectorField") -> "VectorField":
        return VectorField(self.n, self.field, [a - b for a, b in zip(self.components, other.components)])

    def __neg__(self) -> "VectorField":
        return VectorField(self.n, self.field, [-a for a in self.components])

    def scale(self, c) -> "VectorField":
        s = self.field.scalar(c)
        return VectorField(self.n, self.field, [a * s for a in self.components])

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.components)

    def __eq__(self, other) -> bool:
        if not isinstance(other, VectorField):
            return NotImplemented
        return self.n == other.n and all((a - b).is_zero() for a, b in zip(self.components, other.components))

    def __repr__(self):
        return f"VectorField({[str(c) for c in self.components]})"


class FrameGeometry:
    """Metric + orientation data for an n-dimensional frame.

    ``metric`` is a symmetric n x n Scalar matrix (default identity);
    ``orientation_sign`` is the parity of the declared positive frame order
    relative to label order.

    A diagonal metric (the identity, lam^2 I, any orthogonal frame) is found
    lazily on first use.  Unit diagonal entries are the field's own
    ``one()``, so the identity is the case where no index is raised.  Any
    other metric raises indices by the minors of g^{-1}, read from one
    ``CoframeChange`` kept on the geometry, so each set of rows of g^{-1}
    is expanded once however many forms are raised.
    """

    def __init__(self, n: int, field: Field, metric=None, orientation_sign: int = 1):
        self.n = n
        self.field = field
        if metric is None:
            metric = [
                [field.one() if i == j else field.zero() for j in range(n)]
                for i in range(n)
            ]
        else:
            metric = [[field.scalar(x) if not isinstance(x, Scalar) else x for x in row] for row in metric]
            for i in range(n):
                for j in range(i + 1, n):
                    if not (metric[i][j] - metric[j][i]).is_zero():
                        raise GeometryError("metric is not symmetric")
        self.metric = metric
        if orientation_sign not in (1, -1):
            raise ValueError("orientation_sign must be +-1")
        self.orientation_sign = orientation_sign
        self._inverse = None
        self._sqrt_det = None

    # -- diagonal fast path --------------------------------------------

    @cached_property
    def diagonal(self) -> tuple[Scalar, ...] | None:
        """(g_11, ..., g_nn) when the metric is diagonal, else None."""
        m = self.metric
        if any(not m[i][j].is_zero() for i in range(self.n) for j in range(self.n) if i != j):
            return None
        return tuple(_unit(m[i][i]) for i in range(self.n))

    @cached_property
    def diagonal_inverse(self) -> tuple[Scalar, ...] | None:
        """(1/g_11, ..., 1/g_nn) when the metric is diagonal, else None."""
        d = self.diagonal
        if d is None:
            return None
        if any(x.is_zero() for x in d):
            raise GeometryError("singular metric")
        one = self.field.one()
        return tuple(one if x is one else _unit(x.inverse()) for x in d)

    @cached_property
    def _is_identity(self) -> bool:
        d = self.diagonal
        return d is not None and all(x is self.field.one() for x in d)

    @cached_property
    def _raise(self) -> "CoframeChange":
        """g^{-1} as a change of frame: moving a form by it raises every index."""
        return CoframeChange(self.inverse_metric(), self.field)

    @cached_property
    def _rho(self) -> tuple[int, int, int]:
        """The ints (p, q, den) of rho = +-sqrt(det g), signed by the orientation."""
        r, s = self.sqrt_det(), self.orientation_sign
        return r.p * s, r.q * s, r.den

    # -- metric utilities ----------------------------------------------

    def check_positive_definite(self):
        """Sylvester: every leading principal minor is positive."""
        table = CoframeChange(self.metric, self.field)
        if any(table.minor((1 << k) - 1).sign() <= 0 for k in range(1, self.n + 1)):
            raise GeometryError("metric is not positive-definite")

    def inverse_metric(self):
        if self._inverse is None:
            dinv = self.diagonal_inverse
            if dinv is None:
                self._inverse = _mat_inverse(self.metric, self.field)
            else:
                zero = self.field.zero()
                self._inverse = [[x if i == j else zero for j in range(self.n)] for i, x in enumerate(dinv)]
        return self._inverse

    def det_metric(self) -> Scalar:
        d = self.diagonal
        return _mat_det(self.metric, self.field) if d is None else math.prod(d, start=self.field.one())

    def sqrt_det(self) -> Scalar:
        if self._sqrt_det is None:
            det = self.det_metric()
            if det.sign() <= 0:
                raise GeometryError("metric determinant not positive")
            try:
                self._sqrt_det = det.sqrt()
            except NotRepresentable as exc:
                raise GeometryError(
                    f"volume normalisation sqrt(det g) = sqrt({det}) not in {self.field!r}"
                ) from exc
        return self._sqrt_det

    def volume_form(self) -> KForm:
        full = (1 << self.n) - 1
        c = self.sqrt_det() * self.orientation_sign
        return KForm(self.n, self.n, self.field, {full: c})

    def g(self, x: VectorField, y: VectorField) -> Scalar:
        acc: dict[int, list] = {}
        xs, ys = x.components, y.components
        d = self.diagonal
        if d is not None:
            one = self.field.one()
            for a, b, w in zip(xs, ys, d):
                if not a.is_zero() and not b.is_zero():
                    _mac(acc, 0, a, b if w is one else b * w, False)
        else:
            for a, row in zip(xs, self.metric):
                for gij, b in zip(row, ys):
                    _mac(acc, 0, a * gij, b, False)
        return _settle(self.field, acc).get(0, self.field.zero())

    def norm_sq(self, x: VectorField) -> Scalar:
        return self.g(x, x)


def _unit(x: Scalar) -> Scalar:
    """x, or its field's ``one()`` when x equals one (canonical ints 1, 0, 1),
    so that unit factors can be recognised by identity and skipped."""
    return x.field.one() if x.p == 1 and x.den == 1 and not x.q else x


def _mat_det(m, field: Field) -> Scalar:
    """det m: the top entry of its minors table."""
    return CoframeChange(m, field).minor((1 << len(m)) - 1)


def _mat_inverse(m, field: Field):
    """m^{-1} by one ``echelon`` run: row i reads sum_j m_ij x_j = e_i, with
    e_i under the right-hand-side key -1-i, so column r of the solution is
    column r of the inverse."""
    n = len(m)
    one, zero = field.one(), field.zero()
    rows = [{**{j: x for j, x in enumerate(row) if not x.is_zero()}, -1 - i: one} for i, row in enumerate(m)]
    try:
        pivots = echelon(rows, field)
    except InconsistentSystem:
        pivots = {}
    if len(pivots) < n:
        raise GeometryError("singular metric")
    return [[pivots[c].get(-1 - r, zero) for r in range(n)] for c in range(n)]


def _minors(mask: int, minors: tuple, rows: tuple, d: int) -> None:
    """Fill ``minors`` (rational and sqrt(d) numerators {I: {J: det M[I, J]}},
    M the int matrix whose rows ``rows`` holds the same way) at the rows I
    in ``mask``: the minors of the rows below its top row, wedged with the
    top row."""
    if mask in minors[0]:
        return
    top = mask.bit_length() - 1
    rest = mask ^ (1 << top)
    _minors(rest, minors, rows, d)
    mp, mq, rp, rq = minors[0][rest], minors[1][rest], rows[0][top], rows[1][top]
    p, q = {}, {}
    for acc, part, c, row in ((p, mp, 1, rp), (q, mp, 1, rq), (q, mq, 1, rp), (p, mq, d, rq)):
        if part and row:
            _wedge_row(acc, part, c, row)
    minors[0][mask] = {m: v for m, v in p.items() if v}
    minors[1][mask] = {m: v for m, v in q.items() if v}


def _wedge_row(acc: dict, minors: dict, c: int, row) -> None:
    """acc += c (sum_J minors[J] f^J) ^ (sum_i x_i f^i) on ints, for ``row``
    the pairs (bit of i, x_i): f^i moves past the bits of J above it."""
    odd, get = _ODD, acc.get
    for jm, v in minors.items():
        cv = c * v
        for bit, x in row:
            if not jm & bit:
                key = jm | bit
                if odd[jm << 8 | bit]:
                    acc[key] = get(key, 0) - cv * x
                else:
                    acc[key] = get(key, 0) + cv * x


class CoframeChange:
    """A change of coframe given by the old coframe in the new one,
    e^j = sum_i M[j][i] f^i, with the Cauchy-Binet minors table of M.

    M is held as the int matrix den M, rational and sqrt(d) parts apart, so
    the table holds int minors, and a minor of k rows of M is the table's
    over den^k.  Every form moved by one change shares the table, so the
    minors of each set of rows of M are expanded once per change of basis,
    not once per form.
    """

    __slots__ = ("field", "den", "rows", "minors")

    def __init__(self, old_in_new, field: Field):
        self.field = field
        den, entries = 1, []
        for row in old_in_new:
            nonzero = [(1 << i, x) for i, x in enumerate(row) if x.p or x.q]
            for _, x in nonzero:
                if x.q and x.field is not field:
                    raise _mismatch(field, x.field)
                if den % x.den:
                    den = lcm(den, x.den)
            entries.append(nonzero)
        self.den = den
        # row j of den M as the pairs (bit of i, int) of its nonzero rational
        # parts, then of its nonzero sqrt(d) parts
        self.rows = (
            [[(bit, x.p * (den // x.den)) for bit, x in row if x.p] for row in entries],
            [[(bit, x.q * (den // x.den)) for bit, x in row if x.q] for row in entries],
        )
        self.minors = ({0: {0: 1}}, {0: {}})

    def minor(self, mask: int) -> Scalar:
        """det M[I, I] for the rows and columns I in ``mask``."""
        _minors(mask, self.minors, self.rows, self.field.d)
        return _norm(self.field, self.minors[0][mask].get(mask, 0), self.minors[1][mask].get(mask, 0),
                     self.den ** mask.bit_count())

    def move(self, form: KForm) -> KForm:
        """The form in the new coframe: c e^I goes to sum_J c det M[I, J] f^J.
        Each term wedges its top row of M onto the table's minors of the
        rest of I, straight into the one output body over den^k."""
        n, k, field = form.n, form.k, self.field
        if form.field is not field and form.field.d and not form.is_zero():
            raise _mismatch(form.field, field)
        if k == 0:
            return _from_body(n, 0, field, form._den, form._p, form._q)
        minors, rows, d = self.minors, self.rows, field.d
        acc = ({}, {})
        for i, part in enumerate((form._p, form._q)):
            for mask, c in part.items():
                top = mask.bit_length() - 1
                rest = mask ^ (1 << top)
                if rest not in minors[0]:
                    _minors(rest, minors, rows, d)
                for j, sub in enumerate((minors[0][rest], minors[1][rest])):
                    for l, row in enumerate((rows[0][top], rows[1][top])):
                        if sub and row:
                            e = i + j + l  # a power of sqrt d
                            _wedge_row(acc[e & 1], sub, c * d if e > 1 else c, row)
        return _normalize(n, k, field, form._den * self.den**k, *acc)


def transform_form(form: KForm, old_in_new, field: Field) -> KForm:
    """Rewrite a form given the old coframe expressed in a new one:
    e^j = sum_i old_in_new[j][i] f^i, by Cauchy-Binet (``CoframeChange``)
    with a minors table for this one form."""
    return CoframeChange(old_in_new, field).move(form)


# -- core operations ----------------------------------------------------
#
# Each kernel below is an int map kernel(x, y, acc) of the numerators of
# its two arguments; ``_product`` runs it on the rational and sqrt(d)
# parts, and the output is normalized once.


def _wedge_ints(x: dict, y: dict, acc: dict) -> None:
    odd, get = _ODD, acc.get
    for ma, va in x.items():
        high = ma << 8
        for mb, vb in y.items():
            if not ma & mb:
                m = ma | mb
                if odd[high | mb]:
                    acc[m] = get(m, 0) - va * vb
                else:
                    acc[m] = get(m, 0) + va * vb


def wedge(a: KForm, b: KForm) -> KForm:
    if a.n != b.n:
        raise GeometryError(f"dimension mismatch: {a.n} vs {b.n}")
    k = a.k + b.k
    if k > a.n:
        return KForm.zero(a.n, a.n, a.field)  # convention: top-degree zero
    field = a.field
    if b.field is not field and not a.is_zero() and not b.is_zero():
        raise _mismatch(field, b.field)
    p, q = _product(_wedge_ints, field.d, a._p, a._q, b._p, b._q)
    return _normalize(a.n, k, field, a._den * b._den, p, q)


def _interior_ints(x: dict, comps: list, acc: dict) -> None:
    # comps: the pairs (bit of i, X^i) of the vector's nonzero components;
    # e^i moves to the front of e^m past the bits of m below it
    get = acc.get
    for m, c in x.items():
        for bit, v in comps:
            if m & bit:
                key = m ^ bit
                acc[key] = get(key, 0) + (-c * v if (m & (bit - 1)).bit_count() & 1 else c * v)


def interior(x: VectorField, a: KForm) -> KForm:
    if x.n != a.n:
        raise GeometryError(f"dimension mismatch: {x.n} vs {a.n}")
    if a.k == 0:
        return KForm.zero(a.n, 0, a.field)
    field = a.field
    comps = [(1 << i, c) for i, c in enumerate(x.components) if not c.is_zero()]
    for _, c in comps:
        if c.field is not field and not a.is_zero():
            raise _mismatch(field, c.field)
    den = lcm(*(c.den for _, c in comps))
    xp = [(bit, c.p * (den // c.den)) for bit, c in comps if c.p]
    xq = [(bit, c.q * (den // c.den)) for bit, c in comps if c.q]
    p, q = _product(_interior_ints, field.d, a._p, a._q, xp, xq)
    return _normalize(a.n, a.k - 1, field, a._den * den, p, q)


def derivation_rows(a: KForm, actions) -> dict[int, dict[int, Scalar]]:
    """The degree-0 derivations e^j -> sum_t actions[p][j][t] e^t (each sparse,
    {j: {t: Scalar}}, 0-based) applied to a in one walk over its terms: rows[mask][p]
    is the e^mask coefficient of the p-th, nonzero only, one accumulator per mask."""
    moves = defaultdict(list)  # j -> (p, bit of t, value) over every action moving e^j
    for p, action in enumerate(actions):
        for j, row in action.items():
            moves[j] += [(p, 1 << t, v) for t, v in row.items()]
    acc = defaultdict(dict)
    for m, c in a.coeffs.items():
        mm = m
        while mm:
            low = mm & -mm
            mm ^= low
            targets = moves.get(low.bit_length() - 1)
            if not targets:
                continue
            rest = m ^ low
            # e^j moves to the front of e^m, e^t back into sorted position:
            # each passes the indices of ``rest`` below it
            lead = (rest & (low - 1)).bit_count()
            for p, bit, v in targets:
                if not rest & bit:
                    _mac(acc[rest | bit], p, c, v, (lead + (rest & (bit - 1)).bit_count()) & 1)
    return {m: row for m, col in acc.items() if (row := _settle(a.field, col))}


def skew_three_form(n: int, field: Field, t) -> KForm | None:
    """The 3-form with components t(i, j, k) (0-based), or None when t is not
    totally skew: it must change sign under every transposition of its
    arguments and vanish whenever an index repeats."""
    for i in range(n):
        for j in range(n):
            if not (t(i, i, j).is_zero() and t(i, j, i).is_zero() and t(j, i, i).is_zero()):
                return None
    coeffs = {}
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                v = t(i, j, k)
                # canonical Scalars: w = -v and w = v compare ints
                minus, plus = (-v.p, -v.q, v.den), (v.p, v.q, v.den)
                if any((w.p, w.q, w.den) != minus for w in (t(j, i, k), t(i, k, j), t(k, j, i))):
                    return None
                if any((w.p, w.q, w.den) != plus for w in (t(j, k, i), t(k, i, j))):
                    return None
                if not v.is_zero():
                    coeffs[(1 << i) | (1 << j) | (1 << k)] = v
    return _trusted(n, 3, field, coeffs)


def _raised(a: KForm, geom: FrameGeometry) -> KForm:
    """``a`` with every index raised by g, a^I = <e^I, a>: ``a`` itself for
    the identity metric, otherwise sum_J a_J det g^{-1}[J, I], the change of
    frame by g^{-1} that the geometry keeps."""
    return a if geom._is_identity else geom._raise.move(a)


def _dot_ints(x: dict, y: dict, acc: dict) -> None:
    s = 0
    for m, v in x.items():
        w = y.get(m)
        if w:
            s += v * w
    acc[0] = acc.get(0, 0) + s


def form_inner(a: KForm, b: KForm, geom: FrameGeometry) -> Scalar:
    if a.k != b.k:
        raise GeometryError(f"degree mismatch: {a.k} vs {b.k}")
    up, field = _raised(a, geom), a.field
    if b.field is not field and not up.is_zero() and not b.is_zero():
        raise _mismatch(field, b.field)
    p, q = _product(_dot_ints, field.d, up._p, up._q, b._p, b._q)
    return _norm(field, p[0], q.get(0, 0), up._den * b._den)


def hodge_star(a: KForm, geom: FrameGeometry) -> KForm:
    """Defined by alpha ^ star(b) = <alpha, b> vol for all alpha of degree k:
    star(a) = rho sum_I eps(I, I^c) a^I e^{I^c}, rho = +-sqrt(det g)."""
    n = a.n
    full = (1 << n) - 1
    up = _raised(a, geom)
    rp, rq, rden = geom._rho
    odd = _ODD
    p = {full ^ m: -v if odd[m << 8 | (full ^ m)] else v for m, v in up._p.items()}
    q = {full ^ m: -v if odd[m << 8 | (full ^ m)] else v for m, v in up._q.items()}
    if rden == 1 and not rq and rp in (1, -1):  # rho = +-1 (any unimodular metric) only flips signs
        if rp < 0:
            p, q = {m: -v for m, v in p.items()}, {m: -v for m, v in q.items()}
        return _from_body(n, n - a.k, a.field, up._den, p, q)
    return _combination(n, n - a.k, a.field, ((rp, rq, rden, up._den, p, q),))


def _masks(n: int, k: int):
    """All n-bit masks with k bits set, ascending."""
    if k == 0:
        yield 0
        return
    m = (1 << k) - 1
    top = 1 << n
    while m < top:
        yield m
        c = m & -m
        r = m + c
        m = (((r ^ m) >> 2) // c) | r


def musical(x: VectorField, geom: FrameGeometry) -> KForm:
    """Flat: X -> g(X, .) as a 1-form."""
    comps = {}
    for i, c in enumerate(x.components):
        if not c.is_zero():
            for j, gij in enumerate(geom.metric[i]):
                if not gij.is_zero():
                    comps[1 << j] = comps.get(1 << j, geom.field.zero()) + c * gij
    return KForm(geom.n, 1, geom.field, comps)


def musical_inv(a: KForm, geom: FrameGeometry) -> VectorField:
    """Sharp: degree-1 form -> vector via the inverse metric."""
    if a.k != 1:
        raise GeometryError("sharp needs a 1-form")
    up = _raised(a, geom).coeffs
    zero = geom.field.zero()
    return VectorField(geom.n, geom.field, [up.get(1 << i, zero) for i in range(geom.n)])


def two_form_square(f: KForm, geom: FrameGeometry):
    """F^2(X,Y) = <i_X F, i_Y F>; symmetric positive semi-definite matrix."""
    if f.k != 2:
        raise GeometryError("two_form_square needs a 2-form")
    n = f.n
    ifs = [interior(VectorField.basis(n, f.field, i), f) for i in range(1, n + 1)]
    return [
        [form_inner(ifs[i], ifs[j], geom) for j in range(n)]
        for i in range(n)
    ]


def _contract_ints(x: dict, y: dict, acc: dict) -> None:
    # the sum over ordered pairs is twice the sum over a < b: for each term
    # H_pqr e^{pqr} of x, pair (p, q) of y meets Z = r, (p, r) meets -q, (q, r) meets p
    get = acc.get
    for m, hv in x.items():
        p, q, r = (1 << (i - 1) for i in _INDICES[m])
        for pair, z, neg in ((p | q, r, False), (p | r, q, True), (q | r, p, False)):
            fv = y.get(pair)
            if fv:
                acc[z] = get(z, 0) + (-fv * hv if neg else fv * hv)


def contract_2_3(f: KForm, h: KForm, geom: FrameGeometry) -> KForm:
    """<F,H>(Z) = 1/2 sum_{a,b} F^{ab} H(e_a, e_b, Z), indices raised by g."""
    if f.k != 2 or h.k != 3:
        raise GeometryError("contract_2_3 needs degrees (2, 3)")
    field = f.field
    fup = _raised(f, geom)
    if h.field is not field and not fup.is_zero() and not h.is_zero():
        raise _mismatch(field, h.field)
    p, q = _product(_contract_ints, field.d, h._p, h._q, fup._p, fup._q)
    return _normalize(f.n, 1, field, h._den * fup._den, p, q)
