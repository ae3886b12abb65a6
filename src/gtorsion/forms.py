"""Graded exterior algebra over an oriented inner-product frame, n <= 8.

Basis k-vectors are index subsets of {1..n} encoded as n-bit masks
(bit i-1 set means index i is present).  A form, a vector and a tensor are
one value type, ``_Body``, an integer body: a positive denominator shared
by the whole value, the int numerators of the rational parts and, apart
from them, those of the sqrt(d) parts (empty over QQ, so no kernel touches
them there).  A ``KForm`` keys its body by mask, a ``VectorField`` by the
bit of each index, as a 1-form does, and a ``Tensor`` (the metric, the
induced G2 and SU(3) ones included, its inverse and every tensor of the
analysis) by index tuples; the value at a key is (p + q sqrt d)/den, and
missing keys mean zero.  The body is canonical: no zero entries, and den
and every numerator have gcd 1.  So ==, ``is_zero`` and hashing compare
ints, and a kernel sums int products straight into its output's
numerators and normalizes the output once, by one gcd over den and every
numerator, not once per coefficient.  ``_Body`` holds the arithmetic the
three share (+, -, negation, ``scale``, the body half of ==) and the
{key: Scalar} view, ``coeffs`` (a Tensor's ``entries``), built on first
read and kept; ``components`` and ``rows`` are a vector's and a matrix's
dense Scalar views.  The public constructors and ``from_terms`` take
Scalars (``from_terms`` sums its terms' ints, signed, with no Scalar), and
``skew_three_form`` packs a Tensor in one pass.

One field rule holds everywhere, in ``_check_fields``: bodies of two fields
meet only when one of them is zero (a zero takes the other's field under
+), and a frame, a geometry or a change of frame counts as nonzero; the
arithmetic, ==, the kernels and the change of frame all check it.

Each int-body primitive has one home: ``scalars._ints`` turns Scalars into
a body (a form's, a vector's, a tensor's), ``linsolve._axpy`` is the
sqrt(d) scaled add behind every linear combination (``_combination``),
``_product`` splits every bilinear int kernel, the minors table's included,
into its rational and sqrt(d) parts, and ``_dot`` pairs two bodies into one
Scalar.  All values are immutable and all operations are pure.

The identity metric raises no index and expands no table.  Every other
raise, and every minor, comes from one table, the Cauchy-Binet minors of a
matrix's leading rows (``_minors``), held in a ``CoframeChange``: a change
of frame and the raising of indices by g^{-1} (one change cached per
geometry) read it, so the forms one change moves share the minors; det g
and Sylvester's test read one expansion of the leading minors of g on its
int rows.  The table holds the minors of the matrix scaled to ints by one
denominator.

Merge signs and index tuples are read from two lazily filled module-level
tables, ``_ODD`` and ``_INDICES``; their keys are masks of n <= 8 bits, so
they never hold more than 3^8 and 2^8 entries, and nothing is built at
import.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from functools import cached_property
from math import gcd, lcm
from types import MappingProxyType

from .linsolve import InconsistentSystem, _axpy, _back_substitute, echelon
from .scalars import Field, FieldMismatch, GTorsionError, NotRepresentable, Scalar, _ints, _norm, _sign

__all__ = [
    "KForm",
    "Tensor",
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
    "contract_2_3",
    "transform_form",
    "CoframeChange",
    "GeometryError",
]


class GeometryError(GTorsionError, ValueError):
    pass


def mask_of(indices: Iterable[int]) -> tuple[int, bool]:
    """The mask of 1-based ``indices`` and whether sorting them is an odd
    permutation, read in one walk over their bits; the mask is -1 on a
    repeated index."""
    m = swaps = 0
    for i in indices:
        bit = 1 << (i - 1)
        if m & bit:
            return -1, False  # repeated index
        swaps += (m >> i).bit_count()  # earlier indices above i
        m |= bit
    return m, swaps & 1 == 1


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


def _canonical(den: int, p: dict, q: dict) -> tuple[int, dict, dict]:
    """The canonical body of the raw sums den, p, q (den > 0): zero entries
    are dropped and one gcd over den and every numerator is divided out."""
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
    return den, p, q


def _normalize(n: int, k: int, field: Field, den: int, p: dict, q: dict) -> "KForm":
    """The KForm over the raw sums den, p, q (den > 0), made canonical."""
    return _from_body(n, k, field, *_canonical(den, p, q))


def _combination(d: int, terms) -> tuple[int, dict, dict]:
    """The canonical body of sum c f over the ``terms`` (cp, cq, cden, den,
    p, q): the scalar c = (cp + cq sqrt d)/cden times the body f = (den, p,
    q) of a form, a vector or a tensor, summed over one denominator and
    normalized by one gcd."""
    den = 1
    for t in terms:
        den = lcm(den, t[2] * t[3])
    acc = ({}, {})
    for cp, cq, cden, fden, fp, fq in terms:
        s = den // (cden * fden)
        _axpy(acc, cp * s, cq * s, (fp, fq), d)
    return _canonical(den, *acc)


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


class _Body:
    """One integer body, the value a ``KForm``, a ``VectorField`` and a
    ``Tensor`` each hold: a positive denominator and the int numerators of
    the rational parts and, apart from them, of the sqrt(d) parts, keyed by
    mask, by the bit of an index or by an index tuple.  It owns the
    arithmetic all three share; a subclass adds its shape, its constructor
    and ``_like``, its kind of value over a canonical body."""

    __slots__ = ("field", "_den", "_p", "_q", "_view")

    @property
    def coeffs(self) -> MappingProxyType:
        """The nonzero values {key: Scalar}, canonical, read-only: the
        rational keys, then the keys with only a sqrt(d) part; built on first
        read and kept."""
        view = self._view
        if view is None:
            field, den, p, q = self.field, self._den, self._p, self._q
            out = {m: _norm(field, v, q.get(m, 0), den) for m, v in p.items()}
            for m, v in q.items():
                if m not in p:
                    out[m] = _norm(field, 0, v, den)
            view = self._view = MappingProxyType(out)
        return view

    def is_zero(self) -> bool:
        return not self._p and not self._q

    def _check_compatible(self, other) -> None:
        """The shape check of ``+`` and ``-``; a KForm checks n and k."""

    def __add__(self, other):
        return self._plus(other, 1)

    def __sub__(self, other):
        return self._plus(other, -1)

    def _plus(self, other, sign: int):
        """self + sign other over one denominator, normalized once; a zero
        takes the field of the other operand."""
        self._check_compatible(other)
        _check_fields(self, other)
        like = self if self._p or self._q else other
        terms = ((1, 0, 1, self._den, self._p, self._q), (sign, 0, 1, other._den, other._p, other._q))
        return like._like(*_combination(like.field.d, terms))

    def __neg__(self):
        return self._like(self._den, {m: -v for m, v in self._p.items()}, {m: -v for m, v in self._q.items()})

    def scale(self, c):
        s = c if c.__class__ is int else self.field.scalar(c)
        term = (s, 0, 1) if s.__class__ is int else (s.p, s.q, s.den)
        return self._like(*_combination(self.field.d, ((*term, self._den, self._p, self._q),)))

    def _same_body(self, other) -> bool:
        """The body half of ``==``: equal ints, the fields checked first."""
        _check_fields(self, other)
        return self._den == other._den and self._p == other._p and self._q == other._q


def _check_fields(a, b) -> None:
    """The one field rule: bodies of two fields meet only when one of them
    is zero, and a frame, a geometry or a change of frame counts as
    nonzero.  The error names a's field, then b's."""
    if a.field is not b.field and all(not isinstance(x, _Body) or x._p or x._q for x in (a, b)):
        raise _mismatch(a.field, b.field)


class KForm(_Body):
    """Invariant k-form: dimension n, degree k and its integer body keyed by
    mask; ``coeffs`` is the {mask: Scalar} view."""

    __slots__ = ("n", "k")

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
        self._den, self._p, self._q = _ints(clean, field)
        self._view = MappingProxyType(clean)

    # -- constructors --------------------------------------------------

    @classmethod
    def zero(cls, n: int, k: int, field: Field) -> "KForm":
        return cls(n, k, field, {})

    @classmethod
    def from_terms(cls, n: int, field: Field, terms: Iterable[tuple[Sequence[int], object]]) -> "KForm":
        """Build from (indices, coefficient) pairs; all same degree.  A
        coefficient is lifted into ``field`` unless it is a Scalar of it; the
        masks and the signs of sorting each chain come from ``mask_of``, and
        ``_ints`` sums the signed terms' ints by mask straight into the
        canonical body, with no Scalar sum and no Scalar sign, so a zero sum
        is dropped."""
        pairs, signs = [], []
        deg = None
        for idx, c in terms:
            if deg != len(idx):
                if deg is not None:
                    raise ValueError("mixed degrees in term list")
                deg = len(idx)
            m, odd = mask_of(idx)
            if m < 0:
                continue  # repeated index wedges to zero
            if c.__class__ is not Scalar or c.field is not field:
                c = field.scalar(c)
            pairs.append((m, c))
            signs.append(-1 if odd else 1)
        if deg is None:
            raise ValueError("empty term list needs an explicit degree")
        return _from_body(n, deg, field, *_ints(pairs, field, signs))

    def _like(self, den: int, p: dict, q: dict) -> "KForm":
        return _from_body(self.n, self.k, self.field, den, p, q)

    def __eq__(self, other) -> bool:
        if not isinstance(other, KForm):
            return NotImplemented
        return self.n == other.n and self.k == other.k and self._same_body(other)

    def __hash__(self):
        return hash((self.n, self.k, self._den, frozenset(self._p.items()), frozenset(self._q.items())))

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


class Tensor(_Body):
    """A sparse tensor of a frame as one integer body, as a form holds one:
    the entry at a key, a tuple of 0-based indices, is (p + q sqrt d)/den,
    missing keys mean zero, and the body is canonical as a form's is, so
    == and ``is_zero`` compare ints.  The metric and its inverse, the
    structure constants, the connection symbols, J and the Ricci traces are
    Tensors: a kernel sums int products straight into the numerators of its
    output (``_product``, ``_combination``) and normalizes it once
    (``_tensor``).  The public constructor takes Scalars ({key: value}, a
    QQ value read in ``field``); ``entries`` is the {key: Scalar} view,
    built on first read and kept, and ``rows`` the dense Scalar matrix of a
    2-index tensor."""

    __slots__ = ()

    def __init__(self, field: Field, entries: dict):
        self.field = field
        lifted = {k: x if isinstance(x, Scalar) else field.scalar(x) for k, x in entries.items()}
        self._den, self._p, self._q = _ints(lifted, field)
        self._view = None

    entries = _Body.coeffs

    def _like(self, den: int, p: dict, q: dict) -> "Tensor":
        return _from_ints(self.field, den, p, q)

    def rows(self, n: int) -> list:
        """The dense n x n Scalar matrix of a 2-index tensor."""
        zero, entries = self.field.zero(), self.entries
        return [[entries.get((i, j), zero) for j in range(n)] for i in range(n)]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Tensor):
            return NotImplemented
        return self._same_body(other)

    def __repr__(self):
        return f"Tensor({dict(self.entries)})"


def _from_ints(field: Field, den: int, p: dict, q: dict) -> Tensor:
    """A Tensor over a canonical body; the dicts are shared, never written."""
    t = _new(Tensor)
    t.field, t._den, t._p, t._q, t._view = field, den, p, q, None
    return t


def _tensor(field: Field, den: int, p: dict, q: dict) -> Tensor:
    """The Tensor over the raw sums den, p, q (den > 0), made canonical."""
    return _from_ints(field, *_canonical(den, p, q))


def _matrix(rows, field: Field) -> Tensor:
    """The matrix of the Scalar ``rows`` as a Tensor keyed (row, column);
    a sqrt(d) entry from another field raises FieldMismatch."""
    return Tensor(field, {(i, j): x for i, row in enumerate(rows) for j, x in enumerate(row)})


def _by_row(t: Tensor) -> tuple[dict, dict | None]:
    """A 2-index tensor's numerators by first index, {i: [(j, int)]}: the
    rational ones, then the sqrt(d) ones (None when t is rational)."""
    out = ({}, {})
    for part, rows in zip((t._p, t._q), out):
        for (i, j), v in part.items():
            rows.setdefault(i, []).append((j, v))
    return out[0], out[1] or None


def _last_ints(x: dict, rows: dict, acc: dict) -> None:
    get = acc.get
    for key, v in x.items():
        for l, w in rows.get(key[-1], ()):
            out = (*key[:-1], l)
            acc[out] = get(out, 0) + v * w


def _contract(t: Tensor, m: Tensor) -> Tensor:
    """t with its last index contracted with the first index of the matrix
    m: sum_k t_{..k} m_{kl}, one ``_product`` and one normalization."""
    return _tensor(t.field, t._den * m._den, *_product(_last_ints, t.field.d, t._p, t._q, *_by_row(m)))


def _transpose(t: Tensor) -> Tensor:
    p, q = ({(j, i): v for (i, j), v in part.items()} for part in (t._p, t._q))
    return _from_ints(t.field, t._den, p, q)


def _restricted(t: Tensor, m: int) -> Tensor:
    """The entries of t whose indices are all below m."""
    p, q = ({key: v for key, v in part.items() if max(key) < m} for part in (t._p, t._q))
    return _tensor(t.field, t._den, p, q)


class VectorField(_Body):
    """Invariant vector field: n components in the frame basis, held as one
    integer body keyed by the bit of each index, as a 1-form's is, so
    interior, flat and sharp read it as they read a 1-form.  The
    constructor lifts each component into ``field``, as ``KForm(...)``
    does; ``components`` is the tuple view of Scalars."""

    __slots__ = ("n",)

    def __init__(self, n: int, field: Field, components):
        comps = tuple(c if isinstance(c, Scalar) and c.field is field else field.scalar(c) for c in components)
        if len(comps) != n:
            raise ValueError("component count != n")
        self.n = n
        self.field = field
        self._den, self._p, self._q = _ints({1 << i: c for i, c in enumerate(comps)}, field)
        self._view = None

    @property
    def components(self) -> tuple:
        coeffs, zero = self.coeffs, self.field.zero()
        return tuple(coeffs.get(1 << i, zero) for i in range(self.n))

    @classmethod
    def zero(cls, n: int, field: Field) -> "VectorField":
        return _vector(n, field, 1, {}, {})

    @classmethod
    def basis(cls, n: int, field: Field, i: int) -> "VectorField":
        return _vector(n, field, 1, {1 << (i - 1): 1}, {})

    def _like(self, den: int, p: dict, q: dict) -> "VectorField":
        return _vector(self.n, self.field, den, p, q)

    def __eq__(self, other) -> bool:
        if not isinstance(other, VectorField):
            return NotImplemented
        return self.n == other.n and self._same_body(other)

    def __repr__(self):
        return f"VectorField({[str(c) for c in self.components]})"


def _vector(n: int, field: Field, den: int, p: dict, q: dict) -> VectorField:
    """A VectorField over a canonical body keyed by bits."""
    x = _new(VectorField)
    x.n, x.field, x._den, x._p, x._q, x._view = n, field, den, p, q, None
    return x


class FrameGeometry:
    """Metric + orientation data for an n-dimensional frame.

    The metric is one integer body, a symmetric ``Tensor`` keyed (i, j)
    (default the identity), and so is its inverse, computed once by
    ``_mat_inverse``; ``metric`` is the dense Scalar view.  Rows of Scalars
    given to the constructor are that view, and are read into the body on
    first use.  ``orientation_sign`` is the parity of the declared positive
    frame order relative to label order.

    The identity raises no index and expands no minors table: its leading
    minors, det g and sqrt(det g) are all 1.  Any other metric raises the
    indices of a form by the minors of g^{-1}, read from one
    ``CoframeChange`` kept on the geometry, so each set of rows of g^{-1}
    is expanded once however many forms are raised; det g and Sylvester's
    test read one expansion of the leading minors of g, unless the caller
    hands in a known sqrt(det g) (``sqrt_det``, trusted).
    """

    def __init__(self, n: int, field: Field, metric=None, orientation_sign: int = 1, sqrt_det: Scalar | None = None):
        self.n = n
        self.field = field
        self._view = None
        if metric is None:
            self._metric = _from_ints(field, 1, {(i, i): 1 for i in range(n)}, {})
        elif isinstance(metric, Tensor):
            p, q = metric._p, metric._q
            if any(p.get((j, i)) != v for (i, j), v in p.items()) or any(q.get((j, i)) != v for (i, j), v in q.items()):
                raise GeometryError("metric is not symmetric")
            self._metric = metric
        else:
            metric = [[field.scalar(x) if not isinstance(x, Scalar) else x for x in row] for row in metric]
            for i in range(n):
                for j in range(i + 1, n):
                    if not (metric[i][j] - metric[j][i]).is_zero():
                        raise GeometryError("metric is not symmetric")
            self._view = metric
        if orientation_sign not in (1, -1):
            raise ValueError("orientation_sign must be +-1")
        self.orientation_sign = orientation_sign
        self._sqrt_det = sqrt_det

    @property
    def metric(self) -> list:
        """The metric as a dense n x n Scalar matrix."""
        if self._view is None:
            self._view = self._metric.rows(self.n)
        return self._view

    @cached_property
    def _metric(self) -> Tensor:
        """The metric given as Scalar rows, as a Tensor."""
        return _matrix(self._view, self.field)

    @cached_property
    def _is_identity(self) -> bool:
        m = self._metric
        return m._den == 1 and not m._q and m._p == {(i, i): 1 for i in range(self.n)}

    @cached_property
    def _inverse(self) -> Tensor:
        """g^{-1} as a Tensor."""
        return self._metric if self._is_identity else _mat_inverse(self._metric, self.n)

    @cached_property
    def _raise(self) -> "CoframeChange":
        """g^{-1} as a change of frame: moving a form by it raises every index."""
        return CoframeChange(self._inverse, self.n)

    @cached_property
    def _rho(self) -> tuple[int, int, int]:
        """The ints (p, q, den) of rho = +-sqrt(det g), signed by the orientation."""
        r, s = self.sqrt_det(), self.orientation_sign
        return r.p * s, r.q * s, r.den

    @cached_property
    def _leading(self) -> list[tuple[int, int]]:
        """The numerators (p, q) of the leading principal minors of den g,
        k = 1..n (the k-th over den^k is the minor of g): one expansion of
        the minors table (``_minors``) on the metric's int rows, or n ones
        for the identity, which expands no table."""
        n = self.n
        if self._is_identity:
            return [(1, 0)] * n
        minors = ({0: {0: 1}}, {0: {}})
        _minors((1 << n) - 1, minors, _bit_rows(self._metric, n), self.field.d)
        return [(minors[0][m].get(m, 0), minors[1][m].get(m, 0)) for m in ((1 << k) - 1 for k in range(1, n + 1))]

    # -- metric utilities ----------------------------------------------

    def check_positive_definite(self):
        """Sylvester: every leading principal minor is positive, its sign
        read on its numerators."""
        d = self.field.d
        if any(_sign(p, q, d) <= 0 for p, q in self._leading):
            raise GeometryError("metric is not positive-definite")

    def det_metric(self) -> Scalar:
        p, q = self._leading[-1]
        return _norm(self.field, p, q, self._metric._den ** self.n)

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
        return _dot(musical(x, self), y)

    def norm_sq(self, x: VectorField) -> Scalar:
        return self.g(x, x)


def _mat_det(m: Tensor, n: int) -> Scalar:
    """det m of the n x n matrix m: the top entry of its minors table."""
    return CoframeChange(m, n).minor((1 << n) - 1)


def _mat_inverse(m: Tensor, n: int) -> Tensor:
    """The inverse of the n x n matrix m by one ``echelon`` run and one
    ``_back_substitute``: row i reads sum_j (den m)_ij x_j = den e_i, with
    e_i under the right-hand-side key -1-i, so the solution for side -1-r is
    column r of the inverse."""
    rows = [({-1 - i: m._den}, {}) for i in range(n)]
    for a, part in enumerate((m._p, m._q)):
        for (i, j), v in part.items():
            rows[i][a][j] = v
    try:
        pivots = echelon(rows, m.field)
    except InconsistentSystem:
        pivots = {}
    if len(pivots) < n:
        raise GeometryError("singular metric")
    den, columns = _back_substitute(pivots, n, m.field.d, range(-1, -1 - n, -1))
    p, q = {}, {}
    for c in range(n):
        for r, (cp, cq) in enumerate(columns):
            if cp[c]:
                p[c, r] = cp[c]
            if cq[c]:
                q[c, r] = cq[c]
    return _tensor(m.field, den, p, q)


def _bit_rows(m: Tensor, n: int) -> tuple[list, list]:
    """Row j of den M, the n x n matrix m, as the pairs (bit of i, int) of
    its nonzero rational parts, then of its nonzero sqrt(d) parts, in column
    order: the rows the minors table reads."""
    rows = [[] for _ in range(n)], [[] for _ in range(n)]
    for part, out in zip((m._p, m._q), rows):
        for (j, i), v in part.items():
            out[j].append((1 << i, v))
    for out in rows:
        for row in out:
            row.sort()
    return rows


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
    p, q = _product(lambda part, row, acc: _wedge_row(acc, part, 1, row), d,
                    minors[0][rest], minors[1][rest], rows[0][top], rows[1][top])
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
    e^j = sum_i M[j][i] f^i, M the n x n ``Tensor`` keyed (j, i), with the
    Cauchy-Binet minors table of M.

    M is held as the int matrix den M, rational and sqrt(d) parts apart, so
    the table holds int minors, and a minor of k rows of M is the table's
    over den^k.  Every form moved by one change shares the table, so the
    minors of each set of rows of M are expanded once per change of basis,
    not once per form.
    """

    __slots__ = ("field", "den", "rows", "minors")

    def __init__(self, old_in_new: Tensor, n: int):
        self.field = old_in_new.field
        self.den = old_in_new._den
        self.rows = _bit_rows(old_in_new, n)
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
        _check_fields(form, self)
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
    e^j = sum_i old_in_new[j][i] f^i (rows of Scalars), by Cauchy-Binet
    (``CoframeChange``) with a minors table for this one form."""
    return CoframeChange(_matrix(old_in_new, field), len(old_in_new)).move(form)


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


def _top_ints(x: dict, y: dict, acc: dict, full: int) -> None:
    # complementary degrees: each mask of x looks up its complement in y
    odd, s = _ODD, 0
    for ma, va in x.items():
        vb = y.get(full ^ ma)
        if vb:
            s += -va * vb if odd[ma << 8 | full ^ ma] else va * vb
    acc[full] = acc.get(full, 0) + s


def wedge(a: KForm, b: KForm) -> KForm:
    """a ^ b; to top degree each mask of a looks up its complement in b."""
    if a.n != b.n:
        raise GeometryError(f"dimension mismatch: {a.n} vs {b.n}")
    n, k = a.n, a.k + b.k
    if k > n:
        return KForm.zero(n, n, a.field)  # convention: top-degree zero
    field = a.field
    _check_fields(a, b)
    kernel = (lambda x, y, acc: _top_ints(x, y, acc, (1 << n) - 1)) if k == n else _wedge_ints
    p, q = _product(kernel, field.d, a._p, a._q, b._p, b._q)
    return _normalize(n, k, field, a._den * b._den, p, q)


def _interior_ints(x: dict, comps: dict, acc: dict) -> None:
    # comps: the vector's nonzero components {bit of i: X^i}; e^i moves to
    # the front of e^m past the bits of m below it
    get = acc.get
    for m, c in x.items():
        for bit, v in comps.items():
            if m & bit:
                key = m ^ bit
                acc[key] = get(key, 0) + (-c * v if (m & (bit - 1)).bit_count() & 1 else c * v)


def interior(x: VectorField, a: KForm) -> KForm:
    if x.n != a.n:
        raise GeometryError(f"dimension mismatch: {x.n} vs {a.n}")
    field = a.field
    if a.k == 0 or a.is_zero():  # a vector of another field is harmless against 0
        return _from_body(a.n, max(a.k - 1, 0), field, 1, {}, {})
    _check_fields(a, x)
    p, q = _product(_interior_ints, field.d, a._p, a._q, x._p, x._q)
    return _normalize(a.n, a.k - 1, field, a._den * x._den, p, q)


def _derive_ints(x: dict, moves: dict, acc: dict) -> None:
    """acc[mask][p] += the e^mask coefficient of x moved by derivation p, on
    ints; ``moves`` maps the bit of j to (p, bit of t, value) per move."""
    for m, c in x.items():
        mm = m
        while mm:
            low = mm & -mm
            mm ^= low
            targets = moves.get(low)
            if targets is None:
                continue
            rest = m ^ low
            # e^j moves to the front of e^m, e^t back into sorted position:
            # each passes the indices of ``rest`` below it
            lead = (rest & (low - 1)).bit_count()
            for p, bit, v in targets:
                if not rest & bit:
                    key = rest | bit
                    row = acc.get(key)
                    if row is None:
                        row = acc[key] = {}
                    row[p] = row.get(p, 0) + (-c * v if (lead + (rest & (bit - 1)).bit_count()) & 1 else c * v)


def derivation_rows(a: KForm, moves) -> dict[int, tuple[dict, dict]]:
    """Degree-0 derivations applied to a in one walk over its integer body.
    ``moves`` holds derivation p, e^j -> sum_t v e^t (0-based, the ints of
    v = (vp + vq sqrt d)/D over one D for all), as ``_derive_ints`` reads
    it: the rational parts, then the sqrt(d) parts (falsy over QQ), each
    mapping the bit of j to [(p, bit of t, int)].  rows[mask] is the int row
    (p, q) of the e^mask coefficients of the derivations, over a's
    denominator times D, nonzero only."""
    acc_p, acc_q = _product(_derive_ints, a.field.d, a._p, a._q, *moves)
    rows = {}
    for m in (*acc_p, *(m for m in acc_q if m not in acc_p)):
        p, q = acc_p.get(m, {}), acc_q.get(m, {})
        if 0 in p.values():
            p = {c: v for c, v in p.items() if v}
        if 0 in q.values():
            q = {c: v for c, v in q.items() if v}
        if p or q:
            rows[m] = (p, q)
    return rows


def skew_three_form(n: int, t: Tensor) -> KForm | None:
    """The 3-form with the components of the 3-index Tensor t (keys (i, j,
    k), 0-based), or None when t is not totally skew: in one pass over each
    part of t's int body, each entry signed by the parity of its order
    matches its mask's first, and each mask is met 6 times (a mask with a
    repeated index has fewer bits and is met at most 3 times).  The form's
    terms come in ascending (i, j, k) order."""
    out = []
    for part in (t._p, t._q):
        body = {}
        for (i, j, k), v in part.items():
            if (i > j) ^ (i > k) ^ (j > k):
                v = -v
            if body.setdefault(1 << i | 1 << j | 1 << k, v) != v:
                return None
        if len(part) != 6 * len(body):  # no mask is met more than 6 times
            return None
        out.append({m: body[m] for m in sorted(body, key=_INDICES.__getitem__)})
    return _from_body(n, 3, t.field, t._den if out[0] or out[1] else 1, *out)


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


def _dot(a, b) -> Scalar:
    """sum_key a_key b_key over two int bodies (forms, vectors or tensors)
    of one field, as one Scalar."""
    field = a.field
    p, q = _product(_dot_ints, field.d, a._p, a._q, b._p, b._q)
    return _norm(field, p[0], q.get(0, 0), a._den * b._den)


def form_inner(a: KForm, b: KForm, geom: FrameGeometry) -> Scalar:
    if a.k != b.k:
        raise GeometryError(f"degree mismatch: {a.k} vs {b.k}")
    _check_fields(a, b)
    return _dot(_raised(a, geom), b)


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
    return _from_body(n, n - a.k, a.field, *_combination(a.field.d, ((rp, rq, rden, up._den, p, q),)))


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


def _flat_ints(x: dict, rows: dict, acc: dict) -> None:
    get = acc.get
    for bit, v in x.items():
        for j, w in rows.get(bit.bit_length() - 1, ()):
            acc[1 << j] = get(1 << j, 0) + v * w


def musical(x: VectorField, geom: FrameGeometry) -> KForm:
    """Flat: X -> g(X, .) as a 1-form; a vector's body is a 1-form's, so
    under the identity metric it is the form's body."""
    field = geom.field
    _check_fields(geom, x)
    if geom._is_identity:
        return _from_body(geom.n, 1, field, x._den, x._p, x._q)
    m = geom._metric
    return _normalize(geom.n, 1, field, x._den * m._den, *_product(_flat_ints, field.d, x._p, x._q, *_by_row(m)))


def musical_inv(a: KForm, geom: FrameGeometry) -> VectorField:
    """Sharp: degree-1 form -> vector via the inverse metric."""
    if a.k != 1:
        raise GeometryError("sharp needs a 1-form")
    up = _raised(a, geom)
    return _vector(geom.n, geom.field, up._den, up._p, up._q)


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
    _check_fields(f, h)
    fup = _raised(f, geom)
    p, q = _product(_contract_ints, field.d, h._p, h._q, fup._p, fup._q)
    return _normalize(f.n, 1, field, h._den * fup._den, p, q)
