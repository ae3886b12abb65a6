"""Graded exterior algebra over an oriented inner-product frame, n <= 8.

Basis k-vectors are index subsets of {1..n} encoded as n-bit masks
(bit i-1 set means index i is present).  Coefficients are Scalars from a
single field; missing masks mean zero.  All values are immutable and all
operations are pure.  A diagonal metric takes one fast path (see
``FrameGeometry``): Gram minors are products, so the star and inner
products cost O(n) per component, and the identity metric raises no index
at all.  Every other minor comes from one table, the Cauchy-Binet minors
of a matrix's leading rows (``_minors``): a change of frame, the raising
of indices by g^{-1}, det g and Sylvester's test all read it.  A change of
frame keeps its table in a ``CoframeChange``, so the forms it moves share
the minors.  Sums of
products accumulate through ``scalars._mac``, one normalization per
output mask.

Kernel outputs skip the public constructor's checks: ``_trusted`` wraps
coefficients that ``_settle`` returned (nonzero, on masks of the output
degree) or that come from a checked form.  Merge signs and index tuples
are read from two lazily filled module-level tables, ``_ODD`` and
``_INDICES``; their keys are masks of n <= 8 bits, so they never hold more
than 3^8 and 2^8 entries, and nothing is built at import.
"""

from __future__ import annotations

import math
from collections import defaultdict
from functools import cached_property
from typing import Iterable

from .linsolve import InconsistentSystem, echelon
from .scalars import Field, FieldMismatch, GTorsionError, NotRepresentable, Scalar, _mac, _settle

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


def _trusted(n: int, k: int, field: Field, coeffs: dict) -> "KForm":
    """A KForm over ``coeffs`` without the public constructor's checks: every
    value is a nonzero Scalar on a mask of k bits, as ``_settle`` returns
    them or as a checked form holds them."""
    form = _new(KForm)
    form.n, form.k, form.field, form.coeffs = n, k, field, coeffs
    return form


class KForm:
    """Invariant k-form: dimension n, degree k, {mask: Scalar} coefficients."""

    __slots__ = ("n", "k", "field", "coeffs")

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
                    clean[m] = c
        self.coeffs = clean

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
        acc = dict(self.coeffs)
        for m, c in other.coeffs.items():
            t = acc.get(m)
            if t is not None:
                t = t - c if negate else t + c
                if t.is_zero():
                    del acc[m]
                else:
                    acc[m] = t
            elif c.field is not field:
                raise FieldMismatch(f"mixed-field arithmetic: {field!r} vs {c.field!r}")
            else:
                acc[m] = -c if negate else c
        return _trusted(self.n, self.k, field, acc)

    def __neg__(self) -> "KForm":
        return _trusted(self.n, self.k, self.field, {m: -c for m, c in self.coeffs.items()})

    def scale(self, c) -> "KForm":
        s = self.field.scalar(c)
        coeffs = {} if s.is_zero() else {m: v * s for m, v in self.coeffs.items()}
        return _trusted(self.n, self.k, self.field, coeffs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, KForm):
            return NotImplemented
        if self.n != other.n or self.k != other.k:
            return False
        for m in self.coeffs.keys() | other.coeffs.keys():
            a = self.coeffs.get(m, self.field.zero())
            b = other.coeffs.get(m, other.field.zero())
            if not (a - b).is_zero():
                return False
        return True

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coeffs.values())

    def _check_compatible(self, other: "KForm"):
        if self.n != other.n:
            raise GeometryError(f"dimension mismatch: {self.n} vs {other.n}")
        if self.k != other.k:
            raise GeometryError(f"degree mismatch: {self.k} vs {other.k}")

    def __repr__(self):
        if not self.coeffs:
            return f"KForm({self.n},{self.k}; 0)"
        parts = []
        for m in sorted(self.coeffs):
            idx = "".join(str(i) for i in indices_of(m))
            parts.append(f"({self.coeffs[m]})e{idx}")
        return f"KForm({self.n},{self.k}; " + " + ".join(parts) + ")"


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
        return cls(n, field, [0] * n)

    @classmethod
    def basis(cls, n: int, field: Field, i: int) -> "VectorField":
        return cls(n, field, [1 if j == i else 0 for j in range(1, n + 1)])

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
    lazily on first use; its Gram minors are products of 1/g_ii.  Unit
    diagonal entries are the field's own ``one()``, so the identity is the
    case where every such factor is skipped.  Any other metric raises
    indices by the minors of g^{-1} (``transform_form``).
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

    # -- metric utilities ----------------------------------------------

    def check_positive_definite(self):
        """Sylvester: every leading principal minor is positive."""
        minors, zero = _leading_minors(self.metric, self.field), self.field.zero()
        leading = [(1 << k) - 1 for k in range(1, self.n + 1)]
        if any(minors[m].get(m, zero).sign() <= 0 for m in leading):
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
    full = (1 << len(m)) - 1
    return _leading_minors(m, field)[full].get(full, field.zero())


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


def _leading_minors(m, field: Field) -> dict:
    """The minors table of a square matrix: {I: {J: det m[I, J]}} for every
    set I of leading rows, nonzero minors only."""
    minors = {0: {0: field.one()}}
    _minors((1 << len(m)) - 1, minors, _sparse_rows(m), field)
    return minors


def _sparse_rows(m) -> list:
    """Row j of m as the pairs (bit of i, m[j][i]) of its nonzero entries."""
    return [[(1 << i, x) for i, x in enumerate(row) if not x.is_zero()] for row in m]


def _minors(mask: int, minors: dict, rows, field: Field) -> dict:
    """The nonzero minors {J: det M[I, J]} of the rows I in ``mask``, kept
    in ``minors``: those of the rows below its top row, wedged with the top
    row."""
    out = minors.get(mask)
    if out is None:
        top = mask.bit_length() - 1
        acc = {}
        _wedge_row(acc, _minors(mask ^ (1 << top), minors, rows, field), field.one(), rows[top])
        out = minors[mask] = _settle(field, acc)
    return out


def _wedge_row(acc: dict, minors: dict, c: Scalar, row) -> None:
    """acc += c (sum_J minors[J] f^J) ^ (sum_i x_i f^i) for ``row`` the
    pairs (bit of i, x_i): f^i moves past the bits of J above it."""
    odd, one = _ODD, c.field.one()
    for jm, d in minors.items():
        cd = d if c is one else c if d is one else c * d
        for bit, x in row:
            if not jm & bit:
                _mac(acc, jm | bit, cd, x, odd[jm << 8 | bit])


class CoframeChange:
    """A change of coframe given by the old coframe in the new one,
    e^j = sum_i M[j][i] f^i, with the Cauchy-Binet minors table of M.

    Every form moved by one change shares the table, so the minors of each
    set of rows of M are expanded once per change of basis, not once per
    form.
    """

    __slots__ = ("field", "rows", "minors")

    def __init__(self, old_in_new, field: Field):
        self.field = field
        self.rows = _sparse_rows(old_in_new)
        self.minors = {0: {0: field.one()}}

    def move(self, form: KForm) -> KForm:
        """The form in the new coframe: c e^I goes to sum_J c det M[I, J] f^J.
        Each term wedges its top row of M onto the table's minors of the
        rest of I, straight into the one output accumulator."""
        n, k, field = form.n, form.k, self.field
        if k == 0:
            return _trusted(n, 0, field, dict(form.coeffs))
        rows, minors = self.rows, self.minors
        acc = {}
        for mask, coef in form.coeffs.items():
            top = mask.bit_length() - 1
            _wedge_row(acc, _minors(mask ^ (1 << top), minors, rows, field), coef, rows[top])
        return _trusted(n, k, field, _settle(field, acc))


def transform_form(form: KForm, old_in_new, field: Field) -> KForm:
    """Rewrite a form given the old coframe expressed in a new one:
    e^j = sum_i old_in_new[j][i] f^i, by Cauchy-Binet (``CoframeChange``)
    with a minors table for this one form."""
    return CoframeChange(old_in_new, field).move(form)


# -- core operations ----------------------------------------------------


def wedge(a: KForm, b: KForm) -> KForm:
    if a.n != b.n:
        raise GeometryError(f"dimension mismatch: {a.n} vs {b.n}")
    k = a.k + b.k
    if k > a.n:
        return KForm.zero(a.n, a.n, a.field)  # convention: top-degree zero
    acc: dict[int, list] = {}
    odd = _ODD
    for ma, ca in a.coeffs.items():
        high = ma << 8
        for mb, cb in b.coeffs.items():
            if not ma & mb:
                _mac(acc, ma | mb, ca, cb, odd[high | mb])
    return _trusted(a.n, k, a.field, _settle(a.field, acc))


def interior(x: VectorField, a: KForm) -> KForm:
    if x.n != a.n:
        raise GeometryError(f"dimension mismatch: {x.n} vs {a.n}")
    if a.k == 0:
        return KForm.zero(a.n, 0, a.field)
    acc: dict[int, list] = {}
    for m, c in a.coeffs.items():
        pos = 0
        mm = m
        while mm:
            low = mm & -mm
            comp = x.components[low.bit_length() - 1]
            if not comp.is_zero():
                _mac(acc, m ^ low, c, comp, pos & 1)
            pos += 1
            mm ^= low
    return _trusted(a.n, a.k - 1, a.field, _settle(a.field, acc))


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
                odd = (t(j, i, k), t(i, k, j), t(k, j, i))
                even = (t(j, k, i), t(k, i, j))
                if not all((w + v).is_zero() for w in odd) or not all((w - v).is_zero() for w in even):
                    return None
                if not v.is_zero():
                    coeffs[(1 << i) | (1 << j) | (1 << k)] = v
    return _trusted(n, 3, field, coeffs)


def _raised(a: KForm, geom: FrameGeometry) -> dict[int, Scalar]:
    """The nonzero components a^I = <e^I, a> of ``a`` with every index raised
    by g, keyed by mask: a's own coefficients for the identity metric (read
    them, never write them), a_I prod 1/g_ii for a diagonal one, otherwise
    sum_J a_J det g^{-1}[J, I], the change of frame by g^{-1}."""
    if geom._is_identity:
        return a.coeffs
    dinv = geom.diagonal_inverse
    if dinv is None:
        return transform_form(a, geom.inverse_metric(), a.field).coeffs
    one = a.field.one()
    out = {}
    for m, c in a.coeffs.items():
        w = math.prod((dinv[i - 1] for i in _INDICES[m] if dinv[i - 1] is not one), start=one)
        out[m] = c if w is one else c * w
    return out


def form_inner(a: KForm, b: KForm, geom: FrameGeometry) -> Scalar:
    if a.k != b.k:
        raise GeometryError(f"degree mismatch: {a.k} vs {b.k}")
    acc: dict[int, list] = {}
    for m, ca in _raised(a, geom).items():
        cb = b.coeffs.get(m)
        if cb is not None:
            _mac(acc, 0, ca, cb, False)
    return _settle(a.field, acc).get(0, a.field.zero())


def hodge_star(a: KForm, geom: FrameGeometry) -> KForm:
    """Defined by alpha ^ star(b) = <alpha, b> vol for all alpha of degree k:
    star(a) = rho sum_I eps(I, I^c) a^I e^{I^c}, rho = +-sqrt(det g)."""
    n = a.n
    full = (1 << n) - 1
    rho = geom.sqrt_det() * geom.orientation_sign
    # rho = +-1 (any unimodular metric) only flips signs
    unit = rho.den == 1 and not rho.q and rho.p in (1, -1)
    flip = unit and rho.p < 0
    odd = _ODD
    acc: dict[int, Scalar] = {}
    for m, c in _raised(a, geom).items():
        comp = full ^ m
        if not unit:
            c = c * rho
        acc[comp] = -c if odd[m << 8 | comp] is not flip else c
    return _trusted(n, n - a.k, a.field, acc)


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
    up = _raised(a, geom)
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


def contract_2_3(f: KForm, h: KForm, geom: FrameGeometry) -> KForm:
    """<F,H>(Z) = 1/2 sum_{a,b} F^{ab} H(e_a, e_b, Z), indices raised by g."""
    if f.k != 2 or h.k != 3:
        raise GeometryError("contract_2_3 needs degrees (2, 3)")
    field = f.field
    fup = _raised(f, geom)
    # the sum over ordered pairs is twice the sum over a < b: for each term
    # H_pqr e^{pqr}, pair (p, q) meets Z = r, (p, r) meets -q, (q, r) meets p
    acc: dict[int, list] = {}
    for m, hv in h.coeffs.items():
        p, q, r = (1 << (i - 1) for i in _INDICES[m])
        for pair, z, neg in ((p | q, r, False), (p | r, q, True), (q | r, p, False)):
            fv = fup.get(pair)
            if fv is not None:
                _mac(acc, z, fv, hv, neg)
    return _trusted(f.n, 1, field, _settle(field, acc))
