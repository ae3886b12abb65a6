"""Left-invariant geometry on a Lie algebra frame.

A frame stores the coframe differentials de^i (degree-2 KForms), which
encode the structure constants: de^i = -sum_{j<k} c^i_{jk} e^{jk}.  Each
tensor here is a dict of its nonzero entries: the structure constants (once
per frame) and the connection symbols Gamma^l_{ij}.  So d, Levi-Civita,
Bismut and curvature cost products of nonzero entries only, and a flat
connection costs almost nothing.  Curvature is read as traces: the Ricci
tensor is contracted straight off the symbols, and no Riemann tensor is
built.  Sums of products of the tensors accumulate through
``scalars._mac``, one normalization per output entry; d works on the forms'
integer bodies, with the coframe differentials over one denominator (kept
per frame), and normalizes each output form once.
A change of frame moves a form by the minors of the change-of-basis matrix
(Cauchy-Binet, ``forms.CoframeChange``), one accumulation per form, with
no wedge, and the forms one change moves share one minors table.  A frame
carries one metric, its ``geometry``, which every function here reads; a
structure's frame carries the structure's metric.
"""

from __future__ import annotations

from functools import cached_property
from math import lcm

from .forms import (
    _INDICES,
    _ODD,
    CoframeChange,
    FrameGeometry,
    GeometryError,
    KForm,
    VectorField,
    _combination,
    _mat_det,
    _mat_inverse,
    _mismatch,
    _normalize,
    _product,
    hodge_star,
    indices_of,
    transform_form,
)
from .scalars import Field, GTorsionError, Scalar, _mac, _settle

__all__ = [
    "LieAlgebraFrame",
    "ConnectionCoeffs",
    "FrameError",
    "ce_differential",
    "codifferential",
    "levi_civita",
    "bismut_connection",
    "curvature",
    "covariant_derivative_oneform",
    "change_frame",
    "transform_form",
    "transform_bilinear",
]


class FrameError(GTorsionError, ValueError):
    exit_code = 2
    label = "parse error"


class LieAlgebraFrame:
    """Frame labels, coframe differentials and geometry.

    The frame caches only its metric-free ``constants``, so a copy with
    another ``geometry`` (a structure's metric) shares them safely.
    ``check_closure=False`` skips the d^2 = 0 (Jacobi) gate; computations on
    such frames are formal and ``closed`` records the failure.
    """

    def __init__(self, labels, coframe_d, geometry: FrameGeometry, check_closure: bool = True):
        self.labels = tuple(labels)
        self.n = len(self.labels)
        if len(set(self.labels)) != self.n:
            raise FrameError("duplicate frame labels")
        if len(coframe_d) != self.n:
            raise FrameError("need one differential per coframe element")
        for d in coframe_d:
            if d.n != self.n or d.k != 2:
                raise FrameError("coframe differentials must be 2-forms in the frame dimension")
        self.coframe_d = tuple(coframe_d)
        self.geometry = geometry
        self.field = geometry.field
        self.closed = self._closure_defect() is None
        if check_closure and not self.closed:
            i, defect = self._closure_defect()
            raise FrameError(
                f"d^2 e^{self.labels[i]} = {defect!r} != 0: structure equations violate the Jacobi identity"
            )

    def _closure_defect(self):
        for i in range(self.n):
            dd = ce_differential(self, self.coframe_d[i])
            if not dd.is_zero():
                return i, dd
        return None

    @cached_property
    def constants(self) -> dict[tuple[int, int, int], Scalar]:
        """The nonzero structure constants: ``constants[(i, j, k)]`` is
        c^k_{ij}, [e_i, e_j] = sum_k c^k_{ij} e_k, for both orders of i != j
        (0-based)."""
        out = {}
        for k, d in enumerate(self.coframe_d):
            for m, coef in d.coeffs.items():
                i, j = indices_of(m)
                out[(i - 1, j - 1, k)] = -coef
                out[(j - 1, i - 1, k)] = coef
        return out

    @cached_property
    def _coframe_body(self) -> tuple:
        """The differentials de^i over one denominator, as ``ce_differential``
        reads them: (den, rational numerators per i, sqrt(d) numerators per
        i or None when every de^i is rational)."""
        den = lcm(*(d._den for d in self.coframe_d))
        p = [{m: v * (den // d._den) for m, v in d._p.items()} for d in self.coframe_d]
        q = [{m: v * (den // d._den) for m, v in d._q.items()} for d in self.coframe_d]
        return den, p, q if any(q) else None

    def is_unimodular(self) -> bool:
        """Every trace sum_k c^k_{ik} vanishes."""
        tr = [self.field.zero()] * self.n
        for (i, j, k), c in self.constants.items():
            if j == k:
                tr[i] = tr[i] + c
        return all(t.is_zero() for t in tr)

    def d(self, a: KForm) -> KForm:
        return ce_differential(self, a)

    def __repr__(self):
        return f"LieAlgebraFrame({', '.join(self.labels)})"


def _last_index(t: dict, geom: FrameGeometry, up: bool) -> dict:
    """sum_k m^{lk} T_{ijk} for a sparse (i, j, k) -> T_{ijk}, with m = g^{-1}
    (``up``, raising the last index) or m = g (lowering it)."""
    d = geom.diagonal_inverse if up else geom.diagonal
    if d is not None:
        one = geom.field.one()
        return {(i, j, k): v if d[k] is one else v * d[k] for (i, j, k), v in t.items()}
    m = geom.inverse_metric() if up else geom.metric
    acc = {}
    for (i, j, k), v in t.items():
        for l, x in enumerate(m[k]):  # m is symmetric
            if not x.is_zero():
                _mac(acc, (i, j, l), v, x, False)
    return _settle(geom.field, acc)


class ConnectionCoeffs:
    """The nonzero Christoffel symbols of an invariant connection:
    ``entries[(i, j, l)]`` is Gamma^l_{ij}, the e_l component of
    nabla_{e_i} e_j (0-based)."""

    def __init__(self, frame: LieAlgebraFrame, entries: dict):
        self.frame = frame
        self.entries = entries

    @property
    def gamma(self):
        """Dense view: gamma[i][j] is the VectorField nabla_{e_i} e_j."""
        n, field = self.frame.n, self.frame.field
        comps = [[[field.zero()] * n for _ in range(n)] for _ in range(n)]
        for (i, j, l), v in self.entries.items():
            comps[i][j][l] = v
        return [[VectorField(n, field, c) for c in row] for row in comps]


def _d_ints(x: dict, ds: list, acc: dict) -> None:
    odd, get = _ODD, acc.get
    for m, c in x.items():
        for p, i in enumerate(_INDICES[m]):
            rest = m ^ (1 << (i - 1))
            for md, cd in ds[i - 1].items():
                if not md & rest:
                    key = md | rest
                    if (p & 1) != odd[md << 8 | rest]:
                        acc[key] = get(key, 0) - c * cd
                    else:
                        acc[key] = get(key, 0) + c * cd


def ce_differential(frame: LieAlgebraFrame, a: KForm) -> KForm:
    """Extend the coframe differentials as a degree +1 antiderivation:
    d(c e^I) = sum_p (-1)^p c (d e^{i_p}) ^ e^{I - i_p}, summed into one body."""
    n, field = frame.n, frame.field
    if a.k >= n:
        return KForm.zero(n, min(a.k + 1, n), field)
    den, dp, dq = frame._coframe_body
    if a.field is not field and not a.is_zero():
        raise _mismatch(a.field, field)
    p, q = _product(_d_ints, field.d, a._p, a._q, dp, dq)
    return _normalize(n, a.k + 1, field, a._den * den, p, q)


def codifferential(frame, a: KForm) -> KForm:
    """d* = (-1)^{n(k+1)+1} star d star on k-forms; ``frame`` is a
    LieAlgebraFrame or anything with its ``n``, ``field``, ``geometry`` and ``d``."""
    n, k, geom = frame.n, a.k, frame.geometry
    if k == 0:
        return KForm.zero(n, 0, frame.field)
    sds = hodge_star(frame.d(hodge_star(a, geom)), geom)
    sign = -1 if (n * (k + 1) + 1) % 2 else 1
    return sds if sign > 0 else -sds


def levi_civita(frame: LieAlgebraFrame) -> ConnectionCoeffs:
    """Koszul formula on invariant fields:
    2<D_X Y, Z> = <[X,Y],Z> - <[Y,Z],X> + <[Z,X],Y>, i.e. the lowered
    symbols (1/2)(c_ijk - c_jki + c_kij), raised by g^{-1}."""
    geom = frame.geometry
    field = frame.field
    half = field.scalar(1, 2)
    low = {}
    # c_abc feeds (i, j, k) = (a, b, c) with +, (c, a, b) with - and (b, c, a) with +
    for (a, b, c), v in _last_index(frame.constants, geom, up=False).items():
        for key, neg in (((a, b, c), False), ((c, a, b), True), ((b, c, a), False)):
            _mac(low, key, v, half, neg)
    return ConnectionCoeffs(frame, _last_index(_settle(field, low), geom, up=True))


def bismut_connection(frame: LieAlgebraFrame, h: KForm, lc: ConnectionCoeffs) -> ConnectionCoeffs:
    """nabla = D + (1/2) g^{-1} H: <nabla_i e_j, e_k> = <D_i e_j, e_k> + H(e_i,e_j,e_k)/2,
    with ``lc`` the Levi-Civita connection D of ``frame``."""
    if h.k != 3:
        raise GeometryError("torsion form must have degree 3")
    field = frame.field
    half = field.scalar(1, 2)
    low = {}
    for mask, v in h.coeffs.items():
        hv = v * half
        a, b, c = (x - 1 for x in indices_of(mask))
        for i, j, k in ((a, b, c), (b, c, a), (c, a, b)):
            low[(i, j, k)] = hv
            low[(j, i, k)] = -hv
    entries = dict(lc.entries)
    zero = field.zero()
    for key, v in _last_index(low, frame.geometry, up=True).items():
        entries[key] = entries.get(key, zero) + v
    return ConnectionCoeffs(frame, {key: v for key, v in entries.items() if not v.is_zero()})


def curvature(frame: LieAlgebraFrame, conn: ConnectionCoeffs):
    """The Ricci tensor Rc(X, Y) = tr(Z -> R(Z, X) Y) of ``conn`` as a dense
    n x n matrix, contracted straight off the symbols with no Riemann tensor:
    with R(X,Y)Z = nabla_X nabla_Y Z - nabla_Y nabla_X Z - nabla_{[X,Y]} Z,
    Rc_jk = sum_m Gamma^m_{jk} tau_m - sum_{a,m} Gamma^a_{jm} Gamma^m_{ak}
            - sum_{a,m} c^m_{aj} Gamma^a_{mk},   tau_m = sum_a Gamma^a_{am}.
    The coframe pairing of the trace is metric-free.
    """
    n, field = frame.n, frame.field
    one, zero = field.one(), field.zero()
    tau, by_ends = {}, {}  # by_ends: (i, l) -> [(j, Gamma^l_{ij})]
    for (i, j, l), v in conn.entries.items():
        by_ends.setdefault((i, l), []).append((j, v))
        if l == i:
            _mac(tau, j, v, one, False)
    tau = _settle(field, tau)
    acc = {}
    for (j, k, m), v in conn.entries.items():
        t = tau.get(m)
        if t is not None:
            _mac(acc, (j, k), v, t, False)
    for (j, m, a), v in conn.entries.items():
        for k, w in by_ends.get((a, m), ()):
            _mac(acc, (j, k), v, w, True)
    for (a, j, m), c in frame.constants.items():
        for k, w in by_ends.get((m, a), ()):
            _mac(acc, (j, k), c, w, True)
    rc = _settle(field, acc)
    return [[rc.get((j, k), zero) for k in range(n)] for j in range(n)]


def covariant_derivative_oneform(frame: LieAlgebraFrame, conn: ConnectionCoeffs, theta: KForm):
    """(nabla theta)_{ij} = (nabla_{e_i} theta)(e_j) = -sum_t theta_t Gamma^t_{ij}
    as an n x n Scalar matrix."""
    if theta.k != 1:
        raise GeometryError("needs a 1-form")
    n, field = frame.n, frame.field
    acc = {}
    for (i, j, t), g in conn.entries.items():
        c = theta.coeffs.get(1 << t)
        if c is not None:
            _mac(acc, (i, j), c, g, True)
    out = _settle(field, acc)
    return [[out.get((i, j), field.zero()) for j in range(n)] for i in range(n)]


def change_frame(frame: LieAlgebraFrame, a_rows, new_labels=None, validate: bool = True) -> LieAlgebraFrame:
    """New frame with coframe f^i = sum_j A[i][j] e^j.

    The frame's metric transforms so the geometry is unchanged, and the
    orientation sign picks up the sign of det A.  The new frame always
    records whether it is ``closed`` (d^2 = 0); ``validate=False`` only
    skips raising when it is not, which cannot happen when the input frame
    is closed.
    """
    n, field, base = frame.n, frame.field, frame.geometry
    a = [[x if isinstance(x, Scalar) else field.scalar(x) for x in row] for row in a_rows]
    ainv = _mat_inverse(a, field)
    # dual vectors: F_i = sum_k B[i][k] E_k with B = (A^{-1})^T
    b = [[ainv[k][i] for k in range(n)] for i in range(n)]
    gnew = transform_bilinear(base.metric, b, field)
    sign = base.orientation_sign * _mat_det(a, field).sign()
    geom = FrameGeometry(n, field, gnew, orientation_sign=sign)
    labels = new_labels or [f"f{i}" for i in range(1, n + 1)]
    new_d = _new_differentials(frame, a, CoframeChange(ainv, field))
    return LieAlgebraFrame(labels, new_d, geom, check_closure=frame.closed and validate)


def _new_differentials(frame: LieAlgebraFrame, a, old_in_new: CoframeChange) -> list[KForm]:
    """The differentials d f^i = sum_j A[i][j] d e^j of the coframe f = A e,
    each d e^j moved into the f basis by ``old_in_new``, the change for
    e = A^{-1} f."""
    n, field = frame.n, frame.field
    d_old = [old_in_new.move(d) for d in frame.coframe_d]
    return [
        _combination(n, 2, field, [(x.p, x.q, x.den, d._den, d._p, d._q) for x, d in zip(row, d_old) if not x.is_zero()])
        for row in a
    ]


def transform_bilinear(m, b_rows, field: Field):
    """A (0,2)-tensor m at the vectors F_i = sum_p B[i][p] E_p, the rows of
    ``b_rows``: m(F_i, F_j) = (B m B^T)_ij (fewer rows: the block they span)."""
    nonzero = [[p for p, x in enumerate(bi) if not x.is_zero()] for bi in b_rows]
    acc = {}
    for i, (bi, ps) in enumerate(zip(b_rows, nonzero)):
        for j, (bj, qs) in enumerate(zip(b_rows, nonzero)):
            for p in ps:
                for q in qs:
                    if not m[p][q].is_zero():
                        _mac(acc, (i, j), bi[p] * m[p][q], bj[q], False)
    out = _settle(field, acc)
    return [[out.get((i, j), field.zero()) for j in range(len(b_rows))] for i in range(len(b_rows))]
