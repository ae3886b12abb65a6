"""Left-invariant geometry on a Lie algebra frame.

A frame stores the coframe differentials de^i (degree-2 KForms), which
encode the structure constants: de^i = -sum_{j<k} c^i_{jk} e^{jk}.  Every
tensor here is one integer body, a ``forms.Tensor`` of its nonzero entries
over one denominator: the structure constants (read once per frame off the
differentials' body), the metric and its inverse (kept on the frame's
geometry), the connection symbols Gamma^l_{ij} and the Ricci traces.  A
kernel sums int products of nonzero entries straight into its output's
numerators (``forms._product``, ``forms._combination``) and normalizes the
output once, so d, Levi-Civita, Bismut and curvature cost products of
nonzero entries only, a flat connection costs almost nothing, and no Scalar
is built.  Curvature is read as traces: the Ricci tensor is contracted
straight off the symbols, and no Riemann tensor is built.
``ConnectionCoeffs.entries`` and ``.gamma`` are Scalar views, built on
first read for the tests and the bench tracer; no computation here reads
them.
A change of frame moves a form by the minors of the change-of-basis matrix
(Cauchy-Binet, ``forms.CoframeChange``), one accumulation per form, with
no wedge, and the forms one change moves share one minors table; the new
differentials are read off the int rows of the matrix.  A frame
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
    Tensor,
    VectorField,
    _check_fields,
    _combination,
    _contract,
    _from_body,
    _from_ints,
    _mat_det,
    _mat_inverse,
    _matrix,
    _normalize,
    _product,
    _tensor,
    _transpose,
    hodge_star,
    transform_form,
)
from .scalars import GTorsionError

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

    The frame caches only metric-free data, its structure constants and
    ``closed``, so a copy with another ``geometry`` (a structure's metric)
    shares them safely.
    ``check_closure=False`` skips the d^2 = 0 (Jacobi) gate; computations on
    such frames are formal, and ``closed`` walks d^2 on first read.
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
        if check_closure:
            defect = self._closure_defect()
            if defect is not None:
                i, dd = defect
                raise FrameError(
                    f"d^2 e^{self.labels[i]} = {dd!r} != 0: structure equations violate the Jacobi identity"
                )
            self.closed = True

    @cached_property
    def closed(self) -> bool:
        """d^2 = 0 on every coframe element (the Jacobi identity)."""
        return self._closure_defect() is None

    def _closure_defect(self):
        """The first i with d^2 e^i != 0 and that 3-form, or None: each d^2
        is summed on the ints of ``_coframe_body``, and a KForm is built only
        for the failing generator."""
        _, p, q = self._coframe_body
        for i in range(self.n):
            sp, sq = _product(_d_ints, self.field.d, p[i], q[i] if q else {}, p, q)
            if any(sp.values()) or any(sq.values()):
                return i, ce_differential(self, self.coframe_d[i])
        return None

    @cached_property
    def _constants(self) -> Tensor:
        """The nonzero structure constants: entry (i, j, k) is c^k_{ij},
        [e_i, e_j] = sum_k c^k_{ij} e_k, for both orders of i != j (0-based),
        read off ``_coframe_body`` over its denominator."""
        den, p, q = self._coframe_body
        out = ({}, {})
        for parts, body in zip((p, q or ()), out):
            for k, dk in enumerate(parts):
                for m, v in dk.items():
                    i, j = _INDICES[m]
                    body[(i - 1, j - 1, k)] = -v
                    body[(j - 1, i - 1, k)] = v
        return _from_ints(self.field, den, *out)

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
        """Every trace sum_k c^k_{ik} vanishes, read on the ints."""
        c = self._constants
        for part in (c._p, c._q):
            tr = {}
            for (i, j, k), v in part.items():
                if j == k:
                    tr[i] = tr.get(i, 0) + v
            if any(tr.values()):
                return False
        return True

    def d(self, a: KForm) -> KForm:
        return ce_differential(self, a)

    def __repr__(self):
        return f"LieAlgebraFrame({', '.join(self.labels)})"


def _last_index(t: Tensor, geom: FrameGeometry, up: bool) -> Tensor:
    """sum_k m^{lk} T_{ijk} for a 3-index Tensor T, with m = g^{-1} (``up``,
    raising the last index) or m = g (lowering it); the identity moves
    nothing."""
    if geom._is_identity:
        return t
    return _contract(t, geom._inverse if up else geom._metric)


class ConnectionCoeffs:
    """The Christoffel symbols of an invariant connection, the Tensor
    ``symbols``: entry (i, j, l) is Gamma^l_{ij}, the e_l component of
    nabla_{e_i} e_j (0-based).  ``lowered``, <nabla_{e_i} e_j, e_k>, is kept
    where it is at hand: ``levi_civita`` keeps the Koszul symbols, which the
    oracle reads.  ``entries`` and ``gamma`` are Scalar views."""

    def __init__(self, frame: LieAlgebraFrame, symbols: Tensor, lowered: Tensor | None = None):
        self.frame = frame
        self.symbols = symbols
        self.lowered = lowered

    @property
    def entries(self):
        """The nonzero symbols {(i, j, l): Scalar}."""
        return self.symbols.entries

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
    _check_fields(a, frame)
    p, q = _product(_d_ints, field.d, a._p, a._q, dp, dq)
    return _normalize(n, a.k + 1, field, a._den * den, p, q)


def codifferential(frame: LieAlgebraFrame, a: KForm) -> KForm:
    """d* = (-1)^{n(k+1)+1} star d star on k-forms, through ``frame.d``."""
    n, k, geom = frame.n, a.k, frame.geometry
    if k == 0:
        return KForm.zero(n, 0, frame.field)
    sds = hodge_star(frame.d(hodge_star(a, geom)), geom)
    sign = -1 if (n * (k + 1) + 1) % 2 else 1
    return sds if sign > 0 else -sds


def levi_civita(frame: LieAlgebraFrame) -> ConnectionCoeffs:
    """Koszul formula on invariant fields:
    2<D_X Y, Z> = <[X,Y],Z> - <[Y,Z],X> + <[Z,X],Y>, i.e. the lowered
    symbols (1/2)(c_ijk - c_jki + c_kij), raised by g^{-1}; the connection
    keeps the lowered ones."""
    geom = frame.geometry
    c = _last_index(frame._constants, geom, up=False)
    low = ({}, {})
    # c_abc feeds (i, j, k) = (a, b, c) with +, (c, a, b) with - and (b, c, a) with +
    for part, acc in zip((c._p, c._q), low):
        get = acc.get
        for (a, b, k), v in part.items():
            acc[a, b, k] = get((a, b, k), 0) + v
            acc[k, a, b] = get((k, a, b), 0) - v
            acc[b, k, a] = get((b, k, a), 0) + v
    low = _tensor(frame.field, 2 * c._den, *low)
    return ConnectionCoeffs(frame, _last_index(low, geom, up=True), low)


def bismut_connection(frame: LieAlgebraFrame, h: KForm, lc: ConnectionCoeffs) -> ConnectionCoeffs:
    """nabla = D + (1/2) g^{-1} H: <nabla_i e_j, e_k> = <D_i e_j, e_k> + H(e_i,e_j,e_k)/2,
    with ``lc`` the Levi-Civita connection D of ``frame``."""
    if h.k != 3:
        raise GeometryError("torsion form must have degree 3")
    low = ({}, {})
    for part, acc in zip((h._p, h._q), low):
        for mask, v in part.items():
            a, b, c = (x - 1 for x in _INDICES[mask])
            for i, j, k in ((a, b, c), (b, c, a), (c, a, b)):
                acc[i, j, k] = v
                acc[j, i, k] = -v
    half_h = _last_index(_tensor(frame.field, 2 * h._den, *low), frame.geometry, up=True)
    return ConnectionCoeffs(frame, lc.symbols + half_h)


def _ricci_ints(x: dict, y: dict, acc: dict) -> None:
    """acc[j, k] += sum_m x^m_{jk} tau_m - sum_{a,m} x^a_{jm} y^m_{ak} with
    tau_m = sum_a y^a_{am}: the two terms of Rc bilinear in the symbols."""
    tau, by_ends = {}, {}  # by_ends: (i, l) -> [(j, y^l_{ij})]
    for (i, j, l), v in y.items():
        by_ends.setdefault((i, l), []).append((j, v))
        if l == i:
            tau[j] = tau.get(j, 0) + v
    get = acc.get
    for (j, b, c), v in x.items():
        t = tau.get(c)
        if t:
            acc[j, b] = get((j, b), 0) + v * t
        for k, w in by_ends.get((c, b), ()):
            acc[j, k] = get((j, k), 0) - v * w


def _bracket_ints(x: dict, y: dict, acc: dict) -> None:
    """acc[j, k] -= sum_{a,m} x^m_{aj} y^a_{mk}: the term of Rc bilinear in
    the structure constants x and the symbols y."""
    by_ends = {}
    for (i, j, l), v in y.items():
        by_ends.setdefault((i, l), []).append((j, v))
    get = acc.get
    for (a, j, m), c in x.items():
        for k, w in by_ends.get((m, a), ()):
            acc[j, k] = get((j, k), 0) - c * w


def curvature(frame: LieAlgebraFrame, conn: ConnectionCoeffs) -> Tensor:
    """The Ricci tensor Rc(X, Y) = tr(Z -> R(Z, X) Y) of ``conn`` as a Tensor
    keyed (j, k), contracted straight off the symbols with no Riemann tensor:
    with R(X,Y)Z = nabla_X nabla_Y Z - nabla_Y nabla_X Z - nabla_{[X,Y]} Z,
    Rc_jk = sum_m Gamma^m_{jk} tau_m - sum_{a,m} Gamma^a_{jm} Gamma^m_{ak}
            - sum_{a,m} c^m_{aj} Gamma^a_{mk},   tau_m = sum_a Gamma^a_{am}.
    The coframe pairing of the trace is metric-free.
    """
    d, g, c = frame.field.d, conn.symbols, frame._constants
    gg = _product(_ricci_ints, d, g._p, g._q, g._p, g._q)
    cg = _product(_bracket_ints, d, c._p, c._q, g._p, g._q)
    return _from_ints(frame.field, *_combination(d, ((1, 0, 1, g._den * g._den, *gg), (1, 0, 1, c._den * g._den, *cg))))


def _nabla_form_ints(x: dict, y: dict, acc: dict) -> None:
    # x: the symbols Gamma^t_{ij}; y: a 1-form's body, keyed by bits
    get = acc.get
    for (i, j, t), g in x.items():
        c = y.get(1 << t)
        if c:
            acc[i, j] = get((i, j), 0) - c * g


def covariant_derivative_oneform(frame: LieAlgebraFrame, conn: ConnectionCoeffs, theta: KForm) -> Tensor:
    """(nabla theta)_{ij} = (nabla_{e_i} theta)(e_j) = -sum_t theta_t Gamma^t_{ij}
    as a Tensor keyed (i, j)."""
    if theta.k != 1:
        raise GeometryError("needs a 1-form")
    g, d = conn.symbols, frame.field.d
    return _tensor(frame.field, g._den * theta._den, *_product(_nabla_form_ints, d, g._p, g._q, theta._p, theta._q))


def change_frame(frame: LieAlgebraFrame, a_rows, new_labels=None, validate: bool = True) -> LieAlgebraFrame:
    """New frame with coframe f^i = sum_j A[i][j] e^j.

    The frame's metric transforms so the geometry is unchanged, and the
    orientation sign picks up the sign of det A.  The closure gate runs on
    the new frame when the input frame is closed; ``validate=False`` skips
    it, and the gate cannot fail when the input frame is closed.
    """
    n, field, base = frame.n, frame.field, frame.geometry
    am = _matrix(a_rows, field)
    ainv = _mat_inverse(am, n)
    # dual vectors: F_i = sum_k B[i][k] E_k with B = (A^{-1})^T
    gnew = transform_bilinear(base._metric, _transpose(ainv))
    sign = base.orientation_sign * _mat_det(am, n).sign()
    geom = FrameGeometry(n, field, gnew, orientation_sign=sign)
    labels = new_labels or [f"f{i}" for i in range(1, n + 1)]
    new_d = _new_differentials(frame, am, CoframeChange(ainv, n))
    return LieAlgebraFrame(labels, new_d, geom, check_closure=frame.closed and validate)


def _new_differentials(frame: LieAlgebraFrame, a: Tensor, old_in_new: CoframeChange) -> list[KForm]:
    """The differentials d f^i = sum_j A_ij d e^j of the coframe f = A e, A
    the Tensor ``a`` keyed (i, j) and read on its ints, each d e^j moved
    into the f basis by ``old_in_new``, the change for e = A^{-1} f."""
    n, field, p, q = frame.n, frame.field, a._p, a._q
    d_old = [old_in_new.move(d) for d in frame.coframe_d]
    return [
        _from_body(n, 2, field, *_combination(field.d, [(p.get((i, j), 0), q.get((i, j), 0), a._den, d._den, d._p, d._q)
                                                        for j, d in enumerate(d_old) if (i, j) in p or (i, j) in q]))
        for i in range(n)
    ]


def transform_bilinear(m: Tensor, b: Tensor) -> Tensor:
    """A (0,2)-tensor m at the vectors F_i = sum_p B[i][p] E_p, B the Tensor
    ``b`` keyed (i, p): m(F_i, F_j) = (B m B^T)_ij (fewer rows: the block
    they span)."""
    return _contract(_contract(b, m), _transpose(b))
