"""Left-invariant geometry on a Lie algebra frame.

A frame stores the coframe differentials de^i (degree-2 KForms), which
encode the structure constants: de^i = -sum_{j<k} c^i_{jk} e^{jk}.  The
Chevalley-Eilenberg differential, Levi-Civita and skew-torsion (Bismut)
connections, curvature and codifferential all reduce to exact algebra on
those constants.
"""

from __future__ import annotations

from fractions import Fraction

from .forms import (
    FrameGeometry,
    GeometryError,
    KForm,
    VectorField,
    _mat_det,
    _mat_inverse,
    derivation,
    hodge_star,
    indices_of,
    skew_three_form,
    wedge,
)
from .scalars import Field, Scalar

__all__ = [
    "LieAlgebraFrame",
    "ConnectionCoeffs",
    "CurvatureData",
    "FrameError",
    "ce_differential",
    "codifferential",
    "levi_civita",
    "bismut_connection",
    "curvature",
    "covariant_derivative_form",
    "covariant_derivative_oneform",
    "change_frame",
    "transform_form",
    "cartan_three_form",
]


class FrameError(ValueError):
    pass


class LieAlgebraFrame:
    """Frame labels, coframe differentials and geometry.

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
        self._structure = None

    def _closure_defect(self):
        for i in range(self.n):
            dd = ce_differential(self, self.coframe_d[i])
            if not dd.is_zero():
                return i, dd
        return None

    @classmethod
    def abelian(cls, n: int, field: Field, labels=None) -> "LieAlgebraFrame":
        labels = labels or [f"e{i}" for i in range(1, n + 1)]
        geom = FrameGeometry(n, field)
        z = [KForm.zero(n, 2, field) for _ in range(n)]
        return cls(labels, z, geom)

    def structure_constants(self):
        """c[k][i][j] with [e_i, e_j] = sum_k c^k_{ij} e_k (0-based arrays)."""
        if self._structure is None:
            n = self.n
            zero = self.field.zero()
            c = [[[zero for _ in range(n)] for _ in range(n)] for _ in range(n)]
            for k in range(n):
                for m, coef in self.coframe_d[k].coeffs.items():
                    i, j = indices_of(m)
                    c[k][i - 1][j - 1] = -coef
                    c[k][j - 1][i - 1] = coef
            self._structure = c
        return self._structure

    def bracket(self, x: VectorField, y: VectorField) -> VectorField:
        c = self.structure_constants()
        n = self.n
        comps = []
        for k in range(n):
            val = self.field.zero()
            for i in range(n):
                if x.components[i].is_zero():
                    continue
                for j in range(n):
                    if y.components[j].is_zero() or c[k][i][j].is_zero():
                        continue
                    val = val + x.components[i] * y.components[j] * c[k][i][j]
            comps.append(val)
        return VectorField(n, self.field, comps)

    def is_unimodular(self) -> bool:
        c = self.structure_constants()
        for i in range(self.n):
            tr = self.field.zero()
            for k in range(self.n):
                tr = tr + c[k][i][k]
            if not tr.is_zero():
                return False
        return True

    def d(self, a: KForm) -> KForm:
        return ce_differential(self, a)

    def basis_vector(self, i: int) -> VectorField:
        return VectorField.basis(self.n, self.field, i)

    def __repr__(self):
        return f"LieAlgebraFrame({', '.join(self.labels)})"


class ConnectionCoeffs:
    """Gamma[i][j] is the VectorField nabla_{e_i} e_j."""

    def __init__(self, frame: LieAlgebraFrame, gamma):
        self.frame = frame
        self.gamma = gamma

    def nabla(self, x: VectorField, y: VectorField) -> VectorField:
        n = self.frame.n
        out = VectorField.zero(n, self.frame.field)
        for i in range(n):
            if x.components[i].is_zero():
                continue
            for j in range(n):
                if y.components[j].is_zero():
                    continue
                out = out + self.gamma[i][j].scale(x.components[i] * y.components[j])
        return out

    def lowered(self, i: int, j: int, k: int, geom: FrameGeometry) -> Scalar:
        """<nabla_{e_i} e_j, e_k>_g with 0-based indices."""
        v = self.gamma[i][j]
        acc = self.frame.field.zero()
        for m in range(self.frame.n):
            if not v.components[m].is_zero():
                acc = acc + v.components[m] * geom.metric[m][k]
        return acc

    def check_metric_compatibility(self, geom: FrameGeometry) -> bool:
        n = self.frame.n
        for i in range(n):
            for j in range(n):
                for k in range(j, n):
                    if not (self.lowered(i, j, k, geom) + self.lowered(i, k, j, geom)).is_zero():
                        return False
        return True

    def torsion_form(self) -> KForm:
        """g(T(X,Y), Z) as a 3-form when totally skew; raises otherwise."""
        frame = self.frame
        geom = frame.geometry
        c = frame.structure_constants()

        def t(i, j, k):
            acc = self.lowered(i, j, k, geom) - self.lowered(j, i, k, geom)
            for m in range(frame.n):
                if not c[m][i][j].is_zero():
                    acc = acc - c[m][i][j] * geom.metric[m][k]
            return acc

        h = skew_three_form(frame.n, frame.field, t)
        if h is None:
            raise FrameError("connection torsion is not totally skew")
        return h


class CurvatureData:
    """Riemann tensor R(e_i,e_j)e_k as VectorFields plus the Ricci matrix."""

    def __init__(self, riemann, ricci):
        self.riemann = riemann
        self.ricci = ricci

    def r(self, i: int, j: int, k: int) -> VectorField:
        return self.riemann[i][j][k]

    def is_flat(self) -> bool:
        n = len(self.riemann)
        return all(
            self.riemann[i][j][k].is_zero()
            for i in range(n)
            for j in range(n)
            for k in range(n)
        )


def ce_differential(frame: LieAlgebraFrame, a: KForm) -> KForm:
    """Extend the coframe differentials as a degree +1 antiderivation."""
    n, field = frame.n, frame.field
    if a.k >= n:
        return KForm.zero(n, min(a.k + 1, n), field)
    out = KForm.zero(n, a.k + 1, field)
    for m, coef in a.coeffs.items():
        idx = indices_of(m)
        for p, ip in enumerate(idx):
            rest = m ^ (1 << (ip - 1))
            piece = wedge(frame.coframe_d[ip - 1], KForm(n, a.k - 1, field, {rest: field.one()}))
            if p & 1:
                piece = -piece
            out = out + piece.scale(coef)
    return out


def codifferential(frame: LieAlgebraFrame, a: KForm, geom: FrameGeometry | None = None) -> KForm:
    """d* = (-1)^{n(k+1)+1} star d star on k-forms."""
    geom = geom or frame.geometry
    n, k = frame.n, a.k
    if k == 0:
        return KForm.zero(n, 0, frame.field)
    sds = hodge_star(ce_differential(frame, hodge_star(a, geom)), geom)
    sign = -1 if (n * (k + 1) + 1) % 2 else 1
    return sds if sign > 0 else -sds


def levi_civita(frame: LieAlgebraFrame, geom: FrameGeometry | None = None) -> ConnectionCoeffs:
    """Koszul formula on invariant fields:
    2<D_X Y, Z> = <[X,Y],Z> - <[Y,Z],X> + <[Z,X],Y>.
    """
    geom = geom or frame.geometry
    n, field = frame.n, frame.field
    c = frame.structure_constants()
    g = geom.metric

    def braket_g(i, j, k):  # <[e_i, e_j], e_k>_g
        acc = field.zero()
        for m in range(n):
            if not c[m][i][j].is_zero():
                acc = acc + c[m][i][j] * g[m][k]
        return acc

    half = field.scalar(Fraction(1, 2))
    ginv = geom.inverse_metric()
    gamma = []
    for i in range(n):
        row = []
        for j in range(n):
            low = [
                (braket_g(i, j, k) - braket_g(j, k, i) + braket_g(k, i, j)) * half
                for k in range(n)
            ]
            comps = []
            for m in range(n):
                val = field.zero()
                for k in range(n):
                    if not low[k].is_zero():
                        val = val + ginv[m][k] * low[k]
                comps.append(val)
            row.append(VectorField(n, field, comps))
        gamma.append(row)
    return ConnectionCoeffs(frame, gamma)


def bismut_connection(frame: LieAlgebraFrame, h: KForm, geom: FrameGeometry | None = None, lc: ConnectionCoeffs | None = None) -> ConnectionCoeffs:
    """nabla = D + (1/2) g^{-1} H: <nabla_i e_j, e_k> = <D_i e_j, e_k> + H(e_i,e_j,e_k)/2.

    ``lc`` is the Levi-Civita connection D of (frame, geom) when already built.
    """
    if h.k != 3:
        raise GeometryError("torsion form must have degree 3")
    geom = geom or frame.geometry
    lc = lc or levi_civita(frame, geom)
    n, field = frame.n, frame.field
    half = field.scalar(Fraction(1, 2))
    ginv = geom.inverse_metric()
    # terms[i][j]: the pairs (k, H_ijk) with H_ijk != 0, read once from h;
    # sorted by k below so every sum runs in index order
    terms = [[[] for _ in range(n)] for _ in range(n)]
    for mask, v in h.coeffs.items():
        if v.is_zero():
            continue
        a, b, c = (x - 1 for x in indices_of(mask))
        for i, j, k in ((a, b, c), (b, c, a), (c, a, b)):
            terms[i][j].append((k, v))
            terms[j][i].append((k, -v))
    gamma = []
    for i in range(n):
        row = []
        for j in range(n):
            hk = sorted(terms[i][j], key=lambda t: t[0])
            corr = []
            for m in range(n):
                val = field.zero()
                for k, hv in hk:
                    val = val + ginv[m][k] * hv
                corr.append(val * half)
            row.append(lc.gamma[i][j] + VectorField(n, field, corr))
        gamma.append(row)
    return ConnectionCoeffs(frame, gamma)


def curvature(frame: LieAlgebraFrame, conn: ConnectionCoeffs, geom: FrameGeometry | None = None) -> CurvatureData:
    """R(X,Y)Z = nabla_X nabla_Y Z - nabla_Y nabla_X Z - nabla_{[X,Y]} Z;
    Ricci by trace over the first slot: Rc(X,Y) = sum_a <R(e_a,X)Y, e^a>.
    """
    n, field = frame.n, frame.field
    zero = field.zero()
    c = frame.structure_constants()
    # gam[i][j][l] = Gamma^l_{ij}, the components of nabla_{e_i} e_j
    gam = [[v.components for v in row] for row in conn.gamma]

    def add_product(out, a, v):  # out += a * v, skipping zeros
        if a.is_zero():
            return
        for l, x in enumerate(v):
            if not x.is_zero():
                out[l] = out[l] + a * x

    # R^l_{ijk} = sum_m (Gamma^m_{jk} Gamma^l_{im} - Gamma^m_{ik} Gamma^l_{jm}
    #                    - c^m_{ij} Gamma^l_{mk})
    riemann = [[[None] * n for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for k in range(n):
            riemann[i][i][k] = VectorField.zero(n, field)
        for j in range(i + 1, n):
            for k in range(n):
                out = [zero] * n
                for m in range(n):
                    add_product(out, gam[j][k][m], gam[i][m])
                    add_product(out, -gam[i][k][m], gam[j][m])
                    add_product(out, -c[m][i][j], gam[m][k])
                r = VectorField(n, field, out)
                riemann[i][j][k] = r
                riemann[j][i][k] = -r
    # Rc(e_i, e_j) = sum_a e^a(R(e_a, e_i) e_j); the coframe pairing is
    # metric-free, so the trace is just the a-th component.
    ricci = []
    for i in range(n):
        row = []
        for j in range(n):
            val = field.zero()
            for a in range(n):
                val = val + riemann[a][i][j].components[a]
            row.append(val)
        ricci.append(row)
    return CurvatureData(riemann, ricci)


def covariant_derivative_form(frame: LieAlgebraFrame, conn: ConnectionCoeffs, a: KForm):
    """Tuple of KForms (nabla_{e_1} a, ..., nabla_{e_n} a).

    Invariant forms differentiate purely through the connection:
    nabla_i e^j = -Gamma^j_{it} e^t, extended as a degree-0 derivation.
    """
    n = frame.n
    out = []
    for i in range(n):
        action = {}
        for t in range(n):
            for j, g in enumerate(conn.gamma[i][t].components):
                if not g.is_zero():
                    action.setdefault(j, {})[t] = -g
        out.append(derivation(a, action))
    return tuple(out)


def covariant_derivative_oneform(frame: LieAlgebraFrame, conn: ConnectionCoeffs, theta: KForm):
    """(nabla theta)_{ij} = (nabla_{e_i} theta)(e_j) as an n x n Scalar matrix."""
    if theta.k != 1:
        raise GeometryError("needs a 1-form")
    n, field = frame.n, frame.field
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            val = field.zero()
            gam = conn.gamma[i][j]
            for t in range(n):
                c = theta.coeffs.get(1 << t)
                if c is not None and not gam.components[t].is_zero():
                    val = val - c * gam.components[t]
            row.append(val)
        out.append(row)
    return out


def change_frame(frame: LieAlgebraFrame, a_rows, new_labels=None, base_geometry: FrameGeometry | None = None, validate: bool = True) -> LieAlgebraFrame:
    """New frame with coframe f^i = sum_j A[i][j] e^j.

    The metric (``base_geometry`` or the frame's) transforms so the geometry
    is unchanged; returns the new LieAlgebraFrame (valid by construction when
    the input frame is, so ``validate=False`` may skip the closure re-check).
    """
    n, field = frame.n, frame.field
    base = base_geometry or frame.geometry
    a = [[x if isinstance(x, Scalar) else field.scalar(x) for x in row] for row in a_rows]
    ainv = _mat_inverse(a, field)
    # old coframe in terms of new: e^j = sum_i ainv[j][i] f^i
    def to_new(form: KForm) -> KForm:
        return transform_form(form, ainv, field)

    new_d = []
    for i in range(n):
        # d f^i = sum_j A[i][j] d e^j, re-expressed in the f basis
        acc = KForm.zero(n, 2, field)
        for j in range(n):
            if not a[i][j].is_zero():
                acc = acc + to_new(frame.coframe_d[j]).scale(a[i][j])
        new_d.append(acc)
    # dual vectors: F_i = sum_k B[i][k] E_k with B = (A^{-1})^T
    b = [[ainv[k][i] for k in range(n)] for i in range(n)]
    gold = base.metric
    gnew = []
    for i in range(n):
        row = []
        for j in range(n):
            val = field.zero()
            for p in range(n):
                for q in range(n):
                    if not b[i][p].is_zero() and not b[j][q].is_zero():
                        val = val + b[i][p] * gold[p][q] * b[j][q]
            row.append(val)
        gnew.append(row)
    det_a = _mat_det(a, field)
    sign = base.orientation_sign * det_a.sign()
    geom = FrameGeometry(n, field, gnew, orientation_sign=sign)
    labels = new_labels or [f"f{i}" for i in range(1, n + 1)]
    return LieAlgebraFrame(labels, new_d, geom, check_closure=frame.closed and validate)


def transform_form(form: KForm, old_in_new, field: Field) -> KForm:
    """Rewrite a form given the old coframe expressed in a new one:
    e^j = sum_i old_in_new[j][i] f^i."""
    n = form.n
    one_forms = [
        KForm(n, 1, field, {1 << i: old_in_new[j][i] for i in range(n) if not old_in_new[j][i].is_zero()})
        for j in range(n)
    ]
    out = KForm.zero(n, form.k, field)
    for m, coef in form.coeffs.items():
        idx = indices_of(m)
        piece = KForm.scalar_form(n, field, 1)
        for i in idx:
            piece = wedge(piece, one_forms[i - 1])
        out = out + piece.scale(coef)
    return out


def transform_vector(x: VectorField, a_rows, field: Field) -> VectorField:
    """Components of x in the new frame with coframe f = A e: x_new = A x."""
    n = x.n
    comps = []
    for i in range(n):
        val = field.zero()
        for j in range(n):
            aij = a_rows[i][j]
            if not (aij.is_zero() if isinstance(aij, Scalar) else aij == 0):
                av = aij if isinstance(aij, Scalar) else field.scalar(aij)
                val = val + av * x.components[j]
        comps.append(val)
    return VectorField(n, field, comps)


def cartan_three_form(frame: LieAlgebraFrame, geom: FrameGeometry | None = None) -> KForm:
    """H(X,Y,Z) = <[X,Y], Z>_g; requires the result to be totally skew."""
    geom = geom or frame.geometry
    n, field = frame.n, frame.field
    c = frame.structure_constants()
    g = geom.metric

    def cval(i, j, k):
        acc = field.zero()
        for m in range(n):
            if not c[m][i][j].is_zero():
                acc = acc + c[m][i][j] * g[m][k]
        return acc

    h = skew_three_form(n, field, cval)
    if h is None:
        raise FrameError("bracket pairing is not totally skew; no Cartan 3-form")
    return h
