"""Generalized Ricci soliton residuals, weighted scalar curvature, the
canonical vector field, and scalar rigidity identities.

The defining equations:

* GRS:         Rc^nabla + nabla X^flat = 0  (nabla the Bismut connection of (g, H));
* string GRS:  Rc^nabla + F^2 + nabla X^flat = 0,
               d*F - <F,H> + i_X F = 0,
               dH + F ^ F = 0,

where F^2 acts as the endomorphism square F_i^k F_kj (the negative of the
positive-definite pairing <i_X F, i_Y F>); this sign is pinned by the
reduced worked examples.  The metric is always the frame's (on a
structure's frame, the structure's).
"""

from __future__ import annotations

from .forms import (
    KForm,
    VectorField,
    contract_2_3,
    form_inner,
    interior,
    musical,
    musical_inv,
    two_form_square,
    wedge,
)
from .frames import (
    bismut_connection,
    codifferential,
    covariant_derivative_oneform,
    curvature,
    levi_civita,
)
from .scalars import GTorsionError
from .structures import (
    KINDS,
    GStructure,
    StructureError,
)

__all__ = [
    "SolitonData",
    "grs_residual",
    "string_grs_residual",
    "weighted_scalar",
    "canonical_vector",
    "parallel_certificate",
    "g2_rigidity_identity",
    "spin7_dilatino_residual",
    "PreconditionError",
]


class PreconditionError(GTorsionError, ValueError):
    pass


class SolitonData:
    """Frame + torsion 3-form + soliton vector; optional invariant closed df
    and string flux F.  The metric is the frame's.

    Data built by ``SolitonData.of(s, ...)`` carries the structure ``s``,
    and the residuals read its connections and curvature from the
    structure's analysis instead of rebuilding them.
    """

    structure = None

    def __init__(self, frame, h: KForm, x: VectorField, df: KForm | None = None, f: KForm | None = None):
        self.frame = frame
        if h.k != 3:
            raise ValueError("H must be a 3-form")
        self.h = h
        self.x = x
        self.df = df if df is not None else KForm.zero(frame.n, 1, frame.field)
        if not frame.d(self.df).is_zero():
            raise ValueError("df must be closed")
        self.flux = f

    @classmethod
    def of(cls, s: GStructure, x: VectorField, df: KForm | None = None, f: KForm | None = None):
        """Soliton data on the frame of ``s`` with H = ``s.h``."""
        data = cls(s.frame, s.h, x, df=df, f=f)
        data.structure = s
        return data

    def levi_civita(self):
        s = self.structure
        return s.levi_civita if s is not None else levi_civita(self.frame)

    def bismut(self):
        """The Bismut connection of (g, H) and its Ricci tensor."""
        s = self.structure
        if s is not None:
            return s.bismut, s.bismut_ricci
        conn = bismut_connection(self.frame, self.h)
        return conn, curvature(self.frame, conn)


def grs_residual(data: SolitonData):
    """Rc^{nabla(g,H)} + nabla X^flat as an n x n Scalar matrix."""
    frame = data.frame
    conn, ricci = data.bismut()
    xflat = musical(data.x, frame.geometry)
    nx = covariant_derivative_oneform(frame, conn, xflat)
    n = frame.n
    return [[ricci[i][j] + nx[i][j] for j in range(n)] for i in range(n)]


def string_grs_residual(data: SolitonData):
    """The triple (Rc^nabla + F^2 + nabla X^flat, d*F - <F,H> + i_X F, dH + F^F)."""
    if data.flux is None:
        raise ValueError("string residual needs a flux 2-form F")
    frame, geom = data.frame, data.frame.geometry
    n = frame.n
    f = data.flux
    mat = grs_residual(data)
    fsq = two_form_square(f, geom)
    slot1 = [[mat[i][j] - fsq[i][j] for j in range(n)] for i in range(n)]
    slot2 = codifferential(frame, f) - contract_2_3(f, data.h, geom) + interior(data.x, f)
    slot3 = frame.d(data.h) + wedge(f, f)
    return slot1, slot2, slot3


def divergence(frame, x: VectorField, lc):
    """Trace of the Levi-Civita covariant derivative of X:
    sum_{i,j} X^j Gamma^i_{ij}, with ``lc`` the frame's Levi-Civita
    connection."""
    acc = frame.field.zero()
    for (i, j, l), v in lc.entries.items():
        if l == i and not x.components[j].is_zero():
            acc = acc + x.components[j] * v
    return acc


def scalar_curvature(frame, lc):
    """Riemannian scalar curvature: the g-trace of the Ricci tensor of the
    frame's Levi-Civita connection ``lc``, which ``curvature`` contracts off
    the connection symbols."""
    ricci = curvature(frame, lc)
    ginv = frame.geometry.inverse_metric()
    acc = frame.field.zero()
    for i, row in enumerate(ricci):
        for j, rc in enumerate(row):
            if not rc.is_zero() and not ginv[i][j].is_zero():
                acc = acc + ginv[i][j] * rc
    return acc


def weighted_scalar(data: SolitonData):
    """R - (1/12)|H|^2 + 2 div X - |X|^2 (equals lambda + |V|^2 on solitons)."""
    frame, geom = data.frame, data.frame.geometry
    field = frame.field
    lc = data.levi_civita()
    r = scalar_curvature(frame, lc)
    h2 = form_inner(data.h, data.h, geom)
    divx = divergence(frame, data.x, lc)
    x2 = geom.norm_sq(data.x)
    return r - h2 * field.scalar(1, 12) + divx * field.scalar(2) - x2


def canonical_vector(s: GStructure, df: KForm | None = None) -> VectorField:
    """V = c theta^sharp - grad f with c the kind's ``lee_factor`` (7/6 for
    Spin(7), else 1) and theta the Lee form of ``s``."""
    geom = s.geometry
    v = musical_inv(s.lee.scale(KINDS[s.kind].lee_factor), geom)
    if df is not None:
        v = v - musical_inv(df, geom)
    return v


def parallel_certificate(conn, v: VectorField) -> dict:
    """Check nabla V = 0 for the Bismut connection ``conn``; |V| is then
    automatically constant."""
    frame = conn.frame
    derivs = [conn.nabla(VectorField.basis(frame.n, frame.field, i + 1), v) for i in range(frame.n)]
    parallel = all(d.is_zero() for d in derivs)
    return {"parallel": parallel, "norm_sq": frame.geometry.norm_sq(v)}


def g2_rigidity_identity(s: GStructure, df: KForm | None = None):
    """With V = 0 and constant f the pointwise identity
    |H_phi|^2 = (49/36) tau0^2 holds; returns both sides."""
    if s.kind != "g2":
        raise StructureError("rigidity identity is for G2 structures")
    if df is not None and not df.is_zero():
        raise PreconditionError("rigidity identity needs constant f (df = 0)")
    if not canonical_vector(s, df).is_zero():
        raise PreconditionError("rigidity identity needs V = 0 (Lee form dual minus grad f)")
    tau0 = s.torsion["tau0"]
    return form_inner(s.h, s.h, s.geometry), s.field.scalar(49, 36) * tau0 * tau0


def spin7_dilatino_residual(s: GStructure):
    """(7/6) d*theta + (7/6)|theta|^2 - |zeta5|^2, zero on strong torsion."""
    if s.kind != "spin7":
        raise StructureError("dilatino residual is for Spin(7) structures")
    torsion = s.torsion
    field = s.field
    geom = s.geometry
    theta = torsion["lee"]
    zeta = torsion["zeta5"]
    dstar = codifferential(s.frame, theta).coeffs.get(0, field.zero())
    coef = field.scalar(7, 6)
    return coef * dstar + coef * form_inner(theta, theta, geom) - form_inner(zeta, zeta, geom)
