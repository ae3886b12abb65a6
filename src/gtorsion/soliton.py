"""Generalized Ricci soliton residuals, weighted scalar curvature, the
canonical vector field, and scalar rigidity identities.

The defining equations:

* GRS:         Rc^nabla + nabla X^flat = 0  (nabla the Bismut connection of (g, H));
* string GRS:  Rc^nabla + F^2 + nabla X^flat = 0,
               d*F - <F,H> + i_X F = 0,
               dH + F ^ F = 0,

where F^2 acts as the endomorphism square F_i^k F_kj (the negative of the
positive-definite pairing <i_X F, i_Y F>); this sign is pinned by the
reduced worked examples.  Every residual takes a structure and reads g, H,
the Levi-Civita and Bismut connections and the Bismut Ricci tensor from its
compute-once analysis; none builds a connection.  The residuals, nabla V and
the traces run on the tensors' integer bodies (``forms.Tensor``), and a
Scalar is built only for a reported number: the weighted scalar, |V|^2 and
the metric norm |S|^2_g of the GRS residual (``grs_residual_norm_sq``), read
through the inverse metric so that it is the same in every frame.  The
flux equation (``flux_residual``) is shared with the reduction, which
evaluates it on the transverse slice.
"""

from __future__ import annotations

from .forms import (
    KForm,
    Tensor,
    VectorField,
    _dot,
    _from_ints,
    _product,
    contract_2_3,
    form_inner,
    indices_of,
    interior,
    musical,
    musical_inv,
    wedge,
)
from .frames import LieAlgebraFrame, codifferential, covariant_derivative_oneform, curvature, transform_bilinear
from .scalars import GTorsionError, Scalar, _norm
from .structures import (
    KINDS,
    GStructure,
    StructureError,
)

__all__ = [
    "grs_residual",
    "grs_residual_norm_sq",
    "string_grs_residual",
    "flux_residual",
    "weighted_scalar",
    "canonical_vector",
    "parallel_certificate",
    "g2_rigidity_identity",
    "spin7_dilatino_residual",
    "PreconditionError",
]


class PreconditionError(GTorsionError, ValueError):
    pass


def grs_residual(s: GStructure, x: VectorField) -> Tensor:
    """Rc^{nabla(g,H)} + nabla X^flat as a Tensor keyed (i, j)."""
    nx = covariant_derivative_oneform(s.frame, s.bismut, musical(x, s.geometry))
    return s._bismut_ricci + nx


def grs_residual_norm_sq(s: GStructure, res: Tensor) -> Scalar:
    """|S|^2_g = g^{ia} g^{jb} S_ij S_ab of a (0,2)-tensor S of ``s``, read
    through its geometry's inverse metric: the same in every frame, and 0
    exactly when S is."""
    geom = s.geometry
    up = res if geom._is_identity else transform_bilinear(res, geom._inverse)
    return _dot(up, res)


def flux_residual(frame: LieAlgebraFrame, f: KForm, h: KForm, x: VectorField) -> KForm:
    """d*F - <F,H> + i_X F, the flux equation of string GRS."""
    return codifferential(frame, f) - contract_2_3(f, h, frame.geometry) + interior(x, f)


def string_grs_residual(s: GStructure, x: VectorField, f: KForm):
    """The triple (Rc^nabla + F^2 + nabla X^flat, d*F - <F,H> + i_X F, dH + F^F),
    the first a Tensor keyed (i, j)."""
    rc = grs_residual(s, x) - _flux_square(f, s.geometry)
    return rc, flux_residual(s.frame, f, s.h, x), s.d(s.h) + wedge(f, f)


def _flux_square(f: KForm, geom) -> Tensor:
    """<i_X F, i_Y F> = F g^{-1} F^T keyed (i, j), with F the skew matrix of
    the 2-form ``f`` read off its body: symmetric positive semi-definite."""
    skew = ({}, {})
    for part, out in zip((f._p, f._q), skew):
        for m, v in part.items():
            i, j = indices_of(m)
            out[i - 1, j - 1] = v
            out[j - 1, i - 1] = -v
    return transform_bilinear(geom._inverse, _from_ints(geom.field, f._den, *skew))


def _nabla_vector_ints(x: dict, y: dict, acc: dict) -> None:
    # (nabla_i V)^l = sum_j V^j Gamma^l_ij: x the symbols, y a vector's body,
    # keyed by bits
    get = acc.get
    for (i, j, l), g in x.items():
        c = y.get(1 << j)
        if c:
            acc[i, l] = get((i, l), 0) + c * g


def divergence(frame, x: VectorField, lc) -> Scalar:
    """Trace of the Levi-Civita covariant derivative of X:
    sum_{i,j} X^j Gamma^i_{ij}, with ``lc`` the frame's Levi-Civita
    connection."""
    g, field = lc.symbols, frame.field
    p, q = _product(_nabla_vector_ints, field.d, g._p, g._q, x._p, x._q)
    return _norm(field, *(sum(v for (i, l), v in part.items() if i == l) for part in (p, q)), g._den * x._den)


def scalar_curvature(frame, lc) -> Scalar:
    """Riemannian scalar curvature: the g-trace of the Ricci tensor of the
    frame's Levi-Civita connection ``lc``, which ``curvature`` contracts off
    the connection symbols."""
    return _dot(frame.geometry._inverse, curvature(frame, lc))


def weighted_scalar(s: GStructure, x: VectorField):
    """R - (1/12)|H|^2 + 2 div X - |X|^2 (equals lambda + |V|^2 on solitons)."""
    geom, field, lc = s.geometry, s.field, s.levi_civita
    r = scalar_curvature(s.frame, lc)
    h2 = form_inner(s.h, s.h, geom)
    divx = divergence(s.frame, x, lc)
    x2 = geom.norm_sq(x)
    return r - h2 * field.scalar(1, 12) + divx * field.scalar(2) - x2


def canonical_vector(s: GStructure, df: KForm | None = None) -> VectorField:
    """V = c theta^sharp - grad f with c the kind's ``lee_factor`` (7/6 for
    Spin(7), else 1) and theta the Lee form of ``s``."""
    geom = s.geometry
    v = musical_inv(s.lee.scale(KINDS[s.kind].lee_factor), geom)
    if df is not None:
        v = v - musical_inv(df, geom)
    return v


def parallel_certificate(s: GStructure, v: VectorField) -> dict:
    """Check nabla V = 0 for the Bismut connection of ``s``; |V| is then
    automatically constant, and ``norm_sq`` is |V|^2 in the metric of ``s``."""
    # nabla_i V = sum_j V^j Gamma^l_ij, every i in one pass over the symbols
    g = s.bismut.symbols
    p, q = _product(_nabla_vector_ints, s.field.d, g._p, g._q, v._p, v._q)
    return {"parallel": not any(p.values()) and not any(q.values()), "norm_sq": s.geometry.norm_sq(v)}


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
