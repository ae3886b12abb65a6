"""G-structures on Lie algebra frames: model forms, validation, irreducible
projections, torsion classes, Lee forms and skew-torsion (Bismut) data.

Supported kinds: almost Hermitian (any even n), SU(3) on n=6, G2 on n=7,
Spin(7) on n=8.  All numerics are exact in the frame's scalar field.

Conventions fixed by the worked examples (see tests):

* J is defined by omega(X, Y) = g(X, JY);
* d^c omega(X,Y,Z) = -d omega(JX, JY, JZ);
* the Nijenhuis 3-form is N(X,Y,Z) = g(N(X,Y), Z) with
  N(X,Y) = [JX,JY] - J[JX,Y] - J[X,JY] - [X,Y], and the torsion of the
  structure-preserving connection is H = d^c omega + N.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property, reduce

from .forms import (
    _INDICES,
    _ODD,
    CoframeChange,
    FrameGeometry,
    GeometryError,
    KForm,
    Tensor,
    VectorField,
    _Lazy,
    _by_row,
    _combination,
    _contract,
    _from_body,
    _from_ints,
    _masks,
    _normalize,
    _product,
    _tensor,
    _transpose,
    contract_2_3,
    derivation_rows,
    form_inner,
    hodge_star,
    interior,
    musical,
    skew_three_form,
    wedge,
)
from .frames import (
    _last_index,
    bismut_connection,
    curvature,
    levi_civita,
)
from .linsolve import InconsistentSystem, LinearSolveError, _last, _primitive, echelon, solve_unique_sparse
from .scalars import Field, GTorsionError, NotRepresentable, RationalField, Scalar, _norm, _sign

__all__ = [
    "StructureError",
    "KINDS",
    "GStructure",
    "TorsionClasses",
    "induced_metric_g2",
    "su3_assemble",
    "g2_assemble",
    "spin7_assemble",
    "ah_assemble",
    "project",
    "torsion_su3",
    "torsion_g2",
    "torsion_spin7",
    "nijenhuis",
    "d_c_omega",
    "lee_form",
    "bismut_torsion",
    "solve_skew_torsion",
    "bismut_ricci_form",
]


class StructureError(GTorsionError, ValueError):
    pass


QQ = RationalField()  # the KINDS constants are QQ scalars: they lift into every field

MODEL_OMEGA_PLUS = [((1, 3, 5), 1), ((1, 4, 6), -1), ((2, 3, 6), -1), ((2, 4, 5), -1)]
MODEL_PHI = [
    ((1, 2, 7), 1), ((1, 3, 5), 1), ((1, 4, 6), -1), ((2, 3, 6), -1),
    ((2, 4, 5), -1), ((3, 4, 7), 1), ((5, 6, 7), 1),
]
MODEL_PSI = [
    ((1, 2, 3, 8), -1), ((1, 3, 4, 7), 1), ((1, 4, 5, 8), -1), ((1, 6, 7, 8), -1),
    ((1, 2, 5, 7), 1), ((1, 3, 5, 6), 1), ((1, 2, 4, 6), -1), ((4, 5, 6, 7), -1),
    ((2, 5, 6, 8), -1), ((2, 3, 6, 7), -1), ((2, 3, 4, 5), -1), ((3, 4, 6, 8), -1),
    ((2, 4, 7, 8), -1), ((3, 5, 7, 8), 1),
]


Eigen = namedtuple("Eigen", "slot pieces")
Eigen.__doc__ = """``project`` by the eigenvalues of a -> star(a ^ form): ``pieces`` are
(name, eigenvalue), the second piece being the rest of a."""

Graded = namedtuple("Graded", "scalar vector rest")
Graded.__doc__ = """``project`` into ``scalar`` (name, ((slot, |form|^2), ...)), the sum of
<a, form> form / |form|^2, or None; ``vector`` (name, slot, c), see
``_split``; and the ``rest`` (name, chains of slots that wedge it to 0)."""

Kind = namedtuple(
    "Kind", "dim slots noun splits almost_complex reduces_to lee_factor stabilizer",
    defaults=(False, None, QQ.one(), None),
)
Kind.__doc__ = """One structure kind as data: the frame dimension of its model (None
for any even n); its defining forms in assembler order as (slot, input
name, degree, model terms), terms None meaning omega = e12 + e34 + ...;
its noun in messages; ``project``'s recipe per degree; whether it
carries J; the kind its reduction lands on (whose central extension
comes back here); c in V = c theta^sharp - grad f and in H; the
dimension of the group G in SO(n) that fixes the defining forms, None
for U(n/2) of dimension (n/2)^2."""


KINDS = {
    "su3": Kind(6, (("omega", "omega", 2, None), ("omega_plus", "Omega+", 3, MODEL_OMEGA_PLUS)), "an SU(3) structure", {
        2: Graded(("1", (("omega", 3),)), ("6", "omega_plus", QQ.scalar(-1, 2)), ("8", (("omega", "omega"), ("omega_plus",)))),
        3: Graded(("1+1", (("omega_plus", 4), ("omega_minus", 4))), ("6", "omega", QQ.scalar(1, 2)),
                  ("12", (("omega",), ("omega_plus",), ("omega_minus",)))),
    }, almost_complex=True, stabilizer=8),
    "g2": Kind(7, (("phi", "phi", 3, MODEL_PHI),), "a G2 structure", {
        2: Eigen("phi", (("7", 2), ("14", -1))),
        3: Graded(("1", (("phi", 7),)), ("7", "phi", QQ.scalar(-1, 4)), ("27", (("phi",), ("star_phi",)))),
    }, reduces_to="su3", stabilizer=14),
    "spin7": Kind(8, (("psi", "Psi", 4, MODEL_PSI),), "a Spin(7) structure", {
        2: Eigen("psi", (("7", -3), ("21", 1))),
        3: Graded(None, ("8", "psi", QQ.scalar(-1, 7)), ("48", (("psi",),))),
    }, reduces_to="g2", lee_factor=QQ.scalar(7, 6), stabilizer=21),
    "ah": Kind(None, (("omega", "omega", 2, None),), "an almost Hermitian structure", {}, almost_complex=True),
}


def _model_forms(kind: str, n: int, field: Field) -> tuple:
    """The kind's model forms in ``KINDS`` order."""
    if kind not in KINDS:
        raise StructureError(f"unknown structure kind {kind!r}")
    dim = KINDS[kind].dim
    if dim is None and n % 2:
        raise StructureError(f"{kind} model needs even n")
    if dim is not None and n != dim:
        raise StructureError(f"{kind} model needs n = {dim}")
    omega = [((i, i + 1), 1) for i in range(1, n, 2)]
    return tuple(KForm.from_terms(n, field, terms or omega) for *_, terms in KINDS[kind].slots)


class TorsionClasses:
    """Extracted torsion components; ``components`` maps name -> KForm/Scalar.
    ``formula`` (not reported) is what H reads off a G2 or Spin(7) split."""

    def __init__(self, kind: str, components: dict, formula: tuple = ()):
        self.kind = kind
        self.components = components
        self.formula = formula

    def __getitem__(self, key):
        return self.components[key]


class GStructure:
    """Tagged structure: kind, defining forms, frame, derived metric data.

    ``frame`` is a ``LieAlgebraFrame`` (a transverse slice is one), and its
    ``geometry`` is the structure's metric (``s.geometry``): SU(3)
    and G2 put their induced metric on a copy of the input frame
    (``_on_metric``), so every frame-level call on ``s.frame`` sees it.

    The cached properties below are the structure's compute-once analysis:
    each item is built on first use and kept on the structure, so check,
    both reduction passes and the extension share one copy.  No cached
    value refers back to the structure, so dropping a structure frees its
    analysis by reference counting alone.
    """

    def __init__(self, kind, frame, forms: dict, j_matrix=None):
        self.kind = kind
        self.frame = frame
        self.forms = forms
        self.j_matrix = j_matrix
        self.field = frame.field
        self._d_forms = {}

    @property
    def n(self):
        return self.frame.n

    @property
    def geometry(self) -> FrameGeometry:
        return self.frame.geometry

    def form(self, name: str) -> KForm:
        return self.forms[name]

    def d(self, a: KForm) -> KForm:
        return self.frame.d(a)

    def apply_j_oneform(self, alpha: KForm) -> KForm:
        """(J alpha)(X) = -alpha(JX): minus the pullback of alpha by J."""
        return -self._j_change.move(alpha)

    @cached_property
    def _j_change(self) -> CoframeChange:
        """J as the substitution e^a -> sum_c J^a_c e^c: one minors table for
        every form that J moves."""
        return CoframeChange(self.j_matrix, self.n)

    # -- compute-once analysis --------------------------------------------

    def d_form(self, name: str) -> KForm:
        """d of the structure form ``name``, computed once per structure: the
        torsion classes and the closed formula for H share it."""
        out = self._d_forms.get(name)
        if out is None:
            out = self._d_forms[name] = self.d(self.forms[name])
        return out

    @cached_property
    def torsion(self) -> TorsionClasses | None:
        """Torsion classes; None for almost Hermitian structures."""
        # looked up per call, so a rebound module global is the one called
        solver = {"su3": torsion_su3, "g2": torsion_g2, "spin7": torsion_spin7}.get(self.kind)
        return solver(self) if solver else None

    @cached_property
    def h(self) -> KForm:
        """Skew torsion H by the closed formula (``bismut_torsion``)."""
        return bismut_torsion(self)

    @cached_property
    def lee(self) -> KForm:
        return lee_form(self)

    @cached_property
    def nijenhuis(self) -> KForm:
        return nijenhuis(self)

    @cached_property
    def levi_civita(self):
        return levi_civita(self.frame)

    @cached_property
    def bismut(self):
        """Connection with skew torsion H."""
        return bismut_connection(self.frame, self.h, self.levi_civita)

    @cached_property
    def _bismut_ricci(self) -> Tensor:
        """The Ricci tensor of the Bismut connection, keyed (j, k)."""
        return curvature(self.frame, self.bismut)

    @property
    def bismut_ricci(self) -> list:
        """The dense Scalar view of the Bismut Ricci tensor."""
        return self._bismut_ricci.rows(self.n)


def _j_ints(x: dict, rows: dict, acc: dict) -> None:
    # x: omega's terms (b < c); rows: g^{-1} by row, g^{ab} = g^{ba}
    get = acc.get
    for m, w in x.items():
        b, c = _INDICES[m]
        for a, g in rows.get(b - 1, ()):
            acc[a, c - 1] = get((a, c - 1), 0) + g * w
        for a, g in rows.get(c - 1, ()):
            acc[a, b - 1] = get((a, b - 1), 0) - g * w


def _j_from_metric_omega(omega: KForm, geom: FrameGeometry) -> Tensor:
    """J^a_c = sum_b g^{ab} omega_{bc}, a Tensor keyed (a, c) summed over
    omega's nonzero terms; requires J^2 = -Id."""
    ginv = geom._inverse
    j = _product(_j_ints, geom.field.d, omega._p, omega._q, *_by_row(ginv))
    j = _tensor(geom.field, omega._den * ginv._den, *j)
    sq = _contract(j, j)
    if sq._den != 1 or sq._q or sq._p != {(a, a): -1 for a in range(geom.n)}:
        raise StructureError("J^2 != -Id: omega and metric are not compatible")
    return j


def su3_assemble(omega: KForm, omega_plus: KForm, frame) -> GStructure:
    """Assemble and validate an SU(3) structure from (omega, Omega+).

    The metric is induced by
    g(X,Y) omega^3 / 6 = -1/2 (i_X omega) ^ (i_Y Omega+) ^ Omega+, one int
    Tensor off the form bodies (``_top_pairing``); then Omega- := star Omega+,
    with the volume normalisation omega^3 = (3/2) Omega+ ^ Omega- exact.
    """
    if omega.k != 2 or omega_plus.k != 3 or frame.n != 6:
        raise StructureError("su3 needs a 2-form and 3-form on n = 6")
    field = frame.field
    if not wedge(omega, omega_plus).is_zero():
        raise StructureError("omega ^ Omega+ != 0")
    om3 = wedge(wedge(omega, omega), omega)
    om3c = om3.coeffs.get((1 << 6) - 1, field.zero())
    if om3c.is_zero():
        raise StructureError("omega^3 vanishes; omega is degenerate")
    # all 36 entries, so a bad pair fails FrameGeometry's symmetry check
    gmat = _top_pairing(omega, omega_plus, omega_plus, field.scalar(-3) / om3c)
    orient = 1 if om3c.sign() > 0 else -1
    geom = FrameGeometry(6, field, gmat, orientation_sign=orient)
    geom.check_positive_definite()
    omega_minus = hodge_star(omega_plus, geom)
    if om3 != wedge(omega_plus, omega_minus).scale(field.scalar(3, 2)):
        raise StructureError("volume identity omega^3 = 3/2 Omega+ ^ Omega- fails")
    forms = {"omega": omega, "omega_plus": omega_plus, "omega_minus": omega_minus}
    return GStructure("su3", _on_metric(frame, geom), forms, j_matrix=_j_from_metric_omega(omega, geom))


def _top_pairing(alpha: KForm, beta: KForm, form: KForm, c: Scalar) -> Tensor:
    """M_ij = c top((i_{e_i} alpha) ^ (i_{e_j} beta) ^ form), degrees adding
    up to n + 2, as one Tensor keyed (i, j); when beta is alpha (odd degree)
    M is symmetric and only j >= i is summed.  With comp[M] = sgn(M, M^c)
    form_{M^c}, a mask A of alpha reaches a complement mask M only if A meets
    M in all its indices (each i of A counts) or all but one (that i alone):
    one walk over the pairs (A, M) builds u[i, B] = sum_A' (i_i alpha)_A'
    sgn(A', B) comp[A' | B] for every i (``_under_ints``), and a second sums
    M_ij = sum_B u[i, B] (i_j beta)_B over beta's interior terms indexed by B
    (``_pair_ints``), on int bodies; one ``_combination`` takes in c."""
    d, full, odd = form.field.d, (1 << form.n) - 1, _ODD
    comp = [{full ^ m: -v if odd[(full ^ m) << 8 | m] else v for m, v in part.items()} for part in (form._p, form._q)]
    index = ({}, {})  # B -> [(j, (i_j beta)_B)]
    for part, out in zip((beta._p, beta._q), index):
        for m, v in part.items():
            for high, rest, _, neg in _INTERIOR[m].values():
                out.setdefault(rest, []).append((high >> 8, -v if neg else v))
    p, q = _product(lambda x, y, acc: _pair_ints(x, y, acc, beta is alpha), d,
                    *_product(_under_ints, d, alpha._p, alpha._q, *comp), *index)
    if beta is alpha:
        p, q = ({**part, **{(j, i): v for (i, j), v in part.items()}} for part in (p, q))
    body = _combination(d, ((c.p, c.q, c.den, alpha._den * beta._den * form._den, p, q),))
    return _from_ints(form.field, *body)


# mask A -> {bit of i: (i << 8, A - i, (A - i) << 8, the parity of i_{e_i} e^A)}, i 0-based
_INTERIOR = _Lazy(lambda m: {1 << i: (i << 8, m ^ 1 << i, (m ^ 1 << i) << 8, (m & (1 << i) - 1).bit_count() & 1)
                             for i in range(m.bit_length()) if m >> i & 1})


def _under_ints(x: dict, comp: dict, acc: dict) -> None:
    """acc[i << 8 | M - A'] += sgn x_A sgn(A', M - A') comp[M] over the masks
    A of x and M of comp with A' = A - i inside M, sgn that of i_{e_i} e^A."""
    odd, get = _ODD, acc.get
    for ma, ca in x.items():
        subs = _INTERIOR[ma]
        for m, cm in comp.items():
            out = ma & ~m
            if out & (out - 1):
                continue  # two or more indices of A outside M
            v = ca * cm
            for high, rest, shifted, neg in (subs[out],) if out else subs.values():
                b = m ^ rest
                key = high | b
                acc[key] = get(key, 0) + (-v if odd[shifted | b] ^ neg else v)


def _pair_ints(x: dict, index: dict, acc: dict, upper: bool) -> None:
    """acc[i, j] += u[i, B] (i_j beta)_B, u keyed i << 8 | B; j >= i only if ``upper``."""
    get = acc.get
    for key, v in x.items():
        i = key >> 8
        for j, w in index.get(key & 0xFF, ()):
            if j >= i or not upper:
                acc[i, j] = get((i, j), 0) + v * w


def induced_metric_g2(phi: KForm) -> FrameGeometry:
    """Metric of a positive 3-form on n=7 via
    (e_i . phi) ^ (e_j . phi) ^ phi = 6 B_ij e^{1..7}, g = (det B)^{-1/9} B,
    B the int Tensor of ``_top_pairing``.  One minors table, of sign B (the
    sign of B_00), gives det_o = det(sign B) and Sylvester's test for g, a
    positive multiple of sign B; det g = scale^2, so g's geometry is handed
    sqrt(det g) = scale = det_o^{1/9} and expands no table of g."""
    if phi.k != 3 or phi.n != 7:
        raise StructureError("g2 metric needs a 3-form on n = 7")
    field, d = phi.field, phi.field.d
    b = _top_pairing(phi, phi, phi, field.scalar(1, 6))
    # phi fixes the orientation as well: B is definite w.r.t. exactly one
    # sign of the volume form when phi is positive.
    sign = 1 if _sign(b._p.get((0, 0), 0), b._q.get((0, 0), 0), d) > 0 else -1
    b = b if sign > 0 else -b
    signed = FrameGeometry(7, field, b)
    det_o = signed.det_metric()  # odd rank: det flips with the sign
    if det_o.is_zero():
        raise StructureError("not a positive 3-form (det B = 0)")
    if det_o.sign() <= 0:
        raise StructureError("not a positive 3-form (det B <= 0)")
    # Hitchin scaling: need det(B)^{1/9} in the field
    try:
        scale = det_o.root(9)
    except NotRepresentable:
        raise StructureError(f"metric not representable exactly: det B = {det_o} has no 9th root in {field!r}")
    try:
        signed.check_positive_definite()
    except GeometryError as exc:
        raise StructureError("not a positive 3-form") from exc
    return FrameGeometry(7, field, b.scale(scale.inverse()), orientation_sign=sign, sqrt_det=scale)


def g2_assemble(phi: KForm, frame) -> GStructure:
    if frame.n != 7:
        raise StructureError("g2 needs n = 7")
    geom = induced_metric_g2(phi)
    star_phi = hodge_star(phi, geom)
    return GStructure("g2", _on_metric(frame, geom), {"phi": phi, "star_phi": star_phi})


def spin7_assemble(psi: KForm, frame) -> GStructure:
    """Accepts Psi only in an adapted frame: Psi ^ Psi = 14 vol and
    star Psi = Psi under the frame metric; otherwise errors."""
    if frame.n != 8 or psi.k != 4:
        raise StructureError("spin7 needs a 4-form on n = 8")
    geom = frame.geometry
    geom.check_positive_definite()
    if wedge(psi, psi) != geom.volume_form().scale(14):
        raise StructureError("frame not adapted: Psi ^ Psi != 14 vol")
    if hodge_star(psi, geom) != psi:
        raise StructureError("frame not adapted: Psi is not self-dual")
    return GStructure("spin7", frame, {"psi": psi})


def _check_spin7_orbit(s: GStructure) -> None:
    """A declared Psi is a Spin(7) form of the frame's orientation.  Its
    stabilizer in so(8) is 21-dimensional (the oracle checks it), so it is a
    Spin(7), whose invariant 4-forms are one line: Psi is +-A*Psi_model with
    A in SO(8), given Psi ^ Psi = 14 vol and star Psi = Psi.  The sign shows
    on one plane: star(X^flat ^ Y^flat ^ Psi) = i_Y i_X Psi, so beta =
    e_1^flat ^ e_2^flat - i_{e_2} i_{e_1} Psi is 4 times the Lambda^2_7 part
    of e_1^flat ^ e_2^flat, where star(beta ^ Psi) = -3 beta; for -Psi_model
    that would need e_1 ^ e_2 = 0."""
    geom, psi = s.geometry, s.forms["psi"]
    e1, e2 = (VectorField.basis(s.n, s.field, i) for i in (1, 2))
    beta = wedge(musical(e1, geom), musical(e2, geom)) - interior(e2, interior(e1, psi))
    if hodge_star(wedge(beta, psi), geom) != beta.scale(-3):
        raise StructureError("Psi is not in the Spin(7) orbit: star(beta ^ Psi) != -3 beta on the first two frame vectors")


def ah_assemble(omega: KForm, frame) -> GStructure:
    """Almost Hermitian structure from omega and the frame metric."""
    if frame.n % 2 or frame.n < 4:
        raise StructureError(f"almost Hermitian needs even n >= 4, got n = {frame.n}")
    frame.geometry.check_positive_definite()
    return GStructure("ah", frame, {"omega": omega}, j_matrix=_j_from_metric_omega(omega, frame.geometry))


def _on_metric(base, geom: FrameGeometry):
    """A shallow copy of the frame ``base`` whose geometry is ``geom``.
    Frames cache nothing but their metric-free ``_constants``,
    ``_coframe_body`` and ``closed``, so the copy shares them; keep every
    metric-dependent cache off frames."""
    out = object.__new__(type(base))
    out.__dict__ = {**base.__dict__, "geometry": geom}
    return out


# -- irreducible projections ---------------------------------------------

def project(structure: GStructure, a: KForm) -> dict:
    """Split a 2- or 3-form into irreducible pieces for the structure kind.

    Every piece is a closed formula from the kind's ``splits`` recipe
    (``Eigen`` or ``Graded``).  Returns a dict of named components summing
    exactly to ``a``; each component is re-verified against its defining
    linear condition.  On SU(3), star(beta ^ omega) = -beta for beta in
    Lambda^2_8.
    """
    return _split(structure, a)[0]


def _split(s: GStructure, a: KForm) -> tuple[dict, KForm | None, tuple]:
    """``project``'s pieces of ``a``, the vector-type 1-form alpha they read
    (None for an eigen split) and the inner products <a, form> of the scalar
    pieces in recipe order (empty when there are none), so no caller
    computes them again; an eigen split checks p2 = a - p1 as star(a ^ form)
    - star(p1 ^ form).  The vector-type pieces are

    G2      Lambda^3_7 = star(alpha ^ phi),     alpha = -1/4 star(a ^ phi);
    Spin(7) Lambda^3_8 = star(alpha ^ Psi),     alpha = -1/7 star(a ^ Psi);
    SU(3)   Lambda^2_6 = star(alpha ^ Omega+),  alpha = -1/2 star(a ^ Omega+);
    SU(3)   Lambda^3_6 = alpha ^ omega,         alpha = 1/2 J star(a ^ omega),

    with (J alpha)(X) = -alpha(JX).  Every other piece of ``a`` wedges to
    zero with that form, so alpha reads the vector-type piece alone.
    """
    splits = KINDS[s.kind].splits
    if not splits:
        raise StructureError(f"no projections for kind {s.kind!r}")
    if a.k not in splits:
        raise StructureError(f"{s.kind} projections cover degrees 2 and 3 only")
    recipe, geom, field = splits[a.k], s.geometry, s.field
    if isinstance(recipe, Eigen):
        form = s.form(recipe.slot)
        (n1, l1), (n2, l2) = recipe.pieces
        star_a = hodge_star(wedge(a, form), geom)
        p1 = (star_a - a.scale(l2)).scale(field.scalar(1, l1 - l2))
        parts, alpha, inner = {n1: p1, n2: a - p1}, None, ()
        star_p1 = hodge_star(wedge(p1, form), geom)  # and star(p2 ^ form) = star_a - star_p1
        failed = [n for n, x, lam in ((n1, star_p1, l1), (n2, star_a - star_p1, l2)) if x != parts[n].scale(lam)]
    else:
        parts, inner = {}, ()
        if recipe.scalar:
            name, terms = recipe.scalar
            inner = tuple(form_inner(a, s.form(x), geom) for x, _ in terms)
            multiples = [s.form(x).scale(v / field.scalar(norm)) for (x, norm), v in zip(terms, inner)]
            parts[name] = sum(multiples[1:], multiples[0])
        name, slot, c = recipe.vector
        form = s.form(slot)
        alpha = hodge_star(wedge(a, form), geom).scale(c)
        if form.k == 2:  # omega: alpha is read through J
            alpha = s.apply_j_oneform(alpha)
        parts[name] = wedge(alpha, form) if form.k == 2 else hodge_star(wedge(alpha, form), geom)
        name, chains = recipe.rest
        parts[name] = rest = sum((-p for p in parts.values()), a)
        failed = [name] if any(not reduce(wedge, map(s.form, chain), rest).is_zero() for chain in chains) else []
    if failed:
        raise StructureError(f"Lambda^{a.k}_{failed[0]} component fails its defining condition")
    return parts, alpha, inner


# -- torsion classes -------------------------------------------------------


def torsion_su3(s: GStructure) -> TorsionClasses:
    """Chiossi-Salamon components of
    d omega  = -(3/2) sigma0 Omega+ + (3/2) pi0 Omega- + nu1 ^ omega + nu3
    d Omega+ = pi0 omega^2 + pi1 ^ Omega+ - pi2 ^ omega
    d Omega- = sigma0 omega^2 + (J pi1) ^ Omega+ - sigma2 ^ omega,
    read off ``_split``: sigma0, pi0 (from <d omega, Omega+-> of its
    Lambda^3_{1+1} piece), nu1 and nu3 from d omega; pi1 and pi2 from
    star d Omega+ = 2 pi0 omega + star(pi1 ^ Omega+) + pi2; sigma2 from
    star d Omega- likewise.  The reconstructions are verified exactly.
    """
    field = s.field
    geom = s.geometry
    omega, op, om = s.form("omega"), s.form("omega_plus"), s.form("omega_minus")
    d_omega, d_op, d_om = s.d_form("omega"), s.d_form("omega_plus"), s.d_form("omega_minus")
    om2 = wedge(omega, omega)

    split, nu1, (with_op, with_om) = _split(s, d_omega)
    sigma0 = -with_op / field.scalar(6)
    pi0 = with_om / field.scalar(6)
    nu3 = split["12"]

    pi0_b = form_inner(d_op, om2, geom) / field.scalar(12)
    if not (pi0 - pi0_b).is_zero():
        raise StructureError("inconsistent pi0 between d omega and d Omega+")
    split, pi1, _ = _split(s, hodge_star(d_op, geom))
    pi2 = split["8"]

    sigma0_b = form_inner(d_om, om2, geom) / field.scalar(12)
    if not (sigma0 - sigma0_b).is_zero():
        raise StructureError("inconsistent sigma0 between d omega and d Omega-")
    sigma2 = _split(s, hodge_star(d_om, geom))[0]["8"]

    r1 = op.scale(field.scalar(-3, 2) * sigma0) + om.scale(field.scalar(3, 2) * pi0) + wedge(nu1, omega) + nu3
    if r1 != d_omega:
        raise StructureError("d omega reconstruction failed")
    if om2.scale(pi0) + wedge(pi1, op) - wedge(pi2, omega) != d_op:
        raise StructureError("d Omega+ reconstruction failed")
    if om2.scale(sigma0) + wedge(s.apply_j_oneform(pi1), op) - wedge(sigma2, omega) != d_om:
        raise StructureError("d Omega- reconstruction failed")
    return TorsionClasses(
        "su3",
        {
            "sigma0": sigma0,
            "pi0": pi0,
            "nu1": nu1,
            "pi1": pi1,
            "sigma2": sigma2,
            "pi2": pi2,
            "nu3": nu3,
        },
    )


def torsion_g2(s: GStructure) -> TorsionClasses:
    """Fernandez-Gray components:
    d phi      = tau0 (star phi) + 3 tau1 ^ phi + star tau3
    d star phi = 4 tau1 ^ (star phi) + tau2 ^ phi
    with the Lee form theta = 4 tau1, read off ``_split``:
    star d phi = tau0 phi + star(3 tau1 ^ phi) + tau3 and
    star d star phi = star(4 tau1 ^ star phi) - tau2.
    """
    field = s.field
    geom = s.geometry
    phi, star_phi = s.form("phi"), s.form("star_phi")
    d_phi, d_star = s.d_form("phi"), s.d_form("star_phi")
    star_d_phi = hodge_star(d_phi, geom)
    inner = form_inner(d_phi, star_phi, geom)
    tau0 = inner / field.scalar(7)
    split, alpha, _ = _split(s, star_d_phi)
    tau1 = alpha.scale(field.scalar(1, 3))
    tau3 = split["27"]
    tau2 = -_split(s, hodge_star(d_star, geom))[0]["14"]
    if d_phi != star_phi.scale(tau0) + wedge(tau1, phi).scale(3) + hodge_star(tau3, geom):
        raise StructureError("d phi reconstruction failed")
    if d_star != wedge(tau1, star_phi).scale(4) + wedge(tau2, phi):
        raise StructureError("d star-phi reconstruction failed")
    return TorsionClasses(
        "g2",
        {"tau0": tau0, "tau1": tau1, "tau2": tau2, "tau3": tau3, "lee": tau1.scale(4)},
        (star_d_phi, split["7"].scale(field.scalar(4, 3)), inner),  # theta = 4 tau1 = 4/3 alpha
    )


def torsion_spin7(s: GStructure) -> TorsionClasses:
    """dPsi = theta ^ Psi + zeta5, read off ``_split``:
    star dPsi = star(theta ^ Psi) + star zeta5."""
    geom = s.geometry
    star_d_psi = hodge_star(s.d_form("psi"), geom)
    split, lee, _ = _split(s, star_d_psi)
    zeta5 = -hodge_star(split["48"], geom)  # star star = -1 on 3-forms, n = 8
    return TorsionClasses("spin7", {"lee": lee, "zeta5": zeta5}, (star_d_psi, split["8"], None))


def lee_form(s: GStructure) -> KForm:
    """The structure's Lee form.

    AH/SU(3): theta(X) = 1/2 sum_{a,b} omega^{ab} H(e_a, e_b, JX), the
    contraction <omega, H> pulled back by J, with omega's indices raised by
    g, so any frame gives the same theta (on an orthonormal one it is
    -1/2 sum_i H(JX, e_i, J e_i)); G2: 4 tau1; Spin(7): the defining star
    formula.
    """
    if not KINDS[s.kind].almost_complex:
        return s.torsion["lee"]
    return s._j_change.move(contract_2_3(s.form("omega"), s.h, s.geometry))


def _bracket_j_ints(x: dict, rows: dict, acc: dict) -> None:
    # q(i, b) = [J e_i, e_b] = sum_a J^a_i [e_a, e_b]: x the structure
    # constants c^k_{ab}, rows J by row, a -> [(i, J^a_i)]
    get = acc.get
    for (a, b, k), c in x.items():
        for i, v in rows.get(a, ()):
            acc[i, b, k] = get((i, b, k), 0) + v * c


def _nijenhuis_ints(x: dict, y: tuple, acc: dict) -> None:
    # sum_b J^b_j q(i, b) - J(q(i, j) - q(j, i)) at (i, j, k), i < j: x is
    # q, keyed (i, b, l), and y J by row (b -> [(j, J^b_j)]) and by column
    # (l -> [(k, J^k_l)])
    rows, cols = y
    get = acc.get
    for (i, b, l), v in x.items():
        for j, w in rows.get(b, ()):
            if i < j:
                acc[i, j, l] = get((i, j, l), 0) + w * v
        if i != b:
            pair = (i, b) if i < b else (b, i)
            for k, w in cols.get(l, ()):
                acc[(*pair, k)] = get((*pair, k), 0) + (-w * v if i < b else w * v)


def nijenhuis(s: GStructure) -> KForm:
    """Nijenhuis 3-form N(X,Y,Z) = g(N(X,Y), Z); errors when not skew.

    From the structure constants: with q(i, b) = [J e_i, e_b] =
    sum_a J^a_i [e_a, e_b],
    N(e_i, e_j) = sum_b J^b_j q(i, b) - J(q(i, j) - q(j, i)) - [e_i, e_j],
    summed on the int bodies of J and the constants.
    """
    if not KINDS[s.kind].almost_complex:
        raise StructureError("Nijenhuis tensor needs an almost complex structure")
    field, d, j, c = s.field, s.field.d, s.j_matrix, s.frame._constants
    rows, cols = _by_row(j), _by_row(_transpose(j))
    q = _product(_bracket_j_ints, d, c._p, c._q, *rows)
    jq = _product(_nijenhuis_ints, d, *q, (rows[0], cols[0]), (rows[1], cols[1]) if rows[1] else None)
    # N(e_i, e_j) for i < j; N is skew in its first two slots by definition
    bracket = [{key: -v for key, v in part.items() if key[0] < key[1]} for part in (c._p, c._q)]
    up = _from_ints(field, *_combination(d, ((1, 0, 1, c._den * j._den * j._den, *jq), (1, 0, 1, c._den, *bracket))))
    low = _last_index(up, s.geometry, up=False)
    full = [{**part, **{(jj, i, k): -v for (i, jj, k), v in part.items()}} for part in (low._p, low._q)]
    # the packer checks the rest of the skew symmetry
    h = skew_three_form(s.n, _from_ints(field, low._den, *full))
    if h is None:
        raise StructureError("Nijenhuis tensor not skew: no skew-torsion connection exists")
    return h


def d_c_omega(s: GStructure) -> KForm:
    """d^c omega(X,Y,Z) = -d omega(JX, JY, JZ): minus the pullback of d omega
    by J, which substitutes e^a -> sum_c J^a_c e^c."""
    return -s._j_change.move(s.d_form("omega"))


def bismut_torsion(s: GStructure) -> KForm:
    """Closed-form torsion of the structure-preserving skew connection.

    AH/SU3: H = d^c omega + N (N must be skew);
    G2:     H = -star d phi + star(theta ^ phi) + (1/6)<d phi, star phi> phi,
            defined only when tau2 = 0;
    Spin7:  H = -star d Psi + (7/6) star(theta ^ Psi),

    the factor of star(theta ^ form) being the kind's ``lee_factor``; G2 and
    Spin(7) read the rest off ``TorsionClasses.formula``: one ``_combination``.
    Callers that want the structure's H read ``s.h``, which is built once.
    """
    row = KINDS[s.kind]
    if row.almost_complex:
        return d_c_omega(s) + s.nijenhuis
    torsion = s.torsion
    if s.kind == "g2" and not torsion["tau2"].is_zero():
        raise StructureError("tau2 != 0: no skew-torsion connection for this G2 structure")
    star_d, star_lee, inner = torsion.formula
    c = row.lee_factor
    terms = [(-1, 0, 1, star_d._den, star_d._p, star_d._q), (c.p, c.q, c.den, star_lee._den, star_lee._p, star_lee._q)]
    if inner is not None:
        form, x = s.form(row.slots[0][0]), inner / s.field.scalar(6)  # phi
        terms.append((x.p, x.q, x.den, form._den, form._p, form._q))
    return _from_body(s.n, 3, s.field, *_combination(s.field.d, terms))


def _oracle_layout(n: int) -> tuple:
    """The oracle's index data for n: the 3-masks (H's columns), the pairs
    t < k and, per pair p, its spread over the i outside it: (i, column of
    H_{i,t,k}, s(i, p) = -1)."""
    masks3 = list(_masks(n, 3))
    column = {K: col for col, K in enumerate(masks3)}
    pairs = [(t, k) for t in range(n) for k in range(t + 1, n)]
    spread = [
        [(i, column[(1 << i) | (1 << t) | (1 << k)], not t < i < k) for i in range(n) if i != t and i != k]
        for t, k in pairs
    ]
    return masks3, pairs, spread


_ORACLE_LAYOUT = _Lazy(_oracle_layout)


def _pair_moves(gp: dict, gq: dict, n: int) -> tuple[dict, dict]:
    """The pair derivations L_p, p = (t < k), as ``derivation_rows`` takes
    them, read straight off the int body (gp, gq) of G = D g^{-1}: L_p sends
    e^j to (G^{jk} e^t - G^{jt} e^k)/(2D), and G is symmetric, so e^j moves
    only for j in rows t and k.  Each part maps the bit of j to [(p, bit of
    the target, int)] in pair order."""
    moves = ({}, {})
    for part, out in zip((gp, gq), moves):
        cols = {}  # k -> [(j, G^{jk})]
        for (j, k), v in part.items():
            cols.setdefault(k, []).append((j, v))
        for p, (t, k) in enumerate(_ORACLE_LAYOUT[n][1]):
            for j, v in cols.get(k, ()):
                out.setdefault(1 << j, []).append((p, 1 << t, v))
            for j, v in cols.get(t, ()):
                out.setdefault(1 << j, []).append((p, 1 << k, -v))
    return moves


# the identity metric's pair moves for n, built on first use and shared
_IDENTITY_MOVES = _Lazy(lambda n: _pair_moves({(i, i): 1 for i in range(n)}, {}, n))


def solve_skew_torsion(s: GStructure) -> KForm:
    """Independent route to the torsion: solve the exact linear system for
    H in Lambda^3 with D + (1/2) g^{-1} H annihilating every structure form.

    Lambda[M][p] is the e^M coefficient of a form alpha moved by the pair
    derivation L_p, p = (t < k), from one ``derivation_rows`` walk over the
    pair moves, read once off g^{-1}'s int body (``_pair_moves``; the
    identity's are built once per n, ``_IDENTITY_MOVES``).  D_i acts
    on the coframe as sum_p gamma_i[p] L_p with gamma_i[p] = -2 <D_i e_t,
    e_k>, so nabla_i alpha = Lambda gamma_i and row (i, M) reads Lambda[M] .
    (A_i + gamma_i) = 0, A_i[p] = s(i, p) H_{i,t,k} over the pairs without
    i, s(i, p) = 1 if t < i < k, else -1.  Stage 1 reduces every form's rows
    in one ``echelon``, each row once up to a rational factor: it has no
    right-hand side, so a row's scale is free and a multiple checks nothing,
    and the walk runs on ints, with G = D g^{-1} in place of (1/2) g^{-1} =
    G/(2D).  Its r pivot rows P span the rows of all the Lambdas, and r =
    dim so(n) - dim G for the joint stabilizer G, which is checked against
    ``KINDS``.  Stage 2 solves block i as P . A_i = -P . gamma_i, n*r int
    rows assembled from the pivots and the symbols over their denominator
    E, for y = (E/2) H; the identity needs the lowered symbols skew in
    (t, k), which is checked on every entry.  The solution comes back as
    one int body, its columns relabelled to 3-masks and 2/E folded into its
    denominator: the oracle builds no Scalar (only an error message does).
    """
    field, n, d = s.field, s.n, s.field.d
    masks3, pairs, spread = _ORACLE_LAYOUT[n]
    ginv = s.geometry._inverse
    moves = _IDENTITY_MOVES[n] if s.geometry._is_identity else _pair_moves(ginv._p, ginv._q, n)
    # (t, k) -> (i, E <D_i e_t, e_k>) as (i, rational, sqrt(d)) ints, E the
    # symbols' denominator: the lowered Koszul symbols of the cached
    # Levi-Civita connection; H is never read
    symbols = {pair: [] for pair in pairs}
    low = s.levi_civita.lowered
    e, lp, lq = low._den, low._p, low._q
    for key in (*lp, *(key for key in lq if key not in lp)):
        i, t, k = key
        vp, vq = lp.get(key, 0), lq.get(key, 0)
        if (lp.get((i, k, t), 0), lq.get((i, k, t), 0)) != (-vp, -vq):
            v = _norm(field, vp, vq, e)
            raise StructureError(f"Levi-Civita symbols not skew: <D_{i + 1} e_{t + 1}, e_{k + 1}> = {v}")
        if t < k:
            symbols[t, k].append((i, vp, vq))
    kind = KINDS[s.kind]
    unique = {}  # each row once up to a rational factor: with no right-hand side a multiple checks nothing
    for slot, *_ in kind.slots:
        for p, q in derivation_rows(s.forms[slot], moves).values():
            p, q = row = _primitive(p, q, _last((p, q)))
            unique.setdefault((frozenset(p.items()), frozenset(q.items())) if q else frozenset(p.items()), row)
    pivots = echelon(list(unique.values()), field)
    stabilizer = len(pairs) - len(pivots)
    want = (n // 2) ** 2 if kind.stabilizer is None else kind.stabilizer
    if stabilizer != want:
        raise StructureError(f"the structure forms' stabilizer has dimension {stabilizer}, not {want}: not {kind.noun}")
    rows = []
    for piv in pivots.values():
        # P . A_i = -P . gamma_i = (2/E) sum_p P[p] E <D_i e_t, e_k>: the rows
        # solve for y = (E/2) H, right-hand side under key -1; a sqrt(d) part
        # of P meets one of a symbol in d
        rhs = ([0] * n, [0] * n)
        block = [({}, {}) for _ in range(n)]
        for a, part in enumerate(piv):
            for p, x in part.items():
                for i, vp, vq in symbols[pairs[p]]:
                    rhs[a][i] += x * vp
                    if vq:
                        rhs[1 - a][i] += x * vq * (d if a else 1)
                for i, col, flip in spread[p]:
                    block[i][a][col] = -x if flip else x
        for i, row in enumerate(block):
            for a in (0, 1):
                if rhs[a][i]:
                    row[a][-1] = rhs[a][i]
        rows += block
    try:
        den, p, q = solve_unique_sparse(rows, len(masks3), field)
    except InconsistentSystem as exc:
        raise StructureError("no skew-torsion connection: the linear system is inconsistent") from exc
    except LinearSolveError as exc:
        raise StructureError("non-unique skew torsion: dimension count violated") from exc
    # H = (2/E) y, the columns relabelled to their 3-masks
    p, q = ({masks3[c]: 2 * v for c, v in part.items()} for part in (p, q))
    return _normalize(n, 3, field, den * e, p, q)


def _j_gamma_ints(x: dict, cols: dict, acc: dict) -> None:
    # (J Gamma_x)^i_m = sum_l J^i_l Gamma^l_{xm}: x the symbols, cols J by
    # column, l -> [(i, J^i_l)]
    get = acc.get
    for (xx, m, l), v in x.items():
        for i, w in cols.get(l, ()):
            acc[xx, i, m] = get((xx, i, m), 0) + w * v


def _j_gamma_gamma_ints(x: dict, y: dict, acc: dict) -> None:
    # -tr(J Gamma_x Gamma_y) into rho_xy for x < y, + for x > y, with
    # (J Gamma_x Gamma_y)^i_i = sum_m (J Gamma_x)^i_m Gamma^m_{yi}: x is
    # J Gamma, y the symbols
    by_pair = {}  # (i, m) -> [(x, (J Gamma_x)^i_m)]
    for (xx, i, m), v in x.items():
        by_pair.setdefault((i, m), []).append((xx, v))
    get = acc.get
    for (yy, i, m), v in y.items():
        for xx, w in by_pair.get((i, m), ()):
            if xx != yy:
                key = (1 << xx) | (1 << yy)
                acc[key] = get(key, 0) + (-w * v if xx < yy else w * v)


def _bracket_trace_ints(x: dict, y: dict, acc: dict) -> None:
    # c^m_{xy} tr(J Gamma_m) into rho_xy, x < y: x the structure constants,
    # y the traces m -> tr(J Gamma_m)
    get = acc.get
    for (xx, yy, m), c in x.items():
        t = y.get(m) if xx < yy else None
        if t:
            key = (1 << xx) | (1 << yy)
            acc[key] = get(key, 0) + c * t


def bismut_ricci_form(s: GStructure) -> KForm:
    """rho(X,Y) = -1/2 tr(J R(X, Y)) for the Bismut connection, read as a
    trace of its symbols with no curvature tensor: with Gamma_X the matrix
    (Gamma_X)^l_k = Gamma^l_{Xk}, R(X, Y) = [Gamma_X, Gamma_Y] - Gamma_{[X,Y]},
    so tr(J R(X, Y)) = tr(J Gamma_X Gamma_Y) - tr(J Gamma_Y Gamma_X)
    - sum_m c^m_{XY} tr(J Gamma_m).  A trace needs no metric, so any frame
    gives the same rho (on an orthonormal one it is
    1/2 sum_i R(X, Y, e_i, J e_i)); rho = 0 certifies reduced holonomy."""
    if not KINDS[s.kind].almost_complex:
        raise StructureError("Bismut Ricci form needs an almost Hermitian structure")
    field, d, g, c = s.field, s.field.d, s.bismut.symbols, s.frame._constants
    jg = _product(_j_gamma_ints, d, g._p, g._q, *_by_row(_transpose(s.j_matrix)))
    jg = _tensor(field, s.j_matrix._den * g._den, *jg)
    trace = [{}, {}]  # m -> tr(J Gamma_m), rational and sqrt(d) numerators
    for part, tr in zip((jg._p, jg._q), trace):
        for (xx, i, m), v in part.items():
            if i == m:
                tr[xx] = tr.get(xx, 0) + v
    jgg = _product(_j_gamma_gamma_ints, d, jg._p, jg._q, g._p, g._q)
    ctr = _product(_bracket_trace_ints, d, c._p, c._q, trace[0], trace[1] or None)
    terms = ((1, 0, 2, jg._den * g._den, *jgg), (1, 0, 2, c._den * jg._den, *ctr))
    return _from_body(s.n, 2, field, *_combination(d, terms))
