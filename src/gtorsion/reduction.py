"""Symmetry reduction along a Bismut-parallel vector field and its converse.

Reduction happens at the Lie-algebra level: an adapted orthonormal frame is
built with V/|V| last, the transverse geometry lives on the first n-1
directions, and the quotient differential acts on basic forms (killed by
i_V and L_V) through the ambient one.  The adapted frame needs no
elimination and runs on int bodies: Gram-Schmidt keeps each vector with its
covector, B and the coframe rows A = D^{-1} B g (D = diag(|b_i|^2) = 1) are
Tensors with A B^T = 1 checked exactly, and one minors table of B^T moves
every form into the frame; only the projections and the norms are Scalars.
The quotient of a group by a non-ideal direction is not itself a Lie
algebra, so transverse curvature uses the submersion identity

    Rc^{q}(X, Y) = Rc^{ambient}(X, Y) + <i_X F, i_Y F>      (X, Y horizontal)

for the quotient Bismut connection, with F = d mu.

G2 -> SU(3) and Spin(7) -> G2 run one driver: the parallel form splits along
V as mu ^ alpha + beta (``split_parallel_form``), and alpha (with beta for
SU(3)) moves to the slice.  ``central_extend`` rebuilds mu ^ alpha + beta.

After V is found, every step of the normalized reduction reads one
structure, the unit-|V| copy of the input (``_unit_length``), and the
``ReductionResult`` carries it.  The copy does not analyse itself: the
constant rescaling g -> lam^2 g, H -> lam^2 H to unit |V| leaves the
Levi-Civita and Bismut connections and the Bismut Ricci tensor unchanged,
so it inherits them from the input, and torsion is first order, so it
inherits the input's torsion classes, Lee form and H, each of degree k
scaled by lam^(k-1).  So a reduction builds no connection or curvature, and
only the input and the slice run the torsion solvers and the closed formula
for H.  A (0,2)-tensor M moves into the adapted frame as B M B^T, the
adapted vectors being the rows of B.  Every metric is a frame's: the input
structure's frame carries g, the unit-|V| copy's lam^2 g, and the slice the
transverse g^.
"""

from __future__ import annotations

from functools import cached_property

from .forms import (
    CoframeChange,
    FrameGeometry,
    KForm,
    Tensor,
    VectorField,
    _by_row,
    _combination,
    _contract,
    _dot,
    _from_body,
    _from_ints,
    _normalize,
    _product,
    _restricted,
    _support,
    _tensor,
    _transpose,
    _vector,
    hodge_star,
    indices_of,
    interior,
    musical,
    musical_inv,
    wedge,
)
from .frames import (
    LieAlgebraFrame,
    _new_differentials,
    covariant_derivative_oneform,
    transform_bilinear,
)
from .scalars import GTorsionError, NotRepresentable, Scalar, _norm, _sign
from .structures import (
    KINDS,
    GStructure,
    StructureError,
    TorsionClasses,
    _on_metric,
    g2_assemble,
    project,
    spin7_assemble,
    su3_assemble,
)
from .soliton import canonical_vector, flux_residual

__all__ = [
    "ReductionError",
    "TransverseSlice",
    "ReductionResult",
    "adapt_frame",
    "reduce_pair",
    "split_parallel_form",
    "raw_reduction",
    "reduce_g2",
    "reduce_spin7",
    "splitting_check",
    "central_extend",
]


class ReductionError(GTorsionError, ValueError):
    pass


def adapt_frame(frame: LieAlgebraFrame, v: VectorField) -> TransverseSlice:
    """Gram-Schmidt an orthonormal frame around V (placed last, normalized)
    and return its transverse slice.

    Requires L_V g = 0 (V Killing); errors when a norm has no square root
    in the scalar field.  No elimination runs: B and the coframe rows
    A = D^{-1} B g, the Gram-Schmidt vectors and covectors over their norms,
    are each one ``_combination``, A B^T = 1 is checked exactly, and B^T
    moves forms to the new frame.
    """
    field = frame.field
    n = frame.n
    if v.is_zero():
        raise ReductionError("V = 0: nothing to reduce along")
    _check_killing(frame, v)
    low = min((*v._p, *v._q))  # the bit of the first index where V is nonzero
    built = _gram_schmidt(frame, v, low)
    b_terms, a_terms = [], []
    for i, (w, w_flat, w_sq) in enumerate(built[1:] + built[:1]):
        try:
            inv = w_sq.sqrt().inverse()
        except NotRepresentable as exc:
            raise ReductionError(
                f"cannot normalize adapted frame: |w|^2 = {w_sq} has no sqrt in {field!r}"
            ) from exc
        # row i of B is w/|w|; row i of A is its covector over |b_i|^2 = 1
        for x, terms in ((w, b_terms), (w_flat, a_terms)):
            p, q = ({(i, m.bit_length() - 1): c for m, c in part.items()} for part in (x._p, x._q))
            terms.append((inv.p, inv.q, inv.den, x._den, p, q))
    b, a = (_from_ints(field, *_combination(field.d, terms)) for terms in (b_terms, a_terms))
    if _contract(a, _transpose(b)) != _from_ints(field, 1, {(i, i): 1 for i in range(n)}, {}):
        raise ReductionError("adapted coframe check failed: A B^T != 1")
    old_in_new = CoframeChange(_transpose(b), n)  # A^{-1} = B^T
    # det A has the sign of det B: Gram-Schmidt adds earlier rows only, so
    # det B is det [V; e_i, i != p] = (-1)^p V^p over the norms, p the first
    # index where V is nonzero, times (-1)^(n-1) for moving V to the end
    p = low.bit_length() - 1
    sign = frame.geometry.orientation_sign * _sign(v._p.get(low, 0), v._q.get(low, 0), field.d) * (-1) ** (p + n - 1)
    labels = [f"f{i}" for i in range(1, n)] + ["mu"]
    ambient = LieAlgebraFrame(
        labels,
        _new_differentials(frame, a, old_in_new),
        FrameGeometry(n, field, orientation_sign=sign),  # D = 1
        check_closure=frame.closed,
    )
    return TransverseSlice(ambient, a, b, old_in_new)


def _gram_schmidt(frame: LieAlgebraFrame, v: VectorField, low: int) -> list:
    """V, then e_i minus its projections on the vectors before it for each
    i other than the first index where V is nonzero (bit ``low``), as
    triples (u, u^flat, |u|^2): a VectorField, its 1-form and a Scalar.
    Classical Gram-Schmidt, equal to the modified one in exact arithmetic:
    <e_i, u> is entry i of u^flat, and w and w^flat are one
    ``_combination`` each, whose only Scalars are the projections; e_i^flat
    is row i of g, from one ``_by_row`` of the metric."""
    geom, field, n = frame.geometry, frame.field, frame.n
    g, rows = geom._metric, [r or {} for r in _by_row(geom._metric)]
    v_flat = musical(v, geom)
    built = [(v, v_flat, _dot(v_flat, v))]
    for i in range(n):
        bit = 1 << i
        if bit == low:
            continue
        e = VectorField.basis(n, field, i + 1)
        w_terms = [(1, 0, 1, e._den, e._p, e._q)]
        flat_terms = [(1, 0, 1, g._den, *({1 << j: x for j, x in r.get(i, ())} for r in rows))]
        for u, u_flat, u_sq in built:
            x = _entry(u_flat, bit)
            if not x.is_zero():
                c = x / u_sq
                w_terms.append((-c.p, -c.q, c.den, u._den, u._p, u._q))
                flat_terms.append((-c.p, -c.q, c.den, u_flat._den, u_flat._p, u_flat._q))
        w = _vector(n, field, *_combination(field.d, w_terms))
        if w.is_zero():
            raise ReductionError("degenerate complement while adapting the frame")
        w_flat = _from_body(n, 1, field, *_combination(field.d, flat_terms))
        # |w|^2 = <w, e_i>, w being orthogonal to each u
        built.append((w, w_flat, _entry(w_flat, bit)))
    return built


def _entry(x, bit: int) -> Scalar:
    """The Scalar at ``bit`` of a vector's or a 1-form's body."""
    return _norm(x.field, x._p.get(bit, 0), x._q.get(bit, 0), x._den)


def _ad_ints(x: dict, y: dict, acc: dict) -> None:
    # x: the structure constants c^k_{ai}; y: V's body, keyed by bits
    get = acc.get
    for (a, i, k), c in x.items():
        v = y.get(1 << a)
        if v:
            acc[i, k] = get((i, k), 0) + c * v


def _check_killing(frame, v: VectorField):
    """L_V g = 0: (L_V g)(e_i, e_j) = -<[V, e_i], e_j> - <e_i, [V, e_j]>, with
    [V, e_i] = sum_{a,k} V^a c^k_{ai} e_k from one pass over the structure
    constants, paired with the metric; names the first failing pair i <= j."""
    c, field = frame._constants, frame.field
    ad_v = _tensor(field, c._den * v._den, *_product(_ad_ints, field.d, c._p, c._q, v._p, v._q))
    pair = _contract(ad_v, frame.geometry._metric)  # (i, j) -> <[V, e_i], e_j>
    bad = pair + _transpose(pair)
    if not bad.is_zero():
        i, j = min((*bad._p, *bad._q))  # bad is symmetric, so i <= j
        raise ReductionError(f"V is not Killing: L_V g ({frame.labels[i]}, {frame.labels[j]}) != 0")


class TransverseSlice(LieAlgebraFrame):
    """The (n-1)-dimensional transverse geometry of the orthonormal frame
    with V/|V| last: a frame on the first n-1 adapted directions.

    ``ambient`` is the adapted n-dimensional frame, ``b`` the adapted
    vectors as the rows of a Tensor keyed (i, k), F_i = sum_k B_ik E_k, ``a``
    the coframe change f = A e keyed (i, j), A = D^{-1} B g with
    D = diag(|F_i|^2) = 1, so A B^T = 1, and ``to_adapted`` the
    ``CoframeChange`` for e = B^T f, whose one minors table moves every form.
    The slice's differentials are the ambient d f^i with their mu-terms
    dropped, so it is a Lie algebra only when V spans an ideal direction,
    which ``as_lie_frame`` checks; ``d`` goes through the ambient
    differential and names the generator where a result leaves the basic
    complex.
    """

    def __init__(self, ambient: LieAlgebraFrame, a: Tensor, b: Tensor, to_adapted: CoframeChange):
        self.ambient, self.a, self.b, self.to_adapted = ambient, a, b, to_adapted
        m, field = ambient.n - 1, ambient.field
        mu_bit = 1 << m
        dlist = []
        for amb in ambient.coframe_d[:m]:
            kept = [{mask: v for mask, v in part.items() if not mask & mu_bit} for part in (amb._p, amb._q)]
            dlist.append(_normalize(m, 2, field, amb._den, *kept))
        # transverse volume convention: vol^ = i_V vol (so mu ^ vol^ = vol),
        # V being the last adapted vector
        sign = ambient.geometry.orientation_sign * (1 if m % 2 == 0 else -1)
        geometry = FrameGeometry(m, field, _restricted(ambient.geometry._metric, m), orientation_sign=sign)
        super().__init__(ambient.labels[:m], dlist, geometry, check_closure=False)

    def pull(self, form: KForm, context: str) -> KForm:
        """An ambient-frame form moved into the adapted frame and restricted
        to the slice."""
        return self.restrict(self.to_adapted.move(form), context)

    def embed(self, a: KForm) -> KForm:
        return _from_body(self.ambient.n, a.k, self.field, a._den, a._p, a._q)

    def restrict(self, a: KForm, context: str = "form") -> KForm:
        mu_bit = 1 << self.n
        if any(mask & mu_bit for mask in _support(a)):
            raise ReductionError(f"{context} is not basic: carries a mu component")
        return _from_body(self.n, a.k, self.field, a._den, a._p, a._q)

    def d(self, a: KForm) -> KForm:
        da = self.ambient.d(self.embed(a))
        mu_bit = 1 << self.n
        for mask in _support(da):
            if mask & mu_bit:
                bad = indices_of(mask)
                raise ReductionError(
                    "quotient differential left the basic complex at generator "
                    + "^".join(self.ambient.labels[i - 1] for i in bad)
                )
        return _from_body(self.n, a.k + 1, self.field, da._den, da._p, da._q)

    def as_lie_frame(self) -> LieAlgebraFrame:
        """The quotient as a Lie algebra frame when the slice's structure
        constants close (V spans an ideal direction); raises FrameError
        otherwise."""
        return LieAlgebraFrame(self.labels, self.coframe_d, self.geometry)


class ReductionResult:
    """The split of a structure with skew torsion H along a Bismut-parallel
    unit vector V: ``reduce_pair`` sets the structure, V, mu = V^flat, the
    flux F = d mu, H^ = H - mu ^ F, d H^ and the anomaly d H^ + F ^ F;
    ``_reduce`` then sets the reduced forms (in report order), the reduced
    structure and its torsion classes, df, F and H^ on the slice, and the
    verifier table."""

    def __init__(self, structure: GStructure, v: VectorField, mu: KForm, flux: KForm,
                 h_hat: KForm, dh_hat: KForm, anomaly: KForm):
        self.structure = structure
        self.v, self.mu, self.flux = v, mu, flux
        self.h_hat, self.dh_hat, self.anomaly = h_hat, dh_hat, anomaly
        self.forms = {}  # reduced form name -> form, in report order
        self.verifier = {}
        self.reduced_structure = self.reduced_torsion = None
        self.df_slice = self.flux_slice = self.h_hat_slice = None

    def __getattr__(self, name):
        # the reduced forms read as attributes: red.omega, red.omega_plus, red.phi
        try:
            return self.__dict__["forms"][name]
        except KeyError:
            raise AttributeError(name) from None

    def verifier_ok(self) -> bool:
        return all(bool(v) for v in self.verifier.values())

    # the orthonormal adapted frame needs square roots of the complement
    # norms, which can leave the scalar field; build it only when used
    @cached_property
    def transverse(self) -> TransverseSlice:
        return adapt_frame(self.structure.frame, self.v)


def reduce_pair(s: GStructure, v: VectorField) -> ReductionResult:
    """String-ansatz split of ``s`` along a Bismut-parallel unit V:
    mu = V^flat, F = d mu, g = mu x mu + g^, H = mu ^ F + H^ with H^ basic."""
    frame, h = s.frame, s.h
    if not (s.geometry.norm_sq(v) - s.field.one()).is_zero():
        raise ReductionError("|V| != 1")
    mu = musical(v, s.geometry)
    f2 = frame.d(mu)
    if f2 != interior(v, h):
        raise ReductionError("d mu != i_V H: V is not Bismut-parallel for this torsion")
    h_hat = h - wedge(mu, f2)
    if not interior(v, h_hat).is_zero():
        raise ReductionError("H^ is not basic: i_V H^ != 0")
    dh_hat = frame.d(h_hat)
    if not interior(v, dh_hat).is_zero():
        raise ReductionError("H^ is not basic: L_V H^ != 0")
    return ReductionResult(s, v, mu, f2, h_hat, dh_hat, dh_hat + wedge(f2, f2))


def split_parallel_form(phi: KForm, v: VectorField, mu: KForm | None):
    """phi = mu ^ alpha + beta with alpha = i_V phi, beta the remainder.

    Without ``mu`` only alpha is taken, and beta is None.
    """
    alpha = interior(v, phi)
    return alpha, (None if mu is None else phi - wedge(mu, alpha))


def string_residual_on_slice(red: ReductionResult, df: KForm) -> dict:
    """Verifier entries for the string-GRS residual triple of the transverse
    data (g^, F, H^, f), with df, F and H^ on the slice read from ``red``.

    Slot 1 uses the submersion identity Rc^q = Rc^ambient|hor + <i.F, i.F>
    (see module docstring) combined with the endomorphism-square F^2 term:
    it is the horizontal block of the ambient Rc^nabla + nabla df, with
    nabla and Rc^nabla read from the analysis of ``red.structure`` and moved
    into the adapted frame by a change of basis.  Slot 2 is the flux
    equation on the slice, slot 3 the anomaly.
    """
    sl, s = red.transverse, red.structure
    # Rc^q + F^2_endo + nabla df = (Rc^amb + F^2_pos) - F^2_pos + nabla df
    mat = s._bismut_ricci + covariant_derivative_oneform(s.frame, s.bismut, df)
    slot1 = _restricted(transform_bilinear(mat, sl.b), sl.n)
    slot2 = flux_residual(sl, red.flux_slice, red.h_hat_slice, musical_inv(red.df_slice, sl.geometry))
    return {
        "string GRS slot1": slot1.is_zero(),
        "string GRS slot2": slot2.is_zero(),
        "string GRS slot3": red.anomaly.is_zero(),
    }


def _gauge_covector(w: VectorField) -> KForm:
    """mu_g = e^{j0} / w^{j0} at the first index j0 where w (nonzero) is
    nonzero."""
    bit = min((*w._p, *w._q))
    return KForm(w.n, 1, w.field, {bit: _entry(w, bit).inverse()})


def _su3_of_g2(red: ReductionResult):
    """The SU(3) structure (omega, Omega+) on the slice and its torsion classes."""
    sl = red.transverse
    struct = su3_assemble(red.omega, red.omega_plus, sl)
    if struct.geometry.orientation_sign != sl.geometry.orientation_sign:
        raise ReductionError("reduced pair orients the slice the wrong way")
    return struct, struct.torsion


def _g2_of_spin7(red: ReductionResult):
    """The G2 structure phi on the slice and its torsion classes.

    Torsion classes are reported in the orientation for which the split
    Psi = mu ^ phi + star phi holds (vol^ = i_V vol); the Hitchin bilinear
    form of i_V Psi is definite with respect to the opposite one, so tau0,
    tau2, tau3 pick up a sign when the two disagree.
    """
    sl = red.transverse
    struct = g2_assemble(red.phi, sl)
    if not struct.geometry._is_identity:
        raise ReductionError("reduced 3-form does not induce the slice metric")
    flip = struct.geometry.orientation_sign != sl.geometry.orientation_sign
    return struct, TorsionClasses("g2", {
        name: -x if flip and name in ("tau0", "tau2", "tau3") else x
        for name, x in struct.torsion.components.items()
    })


def _su3_verifier(red: ReductionResult, vhat_ad: VectorField, beta_ad: KForm) -> dict:
    """The displayed transverse identities of the SU(3) quotient of G2."""
    sl, struct, rt, df_sl = red.transverse, red.reduced_structure, red.reduced_torsion, red.df_slice
    unit = red.structure
    field = sl.field
    omega, omega_plus = red.omega, red.omega_plus
    tau0 = unit.torsion["tau0"]
    om_min = struct.form("omega_minus")
    om2 = wedge(omega, omega)
    table = {
        "sigma0 = 1/2": rt["sigma0"] == field.scalar(1, 2),
        "sigma2 = 0": rt["sigma2"].is_zero(),
        "pi2 = 0": rt["pi2"].is_zero(),
        "nu1 = df/2": rt["nu1"] == df_sl.scale(field.scalar(1, 2)),
        "pi1 = df": rt["pi1"] == df_sl,
        "pi0 = 7/12 tau0": rt["pi0"] == field.scalar(7, 12) * tau0,
    }
    # nu3 = (1/8) tau0 Omega- + (1/4) df ^ omega - i_V(star tau3)
    st_ad = sl.to_adapted.move(hodge_star(unit.torsion["tau3"], unit.geometry))
    iv_st = sl.restrict(interior(vhat_ad, st_ad), "i_V star tau3")
    nu3_expected = om_min.scale(field.scalar(1, 8) * tau0) + wedge(df_sl, omega).scale(field.scalar(1, 4)) - iv_st
    table["nu3 identity"] = rt["nu3"] == nu3_expected
    # e^f d(e^-f Omega-) = 1/2 omega^2 and e^f d(e^-f Omega+) = (7/12) tau0 omega^2;
    # the slice structure's torsion classes already took both d's on the slice
    dmin = struct.d_form("omega_minus") - wedge(df_sl, om_min)
    table["d Omega- identity"] = dmin == om2.scale(field.scalar(1, 2))
    dplus = struct.d_form("omega_plus") - wedge(df_sl, omega_plus)
    table["d Omega+ identity"] = dplus == om2.scale(field.scalar(7, 12) * tau0)
    # Lee form of the reduced structure equals df
    table["theta_omega = df"] = struct.lee == df_sl
    # H^ = d^c omega + N, the closed formula for the reduced structure's H
    table["H^ = d^c omega + N"] = red.h_hat_slice == struct.h
    # F = d theta in Lambda^{1,1}_0: d mu ^ Omega- = 0 and d mu ^ omega^2 = 0
    table["F wedge Omega- = 0"] = wedge(red.flux_slice, om_min).is_zero()
    table["F wedge omega^2 = 0"] = wedge(red.flux_slice, om2).is_zero()
    return table


def _g2_verifier(red: ReductionResult, vhat_ad: VectorField, beta_ad: KForm) -> dict:
    """The transverse identities of the G2 quotient of Spin(7)."""
    sl, struct, rt, df_sl, phi = red.transverse, red.reduced_structure, red.reduced_torsion, red.df_slice, red.phi
    unit = red.structure
    table = {
        "tau0 = -6/7": rt["tau0"] == sl.field.scalar(-6, 7),
        "tau2 = 0": rt["tau2"].is_zero(),
    }
    # star phi in the i_V vol orientation: the slice structure built it and
    # its torsion classes took d of it on the slice; both metrics are the
    # identity, so the two differ by the orientation flip alone
    star_phi, d_star_phi = struct.form("star_phi"), struct.d_form("star_phi")
    if struct.geometry.orientation_sign != sl.geometry.orientation_sign:
        star_phi, d_star_phi = -star_phi, -d_star_phi
    table["d star-phi identity"] = (d_star_phi - wedge(df_sl, star_phi)).is_zero()
    # star tau3 = (3/28) theta_phi ^ phi - i_V zeta5 (orientation-free 4-form)
    iv_z = sl.restrict(interior(vhat_ad, sl.to_adapted.move(unit.torsion["zeta5"])), "i_V zeta5")
    lhs = hodge_star(rt["tau3"], sl.geometry)
    table["star tau3 identity"] = lhs == wedge(rt["lee"], phi).scale(sl.field.scalar(3, 28)) - iv_z
    table["theta_phi = df"] = rt["lee"] == df_sl
    # Psi = mu ^ phi + star phi: the remainder of the split is star phi
    table["Psi = mu^phi + star phi"] = beta_ad == sl.embed(star_phi)
    # d theta_Psi lands in Lambda^2_21 upstairs and Lambda^2_14 downstairs
    dtheta = unit.d(unit.torsion["lee"])
    table["d theta in Lambda^2_21"] = project(unit, dtheta)["7"].is_zero()
    table["d theta in Lambda^2_14"] = project(struct, sl.pull(dtheta, "d theta"))["7"].is_zero()
    # H^ = H_phi of the reduced structure: the formula reads tau2, zero in
    # either orientation, and the Lee form, which the flip leaves alone
    table["H^ = H_phi"] = red.h_hat_slice == struct.h
    return table


def _unit_length(s: GStructure, v: VectorField) -> tuple[GStructure, VectorField]:
    """s and its canonical vector V after the constant rescaling g -> lam^2 g,
    lam = |V|, that makes V unit length; s and V themselves when |V| = 1.

    The rescaling scales V by lam^{-2} and each form of degree k (3 or 4) by
    lam^k, so nothing is reassembled.  The copy inherits the input's
    analysis instead of re-running it: the connections and the Bismut Ricci
    tensor are unchanged, and, torsion being first order, each degree-k
    torsion class and H scale by lam^(k-1) while theta is unchanged.
    """
    geom, field = s.geometry, s.field
    lam2 = geom.norm_sq(v)
    if (lam2 - field.one()).is_zero():
        return s, v
    try:
        lam = lam2.sqrt()
    except NotRepresentable as exc:
        raise ReductionError(f"|V| = sqrt({lam2}) is not in the scalar field; rerun with field sqrt d") from exc
    scaled = FrameGeometry(s.n, field, geom._metric.scale(lam2), orientation_sign=geom.orientation_sign)
    power = {-1: lam.inverse(), 1: lam, 2: lam2, 3: lam * lam2, 4: lam2 * lam2}  # lam^e
    unit = GStructure(s.kind, _on_metric(s.frame, scaled), {name: f.scale(power[f.k]) for name, f in s.forms.items()})
    unit.torsion = TorsionClasses(s.kind, {name: _rescaled(x, power) for name, x in s.torsion.components.items()})
    unit.lee, unit.h = s.lee, s.h.scale(lam2)
    unit.levi_civita, unit.bismut, unit._bismut_ricci = s.levi_civita, s.bismut, s._bismut_ricci
    return unit, v.scale(lam2.inverse())


def _rescaled(x, power: dict):
    """A torsion piece of degree k (a Scalar: k = 0) under g -> lam^2 g: x
    times lam^(k-1), ``power[e]`` being lam^e."""
    if not isinstance(x, KForm):
        return x * power[-1]
    return x if x.k == 1 else x.scale(power[x.k - 1])


# kind -> (the reduced structure, its verifier table); the kind's parallel
# form and the reduced kind's forms are ``KINDS`` slots
_REDUCTIONS = {"g2": (_su3_of_g2, _su3_verifier), "spin7": (_g2_of_spin7, _g2_verifier)}


def raw_reduction(s: GStructure) -> dict | None:
    """The unnormalized presentation of the reduction of a G2 or Spin(7)
    structure, in the ambient frame: the parallel form split along
    theta^sharp as mu_g ^ alpha + beta, with the gauge covector
    mu_g = e^{j0} / (theta#)^{j0} at the first index j0 where theta^sharp is
    nonzero, and the flux d theta.  Returns the reduced kind's forms (alpha,
    then beta where the reduced structure keeps it) and ``flux``, in report
    order, or None when theta = 0: there is no split along the zero vector,
    for any kind."""
    reduces_to = KINDS[s.kind].reduces_to
    if reduces_to is None:
        raise StructureError(f"no canonical reduction for kind {s.kind!r}")
    theta = s.torsion["lee"]
    if theta.is_zero():
        return None
    names = [slot for slot, *_ in KINDS[reduces_to].slots]
    w = musical_inv(theta, s.geometry)
    # only beta needs the gauge covector
    mu_g = _gauge_covector(w) if len(names) > 1 else None
    split = split_parallel_form(s.form(KINDS[s.kind].slots[0][0]), w, mu_g)
    return {**dict(zip(names, split)), "flux": s.frame.d(theta)}


def _reduce(s: GStructure, df: KForm | None, kind: str) -> ReductionResult:
    """The canonical reduction of a G2 or Spin(7) structure: split its
    parallel form along V as mu ^ alpha + beta, move the pieces to the
    slice, and verify the reduced structure."""
    reduced_structure, verifier = _REDUCTIONS[kind]
    if s.kind != kind:
        raise StructureError(f"reduce_{kind} needs {KINDS[kind].noun}")
    form_name = KINDS[kind].slots[0][0]
    # (slot, label for restrict): i_V of the form, then the remainder beta of
    # the split where the reduced structure keeps it
    reduced = [(slot, name) for slot, name, *_ in KINDS[KINDS[kind].reduces_to].slots]
    df = df if df is not None else KForm.zero(s.n, 1, s.field)
    v = canonical_vector(s, df)
    if v.is_zero():
        raise ReductionError("rigid case: V = 0, no reduction")
    unit, v = _unit_length(s, v)
    red = reduce_pair(unit, v)
    sl = red.transverse
    # V is unit and last in the adapted frame, and A B^T = 1 gives A V = e_n
    vhat_ad = VectorField.basis(s.n, s.field, s.n)
    split = split_parallel_form(sl.to_adapted.move(unit.form(form_name)), vhat_ad, sl.to_adapted.move(red.mu))
    red.forms = {name: sl.restrict(x, label) for (name, label), x in zip(reduced, split)}
    red.reduced_structure, red.reduced_torsion = reduced_structure(red)
    # df, F and H^ move to the slice once; the residual and the verifier read them
    red.df_slice = sl.pull(df, "df")
    red.flux_slice = sl.pull(red.flux, "F")
    red.h_hat_slice = sl.pull(red.h_hat, "H^")
    grs = string_residual_on_slice(red, df)
    red.verifier = {**verifier(red, vhat_ad, split[1]), **grs}
    return red


def reduce_g2(s: GStructure, df: KForm | None = None) -> ReductionResult:
    """Reduce a strong-torsion G2 structure along V = theta^sharp - grad f."""
    return _reduce(s, df, "g2")


def reduce_spin7(s: GStructure, df: KForm | None = None) -> ReductionResult:
    """Reduce a strong-torsion Spin(7) structure along V = (7/6) theta^sharp - grad f."""
    return _reduce(s, df, "spin7")


def splitting_check(red: ReductionResult) -> dict:
    """The three equivalent splitting conditions
    (1) d H^ = 0, (2) d mu = 0, (3) D mu = 0 (Levi-Civita)."""
    s = red.structure
    c1 = red.dh_hat.is_zero()
    c2 = red.flux.is_zero()
    c3 = covariant_derivative_oneform(s.frame, s.levi_civita, red.mu).is_zero()
    if not (c1 == c2 == c3):
        raise ReductionError("splitting conditions failed to be equivalent")
    return {"dH_hat = 0": c1, "d mu = 0": c2, "D mu = 0": c3}


def central_extend(structure: GStructure, flux: KForm, target: str, df: KForm | None = None) -> dict:
    """Append a generator e0 with d e0 = F and build the extended structure.

    The inverse of the reduction: the parallel form is mu ^ alpha + beta with
    mu = e^0 and (alpha, beta) = (omega, Omega+) for the G2 target,
    (phi, -star phi) for the Spin(7) target.  G2 target needs SU(3) input
    with sigma0 = 1/2, pi0 constant and theta_omega = df; Spin(7) target
    needs constant-type G2 input with theta_phi = df.  The anomaly
    dH^ + F ^ F must vanish (Bianchi), H^ being the input's skew torsion.
    """
    frame = structure.frame
    field = frame.field
    n = frame.n
    df = df if df is not None else KForm.zero(n, 1, field)
    if flux.k != 2:
        raise ReductionError("flux must be a 2-form")
    if not frame.d(flux).is_zero():
        raise ReductionError("flux must be closed")
    base = KINDS[target].reduces_to if target in KINDS else None
    if base is None:
        raise ReductionError(f"unknown extension target {target!r}")
    if structure.kind != base:
        raise ReductionError(f"{target} extension needs {KINDS[base].noun} on n = {KINDS[base].dim}")
    problems = []
    t = structure.torsion
    if target == "g2":
        if not (t["sigma0"] - field.scalar(1, 2)).is_zero():
            problems.append(f"sigma0 = {t['sigma0']} != 1/2")
        if structure.lee != df:
            problems.append("theta_omega != df")
        alpha, beta, assemble, sign = structure.form("omega"), structure.form("omega_plus"), g2_assemble, 1
    else:  # spin7
        if t["lee"] != df:
            problems.append("theta_phi != df")
        # Psi = mu ^ phi + star phi holds in the volume convention
        # vol = mu ^ vol^, which is the reverse of the 3-form's own
        # orientation; the 4-form and the ambient orientation both pick up
        # a sign.
        alpha = structure.form("phi")
        beta, assemble, sign = -hodge_star(alpha, structure.geometry), spin7_assemble, -1
    h_hat = structure.h
    if not (frame.d(h_hat) + wedge(flux, flux)).is_zero():
        raise ReductionError("Bianchi obstruction: d H^ + F ^ F != 0")
    if problems:
        raise ReductionError("extension hypotheses violated: " + "; ".join(problems))

    g = structure.geometry._metric
    p, q = ({(i + 1, j + 1): v for (i, j), v in part.items()} for part in (g._p, g._q))
    metric = _from_ints(field, g._den, {(0, 0): g._den, **p}, q)
    geom = FrameGeometry(n + 1, field, metric, orientation_sign=structure.geometry.orientation_sign * sign)
    new_frame = LieAlgebraFrame(
        ["e0"] + list(frame.labels), [_shift(flux)] + [_shift(d) for d in frame.coframe_d], geom
    )
    mu = KForm(n + 1, 1, field, {1: field.one()})
    form = wedge(mu, _shift(alpha)) + _shift(beta)
    ext = assemble(form, new_frame)
    h_up = wedge(mu, _shift(flux)) + _shift(h_hat)
    if not new_frame.d(h_up).is_zero():
        raise ReductionError("extension failed to be strong torsion: d H != 0")
    return {
        "frame": new_frame,
        "structure": ext,
        "form": form,
        "h": h_up,
        "mu": mu,
        "strong": True,
        "torsion_matches": ext.h == h_up,
    }


def _shift(form: KForm) -> KForm:
    """The form in the frame (e0, e1, ..., en): every index moves up by one."""
    p, q = ({m << 1: v for m, v in part.items()} for part in (form._p, form._q))
    return _from_body(form.n + 1, form.k, form.field, form._den, p, q)
