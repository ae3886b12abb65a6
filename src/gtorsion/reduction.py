"""Symmetry reduction along a Bismut-parallel vector field and its converse.

Reduction happens at the Lie-algebra level: an adapted orthonormal frame is
built with V/|V| last, the transverse geometry lives on the first n-1
directions, and the quotient differential acts on basic forms (killed by
i_V and L_V) through the ambient one.  The quotient of a group by a
non-ideal direction is not itself a Lie algebra, so transverse curvature
uses the submersion identity

    Rc^{q}(X, Y) = Rc^{ambient}(X, Y) + <i_X F, i_Y F>      (X, Y horizontal)

for the quotient Bismut connection, with F = d mu.
"""

from __future__ import annotations

from fractions import Fraction

from .forms import (
    FrameGeometry,
    KForm,
    VectorField,
    _mat_inverse,
    contract_2_3,
    hodge_star,
    indices_of,
    interior,
    musical,
    musical_inv,
    two_form_square,
    wedge,
)
from .frames import (
    LieAlgebraFrame,
    bismut_connection,
    change_frame,
    covariant_derivative_oneform,
    curvature,
    levi_civita,
    transform_form,
    transform_vector,
)
from .scalars import NotRepresentable, Scalar
from .structures import (
    GStructure,
    StructureError,
    TorsionClasses,
    bismut_torsion,
    g2_assemble,
    project,
    spin7_assemble,
    su3_assemble,
)
from .soliton import canonical_vector

__all__ = [
    "ReductionError",
    "AdaptedFrame",
    "TransverseSlice",
    "ReductionResult",
    "adapt_frame",
    "reduce_pair",
    "split_parallel_form",
    "reduce_g2",
    "reduce_spin7",
    "splitting_check",
    "central_extend",
]


class ReductionError(ValueError):
    pass


class AdaptedFrame:
    """Orthonormal frame with V/|V| as the last vector.

    ``frame``: the rotated LieAlgebraFrame; ``a_rows``: coframe change
    f = A e; ``to_adapted``/``to_ambient`` move forms between frames.
    """

    def __init__(self, frame: LieAlgebraFrame, a_rows, ainv, base_frame):
        self.frame = frame
        self.a_rows = a_rows
        self.ainv = ainv
        self.base_frame = base_frame

    def to_adapted(self, form: KForm) -> KForm:
        # old coframe in the new: e^j = sum_i ainv[j][i] f^i
        return transform_form(form, self.ainv, self.frame.field)

    def to_ambient(self, form: KForm) -> KForm:
        return transform_form(form, self.a_rows, self.frame.field)

    def vector_to_adapted(self, x: VectorField) -> VectorField:
        return transform_vector(x, self.a_rows, self.frame.field)


def adapt_frame(frame: LieAlgebraFrame, v: VectorField, geometry=None) -> AdaptedFrame:
    """Gram-Schmidt an orthonormal frame around V (placed last, normalized).

    Requires L_V g = 0 (V Killing); errors when a norm has no square root
    in the scalar field.
    """
    geom = geometry or frame.geometry
    field = frame.field
    n = frame.n
    if v.is_zero():
        raise ReductionError("V = 0: nothing to reduce along")
    _check_killing(frame, v, geom)
    pivot = next(i for i, c in enumerate(v.components) if not c.is_zero())
    order = [i for i in range(n) if i != pivot]
    basis = []
    for i in order:
        w = VectorField.basis(n, field, i + 1)
        # subtract projections onto V and the vectors built so far
        for u in [v] + basis:
            c = geom.g(w, u) / geom.norm_sq(u)
            if not c.is_zero():
                w = w - u.scale(c)
        if w.is_zero():
            raise ReductionError("degenerate complement while adapting the frame")
        basis.append(w)
    vecs = basis + [v]
    normed = []
    for w in vecs:
        try:
            nrm = geom.norm_sq(w).sqrt()
        except NotRepresentable as exc:
            raise ReductionError(
                f"cannot normalize adapted frame: |w|^2 = {geom.norm_sq(w)} has no sqrt in {field!r}"
            ) from exc
        normed.append(w.scale(nrm.inverse()))
    # coframe rows: f^i = A[i][.] e^. with A = (B^{-1})^T for B rows the vectors
    b = [[x for x in w.components] for w in normed]
    binv = _mat_inverse(b, field)
    a_rows = [[binv[j][i] for j in range(n)] for i in range(n)]
    labels = [f"f{i}" for i in range(1, n)] + ["mu"]
    new_frame = change_frame(frame, a_rows, new_labels=labels, base_geometry=geom)
    ainv = _mat_inverse(a_rows, field)
    return AdaptedFrame(new_frame, a_rows, ainv, frame)


def _check_killing(frame, v: VectorField, geom):
    n = frame.n
    for i in range(n):
        x = frame.basis_vector(i + 1)
        for j in range(i, n):
            y = frame.basis_vector(j + 1)
            val = geom.g(frame.bracket(v, x), y) + geom.g(x, frame.bracket(v, y))
            if not val.is_zero():
                raise ReductionError(
                    f"V is not Killing: L_V g ({frame.labels[i]}, {frame.labels[j]}) != 0"
                )


class TransverseSlice:
    """The (n-1)-dimensional transverse geometry inside an adapted frame.

    Forms live on the first n-1 indices; ``d`` delegates to the ambient
    differential and insists the result is basic (no mu component and
    invariant), naming the offending generator otherwise.
    """

    def __init__(self, adapted: AdaptedFrame):
        amb = adapted.frame
        self.ambient = amb
        self.adapted = adapted
        self.n = amb.n - 1
        self.field = amb.field
        m = self.n
        sub = [[amb.geometry.metric[i][j] for j in range(m)] for i in range(m)]
        # transverse volume convention: vol^ = i_V vol (so mu ^ vol^ = vol),
        # V being the last adapted vector
        sign = amb.geometry.orientation_sign * (1 if (amb.n - 1) % 2 == 0 else -1)
        self.geometry = FrameGeometry(m, self.field, sub, orientation_sign=sign)
        self.labels = amb.labels[: self.n]

    def embed(self, a: KForm) -> KForm:
        return KForm(self.ambient.n, a.k, self.field, dict(a.coeffs))

    def restrict(self, a: KForm, context: str = "form") -> KForm:
        mu_bit = 1 << (self.ambient.n - 1)
        for mask in a.coeffs:
            if mask & mu_bit:
                raise ReductionError(f"{context} is not basic: carries a mu component")
        return KForm(self.n, a.k, self.field, dict(a.coeffs))

    def d(self, a: KForm) -> KForm:
        amb = self.embed(a)
        da = self.ambient.d(amb)
        mu_bit = 1 << (self.ambient.n - 1)
        for mask in da.coeffs:
            if mask & mu_bit:
                bad = indices_of(mask)
                raise ReductionError(
                    "quotient differential left the basic complex at generator "
                    + "^".join(self.ambient.labels[i - 1] for i in bad)
                )
        return KForm(self.n, a.k + 1, self.field, dict(da.coeffs))

    def bracket(self, x: VectorField, y: VectorField) -> VectorField:
        xa = VectorField(self.ambient.n, self.field, list(x.components) + [self.field.zero()])
        ya = VectorField(self.ambient.n, self.field, list(y.components) + [self.field.zero()])
        br = self.ambient.bracket(xa, ya)
        return VectorField(self.n, self.field, br.components[: self.n])

    def basis_vector(self, i: int) -> VectorField:
        return VectorField.basis(self.n, self.field, i)

    def as_lie_frame(self) -> LieAlgebraFrame:
        """Materialize the quotient as a Lie algebra frame when the projected
        structure constants close (V spans an ideal direction); raises
        FrameError otherwise."""
        m = self.n
        mu_bit = 1 << (self.ambient.n - 1)
        dlist = []
        for i in range(m):
            amb = self.ambient.coframe_d[i]
            kept = {mask: c for mask, c in amb.coeffs.items() if not mask & mu_bit}
            dlist.append(KForm(m, 2, self.field, kept))
        return LieAlgebraFrame(list(self.labels), dlist, self.geometry)


class ReductionResult:
    # the structure reduced along v, once a reduction sets it; its analysis
    # supplies the Levi-Civita connection of (frame, geometry)
    structure = None

    def __init__(self, **kw):
        self.__dict__.update(kw)
        self.verifier = kw.get("verifier", {})

    def verifier_ok(self) -> bool:
        return all(bool(v) for v in self.verifier.values())

    # the orthonormal adapted frame needs square roots of the complement
    # norms, which can leave the scalar field; build it only when used
    @property
    def adapted(self) -> AdaptedFrame:
        cached = self.__dict__.get("_adapted")
        if cached is None:
            cached = adapt_frame(self.frame, self.v, self.geometry)
            self.__dict__["_adapted"] = cached
        return cached

    @property
    def transverse(self) -> TransverseSlice:
        cached = self.__dict__.get("_transverse")
        if cached is None:
            cached = TransverseSlice(self.adapted)
            self.__dict__["_transverse"] = cached
        return cached


def reduce_pair(frame, h: KForm, v: VectorField, normalize: bool = False, geometry=None) -> ReductionResult:
    """String-ansatz split along a Bismut-parallel unit V:
    mu = V^flat, F = d mu, g = mu x mu + g^, H = mu ^ F + H^ with H^ basic."""
    geom = geometry or frame.geometry
    field = frame.field
    if normalize:
        nrm2 = geom.norm_sq(v)
        if nrm2.is_zero():
            raise ReductionError("V = 0: nothing to reduce along")
        try:
            v = v.scale(nrm2.sqrt().inverse())
        except NotRepresentable as exc:
            raise ReductionError(f"|V| = sqrt({nrm2}) is not in the scalar field") from exc
    elif not (geom.norm_sq(v) - field.one()).is_zero():
        raise ReductionError("|V| != 1 (pass normalize=True to rescale)")
    mu = musical(v, geom)
    f2 = frame.d(mu)
    if f2 != interior(v, h):
        raise ReductionError("d mu != i_V H: V is not Bismut-parallel for this torsion")
    h_hat = h - wedge(mu, f2)
    if not interior(v, h_hat).is_zero():
        raise ReductionError("H^ is not basic: i_V H^ != 0")
    if not interior(v, frame.d(h_hat)).is_zero():
        raise ReductionError("H^ is not basic: L_V H^ != 0")
    anomaly = frame.d(h_hat) + wedge(f2, f2)
    return ReductionResult(
        frame=frame,
        geometry=geom,
        v=v,
        mu=mu,
        flux=f2,
        h=h,
        h_hat=h_hat,
        anomaly=anomaly,
    )


def split_parallel_form(phi: KForm, v: VectorField, mu: KForm):
    """phi = mu ^ alpha + beta with alpha = i_V phi, beta the remainder."""
    alpha = interior(v, phi)
    beta = phi - wedge(mu, alpha)
    return alpha, beta


def _slice_form(red: ReductionResult, ambient_form: KForm, context: str) -> KForm:
    ad = red.adapted.to_adapted(ambient_form)
    return red.transverse.restrict(ad, context)


def string_residual_on_slice(red: ReductionResult, df_slice: KForm):
    """String-GRS residual triple for the transverse data (g^, F, H^, f).

    Slot 1 uses the submersion identity Rc^q = Rc^ambient|hor + <i.F, i.F>
    (see module docstring) combined with the endomorphism-square F^2 term,
    slots 2 and 3 are computed directly on the slice.
    """
    sl = red.transverse
    field = sl.field
    m = sl.n
    amb = sl.ambient
    # ambient Bismut data in the adapted frame
    h_ad = red.adapted.to_adapted(red.h)
    conn = bismut_connection(amb, h_ad, amb.geometry)
    cur = curvature(amb, conn, amb.geometry)
    f_sl = _slice_form(red, red.flux, "F")
    fsq = two_form_square(f_sl, sl.geometry)
    df_amb = KForm(amb.n, 1, field, dict(df_slice.coeffs))
    ndf = covariant_derivative_oneform(amb, conn, df_amb)
    # Rc^q + F^2_endo + nabla df = (Rc^amb + F^2_pos) - F^2_pos + nabla df
    slot1 = [[cur.ricci[i][j] + ndf[i][j] for j in range(m)] for i in range(m)]
    # one-form equation: d*F - <F, H^> + i_{df#} F on the slice
    h_hat_sl = _slice_form(red, red.h_hat, "H^")
    star_f = hodge_star(f_sl, sl.geometry)
    dstar = sl.d(star_f)
    sign = -1 if (m * (2 + 1) + 1) % 2 else 1
    codiff_f = hodge_star(dstar, sl.geometry).scale(sign)
    xvec = musical_inv(df_slice, sl.geometry)
    slot2 = codiff_f - contract_2_3(f_sl, h_hat_sl, sl.geometry) + interior(xvec, f_sl)
    slot3 = red.anomaly
    return slot1, slot2, slot3


def _scale_check(name, lhs, rhs, table):
    table[name] = lhs == rhs if not isinstance(lhs, Scalar) else (lhs - rhs).is_zero()


def reduce_g2(s: GStructure, df: KForm | None = None, raw: bool = False) -> ReductionResult:
    """Reduce a strong-torsion G2 structure along V = theta^sharp - grad f.

    ``raw=True`` reproduces the unnormalized presentation: the pair
    (i_{theta#} phi, phi - mu_g ^ i_{theta#} phi) in the ambient frame,
    with the gauge covector mu_g = e^{j0} / V^{j0} at the first index j0
    where V is nonzero.
    """
    if s.kind != "g2":
        raise StructureError("reduce_g2 needs a G2 structure")
    field = s.field
    frame = s.frame
    geom = s.geometry
    torsion = s.torsion
    if not torsion["tau2"].is_zero():
        raise StructureError("tau2 != 0: no skew-torsion connection for this G2 structure")
    df = df if df is not None else KForm.zero(7, 1, field)
    theta = torsion["lee"]
    v = canonical_vector(s, df)
    if v.is_zero():
        raise ReductionError("rigid case: V = 0, no reduction")
    h = s.h
    phi = s.form("phi")
    if raw:
        w = musical_inv(theta, geom)
        omega_raw = interior(w, phi)
        j0 = next(i for i, c in enumerate(w.components) if not c.is_zero())
        mu_g = KForm(7, 1, field, {1 << j0: w.components[j0].inverse()})
        return ReductionResult(
            frame=frame, geometry=geom, v=w, mu=mu_g,
            omega=omega_raw, omega_plus=phi - wedge(mu_g, omega_raw),
            flux=frame.d(theta), h=h, raw=True,
        )

    # Unit-symmetry normalization: phi -> lam^3 phi rescales g -> lam^2 g and
    # theta-sharp by lam^{-2}, making the canonical vector unit length.
    lam2 = geom.norm_sq(v)
    if not (lam2 - field.one()).is_zero():
        try:
            lam = lam2.sqrt()
        except NotRepresentable as exc:
            raise ReductionError(
                f"|V| = sqrt({lam2}) is not in the scalar field; rerun with field sqrt d"
            ) from exc
        phi = phi.scale(lam * lam2)
        s = g2_assemble(phi, frame)
        geom = s.geometry
        torsion = s.torsion
        v = canonical_vector(s, df)
        h = s.h

    red = reduce_pair(frame, h, v, normalize=True, geometry=geom)
    red.structure = s
    sl = red.transverse
    vhat = red.v
    muhat = red.mu
    phi_ad = red.adapted.to_adapted(phi)
    vhat_ad = red.adapted.vector_to_adapted(vhat)
    omega_ad = interior(vhat_ad, phi_ad)
    omega = sl.restrict(omega_ad, "omega")
    mu_ad = red.adapted.to_adapted(muhat)
    omega_plus = sl.restrict(phi_ad - wedge(mu_ad, omega_ad), "Omega+")
    struct = su3_assemble(omega, omega_plus, sl)
    if struct.geometry.orientation_sign != sl.geometry.orientation_sign:
        raise ReductionError("reduced pair orients the slice the wrong way")
    red.reduced_structure = struct
    rt = struct.torsion
    red.reduced_torsion = rt
    df_sl = _slice_form(red, df, "df") if not df.is_zero() else KForm.zero(sl.n, 1, field)
    red.df = df_sl

    # verifier: the displayed transverse identities
    tau0 = torsion["tau0"]
    om_min = struct.form("omega_minus")
    om2 = wedge(omega, omega)
    table = {}
    _scale_check("sigma0 = 1/2", rt["sigma0"], field.scalar(Fraction(1, 2)), table)
    table["sigma2 = 0"] = rt["sigma2"].is_zero()
    table["pi2 = 0"] = rt["pi2"].is_zero()
    table["nu1 = df/2"] = rt["nu1"] == df_sl.scale(Fraction(1, 2))
    table["pi1 = df"] = rt["pi1"] == df_sl
    _scale_check("pi0 = 7/12 tau0", rt["pi0"], field.scalar(Fraction(7, 12)) * tau0, table)
    # nu3 = (1/8) tau0 Omega- + (1/4) df ^ omega - i_V(star tau3)
    star_tau3 = hodge_star(torsion["tau3"], geom)
    st_ad = red.adapted.to_adapted(star_tau3)
    iv_st = sl.restrict(interior(vhat_ad, st_ad), "i_V star tau3")
    nu3_expected = om_min.scale(field.scalar(Fraction(1, 8)) * tau0) + wedge(df_sl, omega).scale(Fraction(1, 4)) - iv_st
    table["nu3 identity"] = rt["nu3"] == nu3_expected
    # e^f d(e^-f Omega-) = 1/2 omega^2 and e^f d(e^-f Omega+) = (7/12) tau0 omega^2
    dmin = sl.d(om_min) - wedge(df_sl, om_min)
    table["d Omega- identity"] = dmin == om2.scale(Fraction(1, 2))
    dplus = sl.d(omega_plus) - wedge(df_sl, omega_plus)
    table["d Omega+ identity"] = dplus == om2.scale(field.scalar(Fraction(7, 12)) * tau0)
    # Lee form of the reduced structure equals df
    table["theta_omega = df"] = struct.lee == df_sl
    # H^ = d^c omega + N, the closed formula for the reduced structure's H
    h_hat_sl = _slice_form(red, red.h_hat, "H^")
    table["H^ = d^c omega + N"] = h_hat_sl == struct.h
    # F = d theta in Lambda^{1,1}_0: d mu ^ Omega- = 0 and d mu ^ omega^2 = 0
    f_sl = _slice_form(red, red.flux, "F")
    table["F wedge Omega- = 0"] = wedge(f_sl, om_min).is_zero()
    table["F wedge omega^2 = 0"] = wedge(f_sl, om2).is_zero()
    # string GRS residual triple
    s1, s2, s3 = string_residual_on_slice(red, df_sl)
    table["string GRS slot1"] = all(x.is_zero() for row in s1 for x in row)
    table["string GRS slot2"] = s2.is_zero()
    table["string GRS slot3"] = s3.is_zero()
    red.verifier = table
    red.omega = omega
    red.omega_plus = omega_plus
    return red


def reduce_spin7(s: GStructure, df: KForm | None = None, raw: bool = False) -> ReductionResult:
    """Reduce a strong-torsion Spin(7) structure along V = (7/6) theta^sharp - grad f."""
    if s.kind != "spin7":
        raise StructureError("reduce_spin7 needs a Spin(7) structure")
    field = s.field
    frame = s.frame
    geom = s.geometry
    torsion = s.torsion
    theta = torsion["lee"]
    df = df if df is not None else KForm.zero(8, 1, field)
    v = canonical_vector(s, df)
    if v.is_zero():
        raise ReductionError("rigid case: V = 0, no reduction")
    h = s.h
    psi = s.form("psi")
    if raw:
        w = musical_inv(theta, geom)
        return ReductionResult(
            frame=frame, geometry=geom, v=w,
            phi=interior(w, psi), flux=frame.d(theta), h=h, raw=True,
        )

    # unit-symmetry normalization: Psi -> lam^4 Psi, g -> lam^2 g
    lam2 = geom.norm_sq(v)
    if not (lam2 - field.one()).is_zero():
        try:
            lam = lam2.sqrt()
        except NotRepresentable as exc:
            raise ReductionError(
                f"|V| = sqrt({lam2}) is not in the scalar field; rerun with field sqrt d"
            ) from exc
        psi = psi.scale(lam2 * lam2)
        gscaled = FrameGeometry(
            8, field,
            [[geom.metric[i][j] * lam2 for j in range(8)] for i in range(8)],
            orientation_sign=geom.orientation_sign,
        )
        s = spin7_assemble(psi, frame, geometry=gscaled)
        geom = s.geometry
        torsion = s.torsion
        v = canonical_vector(s, df)
        h = s.h

    red = reduce_pair(frame, h, v, normalize=True, geometry=geom)
    red.structure = s
    sl = red.transverse
    vhat_ad = red.adapted.vector_to_adapted(red.v)
    psi_ad = red.adapted.to_adapted(psi)
    phi_ad = interior(vhat_ad, psi_ad)
    phi = sl.restrict(phi_ad, "phi")
    struct = g2_assemble(phi, sl)
    if not struct.geometry._is_identity:
        raise ReductionError("reduced 3-form does not induce the slice metric")
    red.reduced_structure = struct
    rt_auto = struct.torsion
    # Torsion classes are reported in the orientation for which the split
    # Psi = mu ^ phi + star phi holds (vol^ = i_V vol); the Hitchin bilinear
    # form of i_V Psi is definite with respect to the opposite one, so tau0,
    # tau2, tau3 pick up a sign when the two disagree.
    flip = struct.geometry.orientation_sign != sl.geometry.orientation_sign
    if flip:
        rt = TorsionClasses(
            "g2",
            {
                "tau0": -rt_auto["tau0"],
                "tau1": rt_auto["tau1"],
                "tau2": -rt_auto["tau2"],
                "tau3": -rt_auto["tau3"],
                "lee": rt_auto["lee"],
            },
        )
    else:
        rt = rt_auto
    red.reduced_torsion = rt
    df_sl = _slice_form(red, df, "df") if not df.is_zero() else KForm.zero(sl.n, 1, field)
    red.df = df_sl

    table = {}
    _scale_check("tau0 = -6/7", rt["tau0"], field.scalar(Fraction(-6, 7)), table)
    table["tau2 = 0"] = rt["tau2"].is_zero()
    star_phi_lemma = hodge_star(phi, sl.geometry)  # star in the i_V vol orientation
    table["d star-phi identity"] = (sl.d(star_phi_lemma) - wedge(df_sl, star_phi_lemma)).is_zero()
    # star tau3 = (3/28) theta_phi ^ phi - i_V zeta5 (orientation-free 4-form)
    iv_z = sl.restrict(interior(vhat_ad, red.adapted.to_adapted(torsion["zeta5"])), "i_V zeta5")
    lhs = hodge_star(rt["tau3"], sl.geometry)
    rhs = wedge(rt["lee"], phi).scale(Fraction(3, 28)) - iv_z
    table["star tau3 identity"] = lhs == rhs
    table["theta_phi = df"] = rt["lee"] == df_sl
    # Psi = mu ^ phi + star phi, star in the i_V vol orientation
    mu_ad = red.adapted.to_adapted(red.mu)
    table["Psi = mu^phi + star phi"] = psi_ad == wedge(mu_ad, phi_ad) + KForm(
        8, 4, field, dict(star_phi_lemma.coeffs)
    )
    # d theta_Psi lands in Lambda^2_21 upstairs and Lambda^2_14 downstairs
    dtheta = frame.d(theta)
    up = project(s, dtheta)
    table["d theta in Lambda^2_21"] = up["7"].is_zero()
    dtheta_sl = _slice_form(red, dtheta, "d theta")
    down = project(struct, dtheta_sl)
    table["d theta in Lambda^2_14"] = down["7"].is_zero()
    # H^ = H_phi of the reduced structure
    h_hat_sl = _slice_form(red, red.h_hat, "H^")
    table["H^ = H_phi"] = h_hat_sl == bismut_torsion(struct, rt)
    # string GRS triple with flux (7/6) d theta = d mu
    s1, s2, s3 = string_residual_on_slice(red, df_sl)
    table["string GRS slot1"] = all(x.is_zero() for row in s1 for x in row)
    table["string GRS slot2"] = s2.is_zero()
    table["string GRS slot3"] = s3.is_zero()
    red.verifier = table
    red.phi = phi
    return red


def splitting_check(red: ReductionResult) -> dict:
    """The three equivalent splitting conditions
    (1) d H^ = 0, (2) d mu = 0, (3) D mu = 0 (Levi-Civita)."""
    frame = red.frame
    geom = red.geometry
    c1 = frame.d(red.h_hat).is_zero()
    c2 = red.flux.is_zero()
    lc = red.structure.levi_civita if red.structure is not None else levi_civita(frame, geom)
    dmu = covariant_derivative_oneform(frame, lc, red.mu)
    c3 = all(x.is_zero() for row in dmu for x in row)
    if not (c1 == c2 == c3):
        raise ReductionError("splitting conditions failed to be equivalent")
    return {"dH_hat = 0": c1, "d mu = 0": c2, "D mu = 0": c3}


def central_extend(frame: LieAlgebraFrame, structure: GStructure, flux: KForm, target: str, df: KForm | None = None, h_hat: KForm | None = None, new_label: str = "e0") -> dict:
    """Append a generator e0 with d e0 = F and build the extended structure.

    G2 target needs SU(3) input with sigma0 = 1/2, pi0 constant and
    theta_omega = df; Spin(7) target needs constant-type G2 input with
    theta_phi = df.  The anomaly dH^ + F ^ F must vanish (Bianchi).
    """
    field = frame.field
    n = frame.n
    df = df if df is not None else KForm.zero(n, 1, field)
    if flux.k != 2:
        raise ReductionError("flux must be a 2-form")
    if not frame.d(flux).is_zero():
        raise ReductionError("flux must be closed")
    problems = []
    if target == "g2":
        if structure.kind != "su3" or n != 6:
            raise ReductionError("g2 extension needs an SU(3) structure on n = 6")
        t = structure.torsion
        if not (t["sigma0"] - field.scalar(Fraction(1, 2))).is_zero():
            problems.append(f"sigma0 = {t['sigma0']} != 1/2")
        if structure.lee != df:
            problems.append("theta_omega != df")
        hh = h_hat if h_hat is not None else structure.h
    elif target == "spin7":
        if structure.kind != "g2" or n != 7:
            raise ReductionError("spin7 extension needs a G2 structure on n = 7")
        t = structure.torsion
        if not t["tau2"].is_zero():
            problems.append("tau2 != 0: input admits no skew-torsion connection")
        if t["lee"] != df:
            problems.append("theta_phi != df")
        hh = h_hat if h_hat is not None else structure.h
    else:
        raise ReductionError(f"unknown extension target {target!r}")
    anomaly = frame.d(hh) + wedge(flux, flux)
    if not anomaly.is_zero():
        raise ReductionError("Bianchi obstruction: d H^ + F ^ F != 0")
    if problems:
        raise ReductionError("extension hypotheses violated: " + "; ".join(problems))

    shift = _shift_up(field)
    nn = n + 1
    new_d = [shift(flux, nn)] + [shift(frame.coframe_d[i], nn) for i in range(n)]
    gold = structure.geometry.metric
    gnew = [[field.zero()] * nn for _ in range(nn)]
    gnew[0][0] = field.one()
    for i in range(n):
        for j in range(n):
            gnew[i + 1][j + 1] = gold[i][j]
    # Psi = mu ^ phi + star phi holds in the volume convention vol = mu ^ vol^,
    # which is the reverse of the 3-form's own orientation; the 4-form and the
    # ambient orientation both pick up a sign for the spin7 target.
    sign_ext = structure.geometry.orientation_sign * (-1 if target == "spin7" else 1)
    geom = FrameGeometry(nn, field, gnew, orientation_sign=sign_ext)
    labels = [new_label] + list(frame.labels)
    new_frame = LieAlgebraFrame(labels, new_d, geom)
    mu = KForm(nn, 1, field, {1: field.one()})
    if target == "g2":
        phi = wedge(mu, shift(structure.form("omega"), nn)) + shift(structure.form("omega_plus"), nn)
        ext = g2_assemble(phi, new_frame)
    else:
        phi_ = shift(structure.form("phi"), nn)
        star_phi_ = shift(hodge_star(structure.form("phi"), structure.geometry), nn)
        psi = wedge(mu, phi_) - star_phi_
        ext = spin7_assemble(psi, new_frame)
    h_up = wedge(mu, shift(flux, nn)) + shift(hh, nn)
    if not new_frame.d(h_up).is_zero():
        raise ReductionError("extension failed to be strong torsion: d H != 0")
    h_check = ext.h
    return {
        "frame": new_frame,
        "structure": ext,
        "h": h_up,
        "mu": mu,
        "strong": new_frame.d(h_up).is_zero(),
        "torsion_matches": h_check == h_up,
    }


def _shift_up(field):
    def shift(form: KForm, nn: int) -> KForm:
        return KForm(nn, form.k, field, {m << 1: c for m, c in form.coeffs.items()})

    return shift
