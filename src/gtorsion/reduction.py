"""Symmetry reduction along a Bismut-parallel vector field and its converse.

Reduction happens at the Lie-algebra level: an adapted orthonormal frame is
built with V/|V| last, the transverse geometry lives on the first n-1
directions, and the quotient differential acts on basic forms (killed by
i_V and L_V) through the ambient one.  The adapted frame needs no
elimination: Gram-Schmidt keeps each vector with its covector, the coframe
rows are A = D^{-1} B g (D = diag(|b_i|^2) = 1) with A B^T = 1 checked
exactly, and one minors table of B^T moves every form into the frame.
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
    VectorField,
    _from_body,
    _normalize,
    _support,
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
    transform_vector,
)
from .scalars import GTorsionError, NotRepresentable, _mac, _settle
from .structures import (
    KINDS,
    GStructure,
    StructureError,
    TorsionClasses,
    _on_metric,
    bismut_torsion,
    g2_assemble,
    project,
    spin7_assemble,
    su3_assemble,
)
from .soliton import canonical_vector, flux_residual

__all__ = [
    "ReductionError",
    "AdaptedFrame",
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


class AdaptedFrame:
    """Orthonormal frame with V/|V| as the last vector.

    ``frame``: the rotated LieAlgebraFrame; ``b``: the adapted vectors as
    rows, F_i = sum_k b[i][k] E_k; ``a_rows``: coframe change f = A e with
    A = D^{-1} B g, D = diag(|F_i|^2) = 1, so that A B^T = 1;
    ``old_in_new``: the ``CoframeChange`` for e = B^T f, whose one minors
    table the frame's own differentials and every ``to_adapted`` read.
    """

    def __init__(self, frame: LieAlgebraFrame, a_rows, b, old_in_new: CoframeChange):
        self.frame = frame
        self.a_rows = a_rows
        self.b = b
        self.old_in_new = old_in_new

    def to_adapted(self, form: KForm) -> KForm:
        return self.old_in_new.move(form)

    def vector_to_adapted(self, x: VectorField) -> VectorField:
        return transform_vector(x, self.a_rows, self.frame.field)


def adapt_frame(frame: LieAlgebraFrame, v: VectorField) -> AdaptedFrame:
    """Gram-Schmidt an orthonormal frame around V (placed last, normalized).

    Requires L_V g = 0 (V Killing); errors when a norm has no square root
    in the scalar field.  No elimination runs: the coframe rows
    A = D^{-1} B g are the Gram-Schmidt covectors, A B^T = 1 is checked
    exactly, and B^T moves forms to the new frame.
    """
    field = frame.field
    n = frame.n
    if v.is_zero():
        raise ReductionError("V = 0: nothing to reduce along")
    _check_killing(frame, v)
    built = _gram_schmidt(frame, v)
    b_rows, b_flats = [], []
    for w, w_flat, w_sq in built[1:] + built[:1]:
        try:
            nrm = w_sq.sqrt()
        except NotRepresentable as exc:
            raise ReductionError(
                f"cannot normalize adapted frame: |w|^2 = {w_sq} has no sqrt in {field!r}"
            ) from exc
        inv = nrm.inverse()
        b_rows.append({j: x * inv for j, x in w.items()})
        b_flats.append({j: x * inv for j, x in w_flat.items()})
    one, zero = field.one(), field.zero()
    d = [one] * n  # D = diag(|b_i|^2): the frame is orthonormal
    _check_coframe(b_flats, b_rows, d, field)
    b = [[row.get(j, zero) for j in range(n)] for row in b_rows]
    # A = D^{-1} B g: row i is the covector of b_i over |b_i|^2
    a_rows = [[row.get(j, zero) if di is one else row.get(j, zero) / di for j in range(n)]
              for row, di in zip(b_flats, d)]
    old_in_new = CoframeChange([list(col) for col in zip(*b)], field)  # A^{-1} = B^T
    # det A has the sign of det B: Gram-Schmidt adds earlier rows only, so
    # det B is det [V; e_i, i != p] = (-1)^p V^p over the norms, p the first
    # index where V is nonzero, times (-1)^(n-1) for moving V to the end
    p = next(i for i, c in enumerate(v.components) if not c.is_zero())
    sign = frame.geometry.orientation_sign * v.components[p].sign() * (-1) ** (p + n - 1)
    metric = [[di if i == j else zero for j in range(n)] for i, di in enumerate(d)]
    labels = [f"f{i}" for i in range(1, n)] + ["mu"]
    new_frame = LieAlgebraFrame(
        labels,
        _new_differentials(frame, a_rows, old_in_new),
        FrameGeometry(n, field, metric, orientation_sign=sign),
        check_closure=frame.closed,
    )
    return AdaptedFrame(new_frame, a_rows, b, old_in_new)


def _gram_schmidt(frame: LieAlgebraFrame, v: VectorField) -> list:
    """V, then e_i minus its projections on the vectors before it for each
    i other than the first index where V is nonzero, as triples (u, g u,
    |u|^2) of sparse {index: Scalar} rows.  Classical Gram-Schmidt, equal to
    the modified one in exact arithmetic: <e_i, u> is entry i of g u, one
    lookup."""
    geom, field = frame.geometry, frame.field
    one = field.one()
    metric = [{j: x for j, x in enumerate(row) if not x.is_zero()} for row in geom.metric]
    vec = {i: c for i, c in enumerate(v.components) if not c.is_zero()}
    acc = {}
    for i, c in vec.items():
        for j, x in metric[i].items():
            _mac(acc, j, c, x, False)
    built = [(vec, _settle(field, acc), geom.norm_sq(v))]
    pivot = min(vec)
    for i in range(frame.n):
        if i == pivot:
            continue
        w_acc, flat_acc = {}, {}
        _mac(w_acc, i, one, one, False)
        for j, x in metric[i].items():
            _mac(flat_acc, j, x, one, False)
        for u, u_flat, u_sq in built:
            x = u_flat.get(i)
            if x is not None:
                c = x / u_sq
                for j, y in u.items():
                    _mac(w_acc, j, c, y, True)
                for j, y in u_flat.items():
                    _mac(flat_acc, j, c, y, True)
        w, w_flat = _settle(field, w_acc), _settle(field, flat_acc)
        if not w:
            raise ReductionError("degenerate complement while adapting the frame")
        # |w|^2 = <w, e_i>, w being orthogonal to each u
        built.append((w, w_flat, w_flat.get(i, field.zero())))
    return built


def _check_coframe(flats, rows, d, field):
    """A B^T = 1 exactly for A = D^{-1} B g: the products (B g) B^T of the
    covector rows ``flats`` with the vector rows ``rows`` are diag(d)."""
    cols = {}  # k -> [(j, B[j][k])]
    for j, row in enumerate(rows):
        for k, x in row.items():
            cols.setdefault(k, []).append((j, x))
    acc = {}
    for i, row in enumerate(flats):
        for k, x in row.items():
            for j, y in cols.get(k, ()):
                _mac(acc, (i, j), x, y, False)
    if _settle(field, acc) != {(i, i): di for i, di in enumerate(d)}:
        raise ReductionError("adapted coframe check failed: A B^T != 1")


def _check_killing(frame, v: VectorField):
    """L_V g = 0: (L_V g)(e_i, e_j) = -<[V, e_i], e_j> - <e_i, [V, e_j]>, with
    [V, e_i] = sum_{a,k} V^a c^k_{ai} e_k from one pass over the structure
    constants; names the first failing pair i <= j."""
    field, xs, metric = frame.field, v.components, frame.geometry.metric
    acc = {}
    for (a, i, k), c in frame.constants.items():
        if not xs[a].is_zero():
            _mac(acc, (i, k), xs[a], c, False)
    sym = {}  # (i, j) -> <[V, e_i], e_j> + <[V, e_j], e_i> for i < j (twice it for i = j)
    for (i, k), x in _settle(field, acc).items():
        for j, g in enumerate(metric[k]):
            if not g.is_zero():
                _mac(sym, (i, j) if i <= j else (j, i), x, g, False)
    bad = _settle(field, sym)
    if bad:
        i, j = min(bad)
        raise ReductionError(f"V is not Killing: L_V g ({frame.labels[i]}, {frame.labels[j]}) != 0")


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
        return _from_body(self.ambient.n, a.k, self.field, a._den, a._p, a._q)

    def restrict(self, a: KForm, context: str = "form") -> KForm:
        mu_bit = 1 << (self.ambient.n - 1)
        if any(mask & mu_bit for mask in _support(a)):
            raise ReductionError(f"{context} is not basic: carries a mu component")
        return _from_body(self.n, a.k, self.field, a._den, a._p, a._q)

    def d(self, a: KForm) -> KForm:
        da = self.ambient.d(self.embed(a))
        mu_bit = 1 << (self.ambient.n - 1)
        for mask in _support(da):
            if mask & mu_bit:
                bad = indices_of(mask)
                raise ReductionError(
                    "quotient differential left the basic complex at generator "
                    + "^".join(self.ambient.labels[i - 1] for i in bad)
                )
        return _from_body(self.n, a.k + 1, self.field, da._den, da._p, da._q)

    @cached_property
    def constants(self) -> dict:
        """The ambient structure constants c^k_{ij} with i, j, k all on the
        slice: the bracket of slice vectors, projected to the slice."""
        return {key: c for key, c in self.ambient.constants.items() if max(key) < self.n}

    def as_lie_frame(self) -> LieAlgebraFrame:
        """Materialize the quotient as a Lie algebra frame when the projected
        structure constants close (V spans an ideal direction); raises
        FrameError otherwise."""
        m = self.n
        mu_bit = 1 << (self.ambient.n - 1)
        dlist = []
        for i in range(m):
            amb = self.ambient.coframe_d[i]
            kept = [{mask: v for mask, v in part.items() if not mask & mu_bit} for part in (amb._p, amb._q)]
            dlist.append(_normalize(m, 2, self.field, amb._den, *kept))
        return LieAlgebraFrame(list(self.labels), dlist, self.geometry)


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
    def adapted(self) -> AdaptedFrame:
        return adapt_frame(self.structure.frame, self.v)

    @cached_property
    def transverse(self) -> TransverseSlice:
        return TransverseSlice(self.adapted)


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


def _slice_form(red: ReductionResult, ambient_form: KForm, context: str) -> KForm:
    ad = red.adapted.to_adapted(ambient_form)
    return red.transverse.restrict(ad, context)


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
    ndf = covariant_derivative_oneform(s.frame, s.bismut, df)
    mat = [[r + x for r, x in zip(ric_row, ndf_row)] for ric_row, ndf_row in zip(s.bismut_ricci, ndf)]
    slot1 = transform_bilinear(mat, red.adapted.b[: sl.n], sl.field)
    slot2 = flux_residual(sl, red.flux_slice, red.h_hat_slice, musical_inv(red.df_slice, sl.geometry))
    return {
        "string GRS slot1": all(x.is_zero() for row in slot1 for x in row),
        "string GRS slot2": slot2.is_zero(),
        "string GRS slot3": red.anomaly.is_zero(),
    }


def _gauge_covector(w: VectorField) -> KForm:
    """mu_g = e^{j0} / w^{j0} at the first index j0 where w is nonzero."""
    for j0, c in enumerate(w.components):
        if not c.is_zero():
            return KForm(w.n, 1, w.field, {1 << j0: c.inverse()})
    raise ReductionError("raw reduction needs theta != 0: the gauge covector mu_g = e^j0 / (theta#)^j0 is undefined")


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
    st_ad = red.adapted.to_adapted(hodge_star(unit.torsion["tau3"], unit.geometry))
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
    star_phi = hodge_star(phi, sl.geometry)  # star in the i_V vol orientation
    table["d star-phi identity"] = (sl.d(star_phi) - wedge(df_sl, star_phi)).is_zero()
    # star tau3 = (3/28) theta_phi ^ phi - i_V zeta5 (orientation-free 4-form)
    iv_z = sl.restrict(interior(vhat_ad, red.adapted.to_adapted(unit.torsion["zeta5"])), "i_V zeta5")
    lhs = hodge_star(rt["tau3"], sl.geometry)
    table["star tau3 identity"] = lhs == wedge(rt["lee"], phi).scale(sl.field.scalar(3, 28)) - iv_z
    table["theta_phi = df"] = rt["lee"] == df_sl
    # Psi = mu ^ phi + star phi: the remainder of the split is star phi
    table["Psi = mu^phi + star phi"] = beta_ad == sl.embed(star_phi)
    # d theta_Psi lands in Lambda^2_21 upstairs and Lambda^2_14 downstairs
    dtheta = unit.d(unit.torsion["lee"])
    table["d theta in Lambda^2_21"] = project(unit, dtheta)["7"].is_zero()
    table["d theta in Lambda^2_14"] = project(struct, _slice_form(red, dtheta, "d theta"))["7"].is_zero()
    # H^ = H_phi of the reduced structure
    table["H^ = H_phi"] = red.h_hat_slice == bismut_torsion(struct, rt)
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
    metric = [[x * lam2 for x in row] for row in geom.metric]
    scaled = FrameGeometry(s.n, field, metric, orientation_sign=geom.orientation_sign)
    power = {-1: lam.inverse(), 1: lam, 2: lam2, 3: lam * lam2, 4: lam2 * lam2}  # lam^e
    unit = GStructure(s.kind, _on_metric(s.frame, scaled), {name: f.scale(power[f.k]) for name, f in s.forms.items()})
    unit.torsion = TorsionClasses(s.kind, {name: _rescaled(x, power) for name, x in s.torsion.components.items()})
    unit.lee, unit.h = s.lee, s.h.scale(lam2)
    unit.levi_civita, unit.bismut, unit.bismut_ricci = s.levi_civita, s.bismut, s.bismut_ricci
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


def raw_reduction(s: GStructure) -> dict:
    """The unnormalized presentation of the reduction of a G2 or Spin(7)
    structure, in the ambient frame: the parallel form split along
    theta^sharp as mu_g ^ alpha + beta, with the gauge covector
    mu_g = e^{j0} / (theta#)^{j0} at the first index j0 where theta^sharp is
    nonzero, and the flux d theta.  Returns the reduced kind's forms (alpha,
    then beta where the reduced structure keeps it) and ``flux``, in report
    order."""
    reduces_to = KINDS[s.kind].reduces_to
    if reduces_to is None:
        raise StructureError(f"no canonical reduction for kind {s.kind!r}")
    names = [slot for slot, *_ in KINDS[reduces_to].slots]
    theta = s.torsion["lee"]
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
    ad = red.adapted
    vhat_ad = ad.vector_to_adapted(red.v)
    split = split_parallel_form(ad.to_adapted(unit.form(form_name)), vhat_ad, ad.to_adapted(red.mu))
    red.forms = {name: red.transverse.restrict(x, label) for (name, label), x in zip(reduced, split)}
    red.reduced_structure, red.reduced_torsion = reduced_structure(red)
    # df, F and H^ move to the slice once; the residual and the verifier read them
    red.df_slice = _slice_form(red, df, "df")
    red.flux_slice = _slice_form(red, red.flux, "F")
    red.h_hat_slice = _slice_form(red, red.h_hat, "H^")
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
    dmu = covariant_derivative_oneform(s.frame, s.levi_civita, red.mu)
    c3 = all(x.is_zero() for row in dmu for x in row)
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
        if not t["tau2"].is_zero():
            problems.append("tau2 != 0: input admits no skew-torsion connection")
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

    zero = field.zero()
    metric = [[field.one()] + [zero] * n] + [[zero] + list(row) for row in structure.geometry.metric]
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
