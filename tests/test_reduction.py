"""Symmetry reduction, theorem verifiers, splitting, central extension."""

import random
from collections import Counter
from fractions import Fraction

import pytest

from conftest import (
    Q,
    bracket,
    fixture_structure,
    mat_inverse,
    mat_vec,
    model_form,
    random_posdef_geometry,
    random_vector,
    rotation_matrix,
    rotate_frame_and_forms,
    nonzero_names,
    sheared_text,
    su2su2u1_frame,
    to_ambient,
    with_h,
)
from gtorsion.forms import (
    FrameGeometry,
    KForm,
    VectorField,
    _matrix,
    interior,
    musical,
    wedge,
    hodge_star,
)
from gtorsion.frames import (
    FrameError,
    LieAlgebraFrame,
    bismut_connection,
    covariant_derivative_oneform,
    curvature,
    levi_civita,
    transform_bilinear,
    transform_form,
)
from gtorsion import forms, frames, reduction, registry
from gtorsion.parser import parse
from gtorsion.reduction import (
    ReductionError,
    adapt_frame,
    central_extend,
    raw_reduction,
    reduce_g2,
    reduce_pair,
    reduce_spin7,
    split_parallel_form,
    splitting_check,
)
from gtorsion.scalars import NotRepresentable
from gtorsion.structures import (
    GStructure,
    StructureError,
    g2_assemble,
    spin7_assemble,
    su3_assemble,
    torsion_g2,
)
from gtorsion.soliton import canonical_vector, parallel_certificate


# -- adapt_frame -------------------------------------------------------------


def test_adapt_frame_coordinate_direction():
    s = fixture_structure("nonintG2")
    ad = adapt_frame(s.frame, VectorField.basis(7, s.field, 7))
    # transverse coframe stays e1..e6, mu is e7
    for i in range(7):
        expected = KForm(7, 1, s.field, {1 << i: s.field.one()})
        assert ad.to_adapted.move(expected) == KForm(7, 1, s.field, {1 << i: s.field.one()})


def test_adapt_frame_rotated_direction():
    s = fixture_structure("nonintG2nonclosedLee")
    f = s.field
    v = VectorField(7, f, [0, 0, -1, 1, 0, 0, 0])
    ad = adapt_frame(s.frame, v)
    # the last adapted vector is V/|V| = (e4 - e3)/sqrt2, and the complement
    # contains (e3 + e4)/sqrt2
    half_rt2 = f.sqrt_d() * f.scalar(Fraction(1, 2))
    mu = ad.to_adapted.move(musical(v.scale(f.sqrt_d().inverse() * f.scalar(Fraction(1, 2)).inverse() * f.scalar(Fraction(1, 2))), s.geometry))
    # simpler: the mu coframe element expressed in ambient terms
    amb_mu = to_ambient(ad, KForm(7, 1, f, {1 << 6: f.one()}))
    assert amb_mu == KForm(7, 1, f, {1 << 3: half_rt2, 1 << 2: -half_rt2})
    found = False
    for i in range(6):
        amb = to_ambient(ad, KForm(7, 1, f, {1 << i: f.one()}))
        if amb == KForm(7, 1, f, {1 << 2: half_rt2, 1 << 3: half_rt2}):
            found = True
    assert found


def test_adapt_frame_rejects_nonkilling():
    # every invariant field is Killing for a bi-invariant metric, so use a
    # Heisenberg-type frame where ad is not skew
    d = [KForm.from_terms(7, Q, [((2, 3), 1)])] + [KForm.zero(7, 2, Q)] * 6
    fr = LieAlgebraFrame([f"e{i}" for i in range(1, 8)], d, FrameGeometry(7, Q))
    with pytest.raises(ReductionError, match="Killing"):
        adapt_frame(fr, VectorField.basis(7, Q, 2))


def _first_nonkilling_pair(frame, v):
    """The first i <= j with <[V, e_i], e_j> + <[V, e_j], e_i> != 0, from n
    brackets and n^2 metric pairings; None when V is Killing."""
    geom, n = frame.geometry, frame.n
    basis = [VectorField.basis(n, frame.field, i + 1) for i in range(n)]
    brackets = [bracket(frame, v, e) for e in basis]
    for i in range(n):
        for j in range(i, n):
            if not (geom.g(brackets[i], basis[j]) + geom.g(brackets[j], basis[i])).is_zero():
                return i, j
    return None


def test_killing_check_names_the_first_failing_pair(rng):
    heis = [KForm.from_terms(7, Q, [((2, 3), 1)])] + [KForm.zero(7, 2, Q)] * 6
    # nonintSpin7Two's frame is over QQ(sqrt3), with sqrt3 structure constants
    # and a canonical vector with sqrt3 components
    spin7_two = fixture_structure("nonintSpin7Two")
    assert spin7_two.frame._constants._q and canonical_vector(spin7_two)._q
    outcomes = Counter()
    for coframe_d, field in ((heis, Q), (su2su2u1_frame().coframe_d, Q), (fixture_structure("nonintG2").frame.coframe_d, Q),
                             (spin7_two.frame.coframe_d, spin7_two.field)):
        n = len(coframe_d)
        for metric in ("identity", "spd"):
            geom = FrameGeometry(n, field) if metric == "identity" else random_posdef_geometry(n, field, rng)
            fr = LieAlgebraFrame([f"e{i}" for i in range(1, n + 1)], coframe_d, geom)
            vs = [VectorField.basis(n, field, k) for k in (1, 2, n)] + [random_vector(n, field, rng) for _ in range(3)]
            if field.d:
                vs += [canonical_vector(spin7_two), random_vector(n, field, rng).scale(field.sqrt_d())]
            for v in vs:
                want = _first_nonkilling_pair(fr, v)
                outcomes[field.d, want is None] += 1
                if want is None:
                    reduction._check_killing(fr, v)
                    continue
                with pytest.raises(ReductionError) as exc:
                    reduction._check_killing(fr, v)
                i, j = want
                assert str(exc.value) == f"V is not Killing: L_V g (e{i + 1}, e{j + 1}) != 0"
    assert outcomes[0, True] >= 5 and outcomes[0, False] >= 10
    assert outcomes[3, True] >= 1 and outcomes[3, False] >= 1, outcomes


def test_adapt_frame_rejects_zero():
    s = fixture_structure("nonintG2")
    with pytest.raises(ReductionError):
        adapt_frame(s.frame, VectorField.zero(7, s.field))


def reference_adapted_vectors(frame, v):
    """The adapted vectors B (rows) by modified Gram-Schmidt over VectorField
    arithmetic and full inner products, V/|V| last; the error text instead
    when a norm has no root in the field."""
    geom, field, n = frame.geometry, frame.field, frame.n
    pivot = next(i for i, c in enumerate(v.components) if not c.is_zero())
    built = [(v, geom.norm_sq(v))]
    for i in range(n):
        if i != pivot:
            w = VectorField.basis(n, field, i + 1)
            for u, u_sq in built:
                w = w - u.scale(geom.g(w, u) / u_sq)
            built.append((w, geom.norm_sq(w)))
    rows = []
    for w, w_sq in built[1:] + built[:1]:
        try:
            nrm = w_sq.sqrt()
        except NotRepresentable:
            return f"cannot normalize adapted frame: |w|^2 = {w_sq} has no sqrt in {field!r}"
        rows.append(list(w.scale(nrm.inverse()).components))
    return rows


def _transpose(m):
    return [list(col) for col in zip(*m)]


def check_adapted_frame(frame, v):
    """adapt_frame(frame, v) against the elimination route: B is the
    reference Gram-Schmidt's, A B^T = 1, B g B^T = 1, the last row is V/|V|,
    A is (B^{-1})^T by ``_mat_inverse``, and the frame is the one
    ``change_frame`` builds from that A.  Returns the adapted frame, or None
    when a norm has no root and adapt_frame raises the reference's error."""
    want = reference_adapted_vectors(frame, v)
    if isinstance(want, str):
        with pytest.raises(ReductionError) as exc:
            adapt_frame(frame, v)
        assert str(exc.value) == want
        return None
    ad = adapt_frame(frame, v)
    field, n = frame.field, frame.n
    b, a = ad.b.rows(n), ad.a.rows(n)
    one = [[field.scalar(1 if i == j else 0) for j in range(n)] for i in range(n)]
    assert b == want
    assert [[sum((x * y for x, y in zip(arow, brow)), field.zero()) for brow in b] for arow in a] == one
    assert transform_bilinear(frame.geometry._metric, ad.b).rows(n) == one
    assert b[-1] == list(v.scale(frame.geometry.norm_sq(v).sqrt().inverse()).components)
    a_ref = _transpose(mat_inverse(b, field))
    assert a == a_ref
    ref = frames.change_frame(frame, a_ref, new_labels=ad.ambient.labels)
    assert ad.ambient.coframe_d == ref.coframe_d
    assert ad.ambient.geometry.metric == ref.geometry.metric
    assert ad.ambient.geometry.orientation_sign == ref.geometry.orientation_sign
    return ad


def check_moved_forms(monkeypatch, s):
    """Reduce s and check every form the reduction moves into the adapted
    frame: each goes through the one slice's one change, B^T, and read
    through its minors table it equals ``transform_form`` with a table of
    its own."""
    moved, slices = [], []
    move, adapt = forms.CoframeChange.move, reduction.adapt_frame

    def spy(self, form):
        out = move(self, form)
        moved.append((self, form, out))
        return out

    def spy_adapt(frame, v):
        slices.append(adapt(frame, v))
        return slices[-1]

    monkeypatch.setattr(forms.CoframeChange, "move", spy)
    monkeypatch.setattr(reduction, "adapt_frame", spy_adapt)
    red = (reduce_g2 if s.kind == "g2" else reduce_spin7)(s)
    monkeypatch.undo()
    # one slice per reduction, so one B^T minors table
    assert len(slices) == 1 and slices[0] is red.transverse
    sl = red.transverse
    bt = _transpose(sl.b.rows(s.n))
    # the slice's change also moved the ambient differentials; other changes
    # (J's) move forms of their own, and none of them is a second B^T
    ours = sl.to_adapted
    assert all((c.den, c.rows) != (ours.den, ours.rows) for c, _, _ in moved if c is not ours)
    moved = [(change, form, out) for change, form, out in moved if change is ours]
    for _, form, out in moved:
        assert out == transform_form(form, bt, s.field)
    # the parallel form, mu, df, F and H^, then the verifier's torsion forms
    assert len(moved) >= 6
    for form in (red.mu, red.flux, red.h_hat):
        assert any(x is form for _, x, _ in moved)
    return red


_REDUCIBLE = ["nonintG2", "nonintG2nonclosedLee", "nonintSpin7OneA", "nonintSpin7Two"]


@pytest.mark.parametrize("name", _REDUCIBLE)
def test_adapted_frame_matches_the_elimination_route(name, monkeypatch):
    s = fixture_structure(name)
    unit, v = reduction._unit_length(s, canonical_vector(s))
    if check_adapted_frame(unit.frame, v) is None:
        assert name == "nonintSpin7Two"  # |w|^2 = 3 - sqrt3/2 has no root
        return
    assert check_moved_forms(monkeypatch, s).verifier_ok()


def test_gram_schmidt_reads_the_metric_once(monkeypatch):
    # e_i^flat is row i of g, from one _by_row of the metric, not one
    # musical product per vector; V^flat is the other _by_row (none under
    # the identity), under the rescaled metrics of the unit-|V| copies too
    metrics = set()
    for name in _REDUCIBLE:
        s = fixture_structure(name)
        unit, v = reduction._unit_length(s, canonical_vector(s))
        geom = unit.geometry
        runs = []
        orig = forms._by_row
        for mod in (forms, reduction):
            monkeypatch.setattr(mod, "_by_row", lambda t: runs.append(t) or orig(t))
        built = reduction._gram_schmidt(unit.frame, v, min((*v._p, *v._q)))
        monkeypatch.undo()
        assert len(runs) == (1 if geom._is_identity else 2) and len(built) == s.n
        for u, u_flat, u_sq in built:
            assert u_flat == musical(u, geom) and u_sq == geom.norm_sq(u)
        metrics.add(geom._is_identity)
    assert metrics == {True, False}


@pytest.mark.parametrize("name", ["nonintG2", "nonintG2nonclosedLee", "nonintSpin7OneA"])
def test_adapted_coframe_takes_v_to_the_last_vector(name):
    # the reduction reads V^ in the adapted frame as e_n: V (|V| = 1) is the
    # last adapted vector, and the certificate A B^T = 1 gives A V = e_n
    s = fixture_structure(name)
    red = reduce_g2(s) if "G2" in name else reduce_spin7(s)
    assert mat_vec(red.transverse.a.rows(s.n), red.v) == VectorField.basis(s.n, s.field, s.n)


# -- reduce_pair -------------------------------------------------------------


def test_reduce_pair_roundtrip_identity():
    s = fixture_structure("nonintG2")
    red = reduce_pair(s, canonical_vector(s))
    assert s.h == wedge(red.mu, red.flux) + red.h_hat
    # g = mu (x) mu + g^ holds by construction of the adapted orthonormal frame
    assert red.anomaly.is_zero()
    assert interior(red.v, red.h_hat).is_zero()


def test_reduce_pair_requires_unit_length():
    s = fixture_structure("nonintG2nonclosedLee")
    v = canonical_vector(s)  # |V| = sqrt2
    with pytest.raises(ReductionError, match=r"\|V\| != 1"):
        reduce_pair(s, v)
    red = reduce_pair(*reduction._unit_length(s, v))
    assert red.anomaly.is_zero()


def test_reduce_pair_rejects_nonparallel():
    s = fixture_structure("nonintG2")
    v = VectorField.basis(7, s.field, 1)  # Killing but d mu != i_V H when H = 0
    with pytest.raises(ReductionError, match="parallel"):
        reduce_pair(with_h(s.frame, KForm.zero(7, 3, s.field)), v)


def test_reduce_pair_abelian_trivial():
    fr = LieAlgebraFrame(
        [f"e{i}" for i in range(1, 8)],
        [KForm.zero(7, 2, Q)] * 7,
        FrameGeometry(7, Q),
    )
    red = reduce_pair(with_h(fr, KForm.zero(7, 3, Q)), VectorField.basis(7, Q, 7))
    assert red.flux.is_zero() and red.h_hat.is_zero() and red.anomaly.is_zero()


def test_reduce_pair_basic_checks_oneA():
    s = fixture_structure("nonintSpin7OneA")
    red = reduce_pair(*reduction._unit_length(s, canonical_vector(s)))
    assert interior(red.v, red.h_hat).is_zero()
    assert interior(red.v, s.frame.d(red.h_hat)).is_zero()


# -- split_parallel_form -------------------------------------------------------


def test_split_model_g2():
    phi0 = model_form("g2", 7, Q)
    v = VectorField.basis(7, Q, 7)
    mu = KForm(7, 1, Q, {1 << 6: Q.one()})
    alpha, beta = split_parallel_form(phi0, v, mu)
    assert alpha == KForm.from_terms(7, Q, [((1, 2), 1), ((3, 4), 1), ((5, 6), 1)])
    assert beta == KForm.from_terms(7, Q, [((1, 3, 5), 1), ((1, 4, 6), -1), ((2, 3, 6), -1), ((2, 4, 5), -1)])


def test_split_model_spin7():
    psi0 = model_form("spin7", 8, Q)
    v = VectorField.basis(8, Q, 8)
    mu = KForm(8, 1, Q, {1 << 7: Q.one()})
    alpha, beta = split_parallel_form(psi0, v, mu)
    # beta is the Hodge dual of alpha in the i_V vol orientation of the slice
    alpha7 = KForm(7, 3, Q, dict(alpha.coeffs))
    g7 = FrameGeometry(7, Q, orientation_sign=-1)  # i_{e8} vol = -e^{1..7}
    beta7 = KForm(7, 4, Q, dict(beta.coeffs))
    assert beta7 == hodge_star(alpha7, g7)


def test_split_orthogonal_direction():
    phi = KForm.from_terms(7, Q, [((1, 2, 3), 1)])
    v = VectorField.basis(7, Q, 7)
    mu = KForm(7, 1, Q, {1 << 6: Q.one()})
    alpha, beta = split_parallel_form(phi, v, mu)
    assert alpha.is_zero() and beta == phi


# -- structured reductions ------------------------------------------------------


def test_reduce_g2_fixture_values():
    s = fixture_structure("nonintG2")
    red = reduce_g2(s)
    f = s.field
    assert red.omega == KForm.from_terms(6, f, [((1, 4), 1), ((2, 5), 1), ((3, 6), -1)])
    assert red.omega_plus == KForm.from_terms(
        6, f, [((1, 2, 3), 1), ((1, 5, 6), 1), ((2, 4, 6), -1), ((3, 4, 5), -1)]
    )
    assert nonzero_names(red.reduced_torsion) == ["sigma0", "pi0", "nu3"]
    assert red.reduced_torsion["sigma0"] == f.scalar(Fraction(1, 2))
    assert red.verifier_ok()
    assert all(splitting_check(red).values())


@pytest.mark.parametrize("name", ["nonintG2", "nonintG2nonclosedLee", "nonintSpin7OneA"])
def test_splitting_check_reads_dh_hat_off_the_reduction(monkeypatch, name):
    # reduce_pair takes d H^ for the L_V H^ check and the anomaly; the
    # splitting check reads it there and takes no differential of its own
    red = reduce_g2(fixture_structure(name)) if "G2" in name else reduce_spin7(fixture_structure(name))
    calls = []
    monkeypatch.setattr(frames, "ce_differential", lambda *args: calls.append(args))
    sp = splitting_check(red)
    monkeypatch.undo()
    assert calls == []
    assert sp["dH_hat = 0"] == red.structure.frame.d(red.h_hat).is_zero()


def test_reduce_g2_raw_fixture():
    s = fixture_structure("nonintG2nonclosedLee")
    red = raw_reduction(s)
    f = s.field
    assert list(red) == ["omega", "omega_plus", "flux"]
    assert red["omega"] == KForm.from_terms(
        7, f, [((1, 6), 1), ((2, 5), 1), ((3, 7), -1), ((1, 5), 1), ((2, 6), -1), ((4, 7), -1)]
    )
    assert red["omega_plus"] == KForm.from_terms(
        7, f, [((1, 2, 7), 1), ((1, 4, 6), -1), ((2, 4, 5), -1), ((5, 6, 7), 1), ((1, 3, 6), -1), ((2, 3, 5), -1)]
    )
    assert red["flux"] == KForm.from_terms(7, f, [((5, 6), 1), ((1, 2), -1)])


def test_reduce_g2_nonclosed_verifier():
    s = fixture_structure("nonintG2nonclosedLee")
    red = reduce_g2(s)
    assert red.verifier_ok()
    sp = splitting_check(red)
    assert not any(sp.values())


def test_reduce_g2_rigid_case_errors():
    from test_soliton import s3xt4_g2

    with pytest.raises(ReductionError, match="rigid"):
        reduce_g2(s3xt4_g2())


def test_reduce_spin7_fixture_values():
    s = fixture_structure("nonintSpin7OneA")
    red = reduce_spin7(s)
    assert red.reduced_torsion["tau0"] == s.field.scalar(Fraction(-6, 7))
    assert red.verifier_ok()
    assert not any(splitting_check(red).values())


def test_reduce_spin7_raw_oneA_printed_14_terms():
    s = fixture_structure("nonintSpin7OneA")
    red = raw_reduction(s)
    f = s.field
    c = Fraction(6, 7)
    # i_{theta#} Psi, frame labels e0..e7 at positions 1..8
    expected = KForm.from_terms(8, f, [
        ((2, 3, 4), c), ((2, 3, 5), c), ((1, 2, 6), c), ((1, 3, 6), c),
        ((1, 2, 7), c), ((1, 3, 7), -c), ((4, 6, 7), c), ((5, 6, 7), c),
        ((1, 4, 8), -c), ((1, 5, 8), -c), ((2, 6, 8), c), ((3, 6, 8), -c),
        ((2, 7, 8), -c), ((3, 7, 8), -c),
    ])
    assert list(red) == ["phi", "flux"]
    assert red["phi"] == expected


def test_reduce_spin7_two_raw_and_field_limit():
    s = fixture_structure("nonintSpin7Two")
    assert len(raw_reduction(s)["phi"].coeffs) == 49
    with pytest.raises(ReductionError, match="sqrt"):
        reduce_spin7(s)


@pytest.mark.parametrize("name", ["nonintG2nonclosedLee", "nonintSpin7OneA"])
def test_change_of_basis_matches_adapted_frame_rebuild(name):
    # The reduction moves the ambient Ricci tensor and nabla df into the
    # adapted frame as B M B^T; the reference rebuilds the connection in the
    # adapted frame of the rescaled unit-|V| geometry.
    s = fixture_structure(name)
    f, n = s.field, s.n
    assert not (s.geometry.norm_sq(canonical_vector(s)) - f.one()).is_zero()
    red = (reduce_g2 if s.kind == "g2" else reduce_spin7)(s)
    sl = red.transverse
    ad = sl.ambient
    theta = KForm.from_terms(n, f, [((1,), 1), ((3,), 2)])
    theta_ad = sl.to_adapted.move(theta)
    for conn, rebuilt in (
        (s.levi_civita, levi_civita(ad)),
        (s.bismut, bismut_connection(ad, sl.to_adapted.move(red.structure.h), levi_civita(ad))),
    ):
        b = _matrix(sl.b.rows(n), f)
        ric = curvature(s.frame, conn)
        assert transform_bilinear(ric, b) == curvature(ad, rebuilt)
        nabla_theta = covariant_derivative_oneform(s.frame, conn, theta)
        assert transform_bilinear(nabla_theta, b) == covariant_derivative_oneform(
            ad, rebuilt, theta_ad
        )
    # the Levi-Civita Ricci tensor is nonzero, so a transposed B would show
    assert not curvature(s.frame, s.levi_civita).is_zero()


def _rotated(name, seed):
    base = fixture_structure(name)
    rot = rotation_matrix(base.n, random.Random(seed), field=base.field, planes=2)
    fr, (form,) = rotate_frame_and_forms(base.frame, [base.form("phi" if base.kind == "g2" else "psi")], rot)
    return (g2_assemble if base.kind == "g2" else spin7_assemble)(form, fr)


# the fixtures whose canonical vector has |V| != 1: reduce rescales them
_NON_UNIT = ["nonintG2nonclosedLee", "nonintSpin7OneA", "nonintSpin7Two"]
_UNIT_INPUTS = {
    **{name: lambda name=name: fixture_structure(name) for name in _NON_UNIT},
    **{f"{name}-rotated": lambda name=name: _rotated(name, 7) for name in _NON_UNIT},
    "nonintG2nonclosedLee-sheared3": lambda: parse(sheared_text(registry.input_text("nonintG2nonclosedLee"), 3)).structure(),
}


@pytest.mark.parametrize("case", sorted(_UNIT_INPUTS))
def test_unit_copy_inherits_what_a_fresh_copy_computes(case):
    # the unit-|V| copy takes the input's torsion classes, Lee form and H
    # scaled by powers of lam instead of computing them; a fresh structure on
    # the same frame and forms computes them, reconstruction checks included
    s = _UNIT_INPUTS[case]()
    v = canonical_vector(s)
    assert not (s.geometry.norm_sq(v) - s.field.one()).is_zero()
    unit, v_unit = reduction._unit_length(s, v)
    assert {"torsion", "lee", "h"} <= set(vars(unit))
    fresh = GStructure(unit.kind, unit.frame, dict(unit.forms))
    assert list(fresh.torsion.components) == list(unit.torsion.components)
    for name, x in fresh.torsion.components.items():
        assert unit.torsion[name] == x, name
    assert fresh.lee == unit.lee
    assert fresh.h == unit.h
    # the connections and the Bismut Ricci tensor are scale-invariant
    assert {"levi_civita", "bismut", "_bismut_ricci"} <= set(vars(unit))
    assert fresh.levi_civita.entries == unit.levi_civita.entries
    assert fresh.bismut.entries == unit.bismut.entries
    assert fresh.bismut_ricci == unit.bismut_ricci
    assert canonical_vector(fresh) == v_unit
    assert unit.geometry.norm_sq(v_unit) == s.field.one()
    # V is certified in the copy's own metric, not the input's
    assert parallel_certificate(unit, v_unit) == {"parallel": True, "norm_sq": s.field.one()}


# -- splitting equivalence on randomized rotations --------------------------------


def test_splitting_equivalence_randomized(rng):
    # the three splitting conditions are ambient statements, so the check
    # runs on the string-ansatz split without building the adapted frame
    cases = 0
    for name in ("nonintG2", "nonintG2nonclosedLee"):
        base = fixture_structure(name)
        for _ in range(6):
            rot = rotation_matrix(7, rng, field=base.field)
            fr2, (phi2,) = rotate_frame_and_forms(base.frame, [base.form("phi")], rot)
            s2 = g2_assemble(phi2, fr2)
            red = reduce_pair(*reduction._unit_length(s2, canonical_vector(s2)))
            sp = splitting_check(red)  # raises if the three disagree
            assert len(set(sp.values())) == 1
            cases += 1
    assert cases == 12


# -- central extension -------------------------------------------------------------


def quotient_su3_of_nonintG2():
    """nonintG2, its reduction, the transverse slice, the SU(3) structure the
    reduction builds on it, and H^ and F on the slice."""
    s = fixture_structure("nonintG2")
    red = reduce_g2(s)
    return s, red, red.transverse, red.reduced_structure, red.h_hat_slice, red.flux_slice


def test_central_extend_roundtrip():
    # the extension reads the reduction's slice structure, F and df as they
    # are, with no Lie frame rebuilt from the slice
    s, red, sl, qs, h_hat, flux = quotient_su3_of_nonintG2()
    # the extension reads H^ off the quotient: its own H is the reduced H^
    assert qs.h == h_hat
    ext = central_extend(qs, flux, "g2", red.df_slice)
    assert ext["strong"] and ext["torsion_matches"]
    # the extended structure and its H are the original ones up to the frame
    # isomorphism sending the new generator to the last slot
    f = s.field
    n = 7
    a = [[f.zero()] * n for _ in range(n)]
    a[0][6] = f.one()
    for i in range(6):
        a[i + 1][i] = f.one()
    back = mat_inverse(a, f)
    assert transform_form(sl.to_adapted.move(s.form("phi")), back, f) == ext["structure"].form("phi")
    assert transform_form(sl.to_adapted.move(s.h), back, f) == ext["h"]


@pytest.mark.parametrize("name, reduce, target, jacobi", [
    ("nonintG2nonclosedLee", reduce_g2, "g2", r"d\^2 e\^f1 = KForm\(6,3; \(-1/4\)e245\)"),
    ("nonintSpin7OneA", reduce_spin7, "spin7", r"d\^2 e\^f2 = KForm\(7,3; \(-1/4\)e356\)"),
])
def test_a_non_central_slice_is_no_lie_algebra(name, reduce, target, jacobi):
    # V is not central (F != 0), so the slice's differentials, the ambient
    # d f^i without their mu-terms, fail Jacobi: as_lie_frame rejects them,
    # and so does the central extension of the slice structure, which has no
    # place for V's action on the slice (ROADMAP item 15)
    red = reduce(fixture_structure(name))
    assert red.verifier_ok() and not red.flux_slice.is_zero()
    sl = red.transverse
    assert sl.ambient.closed and not sl.closed
    message = jacobi + " != 0: structure equations violate the Jacobi identity$"
    with pytest.raises(FrameError, match="^" + message):
        sl.as_lie_frame()
    with pytest.raises(FrameError, match="Jacobi identity$"):
        central_extend(red.reduced_structure, red.flux_slice, target, red.df_slice)


def test_as_lie_frame_of_a_central_slice():
    # nonintG2's V is central (F = 0): its slice is a Lie algebra, and the SU(3)
    # structure assembled on as_lie_frame (the benchmark's extend input) is
    # the one the reduction built on the slice
    s, red, sl, qs, h_hat, flux = quotient_su3_of_nonintG2()
    qfr = sl.as_lie_frame()
    assert type(qfr) is LieAlgebraFrame and qfr.closed and sl.closed
    assert (qfr.labels, qfr.coframe_d, qfr.geometry) == (sl.labels, sl.coframe_d, sl.geometry)
    rebuilt = su3_assemble(red.omega, red.omega_plus, qfr)
    assert rebuilt.h == qs.h == h_hat and rebuilt.torsion.components == qs.torsion.components


def test_slice_differential_stays_basic():
    # on nonintG2nonclosedLee V rotates the (f1, f2) plane, so d f1 on the
    # slice carries f2^mu, which the truncated differentials would drop
    sl = reduce_g2(fixture_structure("nonintG2nonclosedLee")).transverse
    f1 = KForm(6, 1, sl.field, {1: sl.field.one()})
    with pytest.raises(ReductionError, match=r"^quotient differential left the basic complex at generator f2\^mu$"):
        sl.d(f1)
    # the slice's own d f1 is the ambient one less its f2^mu term
    mu_part = sl.ambient.coframe_d[0] - sl.embed(sl.coframe_d[0])
    assert list(mu_part.coeffs) == [0b1000010]


def test_central_extend_f_zero_is_product():
    # F = 0: the extension splits as a product (flux-free string ansatz)
    s, red, sl, qs, h_hat, flux = quotient_su3_of_nonintG2()
    assert flux.is_zero()
    ext = central_extend(qs, KForm.zero(6, 2, s.field), "g2")
    ext_s = ext["structure"]
    red2 = reduce_g2(ext_s)
    assert all(splitting_check(red2).values())


def test_central_extend_rejects_wrong_sigma0():
    s = fixture_structure("nonintsu3")  # sigma0 = -2
    with pytest.raises(ReductionError, match="sigma0"):
        central_extend(s, KForm.zero(6, 2, s.field), "g2")


def test_central_extend_bianchi_obstruction():
    s, red, sl, qs, h_hat, flux = quotient_su3_of_nonintG2()
    f = s.field
    bad_flux = KForm.from_terms(6, f, [((2, 3), 1), ((5, 6), 1)])  # closed, F ^ F != 0
    assert sl.d(bad_flux).is_zero()
    with pytest.raises(ReductionError, match="Bianchi"):
        central_extend(qs, bad_flux, "g2")


def test_central_extend_rejects_nonclosed_flux():
    s, red, sl, qs, h_hat, flux = quotient_su3_of_nonintG2()
    f = s.field
    nonclosed = KForm.from_terms(6, f, [((1, 4), 1)])  # crosses the two factors
    assert not sl.d(nonclosed).is_zero()
    with pytest.raises(ReductionError, match="closed"):
        central_extend(qs, nonclosed, "g2")


def test_central_extend_spin7_target():
    # a balanced constant-type G2 structure extends (flux-free) to a strong
    # torsion Spin(7) structure on the product
    from test_soliton import s3xt4_g2

    s = s3xt4_g2()
    t = torsion_g2(s)
    assert t["lee"].is_zero()
    ext = central_extend(s, KForm.zero(7, 2, Q), "spin7")
    assert ext["strong"] and ext["torsion_matches"]
    assert ext["structure"].kind == "spin7"


def _heisenberg_g2():
    # the model 3-form with d e1 = e2^e3 has tau2 != 0
    d = [KForm.from_terms(7, Q, [((2, 3), 1)])] + [KForm.zero(7, 2, Q)] * 6
    fr = LieAlgebraFrame([f"e{i}" for i in range(1, 8)], d, FrameGeometry(7, Q))
    return g2_assemble(model_form("g2", 7, Q), fr)


def _extend(structure, target, df=None):
    return central_extend(structure, KForm.zero(structure.n, 2, structure.field), target, df=df)


def _extend_quotient_with_df():
    s, red, sl, qs, h_hat, flux = quotient_su3_of_nonintG2()
    return central_extend(qs, flux, "g2", df=KForm.from_terms(6, s.field, [((1,), 1)]))


def _extend_s3xt4_with_df():
    from test_soliton import s3xt4_g2

    return _extend(s3xt4_g2(), "spin7", df=KForm.from_terms(7, Q, [((1,), 1)]))


@pytest.mark.parametrize(
    "call, exc, message",
    [
        (lambda: reduce_g2(fixture_structure("nonintSpin7OneA")), StructureError, "reduce_g2 needs a G2 structure"),
        (lambda: reduce_spin7(fixture_structure("nonintG2")), StructureError, "reduce_spin7 needs a Spin(7) structure"),
        (lambda: reduce_g2(_heisenberg_g2()), StructureError, "tau2 != 0: no skew-torsion connection for this G2 structure"),
        (lambda: _extend(fixture_structure("nonintG2"), "g2"), ReductionError, "g2 extension needs an SU(3) structure on n = 6"),
        (lambda: _extend(fixture_structure("nonintsu3"), "spin7"), ReductionError, "spin7 extension needs a G2 structure on n = 7"),
        (lambda: _extend(fixture_structure("nonintsu3"), "spin8"), ReductionError, "unknown extension target 'spin8'"),
        (_extend_quotient_with_df, ReductionError, "extension hypotheses violated: theta_omega != df"),
        (_extend_s3xt4_with_df, ReductionError, "extension hypotheses violated: theta_phi != df"),
    ],
    ids=[
        "reduce_g2-kind", "reduce_spin7-kind", "reduce_g2-tau2", "g2-kind", "spin7-kind",
        "unknown-target", "g2-theta-df", "spin7-theta-df",
    ],
)
def test_reduction_and_extension_errors(call, exc, message):
    with pytest.raises(exc) as info:
        call()
    assert str(info.value) == message


# -- anomaly on randomized strong-torsion inputs ------------------------------------


def test_anomaly_vanishes_randomized(rng):
    cases = 0
    for name in ("nonintG2", "nonintG2nonclosedLee"):
        base = fixture_structure(name)
        for _ in range(8):
            rot = rotation_matrix(7, rng, field=base.field)
            fr2, (phi2,) = rotate_frame_and_forms(base.frame, [base.form("phi")], rot)
            s2 = g2_assemble(phi2, fr2)
            red = reduce_pair(*reduction._unit_length(s2, canonical_vector(s2)))
            assert red.anomaly.is_zero()
            cases += 1
    base = fixture_structure("nonintSpin7OneA")
    for _ in range(4):
        rot = rotation_matrix(8, rng, field=base.field)
        fr2, (psi2,) = rotate_frame_and_forms(base.frame, [base.form("psi")], rot)
        s2 = spin7_assemble(psi2, fr2)
        red = reduce_pair(*reduction._unit_length(s2, canonical_vector(s2)))
        assert red.anomaly.is_zero()
        cases += 1
    assert cases == 20


@pytest.mark.parametrize("name", ["nonintG2", "nonintG2nonclosedLee", "nonintSpin7OneA"])
def test_reduction_moves_each_form_to_the_slice_once(monkeypatch, name):
    # df, F and H^ go to the slice once; the residual and the verifier share them
    moved = Counter()
    pull = reduction.TransverseSlice.pull

    def counted(sl, form, context):
        moved[context] += 1
        return pull(sl, form, context)

    monkeypatch.setattr(reduction.TransverseSlice, "pull", counted)
    s = fixture_structure(name)
    red = (reduce_g2 if s.kind == "g2" else reduce_spin7)(s)
    assert red.verifier_ok()
    assert {"df", "F", "H^"} <= set(moved) and max(moved.values()) == 1
