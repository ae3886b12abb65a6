"""The kind table: ``project``'s recipes against the per-kind splitter they
replaced, the SU(3) metric's top-degree pairing against the 36-pair wedge
loop, and the reduce/extend pairing read from ``KINDS`` by the command line,
``run_extend`` and ``central_extend``."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import Q, fixture_structure, random_kform
from gtorsion.cli import build_parser
from gtorsion.engine import run_extend
from gtorsion.forms import KForm, VectorField, form_inner, hodge_star, interior, wedge
from gtorsion.reduction import ReductionError, central_extend
from gtorsion.structures import KINDS, StructureError, _split, ah_assemble
from test_reduction import quotient_su3_of_nonintG2
from test_soliton import s3xt4_g2
from test_structures import almost_lie_structures


def reference_split(structure, a):
    """The per-kind splitter ``_split`` replaced: one block per kind, the
    vector-type 1-form read by its own formula."""
    kind = structure.kind
    if kind not in ("g2", "spin7", "su3"):
        raise StructureError(f"no projections for kind {kind!r}")
    if a.k not in (2, 3):
        raise StructureError(f"{kind} projections cover degrees 2 and 3 only")
    vector_part = {
        ("g2", 3): ("phi", Fraction(-1, 4)),
        ("spin7", 3): ("psi", Fraction(-1, 7)),
        ("su3", 2): ("omega_plus", Fraction(-1, 2)),
        ("su3", 3): ("omega", Fraction(1, 2)),
    }
    alpha = None
    if (kind, a.k) in vector_part:
        slot, c = vector_part[kind, a.k]
        alpha = hodge_star(wedge(a, structure.form(slot)), structure.geometry).scale(c)
        if slot == "omega":
            alpha = structure.apply_j_oneform(alpha)
    geom = structure.geometry
    field = structure.field
    if kind == "g2":
        phi = structure.form("phi")
        star_phi = structure.form("star_phi")
        if a.k == 2:
            t = hodge_star(wedge(a, phi), geom)
            p7 = (t + a).scale(Fraction(1, 3))
            p14 = a - p7
            if not (wedge(p7, phi) - hodge_star(p7, geom).scale(2)).is_zero():
                raise StructureError("Lambda^2_7 component fails its defining condition")
            if not (wedge(p14, phi) + hodge_star(p14, geom)).is_zero():
                raise StructureError("Lambda^2_14 component fails its defining condition")
            return {"7": p7, "14": p14}, alpha
        p1 = phi.scale(form_inner(a, phi, geom) / field.scalar(7))
        p7 = hodge_star(wedge(alpha, phi), geom)
        p27 = a - p1 - p7
        if not wedge(p27, phi).is_zero() or not wedge(p27, star_phi).is_zero():
            raise StructureError("Lambda^3_27 component fails its defining condition")
        return {"1": p1, "7": p7, "27": p27}, alpha
    if kind == "spin7":
        psi = structure.form("psi")
        if a.k == 2:
            t = hodge_star(wedge(psi, a), geom)
            p7 = (a - t).scale(Fraction(1, 4))
            p21 = a - p7
            if not (hodge_star(wedge(psi, p7), geom) + p7.scale(3)).is_zero():
                raise StructureError("Lambda^2_7 component fails its defining condition")
            if not (hodge_star(wedge(psi, p21), geom) - p21).is_zero():
                raise StructureError("Lambda^2_21 component fails its defining condition")
            return {"7": p7, "21": p21}, alpha
        p8 = hodge_star(wedge(alpha, psi), geom)
        p48 = a - p8
        if not wedge(p48, psi).is_zero():
            raise StructureError("Lambda^3_48 component fails its defining condition")
        return {"8": p8, "48": p48}, alpha
    omega = structure.form("omega")
    op = structure.form("omega_plus")
    om = structure.form("omega_minus")
    if a.k == 2:
        p1 = omega.scale(form_inner(a, omega, geom) / field.scalar(3))
        p6 = hodge_star(wedge(alpha, op), geom)
        p8 = a - p1 - p6
        if not wedge(wedge(p8, omega), omega).is_zero() or not wedge(p8, op).is_zero():
            raise StructureError("Lambda^2_8 component fails its defining condition")
        return {"1": p1, "6": p6, "8": p8}, alpha
    p11 = op.scale(form_inner(a, op, geom) / field.scalar(4)) + om.scale(form_inner(a, om, geom) / field.scalar(4))
    p6 = wedge(alpha, omega)
    p12 = a - p11 - p6
    if not wedge(p12, omega).is_zero() or not wedge(p12, op).is_zero() or not wedge(p12, om).is_zero():
        raise StructureError("Lambda^3_12 component fails its defining condition")
    return {"1+1": p11, "6": p6, "12": p12}, alpha


def _outcome(split, s, a):
    try:
        parts, alpha = split(s, a)[:2]
    except StructureError as exc:
        return str(exc)
    return list(parts), list(parts.values()), alpha


@pytest.mark.parametrize("kind", ["g2", "spin7", "su3"])
def test_split_matches_reference_on_random_forms(kind):
    @settings(max_examples=12, deadline=None, derandomize=True)
    @given(almost_lie_structures(kind), st.sampled_from([1, 2, 2, 3, 3, 4]), st.integers(0, 2**32))
    def check(s, k, seed):
        a = random_kform(s.n, k, Q, random.Random(seed))
        assert _outcome(_split, s, a) == _outcome(reference_split, s, a)

    check()


def _ah():
    s = fixture_structure("nonintsu3")
    return ah_assemble(s.form("omega"), s.frame)


def test_split_errors_match_reference_on_ah():
    a = random_kform(6, 2, Q, random.Random(1))
    assert _outcome(_split, _ah(), a) == _outcome(reference_split, _ah(), a) == "no projections for kind 'ah'"


def reference_su3_metric(omega, omega_plus):
    """g(X,Y) omega^3 / 6 = -1/2 top((i_X omega) ^ (i_Y Omega+) ^ Omega+),
    one pair (X, Y) of basis vectors at a time."""
    field = omega.field
    full = (1 << 6) - 1
    denom = wedge(wedge(omega, omega), omega).coeffs[full] / field.scalar(6)
    basis = [VectorField.basis(6, field, i) for i in range(1, 7)]
    return [
        [wedge(wedge(interior(x, omega), interior(y, omega_plus)), omega_plus).coeffs.get(full, field.zero())
         * field.scalar(Fraction(-1, 2)) / denom for y in basis]
        for x in basis
    ]


def test_su3_metric_matches_pair_loop():
    seen = set()

    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(almost_lie_structures("su3"))
    def check(s):
        assert s.geometry.metric == reference_su3_metric(s.form("omega"), s.form("omega_plus"))
        seen.add(any(not x.is_zero() for i, row in enumerate(s.geometry.metric) for j, x in enumerate(row) if i != j))

    check()
    assert seen == {False, True}  # the identity metric and A^T A both occur


# -- the reduce/extend pairing ------------------------------------------------


class _Doc:
    """The parts of an input document that ``run_extend`` reads."""

    def __init__(self, s):
        self.s, self.flux, self.df = s, KForm.zero(s.n, 2, s.field), None

    def structure(self):
        return self.s


def _ambient():
    """kind -> the kind whose reduction lands on it."""
    return {row.reduces_to: kind for kind, row in KINDS.items() if row.reduces_to}


def test_target_choices_follow_kinds():
    subs = next(a for a in build_parser()._actions if a.dest == "command").choices
    target = next(a for a in subs["extend"]._actions if a.dest == "target")
    assert target.choices == list(_ambient().values()) == ["g2", "spin7"]


def _structure_of(kind):
    return {
        "su3": lambda: quotient_su3_of_nonintG2()[3],
        "g2": s3xt4_g2,
        "spin7": lambda: fixture_structure("nonintSpin7OneA"),
        "ah": _ah,
    }[kind]()


@pytest.mark.parametrize("kind", list(KINDS))
def test_default_extension_target_follows_kinds(kind):
    s = _structure_of(kind)
    if kind not in _ambient():
        with pytest.raises(StructureError, match=f"^no extension target for kind {s.kind!r}$"):
            run_extend(_Doc(s))
        return
    # extending a reduced kind lands on its ambient kind
    rep = run_extend(_Doc(s))
    assert rep.data["kind"] == _ambient()[kind]
    assert KINDS[rep.data["kind"]].reduces_to == s.kind


def test_central_extend_accepts_the_ambient_kinds():
    s = _ah()  # the base of no extension: every target is refused
    accepted = set()
    for target in [*KINDS, "spin8"]:
        with pytest.raises(ReductionError) as info:
            central_extend(s, KForm.zero(6, 2, Q), target)
        if str(info.value) != f"unknown extension target {target!r}":
            accepted.add(target)
    assert accepted == set(_ambient().values())
