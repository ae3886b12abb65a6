"""Compute-once analysis: a verdict builds each structure's torsion classes
(read off ``project``'s split, with no inner product taken twice), H and
connections once, the G2 and Spin(7) H from the split's pieces alone, both
induced metrics take no wedge beyond their checks and no interior product,
every change of frame takes no wedge, the oracle stays independent of H,
walks each form's pair derivations once, reduces each form's derivation
matrix once, each row once up to a rational factor, on int rows that build
no Scalar but the entries of H, solves n*r rows and agrees with H off a
diagonal metric, and a verdict leaves no cyclic garbage behind."""

import collections
import gc
import math
from fractions import Fraction

import pytest

from conftest import mat_inverse, sheared_text
from gtorsion import engine, forms, frames, reduction, registry, scalars, soliton, structures
from gtorsion.frames import change_frame, transform_form
from gtorsion.parser import parse

_MODULES = [frames, structures, soliton, reduction, engine]


def _count_calls(monkeypatch, name, key=lambda arg: arg):
    """Wrap ``name`` in every module that binds it; count calls by ``key`` of
    the first argument."""
    orig = getattr(structures, name)
    counts = collections.Counter()

    def wrapper(*args, **kwargs):
        counts[key(args[0])] += 1
        return orig(*args, **kwargs)

    for mod in _MODULES:
        if getattr(mod, name, None) is orig:
            monkeypatch.setattr(mod, name, wrapper)
    return counts


def test_reduce_builds_each_item_once_per_structure(monkeypatch):
    doc = parse(registry.input_text("nonintG2"))
    torsion = _count_calls(monkeypatch, "torsion_g2")
    h = _count_calls(monkeypatch, "bismut_torsion")
    conn = _count_calls(monkeypatch, "bismut_connection")  # keyed by frame
    engine.run_reduce(doc)
    ambient = doc.structure()
    assert dict(torsion) == {ambient: 1}
    assert h[ambient] == 1
    # one Bismut connection, on the ambient structure's frame; none in the
    # adapted frame
    assert dict(conn) == {ambient.frame: 1}


@pytest.mark.parametrize("name", ["nonintG2", "nonintG2nonclosedLee", "nonintSpin7OneA", "nonintSpin7Two"])
def test_reduce_analyses_only_the_input_and_the_slice(monkeypatch, name):
    # the unit-|V| copy (|V| != 1 on all but nonintG2) inherits its input's
    # torsion classes and H scaled by powers of lam, so both are built once
    # on the input and once on the slice, and never on the copy; the slice
    # of nonintSpin7Two is never reached (its adapted frame needs a root)
    doc = parse(registry.input_text(name))
    solvers = [_count_calls(monkeypatch, solver) for solver in ("torsion_su3", "torsion_g2", "torsion_spin7")]
    h = _count_calls(monkeypatch, "bismut_torsion")
    rep = engine.run_reduce(doc)
    s = doc.structure()
    for counts in (sum(solvers, collections.Counter()), h):
        sliced = [t for t in counts if t is not s]
        assert counts[s] == 1 and set(counts.values()) == {1}
        assert len(sliced) == ("reduction" in rep.data)
        assert all(isinstance(t.frame, reduction.TransverseSlice) for t in sliced)


@pytest.mark.parametrize("name", ["nonintG2", "nonintG2nonclosedLee"])
def test_reduce_builds_no_geometry_of_its_own(monkeypatch, name):
    # a reduce verdict builds what its check builds, also when it reduces
    # through the rescaled unit-|V| structure (nonintG2nonclosedLee)
    doc = parse(registry.input_text(name))
    lc = _count_calls(monkeypatch, "levi_civita")  # keyed by frame
    conn = _count_calls(monkeypatch, "bismut_connection")
    cur = _count_calls(monkeypatch, "curvature")
    engine.run_reduce(doc)
    frame = doc.structure().frame
    assert dict(lc) == {frame: 1}
    assert dict(conn) == {frame: 1}
    assert dict(cur) == {frame: 2}  # the Bismut and Levi-Civita curvatures


def test_check_builds_each_item_once(monkeypatch):
    doc = parse(registry.input_text("nonintsu3"))
    nij = _count_calls(monkeypatch, "nijenhuis")
    h = _count_calls(monkeypatch, "bismut_torsion")
    conn = _count_calls(monkeypatch, "bismut_connection")
    engine.run_check(doc)
    s = doc.structure()
    assert dict(nij) == {s: 1}
    assert dict(h) == {s: 1}
    assert dict(conn) == {s.frame: 1}


@pytest.mark.parametrize("name", registry.names())
def test_check_differentiates_each_structure_form_once(monkeypatch, name):
    # the torsion classes and the closed formula for H share the structure's
    # d of each defining form
    doc = parse(registry.input_text(name))
    forms_of_s = set(doc.structure().forms.values())
    seen = collections.Counter()
    orig = frames.ce_differential

    def counted(frame, a):
        seen[a] += 1
        return orig(frame, a)

    monkeypatch.setattr(frames, "ce_differential", counted)
    engine.run_check(doc)
    assert {a: c for a, c in seen.items() if a in forms_of_s and c > 1} == {}
    assert any(a in forms_of_s for a in seen)


@pytest.mark.parametrize("name, calls", [
    ("nonintG2", 24), ("nonintG2nonclosedLee", 24), ("nonintSpin7OneA", 26), ("nonintSpin7Two", 14),
])
def test_reduce_differentiates_the_slice_forms_once(monkeypatch, name, calls):
    # both verifiers read d of the slice structure's forms from its analysis:
    # the G2 one takes star phi and d star phi from the slice G2 structure
    # (nonintSpin7OneA made 28 calls when it differentiated them again), and
    # the zero df is not differentiated at all (one call more each before);
    # nonintSpin7Two stops before the slice, as its adapted frame needs a
    # root outside QQ(sqrt3), so no verifier runs there
    # calls counts every d of a form plus every generator a closure gate
    # walks: the gate sums d^2 e^i on the frame's ints, not through
    # ce_differential, so its walks are counted where they run
    doc = parse(registry.input_text(name))
    seen, gates = [0], [0]
    orig, defect = frames.ce_differential, frames.LieAlgebraFrame._closure_defect

    def counted(frame, a):
        seen[0] += 1
        return orig(frame, a)

    def gate(frame):
        found = defect(frame)  # a failing generator's d^2 is counted in seen
        gates[0] += frame.n if found is None else found[0]
        return found

    monkeypatch.setattr(frames, "ce_differential", counted)
    monkeypatch.setattr(frames.LieAlgebraFrame, "_closure_defect", gate)
    engine.run_reduce(doc)
    assert seen[0] + gates[0] == calls


@pytest.mark.parametrize("name", ["nonintG2", "nonintSpin7OneA", "nonintsu3"])
def test_raises_expand_each_row_set_of_g_inverse_once(monkeypatch, name):
    # a band shear makes the metric non-diagonal, so star and the inner
    # products raise indices by the minors of g^{-1}; the geometry keeps one
    # change of frame for g^{-1}, so each set of its rows is expanded once
    doc = parse(sheared_text(registry.input_text(name), 1))
    expanded, depth = [], [0]
    orig_minors, orig_raised = forms._minors, forms._raised

    def minors(mask, table, rows, d):
        if depth[0] and mask not in table[0]:
            expanded.append((repr(rows), mask))
        return orig_minors(mask, table, rows, d)

    def raised(a, geom):
        depth[0] += 1
        try:
            return orig_raised(a, geom)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(forms, "_minors", minors)
    monkeypatch.setattr(forms, "_raised", raised)
    engine.run_check(doc)
    assert expanded
    assert len(expanded) == len(set(expanded))


def test_g2_metric_makes_no_wedge(monkeypatch):
    # B is two walks over phi's body (_top_pairing): no top-form wedge and
    # no interior product
    phi = parse(registry.input_text("nonintG2")).structure().form("phi")
    wedges = _count_calls(monkeypatch, "wedge", key=lambda a: a.k)
    interiors = _count_calls(monkeypatch, "interior")
    structures.induced_metric_g2(phi)
    assert not wedges and not interiors


def test_transform_form_makes_no_wedge(monkeypatch):
    # each term's rows of the change of basis expand into one accumulator: a
    # dense change of frame, the J pullback in d^c omega and the Lee form
    s = parse(registry.input_text("nonintsu3")).structure()
    field = s.field
    wedges = collections.Counter()
    orig = forms.wedge

    def wedge(a, b):
        wedges[a.k, b.k] += 1
        return orig(a, b)

    for mod in [forms] + _MODULES:
        if getattr(mod, "wedge", None) is orig:
            monkeypatch.setattr(mod, "wedge", wedge)
    shear = [[field.scalar(1 if j >= i else 0) for j in range(6)] for i in range(6)]
    for name in ("omega", "omega_plus", "omega_minus"):
        transform_form(s.form(name), shear, field)
    change_frame(s.frame, shear)
    structures.d_c_omega(s)
    structures.lee_form(s)
    assert not wedges


def test_su3_torsion_pairs_each_form_once(monkeypatch):
    # sigma0 and pi0 are <d omega, Omega+-> as _split's Lambda^3_{1+1} piece
    # reads them, so no inner product is taken twice
    s = parse(registry.input_text("nonintsu3")).structure()
    pairs = collections.Counter()
    orig = structures.form_inner

    def form_inner(a, b, geom):
        pairs[repr(a), repr(b)] += 1
        return orig(a, b, geom)

    monkeypatch.setattr(structures, "form_inner", form_inner)
    structures.torsion_su3(s)
    # <d omega, Omega+->, <d Omega+-, omega^2> and <star d Omega+-, omega>
    assert len(pairs) == 6
    assert set(pairs.values()) == {1}


def test_su3_metric_makes_no_wedge(monkeypatch):
    # the metric is one top-degree pairing; the wedges left are the checks
    # omega ^ Omega+, omega ^ omega, omega^2 ^ omega and Omega+ ^ Omega-
    doc = parse(registry.input_text("nonintsu3"))
    s = doc.structure()
    wedges = collections.Counter()
    orig = structures.wedge

    def wedge(a, b):
        wedges[a.k, b.k] += 1
        return orig(a, b)

    monkeypatch.setattr(structures, "wedge", wedge)
    interiors = _count_calls(monkeypatch, "interior")
    structures.su3_assemble(s.form("omega"), s.form("omega_plus"), doc.frame())
    assert dict(wedges) == {(2, 3): 1, (2, 2): 1, (4, 2): 1, (3, 3): 1}
    assert not interiors


@pytest.mark.parametrize("step", [0, 2])
@pytest.mark.parametrize("name", ["nonintG2", "nonintG2nonclosedLee", "nonintSpin7OneA", "nonintSpin7Two"])
def test_g2_and_spin7_h_reuses_the_split(monkeypatch, name, step):
    # star d form, star(theta ^ form) and <d phi, star phi> come from the
    # torsion classes, kept out of their reported components, so once they
    # exist H takes no star, wedge or inner product; it matches the oracle
    text = registry.input_text(name)
    s = parse(sheared_text(text, step) if step else text).structure()
    names = {"g2": {"tau0", "tau1", "tau2", "tau3", "lee"}, "spin7": {"lee", "zeta5"}}[s.kind]
    assert set(s.torsion.components) == names
    want = structures.solve_skew_torsion(s)

    def forbidden(*args, **kwargs):
        raise AssertionError("H recomputed a piece of the split")

    for fn in ("hodge_star", "wedge", "form_inner"):
        monkeypatch.setattr(structures, fn, forbidden)
    assert structures.bismut_torsion(s) == want


def test_nijenhuis_makes_no_bracket():
    # N reads the structure constants, also on a transverse slice: neither
    # frame type has a bracket to call (the test reference lives in conftest)
    assert not hasattr(frames.LieAlgebraFrame, "bracket")
    assert not hasattr(reduction.TransverseSlice, "bracket")


@pytest.mark.parametrize("name", registry.names())
def test_torsion_classes_read_off_project_once(monkeypatch, name):
    # the solver splits d of each defining form once through project's
    # _split (su3: d omega, star d Omega+ and star d Omega-; g2: star d phi
    # and star d star phi; spin7: star d Psi), each split that reads a
    # vector-type 1-form stars one 1-form and returns it, and a check
    # verdict builds the classes once
    doc = parse(registry.input_text(name))
    s = doc.structure()
    solver, splits = {"su3": ("torsion_su3", 3), "g2": ("torsion_g2", 2), "spin7": ("torsion_spin7", 1)}[s.kind]
    torsion = _count_calls(monkeypatch, solver)
    split, star = structures._split, structures.hodge_star
    inside, proj, stars, read = [], collections.Counter(), collections.Counter(), collections.Counter()

    def counted_split(t, a):
        inside.append(t)
        try:
            parts, alpha, inner = split(t, a)
        finally:
            inside.pop()
        proj[t] += 1
        read[t] += alpha is not None
        return parts, alpha, inner

    def counted_star(a, geom):
        out = star(a, geom)
        if inside and out.k == 1:
            stars[inside[-1]] += 1
        return out

    monkeypatch.setattr(structures, "_split", counted_split)
    monkeypatch.setattr(structures, "hodge_star", counted_star)
    engine.run_check(doc)
    assert dict(torsion) == {s: 1}
    assert dict(proj) == {s: splits}
    # one vector-type 1-form per split that reads one: all but g2's 2-form
    assert dict(stars) == dict(read) == {s: splits - (s.kind == "g2")}


def test_oracle_never_reads_h(monkeypatch):
    s = parse(registry.input_text("nonintsu3")).structure()

    def forbidden(*args, **kwargs):
        raise AssertionError("the oracle called the closed formula")

    monkeypatch.setattr(structures, "bismut_torsion", forbidden)
    oracle = structures.solve_skew_torsion(s)
    assert "h" not in vars(s)
    monkeypatch.undo()
    assert oracle == s.h


@pytest.mark.parametrize("name", registry.names())
def test_oracle_one_derivation_per_index_pair(monkeypatch, name):
    # one derivation_rows walk per structure form applies the n(n-1)/2 pair
    # derivations together, and nabla alpha is read off the Levi-Civita
    # symbols: no other walk runs and no covariant derivative is built
    s = parse(registry.input_text(name)).structure()
    orig = forms.derivation_rows
    walks = collections.Counter()

    def counted(a, moves):
        walks[id(a), len({p for part in moves for targets in part.values() for p, _, _ in targets})] += 1
        return orig(a, moves)

    monkeypatch.setattr(forms, "derivation_rows", counted)  # the single-action view calls it here
    monkeypatch.setattr(structures, "derivation_rows", counted)
    structures.solve_skew_torsion(s)
    n = s.n
    assert dict(walks) == {(id(s.forms[slot]), n * (n - 1) // 2): 1 for slot, *_ in structures.KINDS[s.kind].slots}
    assert not any(hasattr(mod, "covariant_derivative_form") for mod in [forms, *_MODULES])


@pytest.mark.parametrize("name, rows", [
    ("nonintG2", 49), ("nonintG2nonclosedLee", 49), ("nonintSpin7OneA", 56), ("nonintSpin7Two", 56), ("nonintsu3", 42),
])
def test_oracle_solves_n_rank_rows(monkeypatch, name, rows):
    # one echelon of every structure form's derivation rows together, then
    # its r = dim so(n) - dim stabilizer pivot rows for each index i: r = 7
    # for phi, for Psi and for omega and Omega+ together
    s = parse(registry.input_text(name)).structure()
    echelons = _count_calls(monkeypatch, "echelon", key=len)  # keyed by row count
    solves = _count_calls(monkeypatch, "solve_unique_sparse", key=len)
    structures.solve_skew_torsion(s)
    assert sum(echelons.values()) == 1
    assert dict(solves) == {rows: 1}


def _ratios(row):
    """An int row (p, q) up to a nonzero rational factor: each entry over the
    first nonzero int of its first column."""
    p, q = row
    first = min(p.keys() | q.keys())
    unit = p.get(first) or q[first]
    return frozenset((c, part, Fraction(v, unit)) for part, ints in enumerate(row) for c, v in ints.items())


@pytest.mark.parametrize("name", registry.names())
def test_oracle_eliminates_each_derivation_row_once_up_to_sign(monkeypatch, name):
    # Stage 1 has no right-hand side, so a row equal to an earlier one up to
    # any nonzero rational factor (a sign among them) checks nothing: its one
    # echelon gets every form's rows, each once, and each primitive
    s = parse(registry.input_text(name)).structure()
    walked, eliminated = [], []
    walk, eliminate = structures.derivation_rows, structures.echelon

    def walks(a, moves):
        rows = walk(a, moves)
        walked.extend(rows.values())
        return rows

    def eliminates(rows, field):
        eliminated.append(list(rows))
        return eliminate(rows, field)

    monkeypatch.setattr(structures, "derivation_rows", walks)
    monkeypatch.setattr(structures, "echelon", eliminates)
    structures.solve_skew_torsion(s)
    [rows] = eliminated
    kept = [_ratios(row) for row in rows]
    assert len(set(kept)) == len(kept)
    assert {_ratios(row) for row in walked} == set(kept)
    assert len(rows) < len(walked)
    assert all(math.gcd(*p.values(), *q.values()) == 1 for p, q in rows)


@pytest.mark.parametrize("name", registry.names())
def test_oracle_builds_no_scalar(monkeypatch, name):
    # both eliminations, the pair moves and the solution run on ints: the
    # oracle builds no Scalar, in the fixture's frame and in a band-sheared
    # one (a non-identity g^{-1}); only its error messages may build one
    for text in (registry.input_text(name), sheared_text(registry.input_text(name), 1)):
        s = parse(text).structure()
        s.levi_civita  # the connection is the structure's, built outside the count
        built = []
        init = scalars.Scalar.__init__
        monkeypatch.setattr(scalars.Scalar, "__init__", lambda self, *args: built.append(args) or init(self, *args))
        oracle = structures.solve_skew_torsion(s)
        monkeypatch.undo()
        assert built == []
        assert oracle == s.h


@pytest.mark.parametrize("name", ["nonintsu3", "nonintG2", "nonintSpin7OneA"])
def test_oracle_agrees_on_sheared_frame(name):
    # the coframe f = A e with A unipotent, written out as input text: the
    # metric rows carry off-diagonal g^{jk}, which rotated frames never do
    doc = parse(registry.input_text(name))
    frame = doc.frame()
    field, n = doc.field, frame.n
    a = [[field.scalar(1 if j in (i, i + 1) else 0) for j in range(n)] for i in range(n)]
    new = change_frame(frame, a, new_labels=list(frame.labels), validate=False)
    ainv = mat_inverse(a, field)
    doc.coframe = {lab: new.coframe_d[i] for i, lab in enumerate(frame.labels)}
    doc.metric = new.geometry.metric
    doc.structure_forms = {k: transform_form(v, ainv, field) for k, v in doc.structure_forms.items()}
    sheared = parse(doc.serialize())
    assert any(not sheared.metric[i][j].is_zero() for i in range(n) for j in range(n) if i != j)
    s = sheared.structure()
    oracle = structures.solve_skew_torsion(s)
    assert not oracle.is_zero()
    assert oracle == s.h


@pytest.mark.parametrize("name", registry.names())
def test_verdict_leaves_no_cyclic_garbage(name):
    registry.run_example(name)  # first use: imports and module-level caches
    gc.collect()
    gc.disable()
    try:
        rep, _ = registry.run_example(name)
        del rep
        assert gc.collect() == 0
    finally:
        gc.enable()
