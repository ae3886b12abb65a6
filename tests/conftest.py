"""Shared builders: worked-example structures (loaded from the registry
data files) plus rational-orthogonal randomization helpers."""

import random
from fractions import Fraction

import pytest

from gtorsion import registry
from gtorsion.forms import (
    FrameGeometry,
    KForm,
    Tensor,
    VectorField,
    _mat_inverse,
    _matrix,
    _sort_sign,
    derivation_rows,
    mask_of,
    skew_three_form,
)
from gtorsion.frames import LieAlgebraFrame, change_frame, transform_form
from gtorsion.linsolve import solve_unique_sparse
from gtorsion.parser import parse
from gtorsion.structures import GStructure, _model_forms
from gtorsion.scalars import NotRepresentable, QuadraticField, RationalField, _int_root, _ints, _norm

Q = RationalField()
Q2 = QuadraticField(2)
Q3 = QuadraticField(3)

# Pythagorean cos/sin pairs: exact rational rotations
PYTHAGOREAN = [
    (Fraction(3, 5), Fraction(4, 5)),
    (Fraction(5, 13), Fraction(12, 13)),
    (Fraction(8, 17), Fraction(15, 17)),
    (Fraction(20, 29), Fraction(21, 29)),
]

# self-dual with Psi ^ Psi = 14 vol, as Spin(7) assembly checks, but outside
# the model orbit: the 14 Cayley terms all with sign +1 (labels e0..e7)
PSI_ALL_PLUS = (
    "e0^e1^e2^e3 + e4^e5^e6^e7 + e0^e1^e4^e5 + e2^e3^e6^e7 + e0^e1^e6^e7 + e2^e3^e4^e5 + e0^e2^e4^e6"
    " + e1^e3^e5^e7 + e0^e2^e5^e7 + e1^e3^e4^e6 + e0^e3^e4^e7 + e1^e2^e5^e6 + e0^e3^e5^e6 + e1^e2^e4^e7"
)

# the balanced G2 structure on S^3 x T^4: phi = model on su(2) + R^4, the
# su(2) block on (e5, e6, e7); theta = 0, tau0 = 6/7, strong torsion, V = 0
S3XT4_G2 = """dim 7
field rational
frame e1 e2 e3 e4 e5 e6 e7
d e5 = e6^e7
d e6 = e7^e5
d e7 = e5^e6
metric identity
structure g2
phi = model
"""


def _hyperbolic(kind, n, slot):
    """The almost abelian algebra d e_i = e_i ^ e_n (i < n) with the model
    form of ``kind``: its identity metric is hyperbolic n-space, so Scal =
    -n(n-1) and Ric = -(n-1) g, and it is not unimodular (the traces sum_a
    c^a_{am} are nonzero)."""
    labels = [f"e{i}" for i in range(1, n + 1)]
    eqs = "".join(f"d e{i} = e{i}^e{n}\n" for i in range(1, n))
    return f"dim {n}\nframe {' '.join(labels)}\n{eqs}metric identity\nstructure {kind}\n{slot} = model\n"


# the first non-unimodular inputs: every trace term of the Ricci kernel, the
# divergence and the codifferential is nonzero on them
HYPERBOLIC_G2 = _hyperbolic("g2", 7, "phi")
HYPERBOLIC_SPIN7 = _hyperbolic("spin7", 8, "Psi")


def fixture_doc(name):
    return parse(registry.input_text(name))


def fixture_structure(name):
    return fixture_doc(name).structure()


def su2_frame(field=Q, scale=-2):
    c = Fraction(scale)
    d = [
        KForm.from_terms(3, field, [((2, 3), c)]),
        KForm.from_terms(3, field, [((3, 1), c)]),
        KForm.from_terms(3, field, [((1, 2), c)]),
    ]
    return LieAlgebraFrame(["e1", "e2", "e3"], d, FrameGeometry(3, field))


def su2su2_frame(field=Q, scale=-2):
    c = Fraction(scale)
    d = [
        KForm.from_terms(6, field, [((2, 3), c)]),
        KForm.from_terms(6, field, [((3, 1), c)]),
        KForm.from_terms(6, field, [((1, 2), c)]),
        KForm.from_terms(6, field, [((5, 6), c)]),
        KForm.from_terms(6, field, [((6, 4), c)]),
        KForm.from_terms(6, field, [((4, 5), c)]),
    ]
    return LieAlgebraFrame([f"e{i}" for i in range(1, 7)], d, FrameGeometry(6, field))


def su2su2u1_frame(field=Q):
    d = [
        KForm.from_terms(7, field, [((2, 3), 1)]),
        KForm.from_terms(7, field, [((3, 1), 1)]),
        KForm.from_terms(7, field, [((1, 2), 1)]),
        KForm.from_terms(7, field, [((5, 6), 1)]),
        KForm.from_terms(7, field, [((6, 4), 1)]),
        KForm.from_terms(7, field, [((4, 5), 1)]),
        KForm.zero(7, 2, field),
    ]
    return LieAlgebraFrame([f"e{i}" for i in range(1, 8)], d, FrameGeometry(7, field))


def heisenberg_frame(field=Q):
    d = [
        KForm.zero(3, 2, field),
        KForm.zero(3, 2, field),
        KForm.from_terms(3, field, [((1, 2), 1)]),
    ]
    return LieAlgebraFrame(["e1", "e2", "e3"], d, FrameGeometry(3, field))


def rotation_matrix(n, rng, field=Q, planes=1):
    """Random exact special-orthogonal matrix: even label permutation
    composed with Givens rotations through Pythagorean angles."""
    perm = list(range(n))
    for _ in range(2 * rng.randint(1, 3)):
        i, j = rng.sample(range(n), 2)
        perm[i], perm[j] = perm[j], perm[i]
    if sum(1 for a in range(n) for b in range(a + 1, n) if perm[a] > perm[b]) % 2:
        perm[0], perm[1] = perm[1], perm[0]
    mat = [[field.one() if perm[a] == b else field.zero() for b in range(n)] for a in range(n)]
    for _ in range(planes):
        i, j = rng.sample(range(n), 2)
        c, s = rng.choice(PYTHAGOREAN)
        if rng.random() < 0.5:
            s = -s
        g = [[field.one() if a == b else field.zero() for b in range(n)] for a in range(n)]
        g[i][i] = field.scalar(c)
        g[j][j] = field.scalar(c)
        g[i][j] = field.scalar(s)
        g[j][i] = field.scalar(-s)
        mat = [[sum((g[a][k] * mat[k][b] for k in range(n)), field.zero()) for b in range(n)] for a in range(n)]
    return mat


def mat_inverse(rows, field):
    """The inverse of a matrix of Scalar rows, as Scalar rows."""
    return _mat_inverse(_matrix(rows, field), len(rows)).rows(len(rows))


def is_diagonal(geom) -> bool:
    """The metric has no nonzero entry off its diagonal."""
    return all(x.is_zero() for i, row in enumerate(geom.metric) for j, x in enumerate(row) if i != j)


def inverse_metric(geom):
    """g^{-1} of a geometry as dense Scalar rows."""
    return geom._inverse.rows(geom.n)


def rotate_frame_and_forms(frame, forms, rot):
    """Apply the coframe change f = R e to a frame and forms together."""
    field = frame.field
    new_frame = change_frame(frame, rot, new_labels=list(frame.labels), validate=False)
    rinv = mat_inverse(rot, field)
    return new_frame, [transform_form(f, rinv, field) for f in forms]


def band_shear(field, n, step):
    """A = I + sum_i E_{i, i+step}."""
    return [[field.scalar(1 if j in (i, i + step) else 0) for j in range(n)] for i in range(n)]


def sheared_text(text, step):
    """The input in the coframe f = A e, A = I + sum_i E_{i, i+step}, as
    input text with its metric rows."""
    doc = parse(text)
    return coframe_text(text, band_shear(doc.field, doc.dim, step))


def coframe_text(text, a):
    """The input in the coframe f = A e, A an invertible matrix of scalars of
    the input's field, as input text with its metric rows."""
    doc = parse(text)
    frame = doc.frame()
    field = doc.field
    new = change_frame(frame, a, new_labels=list(frame.labels), validate=False)
    ainv = mat_inverse(a, field)
    doc.coframe = {lab: new.coframe_d[i] for i, lab in enumerate(frame.labels)}
    doc.metric = new.geometry.metric
    doc.structure_forms = {k: transform_form(v, ainv, field) for k, v in doc.structure_forms.items()}
    return doc.serialize()


def random_kform(n, k, field, rng, density=0.4, span=4):
    from gtorsion.forms import _masks

    terms = {}
    for m in _masks(n, k):
        if rng.random() < density:
            c = Fraction(rng.randint(-span, span), rng.randint(1, 3))
            if c:
                terms[m] = field.scalar(c)
    return KForm(n, k, field, terms)


def random_vector(n, field, rng, span=3):
    return VectorField(n, field, [Fraction(rng.randint(-span, span), rng.randint(1, 2)) for _ in range(n)])


def random_posdef_geometry(n, field, rng):
    """g = A^T A for random rational upper-triangular A with positive
    diagonal, so det g is a perfect square and the Hodge star stays exact."""
    a = [[field.zero()] * n for _ in range(n)]
    for i in range(n):
        a[i][i] = field.scalar(Fraction(rng.randint(1, 3)))
        for j in range(i + 1, n):
            a[i][j] = field.scalar(Fraction(rng.randint(-2, 2), rng.randint(1, 2)))
    g = [[sum((a[k][i] * a[k][j] for k in range(n)), field.zero()) for j in range(n)] for i in range(n)]
    return FrameGeometry(n, field, g)


# -- dense and derived views of the sparse tensors, for tests only ---------


def structure_constants(frame):
    """Dense view c[k][i][j] = c^k_{ij} of the frame's structure constants."""
    n = frame.n
    c = [[[frame.field.zero()] * n for _ in range(n)] for _ in range(n)]
    for (i, j, k), v in frame._constants.entries.items():
        c[k][i][j] = v
    return c


def last_index(t, geom, up):
    """sum_k m^{lk} T_{ijk} for a sparse {(i, j, k): Scalar}, with m = g^{-1}
    (``up``) or m = g, in Scalar arithmetic: the reference for
    ``frames._last_index``."""
    m = inverse_metric(geom) if up else geom.metric
    out = {}
    for (i, j, k), v in t.items():
        for l, x in enumerate(m[k]):
            if not x.is_zero():
                out[i, j, l] = out[i, j, l] + v * x if (i, j, l) in out else v * x
    return {key: v for key, v in out.items() if not v.is_zero()}


def skew_form(n, field, t):
    """``skew_three_form`` on components t(i, j, k) given as Scalars."""
    return skew_three_form(n, Tensor(field, {(i, j, k): t(i, j, k) for i in range(n) for j in range(n) for k in range(n)}))


def lowered(conn, i, j, k, geom):
    """<nabla_{e_i} e_j, e_k>_g with 0-based indices."""
    return last_index(conn.entries, geom, up=False).get((i, j, k), conn.frame.field.zero())


def nabla(conn, x, y) -> VectorField:
    """nabla_X Y of invariant fields, summed symbol by symbol with Scalar
    arithmetic: the reference for the package's one-pass sums over
    ``conn.entries``."""
    n, field = conn.frame.n, conn.frame.field
    comps = [field.zero()] * n
    xs, ys = x.components, y.components
    for (i, j, l), v in conn.entries.items():
        if not xs[i].is_zero() and not ys[j].is_zero():
            comps[l] = comps[l] + xs[i] * ys[j] * v
    return VectorField(n, field, comps)


def moves_of(actions, field):
    """Derivation p, e^j -> sum_t actions[p][j][t] e^t on Scalars ({j: {t:
    Scalar}} each), as ``derivation_rows`` takes it: (D, moves), the actions
    as ints over one denominator D, each part of ``moves`` mapping the bit of
    j to [(p, bit of t, int)] in the order of the actions."""
    flat = {(p, j, t): v for p, action in enumerate(actions) for j, row in action.items() for t, v in row.items()}
    den, vp, vq = _ints(flat, field)
    moves = ({}, {})
    for ints, part in zip((vp, vq), moves):
        for (p, j, t), v in ints.items():
            part.setdefault(1 << j, []).append((p, 1 << t, v))
    return den, moves


def derivation_columns(a, actions):
    """``derivation_rows`` on actions of Scalars, {j: {t: Scalar}} each: the
    actions go in as ints over one denominator D (``moves_of``), and each row
    comes back as {p: Scalar}, its ints over a's denominator times D."""
    den, moves = moves_of(actions, a.field)
    return {m: {c: _norm(a.field, p.get(c, 0), q.get(c, 0), a._den * den) for c in p.keys() | q.keys()}
            for m, (p, q) in derivation_rows(a, moves).items()}


def solution(rows, nunknowns, field):
    """``solve_unique_sparse`` of the int ``rows``, its int body read back as
    one Scalar per unknown."""
    den, p, q = solve_unique_sparse(rows, nunknowns, field)
    return [_norm(field, p.get(c, 0), q.get(c, 0), den) for c in range(nunknowns)]


def derivation(a, action):
    """The degree-0 derivation e^j -> sum_t action[j][t] e^t applied to a:
    the one column of ``derivation_rows``."""
    return KForm(a.n, a.k, a.field, {m: row[0] for m, row in derivation_columns(a, (action,)).items()})


def covariant_derivative_form(frame, conn, a):
    """Tuple of KForms (nabla_{e_1} a, ..., nabla_{e_n} a): invariant forms
    differentiate purely through the connection, nabla_i e^j =
    -Gamma^j_{it} e^t, extended as a degree-0 derivation."""
    actions = [{} for _ in range(frame.n)]
    for (i, t, j), g in conn.entries.items():
        actions[i].setdefault(j, {})[t] = -g
    return tuple(derivation(a, action) for action in actions)


def metric_compatible(conn, geom) -> bool:
    low = last_index(conn.entries, geom, up=False)
    zero = conn.frame.field.zero()
    return all((v + low.get((i, k, j), zero)).is_zero() for (i, j, k), v in low.items())


def torsion_form(conn) -> KForm:
    """g(T(X,Y), Z) of a connection with totally skew torsion, as a 3-form."""
    frame = conn.frame
    low = last_index(conn.entries, frame.geometry, up=False)
    c = last_index(frame._constants.entries, frame.geometry, up=False)
    zero = frame.field.zero()
    h = skew_form(
        frame.n, frame.field,
        lambda i, j, k: low.get((i, j, k), zero) - low.get((j, i, k), zero) - c.get((i, j, k), zero),
    )
    assert h is not None, "connection torsion is not totally skew"
    return h


class Riemann:
    """The Riemann tensor of an invariant connection: the reference for the
    traces ``frames.curvature`` and ``structures.bismut_ricci_form`` take off
    the symbols without it.  ``entries[(i, j, k, l)]`` is R^l_{ijk}, the e_l
    component of R(e_i, e_j) e_k, for i < j only (R is skew in i, j):
    R^l_{ijk} = sum_m (Gamma^m_{jk} Gamma^l_{im} - Gamma^m_{ik} Gamma^l_{jm}
                       - c^m_{ij} Gamma^l_{mk}),
    summed in plain scalar arithmetic over products of nonzero entries."""

    def __init__(self, conn):
        frame = conn.frame
        self.n, self.field = n, field = frame.n, frame.field
        by_first = [[] for _ in range(n)]  # m -> (k, l, Gamma^l_{mk})
        by_second = [[] for _ in range(n)]  # m -> (i, l, Gamma^l_{im})
        for (i, j, l), v in conn.entries.items():
            by_first[i].append((j, l, v))
            by_second[j].append((i, l, v))
        acc = {}

        def add(key, x):
            acc[key] = acc[key] + x if key in acc else x

        # Gamma^m_{jk} Gamma^l_{im} enters R_{ijk} with + and R_{jik} with -
        for (j, k, m), v in conn.entries.items():
            for i, l, w in by_second[m]:
                if i != j:
                    add((i, j, k, l) if i < j else (j, i, k, l), w * v if i < j else -(w * v))
        for (i, j, m), c in frame._constants.entries.items():
            if i < j:
                for k, l, w in by_first[m]:
                    add((i, j, k, l), -(c * w))
        self.entries = {key: v for key, v in acc.items() if not v.is_zero()}

    @property
    def ricci(self):
        """Rc(e_j, e_k) = sum_a R^a_{ajk}, a dense matrix."""
        n, zero = self.n, self.field.zero()
        rc = [[zero] * n for _ in range(n)]
        for (i, j, k, l), v in self.entries.items():
            if l == i:
                rc[j][k] = rc[j][k] + v
            elif l == j:
                rc[i][k] = rc[i][k] - v
        return rc

    def ricci_form(self, j) -> KForm:
        """rho(X, Y) = -1/2 tr(J R(X, Y)) = -1/2 sum_{i,l} J^i_l R^l_{XYi},
        J the Tensor j, entry (i, l) = J^i_l."""
        coeffs, jd = {}, j.entries
        for (x, y, i, l), v in self.entries.items():
            if (i, l) in jd:
                m = (1 << x) | (1 << y)
                coeffs[m] = coeffs.get(m, self.field.zero()) - jd[i, l] * v
        half = self.field.scalar(Fraction(1, 2))
        return KForm(self.n, 2, self.field, {m: v * half for m, v in coeffs.items()})


def riemann_r(cur, i, j, k) -> VectorField:
    """R(e_i, e_j) e_k from the i < j entries of a ``Riemann``."""
    zero = cur.field.zero()
    if i == j:
        return VectorField.zero(cur.n, cur.field)
    a, b = (i, j) if i < j else (j, i)
    comps = [cur.entries.get((a, b, k, l), zero) for l in range(cur.n)]
    return VectorField(cur.n, cur.field, comps if i < j else [-v for v in comps])


def riemann(cur):
    """Dense view: riemann(cur)[i][j][k] is R(e_i, e_j) e_k."""
    n = cur.n
    return [[[riemann_r(cur, i, j, k) for k in range(n)] for j in range(n)] for i in range(n)]


# -- references that only the tests read --------------------------------------


def ref_terms_str(terms) -> str:
    """'c1*b1 + c2*b2 - ...' from (Scalar, basis label) pairs, or '0'; an
    empty label marks a bare scalar.  The report's rendering from Scalar
    views: the reference for ``report.form_str`` and ``vector_str``."""
    parts = []
    for c, base in terms:
        cs = str(c)
        if not base:
            parts.append(cs)
        elif cs == "1":
            parts.append(base)
        elif cs == "-1":
            parts.append(f"-{base}")
        elif "+" in cs[1:] or "-" in cs[1:]:
            parts.append(f"({cs})*{base}")
        else:
            parts.append(f"{cs}*{base}")
    if not parts:
        return "0"
    out = parts[0]
    for p in parts[1:]:
        out += " - " + p[1:] if p.startswith("-") else " + " + p
    return out


def ref_form_str(form, labels) -> str:
    return ref_terms_str((form.coeffs[m], "^".join(labels[i - 1] for i in _indices(m))) for m in sorted(form.coeffs))


def ref_vector_str(v, labels) -> str:
    return ref_terms_str((c, labels[i]) for i, c in enumerate(v.components) if not c.is_zero())


def coeff(form, *indices):
    """The coefficient of e^{i1...ik} in ``form`` for indices in any order:
    zero on a repeated index, else signed by the sorting permutation."""
    m, _ = mask_of(indices)
    if m < 0:
        return form.field.zero()
    return form.coeffs.get(m, form.field.zero()) * _sort_sign(tuple(indices))


# Scalar-by-Scalar references for the exterior-algebra kernels: each sums
# its terms one Scalar at a time and returns the {mask: Scalar} coefficients
# of the result, nonzero only.


def _parity(idx) -> int:
    """The sign of the permutation sorting distinct indices, by inversions."""
    return -1 if sum(a > b for i, a in enumerate(idx) for b in idx[i + 1:]) & 1 else 1


def _indices(mask):
    return tuple(i + 1 for i in range(mask.bit_length()) if mask >> i & 1)


def ref_collect(field, terms) -> dict:
    """The sum of (indices, Scalar) terms: repeated indices vanish."""
    acc = {}
    for idx, v in terms:
        if len(set(idx)) < len(idx):
            continue
        m = sum(1 << (i - 1) for i in idx)
        acc[m] = acc.get(m, field.zero()) + (v if _parity(idx) > 0 else -v)
    return {m: v for m, v in acc.items() if not v.is_zero()}


def ref_wedge(a, b) -> dict:
    return ref_collect(a.field, [
        (_indices(ma) + _indices(mb), ca * cb) for ma, ca in a.coeffs.items() for mb, cb in b.coeffs.items()
    ])


def ref_interior(x, a) -> dict:
    terms = []
    for m, c in a.coeffs.items():
        idx = _indices(m)
        for p, i in enumerate(idx):
            v = c * x.components[i - 1]
            terms.append((idx[:p] + idx[p + 1:], -v if p & 1 else v))
    return ref_collect(a.field, terms)


def ref_d(coframe_d, a) -> dict:
    """d(c e^I) = sum_p (-1)^p c (d e^{i_p}) ^ e^{I - i_p}."""
    terms = []
    for m, c in a.coeffs.items():
        idx = _indices(m)
        for p, i in enumerate(idx):
            for md, cd in coframe_d[i - 1].coeffs.items():
                v = c * cd
                terms.append((_indices(md) + idx[:p] + idx[p + 1:], -v if p & 1 else v))
    return ref_collect(a.field, terms)


def ref_combination(field, terms) -> dict:
    """sum c a over (Scalar c, form a) pairs."""
    return ref_collect(field, [(_indices(m), c * v) for c, a in terms for m, v in a.coeffs.items()])


def ref_det(m):
    """det m by cofactor expansion along the first row (n >= 1)."""
    field = m[0][0].field
    if len(m) == 1:
        return m[0][0]
    out = field.zero()
    for c, x in enumerate(m[0]):
        if not x.is_zero():
            minor = ref_det([row[:c] + row[c + 1:] for row in m[1:]])
            out = out + x * minor if c % 2 == 0 else out - x * minor
    return out


def ref_move(a, m) -> dict:
    """a in the coframe f with e^j = sum_i m[j][i] f^i: the f^I coefficient
    is sum_J a_J det m[J, I].  With m = g^{-1} these are a's raised
    components a^I."""
    field, n = a.field, a.n
    out = {}
    for im in range(1 << n):
        if im.bit_count() == a.k:
            cols = [i - 1 for i in _indices(im)]
            v = field.zero()
            for jm, c in a.coeffs.items():
                sub = [[m[j - 1][i] for i in cols] for j in _indices(jm)]
                v = v + c * (ref_det(sub) if sub else field.one())
            if not v.is_zero():
                out[im] = v
    return out


def ref_star(a, geom, ginv) -> dict:
    """star a = rho sum_I eps(I, I^c) a^I e^{I^c}, rho = +-sqrt(det g)."""
    full = (1 << a.n) - 1
    rho = geom.sqrt_det() * geom.orientation_sign
    out = {}
    for m, v in ref_move(a, ginv).items():
        out[full ^ m] = rho * v if _parity(_indices(m) + _indices(full ^ m)) > 0 else -(rho * v)
    return out


def ref_inner(a, b, ginv):
    """<a, b> = sum_I a^I b_I."""
    out = a.field.zero()
    for m, v in ref_move(a, ginv).items():
        if m in b.coeffs:
            out = out + v * b.coeffs[m]
    return out


def bracket(frame, x, y) -> VectorField:
    """[X, Y] = sum X^i Y^j c^k_{ij} e_k from the frame's structure constants."""
    comps = [frame.field.zero()] * frame.n
    xs, ys = x.components, y.components
    for (i, j, k), c in frame._constants.entries.items():
        if not xs[i].is_zero() and not ys[j].is_zero():
            comps[k] = comps[k] + xs[i] * ys[j] * c
    return VectorField(frame.n, frame.field, comps)


def mat_vec(a, x) -> VectorField:
    """The vector A x for a matrix A of Scalars: J applied to x by its
    matrix, or x in the frame of the coframe f = A e."""
    zero = x.field.zero()
    return VectorField(x.n, x.field, [sum((aij * c for aij, c in zip(row, x.components)), zero) for row in a])


def cartan_three_form(frame) -> KForm:
    """H(X,Y,Z) = <[X,Y], Z>_g, which must be totally skew."""
    c = last_index(frame._constants.entries, frame.geometry, up=False)
    zero = frame.field.zero()
    h = skew_form(frame.n, frame.field, lambda i, j, k: c.get((i, j, k), zero))
    assert h is not None, "bracket pairing is not totally skew"
    return h


def to_ambient(sl, form) -> KForm:
    """A form of the adapted frame of the transverse slice ``sl`` moved back
    to the frame the slice was adapted from."""
    return transform_form(form, sl.a.rows(sl.ambient.n), sl.field)


def model_form(kind, n, field):
    """The kind's model form on the standard frame; the pair (omega, Omega+)
    for su3."""
    forms = _model_forms(kind, n, field)
    return forms if len(forms) > 1 else forms[0]


def with_h(frame, h) -> GStructure:
    """A structure on ``frame`` with no forms whose skew torsion is ``h``:
    the soliton and reduction routines read H, the connections and the
    curvature from a structure's analysis, and this one builds them from
    ``frame`` and ``h`` alone."""
    s = GStructure(None, frame, {})
    s.h = h
    return s


def rational_parts(x) -> tuple:
    """(a, b) with the scalar x = a + b sqrt(d), as Fractions; b = 0 in QQ."""
    return Fraction(x.p, x.den), Fraction(x.q, x.den)


def _frac_root(x, r):
    """Exact r-th root of a nonnegative Fraction, or None: the reference
    for ``scalars._frac_root``."""
    if x < 0:
        return None
    if x == 0:
        return Fraction(0)
    a = _int_root(x.numerator, r)
    b = _int_root(x.denominator, r)
    if a is None or b is None:
        return None
    return Fraction(a, b)


def _from_parts(field, a, b):
    """The scalar a + b sqrt(d) from Fraction parts."""
    sqrt_d = field.sqrt_d() if field.d else field.zero()
    return field.scalar(a) + sqrt_d * field.scalar(b)


def ref_sqrt(x):
    """``Scalar.sqrt`` computed on the Fraction parts a + b sqrt(d)."""
    if x.sign() < 0:
        raise NotRepresentable("sqrt of negative scalar")
    field, d = x.field, x.field.d
    a, b = rational_parts(x)
    if b == 0:
        r = _frac_root(a, 2)
        if r is not None:
            return _from_parts(field, r, 0)
        if d:
            q = _frac_root(a / d, 2)
            if q is not None:
                return _from_parts(field, 0, q)
        raise NotRepresentable(f"sqrt({a}) not in {field!r}")
    # solve (p + q sqrt d)^2 = a + b sqrt d
    rd = _frac_root(a * a - d * b * b, 2)
    if rd is not None:
        for p2 in ((a + rd) / 2, (a - rd) / 2):
            p = _frac_root(p2, 2)
            if p is not None and p != 0:
                for cand in (_from_parts(field, p, b / (2 * p)), _from_parts(field, -p, -b / (2 * p))):
                    if cand.sign() >= 0 and cand * cand == x:
                        return cand
    raise NotRepresentable(f"sqrt({x!r}) not in {field!r}")


def ref_root(x, r):
    """``Scalar.root`` computed on the Fraction parts a + b sqrt(d)."""
    if r == 2:
        return ref_sqrt(x)
    if x.sign() < 0:
        raise NotRepresentable("root of negative scalar")
    field, d = x.field, x.field.d
    a, b = rational_parts(x)
    if b == 0:
        v = _frac_root(a, r)
        if v is not None:
            return _from_parts(field, v, 0)
        if d and r % 2 == 0:
            q = _frac_root(a / Fraction(d) ** (r // 2), r)
            if q is not None:
                return _from_parts(field, 0, q)
    elif a == 0 and r % 2 == 1:
        # (q sqrt d)^r = q^r d^{(r-1)/2} sqrt d
        q = _frac_root(b / Fraction(d) ** ((r - 1) // 2), r)
        if q is not None:
            return _from_parts(field, 0, q)
    raise NotRepresentable(f"{r}-th root of {x!r} not in {field!r}")


def nonzero_names(torsion) -> list:
    """Names of the nonzero torsion classes, in report order."""
    return [name for name, val in torsion.components.items() if not val.is_zero()]


@pytest.fixture
def rng():
    return random.Random(20240817)
