"""Shared builders: worked-example structures (loaded from the registry
data files) plus rational-orthogonal randomization helpers."""

import random
from fractions import Fraction

import pytest

from gtorsion import registry
from gtorsion.forms import FrameGeometry, KForm, VectorField, _mat_inverse
from gtorsion.frames import LieAlgebraFrame, change_frame, transform_form
from gtorsion.parser import parse
from gtorsion.scalars import QuadraticField, RationalField

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


def rotate_frame_and_forms(frame, forms, rot):
    """Apply the coframe change f = R e to a frame and forms together."""
    field = frame.field
    new_frame = change_frame(frame, rot, new_labels=list(frame.labels), validate=False)
    rinv = _mat_inverse(rot, field)
    return new_frame, [transform_form(f, rinv, field) for f in forms]


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


@pytest.fixture
def rng():
    return random.Random(20240817)
