"""The Riemannian curvature read against what fixes it without the Ricci
kernel.  On the hyperbolic G2 and Spin(7) inputs (d e_i = e_i ^ e_n for
i < n, the identity metric) the metric is hyperbolic n-space's, so Scal =
-n(n-1) and Ric = -(n-1) g in every frame; these algebras are not
unimodular, so the trace term sum_m Gamma^m_{jk} tau_m of the Ricci kernel
is nonzero there (dropped, it reads Scal = -6 on the G2 input).  And
Bryant's (2005) eq. (4.28) gives the scalar curvature of a G2 structure
from its torsion classes, in the engine's convention d phi = tau0 star phi
+ 3 tau1 ^ phi + star tau3:
    Scal = 12 delta tau1 + (21/8) tau0^2 + 30 |tau1|^2 - 1/2 |tau2|^2 - 1/2 |tau3|^2."""

import random
from fractions import Fraction

import pytest

from conftest import HYPERBOLIC_G2, HYPERBOLIC_SPIN7, S3XT4_G2, band_shear, coframe_text, rotation_matrix
from test_any_frame import NILPOTENT_G2
from gtorsion import engine, registry
from gtorsion.forms import form_inner
from gtorsion.frames import codifferential, curvature
from gtorsion.parser import parse
from gtorsion.soliton import scalar_curvature

# frames of the coframe f = A e: A a label permutation and 0, 1 or 2 Givens
# planes (orthonormal), or a band shear (a metric that is not the identity)
FRAMES = ["planes0", "planes1", "planes2", "shear1"]


def in_frame(text, frame):
    doc = parse(text)
    if frame.startswith("shear"):
        a = band_shear(doc.field, doc.dim, int(frame[5:]))
    else:
        a = rotation_matrix(doc.dim, random.Random(frame), doc.field, planes=int(frame[6:]))
    return coframe_text(text, a)


@pytest.mark.parametrize("frame", ["declared", "shear1"])
@pytest.mark.parametrize("text", [HYPERBOLIC_G2, HYPERBOLIC_SPIN7], ids=["g2", "spin7"])
def test_hyperbolic_inputs_have_textbook_curvature(text, frame):
    text = text if frame == "declared" else in_frame(text, frame)
    doc = parse(text)
    s, n = doc.structure(), doc.dim
    ric = curvature(s.frame, s.levi_civita).rows(n)
    metric = s.frame.geometry.metric
    assert any(not metric[i][j].is_zero() for i in range(n) for j in range(n) if i != j) == (frame != "declared")
    assert ric == [[x * -(n - 1) for x in row] for row in metric]
    assert scalar_curvature(s.frame, s.levi_civita) == -n * (n - 1)
    rep = engine.run_check(parse(text)).data
    assert rep["frame"]["unimodular"] is False
    assert rep["torsion_oracle_agree"] is True


def bryant_sides(s):
    """(Scal, the torsion-class side of Bryant's eq. (4.28)) of a G2 structure."""
    geom, t = s.geometry, s.torsion
    tau0, tau1, tau2, tau3 = (t[name] for name in ("tau0", "tau1", "tau2", "tau3"))
    delta_tau1 = codifferential(s.frame, tau1).coeffs.get(0, s.field.zero())
    rhs = (delta_tau1 * 12 + tau0 * tau0 * Fraction(21, 8) + form_inner(tau1, tau1, geom) * 30
           - form_inner(tau2, tau2, geom) * Fraction(1, 2) - form_inner(tau3, tau3, geom) * Fraction(1, 2))
    return scalar_curvature(s.frame, s.levi_civita), rhs


@pytest.mark.parametrize("frame", FRAMES)
@pytest.mark.parametrize("text, scal", [
    (registry.input_text("nonintG2"), 3),
    (registry.input_text("nonintG2nonclosedLee"), 3),
    (S3XT4_G2, Fraction(3, 2)),
    (NILPOTENT_G2, Fraction(-1, 2)),
    (HYPERBOLIC_G2, -42),
], ids=["nonintG2", "nonintG2nonclosedLee", "s3xt4", "nilpotent_g2", "hyperbolic_g2"])
def test_bryant_scalar_curvature_of_a_g2_structure(text, scal, frame):
    s = parse(in_frame(text, frame)).structure()
    lhs, rhs = bryant_sides(s)
    assert lhs == rhs == scal
