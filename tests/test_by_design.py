"""Why acceptance criteria 2, 4 and 5 fail: each printed literature value
that disagrees with exact recomputation, pinned against what the engine
computes, with the printed values restated from ``test_acceptance.py``.
Those three tests stay failing; these assertions pass and say what each
difference is.

* Criterion 2: the printed tau0 = 1 is <d phi, star phi>/6, the factor of
  Friedrich-Ivanov's H = (1/6)<d phi, star phi> phi - star d phi +
  star(theta ^ phi); the engine's tau0 is <d phi, star phi>/7 (d phi =
  tau0 star phi + 3 tau1 ^ phi + star tau3), and the printed pi0 carries the
  same 7/6.  The printed reduced omega, with the Omega+ that the engine
  reproduces, induces an indefinite metric, so its e25 sign is no
  convention.
* Criterion 4: the printed i_(theta#) Psi differs from the engine's in the
  signs of e126 and e268 alone.
* Criterion 5: the engine's theta_Psi is 3 times the printed one minus
  (3/7) e2 (1-based, frame label e1), and the printed d theta_Psi is not d
  of the printed theta_Psi.
"""

from fractions import Fraction

import pytest

from conftest import fixture_structure
from gtorsion.forms import GeometryError, KForm, form_inner
from gtorsion.reduction import raw_reduction, reduce_g2
from gtorsion.structures import su3_assemble


def test_criterion_2_printed_tau0_is_the_inner_product_over_6():
    s = fixture_structure("nonintG2")
    f = s.field
    inner = form_inner(s.d_form("phi"), s.form("star_phi"), s.geometry)
    assert inner == f.scalar(6)
    assert inner / f.scalar(6) == f.one()  # the printed tau0
    assert inner / f.scalar(7) == s.torsion["tau0"] == f.scalar(Fraction(6, 7))


def test_criterion_2_printed_pi0_carries_the_same_factor():
    s = fixture_structure("nonintG2")
    f = s.field
    pi0 = reduce_g2(s).reduced_torsion["pi0"]
    assert pi0 == f.scalar(Fraction(1, 2))
    assert f.scalar(Fraction(7, 12)) / pi0 == f.scalar(Fraction(7, 6))  # printed / engine


def test_criterion_2_printed_omega_induces_an_indefinite_metric():
    s = fixture_structure("nonintG2")
    f = s.field
    red = reduce_g2(s)
    omega_printed = KForm.from_terms(6, f, [((1, 4), 1), ((2, 5), -1), ((3, 6), -1)])
    omega_plus_printed = KForm.from_terms(6, f, [((1, 2, 3), 1), ((1, 5, 6), 1), ((2, 4, 6), -1), ((3, 4, 5), -1)])
    assert red.omega_plus == omega_plus_printed
    assert red.omega == KForm.from_terms(6, f, [((1, 4), 1), ((2, 5), 1), ((3, 6), -1)])
    with pytest.raises(GeometryError, match="^metric is not positive-definite$"):
        su3_assemble(omega_printed, red.omega_plus, red.transverse)


def test_criterion_4_printed_form_flips_two_signs():
    s = fixture_structure("nonintSpin7OneA")
    f = s.field
    c = Fraction(6, 7)
    printed = [
        ((1, 3, 7), -c), ((1, 4, 8), -c), ((1, 5, 8), -c), ((1, 2, 7), c),
        ((1, 3, 6), c), ((1, 2, 6), -c), ((4, 6, 7), c), ((5, 6, 7), c),
        ((2, 6, 8), -c), ((2, 3, 5), c), ((2, 3, 4), c), ((3, 6, 8), -c),
        ((2, 7, 8), -c), ((3, 7, 8), -c),
    ]
    phi = raw_reduction(s)["phi"]
    assert phi != KForm.from_terms(8, f, printed)
    flipped = [(idx, -v if idx in ((1, 2, 6), (2, 6, 8)) else v) for idx, v in printed]
    assert phi == KForm.from_terms(8, f, flipped)


def _printed_theta_psi(f):
    s3, sev = f.sqrt_d(), Fraction(1, 7)
    return KForm(8, 1, f, {
        1 << 2: (s3 + f.one()) * f.scalar(sev),
        1 << 3: f.scalar(-sev),
        1 << 4: f.scalar(-2 * sev),
        1 << 5: -(s3 - f.one()) * f.scalar(sev),
        1 << 6: f.scalar(-sev),
        1 << 7: f.scalar(sev),
    })


def test_criterion_5_engine_theta_is_three_printed_minus_three_sevenths_e2():
    s = fixture_structure("nonintSpin7Two")
    f = s.field
    e2 = KForm.from_terms(8, f, [((2,), 1)])  # frame label e1
    assert s.frame.labels[1] == "e1"
    assert s.torsion["lee"] == _printed_theta_psi(f).scale(3) - e2.scale(f.scalar(Fraction(3, 7)))


def test_criterion_5_printed_d_theta_is_not_d_of_printed_theta():
    s = fixture_structure("nonintSpin7Two")
    f = s.field
    s3, ft = f.sqrt_d(), Fraction(1, 14)
    dtheta_printed = KForm(8, 2, f, {
        (1 << 1) | (1 << 2): f.scalar(2 * ft),
        (1 << 3) | (1 << 4): (s3 - f.one()) * f.scalar(ft),
        (1 << 1) | (1 << 5): f.scalar(-ft),
        (1 << 2) | (1 << 4): f.scalar(ft),
        (1 << 1) | (1 << 4): f.scalar(-ft),
        (1 << 2) | (1 << 5): f.scalar(-ft),
        (1 << 3) | (1 << 6): f.scalar(ft),
    })
    assert s.frame.d(_printed_theta_psi(f)) != dtheta_printed
