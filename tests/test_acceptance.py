"""Acceptance suite: one test per criterion, exact arithmetic throughout
(tolerance zero on every comparison).  Each test prints a single pass/fail
line; a test collects every sub-check before asserting so the full
comparison table is visible on failure.
"""

from fractions import Fraction

from conftest import (
    Q,
    Riemann,
    fixture_structure,
    random_kform,
    random_vector,
    rotation_matrix,
    rotate_frame_and_forms,
    nonzero_names,
)
from gtorsion.forms import (
    FrameGeometry,
    KForm,
    form_inner,
    hodge_star,
    interior,
    wedge,
)
from gtorsion.frames import bismut_connection
from gtorsion import reduction
from gtorsion.reduction import (
    central_extend,
    raw_reduction,
    reduce_g2,
    reduce_pair,
    reduce_spin7,
    splitting_check,
)
from gtorsion.soliton import (
    canonical_vector,
    grs_residual,
    spin7_dilatino_residual,
)
from gtorsion.structures import (
    bismut_torsion,
    g2_assemble,
    lee_form,
    solve_skew_torsion,
    spin7_assemble,
    su3_assemble,
    torsion_g2,
    torsion_spin7,
    torsion_su3,
)


def _finish(name, failures):
    status = "PASS" if not failures else "FAIL"
    print(f"acceptance {name}: {status}" + (f" ({len(failures)} sub-checks)" if failures else ""))
    assert not failures, f"{name}: " + "; ".join(failures)


def _check(failures, label, ok, got=None):
    if not ok:
        failures.append(label + (f" [got {got}]" if got is not None else ""))


# -- criterion 1: the SU(3) example ------------------------------------------------


def test_criterion_1_su3_example():
    failures = []
    s = fixture_structure("nonintsu3")
    f = s.field
    t = torsion_su3(s)
    _check(failures, "sigma0 = -2", t["sigma0"] == f.scalar(-2), t["sigma0"])
    nu3_expected = KForm.from_terms(6, f, [((1, 3, 5), 3), ((1, 4, 6), 1), ((2, 3, 6), 1), ((2, 4, 5), 1)])
    _check(failures, "nu3 printed value", t["nu3"] == nu3_expected, t["nu3"])
    _check(failures, "all other torsion forms zero", nonzero_names(t) == ["sigma0", "nu3"], nonzero_names(t))
    h = bismut_torsion(s)
    _check(failures, "d H_omega = 0", s.frame.d(h).is_zero())
    _check(failures, "theta_omega = 0", lee_form(s).is_zero())
    _check(failures, "V = 0", canonical_vector(s).is_zero())
    _finish("criterion 1 (su3 example)", failures)


# -- criterion 2: the closed-Lee G2 example ------------------------------------------


def test_criterion_2_g2_example():
    failures = []
    s = fixture_structure("nonintG2")
    f = s.field
    t = torsion_g2(s)
    _check(failures, "theta_phi = e7", t["lee"] == KForm.from_terms(7, f, [((7,), 1)]), t["lee"])
    _check(failures, "d theta_phi = 0", s.frame.d(t["lee"]).is_zero())
    _check(failures, "tau0 = 1", t["tau0"] == f.one(), t["tau0"])
    red = reduce_g2(s)
    omega_stated = KForm.from_terms(6, f, [((1, 4), 1), ((2, 5), -1), ((3, 6), -1)])
    _check(failures, "reduced omega as printed (e14 - e25 - e36)", red.omega == omega_stated, red.omega)
    omega_plus_stated = KForm.from_terms(6, f, [((1, 2, 3), 1), ((1, 5, 6), 1), ((2, 4, 6), -1), ((3, 4, 5), -1)])
    _check(failures, "reduced Omega+ as printed", red.omega_plus == omega_plus_stated, red.omega_plus)
    rt = red.reduced_torsion
    _check(failures, "reduced torsion supported on {sigma0, pi0, nu3}",
           nonzero_names(rt) == ["sigma0", "pi0", "nu3"], nonzero_names(rt))
    _check(failures, "sigma0 = 1/2", rt["sigma0"] == f.scalar(Fraction(1, 2)), rt["sigma0"])
    _check(failures, "pi0 = 7/12", rt["pi0"] == f.scalar(Fraction(7, 12)), rt["pi0"])
    sp = splitting_check(red)
    _check(failures, "splitting: all three conditions hold", all(sp.values()), sp)
    _finish("criterion 2 (g2 example)", failures)


# -- criterion 3: the non-closed-Lee G2 example ---------------------------------------


def test_criterion_3_g2_nonclosed_lee():
    failures = []
    s = fixture_structure("nonintG2nonclosedLee")
    f = s.field
    t = torsion_g2(s)
    _check(failures, "theta_phi = e4 - e3",
           t["lee"] == KForm.from_terms(7, f, [((4,), 1), ((3,), -1)]), t["lee"])
    _check(failures, "d theta_phi = e56 - e12",
           s.frame.d(t["lee"]) == KForm.from_terms(7, f, [((5, 6), 1), ((1, 2), -1)]))
    raw = raw_reduction(s)
    omega_stated = KForm.from_terms(
        7, f, [((1, 6), 1), ((2, 5), 1), ((3, 7), -1), ((1, 5), 1), ((2, 6), -1), ((4, 7), -1)]
    )
    _check(failures, "raw reduced omega as printed", raw["omega"] == omega_stated, raw["omega"])
    omega_plus_stated = KForm.from_terms(
        7, f, [((1, 2, 7), 1), ((1, 4, 6), -1), ((2, 4, 5), -1), ((5, 6, 7), 1), ((1, 3, 6), -1), ((2, 3, 5), -1)]
    )
    _check(failures, "raw reduced Omega+ as printed", raw["omega_plus"] == omega_plus_stated, raw["omega_plus"])
    red = reduce_g2(s)
    for key in ("string GRS slot1", "string GRS slot2", "string GRS slot3"):
        _check(failures, f"{key} = 0", red.verifier[key])
    _finish("criterion 3 (g2 non-closed Lee)", failures)


# -- criterion 4: the first Spin(7) example --------------------------------------------


def test_criterion_4_spin7_oneA():
    failures = []
    s = fixture_structure("nonintSpin7OneA")
    f = s.field
    t = torsion_spin7(s)
    theta_stated = KForm.from_terms(8, f, [((5,), Fraction(6, 7)), ((4,), Fraction(-6, 7))])
    _check(failures, "theta_Psi = (6/7)(e4 - e3)", t["lee"] == theta_stated, t["lee"])
    h = bismut_torsion(s)
    _check(failures, "d H_Psi = 0", s.frame.d(h).is_zero())
    raw = raw_reduction(s)
    c = Fraction(6, 7)
    phi_stated = KForm.from_terms(8, f, [
        ((1, 3, 7), -c), ((1, 4, 8), -c), ((1, 5, 8), -c), ((1, 2, 7), c),
        ((1, 3, 6), c), ((1, 2, 6), -c), ((4, 6, 7), c), ((5, 6, 7), c),
        ((2, 6, 8), -c), ((2, 3, 5), c), ((2, 3, 4), c), ((3, 6, 8), -c),
        ((2, 7, 8), -c), ((3, 7, 8), -c),
    ])
    _check(failures, "raw i_(theta#) Psi equals the printed 14-term form",
           raw["phi"] == phi_stated, raw["phi"] - phi_stated)
    red = reduce_spin7(s)
    _check(failures, "verifier tau0 = -6/7", red.verifier["tau0 = -6/7"])
    _check(failures, "verifier tau2 = 0", red.verifier["tau2 = 0"])
    _check(failures, "d theta_Psi in Lambda^2_21 upstairs", red.verifier["d theta in Lambda^2_21"])
    _check(failures, "push-down in Lambda^2_14", red.verifier["d theta in Lambda^2_14"])
    for key in ("string GRS slot1", "string GRS slot2", "string GRS slot3"):
        _check(failures, f"{key} = 0", red.verifier[key])
    _finish("criterion 4 (spin7 first example)", failures)


# -- criterion 5: the Spin(7)-on-su(3) example -------------------------------------------


def test_criterion_5_spin7_su3():
    failures = []
    s = fixture_structure("nonintSpin7Two")
    f = s.field
    s3 = f.sqrt_d()
    t = torsion_spin7(s)
    sev = Fraction(1, 7)
    theta_stated = KForm(8, 1, f, {
        1 << 2: (s3 + f.one()) * f.scalar(sev),
        1 << 3: f.scalar(-sev),
        1 << 4: f.scalar(-2 * sev),
        1 << 5: -(s3 - f.one()) * f.scalar(sev),
        1 << 6: f.scalar(-sev),
        1 << 7: f.scalar(sev),
    })
    _check(failures, "theta_Psi equals the printed sqrt3-linear value",
           t["lee"] == theta_stated, t["lee"])
    ft = Fraction(1, 14)
    dtheta_stated = KForm(8, 2, f, {
        (1 << 1) | (1 << 2): f.scalar(2 * ft),
        (1 << 3) | (1 << 4): (s3 - f.one()) * f.scalar(ft),
        (1 << 1) | (1 << 5): f.scalar(-ft),
        (1 << 2) | (1 << 4): f.scalar(ft),
        (1 << 1) | (1 << 4): f.scalar(-ft),
        (1 << 2) | (1 << 5): f.scalar(-ft),
        (1 << 3) | (1 << 6): f.scalar(ft),
    })
    _check(failures, "d theta_Psi equals the printed 2-form (1/14, (sqrt3-1)/14 terms)",
           s.frame.d(t["lee"]) == dtheta_stated, s.frame.d(t["lee"]))
    _check(failures, "dilatino residual = 0", spin7_dilatino_residual(s).is_zero())
    h = bismut_torsion(s)
    conn = bismut_connection(s.frame, h, s.levi_civita)
    _check(failures, "Bismut curvature of (g, H_Psi) identically zero", not Riemann(conn).entries)
    _finish("criterion 5 (spin7 su3 example)", failures)


# -- criterion 6: theorem-level soliton residuals -------------------------------------------


def test_criterion_6_soliton_residuals():
    failures = []
    for name in ("nonintG2", "nonintG2nonclosedLee", "nonintSpin7OneA", "nonintSpin7Two"):
        s = fixture_structure(name)
        v = canonical_vector(s)  # theta# resp. (7/6) theta#
        res = grs_residual(s, v).rows(s.n)
        ok = all(x.is_zero() for row in res for x in row)
        _check(failures, f"Rc + nabla X-flat = 0 on {name}", ok)
    _finish("criterion 6 (soliton residuals)", failures)


# -- criterion 7: oracle equivalence ----------------------------------------------------


def test_criterion_7_oracle_equivalence(rng):
    failures = []
    for name in ("nonintsu3", "nonintG2", "nonintG2nonclosedLee", "nonintSpin7OneA", "nonintSpin7Two"):
        s = fixture_structure(name)
        _check(failures, f"fixture {name}", bismut_torsion(s) == solve_skew_torsion(s))

    def assemble(kind, frame, forms):
        if kind == "su3":
            return su3_assemble(forms[0], forms[1], frame)
        if kind == "g2":
            return g2_assemble(forms[0], frame)
        return spin7_assemble(forms[0], frame)

    plans = [
        ("su3", "nonintsu3", ["omega", "omega_plus"], 100),
        ("g2", "nonintG2", ["phi"], 50),
        ("g2", "nonintG2nonclosedLee", ["phi"], 50),
        ("spin7", "nonintSpin7OneA", ["psi"], 100),
    ]
    for kind, name, keys, count in plans:
        base = fixture_structure(name)
        forms = [base.form(k) for k in keys]
        n = base.n
        bad = 0
        for i in range(count):
            planes = 1 if i % 2 else 0  # alternate permutations and rotations
            rot = rotation_matrix(n, rng, field=base.field, planes=planes)
            fr2, forms2 = rotate_frame_and_forms(base.frame, forms, rot)
            s2 = assemble(kind, fr2, forms2)
            if bismut_torsion(s2) != solve_skew_torsion(s2):
                bad += 1
        _check(failures, f"{count} randomized {kind} structures from {name}", bad == 0, bad)
    _finish("criterion 7 (oracle equivalence)", failures)


# -- criterion 8: randomized property suites ---------------------------------------------


def test_criterion_8_property_suites(rng):
    failures = []
    tally = 0

    # d^2 = 0 on randomized frames
    from conftest import su2su2_frame, su2su2u1_frame

    for base in (su2su2_frame(), su2su2u1_frame()):
        for _ in range(10):
            rot = rotation_matrix(base.n, rng)
            fr, _ = rotate_frame_and_forms(base, [], rot)
            for _ in range(5):
                k = rng.randint(0, base.n - 1)
                a = random_kform(base.n, k, Q, rng, density=0.3)
                if not fr.d(fr.d(a)).is_zero():
                    failures.append("d^2 != 0")
                tally += 1

    # star star identity and the pairing identity
    from conftest import random_posdef_geometry

    for n in (6, 7, 8):
        for geom in (FrameGeometry(n, Q), random_posdef_geometry(n, Q, rng)):
            vol = geom.volume_form()
            for k in range(n + 1):
                a = random_kform(n, k, Q, rng)
                b = random_kform(n, k, Q, rng)
                ss = hodge_star(hodge_star(a, geom), geom)
                sign = (-1) ** (k * (n - k))
                if ss != (a if sign > 0 else -a):
                    failures.append(f"star-star failed n={n} k={k}")
                if wedge(a, hodge_star(b, geom)) != vol.scale(form_inner(a, b, geom)):
                    failures.append(f"pairing failed n={n} k={k}")
                tally += 2

    # graded commutativity and the antiderivation rules
    for _ in range(100):
        n = rng.choice((6, 7, 8))
        ka, kb = rng.randint(0, 3), rng.randint(0, 3)
        a = random_kform(n, ka, Q, rng, density=0.3)
        b = random_kform(n, kb, Q, rng, density=0.3)
        ab, ba = wedge(a, b), wedge(b, a)
        if ab != (ba if (-1) ** (ka * kb) > 0 else -ba):
            failures.append("graded commutativity failed")
        tally += 1
    for _ in range(70):
        n = rng.choice((6, 7))
        ka, kb = rng.randint(1, 3), rng.randint(1, 3)
        a = random_kform(n, ka, Q, rng, density=0.3)
        b = random_kform(n, kb, Q, rng, density=0.3)
        x = random_vector(n, Q, rng)
        lhs = interior(x, wedge(a, b))
        term = wedge(a, interior(x, b))
        rhs = wedge(interior(x, a), b) + (term if ka % 2 == 0 else -term)
        if lhs != rhs:
            failures.append("antiderivation failed")
        y = random_vector(n, Q, rng)
        if ka >= 2 and interior(x, interior(y, a)) != -interior(y, interior(x, a)):
            failures.append("interior antisymmetry failed")
        tally += 2

    # torsion reconstruction exactness on rotated fixtures (the extraction
    # functions verify reconstruction internally and raise otherwise)
    for name, extractor, keys in (
        ("nonintsu3", torsion_su3, ["omega", "omega_plus"]),
        ("nonintG2", torsion_g2, ["phi"]),
        ("nonintSpin7OneA", torsion_spin7, ["psi"]),
    ):
        base = fixture_structure(name)
        forms = [base.form(k) for k in keys]
        for _ in range(10):
            rot = rotation_matrix(base.n, rng, field=base.field)
            fr2, forms2 = rotate_frame_and_forms(base.frame, forms, rot)
            if name == "nonintsu3":
                s2 = su3_assemble(forms2[0], forms2[1], fr2)
            elif name == "nonintG2":
                s2 = g2_assemble(forms2[0], fr2)
            else:
                s2 = spin7_assemble(forms2[0], fr2)
            extractor(s2)
            tally += 1

    # string-ansatz round trip and anomaly vanishing on rotated strong fixtures
    for name in ("nonintG2", "nonintG2nonclosedLee"):
        base = fixture_structure(name)
        for _ in range(10):
            rot = rotation_matrix(7, rng, field=base.field)
            fr2, (phi2,) = rotate_frame_and_forms(base.frame, [base.form("phi")], rot)
            s2 = g2_assemble(phi2, fr2)
            red = reduce_pair(*reduction._unit_length(s2, canonical_vector(s2)))
            if red.structure.h != wedge(red.mu, red.flux) + red.h_hat:
                failures.append("string ansatz reassembly failed")
            if not red.anomaly.is_zero():
                failures.append("anomaly nonzero on strong input")
            tally += 2

    # one full reduce-then-extend round trip on the closed-Lee fixture
    red = reduce_g2(fixture_structure("nonintG2"))
    qs = red.reduced_structure
    ext = central_extend(qs, red.flux_slice, "g2", red.df_slice)
    if not (qs.h == red.h_hat_slice and ext["strong"] and ext["torsion_matches"]):
        failures.append("reduce/extend round trip failed")
    tally += 1

    print(f"acceptance criterion 8 aggregate randomized cases: {tally}")
    _check(failures, "aggregate case count >= 500", tally >= 500, tally)
    _finish("criterion 8 (property suites)", failures)


# -- criterion 9: excluded analytic statements ----------------------------------------------


def test_criterion_9_exclusions_enforced():
    """Compactness-dependent statements stay out of scope: the potential is
    input data (df), never solved for, and the scalar rigidity identity is
    only evaluated under its pointwise hypotheses."""
    failures = []
    import gtorsion.soliton as soliton_mod

    _check(failures, "no variational potential solver in the API",
           not any("perelman" in name.lower() or "minimize" in name.lower() for name in dir(soliton_mod)))
    from gtorsion.soliton import PreconditionError, g2_rigidity_identity

    s = fixture_structure("nonintG2")
    try:
        g2_rigidity_identity(s)
        _check(failures, "rigidity identity rejects V != 0", False)
    except PreconditionError:
        pass
    _finish("criterion 9 (exclusions)", failures)
