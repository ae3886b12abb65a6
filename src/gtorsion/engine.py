"""Pipeline orchestration: build reports for the check / reduce / extend
commands from a parsed input document."""

from __future__ import annotations

from .forms import KForm
from .parser import ParseError
from .report import Report, form_str, scalar_str, vector_str
from .reduction import (
    ReductionError,
    central_extend,
    raw_reduction,
    reduce_g2,
    reduce_spin7,
    splitting_check,
)
from .soliton import (
    canonical_vector,
    grs_residual,
    grs_residual_norm_sq,
    parallel_certificate,
    spin7_dilatino_residual,
    string_grs_residual,
    weighted_scalar,
)
from .structures import KINDS, StructureError, bismut_ricci_form, solve_skew_torsion

__all__ = ["run_check", "run_reduce", "run_extend"]


def _torsion_report(torsion, labels):
    out = {}
    for name, val in torsion.components.items():
        out[name] = form_str(val, labels) if isinstance(val, KForm) else scalar_str(val)
    return out


def _potential(doc, df: KForm | None) -> KForm:
    """The soliton potential's gradient: ``df`` (the --df flag), else the
    document's df block, else 0.  Every command reads it first, so a df that
    is not closed is reported before any structure error; a zero df is
    closed, so it is not differentiated."""
    df = df if df is not None else doc.df
    if df is None:
        s = doc.structure()
        return KForm.zero(s.n, 1, s.field)
    if not df.is_zero() and not doc.frame().d(df).is_zero():
        raise ParseError("df must be a closed 1-form: d(df) != 0")
    return df


def run_check(doc, df: KForm | None = None) -> Report:
    df = _potential(doc, df)
    s = doc.structure()
    frame = s.frame
    labels = list(frame.labels)
    field = frame.field
    rep = Report()
    rep.set("command", "check")
    rep.set("kind", s.kind)
    rep.set("dim", frame.n)
    rep.set("field", repr(field))
    rep.set("frame", {"labels": labels, "unimodular": frame.is_unimodular()})

    if s.torsion is not None:
        rep.set("torsion", _torsion_report(s.torsion, labels))
    rep.set("lee_form", form_str(s.lee, labels))

    h = s.h
    rep.set("bismut_torsion", form_str(h, labels))
    strong = frame.d(h).is_zero()
    rep.set("strong_torsion", strong)
    rep.set("torsion_oracle_agree", solve_skew_torsion(s) == h)

    v = canonical_vector(s, df)
    rep.set("canonical_vector", vector_str(v, labels))
    cert = parallel_certificate(s, v)
    rep.set("canonical_vector_parallel", cert["parallel"])
    rep.set("canonical_vector_norm_sq", scalar_str(cert["norm_sq"]))

    res = grs_residual(s, v)
    rep.set("grs_residual_norm_sq", scalar_str(grs_residual_norm_sq(s, res)))
    rep.set("grs_residual_zero", res.is_zero())
    rep.set("weighted_scalar", scalar_str(weighted_scalar(s, v)))
    if doc.flux is not None:
        s1, s2, s3 = string_grs_residual(s, v, doc.flux)
        rep.set(
            "string_grs_residual_zero",
            s1.is_zero() and s2.is_zero() and s3.is_zero(),
        )

    if KINDS[s.kind].almost_complex:
        rep.set("nijenhuis_zero", s.nijenhuis.is_zero())
        rep.set("bismut_ricci_form_zero", bismut_ricci_form(s).is_zero())
    if s.kind == "spin7":
        rep.set("dilatino_residual", scalar_str(spin7_dilatino_residual(s)))
    return rep


def run_reduce(doc, df: KForm | None = None, raw_only: bool = False) -> Report:
    """``check``, then the raw presentation (``raw_reduction``) and, unless
    ``raw_only``, the normalized reduction; a ``ReductionError`` in either
    pass is reported under its own key and does not stop the other."""
    df = _potential(doc, df)
    rep = run_check(doc, df=df)
    rep.set("command", "reduce")
    s = doc.structure()
    labels = list(s.frame.labels)
    try:
        # an input kind without a reduction raises StructureError here
        rep.set("raw_reduction", {name: form_str(x, labels) for name, x in raw_reduction(s).items()})
    except ReductionError as exc:
        rep.set("raw_reduction_error", str(exc))
    if raw_only:
        return rep

    try:
        red = {"g2": reduce_g2, "spin7": reduce_spin7}[s.kind](s, df)
    except ReductionError as exc:
        rep.set("reduction_error", str(exc))
        return rep
    tlabels = list(red.transverse.labels)
    out = {name: form_str(x, tlabels) for name, x in red.forms.items()}
    out["torsion"] = _torsion_report(red.reduced_torsion, tlabels)
    out["anomaly_zero"] = red.anomaly.is_zero()
    out["verifier"] = {k: bool(v) for k, v in red.verifier.items()}
    out["splitting"] = splitting_check(red)
    rep.set("reduction", out)
    rep.set("verifier_ok", red.verifier_ok())
    return rep


def run_extend(doc, target: str | None = None, df: KForm | None = None) -> Report:
    df = _potential(doc, df)
    s = doc.structure()
    if doc.flux is None:
        raise StructureError("extend needs a flux block (F = ...)")
    if target is None:
        target = next((k for k, row in KINDS.items() if row.reduces_to == s.kind), None)
        if target is None:
            raise StructureError(f"no extension target for kind {s.kind!r}")
    ext = central_extend(s, doc.flux, target, df=df)
    new_frame = ext["frame"]
    labels = list(new_frame.labels)
    rep = Report()
    rep.set("command", "extend")
    rep.set("kind", ext["structure"].kind)
    rep.set("dim", new_frame.n)
    rep.set("field", repr(s.field))
    rep.set("frame", {
        "labels": labels,
        "equations": {
            lab: form_str(new_frame.coframe_d[i], labels) for i, lab in enumerate(labels)
        },
    })
    rep.set("structure_form", form_str(ext["form"], labels))
    rep.set("bismut_torsion", form_str(ext["h"], labels))
    rep.set("strong_torsion", ext["strong"])
    rep.set("torsion_matches_formula", ext["torsion_matches"])
    return rep
