"""Pipeline orchestration: build reports for the check / reduce / extend
commands from a parsed input document."""

from __future__ import annotations

from .forms import KForm
from .report import Report, form_str, matrix_norm_sq, scalar_str, vector_str
from .reduction import (
    ReductionError,
    central_extend,
    reduce_g2,
    reduce_spin7,
    splitting_check,
)
from .soliton import (
    SolitonData,
    canonical_vector,
    grs_residual,
    parallel_certificate,
    spin7_dilatino_residual,
    string_grs_residual,
    weighted_scalar,
)
from .structures import StructureError, bismut_ricci_form, solve_skew_torsion

__all__ = ["run_check", "run_reduce", "run_extend"]


def _torsion_report(s, torsion, labels):
    out = {}
    for name, val in torsion.components.items():
        if hasattr(val, "coeffs"):
            out[name] = form_str(val, labels)
        else:
            out[name] = scalar_str(val)
    return out


def run_check(doc, df: KForm | None = None) -> Report:
    frame = doc.frame()
    s = doc.structure()
    labels = list(frame.labels)
    field = frame.field
    rep = Report()
    rep.set("command", "check")
    rep.set("kind", s.kind)
    rep.set("dim", frame.n)
    rep.set("field", _field_str(field))
    rep.set("frame", {"labels": labels, "unimodular": frame.is_unimodular()})

    if s.torsion is not None:
        rep.set("torsion", _torsion_report(s, s.torsion, labels))
    rep.set("lee_form", form_str(s.lee, labels))

    h = s.h
    rep.set("bismut_torsion", form_str(h, labels))
    strong = frame.d(h).is_zero()
    rep.set("strong_torsion", strong)
    rep.set("torsion_oracle_agree", solve_skew_torsion(s) == h)

    df = df if df is not None else (doc.df or KForm.zero(frame.n, 1, field))
    v = canonical_vector(s, df)
    rep.set("canonical_vector", vector_str(v, labels))
    cert = parallel_certificate(frame, h, v, s.geometry, conn=s.bismut)
    rep.set("canonical_vector_parallel", cert["parallel"])
    rep.set("canonical_vector_norm_sq", scalar_str(cert["norm_sq"]))

    data = SolitonData.of(s, v, df=df)
    res = grs_residual(data)
    rep.set("grs_residual_norm_sq", scalar_str(matrix_norm_sq(res)))
    rep.set("grs_residual_zero", matrix_norm_sq(res).is_zero())
    rep.set("weighted_scalar", scalar_str(weighted_scalar(data)))
    if doc.flux is not None:
        data_f = SolitonData.of(s, v, df=df, f=doc.flux)
        s1, s2, s3 = string_grs_residual(data_f)
        rep.set(
            "string_grs_residual_zero",
            matrix_norm_sq(s1).is_zero() and s2.is_zero() and s3.is_zero(),
        )

    if s.kind in ("ah", "su3"):
        rep.set("nijenhuis_zero", s.nijenhuis.is_zero())
        rep.set("bismut_ricci_form_zero", bismut_ricci_form(s).is_zero())
    if s.kind == "spin7":
        rep.set("dilatino_residual", scalar_str(spin7_dilatino_residual(s)))
    return rep


def run_reduce(doc, df: KForm | None = None, raw: bool = False) -> Report:
    rep = run_check(doc, df=df)
    rep.set("command", "reduce")
    s = doc.structure()
    frame = doc.frame()
    labels = list(frame.labels)
    df = df if df is not None else (doc.df or KForm.zero(frame.n, 1, frame.field))
    reducer = {"g2": reduce_g2, "spin7": reduce_spin7}.get(s.kind)
    if reducer is None:
        raise StructureError(f"no canonical reduction for kind {s.kind!r}")

    rawred = reducer(s, df, raw=True)
    rawdict = {}
    if s.kind == "g2":
        rawdict["omega"] = form_str(rawred.omega, labels)
        rawdict["omega_plus"] = form_str(rawred.omega_plus, labels)
    else:
        rawdict["phi"] = form_str(rawred.phi, labels)
    rawdict["flux"] = form_str(rawred.flux, labels)
    rep.set("raw_reduction", rawdict)
    if raw:
        return rep

    try:
        red = reducer(s, df, raw=False)
    except ReductionError as exc:
        rep.set("reduction_error", str(exc))
        return rep
    tlabels = list(red.transverse.labels)
    out = {}
    if s.kind == "g2":
        out["omega"] = form_str(red.omega, tlabels)
        out["omega_plus"] = form_str(red.omega_plus, tlabels)
    else:
        out["phi"] = form_str(red.phi, tlabels)
    out["torsion"] = _torsion_report(red.reduced_structure, red.reduced_torsion, tlabels)
    out["anomaly_zero"] = red.anomaly.is_zero()
    out["verifier"] = {k: bool(v) for k, v in red.verifier.items()}
    out["splitting"] = splitting_check(red)
    rep.set("reduction", out)
    rep.set("verifier_ok", red.verifier_ok())
    return rep


def run_extend(doc, target: str | None = None, df: KForm | None = None) -> Report:
    frame = doc.frame()
    s = doc.structure()
    field = frame.field
    if doc.flux is None:
        raise StructureError("extend needs a flux block (F = ...)")
    df = df if df is not None else (doc.df or KForm.zero(frame.n, 1, field))
    if target is None:
        target = {"su3": "g2", "g2": "spin7"}.get(s.kind)
        if target is None:
            raise StructureError(f"no extension target for kind {s.kind!r}")
    ext = central_extend(frame, s, doc.flux, target, df=df)
    new_frame = ext["frame"]
    labels = list(new_frame.labels)
    rep = Report()
    rep.set("command", "extend")
    rep.set("kind", ext["structure"].kind)
    rep.set("dim", new_frame.n)
    rep.set("field", _field_str(field))
    rep.set("frame", {
        "labels": labels,
        "equations": {
            lab: form_str(new_frame.coframe_d[i], labels) for i, lab in enumerate(labels)
        },
    })
    key = {"g2": "phi", "spin7": "psi"}[target]
    rep.set("structure_form", form_str(ext["structure"].form(key), labels))
    rep.set("bismut_torsion", form_str(ext["h"], labels))
    rep.set("strong_torsion", ext["strong"])
    rep.set("torsion_matches_formula", ext["torsion_matches"])
    return rep


def _field_str(field) -> str:
    return repr(field)
