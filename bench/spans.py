"""Per-layer tracing for the gtorsion benchmark.

The tracer wraps every public function and public method of the gtorsion
modules, in every module namespace and class dict that binds it, so calls
made through ``from ... import`` bindings are seen too.  Each wrapped call
is a span; spans nest on one stack, and a span's self time is its duration
minus the time covered by its child spans.  Spans are aggregated as they
close (calls, self time, outermost total time) rather than stored one by
one, because a single verdict opens about a million scalar spans.

Tracing is installed only around the traced passes of a ``--trace 1`` run
and removed afterwards; timed runs never load this module's wrappers.
"""

from __future__ import annotations

import cProfile
import importlib
import pstats
import time
import types

# Modules whose names are layers, in pipeline order.  ``cli`` is only
# rebound (it imports names from the others); it adds no layer of its own.
LAYERS = [
    "scalars",
    "forms",
    "frames",
    "linsolve",
    "structures",
    "soliton",
    "reduction",
    "parser",
    "report",
    "engine",
    "registry",
]
_NAMESPACES = ["gtorsion"] + [f"gtorsion.{m}" for m in LAYERS + ["cli"]]

# Operator methods are wrapped along with public names: they are how forms
# and scalars do their arithmetic.
_DUNDERS = {
    "__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__",
    "__rmul__", "__truediv__", "__rtruediv__", "__eq__",
}

# Scalar counters: counter name -> scalar-layer methods whose calls it counts.
# ``eq`` includes the field comparison every mixed operand pays in
# ``Scalar._coerce``.  Nested calls count again (``Scalar.__eq__`` subtracts,
# ``root(2)`` calls ``sqrt``).
SCALAR_COUNTERS = {
    "mul": ["Scalar.__mul__"],
    "add": ["Scalar.__add__", "Scalar.__sub__"],
    "inverse": ["Scalar.inverse"],
    "eq": ["Scalar.__eq__", "Field.__eq__"],
    "roots": ["Scalar.sqrt", "Scalar.root"],
}

# Named spans reported on their own: metric prefix -> wrapped functions.
GROUPS = {
    "frames.levi_civita": ["frames.levi_civita"],
    "frames.bismut_connection": ["frames.bismut_connection"],
    "frames.curvature": ["frames.curvature"],
    "structures.bismut_torsion": ["structures.bismut_torsion"],
    "structures.torsion_classes": [
        "structures.torsion_su3", "structures.torsion_g2", "structures.torsion_spin7",
    ],
    "structures.solve_skew_torsion": ["structures.solve_skew_torsion"],
    "linsolve.solve_unique_sparse": ["linsolve.solve_unique_sparse"],
    "structures.assemble": [
        "structures.su3_assemble", "structures.g2_assemble",
        "structures.spin7_assemble", "structures.ah_assemble",
    ],
    "reduction.central_extend": ["reduction.central_extend"],
    "reduction.reduce": ["reduction.reduce_g2", "reduction.reduce_spin7"],
    "reduction.adapt_frame": ["reduction.adapt_frame"],
    "forms.hodge_star": ["forms.hodge_star"],
    "forms.wedge": ["forms.wedge"],
    "soliton.grs_residual": ["soliton.grs_residual"],
    "soliton.weighted_scalar": ["soliton.weighted_scalar"],
    "parser.parse": ["parser.parse"],
    "report.to_json": ["report.Report.to_json"],
}

# Groups whose calls are compared by argument value within one verdict.
REPEAT_GROUPS = [
    "frames.levi_civita",
    "frames.bismut_connection",
    "frames.curvature",
    "structures.bismut_torsion",
    "structures.torsion_classes",
]

# record slots
_CALLS, _SELF, _TOTAL, _DEPTH, _REPEATS = range(5)


def value_key(x) -> str:
    """Canonical string of an argument, equal for equal values.

    The pipeline rebuilds equal frames, forms and connections, so identity
    would miss repeats; this compares by value instead.
    """
    cls = type(x).__name__
    if x is None or isinstance(x, (bool, int, str)):
        return repr(x)
    if cls == "Scalar":
        return str(x)
    if cls == "KForm":
        body = ";".join(f"{m}={c}" for m, c in sorted(x.coeffs.items()))
        return f"F{x.n},{x.k}[{body}]"
    if cls == "VectorField":
        return "V[" + ",".join(str(c) for c in x.components) + "]"
    if cls == "FrameGeometry":
        rows = "|".join(",".join(str(c) for c in row) for row in x.metric)
        return f"G{x.orientation_sign}[{rows}]"
    if cls == "LieAlgebraFrame":
        d = ",".join(value_key(f) for f in x.coframe_d)
        return f"L{list(x.labels)}[{d}]{value_key(x.geometry)}"
    if cls == "TransverseSlice":  # keyed by data only: its methods are traced
        return f"X[{value_key(x.ambient)}]{value_key(x.geometry)}"
    if cls == "GStructure":
        forms = ",".join(f"{k}:{value_key(v)}" for k, v in sorted(x.forms.items()))
        return f"S{x.kind}[{value_key(x.frame)}{value_key(x.geometry)}{forms}]"
    if cls == "TorsionClasses":
        comps = ",".join(f"{k}:{value_key(v)}" for k, v in sorted(x.components.items()))
        return f"T{x.kind}[{comps}]"
    if cls == "ConnectionCoeffs":
        gam = "|".join(",".join(value_key(v) for v in row) for row in x.gamma)
        return f"C[{value_key(x.frame)}{gam}]"
    if isinstance(x, (list, tuple)):
        return "(" + ",".join(value_key(v) for v in x) + ")"
    if isinstance(x, dict):
        return "{" + ",".join(f"{k}:{value_key(v)}" for k, v in x.items()) + "}"
    return f"{cls}@{id(x)}"


def _targets(mod, layer):
    """(span name, function) for each public function and method of ``mod``."""
    out = []
    for name, obj in vars(mod).items():
        if isinstance(obj, types.FunctionType) and obj.__module__ == mod.__name__ and not name.startswith("_"):
            out.append((f"{layer}.{name}", obj))
        elif isinstance(obj, type) and obj.__module__ == mod.__name__ and not issubclass(obj, BaseException):
            for attr, fn in vars(obj).items():
                if isinstance(fn, types.FunctionType) and (not attr.startswith("_") or attr in _DUNDERS):
                    out.append((f"{layer}.{obj.__name__}.{fn.__name__}", fn))
    return out


class Tracer:
    def __init__(self):
        self._stack: list[float] = []
        self._records: dict[str, list] = {}
        self._wrapped: dict[object, object] = {}  # original -> wrapper
        self._names: dict[object, str] = {}  # original -> span name
        self._seen: dict[str, set] = {}
        self._restore: list[tuple[object, str, object]] = []
        keyed = {fn for g in REPEAT_GROUPS for fn in GROUPS[g]}
        for layer in LAYERS:
            mod = importlib.import_module(f"gtorsion.{layer}")
            for span, fn in _targets(mod, layer):
                if fn in self._wrapped:
                    continue  # aliases such as __radd__ = __add__
                rec = self._records.setdefault(span, [0, 0.0, 0.0, 0, 0])
                self._names[fn] = span
                self._wrapped[fn] = self._make(fn, rec, span if span in keyed else None)

    def _make(self, fn, rec, keyed_span):
        stack = self._stack
        perf = time.perf_counter
        seen = self._seen

        def wrapper(*args, **kwargs):
            if keyed_span is not None:
                k0 = perf()
                key = value_key(args) + value_key(kwargs)
                bucket = seen.setdefault(keyed_span, set())
                if key in bucket:
                    rec[_REPEATS] += 1
                bucket.add(key)
                if stack:  # key building is tracing overhead, not the caller's work
                    stack[-1] += perf() - k0
            rec[_DEPTH] += 1
            stack.append(0.0)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf() - t0
                rec[_CALLS] += 1
                rec[_SELF] += dur - stack.pop()
                rec[_DEPTH] -= 1
                if not rec[_DEPTH]:
                    rec[_TOTAL] += dur
                if stack:
                    stack[-1] += dur
        return wrapper

    # -- install / remove ---------------------------------------------------

    def install(self):
        for modname in _NAMESPACES:
            mod = importlib.import_module(modname)
            spaces = [mod] + [c for c in vars(mod).values()
                              if isinstance(c, type) and c.__module__.startswith("gtorsion")]
            for space in spaces:
                for name, obj in list(vars(space).items()):
                    wrapper = self._wrapped.get(obj) if isinstance(obj, types.FunctionType) else None
                    if wrapper is not None:
                        self._restore.append((space, name, obj))
                        setattr(space, name, wrapper)

    def remove(self):
        for space, name, obj in reversed(self._restore):
            setattr(space, name, obj)
        self._restore.clear()

    def start_verdict(self):
        self._seen.clear()

    # -- results ------------------------------------------------------------

    def counts(self) -> dict[str, int]:
        return {span: rec[_CALLS] for span, rec in self._records.items()}

    def metrics(self, verdicts: int) -> dict[str, float]:
        """Per-verdict layer metrics over everything traced so far."""
        r = self._records
        out = {}
        for layer in LAYERS:
            recs = [rec for span, rec in r.items() if span.split(".", 1)[0] == layer]
            out[f"{layer}.calls"] = sum(rec[_CALLS] for rec in recs) / verdicts
            out[f"{layer}.self_s"] = sum(rec[_SELF] for rec in recs) / verdicts
        for counter, spans in SCALAR_COUNTERS.items():
            out[f"scalars.{counter}"] = sum(r[f"scalars.{s}"][_CALLS] for s in spans) / verdicts
        for group, spans in GROUPS.items():
            calls = sum(r[s][_CALLS] for s in spans)
            out[f"{group}.calls"] = calls / verdicts
            out[f"{group}.total_s"] = sum(r[s][_TOTAL] for s in spans) / verdicts
            if group in REPEAT_GROUPS:
                repeats = sum(r[s][_REPEATS] for s in spans)
                out[f"{group}.repeat_ratio"] = repeats / calls if calls else 0.0
        return out

    def profile_mismatches(self, run) -> list[str]:
        """Run ``run()`` under cProfile with tracing installed and compare
        each span's call count with cProfile's count for the same function."""
        before = self.counts()
        prof = cProfile.Profile()
        prof.enable()
        try:
            run()
        finally:
            prof.disable()
        after = self.counts()
        by_code = {}
        for (filename, line, name), (_, ncalls, *_rest) in pstats.Stats(prof).stats.items():
            by_code[(filename, line, name)] = ncalls
        bad = []
        for fn, span in self._names.items():
            code = fn.__code__
            expected = by_code.get((code.co_filename, code.co_firstlineno, code.co_name), 0)
            got = after[span] - before[span]
            if got != expected:
                bad.append(f"{span}: spans {got}, cProfile {expected}")
        return bad
