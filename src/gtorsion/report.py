"""Human- and machine-readable reports (schema ``report_v1``).

Exact scalars serialize as canonical strings (reduced fractions, normalized
sqrt-d part), never as floats; dictionaries keep a fixed construction order
so JSON output is byte-stable.
"""

from __future__ import annotations

from .forms import KForm, VectorField, indices_of
from .scalars import Scalar

__all__ = ["scalar_str", "form_str", "vector_str", "matrix_norm_sq", "Report"]


def scalar_str(s: Scalar) -> str:
    return str(s)


def _join_terms(terms) -> str:
    """'c1*b1 + c2*b2 - ...' from (Scalar, basis label) pairs; an empty
    label marks a bare scalar."""
    parts = []
    for c, base in terms:
        cs = scalar_str(c)
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


def form_str(form: KForm, labels) -> str:
    return _join_terms(
        (form.coeffs[mask], "^".join(labels[i - 1] for i in indices_of(mask)))
        for mask in sorted(form.coeffs)
    )


def vector_str(v: VectorField, labels) -> str:
    return _join_terms((c, labels[i]) for i, c in enumerate(v.components) if not c.is_zero())


def matrix_norm_sq(mat) -> Scalar:
    field = mat[0][0].field
    acc = field.zero()
    for row in mat:
        for x in row:
            acc = acc + x * x
    return acc


class Report:
    """Ordered key/value report; values are strings, bools, numbers, dicts."""

    def __init__(self):
        self.data = {"schema": "report_v1"}

    def set(self, key, value):
        self.data[key] = value
        return self

    def to_json(self) -> str:
        import json  # only a --format json run pays for it

        return json.dumps(self.data, ensure_ascii=False, indent=2)

    def to_text(self) -> str:
        lines = []

        def emit(prefix, value):
            if isinstance(value, dict):
                lines.append(f"{prefix}:")
                for k, v in value.items():
                    emit(f"  {k}", v)
            elif isinstance(value, list):
                lines.append(f"{prefix}:")
                for v in value:
                    lines.append(f"  - {v}")
            else:
                lines.append(f"{prefix}: {value}")

        for k, v in self.data.items():
            if k == "schema":
                continue
            emit(k, v)
        return "\n".join(lines)
