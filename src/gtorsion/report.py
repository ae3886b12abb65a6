"""Human- and machine-readable reports (schema ``report_v1``).

Exact scalars serialize as canonical strings (reduced fractions, normalized
sqrt-d part), never as floats.  A form or a vector is written straight off
its int body: each entry (p, q, den) goes through ``scalars._coeff_str``,
the formatter behind ``str(Scalar)``, so no Scalar and no Scalar view is
built on the way out.  Dictionaries keep a fixed construction order, and
``Report.to_json`` writes the bytes of ``json.dumps(data,
ensure_ascii=False, indent=2)`` with one small recursive writer (an indent
sends ``json.dumps`` to the stdlib's pure-Python encoder), so JSON output
is byte-stable.
"""

from __future__ import annotations

from .forms import KForm, VectorField, indices_of
from .scalars import Scalar, _coeff_str

__all__ = ["scalar_str", "form_str", "vector_str", "Report"]


def scalar_str(s: Scalar) -> str:
    return str(s)


def _terms(x: KForm | VectorField, labels) -> str:
    """'c1*b1 + c2*b2 - ...' over the entries of x's body in mask order, or
    '0': b joins the labels of a mask, and the empty one of a 0-form marks a
    bare scalar.  A vector's body is keyed by the bit of each index, as a
    1-form's is, so both read the same way."""
    d, den, p, q = x.field.d, x._den, x._p, x._q
    out = ""
    for mask in sorted(p.keys() | q) if q else sorted(p):
        a, b = p.get(mask, 0), q.get(mask, 0)
        base = "^".join([labels[i - 1] for i in indices_of(mask)])
        if not base:
            term = _coeff_str(a, b, den, d)
        elif not b and (a == den or a == -den):
            term = base if a > 0 else "-" + base
        elif a and b:
            term = f"({_coeff_str(a, b, den, d)})*{base}"
        else:
            term = f"{_coeff_str(a, b, den, d)}*{base}"
        if not out:
            out = term
        elif term[0] == "-":
            out += " - " + term[1:]
        else:
            out += " + " + term
    return out or "0"


def form_str(form: KForm, labels) -> str:
    return _terms(form, labels)


def vector_str(v: VectorField, labels) -> str:
    return _terms(v, labels)


def _json(x, pad: str, quote) -> str:
    """x as ``json.dumps(x, ensure_ascii=False, indent=2)`` writes it at the
    indent ``pad``, strings quoted by json's ``encode_basestring``.  A
    module-level function, not a closure, so a call leaves no cycle behind."""
    if isinstance(x, str):
        return quote(x)
    if x is None:
        return "null"
    if x is True:
        return "true"
    if x is False:
        return "false"
    if isinstance(x, int):
        return int.__repr__(x)
    inner = pad + "  "
    if isinstance(x, dict):
        items = [f"{inner}{quote(k)}: {_json(v, inner, quote)}" for k, v in x.items()]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}" if items else "{}"
    if isinstance(x, list):
        items = [inner + _json(v, inner, quote) for v in x]
        return "[\n" + ",\n".join(items) + f"\n{pad}]" if items else "[]"
    raise TypeError(f"Object of type {type(x).__name__} is not JSON serializable")


def _text(prefix: str, value, lines: list) -> None:
    """Append the text lines of ``prefix: value`` to ``lines``; a nested key
    is indented two spaces at every depth.  Module-level, as ``_json`` is."""
    if isinstance(value, dict):
        lines.append(f"{prefix}:")
        for k, v in value.items():
            _text(f"  {k}", v, lines)
    elif isinstance(value, list):
        lines.append(f"{prefix}:")
        lines.extend(f"  - {v}" for v in value)
    else:
        lines.append(f"{prefix}: {value}")


class Report:
    """Ordered key/value report; values are strings, bools, ints, lists and
    dicts with string keys."""

    def __init__(self):
        self.data = {"schema": "report_v1"}

    def set(self, key, value):
        self.data[key] = value
        return self

    def to_json(self) -> str:
        """``json.dumps(self.data, ensure_ascii=False, indent=2)``, byte for
        byte; a value that is not a str, bool, int, None, list or dict
        raises TypeError naming its type."""
        from json.encoder import encode_basestring  # only a --format json run pays for it

        return _json(self.data, "", encode_basestring)

    def to_text(self) -> str:
        lines = []
        for k, v in self.data.items():
            if k != "schema":
                _text(k, v, lines)
        return "\n".join(lines)
