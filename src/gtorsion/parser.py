"""Line-oriented input format for structure equations and G-structures.

Grammar (one statement per line, ``#`` comments, blank lines ignored):

    dim 7
    field rational | field sqrt 3
    frame e1 e2 e3 e4 e5 e6 e7
    d e1 = -2*e2^e3 + e4^e5
    metric identity
    metric rows
      1 0 ...
      ...
    orientation e2 e1 e3 ...          (optional; default label order)
    structure g2                      (then: phi = ... | phi = model)
    structure su3                     (omega = ..., Omega+ = ...)
    structure spin7                   (Psi = ... | Psi = model)
    structure ah                      (omega = ...)
    vector df = 0
    flux F = e5^e6 - e1^e2

``dim``, ``frame``, each ``d`` label, the ``structure`` line, each structure
form, ``vector df`` and ``flux F`` may appear once; a repeat is a parse error.
``dim`` comes before ``frame``, ``metric rows`` and ``= model`` forms;
``field`` before ``frame``, ``metric rows`` and every form; ``frame`` before
every written-out form; ``structure`` before its forms, which are the ones
``structures.KINDS`` lists for the kind.  ``vector V`` is a parse error: the
canonical vector is computed from the structure and df.  A frame label with
no ``d`` line is closed: omitting ``d e7`` means d e7 = 0.
Coefficients are rationals or sqrt-d-linear expressions such as
``(sqrt3+1)/7``; ``^`` is the wedge.  Whitespace around operators is free.
"""

from __future__ import annotations

import re

from .forms import FrameGeometry, KForm, _sort_sign, mask_of
from .frames import FrameError, LieAlgebraFrame
from .report import form_str, scalar_str
from .scalars import Field, GTorsionError, QuadraticField, RationalField, Scalar
from .structures import (
    KINDS,
    GStructure,
    StructureError,
    _model_forms,
    ah_assemble,
    g2_assemble,
    spin7_assemble,
    su3_assemble,
)

__all__ = ["ParseError", "InputDocument", "parse", "parse_file"]


class ParseError(GTorsionError, ValueError):
    """``line`` is an input line number, or the name of the flag whose value
    failed to parse (such as ``"--df"``)."""

    exit_code = 2
    label = "parse error"

    def __init__(self, message: str, line: int | str | None = None, col: int | None = None):
        loc = ""
        if line is not None:
            loc = f"line {line}" if isinstance(line, int) else line
            if col is not None:
                loc += f", col {col}"
            loc = f" ({loc})"
        super().__init__(message + loc)
        self.line = line
        self.col = col


TOKEN_RE = re.compile(
    r"\s*(?:(?P<number>\d+)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)|(?P<op>[-+*/^()=]))"
)


def _tokenize(text: str, line_no: int | str):
    pos = 0
    out = []
    while pos < len(text):
        m = TOKEN_RE.match(text, pos)
        if not m or m.end() == pos:
            if text[pos:].strip():
                raise ParseError(f"unexpected character {text[pos]!r}", line_no, pos + 1)
            break
        if m.group("number"):
            out.append(("num", int(m.group("number")), m.start() + 1))
        elif m.group("name"):
            out.append(("name", m.group("name"), m.start() + 1))
        else:
            out.append(("op", m.group("op"), m.start() + 1))
        pos = m.end()
    return out


class _ExprParser:
    """Recursive-descent parser for scalar coefficients and form terms."""

    def __init__(self, tokens, field: Field, labels, line_no: int | str):
        self.toks = tokens
        self.i = 0
        self.field = field
        self.labels = {lab: k + 1 for k, lab in enumerate(labels or [])}
        self.line = line_no

    def peek(self):
        return self.toks[self.i] if self.i < len(self.toks) else (None, None, None)

    def next(self):
        t = self.peek()
        self.i += 1
        return t

    def expect_op(self, op):
        kind, val, col = self.next()
        if kind != "op" or val != op:
            raise ParseError(f"expected {op!r}", self.line, col)

    def at_end(self):
        return self.i >= len(self.toks)

    # scalars ---------------------------------------------------------------

    def _sqrt_atom(self, name, col) -> Scalar:
        m = re.fullmatch(r"sqrt(\d+)", name)
        if not m:
            raise ParseError(f"unknown symbol {name!r}", self.line, col)
        d = int(m.group(1))
        if not isinstance(self.field, QuadraticField):
            raise ParseError(
                f"sqrt{d} needs 'field sqrt {d}' declared first", self.line, col
            )
        if self.field.d != d:
            raise ParseError(
                f"sqrt{d} does not live in QQ(sqrt{self.field.d})", self.line, col
            )
        return self.field.sqrt_d()

    def _divide(self, val: Scalar) -> Scalar:
        """val / (the next scalar factor); a zero divisor is a ParseError."""
        col = self.peek()[2]
        rhs = self.scalar_factor()
        if rhs.is_zero():
            raise ParseError("division by zero", self.line, col)
        return val / rhs

    def scalar_expr(self) -> Scalar:
        val = self.scalar_term()
        while True:
            kind, op, _ = self.peek()
            if kind == "op" and op in "+-":
                self.next()
                rhs = self.scalar_term()
                val = val + rhs if op == "+" else val - rhs
            else:
                return val

    def scalar_term(self) -> Scalar:
        val = self.scalar_factor()
        while True:
            kind, op, _ = self.peek()
            if kind == "op" and op in "*/":
                self.next()
                val = val * self.scalar_factor() if op == "*" else self._divide(val)
            else:
                return val

    def scalar_factor(self) -> Scalar:
        kind, val, col = self.next()
        if kind == "op" and val == "-":
            return -self.scalar_factor()
        if kind == "op" and val == "+":
            return self.scalar_factor()
        if kind == "num":
            return self.field.scalar(val)
        if kind == "name":
            return self._sqrt_atom(val, col)
        if kind == "op" and val == "(":
            inner = self.scalar_expr()
            self.expect_op(")")
            return inner
        raise ParseError("expected a number, sqrt-symbol, or parenthesis", self.line, col)

    # forms -----------------------------------------------------------------

    def form_expr(self, n: int):
        """Returns (terms, degree) with terms a list of (label-indices, Scalar)."""
        terms = []
        degree = None
        sign = 1
        kind, val, col = self.peek()
        if kind == "op" and val in "+-":
            self.next()
            sign = -1 if val == "-" else 1
        while True:
            coef, chain = self.form_term()
            if sign < 0:
                coef = -coef
            if chain:
                if degree is None:
                    degree = len(chain)
                elif degree != len(chain):
                    raise ParseError(
                        f"mixed degrees {degree} and {len(chain)} in one expression", self.line
                    )
                terms.append((chain, coef))
            elif not coef.is_zero():
                raise ParseError("a bare scalar is only allowed as the literal 0", self.line)
            kind, val, col = self.peek()
            if kind is None:
                return terms, degree
            if kind == "op" and val in "+-":
                self.next()
                sign = -1 if val == "-" else 1
                continue
            raise ParseError(f"unexpected token {val!r}", self.line, col)

    def form_term(self):
        """One product: scalar factors and at most one wedge chain."""
        coef = self.field.one()
        chain = None
        expect_factor = True
        while True:
            kind, val, col = self.peek()
            if expect_factor:
                if kind == "num":
                    self.next()
                    coef = coef * self.field.scalar(val)
                elif kind == "op" and val == "(":
                    self.next()
                    inner = self.scalar_expr()
                    self.expect_op(")")
                    coef = coef * inner
                elif kind == "name":
                    if val in self.labels:
                        chain = self._wedge_chain()
                    else:
                        self.next()
                        coef = coef * self._sqrt_atom(val, col)
                elif kind == "op" and val == "-":
                    self.next()
                    coef = -coef
                    continue
                else:
                    raise ParseError("expected a coefficient or frame label", self.line, col)
                expect_factor = False
                continue
            if kind == "op" and val == "*":
                self.next()
                expect_factor = True
                continue
            if kind == "op" and val == "/":
                self.next()
                coef = self._divide(coef)
                continue
            return coef, chain

    def _wedge_chain(self):
        chain = []
        while True:
            kind, val, col = self.next()
            if kind != "name" or val not in self.labels:
                raise ParseError(f"unknown frame label {val!r}", self.line, col)
            chain.append(self.labels[val])
            kind, val, _ = self.peek()
            if kind == "op" and val == "^":
                self.next()
                continue
            return chain


class InputDocument:
    """Parsed input: frame, geometry, structure data, optional df/flux."""

    def __init__(self):
        self.dim = None
        self.field: Field = RationalField()
        self.labels = None
        self.coframe = {}
        self.metric = None
        self.orientation_sign = 1
        self.structure_kind = None
        self.structure_forms = {}
        self.df = None
        self.flux = None
        self._frame = None
        self._structure = None

    def frame(self) -> LieAlgebraFrame:
        if self._frame is None:
            n = self.dim
            dlist = [self.coframe.get(lab, KForm.zero(n, 2, self.field)) for lab in self.labels]
            geom = FrameGeometry(n, self.field, self.metric, orientation_sign=self.orientation_sign)
            try:
                self._frame = LieAlgebraFrame(self.labels, dlist, geom)
            except FrameError as exc:
                raise ParseError(str(exc)) from exc
        return self._frame

    def serialize(self) -> str:
        """Canonical input text; parse(serialize(doc)) reproduces the document."""
        field = f"sqrt {self.field.d}" if isinstance(self.field, QuadraticField) else "rational"
        out = [f"dim {self.dim}", f"field {field}", "frame " + " ".join(self.labels)]
        for lab in self.labels:
            d = self.coframe.get(lab)
            out.append(f"d {lab} = " + (form_str(d, self.labels) if d is not None else "0"))
        if self.metric is None:
            out.append("metric identity")
        else:
            out.append("metric rows")
            for row in self.metric:
                out.append("  " + " ".join(f"({scalar_str(x)})" for x in row))
        if self.orientation_sign < 0:
            perm = [self.labels[1], self.labels[0]] + list(self.labels[2:])
            out.append("orientation " + " ".join(perm))
        if self.structure_kind:
            out.append(f"structure {self.structure_kind}")
            for slot, name, _, _ in KINDS[self.structure_kind].slots:
                if slot in self.structure_forms:
                    out.append(f"{name} = " + form_str(self.structure_forms[slot], self.labels))
        if self.df is not None:
            out.append("vector df = " + form_str(self.df, self.labels))
        if self.flux is not None:
            out.append("flux F = " + form_str(self.flux, self.labels))
        return "\n".join(out) + "\n"

    def structure(self) -> GStructure:
        if self._structure is None:
            fr = self.frame()
            kind = self.structure_kind
            if kind is None:
                raise ParseError("no structure block in input")
            forms = []
            for slot, name, _, _ in KINDS[kind].slots:
                if slot not in self.structure_forms:
                    raise ParseError(f"structure {kind} needs a '{name} = ...' line")
                forms.append(self.structure_forms[slot])
            # looked up per call, so a rebound module global is the one called
            assemble = {"su3": su3_assemble, "g2": g2_assemble, "spin7": spin7_assemble, "ah": ah_assemble}
            s = assemble[kind](*forms, fr)
            # SU(3) and G2 induce their metric; declared rows must match it
            if self.metric is not None and s.geometry.metric != fr.geometry.metric:
                raise StructureError("declared frame metric disagrees with the structure-induced metric")
            self._structure = s
        return self._structure


# form-line head -> (slot, name in the input, degree)
_FORM_HEADS = {
    name.lower(): (slot, name, degree) for row in KINDS.values() for slot, name, degree, _ in row.slots
}


def parse(text: str) -> InputDocument:
    doc = InputDocument()
    lines = text.splitlines()
    metric_rows_pending = 0
    metric_rows = []
    seen = set()  # statements that may appear once: a repeat is an error
    i = 0
    while i < len(lines):
        raw = lines[i]
        line_no = i + 1
        i += 1
        stripped = raw.split("#", 1)[0].strip()
        if not stripped:
            continue
        if metric_rows_pending:
            toks = _tokenize(stripped, line_no)
            p = _ExprParser(toks, doc.field, [], line_no)
            row = []
            while not p.at_end():
                row.append(p.scalar_term())
            if len(row) != doc.dim:
                raise ParseError(f"metric row needs {doc.dim} entries", line_no)
            metric_rows.append(row)
            metric_rows_pending -= 1
            if not metric_rows_pending:
                doc.metric = metric_rows
            continue
        head, _, rest = stripped.partition(" ")
        head_l = head.lower()
        if head_l == "dim":
            _once(seen, "dim", line_no)
            try:
                doc.dim = int(rest.strip())
            except ValueError:
                raise ParseError("dim needs an integer", line_no)
            if not 1 <= doc.dim <= 8:
                raise ParseError("dim must be between 1 and 8", line_no)
        elif head_l == "field":
            if doc.labels is not None or metric_rows_pending or doc.metric or doc.structure_forms:
                raise ParseError("declare field before frame, metric rows and forms", line_no)
            parts = rest.split()
            if parts[:1] == ["rational"]:
                doc.field = RationalField()
            elif parts[:1] == ["sqrt"] and len(parts) == 2:
                try:
                    doc.field = QuadraticField(int(parts[1]))
                except ValueError as exc:
                    raise ParseError(f"bad field: {exc}", line_no)
            elif parts[:1] == ["float"]:
                raise ParseError(
                    "the float backend was removed: use 'field rational' or 'field sqrt d'", line_no
                )
            else:
                raise ParseError("field must be 'rational' or 'sqrt d'", line_no)
        elif head_l == "frame":
            doc.labels = rest.split()
            if doc.dim is None:
                raise ParseError("declare dim before frame", line_no)
            _once(seen, "frame", line_no)
            if len(doc.labels) != doc.dim:
                raise ParseError(f"frame needs {doc.dim} labels", line_no)
            if len(set(doc.labels)) != doc.dim:
                raise ParseError("duplicate frame labels", line_no)
        elif head_l == "d":
            if doc.labels is None:
                raise ParseError("declare the frame before structure equations", line_no)
            lhs, _, rhs = rest.partition("=")
            lab = lhs.strip()
            if lab not in doc.labels:
                raise ParseError(f"unknown frame label {lab!r}", line_no)
            _once(seen, f"d {lab}", line_no)
            doc.coframe[lab] = _parse_form(rhs, doc, 2, line_no)
        elif head_l == "metric":
            spec = rest.strip().lower()
            if spec == "identity":
                doc.metric = None
            elif spec == "rows":
                if doc.dim is None:
                    raise ParseError("declare dim before the metric", line_no)
                metric_rows_pending = doc.dim
                metric_rows = []
            else:
                raise ParseError("metric must be 'identity' or 'rows'", line_no)
        elif head_l == "orientation":
            perm = rest.split()
            if doc.labels is None or sorted(perm) != sorted(doc.labels):
                raise ParseError("orientation must be a permutation of the frame labels", line_no)
            doc.orientation_sign = _sort_sign([doc.labels.index(x) for x in perm])
        elif head_l == "structure":
            kind = rest.strip().lower()
            if kind not in KINDS:
                raise ParseError(f"unknown structure kind {kind!r}", line_no)
            _once(seen, "structure", line_no)
            doc.structure_kind = kind
        elif head_l in _FORM_HEADS:
            slot, name, degree = _FORM_HEADS[head_l]
            kind = doc.structure_kind
            if kind is None:
                raise ParseError(f"declare the structure before its {head} line", line_no)
            slots = [s for s, _, _, _ in KINDS[kind].slots]
            if slot not in slots:
                raise ParseError(f"structure {kind} has no {head} form", line_no)
            _once(seen, name, line_no)
            lhs_rest = rest.partition("=")[2]
            if lhs_rest.strip().lower() == "model":
                if doc.dim is None:
                    raise ParseError(f"declare dim before the {name} model", line_no)
                doc.structure_forms[slot] = _model_forms(kind, doc.dim, doc.field)[slots.index(slot)]
            else:
                doc.structure_forms[slot] = _parse_form(lhs_rest, doc, degree, line_no)
        elif head_l == "vector":
            name, _, expr = rest.partition("=")
            name = name.strip()
            if name.lower() == "df":
                _once(seen, "vector df", line_no)
                doc.df = _parse_form(expr, doc, 1, line_no)
            elif name == "V":
                raise ParseError("vector V is computed from the structure and df, not read: remove the line", line_no)
            else:
                raise ParseError("vector must declare V or df", line_no)
        elif head_l == "flux":
            name, _, expr = rest.partition("=")
            if name.strip() != "F":
                raise ParseError("flux must declare F", line_no)
            _once(seen, "flux F", line_no)
            doc.flux = _parse_form(expr, doc, 2, line_no)
        else:
            raise ParseError(f"unknown statement {head!r}", line_no)
    if metric_rows_pending:
        raise ParseError(
            f"metric rows: expected {doc.dim} rows, got {len(metric_rows)} before end of input"
        )
    if doc.dim is None or doc.labels is None:
        raise ParseError("input needs at least 'dim' and 'frame' declarations")
    return doc


def _once(seen: set, statement: str, line_no: int):
    """Record a statement that may appear once; a repeat is a ParseError."""
    if statement in seen:
        raise ParseError(f"repeated statement '{statement}'", line_no)
    seen.add(statement)


def _parse_form(expr: str, doc: InputDocument, degree: int, line_no: int | str) -> KForm:
    if doc.labels is None:
        raise ParseError(f"declare the frame before a {degree}-form", line_no)
    toks = _tokenize(expr, line_no)
    if not toks:
        raise ParseError("empty expression", line_no)
    if len(toks) == 1 and toks[0][0] == "num" and toks[0][1] == 0:
        return KForm.zero(doc.dim, degree, doc.field)
    p = _ExprParser(toks, doc.field, doc.labels, line_no)
    terms, deg = p.form_expr(doc.dim)
    if deg is None:
        return KForm.zero(doc.dim, degree, doc.field)
    if deg != degree:
        raise ParseError(f"expected a {degree}-form, got degree {deg}", line_no)
    acc = {}
    zero = doc.field.zero()
    for chain, coef in terms:
        m = mask_of(chain)
        if m < 0:
            continue  # repeated label wedges to zero
        s = _sort_sign(tuple(chain))
        acc[m] = acc.get(m, zero) + (coef if s > 0 else -coef)
    return KForm(doc.dim, degree, doc.field, acc)


def parse_file(path) -> InputDocument:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror or exc}") from exc
    return parse(text)
