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
One grammar reads every coefficient and form: an expression is a sum of
products, a product holds at most one wedge chain (``e1^e2``, ``^`` the
wedge) among its signed numbers, ``sqrtd`` symbols and parenthesised scalars
such as ``(sqrt3+1)/7``, ``/`` divides by a nonzero scalar factor, and a
``metric rows`` entry is a product with no chain.  Error columns count from
the start of the line.  Whitespace around operators is free.
"""

from __future__ import annotations

import re
from itertools import islice

from .forms import FrameGeometry, KForm, _sort_sign
from .frames import FrameError, LieAlgebraFrame
from .report import form_str, scalar_str
from .scalars import Field, GTorsionError, QuadraticField, RationalField, Scalar
from .structures import (
    KINDS,
    GStructure,
    StructureError,
    _check_spin7_orbit,
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


_TOKEN = re.compile(r"(?P<num>\d+)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)|(?P<op>[-+*/^()=])|(?P<bad>\S)")
_SQRT = re.compile(r"sqrt(\d+)")
_SIGNS = ("+", "-")


class _Expr:
    """Recursive-descent parser of the expression in ``code`` from ``start``
    on.  A token is (kind, value, column): kind is "num" (an int value),
    "name", "end" or the operator itself, and columns count from 1 at the
    start of ``code``.  ``labels`` maps each frame label to its 1-based index;
    an empty map reads scalars only."""

    def __init__(self, code: str, start: int, field: Field, labels: dict, line: int | str):
        self.field, self.labels, self.line = field, labels, line
        toks = []
        for m in _TOKEN.finditer(code, start):
            kind, val = m.lastgroup, m.group()
            if kind == "num":
                val = int(val)
            elif kind == "op":
                kind = val
            elif kind == "bad":
                raise ParseError(f"unexpected character {val!r}", line, m.start() + 1)
            toks.append((kind, val, m.start() + 1))
        toks.append(("end", None, len(code.rstrip()) + 1))
        self.toks = toks
        self.i = 0

    def take(self):
        tok = self.toks[self.i]
        self.i += 1
        return tok

    def sum(self, chains: bool) -> list:
        """Products joined by + and -: a list of (chain or None, coefficient)."""
        terms = [self.product(chains)]
        while self.toks[self.i][0] in _SIGNS:
            negate = self.take()[0] == "-"
            chain, coef = self.product(chains)
            terms.append((chain, -coef if negate else coef))
        return terms

    def product(self, chains: bool) -> tuple:
        """Signed factors joined by * and /, at most one of them a wedge chain
        (read only when ``chains``): (chain or None, coefficient)."""
        coef = chain = None
        negate = divide = False
        while True:
            kind, val, col = self.take()
            while kind in _SIGNS:
                negate ^= kind == "-"
                kind, val, col = self.take()
            if chains and not divide and kind == "name" and val in self.labels:
                if chain is not None:
                    raise ParseError("a product holds at most one wedge chain", self.line, col)
                chain = self.chain(val)
            else:
                x = self.factor(kind, val, col, chains and not divide)
                if divide:
                    if x.is_zero():
                        raise ParseError("division by zero", self.line, col)
                    x = x.inverse()
                coef = x if coef is None else coef * x
            kind = self.toks[self.i][0]
            if kind != "*" and kind != "/":
                break
            self.i += 1
            divide = kind == "/"
        if coef is None:
            coef = self.field.one()
        return chain, -coef if negate else coef

    def factor(self, kind, val, col, chains: bool) -> Scalar:
        """A number, sqrt symbol or parenthesised sum of scalars."""
        if kind == "num":
            return self.field.scalar(val)
        if kind == "name":
            if val in self.labels:  # a chain is read only outside parentheses and divisors
                raise ParseError(f"parentheses and divisors hold scalars only, not the frame label {val!r}",
                                 self.line, col)
            m = _SQRT.fullmatch(val)
            if not m:
                raise ParseError(f"unknown symbol {val!r}", self.line, col)
            d = int(m.group(1))
            if not isinstance(self.field, QuadraticField):
                raise ParseError(f"sqrt{d} needs 'field sqrt {d}' declared first", self.line, col)
            if self.field.d != d:
                raise ParseError(f"sqrt{d} does not live in QQ(sqrt{self.field.d})", self.line, col)
            return self.field.sqrt_d()
        if kind == "(":
            terms = self.sum(False)
            total = terms[0][1]
            for _, coef in terms[1:]:
                total = total + coef
            kind, _, col = self.take()
            if kind != ")":
                raise ParseError("expected ')'", self.line, col)
            return total
        expected = "a coefficient or frame label" if chains else "a number, sqrt-symbol, or parenthesis"
        raise ParseError(f"expected {expected}", self.line, col)

    def chain(self, label: str) -> list[int]:
        """Frame labels joined by ^ from ``label`` on, as 1-based indices."""
        out = [self.labels[label]]
        while self.toks[self.i][0] == "^":
            kind, val, col = self.toks[self.i + 1]
            self.i += 2
            if kind == "name" and val in self.labels:
                out.append(self.labels[val])
            elif kind == "name":
                raise ParseError(f"unknown frame label {val!r}", self.line, col)
            else:
                raise ParseError("expected a frame label after '^'", self.line, col)
        return out


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
            # SU(3) and G2 induce their metric; the declared one (rows or
            # the identity) must match it
            if s.geometry.metric != fr.geometry.metric:
                raise StructureError("declared frame metric disagrees with the structure-induced metric")
            # assembly checks a declared Psi's norm and self-duality, not its orbit
            if kind == "spin7":
                _check_spin7_orbit(s)
            self._structure = s
        return self._structure


# form-line head -> (slot, name in the input, degree)
_FORM_HEADS = {
    name.lower(): (slot, name, degree) for row in KINDS.values() for slot, name, degree, _ in row.slots
}


def _statements(text: str):
    """(line number, the line before any ``#``) for each line with a statement."""
    for line_no, raw in enumerate(text.splitlines(), 1):
        code = raw.split("#", 1)[0]
        if code.strip():
            yield line_no, code


def parse(text: str) -> InputDocument:
    doc = InputDocument()
    seen = set()  # statements that may appear once: a repeat is an error
    statements = _statements(text)
    for line_no, code in statements:
        head, _, rest = code.strip().partition(" ")
        head_l = head.lower()
        expr = code.find("=") + 1 or len(code)  # where the text after the first '=' starts
        if head_l == "dim":
            _once(seen, "dim", line_no)
            try:
                doc.dim = int(rest.strip())
            except ValueError:
                raise ParseError("dim needs an integer", line_no)
            if not 1 <= doc.dim <= 8:
                raise ParseError("dim must be between 1 and 8", line_no)
        elif head_l == "field":
            if doc.labels is not None or doc.metric or doc.structure_forms:
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
            lab = rest.partition("=")[0].strip()
            if lab not in doc.labels:
                raise ParseError(f"unknown frame label {lab!r}", line_no)
            _once(seen, f"d {lab}", line_no)
            doc.coframe[lab] = _parse_form(code, doc, 2, line_no, expr)
        elif head_l == "metric":
            spec = rest.strip().lower()
            if spec == "identity":
                doc.metric = None
            elif spec == "rows":
                if doc.dim is None:
                    raise ParseError("declare dim before the metric", line_no)
                rows = [_metric_row(row, doc, row_no) for row_no, row in islice(statements, doc.dim)]
                if len(rows) < doc.dim:
                    raise ParseError(f"metric rows: expected {doc.dim} rows, got {len(rows)} before end of input")
                doc.metric = rows
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
            if code[expr:].strip().lower() == "model":
                if doc.dim is None:
                    raise ParseError(f"declare dim before the {name} model", line_no)
                doc.structure_forms[slot] = _model_forms(kind, doc.dim, doc.field)[slots.index(slot)]
            else:
                doc.structure_forms[slot] = _parse_form(code, doc, degree, line_no, expr)
        elif head_l == "vector":
            name = rest.partition("=")[0].strip()
            if name.lower() == "df":
                _once(seen, "vector df", line_no)
                doc.df = _parse_form(code, doc, 1, line_no, expr)
            elif name == "V":
                raise ParseError("vector V is computed from the structure and df, not read: remove the line", line_no)
            else:
                raise ParseError("vector must declare V or df", line_no)
        elif head_l == "flux":
            if rest.partition("=")[0].strip() != "F":
                raise ParseError("flux must declare F", line_no)
            _once(seen, "flux F", line_no)
            doc.flux = _parse_form(code, doc, 2, line_no, expr)
        else:
            raise ParseError(f"unknown statement {head!r}", line_no)
    if doc.dim is None or doc.labels is None:
        raise ParseError("input needs at least 'dim' and 'frame' declarations")
    return doc


def _once(seen: set, statement: str, line_no: int):
    """Record a statement that may appear once; a repeat is a ParseError."""
    if statement in seen:
        raise ParseError(f"repeated statement '{statement}'", line_no)
    seen.add(statement)


def _metric_row(code: str, doc: InputDocument, line_no: int) -> list[Scalar]:
    """One ``metric rows`` line: dim whitespace-separated products with no
    chain.  A ``+`` after an entry, or a ``-`` after an entry and before a
    space, would join two entries into a sum or difference, which is written
    in parentheses, so it is an error; ``1 -2`` is the entries 1 and -2."""
    p = _Expr(code, 0, doc.field, {}, line_no)
    row = []
    while p.toks[p.i][0] != "end":
        kind, _, col = p.toks[p.i]
        if row and kind == "+":
            raise ParseError("metric row entries are separated by spaces: write a sum as (a + b)", line_no, col)
        if row and kind == "-" and code[col:col + 1].isspace():
            raise ParseError("metric row entries are separated by spaces: write a difference as (a - b)", line_no, col)
        row.append(p.product(False)[1])
    if len(row) != doc.dim:
        raise ParseError(f"metric row needs {doc.dim} entries", line_no)
    return row


def _parse_form(text: str, doc: InputDocument, degree: int, line_no: int | str, start: int = 0) -> KForm:
    """The ``degree``-form written in ``text`` from ``start`` on."""
    if doc.labels is None:
        raise ParseError(f"declare the frame before a {degree}-form", line_no)
    p = _Expr(text, start, doc.field, {lab: k for k, lab in enumerate(doc.labels, 1)}, line_no)
    if p.toks[0][0] == "end":
        raise ParseError("empty expression", line_no)
    terms = p.sum(True)
    kind, val, col = p.take()
    if kind != "end":
        raise ParseError(f"unexpected token {val!r}", line_no, col)
    deg = None
    for chain, coef in terms:
        if chain is None:
            if not coef.is_zero():
                raise ParseError("a bare scalar is only allowed as the literal 0", line_no)
        elif deg is None:
            deg = len(chain)
        elif deg != len(chain):
            raise ParseError(f"mixed degrees {deg} and {len(chain)} in one expression", line_no)
    if deg is None:
        return KForm.zero(doc.dim, degree, doc.field)
    if deg != degree:
        raise ParseError(f"expected a {degree}-form, got degree {deg}", line_no)
    return KForm.from_terms(doc.dim, doc.field, [t for t in terms if t[0] is not None])


def parse_file(path) -> InputDocument:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror or exc}") from exc
    return parse(text)
