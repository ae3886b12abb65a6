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

An expression is read in one pass: one regex ``findall`` splits it into
token strings, and a product's numbers and ``sqrtd`` symbols fold on ints
(numerator, denominator and the power of sqrt d) into one Scalar, so a
product costs one Scalar; only a parenthesised sum is added up and
multiplied in as Scalars.  A column is found only for an error, by scanning
its line again.
"""

from __future__ import annotations

import re
from itertools import islice

from .forms import FrameGeometry, KForm, _sort_sign
from .frames import FrameError, LieAlgebraFrame
from .report import form_str, scalar_str
from .scalars import Field, GTorsionError, QuadraticField, RationalField, Scalar, _norm
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


# One token is a run of decimal digits, a name, an operator or any other
# non-space character, which starts no token and is an error.
_TOKEN = re.compile(r"\d+|[A-Za-z_][A-Za-z_0-9]*|[-+*/^()=]|\S")
_NAME_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_")
_OPS = frozenset("-+*/^()=")


class _Expr:
    """Recursive-descent parser of the expression in ``code`` from ``start``
    on.  The tokens are the strings one ``findall`` splits it into, then ""
    for the end; a token's kind is read off its first character.  ``labels``
    maps each frame label that is a name to its 1-based index; an empty map
    reads scalars only.  Columns count from 1 at the start of ``code`` and
    are found only for an error, by scanning the line again."""

    def __init__(self, code: str, start: int, field: Field, labels: dict, line: int | str):
        self.code, self.start = code, start
        self.field, self.labels, self.line = field, labels, line
        self.toks = _TOKEN.findall(code, start)
        self.toks.append("")
        self.i = 0

    def _column(self, i: int) -> int:
        """The column of token ``i``, the end's after the line's last character."""
        for k, m in enumerate(_TOKEN.finditer(self.code, self.start)):
            if k == i:
                return m.start() + 1
        return len(self.code.rstrip()) + 1

    def _error(self, message: str, i: int) -> ParseError:
        """The error ``message`` at token ``i``, unless a character of the
        expression starts no token: that one is reported first."""
        for m in _TOKEN.finditer(self.code, self.start):
            c = m.group()[0]
            if not (c.isdecimal() or c in _NAME_START or c in _OPS):
                return ParseError(f"unexpected character {c!r}", self.line, m.start() + 1)
        return ParseError(message, self.line, self._column(i))

    def sum(self, chains: bool) -> list:
        """Products joined by + and -: a list of (chain or None, coefficient)."""
        terms = [self.product(chains, False)]
        toks = self.toks
        tok = toks[self.i]
        while tok == "+" or tok == "-":
            self.i += 1
            terms.append(self.product(chains, tok == "-"))
            tok = toks[self.i]
        return terms

    def product(self, chains: bool, negate: bool) -> tuple:
        """Signed factors joined by * and /, at most one of them a wedge chain
        of frame labels joined by ^ (read only when ``chains``): (chain or
        None, coefficient), negated when ``negate``.  The numbers and sqrtd
        symbols fold on ints, num/den times sqrt(d)^power, into one Scalar;
        each parenthesised sum multiplies in as a Scalar."""
        toks, labels, field = self.toks, self.labels, self.field
        num = den = 1
        power = 0
        chain = paren = None
        divide = False
        i = self.i
        while True:
            tok = toks[i]
            while tok == "-" or tok == "+":
                if tok == "-":
                    negate = not negate
                i += 1
                tok = toks[i]
            if tok in labels:
                if not chains or divide:  # a chain is read only outside parentheses and divisors
                    raise self._error(f"parentheses and divisors hold scalars only, not the frame label {tok!r}", i)
                if chain is not None:
                    raise self._error("a product holds at most one wedge chain", i)
                chain = [labels[tok]]
                while toks[i + 1] == "^":
                    i += 2
                    tok = toks[i]
                    if tok in labels:
                        chain.append(labels[tok])
                    elif tok[:1] in _NAME_START:
                        raise self._error(f"unknown frame label {tok!r}", i)
                    else:
                        raise self._error("expected a frame label after '^'", i)
            elif tok.isdecimal():
                if not divide:
                    num *= int(tok)
                elif int(tok):
                    den *= int(tok)
                else:
                    raise self._error("division by zero", i)
            elif tok[:4] == "sqrt" and tok[4:].isdecimal():
                d = int(tok[4:])
                if not field.d:
                    raise self._error(f"sqrt{d} needs 'field sqrt {d}' declared first", i)
                if field.d != d:
                    raise self._error(f"sqrt{d} does not live in QQ(sqrt{field.d})", i)
                power += -1 if divide else 1
            elif tok == "(":
                self.i = i + 1
                terms = self.sum(False)
                x = terms[0][1]
                for _, coef in terms[1:]:
                    x = x + coef
                if toks[self.i] != ")":
                    raise self._error("expected ')'", self.i)
                if divide:
                    if x.is_zero():
                        raise self._error("division by zero", i)
                    x = x.inverse()
                paren = x if paren is None else paren * x
                i = self.i
            elif tok[:1] in _NAME_START:
                raise self._error(f"unknown symbol {tok!r}", i)
            else:
                expected = "a coefficient or frame label" if chains and not divide else "a number, sqrt-symbol, or parenthesis"
                raise self._error(f"expected {expected}", i)
            i += 1
            tok = toks[i]
            if tok != "*" and tok != "/":
                break
            divide = tok == "/"
            i += 1
        self.i = i
        if negate:
            num = -num
        half, odd = divmod(power, 2)  # sqrt(d)^power = d^half sqrt(d)^odd
        if half > 0:
            num *= field.d**half
        elif half < 0:
            den *= field.d**-half
        coef = _norm(field, 0, num, den) if odd else _norm(field, num, 0, den)
        return chain, coef if paren is None else coef * paren


class InputDocument:
    """Parsed input: frame, geometry, structure data, optional df/flux."""

    def __init__(self):
        self.dim = None
        self.field: Field = RationalField()
        self.labels = None
        self._names = None  # each frame label that is a name token -> its 1-based index
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
            if s.geometry._metric != fr.geometry._metric:
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
            # a label that is no name token is never read as one
            doc._names = {lab: k for k, lab in enumerate(doc.labels, 1) if lab.isascii() and lab.isidentifier()}
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
    toks = p.toks
    row = []
    while toks[p.i]:
        tok = toks[p.i]
        if row and tok == "+":
            raise p._error("metric row entries are separated by spaces: write a sum as (a + b)", p.i)
        if row and tok == "-" and code[p._column(p.i):][:1].isspace():
            raise p._error("metric row entries are separated by spaces: write a difference as (a - b)", p.i)
        row.append(p.product(False, False)[1])
    if len(row) != doc.dim:
        raise ParseError(f"metric row needs {doc.dim} entries", line_no)
    return row


def _parse_form(text: str, doc: InputDocument, degree: int, line_no: int | str, start: int = 0) -> KForm:
    """The ``degree``-form written in ``text`` from ``start`` on."""
    if doc.labels is None:
        raise ParseError(f"declare the frame before a {degree}-form", line_no)
    p = _Expr(text, start, doc.field, doc._names, line_no)
    if not p.toks[0]:
        raise ParseError("empty expression", line_no)
    terms = p.sum(True)
    tok = p.toks[p.i]
    if tok:
        raise p._error(f"unexpected token {int(tok) if tok.isdecimal() else tok!r}", p.i)
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
