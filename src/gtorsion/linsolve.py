"""Exact sparse linear solving over QQ and QQ(sqrt d) on integer rows.

Small systems only (at most a few hundred rows).  ``echelon`` is the one
elimination kernel: the torsion oracle, ``solve_unique_sparse`` and the metric
inverse (``forms._mat_inverse``, one right-hand side per unit vector) read its
run.  Determinants and the positive-definiteness test eliminate nothing: they
read minors.

A row is an equation, so it needs no denominator: it is two dicts of ints,
the rational and the sqrt(d) numerators by column, as a ``KForm`` body holds
them (the second empty over QQ); ``scalars._ints`` turns a Scalar row into
one, its denominator cleared.  ``_axpy``, the scaled add of two rows, is the
one sqrt(d) scaled add on int bodies: a form's linear combinations
(``forms._combination``) run through it too.  Elimination is fraction-free
(Bareiss, Math. Comp. 22, 1968): rows are combined by cross-multiplication,
and each pivot row is kept primitive, the gcd of its ints divided out and its
lead positive, in place of Bareiss's exact division.  A lead with a sqrt(d)
part is first made rational by the lead's conjugate, so a solution is one
int body over the lcm of the leads.  Pivots stay fully reduced (0 in every
other pivot column), so a row is reduced in one pass over its pivot columns,
and a fully reduced primitive pivot is unique: no result depends on the row
order or on a factor of any row.  Rows are taken by last column, then length,
so leads come bottom-up and a new pivot seldom has to be eliminated from
older ones; forward-only elimination with one back substitution did more
work (23,758 against 18,740 multiply-accumulates on the 45 seed-1
``rotated`` Stage-2 systems).  No Scalar is built: the oracle's derivation
walk, its Stage-2 rows and its solution are ints, and its Stage 1 is
homogeneous, so its rows need no denominator.
"""

from __future__ import annotations

from math import gcd, lcm

from .scalars import Field

__all__ = ["echelon", "solve_unique_sparse", "LinearSolveError", "InconsistentSystem"]

_RHS = -1  # key of the one right-hand side in a sparse row; columns are >= 0


class LinearSolveError(ValueError):
    pass


class InconsistentSystem(LinearSolveError):
    """Some combination of the rows reads 0 = c with c != 0."""


def _last(row: tuple) -> int:
    """The last key of an int row (-1 when it has none)."""
    p, q = row
    return max(max(p, default=_RHS), max(q)) if q else max(p, default=_RHS)


def _primitive(p: dict, q: dict, last: int) -> tuple[dict, dict]:
    """The nonzero int row over the gcd of its ints, its entry at ``last``
    (its last key) made positive."""
    g = gcd(*p.values(), *q.values()) if q else gcd(*p.values())
    if (p.get(last) or q[last]) < 0:
        g = -g
    if g == 1:
        return p, q
    return {c: v // g for c, v in p.items()}, {c: v // g for c, v in q.items()}


def _axpy(acc: tuple, fp: int, fq: int, row: tuple, d: int) -> None:
    """acc += (fp + fq sqrt d) row on int rows, in place; a sum that cancels
    stays as a 0.  The one scaled add on int bodies: echelon's rows and the
    forms' linear combinations (``forms._combination``) run through it."""
    ap, aq = acc
    p, q = row
    if fp:  # the rational part inline: over QQ it is all there is
        if fp == 1 and not ap:
            ap.update(p)
        else:
            get = ap.get
            for c, v in p.items():
                ap[c] = get(c, 0) + fp * v
    if q or fq:
        for f, src, out in ((fp, q, aq), (fq, p, aq), (d * fq, q, ap)):
            if f and src:
                if f == 1 and not out:
                    out.update(src)
                else:
                    get = out.get
                    for c, v in src.items():
                        out[c] = get(c, 0) + f * v


def echelon(rows, field: Field) -> dict[int, tuple[dict, dict]]:
    """Row-reduce int rows to fully reduced primitive pivots.

    A row is (p, q), {key: int} each: keys >= 0 are columns of unknowns, keys
    < 0 are right-hand sides and never lead.  Returns pivots[lead], an int row
    reading sum_c piv[c] x_c = piv[rhs key], with a positive int at the lead,
    its last column, and 0 at every other pivot column.  Raises
    InconsistentSystem when a row reduces to right-hand sides alone.  The rows
    given are not changed.
    """
    d = field.d
    pivots: dict[int, tuple[dict, dict]] = {}
    for p, q in sorted(rows, key=lambda row: (_last(row), len(row[0]) + len(row[1]))):
        hits = [c for c in p if c in pivots]
        if q:
            hits += [c for c in q if c in pivots and c not in p]
        if hits:
            # m row - (m/L_c) row[c] P_c over the pivots P_c hit, m the lcm of their leads L_c
            m = 1
            for c in hits:
                if m % pivots[c][0][c]:
                    m = lcm(m, pivots[c][0][c])
            acc = ({c: m * v for c, v in p.items()} if m != 1 else dict(p), {c: m * v for c, v in q.items()} if q else {})
            for c in hits:
                s = m // pivots[c][0][c]
                _axpy(acc, -s * p.get(c, 0), -s * q.get(c, 0) if q else 0, pivots[c], d)
            p, q = acc
            if 0 in p.values():  # zeros dropped inline here and below: these paths are hot
                p = {c: v for c, v in p.items() if v}
            if 0 in q.values():
                q = {c: v for c, v in q.items() if v}
        lead = _last((p, q))  # the last column: on the oracle's systems this leaves less fill than the first
        if lead < 0:
            if p or q:
                raise InconsistentSystem("no solution")
            continue
        if lead in q:  # times the conjugate of the lead, which leaves it rational
            acc = ({}, {})
            _axpy(acc, p.get(lead, 0), -q[lead], (p, q), d)
            p, q = ({c: v for c, v in part.items() if v} for part in acc)
        new = _primitive(p, q, lead)
        top = new[0][lead]
        for c, (pp, pq) in pivots.items():
            fp, fq = pp.get(lead, 0), pq.get(lead, 0) if pq else 0
            if fp or fq:  # the pivot times the new lead minus its entry times the new row, over their gcd
                g = gcd(top, fp, fq)
                t = top // g
                ap, aq = acc = ({k: t * v for k, v in pp.items()} if t != 1 else dict(pp), {k: t * v for k, v in pq.items()} if pq else {})
                _axpy(acc, -fp // g, -fq // g, new, d)
                if 0 in ap.values():
                    ap = {k: v for k, v in ap.items() if v}
                if 0 in aq.values():
                    aq = {k: v for k, v in aq.items() if v}
                pivots[c] = _primitive(ap, aq, c)
        pivots[lead] = new
    return pivots


def solve_unique_sparse(rows, nunknowns: int, field: Field) -> tuple[int, dict, dict]:
    """Solve an overdetermined sparse system requiring a unique solution.

    ``rows`` are int rows as ``echelon`` takes them, the right-hand side under
    key -1 where it is nonzero.  Returns the solution as one int body (den,
    p, q): x_c = (p[c] + q[c] sqrt d)/den, den the lcm of the pivots' leads,
    zeros dropped, not reduced by a common gcd.  Raises
    InconsistentSystem("no solution") if inconsistent and
    LinearSolveError("non-unique solution") if rank-deficient.  Once every
    column has a pivot, each further row reduces to its residual alone.
    """
    pivots = echelon(rows, field)
    if len(pivots) < nunknowns:
        raise LinearSolveError("non-unique solution")
    den = lcm(*(pivots[c][0][c] for c in range(nunknowns)))
    p, q = {}, {}
    for c in range(nunknowns):
        pp, pq = pivots[c]
        s = den // pp[c]
        if _RHS in pp:
            p[c] = pp[_RHS] * s
        if _RHS in pq:
            q[c] = pq[_RHS] * s
    return den, p, q
