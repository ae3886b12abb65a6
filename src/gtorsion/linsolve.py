"""Exact sparse linear solving over QQ and QQ(sqrt d) on integer rows.

Small systems only (at most a few hundred rows).  ``echelon`` is the one
elimination kernel: the torsion oracle's Stage 1 reads its pivots, and the
metric inverse (``forms._mat_inverse``, one right-hand side per unit vector)
and ``solve_unique_sparse`` read a solution off them through
``_back_substitute``, the one way a solution leaves linsolve.  Determinants
and the positive-definiteness test eliminate nothing: they read minors.

A row is an equation, so it needs no denominator: it is two dicts of ints,
the rational and the sqrt(d) numerators by column, as a ``KForm`` body holds
them (the second empty over QQ); ``scalars._ints`` turns a Scalar row into
one, its denominator cleared.  ``_axpy``, the scaled add of two rows, is the
one sqrt(d) scaled add on int bodies: a form's linear combinations
(``forms._combination``) run through it too.  Elimination is fraction-free
(Bareiss, Math. Comp. 22, 1968): rows are combined by cross-multiplication,
and each pivot row is kept primitive, the gcd of its ints divided out and its
lead positive, in place of Bareiss's exact division.  A lead with a sqrt(d)
part is first made rational by the lead's conjugate.  Elimination is
triangular: rows are taken by last column, then length, and a row is reduced
only at its last column, for as long as that column holds a pivot, so a
pivot's lead is its last column and no pivot is rebuilt once made.  Only the
right-hand sides are back-substituted, on ints over the product of the
leads, where every division is exact.  The pivots depend on the row order;
the solution and every error depend neither on the row order nor on a
nonzero factor of any row.  No Scalar is built: the oracle's derivation
walk, its Stage-2 rows and its solution are ints, and its Stage 1 is
homogeneous, so its rows need no denominator.
"""

from __future__ import annotations

from math import gcd

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
    stays as a 0.  The one scaled add on int bodies: echelon's row reduction
    and the forms' linear combinations (``forms._combination``) run through
    it."""
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


def _by_last(rows) -> list:
    """(last column, row) for each row, by last column, then length: leads
    come bottom-up."""
    keyed = sorted((_last(row), len(row[0]) + len(row[1]), i, row) for i, row in enumerate(rows))
    return [(last, row) for last, _, _, row in keyed]


def _reduce_row(row: tuple, lead: int, pivots: dict, d: int) -> None:
    """Reduce the int row, ``lead`` its last column, at its last column for
    as long as that column holds a pivot, on one copy of it, and add what is
    left to ``pivots`` at its new lead, made primitive with a rational
    positive lead; a row that reduces to 0 adds nothing.  Raises
    InconsistentSystem when it reduces to right-hand sides alone."""
    p, q = row
    if lead in pivots:
        p, q = dict(p), dict(q)
        while lead in pivots:
            # L row - (a + b sqrt d) P over gcd(L, a, b), a + b sqrt d the
            # row's entry at the lead L of the pivot P: the lead cancels, and
            # the pivot's other columns are lower
            piv = pivots[lead]
            top, fp, fq = piv[0][lead], p.get(lead, 0), q.get(lead, 0)
            g = gcd(top, fp, fq)
            if g != top:
                t = top // g
                for c in p:
                    p[c] *= t
                for c in q:
                    q[c] *= t
            _axpy((p, q), -fp // g, -fq // g, piv, d)
            p.pop(lead, None)
            q.pop(lead, None)
            # zeros dropped in place: this path is hot
            if 0 in p.values():
                for c in [c for c, v in p.items() if not v]:
                    del p[c]
            if 0 in q.values():
                for c in [c for c, v in q.items() if not v]:
                    del q[c]
            lead = max(max(p, default=_RHS), max(q)) if q else max(p, default=_RHS)
    if lead < 0:
        if p or q:
            raise InconsistentSystem("no solution")
        return
    if lead in q:  # times the conjugate of the lead, which leaves it rational
        acc = ({}, {})
        _axpy(acc, p.get(lead, 0), -q[lead], (p, q), d)
        p, q = ({c: v for c, v in part.items() if v} for part in acc)
    pivots[lead] = _primitive(p, q, lead)


def echelon(rows, field: Field) -> dict[int, tuple[dict, dict]]:
    """Row-reduce int rows to triangular primitive pivots.

    A row is (p, q), {key: int} each: keys >= 0 are columns of unknowns, keys
    < 0 are right-hand sides and never lead.  Returns pivots[lead], an int row
    reading sum_c piv[c] x_c = piv[rhs key], with a positive int at the lead,
    its last column: every other column of a pivot is lower than its lead,
    and a pivot is never changed once made.  Raises InconsistentSystem when a
    row reduces to right-hand sides alone.  The rows given are not changed.
    """
    d = field.d
    pivots: dict[int, tuple[dict, dict]] = {}
    for last, row in _by_last(rows):
        _reduce_row(row, last, pivots, d)
    return pivots


def _at(row: tuple, xp: list, xq: list, d: int) -> tuple[int, int]:
    """sum_j row[j] (xp[j] + xq[j] sqrt d) over the row's columns j <
    len(xp), as its rational and sqrt(d) ints."""
    p, q = row
    n = len(xp)
    sp = sq = 0
    for j, v in p.items():
        if 0 <= j < n:
            sp += v * xp[j]
            sq += v * xq[j]
    for j, v in q.items():
        if 0 <= j < n:
            sp += d * v * xq[j]
            sq += v * xp[j]
    return sp, sq


def _back_substitute(pivots: dict, n: int, d: int, sides) -> tuple[int, list]:
    """The solution of the triangular pivots 0..n-1 for each right-hand-side
    key in ``sides``: (den, [(xp, xq) per side]), x_c = (xp[c] + xq[c]
    sqrt d)/den.  den is the product of the leads, so den x_c is an int pair
    for every c (Cramer's rule on the triangular system) and every division
    below is exact; column c is read after every lower one."""
    den = 1
    for c in range(n):
        den *= pivots[c][0][c]
    out = []
    for side in sides:
        xp, xq = [], []
        for c in range(n):
            pp, pq = piv = pivots[c]
            sp, sq = _at(piv, xp, xq, d)  # the pivot's lower columns at den x
            lead = pp[c]
            s = den // lead
            xp.append(s * pp.get(side, 0) - sp // lead)
            xq.append(s * pq.get(side, 0) - sq // lead)
        out.append((xp, xq))
    return den, out


def solve_unique_sparse(rows, nunknowns: int, field: Field) -> tuple[int, dict, dict]:
    """Solve an overdetermined sparse system requiring a unique solution.

    ``rows`` are int rows as ``echelon`` takes them, the right-hand side under
    key -1 where it is nonzero.  Returns the solution as one int body (den,
    p, q): x_c = (p[c] + q[c] sqrt d)/den, den the product of the pivots'
    leads, zeros dropped, not reduced by a common gcd.  Raises
    InconsistentSystem("no solution") if inconsistent and
    LinearSolveError("non-unique solution") if rank-deficient.  A row whose
    last column already holds a pivot waits, and waiting rows are reduced
    only while some column lacks a pivot; once every column has one, each
    remaining row is checked by substitution at the solution.
    """
    d = field.d
    pivots: dict[int, tuple[dict, dict]] = {}
    waiting = []
    for last, row in _by_last(rows):
        if last in pivots:
            waiting.append((last, row))
        else:
            _reduce_row(row, last, pivots, d)
    rest = iter(waiting)
    while len(pivots) < nunknowns:
        last, row = next(rest, (_RHS, None))
        if row is None:
            raise LinearSolveError("non-unique solution")
        _reduce_row(row, last, pivots, d)
    den, [(xp, xq)] = _back_substitute(pivots, nunknowns, d, (_RHS,))
    for _, row in rest:
        sp, sq = _at(row, xp, xq, d)
        if sp != den * row[0].get(_RHS, 0) or sq != den * row[1].get(_RHS, 0):
            raise InconsistentSystem("no solution")
    return den, {c: v for c, v in enumerate(xp) if v}, {c: v for c, v in enumerate(xq) if v}
