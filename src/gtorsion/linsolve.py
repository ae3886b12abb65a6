"""Exact sparse linear solving over a Scalar field.

Small systems only (at most a few hundred rows); Gauss-Jordan elimination
with exact division.  ``echelon`` is the one elimination kernel: the torsion
oracle, ``solve_unique_sparse`` and the metric inverse (``forms._mat_inverse``,
one right-hand side per unit vector) read its run.  Determinants and the
positive-definiteness test eliminate nothing: they read minors.

Its pivots stay fully reduced (a 1 in their own column, a 0 in every other
pivot column), so a row is reduced in one pass over its pivot columns with no
cascade of fill.  Rows are taken by last column, then length: leads then come
bottom-up, so a new pivot seldom has to be eliminated from older ones.  Fully
reduced pivots do not depend on the row order, so neither does any caller's
result.  Forward-only elimination with one back substitution is slower,
because fully reduced pivots keep rows short (23,758 against 18,740 ``_mac``
calls on the oracle's 45 seed-1 ``rotated`` Stage-2 systems, same results).
The torsion oracle reduces the derivation rows of all its structure
forms in one run, each row once up to sign; ``solve_unique_sparse`` carries
one right-hand side, key -1, where it is nonzero, through the n*r rows left
(56 for Spin(7)).  Row updates go through the scalar accumulator
(``scalars._mac``), the one multiply-accumulate path: each entry is
normalized once, a new pivot's entries with their division by its lead.
Rows stay on Scalars, unlike the forms' integer bodies: an echelon on int
rows over one denominator per row, tried on the 90 seed-1 ``rotated``
oracle systems, gave identical pivots and no speedup.
"""

from __future__ import annotations

from .scalars import Field, Scalar, _mac, _settle, _settle_over

__all__ = ["echelon", "solve_unique_sparse", "LinearSolveError", "InconsistentSystem"]

_RHS = -1  # key of the one right-hand side in a sparse row; columns are >= 0


class LinearSolveError(ValueError):
    pass


class InconsistentSystem(LinearSolveError):
    """Some combination of the rows reads 0 = c with c != 0."""


def echelon(rows, field: Field) -> dict[int, dict]:
    """Row-reduce sparse rows to fully reduced pivots, taken by last column
    and then by length.

    A row is {key: Scalar}: keys >= 0 are columns of unknowns, keys < 0 are
    right-hand sides and never lead.  Returns pivots[lead], which reads
    x_lead + sum_c piv[c] x_c = piv[rhs key] with the lead's 1 implied and no
    pivot column among the c.  Raises InconsistentSystem when a row reduces
    to right-hand sides alone.
    """
    one = field.one()
    pivots: dict[int, dict] = {}
    # by last column, then length: leads come bottom-up and short rows keep fill low
    for row in sorted(rows, key=lambda row: (max(row, default=_RHS), len(row))):
        # the row minus f times the pivot of each pivot column; other entries carry over
        acc = {}
        for c, f in row.items():
            for k, v in pivots[c].items() if c in pivots else ((c, one),):
                _mac(acc, k, f, v, c in pivots)
        # the last column: on the oracle's systems this leaves less fill than the first
        lead = max((c for c, (p, q, _) in acc.items() if p or q), default=_RHS)
        if lead < 0:
            if any(p or q for p, q, _ in acc.values()):
                raise InconsistentSystem("no solution")
            continue
        new = _settle_over(field, acc, lead)  # scaled to a leading 1 as it settles
        for piv in pivots.values():
            f = piv.pop(lead, None)
            if f is not None:
                _axpy(piv, -f, new)
        pivots[lead] = new
    return pivots


def solve_unique_sparse(rows, nunknowns: int, field: Field):
    """Solve an overdetermined sparse system requiring a unique solution.

    ``rows`` is an iterable of ({col: Scalar}, rhs Scalar) pairs.  Returns the
    solution list.  Raises InconsistentSystem("no solution") if inconsistent
    and LinearSolveError("non-unique solution") if rank-deficient.  Once every
    column has a pivot, each further row reduces to its residual alone.  A
    zero right-hand side is not carried.
    """
    pivots = echelon([row if rhs.is_zero() else {**row, _RHS: rhs} for row, rhs in rows], field)
    if len(pivots) < nunknowns:
        raise LinearSolveError("non-unique solution")
    return [pivots[c].get(_RHS, field.zero()) for c in range(nunknowns)]


def _axpy(row: dict, f: Scalar, other: dict) -> None:
    """row += f * other in place, dropping entries that cancel."""
    acc = {}
    one = f.field.one()
    for c, v in other.items():
        w = row.pop(c, None)
        if w is not None:
            _mac(acc, c, w, one, False)
        _mac(acc, c, f, v, False)
    row.update(_settle(f.field, acc))
