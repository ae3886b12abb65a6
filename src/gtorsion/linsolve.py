"""Exact dense/sparse linear solving over a Scalar field.

Small systems only (at most a few hundred rows); plain Gaussian elimination
with exact division.  ``eliminate`` is the one dense kernel: determinants,
inverses, dense solves and the positive-definiteness test all read its run.

``solve_unique_sparse``, behind the torsion oracle, meets systems whose rows
mostly reduce to zero (rank 56 in 448-512 rows for Spin(7)).  Its pivots stay
fully reduced: a 1 in their own column, a 0 in every other pivot column.  A
row is then reduced in one pass over its pivot columns, with no cascade of
fill, and the solution is read off the pivots at full rank.  Row updates go
through the scalar accumulator (``scalars._mac``), the one multiply-accumulate
path: a row reduced against many pivots normalizes each entry once.
"""

from __future__ import annotations

from .scalars import Field, Scalar, _mac, _settle

__all__ = ["eliminate", "back_substitute", "solve_dense", "solve_unique_sparse", "LinearSolveError"]

_RHS = -1  # key of the right-hand side in a sparse row; columns are >= 0


class LinearSolveError(ValueError):
    pass


def eliminate(rows, n: int) -> int | None:
    """Forward-eliminate ``rows`` in place below the diagonal of their first
    n columns, pivoting on the first nonzero entry of each column.

    Returns the number of row swaps, or None when the n x n part is singular.
    Later columns (an augmented right-hand side) are carried along.  Entries
    below the diagonal are left stale; only the upper triangle is meaningful.
    """
    swaps = 0
    for col in range(n):
        piv = next((r for r in range(col, n) if not rows[r][col].is_zero()), None)
        if piv is None:
            return None
        if piv != col:
            rows[col], rows[piv] = rows[piv], rows[col]
            swaps += 1
        prow = rows[col]
        inv = prow[col].inverse()
        width = len(prow)
        for r in range(col + 1, n):
            row = rows[r]
            f = row[col] * inv
            if f.is_zero():
                continue
            for c in range(col + 1, width):
                row[c] = row[c] - f * prow[c]
    return swaps


def back_substitute(rows, n: int):
    """Solve the triangular system left by ``eliminate``: one solution row per
    unknown, holding the values for each augmented column."""
    sol = [None] * n
    for i in range(n - 1, -1, -1):
        row = rows[i]
        acc = row[n:]
        for j in range(i + 1, n):
            f = row[j]
            if not f.is_zero():
                acc = [x - f * y for x, y in zip(acc, sol[j])]
        inv = row[i].inverse()
        sol[i] = [x * inv for x in acc]
    return sol


def solve_dense(a, b, field: Field):
    """Solve A x = b for square exact A.  Raises on singular A.

    No code in the package calls it; the tests use it as the dense
    reference for ``solve_unique_sparse``."""
    n = len(a)
    m = [row[:] + [b[i]] for i, row in enumerate(a)]
    if eliminate(m, n) is None:
        raise LinearSolveError("singular system")
    return [x[0] for x in back_substitute(m, n)]


def solve_unique_sparse(rows, nunknowns: int, field: Field):
    """Solve an overdetermined sparse system requiring a unique solution.

    ``rows`` is an iterable of ({col: Scalar}, rhs Scalar) pairs.  Returns the
    solution list.  Raises LinearSolveError("no solution") if inconsistent and
    LinearSolveError("non-unique solution") if rank-deficient.
    """
    zero, one = field.zero(), field.one()
    # pivots[lead]: x_lead + sum_c piv[c] x_c = piv[_RHS], no pivot column among the c
    pivots: dict[int, dict] = {}
    queue = [({c: v for c, v in row.items() if not v.is_zero()}, rhs) for row, rhs in rows]
    # short rows first keeps elimination fill low
    queue.sort(key=lambda item: len(item[0]))
    sol = None
    deferred = []
    for row, rhs in queue:
        if sol is not None:
            deferred.append((row, rhs))
            continue
        # the row minus f times the pivot of each pivot column; other entries carry over
        acc = {}
        _mac(acc, _RHS, rhs, one, False)
        for c, f in row.items():
            for k, v in pivots[c].items() if c in pivots else ((c, one),):
                _mac(acc, k, f, v, c in pivots)
        new = _settle(field, acc)
        # the last column: on the oracle's systems this leaves less fill than the first
        lead = max(new, default=_RHS)
        if lead == _RHS:
            if new:
                raise LinearSolveError("no solution")
            continue
        inv = new.pop(lead).inverse()
        new = {c: v * inv for c, v in new.items()}
        for piv in pivots.values():
            f = piv.pop(lead, None)
            if f is not None:
                _axpy(piv, -f, new)
        pivots[lead] = new
        if len(pivots) == nunknowns:
            sol = [pivots[c].get(_RHS, zero) for c in range(nunknowns)]
    if sol is None:
        raise LinearSolveError("non-unique solution")
    # remaining rows only need to be consistent with the solution
    for row, rhs in deferred:
        acc = {}
        _mac(acc, _RHS, rhs, one, False)
        for c, v in row.items():
            _mac(acc, _RHS, v, sol[c], True)
        if _settle(field, acc):
            raise LinearSolveError("no solution")
    return sol


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
