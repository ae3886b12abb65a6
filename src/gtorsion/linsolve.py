"""Exact dense/sparse linear solving over a Scalar field.

Small systems only (at most a few hundred rows); plain Gaussian elimination
with exact division.  ``eliminate`` is the one dense kernel: determinants,
inverses, dense solves and the positive-definiteness test all read its run.
"""

from __future__ import annotations

from .scalars import Field, Scalar

__all__ = ["eliminate", "back_substitute", "solve_dense", "solve_unique_sparse", "LinearSolveError"]


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
    """Solve A x = b for square exact A.  Raises on singular A."""
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
    pivots: dict[int, tuple[dict[int, Scalar], Scalar]] = {}
    queue = [({c: v for c, v in row.items() if not v.is_zero()}, rhs) for row, rhs in rows]
    # short rows first keeps elimination fill low
    queue.sort(key=lambda item: len(item[0]))
    sol = None
    deferred = []
    for row, rhs in queue:
        if sol is not None:
            deferred.append((row, rhs))
            continue
        row = dict(row)
        while True:
            if not row:
                if not rhs.is_zero():
                    raise LinearSolveError("no solution")
                break
            lead = min(row)
            if lead not in pivots:
                inv = row[lead].inverse()
                row = {c: v * inv for c, v in row.items()}
                rhs = rhs * inv
                pivots[lead] = (row, rhs)
                break
            prow, prhs = pivots[lead]
            f = row[lead]
            new = {}
            for c, v in row.items():
                w = v - f * prow.get(c, field.zero())
                if not w.is_zero():
                    new[c] = w
            for c, v in prow.items():
                if c not in row:
                    w = -f * v
                    if not w.is_zero():
                        new[c] = w
            row = new
            rhs = rhs - f * prhs
        if len(pivots) == nunknowns:
            sol = _sparse_back_substitute(pivots, nunknowns, field)
    if sol is None:
        raise LinearSolveError("non-unique solution")
    # remaining rows only need to be consistent with the solution
    for row, rhs in deferred:
        acc = rhs
        for c, v in row.items():
            acc = acc - v * sol[c]
        if not acc.is_zero():
            raise LinearSolveError("no solution")
    return sol


def _sparse_back_substitute(pivots, nunknowns: int, field: Field):
    sol = [field.zero()] * nunknowns
    for lead in sorted(pivots, reverse=True):
        row, rhs = pivots[lead]
        val = rhs
        for c, v in row.items():
            if c != lead:
                val = val - v * sol[c]
        sol[lead] = val
    return sol
