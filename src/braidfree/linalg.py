"""Exact linear algebra over the rationals, built on sparse integer rows.

One routine does every elimination: ``ReducedSpan`` keeps a table of pivot
rows, each a ``{column: int}`` dict keyed by its lowest column.  An incoming
row is reduced at its lowest column against the pivot row stored there, as
row <- a*row - b*pivot with a, b coprime, then divided by its content; a row
whose lowest column has no pivot yet becomes a new primitive pivot row.  The
same table gives the rank and, lazily, one right-kernel vector per free
column by integer back-substitution.  Everything stays in arbitrary-precision
integers, so ranks and kernels are certificates rather than numerical
estimates.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd


def _sparse(vec) -> dict:
    """A fresh ``{column: value}`` copy of a dense or sparse row."""
    if isinstance(vec, dict):
        return dict(vec)
    return {c: v for c, v in enumerate(vec) if v}


def _primitive_sparse(vec: dict) -> dict:
    """Divide a nonzero sparse vector by its content; make its lead positive."""
    g = gcd(*vec.values())
    if vec[min(vec)] < 0:
        g = -g
    if g != 1:
        for c in vec:
            vec[c] //= g
    return vec


class ReducedSpan:
    """Incrementally maintained echelon basis of integer row vectors.

    ``pivots`` maps each pivot column to the primitive row whose lowest
    column it is.  Rows may be dense sequences or ``{column: int}`` dicts.
    The constructor eliminates a whole batch of rows (sparsest first),
    ``insert`` adds one more, and ``kernel`` yields the right kernel of
    everything inserted so far.  When a row being reduced is sparser than
    the pivot row at its lowest column, the two trade places, which keeps
    the table sparse.
    """

    def __init__(self, ncols: int, rows=()):
        self.ncols = ncols
        self.pivots: dict[int, dict] = {}
        for row in sorted(map(_sparse, rows), key=len):
            self._insert(row)

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def insert(self, vec) -> bool:
        """Reduce and, if independent, add; True when the rank grew."""
        return self._insert(_sparse(vec))

    def _insert(self, row: dict) -> bool:
        pivots = self.pivots
        cols = list(row)        # heap of the row's columns; stale entries are skipped
        heapify(cols)
        while cols:
            lead = heappop(cols)
            x = row.get(lead)
            if x is None:
                continue
            piv = pivots.get(lead)
            if piv is None:
                pivots[lead] = _primitive_sparse(row)
                return True
            if len(row) < len(piv):
                pivots[lead] = _primitive_sparse(row)
                row, piv = piv, pivots[lead]
                x = row[lead]
                cols = [c for c in row if c != lead]
                heapify(cols)
            pv = piv[lead]
            scaled = x % pv != 0
            if scaled:
                g = gcd(pv, x)
                a = pv // g
                x //= g
                for c in row:
                    row[c] *= a
            else:
                x //= pv
            for c, v in piv.items():
                w = row.get(c)
                if w is None:
                    row[c] = -x * v
                    heappush(cols, c)
                else:
                    w -= x * v
                    if w:
                        row[c] = w
                    else:
                        del row[c]
            if scaled and row:
                g = gcd(*row.values())
                if g > 1:
                    for c in row:
                        row[c] //= g
        return False

    def kernel(self):
        """Yield a primitive basis of {x : row . x = 0 for every inserted row}.

        One vector per free column, in increasing column order, with its last
        nonzero entry in that column; each is back-substituted only when the
        caller asks for it.
        """
        pivots = self.pivots
        users = defaultdict(list)   # column -> pivot columns whose rows hold it
        for p, row in pivots.items():
            for c in row:
                if c != p:
                    users[c].append(p)
        for free in range(self.ncols):
            if free in pivots:
                continue
            x = {free: 1}
            todo = [-p for p in users[free]]
            heapify(todo)
            queued = set(users[free])
            while todo:
                p = -heappop(todo)
                row = pivots[p]
                s = 0
                for c, v in row.items():
                    if c in x:
                        s += v * x[c]
                if not s:
                    continue
                pv = row[p]
                g = gcd(s, pv)
                den = pv // g
                num = -s // g
                if den < 0:
                    den, num = -den, -num
                if den != 1:
                    for c in x:
                        x[c] *= den
                x[p] = num
                for q in users[p]:
                    if q not in queued:
                        queued.add(q)
                        heappush(todo, -q)
            yield _primitive_sparse(x)


def rank_of(rows, ncols: int) -> int:
    return ReducedSpan(ncols, rows).rank


def nullspace(rows, ncols: int) -> list[list[int]]:
    """A primitive integer basis of the right kernel {x : rows @ x = 0}, as
    dense rows, one per free column."""
    return [[x.get(c, 0) for c in range(ncols)] for x in ReducedSpan(ncols, rows).kernel()]


def primitive(vec) -> list[int]:
    """Scale a rational vector to a primitive integer one with positive lead."""
    denom = 1
    for x in vec:
        if isinstance(x, Fraction):
            denom = denom * x.denominator // gcd(denom, x.denominator)
    ints = [int(x * denom) if isinstance(x, Fraction) else int(x) * denom for x in vec]
    g = 0
    for v in ints:
        g = gcd(g, v)
        if g == 1:
            break
    if g > 1:
        ints = [v // g for v in ints]
    for v in ints:
        if v:
            if v < 0:
                ints = [-x for x in ints]
            break
    return ints


def fraction_matrix_inverse(rows):
    """Inverse of a small square matrix, exactly (Gauss-Jordan over Fractions)."""
    n = len(rows)
    aug = [[Fraction(rows[r][c]) for c in range(n)] + [Fraction(int(r == c)) for c in range(n)]
           for r in range(n)]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col]), None)
        if piv is None:
            raise ValueError("matrix is singular")
        aug[col], aug[piv] = aug[piv], aug[col]
        pv = aug[col][col]
        aug[col] = [x / pv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def fraction_determinant(rows) -> Fraction:
    """Determinant of a small square Fraction matrix by elimination."""
    n = len(rows)
    work = [[Fraction(x) for x in row] for row in rows]
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if work[r][col]), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            work[col], work[piv] = work[piv], work[col]
            det = -det
        pv = work[col][col]
        det *= pv
        for r in range(col + 1, n):
            if work[r][col]:
                f = work[r][col] / pv
                work[r] = [x - f * y for x, y in zip(work[r], work[col])]
    return det
