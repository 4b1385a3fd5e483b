"""Exact linear algebra over the rationals, built on sparse integer rows.

One routine does every elimination: ``ReducedSpan`` keeps a table of pivot
rows, each a ``{column: int}`` dict keyed by its lowest column.  An incoming
row is reduced at its lowest column against the pivot row stored there, as
row <- a*row - b*pivot with a, b coprime, then divided by its content; a row
whose lowest column has no pivot yet becomes a new primitive pivot row.  The
same table gives the rank and, lazily, one right-kernel vector per free
column by integer back-substitution.  Everything stays in arbitrary-precision
integers, so ranks and kernels are certificates rather than numerical
estimates.  No elimination runs in ``Fraction``: rationals enter only through
``primitive``, which scales a rational vector to integers.

A batch of rows is inserted sparsest first, and a row with a single entry
forces its column to zero, so that column is deleted from every later row of
the batch before the row is reduced (a row left empty is skipped).  Reducing
against a one-entry pivot row does exactly that deletion, so the row space,
the pivot columns and the kernel vectors are those of inserting the rows one
by one; only the pivot table is sparser.  The oracle leaves out, before it
builds a batch, the columns it knows to be zero: those of a coordinate
hyperplane's one-entry rows (in essential coordinates centered at vertex v,
a braid hyperplane x_i - x_v becomes one) and the pivot columns of its
product span.  The single-entry rows that reach this batch are the rows
that striking those columns left with one entry, such as a row of
y_i - y_j whose y_j entry fell on a struck column.  The batch stops once
the rank reaches the column count: every later row then lies in the span,
so the rank, the pivot columns and the (empty) kernel are those of
inserting every row.
"""

from __future__ import annotations

from collections import defaultdict
from heapq import heapify, heappop, heappush
from math import gcd, lcm


def _sparse(vec) -> dict:
    """A new ``{column: value}`` copy of a dense or sparse row, without zeros."""
    if isinstance(vec, dict):
        if 0 in vec.values():
            return {c: v for c, v in vec.items() if v}
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
    The constructor eliminates a whole batch of rows (sparsest first,
    dropping the columns that single-entry rows force to zero, and stopping
    at full rank), ``insert`` adds one more, and ``kernel`` yields the right
    kernel of everything inserted so far.  When a row being reduced is
    sparser than the pivot row at its lowest column, the two trade places,
    which keeps the table sparse.
    """

    def __init__(self, ncols: int, rows=()):
        self.ncols = ncols
        self.pivots: dict[int, dict] = {}
        dead = set()            # columns that a single-entry row forces to zero
        for row in sorted(map(_sparse, rows), key=len):
            for c in dead.intersection(row):
                del row[c]
            if len(row) == 1:
                dead.update(row)
            elif not row:
                continue
            if self._insert(row) and len(self.pivots) == ncols:
                break           # full rank: every later row lies in the span

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


def primitive(vec) -> list[int]:
    """Scale a rational vector to a primitive integer one with positive lead."""
    denom = lcm(*(x.denominator for x in vec))   # an int's denominator is 1
    ints = [int(x * denom) for x in vec]
    g = gcd(*ints) or 1
    if next((v for v in ints if v), 0) < 0:
        g = -g
    return [v // g for v in ints]
