"""Fraction-free elimination against a plain Fraction-arithmetic oracle."""

import random
from fractions import Fraction

import pytest

from braidfree import MultiArrangement, freeness_verdict, graded_dimension
from braidfree.linalg import (ReducedSpan, fraction_determinant,
                              fraction_matrix_inverse, nullspace, primitive,
                              rank_of)
from braidfree.oracle import FREE, NONFREE, _assemble


def fraction_rank(rows, ncols):
    work = [[Fraction(x) for x in r] for r in rows]
    rank = 0
    for col in range(ncols):
        piv = next((r for r in range(rank, len(work)) if work[r][col]), None)
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        lead = work[rank]
        for r in range(len(work)):
            if r != rank and work[r][col]:
                f = work[r][col] / lead[col]
                work[r] = [a - f * b for a, b in zip(work[r], lead)]
        rank += 1
    return rank


def fuzz_matrices(rng):
    """Small dense matrices, then about 30x40 ones at 5% density with zero
    rows, duplicate rows and multiples of rows mixed in."""
    for _ in range(150):
        nr, nc = rng.randint(0, 8), rng.randint(1, 8)
        yield [[rng.randint(-6, 6) for _ in range(nc)] for _ in range(nr)], nc
    for _ in range(40):
        nr, nc = rng.randint(25, 35), rng.randint(35, 45)
        rows = [[rng.choice((-9, -4, -3, -2, -1, 1, 2, 3, 5, 8)) if rng.random() < 0.05 else 0
                 for _ in range(nc)] for _ in range(nr)]
        rows += [[0] * nc for _ in range(2)]
        rows += [list(rng.choice(rows)) for _ in range(3)]
        rows += [[rng.choice((-2, 3)) * x for x in rng.choice(rows)] for _ in range(3)]
        rng.shuffle(rows)
        yield rows, nc


def test_rank_nullspace_span_fuzz():
    rng = random.Random(42)
    for rows, nc in fuzz_matrices(rng):
        rank = rank_of(rows, nc)
        assert rank == fraction_rank(rows, nc)
        basis = nullspace(rows, nc)
        assert len(basis) == nc - rank
        assert fraction_rank(basis, nc) == len(basis)
        for v in basis:
            assert primitive(v) == v
            assert all(sum(a * b for a, b in zip(row, v)) == 0 for row in rows)
        span = ReducedSpan(nc)
        for row in rows:
            span.insert(row)
        assert span.rank == rank
        sparse = ReducedSpan(nc, ({c: x for c, x in enumerate(row) if x} for row in rows))
        assert sparse.rank == rank


def random_arrangement(rng, dim):
    count = rng.randint(dim, dim + 2)
    normals = {}
    while len(normals) < count:
        v = [rng.randint(-1, 1) for _ in range(dim)]
        if any(v):
            normals.setdefault(tuple(primitive(v)), rng.randint(1, 2))
    return MultiArrangement(dim, tuple(normals.items()))


def test_graded_dimension_matches_dense_fraction_rank():
    # graded_dimension eliminates the essential arrangement and lifts the
    # center; the reference ranks the ambient constraint matrix in Fractions
    rng = random.Random(7)
    statuses = set()
    for dim, top in ((3, 4), (4, 3)):
        for _ in range(10):
            arr = random_arrangement(rng, dim)
            statuses.add(freeness_verdict(arr).status)
            for d in range(top):
                rows, cols = _assemble(arr, d)
                dense = [[row.get(c, 0) for c in range(cols)] for row in rows]
                assert graded_dimension(arr, d) == cols - fraction_rank(dense, cols)
    assert {FREE, NONFREE} <= statuses


def test_primitive():
    assert primitive([Fraction(1, 2), Fraction(-1, 3)]) == [3, -2]
    assert primitive([-4, 6]) == [2, -3]
    assert primitive([0, 0]) == [0, 0]


def test_matrix_inverse_and_determinant():
    m = [[1, 2], [3, 5]]
    inv = fraction_matrix_inverse(m)
    assert inv == [[Fraction(-5), Fraction(2)], [Fraction(3), Fraction(-1)]]
    assert fraction_determinant(m) == -1
    assert fraction_determinant([[1, 2], [2, 4]]) == 0
    with pytest.raises(ValueError):
        fraction_matrix_inverse([[1, 2], [2, 4]])
