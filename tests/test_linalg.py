"""Fraction-free elimination against a plain Fraction-arithmetic oracle."""

import itertools
import random
from fractions import Fraction
from math import gcd

from braidfree import MultiArrangement, freeness_verdict, graded_dimension, saito_check
from braidfree.linalg import ReducedSpan, primitive
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
        table = ReducedSpan(nc, rows)
        rank = table.rank
        assert rank == fraction_rank(rows, nc)
        basis = [[x.get(c, 0) for c in range(nc)] for x in table.kernel()]
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


def centered_arrangement(rng, dim):
    """Normals orthogonal to a center vector w whose last entry is 2 or 3, so
    the center's kernel vector has a non-unit entry at its free column."""
    while True:
        w = [rng.randint(-1, 1) for _ in range(dim - 1)] + [rng.choice((-3, -2, 2, 3))]
        if primitive(w) == w and any(w[:-1]):
            break
    candidates = sorted({tuple(primitive(v)) for v in itertools.product(range(-3, 4), repeat=dim)
                         if any(v) and sum(a * b for a, b in zip(v, w)) == 0})
    while True:
        normals = rng.sample(candidates, rng.randint(dim - 1, min(dim + 1, len(candidates))))
        if ReducedSpan(dim, normals).rank == dim - 1:
            return MultiArrangement(dim, tuple((v, rng.randint(1, 2)) for v in normals))


# Free, degrees (0, 2, 2); the center (1, 0, -2) has entry -2 at free column 2
SCALED_CENTER = MultiArrangement(3, (((2, 0, 1), 2), ((0, 1, 0), 1), ((2, 1, 1), 1)))


def test_graded_dimension_matches_dense_fraction_rank():
    # graded_dimension eliminates the essential arrangement and lifts the
    # center; the reference ranks the ambient constraint matrix in Fractions.
    # Free certificates must pass saito_check with integers throughout.
    rng = random.Random(7)
    cases = [(random_arrangement(rng, dim), top) for dim, top in ((3, 4), (4, 3))
             for _ in range(10)]
    centered = [(centered_arrangement(rng, dim), top) for dim, top in ((3, 4), (4, 3))
                for _ in range(4)] + [(SCALED_CENTER, 4)]
    for arr, _ in centered:
        (center,) = ReducedSpan(arr.dim, [v for v, _ in arr.hyperplanes]).kernel()
        assert abs(center[arr.dim - 1]) > 1
    cases += centered
    statuses = set()
    for arr, top in cases:
        cert = freeness_verdict(arr)
        statuses.add(cert.status)
        if cert.status == FREE:
            assert saito_check(arr, cert.generators, seed=cert.seed)
            assert all(type(x) is int for x in cert.saito_point)
            assert all(type(c) is int for gen in cert.generators
                       for comp in gen.components for c in comp.values())
        for d in range(top):
            rows, cols = _assemble(arr.hyperplanes, arr.dim, d)
            dense = [[row.get(c, 0) for c in range(cols)] for row in rows]
            assert graded_dimension(arr, d) == cols - fraction_rank(dense, cols)
    assert {FREE, NONFREE} <= statuses
    cert = freeness_verdict(SCALED_CENTER)
    assert cert.status == FREE and cert.generator_degrees == (0, 2, 2)
    assert cert.dimension_table == {0: 1, 1: 3, 2: 8}


def test_primitive():
    assert primitive([Fraction(1, 2), Fraction(-1, 3)]) == [3, -2]
    assert primitive([-4, 6]) == [2, -3]
    assert primitive([0, 0]) == [0, 0]


def _reference_primitive(vec):
    # the loop form that primitive replaced
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


def test_primitive_matches_loop_reference():
    rng = random.Random(29)
    vectors = [[], [0], [0, 0, 0], [True, False], [False, True, True], [-7], [Fraction(-3, 4)]]
    for t in range(3000):
        size = rng.randint(1, 6)
        scale = rng.choice((1, 2, 6, 35))
        kind = t % 3
        vec = []
        for _ in range(size):
            x = rng.randint(-9, 9) * scale if rng.random() < 0.8 else 0
            if kind == 1:
                x = Fraction(x, rng.randint(1, 12))
            elif kind == 2 and rng.random() < 0.5:
                x = bool(x % 2)
            vec.append(x)
        vectors.append(vec)
    for vec in vectors:
        got = primitive(vec)
        assert got == _reference_primitive(vec), vec
        assert all(type(v) is int for v in got)
    assert any(next((v for v in vec if v), 0) < 0 for vec in vectors)



def singleton_matrices(rng):
    """Sparse matrices in which about 30% of the rows have one entry, with
    duplicate and scaled single-entry rows, rows that keep one entry once
    the columns those force to zero are struck out, and rows that keep none."""
    for _ in range(60):
        nc = rng.randint(4, 30)
        rows = []
        for _ in range(rng.randint(3, 30)):
            if rng.random() < 0.3:
                rows.append({rng.randrange(nc): rng.choice((-3, -1, 1, 2, 5))})
            else:
                cols = rng.sample(range(nc), rng.randint(2, min(6, nc)))
                rows.append({c: rng.choice((-4, -2, -1, 1, 3, 7)) for c in cols})
        singles = sorted({c for row in rows if len(row) == 1 for c in row})
        if singles:
            for _ in range(rng.randint(1, 4)):
                c = rng.choice(singles)
                rows.append({c: rng.choice((-3, 4))})
                dead = rng.sample(singles, rng.randint(1, len(singles)))
                row = {d: rng.choice((-2, 1, 6)) for d in dead}
                if rng.random() < 0.7:
                    row[rng.randrange(nc)] = rng.choice((-5, 1, 3))
                rows.append(row)
        rng.shuffle(rows)
        yield rows, nc


def test_singleton_prepass_matches_one_by_one_insertion():
    rng = random.Random(61)
    stripped = 0
    for rows, nc in singleton_matrices(rng):
        batch = ReducedSpan(nc, rows)
        one_by_one = ReducedSpan(nc)
        for row in sorted(rows, key=len):
            one_by_one.insert(row)
        assert batch.rank == one_by_one.rank
        assert set(batch.pivots) == set(one_by_one.pivots)
        assert list(batch.kernel()) == list(one_by_one.kernel())
        stripped += sum(map(len, one_by_one.pivots.values())) > sum(map(len, batch.pivots.values()))
    assert stripped > 10


def test_explicit_zeros_in_dict_rows_are_dropped():
    # a zero entry is no entry: it is neither a pivot nor a lead to divide by
    assert set(ReducedSpan(3, [{0: 0, 1: 1}]).pivots) == {1}
    span = ReducedSpan(3, [{0: 0, 1: 1}, {0: 1, 2: 1}])
    assert span.rank == 2 and set(span.pivots) == {0, 1}
    span = ReducedSpan(3)
    assert span.insert({0: 0, 2: 5})
    assert span.pivots == {2: {2: 1}}
    assert not span.insert({1: 0})


def test_full_rank_batch_matches_one_by_one_insertion():
    # batches with more independent rows than columns stop at full rank
    rng = random.Random(71)
    for _ in range(40):
        nc = rng.randint(2, 12)
        rows = []
        for _ in range(rng.randint(nc + 2, 3 * nc)):
            cols = rng.sample(range(nc), rng.randint(2, nc))
            rows.append({c: rng.choice((-5, -2, -1, 1, 3, 4)) for c in cols})
        batch = ReducedSpan(nc, rows)
        one_by_one = ReducedSpan(nc)
        for row in rows:
            one_by_one.insert(row)
        assert batch.rank == one_by_one.rank == nc
        assert set(batch.pivots) == set(one_by_one.pivots) == set(range(nc))
        assert list(batch.kernel()) == []
