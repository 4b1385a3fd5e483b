"""Multi-braid specs: scope, classification, duality, Euler restrictions,
rank-2 exponents, and local mixed products."""

import itertools
import random
from collections import Counter

import pytest

from braidfree import (EdgeBicoloredGraph, MultiArrangement, MultiBraidSpec,
                       Ordering, char_poly, classify, dual_spec,
                       euler_multiplicity, euler_restrict_spec, find_ordering,
                       freeness_verdict, induced_subgraph, lmp2, permute_graph,
                       rank2_exponents, theorem_scope, to_arrangement,
                       validate_rank2_closed_form)
from braidfree.eliminate import complete_filtration
from braidfree.graphs import PLUS, UnsupportedSizeError, enumerate_classes
from braidfree.multibraid import FREE, NONFREE, OUT_OF_SCOPE
from braidfree.oracle import (_poly_vanishes_mod_power, euler_restriction_degree,
                              rank2_oracle_exponents)

K4_PLUS = EdgeBicoloredGraph.from_edges(
    4, plus=[(i, j) for i in range(1, 5) for j in range(i + 1, 5)])
EDGELESS3 = EdgeBicoloredGraph.from_edges(3)


def spec(k, n, graph):
    return MultiBraidSpec(k, tuple(n), graph)


def e2(values):
    return sum(a * b for a, b in itertools.combinations(values, 2))


def test_theorem_scope_examples():
    assert theorem_scope(spec(1, (0, 0, 0, 0), K4_PLUS)) == "a"
    assert theorem_scope(spec(0, (0, 0, 0, 0), K4_PLUS)) == "b"
    g = EdgeBicoloredGraph.from_edges(3, minus=[(1, 2)])
    s = spec(0, (1, 1, 1), g)
    assert theorem_scope(s) == "c"
    assert sorted(s.multiplicities().values()) == [1, 2, 2]
    # all-minus with a zero multiplicity: no condition applies
    assert theorem_scope(spec(0, (0, 0, 0), EdgeBicoloredGraph.from_edges(
        3, minus=[(1, 2)]))) is None


def test_classify_examples():
    v = classify(spec(0, (0, 0, 0, 0), K4_PLUS))
    assert v.status == FREE and v.exponents == (0, 1, 2, 3)

    g = EdgeBicoloredGraph.from_edges(3, plus=[(1, 2)], minus=[(2, 3)])
    v = classify(spec(1, (0, 0, 0), g))
    assert v.status == FREE and v.exponents == (0, 3, 3)

    cyc = EdgeBicoloredGraph.from_edges(4, plus=[(1, 2), (2, 3), (3, 4), (1, 4)])
    v = classify(spec(1, (0, 0, 0, 0), cyc))
    assert v.status == NONFREE
    assert v.structural is not None and not v.structural.chordal_plus

    out = classify(spec(0, (0, 0, 0), EdgeBicoloredGraph.from_edges(3, minus=[(1, 2)])))
    assert out.status == OUT_OF_SCOPE and out.exponents is None


def test_every_verdict_carries_the_structural_report():
    cyc = EdgeBicoloredGraph.from_edges(4, plus=[(1, 2), (2, 3), (3, 4), (1, 4)])
    path = EdgeBicoloredGraph.from_edges(3, plus=[(1, 2)], minus=[(2, 3)])
    cases = [(spec(0, (0, 0, 0, 0), K4_PLUS), FREE, True),
             (spec(1, (0, 0, 0, 0), cyc), NONFREE, False),
             (spec(0, (0, 0, 0, 0), cyc), NONFREE, False),
             (spec(0, (0, 0, 0), path), OUT_OF_SCOPE, True),
             (spec(0, (0, 0, 0), EdgeBicoloredGraph.from_edges(3, minus=[(1, 2)])),
              OUT_OF_SCOPE, True)]
    for s, status, passes in cases:
        v = classify(s)
        assert v.status == status
        assert v.structural is not None and v.structural.passes is passes
        if status == OUT_OF_SCOPE:
            assert v.ordering is None and v.tilde is None and v.exponents is None


def test_exponent_sum_identity_examples():
    for s in (spec(0, (0, 0, 0, 0), K4_PLUS),
              spec(1, (0, 0, 0), EDGELESS3),
              spec(2, (1, 0, 2, 1), K4_PLUS)):
        v = classify(s)
        assert v.status == FREE
        assert sum(v.exponents) == s.multiplicity_sum


def test_char_poly_examples():
    tri = EdgeBicoloredGraph.from_edges(3, plus=[(1, 2), (1, 3), (2, 3)])
    assert char_poly(spec(0, (0, 0, 0), tri)).roots == (0, 0, 1, 2)
    assert char_poly(spec(1, (0, 0, 0), EDGELESS3)).roots == (0, 0, 3, 3)
    assert char_poly(dual_spec(spec(1, (0, 0, 0, 0), K4_PLUS))).roots == (0, 0, 1, 2, 3)
    cyc = EdgeBicoloredGraph.from_edges(4, plus=[(1, 2), (2, 3), (3, 4), (1, 4)])
    with pytest.raises(ValueError):
        char_poly(spec(1, (0, 0, 0, 0), cyc))


def test_duality_statuses_and_dual_roots():
    for c in enumerate_classes(4):
        s = spec(1, (0, 0, 0, 0), c.representative)
        d = dual_spec(s)
        assert classify(s).status == classify(d).status
        assert dual_spec(d) == s
    v = classify(spec(1, (0, 0, 0, 0), K4_PLUS))
    vd = classify(dual_spec(spec(1, (0, 0, 0, 0), K4_PLUS)))
    off = 4
    assert sorted(vd.exponents) == sorted([0] + [off - d for d in v.tilde[1:]])


def test_euler_restrict_examples():
    s = spec(1, (0, 0, 0, 0), K4_PLUS)
    r = euler_restrict_spec(s, (4, 1))
    assert r.n == (1, 0, 0) and r.k == 1
    assert r.graph == induced_subgraph(K4_PLUS, {1, 2, 3})

    s2 = spec(0, (2, 0, 0, 1), K4_PLUS)
    assert euler_restrict_spec(s2, (4, 2)).n == (2, 1, 0)

    with pytest.raises(ValueError):
        euler_restrict_spec(s, (1, 1))
    with pytest.raises(ValueError):
        euler_restrict_spec(s, (5, 1))


def _rank_normalized(g):
    nu = find_ordering(g)
    return permute_graph(g, nu.ranks) if nu else None


def test_addition_deletion_recursion_along_filtration():
    g = _rank_normalized(EdgeBicoloredGraph.from_edges(
        4, plus=[(1, 2), (2, 3), (1, 3)], minus=[(1, 4), (2, 4)]))
    nu = Ordering.identity(4)
    filt = complete_filtration(g, nu)
    for idx, ((i, j), color) in enumerate(filt.added_edges):
        stage = spec(1, (0, 0, 0, 0), filt.steps[idx + 1])
        prev = spec(1, (0, 0, 0, 0), filt.steps[idx])
        ve, vp = classify(stage), classify(prev)
        ce, cp = Counter(ve.exponents), Counter(vp.exponents)
        up, dn = ce - cp, cp - ce
        assert sum(up.values()) == 1 and sum(dn.values()) == 1
        (a,), (b,) = up.keys(), dn.keys()
        # a Plus edge raises one exponent, a Minus edge lowers one
        assert a - b == (1 if color == PLUS else -1)
        vr = classify(euler_restrict_spec(stage, (i, j)))
        assert Counter(vr.exponents) == (ce & cp)


def test_euler_multiplicity_cases():
    assert euler_multiplicity([3, 5], 5) == 3
    assert euler_multiplicity([3, 1, 1], 3) == 2
    assert euler_multiplicity([2, 2, 2], 2) == 3
    with pytest.raises(ValueError):
        euler_multiplicity([2, 2], 3)
    with pytest.raises(ValueError):
        euler_multiplicity([2], 2)
    with pytest.raises(UnsupportedSizeError):
        euler_multiplicity([3, 3, 3, 3], 3)


def test_euler_multiplicity_matches_kernel_oracle():
    # the combinatorial cases against the rank-2 kernel route, exhaustively
    for total in range(3, 11):
        for a in range(1, total - 1):
            for b in range(1, total - a):
                c = total - a - b
                if c < 1:
                    continue
                for m0 in {a, b, c}:
                    others = sorted((a, b, c))
                    others.remove(m0)
                    assert euler_multiplicity([a, b, c], m0) == \
                        euler_restriction_degree(m0, others)


def _euler_degree_by_oracle(lines, mults):
    # the degree of the basis generator outside alpha_0 * Der, where alpha_0
    # is the first line x = 0, read as euler_restriction_degree reads it
    cert = freeness_verdict(MultiArrangement(2, tuple(zip(lines, mults))))
    assert cert.status == FREE     # every rank-2 multiarrangement is free
    low, high = sorted(cert.generators, key=lambda g: g.degree)
    if low.degree < high.degree and all(
            _poly_vanishes_mod_power(comp, (1, 0), 1) for comp in low.components):
        return high.degree
    return low.degree


def test_euler_multiplicity_on_four_and_five_lines_matches_the_oracle():
    # four and five lines are not linearly equivalent to every other choice,
    # so each multiplicity tuple is checked on two line sets; the first
    # multiplicity is the restricting hyperplane's
    line_sets = (((1, 0), (0, 1), (1, -1), (1, 1), (1, 2)),
                 ((1, 0), (0, 1), (1, -1), (1, 3), (2, -1)))
    agreed = refused = 0
    for size in (4, 5):
        for mults in itertools.product(range(1, 5), repeat=size):
            if sum(mults) > 9:
                continue
            try:
                got = euler_multiplicity(mults, mults[0])
            except UnsupportedSizeError:
                refused += 1
                continue
            for lines in line_sets:
                assert got == _euler_degree_by_oracle(lines[:size], mults), (lines, mults)
            agreed += 1
    assert (agreed, refused) == (167, 60)


def test_euler_multiplicity_reproduces_restriction_on_flats():
    g = _rank_normalized(EdgeBicoloredGraph.from_edges(
        4, plus=[(1, 2), (2, 3), (1, 3)], minus=[(1, 4), (2, 4)]))
    filt = complete_filtration(g, Ordering.identity(4))
    for idx, ((a, b), color) in enumerate(filt.added_edges):
        j, s = min(a, b), max(a, b)
        stage = spec(1, (0, 0, 0, 0), filt.steps[idx + 1])
        rspec = euler_restrict_spec(stage, (s, j))
        # the addition-deletion triple restricts the arrangement whose
        # distinguished multiplicity is the larger of before/after, i.e. the
        # unclipped value when the added edge is Minus
        m0 = 2 * stage.k + stage.n[s - 1] + stage.n[j - 1] + (1 if color == PLUS else 0)
        for t in (v for v in range(1, 5) if v not in (s, j)):
            flat = [m for m in (stage.multiplicity(min(t, s), max(t, s)),
                                stage.multiplicity(min(t, j), max(t, j)), m0) if m > 0]
            tt = t if t < s else t - 1
            assert euler_multiplicity(flat, m0) == \
                rspec.multiplicity(min(tt, j), max(tt, j))


def test_rank2_exponent_examples():
    assert rank2_exponents((1, 1, 1)) == (2, 1)
    assert rank2_exponents((3, 1, 1)) == (3, 2)
    assert rank2_exponents((7, 4)) == (7, 4)
    assert rank2_exponents((2, 2, 2)) == (3, 3)
    with pytest.raises(UnsupportedSizeError):
        rank2_exponents((1, 1, 1, 1))
    assert rank2_oracle_exponents((1, 1, 1)) == (2, 1)


def test_rank2_closed_form_small_sweep():
    assert validate_rank2_closed_form(8) == (7 + 6 + 5 + 4 + 3 + 2 + 1) + 56


def test_lmp2_examples():
    assert lmp2(spec(0, (0, 0, 0, 0), K4_PLUS)) == 11
    assert lmp2(spec(1, (0, 0, 0, 0), EdgeBicoloredGraph.from_edges(4))) == 48
    assert e2((0, 1, 2, 3)) == 11 and e2((0, 4, 4, 4)) == 48


def test_lmp2_equals_e2_on_free_specs():
    rng = random.Random(23)
    found = 0
    while found < 60:
        n = rng.randint(3, 5)
        g = EdgeBicoloredGraph.from_digits(
            n, [rng.randrange(3) for _ in range(n * (n - 1) // 2)])
        k = rng.randint(0, 2)
        shifts = tuple(rng.randint(0, 1) for _ in range(n))
        s = MultiBraidSpec(k, shifts, g)
        if theorem_scope(s) is None:
            continue
        v = classify(s)
        if v.status != FREE:
            continue
        found += 1
        assert lmp2(s) == e2(v.exponents)


def _reference_lmp2(s):
    """The flat-by-flat sum: triangles x_i = x_j = x_h with 3 or 2 present
    hyperplanes, then pairs of disjoint present hyperplanes."""
    mult = s.multiplicities()
    total = 0
    for tri in itertools.combinations(range(1, s.vertex_count + 1), 3):
        ms = [mult[p] for p in itertools.combinations(tri, 2) if mult[p] > 0]
        if len(ms) == 3:
            d1, d2 = rank2_exponents(ms)
            total += d1 * d2
        elif len(ms) == 2:
            total += ms[0] * ms[1]
    for p, q in itertools.combinations(sorted(mult), 2):
        if len({*p, *q}) == 4 and mult[p] > 0 and mult[q] > 0:
            total += mult[p] * mult[q]
    return total


def test_lmp2_matches_the_flat_by_flat_sum():
    cases = []
    for n in (3, 4):
        for digits in itertools.product(range(3), repeat=n * (n - 1) // 2):
            g = EdgeBicoloredGraph.from_digits(n, digits)
            for shifts in ((0,) * n, (1,) + (0,) * (n - 1), tuple(range(n))):
                cases += [MultiBraidSpec(k, shifts, g) for k in (0, 1)]
    for c in enumerate_classes(5):
        cases += [MultiBraidSpec(k, (0,) * 5, c.representative) for k in (0, 1)]
    rng = random.Random(31)
    for _ in range(200):
        n = rng.randint(6, 7)
        g = EdgeBicoloredGraph.from_digits(
            n, [rng.randrange(3) for _ in range(n * (n - 1) // 2)])
        cases.append(MultiBraidSpec(rng.randint(0, 2),
                                    tuple(rng.randint(0, 2) for _ in range(n)), g))
    seen = Counter()
    for s in cases:
        ms = s.multiplicities().values()
        seen["zero"] += 0 in ms
        seen["negative"] += min(ms) < 0
        assert lmp2(s) == _reference_lmp2(s), s
    assert seen["zero"] > 100 and seen["negative"] > 100


def test_localization_closure():
    rng = random.Random(29)
    found = 0
    while found < 25:
        n = rng.randint(3, 5)
        g = EdgeBicoloredGraph.from_digits(
            n, [rng.randrange(3) for _ in range(n * (n - 1) // 2)])
        s = MultiBraidSpec(1, tuple(rng.randint(0, 2) for _ in range(n)), g)
        if classify(s).status != FREE:
            continue
        found += 1
        for size in range(2, n):
            subset = sorted(rng.sample(range(1, n + 1), size))
            sub = MultiBraidSpec(1, tuple(s.n[v - 1] for v in subset),
                                 induced_subgraph(g, subset))
            assert classify(sub).status == FREE


def test_to_arrangement_drops_zero_and_rejects_negative():
    g = EdgeBicoloredGraph.from_edges(3, plus=[(1, 2)])
    arr = to_arrangement(MultiBraidSpec(0, (0, 0, 0), g))
    assert len(arr.hyperplanes) == 1 and arr.multiplicity_sum == 1
    bad = MultiBraidSpec(0, (0, 0, 0), EdgeBicoloredGraph.from_edges(3, minus=[(1, 2)]))
    with pytest.raises(ValueError):
        to_arrangement(bad)
