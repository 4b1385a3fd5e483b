"""Elimination orderings, tilde-degrees, filtrations, and the structural
characterization, including the agreement between the two routes."""

import itertools
import random
from collections import Counter

import pytest

from braidfree import (EdgeBicoloredGraph, Ordering, color_swap,
                       complete_filtration, find_ordering, induced_subgraph,
                       is_eliminable, is_valid_ordering, iter_valid_orderings,
                       permute_graph, structural_check, structurally_eliminable,
                       tilde_degrees)
from braidfree.eliminate import (Filtration, HillWitness, MountainWitness,
                                 StructuralReport, find_bad_quadruple, find_hill,
                                 find_mountain, is_chordal_one_color)
from braidfree.graphs import ABSENT, MINUS, PLUS, SWAPPED, _slot, enumerate_classes

MOUNTAIN = EdgeBicoloredGraph.from_edges(4, plus=[(2, 4)], minus=[(1, 2), (2, 3)])
HILL = EdgeBicoloredGraph.from_edges(4, plus=[(3, 4), (1, 3), (2, 4)], minus=[(1, 2)])
ONE_COLOR_4CYCLE = EdgeBicoloredGraph.from_edges(4, plus=[(1, 2), (2, 3), (3, 4), (1, 4)])


def all_graphs(n):
    for digits in itertools.product((0, 1, 2), repeat=n * (n - 1) // 2):
        yield EdgeBicoloredGraph.from_digits(n, digits)


def test_ordering_validation():
    with pytest.raises(ValueError):
        Ordering.from_ranks([1, 1, 2])
    nu = Ordering.from_ranks([2, 3, 1])
    assert nu.vertex_at(1) == 3 and nu.rank_of(1) == 2
    assert Ordering.from_by_rank(nu.by_rank) == nu
    # vertices and ranks outside 1..n
    for make, seq in ((Ordering.from_by_rank, (0, 1)), (Ordering.from_by_rank, (1, 3)),
                      (Ordering.from_ranks, (0, 1)), (Ordering.from_ranks, (1, 3))):
        with pytest.raises(ValueError):
            make(seq)
    with pytest.raises(ValueError):
        Ordering((2, 1), (0, 1))


def _triple_ok(mat, i, j, k):
    # patterns (1) and (2) on the triple {i, j, k} with k on top
    for s in (PLUS, MINUS):
        if mat[i][k] == s and mat[j][k] == s and mat[i][j] != s:
            return False
        for a, b in ((i, j), (j, i)):
            if mat[k][a] == s and mat[a][b] == SWAPPED[s] and mat[k][b] == ABSENT:
                return False
    return True


def _valid_by_definition(g, by_rank):
    # patterns (1) and (2), read off every triple and its top-ranked vertex
    for triple in itertools.combinations(g.vertices(), 3):
        k = max(triple, key=by_rank.index)
        i, j = (v for v in triple if v != k)
        if not _triple_ok(g.mat, i, j, k):
            return False
    return True


def test_is_valid_ordering_matches_pattern_definition():
    cases = [(g, perm) for n in (3, 4) for g in all_graphs(n)
             for perm in itertools.permutations(range(1, n + 1))]
    rng = random.Random(31)
    for n in (5, 6):
        for _ in range(600):
            g = EdgeBicoloredGraph.from_digits(
                n, rng.choices((ABSENT, PLUS, MINUS), (3, 1, 1), k=n * (n - 1) // 2))
            cases.append((g, tuple(rng.sample(range(1, n + 1), n))))
            nu = find_ordering(g)
            if nu is not None:
                cases.append((g, nu.by_rank))
    valid = 0
    for g, perm in cases:
        want = _valid_by_definition(g, perm)
        assert is_valid_ordering(g, Ordering.from_by_rank(perm)) == want, (g.digits(), perm)
        valid += want
    assert 0 < valid < len(cases)


def _reference_ordering(g):
    # the memoized backtracking search that the greedy peel replaces
    n, mat = g.n, g.mat

    def triple_bad(a, b, c):
        # a = color(i,k), b = color(j,k), c = color(i,j); k is the top vertex
        if a:
            if a == b:
                return c != a
            if not b and c == SWAPPED[a]:
                return True
        return b != ABSENT and not a and c == SWAPPED[b]

    def sink_ok(v, members):
        others = [u for u in members if u != v]
        return not any(triple_bad(mat[v][i], mat[v][j], mat[i][j])
                       for i, j in itertools.combinations(others, 2))

    memo = {}

    def suffix(mask, count):
        if count <= 2:
            return [v + 1 for v in range(n) if mask >> v & 1]
        if mask not in memo:
            members = [v + 1 for v in range(n) if mask >> v & 1]
            memo[mask] = None
            for v in members:
                if sink_ok(v, members):
                    rest = suffix(mask ^ 1 << (v - 1), count - 1)
                    if rest is not None:
                        memo[mask] = rest + [v]
                        break
        return memo[mask]

    order = suffix((1 << n) - 1, n)
    return None if order is None else Ordering.from_by_rank(order).ranks


def test_find_ordering_matches_memoized_search():
    graphs = [c.representative for c in enumerate_classes(5)]
    rng = random.Random(37)
    for n, count in ((6, 1200), (7, 800)):
        graphs += [EdgeBicoloredGraph.from_digits(
            n, rng.choices((ABSENT, PLUS, MINUS), (3, 1, 1), k=n * (n - 1) // 2))
            for _ in range(count)]
    eliminable = 0
    for g in graphs:
        want = _reference_ordering(g)
        nu = find_ordering(g)
        assert (nu and nu.ranks) == want, g.digits()
        eliminable += want is not None
    assert 0 < eliminable < len(graphs)


def test_is_valid_ordering_examples():
    g = EdgeBicoloredGraph.from_edges(3, plus=[(1, 2)], minus=[(2, 3)])
    assert is_valid_ordering(g, Ordering.from_ranks([1, 3, 2]))
    assert not is_valid_ordering(g, Ordering.identity(3))
    edgeless = EdgeBicoloredGraph.from_edges(4)
    for perm in itertools.permutations(range(1, 5)):
        assert is_valid_ordering(edgeless, Ordering.from_by_rank(perm))


def test_find_ordering_mountain_has_none():
    assert find_ordering(MOUNTAIN) is None
    # independent exhaustive confirmation over all 24 orderings
    assert not any(True for _ in iter_valid_orderings(MOUNTAIN))


def test_find_ordering_one_color_cycle_has_none():
    assert find_ordering(ONE_COLOR_4CYCLE) is None


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_complete_plus_graph_identity_is_valid(n):
    g = EdgeBicoloredGraph.from_edges(
        n, plus=[(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)])
    assert is_valid_ordering(g, Ordering.identity(n))
    assert tilde_degrees(g, Ordering.identity(n)) == tuple(range(n))


def test_tilde_degrees_examples():
    g = EdgeBicoloredGraph.from_edges(3, plus=[(1, 2)], minus=[(2, 3)])
    assert tilde_degrees(g, Ordering.from_ranks([1, 3, 2])) == (0, 0, 0)
    edgeless = EdgeBicoloredGraph.from_edges(5)
    assert tilde_degrees(edgeless, Ordering.identity(5)) == (0,) * 5
    with pytest.raises(ValueError):
        tilde_degrees(g, Ordering.identity(3))


def test_degree_vector_invariants_on_samples():
    rng = random.Random(5)
    found = 0
    while found < 40:
        n = rng.randint(2, 5)
        g = EdgeBicoloredGraph.from_digits(
            n, [rng.randrange(3) for _ in range(n * (n - 1) // 2)])
        nu = find_ordering(g)
        if nu is None:
            continue
        found += 1
        degs = tilde_degrees(g, nu)
        assert degs[0] == 0
        assert all(abs(d) <= i for i, d in enumerate(degs))
        assert sum(degs) == g.edge_balance()


def test_filtration_triangle_order():
    tri = EdgeBicoloredGraph.from_edges(3, plus=[(1, 2), (1, 3), (2, 3)])
    filt = complete_filtration(tri, Ordering.identity(3))
    assert [e for e, _ in filt.added_edges] == [(1, 2), (1, 3), (2, 3)]
    assert [c for _, c in filt.added_edges] == [PLUS, PLUS, PLUS]


def test_filtration_single_edge():
    g = EdgeBicoloredGraph.from_edges(2, plus=[(1, 2)])
    filt = complete_filtration(g, Ordering.identity(2))
    assert len(filt.steps) == 2
    assert filt.steps[0] == EdgeBicoloredGraph.from_edges(2)
    assert filt.steps[1] == g


def test_filtration_star_needs_valid_ordering():
    star = EdgeBicoloredGraph.from_edges(4, plus=[(1, 4), (2, 4), (3, 4)])
    # the identity is not an elimination ordering here: two leaves below the
    # hub trigger the same-color pattern
    assert not is_valid_ordering(star, Ordering.identity(4))
    with pytest.raises(ValueError):
        complete_filtration(star, Ordering.identity(4))
    nu = find_ordering(star)
    assert nu is not None
    filt = complete_filtration(star, nu)
    assert len(filt.added_edges) == 3


def test_filtration_soundness_on_samples():
    rng = random.Random(9)
    found = 0
    while found < 30:
        n = rng.randint(2, 5)
        g = EdgeBicoloredGraph.from_digits(
            n, [rng.randrange(3) for _ in range(n * (n - 1) // 2)])
        nu = find_ordering(g)
        if nu is None:
            continue
        found += 1
        filt = complete_filtration(g, nu)
        assert filt.steps[-1] == g
        assert len(filt.steps) == len(filt.added_edges) + 1
        for a, b in zip(filt.steps, filt.steps[1:]):
            grew = [(p, b.mat[p[0]][p[1]]) for p in
                    [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
                    if a.mat[p[0]][p[1]] != b.mat[p[0]][p[1]]]
            assert len(grew) == 1
            assert is_valid_ordering(b, nu)
        # block structure: addition ranks never decrease
        tops = [max(nu.rank_of(i), nu.rank_of(j)) for (i, j), _ in filt.added_edges]
        assert tops == sorted(tops)


def _reference_filtration(g, nu):
    # the matrix-copy construction that complete_filtration replaced
    if not is_valid_ordering(g, nu):
        raise ValueError("not a bicolor-elimination ordering for this graph")
    n = g.n
    mat = [list(row) for row in g.mat]
    by = nu.by_rank
    deletions = []
    for top in range(n - 1, 0, -1):
        l = by[top]
        row_l = mat[l]
        while True:
            nb = [by[x] for x in range(top) if row_l[by[x]]]
            if not nb:
                break
            maximal = []
            for j in nb:
                cjl = row_l[j]
                row_j = mat[j]
                # j is maximal unless some i has {j,i} colored like {j,l}
                # while {i,l} carries the other color
                if not any(row_j[i] == cjl and row_l[i] == SWAPPED[cjl]
                           for i in nb if i != j):
                    maximal.append(j)
            # the precedence is a partial order on the neighbors, so maximal
            # elements always exist under a valid ordering
            if not maximal:
                raise AssertionError("edge-deletion precedence has no maximal element")
            j = max(maximal)
            deletions.append(((min(j, l), max(j, l)), row_l[j]))
            mat[l][j] = mat[j][l] = ABSENT
    additions = tuple(reversed(deletions))

    digits = [ABSENT] * (n * (n - 1) // 2)
    steps = [EdgeBicoloredGraph._from_valid_digits(n, tuple(digits))]
    for (i, j), color in additions:
        digits[_slot(n, i, j)] = color
        step = EdgeBicoloredGraph._from_valid_digits(n, tuple(digits))
        if not is_valid_ordering(step, nu):
            raise AssertionError("filtration stage lost the elimination ordering")
        steps.append(step)
    if steps[-1] != g:
        raise AssertionError("filtration did not rebuild the input graph")
    return Filtration(tuple(steps), additions, nu)


def _assert_filtration_matches_reference(g, nu):
    filt, want = complete_filtration(g, nu), _reference_filtration(g, nu)
    assert filt.added_edges == want.added_edges, (g.digits(), nu.by_rank)
    assert filt.steps == want.steps


def test_filtration_matches_matrix_copy_reference():
    # every valid ordering of every eliminable no-swap class on 2-4
    # vertices; find_ordering's alone on 5, where all of them take seconds
    compared = 0
    for n in range(2, 6):
        for cls in enumerate_classes(n, include_swap=False):
            g = cls.representative
            orderings = list(iter_valid_orderings(g)) if n < 5 else [find_ordering(g)]
            for nu in filter(None, orderings):
                _assert_filtration_matches_reference(g, nu)
                compared += 1
    assert compared > 800
    # 100 seeded eliminable 6- and 7-vertex graphs, relabeled at random, under
    # the relabeled construction ordering and under find_ordering's
    rng = random.Random(23)
    for t in range(100):
        n = 6 + t % 2
        perm = list(range(1, n + 1))
        rng.shuffle(perm)
        g = permute_graph(_eliminable_by_construction(rng, n), perm)
        _assert_filtration_matches_reference(g, Ordering.from_by_rank(perm))
        _assert_filtration_matches_reference(g, find_ordering(g))


def test_structural_witnesses():
    rep = structural_check(ONE_COLOR_4CYCLE)
    assert not rep.chordal_plus and rep.chordal_minus
    m = structural_check(MOUNTAIN).mountain
    assert m is not None and m.sigma == PLUS and m.omega == 4
    assert m.path in ((1, 2, 3), (3, 2, 1))
    h = structural_check(HILL).hill
    assert h is not None and (h.path, h.omega1, h.omega2) == ((1, 2), 3, 4)


def _report_by_finders(g):
    return (is_chordal_one_color(g, PLUS), is_chordal_one_color(g, MINUS),
            find_bad_quadruple(g), find_mountain(g), find_hill(g))


def test_structural_report_fields_equal_the_finders():
    rng = random.Random(31)
    graphs = list(all_graphs(4))
    graphs += [EdgeBicoloredGraph.from_digits(6, [rng.randrange(3) for _ in range(15)])
               for _ in range(2000)]
    passing = 0
    for g in graphs:
        rep = structural_check(g)
        verdict = rep.passes
        cp, cm, quad, mountain, hill = want = _report_by_finders(g)
        assert (rep.chordal_plus, rep.chordal_minus, rep.bad_quadruple,
                rep.mountain, rep.hill) == want, g.digits()
        assert verdict == (cp and cm and quad is None and mountain is None and hill is None)
        assert rep == StructuralReport(g) and hash(rep) == hash(StructuralReport(g))
        passing += verdict
    assert 0 < passing < len(graphs)


def test_structural_verdict_stops_at_the_first_failing_condition(monkeypatch):
    import braidfree.eliminate as eliminate

    def refuse(*args):
        raise AssertionError("condition evaluated after the verdict was known")

    for name in ("is_chordal_one_color", "find_mountain", "find_hill"):
        monkeypatch.setattr(eliminate, name, refuse)
    # the chordless Plus 4-cycle is itself a bad quadruple, the first condition read
    res = is_eliminable(ONE_COLOR_4CYCLE)
    assert not res.eliminable and res.structural.bad_quadruple == (1, 2, 3, 4)

    calls = []

    def counted(g):
        calls.append(g)
        return find_hill(g)

    monkeypatch.setattr(eliminate, "find_hill", counted)
    assert res.structural.hill == find_hill(ONE_COLOR_4CYCLE)
    assert res.structural.hill == find_hill(ONE_COLOR_4CYCLE)
    assert calls == [ONE_COLOR_4CYCLE]


def test_each_condition_is_found_at_most_once_per_report(monkeypatch):
    import braidfree.eliminate as eliminate

    calls = Counter()

    def counted(finder):
        def count(*args):
            calls[finder.__name__, args] += 1
            return finder(*args)
        return count

    for finder in (is_chordal_one_color, find_bad_quadruple, find_mountain, find_hill):
        monkeypatch.setattr(eliminate, finder.__name__, counted(finder))
    rng = random.Random(41)
    graphs = [MOUNTAIN, HILL, ONE_COLOR_4CYCLE, *all_graphs(3)]
    graphs += [_eliminable_by_construction(rng, 6) for _ in range(20)]
    graphs += [EdgeBicoloredGraph.from_digits(6, [rng.randrange(3) for _ in range(15)])
               for _ in range(100)]
    verdicts = set()
    for g in graphs:
        calls.clear()
        report = structural_check(g)
        decided = +calls
        assert decided, g.digits()   # the verdict is decided inside the call
        verdict = report.passes
        for _ in range(3):
            assert report.passes == verdict
        assert calls == decided, g.digits()
        verdicts.add(verdict)
        for _ in range(3):
            assert (report.chordal_plus, report.chordal_minus, report.bad_quadruple,
                    report.mountain, report.hill) == _report_by_finders(g)
        assert len(calls) == 5 and set(calls.values()) == {1}, g.digits()
    assert verdicts == {True, False}


def _eliminable_by_construction(rng, n):
    # each new vertex draws edges to the earlier ones until it may take the
    # top rank, so the identity ordering is valid by the pattern definition
    mat = [[ABSENT] * (n + 1) for _ in range(n + 1)]
    for k in range(2, n + 1):
        while True:
            for i in range(1, k):
                mat[i][k] = mat[k][i] = rng.randrange(3)
            if all(_triple_ok(mat, i, j, k) for i, j in itertools.combinations(range(1, k), 2)):
                break
    return EdgeBicoloredGraph(n, tuple(map(tuple, mat)))


def test_route_agreement_on_six_and_seven_vertices():
    rng = random.Random(37)
    eliminable = 0
    for n, count in ((6, 150), (7, 100)):
        for t in range(count):
            if t % 2:
                g = EdgeBicoloredGraph.from_digits(
                    n, [rng.randrange(3) for _ in range(n * (n - 1) // 2)])
            else:
                g = _eliminable_by_construction(rng, n)
                assert _valid_by_definition(g, tuple(range(1, n + 1)))
            res = is_eliminable(g)      # asserts that the routes agree
            assert res.structural.passes == res.eliminable
            if t % 2 == 0:
                assert res.eliminable, g.digits()
            eliminable += res.eliminable
    assert 125 <= eliminable < 250


def test_chordality_via_elimination():
    assert is_chordal_one_color(ONE_COLOR_4CYCLE, MINUS)   # empty graph
    assert not is_chordal_one_color(ONE_COLOR_4CYCLE, PLUS)
    chorded = EdgeBicoloredGraph.from_edges(
        4, plus=[(1, 2), (2, 3), (3, 4), (1, 4), (1, 3)])
    assert is_chordal_one_color(chorded, PLUS)


def _first_bad_quadruple(g):
    # the definition the table lookup replaces
    for quad in itertools.combinations(g.vertices(), 4):
        if find_ordering(induced_subgraph(g, quad)) is None:
            return quad
    return None


def test_bad_quadruple_table_matches_definition():
    graphs = [c.representative for c in enumerate_classes(5)]
    rng = random.Random(23)
    graphs += [EdgeBicoloredGraph.from_digits(6, [rng.randrange(3) for _ in range(15)])
               for _ in range(300)]
    found = 0
    for g in graphs:
        want = _first_bad_quadruple(g)
        assert find_bad_quadruple(g) == want, g.digits()
        found += want is not None
    assert 0 < found < len(graphs)


def _has_long_induced_cycle(g, color):
    # brute force: some ordered vertex cycle of length >= 4 whose consecutive
    # pairs carry the color and whose other pairs do not
    for size in range(4, g.n + 1):
        for cyc in itertools.permutations(g.vertices(), size):
            if cyc[0] != min(cyc):
                continue
            if all((g.mat[cyc[a]][cyc[b]] == color) == ((b - a) % size in (1, size - 1))
                   for a, b in itertools.combinations(range(size), 2)):
                return True
    return False


def test_chordality_matches_induced_cycles_on_five_vertices():
    chordal = 0
    for mask in range(1 << 10):
        g = EdgeBicoloredGraph.from_digits(5, [PLUS if mask >> t & 1 else 0
                                               for t in range(10)])
        expect = not _has_long_induced_cycle(g, PLUS)
        assert is_chordal_one_color(g, PLUS) == expect, mask
        assert is_chordal_one_color(color_swap(g), MINUS) == expect
        chordal += expect
    assert 0 < chordal < 1 << 10


def _reference_mountain(g):
    # the search on color matrices that the bitmask ridge-path search replaces
    mat = g.mat
    vs = list(g.vertices())
    for sigma in (PLUS, MINUS):
        ridge = SWAPPED[sigma]
        for omega in vs:
            row_w = mat[omega]

            def extend(path, used):
                for u in vs:
                    if u == omega or used >> u & 1 or mat[path[-1]][u] != ridge:
                        continue
                    if any(mat[u][p] for p in path[:-1]):
                        continue
                    if len(path) >= 2 and row_w[u] == ABSENT:
                        return MountainWitness(sigma, (*path, u), omega)
                    if row_w[u] == sigma:
                        found = extend((*path, u), used | 1 << u)
                        if found is not None:
                            return found
                return None

            for start in vs:
                if start != omega and row_w[start] == ABSENT:
                    found = extend((start,), 1 << start | 1 << omega)
                    if found is not None:
                        return found
    return None


def _reference_hill(g):
    mat = g.mat
    vs = list(g.vertices())
    for sigma in (PLUS, MINUS):
        ridge = SWAPPED[sigma]
        for omega1, omega2 in itertools.permutations(vs, 2):
            if mat[omega1][omega2] != sigma:
                continue
            row1, row2 = mat[omega1], mat[omega2]

            def extend(path, used):
                for u in vs:
                    if used >> u & 1 or mat[path[-1]][u] != ridge or row2[u] != sigma:
                        continue
                    if any(mat[u][p] for p in path[:-1]):
                        continue
                    if row1[u] == ABSENT:
                        return HillWitness(sigma, (*path, u), omega1, omega2)
                    if row1[u] == sigma:
                        found = extend((*path, u), used | 1 << u)
                        if found is not None:
                            return found
                return None

            for start in vs:
                if start not in (omega1, omega2) and row1[start] == sigma \
                        and row2[start] == ABSENT:
                    found = extend((start,), 1 << start | 1 << omega1 | 1 << omega2)
                    if found is not None:
                        return found
    return None


def test_mountain_and_hill_witnesses_match_reference_search():
    graphs = [c.representative for c in enumerate_classes(5)]
    rng = random.Random(29)
    for n, count in ((6, 300), (7, 100)):
        graphs += [EdgeBicoloredGraph.from_digits(
            n, [rng.randrange(3) for _ in range(n * (n - 1) // 2)]) for _ in range(count)]
    seen = set()
    for g in graphs:
        m, h = _reference_mountain(g), _reference_hill(g)
        assert find_mountain(g) == m and find_hill(g) == h, g.digits()
        seen.add((m is None, h is None))
    assert len(seen) == 4


def test_all_three_vertex_graphs_eliminable():
    for g in all_graphs(3):
        res = is_eliminable(g)
        assert res.eliminable
        assert res.structural.passes


def test_four_vertex_split():
    bad = [c for c in enumerate_classes(4)
           if not is_eliminable(c.representative).eliminable]
    assert len(bad) == 12
    for c in bad:
        rep = structural_check(c.representative)
        assert not rep.passes


def test_agreement_exhaustive_four_vertices():
    for g in all_graphs(4):
        assert (find_ordering(g) is not None) == structurally_eliminable(g)


def test_hereditary_on_samples():
    rng = random.Random(13)
    found = 0
    while found < 25:
        n = rng.randint(3, 5)
        g = EdgeBicoloredGraph.from_digits(
            n, [rng.randrange(3) for _ in range(n * (n - 1) // 2)])
        if find_ordering(g) is None:
            continue
        found += 1
        for size in range(1, n):
            for subset in itertools.combinations(range(1, n + 1), size):
                assert find_ordering(induced_subgraph(g, subset)) is not None


def test_swap_equivariance():
    rng = random.Random(17)
    for _ in range(40):
        n = rng.randint(2, 5)
        g = EdgeBicoloredGraph.from_digits(
            n, [rng.randrange(3) for _ in range(n * (n - 1) // 2)])
        nu = Ordering.from_by_rank(
            rng.sample(range(1, n + 1), n))
        ok = is_valid_ordering(g, nu)
        assert ok == is_valid_ordering(color_swap(g), nu)
        if ok:
            degs = tilde_degrees(g, nu)
            assert tilde_degrees(color_swap(g), nu) == tuple(-d for d in degs)


def test_relabeling_preserves_eliminability():
    rng = random.Random(19)
    for _ in range(30):
        n = rng.randint(2, 5)
        g = EdgeBicoloredGraph.from_digits(
            n, [rng.randrange(3) for _ in range(n * (n - 1) // 2)])
        perm = rng.sample(range(1, n + 1), n)
        assert (find_ordering(g) is None) == (find_ordering(permute_graph(g, perm)) is None)
