"""Graph values, canonical forms, and the exhaustive census."""

import itertools
import random
from math import factorial

import pytest

from braidfree import (MINUS, PLUS, DirectedGraph, EdgeBicoloredGraph,
                       UnsupportedSizeError, canonical_key, color_swap,
                       complete_filtration, enumerate_classes, find_ordering,
                       induced_subgraph, permute_graph)
from braidfree.graphs import ABSENT, SWAPPED, _digit_plan, _pair_slot_maps, pair_list


def burnside_class_count(n, include_swap):
    """Independent orbit count: average the fixed colorings over the group.

    A vertex permutation fixes 3^(pair cycles) colorings; composed with the
    color swap it fixes 3^(even pair cycles): along an odd cycle the digit
    must equal its own swap, leaving only Absent.
    """
    pairs = pair_list(n)
    index = {p: t for t, p in enumerate(pairs)}
    total = 0
    for perm in itertools.permutations(range(1, n + 1)):
        full = (0, *perm)
        image = [index[tuple(sorted((full[i], full[j])))] for i, j in pairs]
        seen = [False] * len(pairs)
        cycles = []
        for t in range(len(pairs)):
            if not seen[t]:
                length = 0
                u = t
                while not seen[u]:
                    seen[u] = True
                    u = image[u]
                    length += 1
                cycles.append(length)
        total += 3 ** len(cycles)
        if include_swap:
            total += 3 ** sum(1 for c in cycles if c % 2 == 0)
    order = factorial(n) * (2 if include_swap else 1)
    assert total % order == 0
    return total // order


def test_induced_subgraph_examples():
    g = EdgeBicoloredGraph.from_edges(4, plus=[(1, 2), (1, 3), (2, 3)])
    h = induced_subgraph(g, {1, 2, 3})
    assert h == EdgeBicoloredGraph.from_edges(3, plus=[(1, 2), (1, 3), (2, 3)])

    g = EdgeBicoloredGraph.from_edges(4, plus=[(1, 2)], minus=[(3, 4)])
    assert induced_subgraph(g, {1, 2}) == EdgeBicoloredGraph.from_edges(2, plus=[(1, 2)])

    g = EdgeBicoloredGraph.from_edges(4, plus=[(1, 2), (2, 3)], minus=[(1, 4)])
    h = induced_subgraph(g, {1, 2, 4})
    assert h == EdgeBicoloredGraph.from_edges(3, plus=[(1, 2)], minus=[(1, 3)])


def test_induced_subgraph_rejects_bad_subsets():
    g = EdgeBicoloredGraph.from_edges(3, plus=[(1, 2)])
    with pytest.raises(ValueError):
        induced_subgraph(g, set())
    with pytest.raises(ValueError):
        induced_subgraph(g, {1, 5})


def test_induced_full_support_is_identity():
    g = EdgeBicoloredGraph.from_edges(4, plus=[(1, 4)], minus=[(2, 3)])
    assert induced_subgraph(g, {1, 2, 3, 4}) == g


def test_color_swap_examples():
    g = EdgeBicoloredGraph.from_edges(3, plus=[(1, 2)], minus=[(2, 3)])
    assert color_swap(g) == EdgeBicoloredGraph.from_edges(3, plus=[(2, 3)], minus=[(1, 2)])
    empty = EdgeBicoloredGraph.from_edges(4)
    assert color_swap(empty) == empty
    tri = EdgeBicoloredGraph.from_edges(4, plus=[(1, 2), (1, 3), (2, 3)])
    assert color_swap(tri) == EdgeBicoloredGraph.from_edges(4, minus=[(1, 2), (1, 3), (2, 3)])


def test_color_swap_is_involution_on_random_graphs():
    rng = random.Random(7)
    for _ in range(50):
        n = rng.randint(1, 6)
        digits = [rng.randrange(3) for _ in range(n * (n - 1) // 2)]
        g = EdgeBicoloredGraph.from_digits(n, digits)
        assert color_swap(color_swap(g)) == g


def test_from_edges_validation():
    with pytest.raises(ValueError):
        EdgeBicoloredGraph.from_edges(3, plus=[(1, 1)])
    with pytest.raises(ValueError):
        EdgeBicoloredGraph.from_edges(3, plus=[(1, 4)])
    with pytest.raises(ValueError):
        EdgeBicoloredGraph.from_edges(3, plus=[(1, 2)], minus=[(2, 1)])
    with pytest.raises(ValueError):
        EdgeBicoloredGraph.from_edges(3, plus=[(1, 2), (2, 1)])
    # on n <= 0 an edge is refused before the vertex count is, and a large
    # negative n is refused without sizing a list of C(n,2) digits
    for n in (0, -2, -10**6):
        with pytest.raises(ValueError, match=f"^bad edge \\(1,2\\) on {n} vertices$"):
            EdgeBicoloredGraph.from_edges(n, plus=[(1, 2)])
        with pytest.raises(ValueError, match="^vertex count must be positive$"):
            EdgeBicoloredGraph.from_edges(n)
    with pytest.raises(ValueError, match="^duplicate edge \\(1, 3\\)$"):
        EdgeBicoloredGraph.from_edges(3, plus=[(3, 1)], minus=[(1, 3)])
    # Plus edges are checked before Minus edges, each list in order
    with pytest.raises(ValueError, match="^duplicate edge \\(1, 2\\)$"):
        EdgeBicoloredGraph.from_edges(3, plus=[(1, 2), (2, 1)], minus=[(1, 4)])
    # 2.0 equals 2, but a vertex is an int: the edge is refused, not stored
    with pytest.raises(TypeError):
        EdgeBicoloredGraph.from_edges(3, plus=[(1, 2.0)])


def test_from_digits_validation():
    with pytest.raises(ValueError, match="^digit string length does not match C\\(n,2\\)$"):
        EdgeBicoloredGraph.from_digits(3, (0, 1))
    for bad in (3, -1, None, [1], 1.5):
        with pytest.raises(ValueError, match="^unknown edge color code$"):
            EdgeBicoloredGraph.from_digits(3, (0, bad, 1))
    for n in (0, -2):
        with pytest.raises(ValueError, match="^vertex count must be positive$"):
            EdgeBicoloredGraph.from_digits(n, ())
    assert pair_list(4) is pair_list(4) and isinstance(pair_list(4), tuple)


@pytest.mark.parametrize("bad", [1.0, True, 2.0, False, 0.0])
def test_codes_equal_to_a_valid_code_are_refused(bad):
    # 1.0 and True compare and hash equal to 1, so an equality check lets
    # them through; both constructors must refuse them as codes
    with pytest.raises(ValueError, match="^unknown edge color code$"):
        EdgeBicoloredGraph.from_digits(3, (0, bad, 1))
    mat = [[ABSENT] * 4 for _ in range(4)]
    mat[1][3] = mat[3][1] = bad
    with pytest.raises(ValueError, match="^unknown edge color code$"):
        EdgeBicoloredGraph(3, tuple(map(tuple, mat)))


def test_checked_constructor_keeps_only_the_colors():
    # the padding row and column and the row types of the given matrix are
    # not kept: the graph equals, and hashes like, the one of its digits
    ref = EdgeBicoloredGraph.from_digits(3, (1, 0, 2))
    padded = ((7, 7, 7, 7), (7, 0, 1, 0), (7, 1, 0, 2), (7, 0, 2, 0))
    lists = [[0, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 2], [0, 0, 2, 0]]
    for mat in (padded, lists):
        g = EdgeBicoloredGraph(3, mat)
        assert g == ref and hash(g) == hash(ref) and repr(g) == repr(ref)
        assert g.mat == ref.mat and g.adjacency == ref.adjacency
        assert canonical_key(g) == canonical_key(ref)


def _reference_masks(mat):
    """Bitmask adjacency recomputed from a color matrix by a plain loop."""
    n = len(mat) - 1
    masks = [[0] * (n + 1) for _ in range(3)]
    for v in range(1, n + 1):
        for u in range(v + 1, n + 1):
            masks[mat[v][u]][v] |= 1 << u
            masks[mat[v][u]][u] |= 1 << v
    return tuple(map(tuple, masks))


def _checked(n, colored):
    """The graph on n vertices with each (i, j, color) of ``colored`` and
    every other pair absent, built by the matrix-checking constructor."""
    mat = [[ABSENT] * (n + 1) for _ in range(n + 1)]
    for i, j, color in colored:
        mat[i][j] = mat[j][i] = color
    return EdgeBicoloredGraph(n, tuple(map(tuple, mat)))


def _assert_same_graph(built, ref):
    assert built == ref and hash(built) == hash(ref) and repr(built) == repr(ref)
    assert built.mat == ref.mat
    assert built.adjacency == ref.adjacency == _reference_masks(ref.mat)


def _check_every_path(n, digits, rng):
    """The graph of ``digits``, and each graph built from it, equal the
    graphs the matrix-checking constructor builds from the same colors;
    returns whether a filtration was checked."""
    upper = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    ref = _checked(n, ((i, j, d) for (i, j), d in zip(upper, digits)))
    g = EdgeBicoloredGraph.from_digits(n, digits)
    _assert_same_graph(g, ref)
    # half of the edges are listed larger end first
    edges = {c: [(j, i) if (i + j) % 2 else (i, j) for (i, j), d in zip(upper, digits) if d == c]
             for c in (PLUS, MINUS)}
    _assert_same_graph(EdgeBicoloredGraph.from_edges(n, plus=edges[PLUS], minus=edges[MINUS]),
                       ref)
    _assert_same_graph(color_swap(g), _checked(n, ((i, j, SWAPPED[g.mat[i][j]])
                                                   for i, j in upper)))
    perm = (0, *rng.sample(range(1, n + 1), n))
    _assert_same_graph(permute_graph(g, perm),
                       _checked(n, ((perm[i], perm[j], g.mat[i][j]) for i, j in upper)))
    vs = sorted(rng.sample(range(1, n + 1), rng.randint(1, n)))
    m = len(vs)
    _assert_same_graph(induced_subgraph(g, vs), _checked(
        m, ((a, b, g.mat[vs[a - 1]][vs[b - 1]])
            for a in range(1, m + 1) for b in range(a + 1, m + 1))))
    nu = find_ordering(g)
    if nu is None:
        return False
    filtration = complete_filtration(g, nu)
    for k, step in enumerate(filtration.steps):
        _assert_same_graph(step, _checked(
            n, ((i, j, color) for (i, j), color in filtration.added_edges[:k])))
    return True


def test_every_construction_path_matches_the_checked_constructor():
    rng = random.Random(43)
    filtrations = 0
    for digits in itertools.product((ABSENT, PLUS, MINUS), repeat=6):
        filtrations += _check_every_path(4, digits, rng)
    assert filtrations == 471   # the eliminable four-vertex colorings
    for n in range(1, 8):
        filtrations = 0
        for t in range(60):
            # every other sample is sparse, so that some of the larger graphs
            # are eliminable and their filtrations are checked as well
            codes = (ABSENT, PLUS, MINUS) if t % 2 else (ABSENT,) * 4 + (PLUS, MINUS)
            digits = [rng.choice(codes) for _ in range(n * (n - 1) // 2)]
            filtrations += _check_every_path(n, digits, rng)
        assert filtrations > 0, n


def test_slot_tables_match_dict_built_references():
    for n in range(1, 8):
        pairs = pair_list(n)
        index = {}
        for t, (i, j) in enumerate(pairs):
            index[i, j] = index[j, i] = t
        # each row getter reads entry (i, j) at the pair's slot and every
        # other entry at the one ABSENT after the digits
        padded = tuple(range(len(pairs) + 1))
        rows, bits = _digit_plan(n)
        for i, row in enumerate(rows):
            assert row(padded) == tuple(index.get((i, j), len(pairs)) for j in range(n + 1))
        assert bits == tuple((i, j, 1 << i, 1 << j) for i, j in pairs)
        want = []
        for perm in itertools.permutations(range(1, n + 1)):
            full = (0, *perm)
            want.append(tuple(index[full[i], full[j]] for i, j in pairs))
        assert _pair_slot_maps(n) == tuple(want)


def test_canonical_key_orbit_constancy():
    rng = random.Random(11)
    for _ in range(30):
        n = rng.randint(2, 5)
        digits = [rng.randrange(3) for _ in range(n * (n - 1) // 2)]
        g = EdgeBicoloredGraph.from_digits(n, digits)
        key = canonical_key(g)
        perm = list(range(1, n + 1))
        rng.shuffle(perm)
        assert canonical_key(permute_graph(g, perm)) == key
        assert canonical_key(color_swap(g)) == key
        assert canonical_key(color_swap(g), include_swap=False) == canonical_key(
            color_swap(g), include_swap=False)


def test_canonical_key_size_guard():
    g = EdgeBicoloredGraph.from_edges(8)
    with pytest.raises(UnsupportedSizeError):
        canonical_key(g)


def test_three_vertex_key_count_with_swap():
    keys = {canonical_key(EdgeBicoloredGraph.from_digits(3, d))
            for d in itertools.product((0, 1, 2), repeat=3)}
    assert len(keys) == 6


@pytest.mark.parametrize("n,include_swap,expected", [
    (2, True, 2), (2, False, 3), (3, True, 6), (4, True, 36),
])
def test_class_counts(n, include_swap, expected):
    classes = enumerate_classes(n, include_swap=include_swap)
    assert len(classes) == expected
    assert len(classes) == burnside_class_count(n, include_swap)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_classes_partition_all_colorings(n):
    classes = enumerate_classes(n)
    assert sum(c.labeled_count for c in classes) == 3 ** (n * (n - 1) // 2)
    for c in classes:
        assert canonical_key(c.representative) == c.canonical_key
    keys = [c.canonical_key for c in classes]
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)


def test_census_size_guard():
    with pytest.raises(UnsupportedSizeError):
        enumerate_classes(6)


def test_directed_graph_validation():
    with pytest.raises(ValueError):
        DirectedGraph.from_arcs(3, [(1, 1)])
    with pytest.raises(ValueError):
        DirectedGraph.from_arcs(3, [(1, 4)])
    with pytest.raises(ValueError):
        DirectedGraph.from_arcs(3, [(1, 2), (1, 2)])
    g = DirectedGraph.from_arcs(3, [(1, 2), (2, 1)])
    assert g.has_arc(1, 2) and g.has_arc(2, 1) and not g.has_arc(1, 3)


def test_digits_roundtrip():
    rng = random.Random(3)
    for _ in range(20):
        n = rng.randint(1, 6)
        digits = tuple(rng.randrange(3) for _ in range(n * (n - 1) // 2))
        g = EdgeBicoloredGraph.from_digits(n, digits)
        assert g.digits() == digits
        assert g.edge_balance() == (sum(1 for c in digits if c == PLUS)
                                    - sum(1 for c in digits if c == MINUS))
