"""Independent references the benchmark checks braidfree's answers against.

Written from the definitions, sharing no code with the package: the two
forbidden triple patterns of bicolor elimination, the scope conditions of the
classification theorem, the arc conditions (A1)/(A2) of a braid deformation,
its cone and its restriction to infinity.  Graphs are plain colour matrices
``g[i][j]`` on vertices 1..n with the colours below.
"""

from __future__ import annotations

import itertools

ABSENT, PLUS, MINUS = 0, 1, 2
OPPOSITE = {PLUS: MINUS, MINUS: PLUS}


def empty_graph(n: int) -> list[list[int]]:
    return [[ABSENT] * (n + 1) for _ in range(n + 1)]


def set_color(g, i: int, j: int, c: int) -> None:
    g[i][j] = g[j][i] = c


def graph_obj(g) -> dict:
    """The graph in braidfree's input-file format."""
    n = len(g) - 1
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    return {"vertices": n,
            "plus": [[i, j] for i, j in pairs if g[i][j] == PLUS],
            "minus": [[i, j] for i, j in pairs if g[i][j] == MINUS]}


def bad_triple(g, i: int, j: int, k: int) -> bool:
    """Does the triple match a forbidden pattern with k ranked above i and j?

    (1) {i,k} and {j,k} both have colour s but {i,j} does not;
    (2) {k,i} has colour s, {i,j} the opposite colour and {k,j} is absent.
    """
    for s in (PLUS, MINUS):
        if g[i][k] == s and g[j][k] == s and g[i][j] != s:
            return True
        for a, b in ((i, j), (j, i)):
            if g[a][k] == s and g[a][b] == OPPOSITE[s] and g[b][k] == ABSENT:
                return True
    return False


def may_top(g, v: int, below) -> bool:
    return not any(bad_triple(g, i, j, v) for i, j in itertools.combinations(below, 2))


def valid_ordering(g, by_rank) -> bool:
    """``by_rank[r]`` is the vertex of rank r+1."""
    return all(may_top(g, by_rank[r], by_rank[:r]) for r in range(2, len(by_rank)))


def elimination_ordering(g):
    """Some elimination ordering (vertices by rank), or None: exhaustive over
    vertex subsets, choosing the top vertex of each."""
    n = len(g) - 1
    memo: dict = {}

    def order(members: tuple):
        if len(members) <= 2:
            return list(members)
        if members not in memo:
            memo[members] = None
            for v in members:
                below = tuple(u for u in members if u != v)
                if may_top(g, v, below):
                    rest = order(below)
                    if rest is not None:
                        memo[members] = rest + [v]
                        break
        return memo[members]

    return order(tuple(range(1, n + 1)))


def random_eliminable(rng, n: int):
    """A random eliminable graph, built vertex by vertex so that each new
    vertex may take the top rank, then relabelled at random."""
    g = empty_graph(n)
    set_color(g, 1, 2, rng.randrange(3))
    for k in range(3, n + 1):
        while True:
            for i in range(1, k):
                set_color(g, i, k, rng.randrange(3))
            if may_top(g, k, range(1, k)):
                break
    return relabel(g, rng)


def random_non_eliminable(rng, n: int):
    """A random colouring with a chordless one-coloured 4-cycle planted on
    four random vertices.  Every vertex of such a cycle has two same-coloured
    neighbours joined by no edge of that colour, so no vertex of the four can
    take the top rank among them, and no ordering of the whole graph exists."""
    g = empty_graph(n)
    for i, j in itertools.combinations(range(1, n + 1), 2):
        set_color(g, i, j, rng.randrange(3))
    a, b, c, d = rng.sample(range(1, n + 1), 4)
    s = rng.choice((PLUS, MINUS))
    for u, v in ((a, b), (b, c), (c, d), (d, a)):
        set_color(g, u, v, s)
    for u, v in ((a, c), (b, d)):
        set_color(g, u, v, rng.choice((ABSENT, OPPOSITE[s])))
    return g


def relabel(g, rng):
    n = len(g) - 1
    perm = [0] + rng.sample(range(1, n + 1), n)
    h = empty_graph(n)
    for i, j in itertools.combinations(range(1, n + 1), 2):
        set_color(h, perm[i], perm[j], g[i][j])
    return h


def multiplicity(k: int, shifts, g, i: int, j: int) -> int:
    weight = {PLUS: 1, MINUS: -1, ABSENT: 0}[g[i][j]]
    return 2 * k + shifts[i - 1] + shifts[j - 1] + weight


def theorem_scope(k: int, shifts, g) -> bool:
    """k > 0, or no Minus edges, or no Plus edges with every multiplicity positive."""
    n = len(g) - 1
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    colors = {g[i][j] for i, j in pairs}
    if k > 0 or MINUS not in colors:
        return True
    return PLUS not in colors and all(multiplicity(k, shifts, g, i, j) > 0 for i, j in pairs)


def multiplicity_sum(k: int, shifts, g) -> int:
    n = len(g) - 1
    ms = (multiplicity(k, shifts, g, i, j) for i, j in itertools.combinations(range(1, n + 1), 2))
    return sum(m for m in ms if m > 0)


def e2(exponents) -> int:
    return sum(a * b for a, b in itertools.combinations(exponents, 2))


# --- braid deformations ------------------------------------------------------

def arc_conditions(n: int, arcs) -> tuple[bool, bool]:
    """(A1): an arc (i,j) forces (i,h) or (h,j); (A2): arcs (i,h) and (h,j)
    force (i,j); both over all i, j < h with i != j."""
    arcs = set(map(tuple, arcs))
    a1 = a2 = True
    for h in range(1, n + 1):
        for i, j in itertools.permutations(range(1, h), 2):
            if (i, j) in arcs and (i, h) not in arcs and (h, j) not in arcs:
                a1 = False
            if (i, h) in arcs and (h, j) in arcs and (i, j) not in arcs:
                a2 = False
    return a1, a2


def restriction_graph(n: int, arcs):
    """The restriction to infinity: Plus for two arcs, Absent for one, Minus
    for none (taken at level k+1 with zero shifts)."""
    arcs = set(map(tuple, arcs))
    g = empty_graph(n)
    for i, j in itertools.combinations(range(1, n + 1), 2):
        count = ((i, j) in arcs) + ((j, i) in arcs)
        set_color(g, i, j, (MINUS, ABSENT, PLUS)[count])
    return g


def realize_digraph(rng, g):
    """A digraph whose restriction graph is g: two arcs on Plus pairs, one
    arc of random direction on Absent pairs, none on Minus pairs."""
    n = len(g) - 1
    arcs = []
    for i, j in itertools.combinations(range(1, n + 1), 2):
        if g[i][j] == PLUS:
            arcs += [[i, j], [j, i]]
        elif g[i][j] == ABSENT:
            arcs.append([i, j] if rng.random() < 0.5 else [j, i])
    return sorted(arcs)


def threshold_digraph(rng, n: int):
    """Arcs (i, j) for every j above a random threshold t_i >= i.  Out-arcs
    of i form an up-set and no arc points down, so (A1) and (A2) hold."""
    arcs = []
    for i in range(1, n + 1):
        t = rng.randint(i, n)
        arcs += [[i, j] for j in range(t + 1, n + 1)]
    return arcs


def cone_obj(n: int, arcs, k: int) -> dict:
    """The coned deformation as an arrangement file: x_i - x_j - c z = 0 for
    the constants -k - e(i,j), -k..k, k + e(j,i) of each pair i < j, and z = 0."""
    arcs = set(map(tuple, arcs))
    hyps = []
    for i, j in itertools.combinations(range(1, n + 1), 2):
        consts = set(range(-k, k + 1)) | {-k - ((i, j) in arcs), k + ((j, i) in arcs)}
        for c in sorted(consts):
            normal = [0] * (n + 1)
            normal[i - 1], normal[j - 1], normal[n] = 1, -1, -c
            hyps.append({"normal": normal, "mult": 1})
    hyps.append({"normal": [0] * n + [1], "mult": 1})
    return {"dim": n + 1, "hyperplanes": hyps}
