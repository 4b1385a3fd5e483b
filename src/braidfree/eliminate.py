"""Bicolor-eliminability decided two independent ways.

The ordering route looks for a vertex ranking that avoids the two forbidden
triple patterns below; the structural route checks chordality of both
one-colored graphs, eliminability of every 4-vertex induced subgraph (a
lookup in a 729-entry table built from the ordering route on first use), and
the absence of the two induced obstruction shapes (mountains and hills).
``structural_check`` is the one structural routine: it decides the verdict
by reading the conditions cheapest first and stopping at the first that
fails, and finds any other witness on first read.  ``is_eliminable`` runs
both routes and is the one place their agreement is asserted.  A
disagreement is an internal bug, not a mathematical outcome.

Forbidden patterns for a triple (i, j, k) with k ranked above i and j, for a
color s in {Plus, Minus}:

  (1)  {i,k} and {j,k} both have color s but {i,j} does not;
  (2)  {k,i} has color s, {i,j} has the opposite color, {k,j} is absent.

Both patterns read only the edges inside a triple, so a valid ordering
restricts to a valid ordering of every induced subgraph.  Hence when a
vertex set has an ordering, removing any vertex that may take its top rank
leaves a set that still has one, and the ordering search needs no
backtracking: ``_peel`` puts the smallest eligible vertex on top and
repeats.  Perfect elimination orderings of chordal graphs are hereditary in
the same way, so the same peel decides chordality.
"""

from __future__ import annotations

import functools
import itertools

from ._record import record
from .graphs import ABSENT, MINUS, PLUS, SWAPPED, EdgeBicoloredGraph, _slot


def _inverse(perm) -> tuple[tuple[int, ...], tuple[int, ...]]:
    perm = tuple(perm)
    if sorted(perm) != list(range(1, len(perm) + 1)):
        raise ValueError("an ordering must be a permutation of 1..n")
    inverse = [0] * len(perm)
    for i, p in enumerate(perm, start=1):
        inverse[p - 1] = i
    return perm, tuple(inverse)


@record(frozen=True)
class Ordering:
    """A bijection from vertices 1..n to ranks 1..n.

    ``ranks[v-1]`` is the rank of vertex v; ``by_rank[r-1]`` is the vertex of
    rank r.
    """

    ranks: tuple[int, ...]
    by_rank: tuple[int, ...]

    def __post_init__(self):
        if _inverse(self.ranks)[1] != tuple(self.by_rank):
            raise ValueError("ranks and by_rank are inconsistent")

    @classmethod
    def from_ranks(cls, ranks) -> "Ordering":
        return cls(*_inverse(ranks))

    @classmethod
    def from_by_rank(cls, by_rank) -> "Ordering":
        by_rank, ranks = _inverse(by_rank)
        return cls(ranks, by_rank)

    @classmethod
    def identity(cls, n: int) -> "Ordering":
        seq = tuple(range(1, n + 1))
        return cls(seq, seq)

    @property
    def n(self) -> int:
        return len(self.ranks)

    def rank_of(self, v: int) -> int:
        return self.ranks[v - 1]

    def vertex_at(self, r: int) -> int:
        return self.by_rank[r - 1]


def _clique(adj_s, v: int, members: int) -> bool:
    """True iff v's neighbors of one color s among the ``members`` mask form
    an s-clique (``adj_s`` is ``g.adjacency[s]``): pattern (1) with v on top,
    and equally, v is simplicial in the s-colored graph."""
    nb = adj_s[v] & members
    while nb:
        low = nb & -nb
        nb ^= low
        if nb & ~adj_s[low.bit_length() - 1]:
            return False
    return True


def _sink_ok(adj, v: int, members: int) -> bool:
    """May v take the top rank among the ``members`` mask (v's own bit is
    ignored)?  Only edges inside a triple matter, so this does not depend on
    how the rest is ranked."""
    if not (_clique(adj[PLUS], v, members) and _clique(adj[MINUS], v, members)):
        return False
    # pattern (2): no s-neighbor i of v has an opposite-color neighbor that
    # is absent from v
    absent = adj[ABSENT][v] & members
    for s in (PLUS, MINUS):
        nb = adj[s][v] & members
        opposite = adj[SWAPPED[s]]
        while nb:
            low = nb & -nb
            nb ^= low
            if opposite[low.bit_length() - 1] & absent:
                return False
    return True


def _peel(n: int, ok):
    """Rank vertices 1..n from the top down, greedily: while more than two
    remain, the smallest v with ``ok(v, remaining)`` takes the top rank
    (vertex v is bit v of the mask); the last two take ranks 1 and 2 in
    vertex order.  Returns ``by_rank``, or None once no vertex is eligible.
    """
    remaining = (1 << (n + 1)) - 2
    top = []
    for _ in range(n - 2):
        rest = remaining
        while rest:
            low = rest & -rest
            if ok(low.bit_length() - 1, remaining):
                break
            rest ^= low
        else:
            return None
        remaining ^= low
        top.append(low.bit_length() - 1)
    return (*(v for v in range(1, n + 1) if remaining >> v & 1), *reversed(top))


def is_valid_ordering(g: EdgeBicoloredGraph, nu: Ordering) -> bool:
    """True iff no triple with its top-ranked vertex matches pattern (1) or (2)."""
    if nu.n != g.n:
        raise ValueError("ordering size does not match the graph")
    adj = g.adjacency
    lower = 0
    for v in nu.by_rank:
        if not _sink_ok(adj, v, lower):
            return False
        lower |= 1 << v
    return True


def find_ordering(g: EdgeBicoloredGraph):
    """Some bicolor-elimination ordering of g, or None (by ``_peel``, which
    is exact because eliminability is hereditary)."""
    by_rank = _peel(g.n, functools.partial(_sink_ok, g.adjacency))
    return None if by_rank is None else Ordering.from_by_rank(by_rank)


def iter_valid_orderings(g: EdgeBicoloredGraph):
    """All bicolor-elimination orderings of g (exhaustive; use for small n)."""
    for perm in itertools.permutations(range(1, g.n + 1)):
        nu = Ordering.from_by_rank(perm)
        if is_valid_ordering(g, nu):
            yield nu


def tilde_degrees(g: EdgeBicoloredGraph, nu: Ordering) -> tuple[int, ...]:
    """Signed degree of each vertex toward the lower-ranked vertices, by rank.

    Entry r-1 counts Plus edges minus Minus edges from the rank-r vertex to
    vertices of smaller rank.  Only meaningful along elimination orderings,
    so an invalid ordering is rejected.
    """
    if not is_valid_ordering(g, nu):
        raise ValueError("not a bicolor-elimination ordering for this graph")
    plus, minus = g.adjacency[PLUS], g.adjacency[MINUS]
    lower = 0
    degs = []
    for v in nu.by_rank:
        degs.append((plus[v] & lower).bit_count() - (minus[v] & lower).bit_count())
        lower |= 1 << v
    return tuple(degs)


@record(frozen=True)
class Filtration:
    """An edge-by-edge build-up of a graph through valid intermediate stages.

    ``steps[0]`` is edgeless, ``steps[-1]`` is the full graph, consecutive
    steps differ by exactly one edge, every step admits the shared ordering,
    and the additions proceed block by block: all edges incident to the
    rank-r vertex (toward lower ranks) are added before any edge of a higher
    block.
    """

    steps: tuple[EdgeBicoloredGraph, ...]
    added_edges: tuple[tuple[tuple[int, int], int], ...]
    ordering: Ordering


def complete_filtration(g: EdgeBicoloredGraph, nu: Ordering) -> Filtration:
    """Build a complete filtration by reversing maximal-edge deletions.

    Repeatedly take the highest-ranked vertex l with edges to lower ranks;
    among its lower neighbors with the precedence  i < j  when {i,j} and
    {i,l} share a color while {j,l} has the other one, delete the edge {j,l}
    for a maximal j (ties broken toward the largest vertex index, so the
    reversed additions list each block smallest partner first).  The edges
    among l's lower neighbors are never deleted before l's block, so the
    precedence reads the input's adjacency masks, with l's remaining lower
    neighbors kept as one mask.  Every intermediate stage is checked against
    the ordering; a failure there is an internal bug.
    """
    if not is_valid_ordering(g, nu):
        raise ValueError("not a bicolor-elimination ordering for this graph")
    n, mat, adj = g.n, g.mat, g.adjacency
    by = nu.by_rank
    lower = sum(1 << v for v in by)
    deletions = []
    for l in reversed(by[1:]):
        lower ^= 1 << l
        row = mat[l]
        left = (adj[PLUS][l] | adj[MINUS][l]) & lower   # l's remaining lower neighbors
        while left:
            # j is maximal unless some remaining i has {j,i} colored like
            # {j,l} while {i,l} carries the other color; the precedence is a
            # partial order on the neighbors, so maximal elements always exist
            # under a valid ordering
            j = next((j for j in range(n, 0, -1) if left >> j & 1
                      and not adj[row[j]][j] & adj[SWAPPED[row[j]]][l] & left), 0)
            if not j:
                raise AssertionError("edge-deletion precedence has no maximal element")
            deletions.append(((min(j, l), max(j, l)), row[j]))
            left ^= 1 << j
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


def is_chordal_one_color(g: EdgeBicoloredGraph, color: int) -> bool:
    """Chordality of the one-colored graph (V, E^color): a graph is chordal
    iff ``_peel`` can remove simplicial vertices down to two."""
    return _peel(g.n, functools.partial(_clique, g.adjacency[color])) is not None


@functools.cache
def _quadruple_table() -> bytes:
    """Eliminability of every 4-vertex coloring, indexed by the base-3 code of
    its digits (slot 0 most significant); built on first use."""
    return bytes(find_ordering(EdgeBicoloredGraph.from_digits(4, digits)) is not None
                 for digits in itertools.product((ABSENT, PLUS, MINUS), repeat=6))


def find_bad_quadruple(g: EdgeBicoloredGraph):
    """The first 4-vertex subset, in ``combinations`` order, whose induced
    subgraph admits no ordering, or None."""
    mat = g.mat
    for a, b, c, d in itertools.combinations(g.vertices(), 4):
        ra, rb = mat[a], mat[b]
        code = ((((ra[b] * 3 + ra[c]) * 3 + ra[d]) * 3 + rb[c]) * 3 + rb[d]) * 3 + mat[c][d]
        if not _quadruple_table()[code]:
            return a, b, c, d
    return None


@record(frozen=True)
class MountainWitness:
    sigma: int                    # spoke color; the ridge path has the other color
    path: tuple[int, ...]
    omega: int


@record(frozen=True)
class HillWitness:
    sigma: int
    path: tuple[int, ...]
    omega1: int
    omega2: int


def _ridge_path(adj, ridge: int, hubs: int, starts: int, interior: int, ends: int,
                shortest: int):
    """The first induced path, in vertex order, of ``ridge`` edges off the
    ``hubs`` mask (masks and ``adj`` as in ``EdgeBicoloredGraph.adjacency``):
    it starts in ``starts``, runs through ``interior`` and stops at a vertex
    of ``ends`` once ``shortest`` vertices precede it."""
    if not starts:
        return None
    absent = adj[ABSENT]
    ridge_adj = adj[ridge]

    def extend(path, used):
        last = path[-1]
        earlier = used ^ hubs ^ 1 << last
        cand = ridge_adj[last] & ~used & (interior | ends if len(path) >= shortest else interior)
        while cand:
            low = cand & -cand
            cand ^= low
            u = low.bit_length() - 1
            # u may touch no earlier path vertex except its predecessor
            if earlier & ~absent[u]:
                continue
            if low & ends:
                return (*path, u)
            found = extend((*path, u), used | low)
            if found is not None:
                return found
        return None

    while starts:
        low = starts & -starts
        starts ^= low
        found = extend((low.bit_length() - 1,), hubs | low)
        if found is not None:
            return found
    return None


def find_mountain(g: EdgeBicoloredGraph):
    """Search for an induced mountain: a path v_1..v_m (m >= 3) in one color
    with a hub joined by the other color to the interior vertices only; every
    remaining pair among the chosen vertices must be absent."""
    adj = g.adjacency
    for sigma in (PLUS, MINUS):
        for omega in g.vertices():
            ends = adj[ABSENT][omega]
            path = _ridge_path(adj, SWAPPED[sigma], 1 << omega, ends, adj[sigma][omega], ends, 2)
            if path is not None:
                return MountainWitness(sigma, path, omega)
    return None


def find_hill(g: EdgeBicoloredGraph):
    """Search for an induced hill: a path v_1..v_m (m >= 2) in one color with
    two hubs joined to each other and to overlapping path prefixes/suffixes in
    the other color; remaining pairs absent.

    Only hub pairs omega1 < omega2 are tried.  A hill for (omega2, omega1) is
    the reversed path of a hill for (omega1, omega2), a pair that comes
    first in the order of all ordered pairs, so the first ordered pair with
    a hill has omega1 < omega2 and the witness is the one the search over
    ordered pairs finds."""
    adj = g.adjacency
    for sigma in (PLUS, MINUS):
        for omega1, omega2 in itertools.combinations(g.vertices(), 2):
            spokes = adj[sigma][omega1]
            if not spokes >> omega2 & 1:
                continue
            beside2 = adj[sigma][omega2]
            path = _ridge_path(adj, SWAPPED[sigma], 1 << omega1 | 1 << omega2,
                               spokes & adj[ABSENT][omega2], spokes & beside2,
                               adj[ABSENT][omega1] & beside2, 1)
            if path is not None:
                return HillWitness(sigma, path, omega1, omega2)
    return None


class _found_once:
    """A condition found on its first read and kept in the instance
    ``__dict__``, where later reads find it before this descriptor.  It is
    ``functools.cached_property`` without the lock that Python 3.11's takes
    on every first read."""

    def __init__(self, find):
        self.find = find
        self.__doc__ = find.__doc__

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, report, owner=None):
        if report is None:
            return self
        value = report.__dict__[self.name] = self.find(report)
        return value


@record(frozen=True)
class StructuralReport:
    """The three structural conditions of one graph, with explicit witnesses.

    Each condition is found by its finder on first read and then kept, so a
    caller that needs only the verdict pays only for the conditions
    ``passes`` reads.  Every finder is deterministic and independent of the
    others, so a witness is the same whenever it is read.
    """

    graph: EdgeBicoloredGraph

    @_found_once
    def chordal_plus(self) -> bool:
        return is_chordal_one_color(self.graph, PLUS)

    @_found_once
    def chordal_minus(self) -> bool:
        return is_chordal_one_color(self.graph, MINUS)

    @_found_once
    def bad_quadruple(self) -> tuple | None:
        return find_bad_quadruple(self.graph)

    @_found_once
    def mountain(self) -> MountainWitness | None:
        return find_mountain(self.graph)

    @_found_once
    def hill(self) -> HillWitness | None:
        return find_hill(self.graph)

    @property
    def passes(self) -> bool:
        """The conjunction of the conditions, read cheapest first and stopping
        at the first that fails."""
        return (self.bad_quadruple is None
                and self.chordal_plus and self.chordal_minus
                and self.mountain is None and self.hill is None)


def structural_check(g: EdgeBicoloredGraph) -> StructuralReport:
    """The structural report of g with its verdict decided; witnesses of
    conditions the verdict did not need are found on first read."""
    report = StructuralReport(g)
    report.passes  # decide the verdict inside this call
    return report


def structurally_eliminable(g: EdgeBicoloredGraph) -> bool:
    """The structural verdict alone."""
    return structural_check(g).passes


@record(frozen=True)
class EliminabilityResult:
    eliminable: bool
    ordering: Ordering | None
    structural: StructuralReport


def is_eliminable(g: EdgeBicoloredGraph) -> EliminabilityResult:
    """Decide eliminability by both routes and insist they agree."""
    nu = find_ordering(g)
    report = structural_check(g)
    if (nu is not None) != report.passes:
        raise AssertionError(
            "ordering search and structural characterization disagree on "
            f"{g.digits()}; this is a bug")
    return EliminabilityResult(nu is not None, nu, report)
