"""Edge-bicolored and directed graphs: construction, induced subgraphs,
canonical forms and exhaustive census of small graphs.

Vertices are 1-based throughout.  A coloring is total: every unordered pair
{i,j} carries exactly one of Absent/Plus/Minus, so "no edge" is a first-class
value and pattern checks are direct lookups.

A graph's color matrix and bitmask ``adjacency`` are built by one private
builder, ``EdgeBicoloredGraph._from_valid_digits``, from the graph's digit
string (its upper-triangle codes in row-major order); the builder checks
nothing.  Each entry point checks its input once, in the form it arrives:
``EdgeBicoloredGraph(n, mat)`` checks the matrix (shape, zero diagonal,
symmetry and codes), then keeps the builder's matrix and masks for its digits;
``from_edges`` checks each edge (range, self-loop, duplicate) and hands its
digits to ``from_digits``, which checks n, the digit count and the codes.
A graph derived from a valid one (``induced_subgraph``, ``permute_graph``,
``color_swap``, the representatives of ``enumerate_classes`` and each step
of ``eliminate.complete_filtration``) has valid digits by construction and
goes to the builder directly.  A pair's place in the digit string comes
from one formula, ``_slot``: the builder's row getters, the relabeling slot
maps of ``canonical_key`` and ``enumerate_classes``, ``from_edges`` and the
filtration steps all read it.

Canonical keys are computed by brute-force minimisation over all vertex
relabelings, optionally composed with the global Plus/Minus swap; this is
exact and fast enough at desk scale (the largest exhaustive census is on 5
vertices).
"""

from __future__ import annotations

import functools
import itertools
from operator import itemgetter

from ._record import field, record

# edge color codes
ABSENT, PLUS, MINUS = 0, 1, 2

# color involution: Plus <-> Minus, Absent fixed
SWAPPED = (ABSENT, MINUS, PLUS)
_CODES = frozenset((ABSENT, PLUS, MINUS))
_CODE_TYPES = frozenset((int,))   # 1.0 and True equal 1, but are not codes

MAX_CANONICAL_VERTICES = 7   # brute-force minimum over n! relabelings
MAX_CENSUS_VERTICES = 5      # exhaustive census over 3^C(n,2) colorings


class UnsupportedSizeError(ValueError):
    """Input exceeds the exhaustive-search limits of this toolkit."""


@functools.cache
def pair_list(n: int) -> tuple[tuple[int, int], ...]:
    """Unordered pairs {i,j}, 1 <= i < j <= n, in row-major upper-triangle
    order (one shared tuple per n)."""
    return tuple((i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1))


def _slot(n: int, i: int, j: int) -> int:
    """The index of the pair (i, j), 1 <= i < j <= n, in ``pair_list(n)``
    (a float vertex gives a float, which no list takes as an index)."""
    return (i - 1) * (2 * n - i) // 2 + j - i - 1


@functools.cache
def _digit_plan(n: int):
    """How a digit string becomes a graph on n vertices: one getter per
    matrix row that reads entry (i, j) off the digits at ``_slot`` of the
    pair, and the padding and the diagonal off one extra ABSENT after the
    digits; and per pair (i, j) the bits 1 << i and 1 << j."""
    pairs = pair_list(n)
    rows = tuple(itemgetter(*(_slot(n, i, j) if 0 < i < j else _slot(n, j, i) if 0 < j < i
                              else len(pairs) for j in range(n + 1)))
                 for i in range(n + 1))
    return rows, tuple((i, j, 1 << i, 1 << j) for i, j in pairs)


@record(frozen=True)
class EdgeBicoloredGraph:
    """A graph on vertices 1..n whose edges split into Plus and Minus classes.

    ``mat[i][j]`` holds the color code of the pair {i,j} (row and column 0 are
    ABSENT padding); the tuple matrix is symmetric with zero diagonal.  Bit u of
    ``adjacency[c][v]`` is set when u != v and the pair {v,u} has color code
    c (index 0 of each row is unused); it is derived from ``mat``, so it
    takes no part in equality, hashing or ``repr``.
    """

    n: int
    mat: tuple[tuple[int, ...], ...]
    adjacency: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n, mat = self.n, self.mat
        if n < 1:
            raise ValueError("vertex count must be positive")
        if len(mat) != n + 1 or any(len(row) != n + 1 for row in mat):
            raise ValueError("color matrix has wrong shape")
        for i in range(1, n + 1):
            row = mat[i]
            if row[i] != ABSENT:
                raise ValueError("self-loops are not allowed")
            for j in range(i + 1, n + 1):
                c = row[j]
                if c != mat[j][i]:
                    raise ValueError("color matrix must be symmetric")
                if type(c) is not int or c not in _CODES:
                    raise ValueError("unknown edge color code")
        built = self._from_valid_digits(n, self.digits())
        object.__setattr__(self, "mat", built.mat)
        object.__setattr__(self, "adjacency", built.adjacency)

    @classmethod
    def _from_valid_digits(cls, n: int, digits: tuple) -> "EdgeBicoloredGraph":
        """The graph of a digit string, its matrix rows and masks built in one
        pass: the only builder of both.  Nothing is checked; the caller
        guarantees n >= 1 and C(n,2) valid codes."""
        rows, bits = _digit_plan(n)
        padded = (*digits, ABSENT)
        masks = [[0] * (n + 1) for _ in range(3)]
        for (i, j, bit_i, bit_j), c in zip(bits, digits):
            color = masks[c]
            color[i] |= bit_j
            color[j] |= bit_i
        g = object.__new__(cls)
        g.__dict__.update(n=n, mat=tuple([row(padded) for row in rows]),
                          adjacency=tuple(map(tuple, masks)))
        return g

    @classmethod
    def from_edges(cls, n: int, plus=(), minus=()) -> "EdgeBicoloredGraph":
        m = max(n, 0)   # on n <= 0 an edge is refused first, then n itself
        digits = [ABSENT] * (m * (m - 1) // 2)
        for color, edges in ((PLUS, plus), (MINUS, minus)):
            for i, j in edges:
                if not (1 <= i <= n and 1 <= j <= n) or i == j:
                    raise ValueError(f"bad edge ({i},{j}) on {n} vertices")
                i, j = min(i, j), max(i, j)
                t = _slot(n, i, j)
                if digits[t] != ABSENT:
                    raise ValueError(f"duplicate edge {(i, j)}")
                digits[t] = color
        return cls.from_digits(n, digits)

    @classmethod
    def from_digits(cls, n: int, digits) -> "EdgeBicoloredGraph":
        """Build from the upper-triangle color codes in row-major order.

        Only n, the number of digits and the codes are checked: a matrix
        built from them is valid by construction."""
        if n < 1:
            raise ValueError("vertex count must be positive")
        digits = tuple(digits)
        if len(digits) != len(pair_list(n)):
            raise ValueError("digit string length does not match C(n,2)")
        try:
            valid = _CODES.issuperset(digits) and _CODE_TYPES.issuperset(map(type, digits))
        except TypeError:   # an unhashable code
            valid = False
        if not valid:
            raise ValueError("unknown edge color code")
        return cls._from_valid_digits(n, digits)

    def digits(self) -> tuple[int, ...]:
        """Upper-triangle color codes in row-major order (the key serialization)."""
        return tuple(self.mat[i][j] for i, j in pair_list(self.n))

    def vertices(self) -> range:
        return range(1, self.n + 1)

    def edges(self, color: int) -> list[tuple[int, int]]:
        return [(i, j) for i, j in pair_list(self.n) if self.mat[i][j] == color]

    def plus_edges(self) -> list[tuple[int, int]]:
        return self.edges(PLUS)

    def minus_edges(self) -> list[tuple[int, int]]:
        return self.edges(MINUS)

    def edge_balance(self) -> int:
        """|E^+| - |E^-|."""
        d = self.digits()
        return sum(1 for c in d if c == PLUS) - sum(1 for c in d if c == MINUS)


def induced_subgraph(g: EdgeBicoloredGraph, subset) -> EdgeBicoloredGraph:
    """Induced subgraph on ``subset``, relabeled order-preservingly to 1..|subset|."""
    vs = sorted(set(subset))
    if not vs:
        raise ValueError("vertex subset must be nonempty")
    if vs[0] < 1 or vs[-1] > g.n:
        raise ValueError("vertex out of range")
    m = len(vs)
    vs = (0, *vs)   # vs[a] is the vertex relabeled a
    mat = g.mat
    return EdgeBicoloredGraph._from_valid_digits(
        m, tuple(mat[vs[a]][vs[b]] for a, b in pair_list(m)))


def color_swap(g: EdgeBicoloredGraph) -> EdgeBicoloredGraph:
    """Exchange Plus and Minus on every edge (an involution)."""
    return EdgeBicoloredGraph._from_valid_digits(g.n, tuple([SWAPPED[c] for c in g.digits()]))


def permute_graph(g: EdgeBicoloredGraph, perm) -> EdgeBicoloredGraph:
    """Relabel vertices: the image graph colors {perm[i],perm[j]} as g colors {i,j}.

    ``perm`` maps 1..n to 1..n (a sequence of length n, or n+1 with a dummy
    leading entry).
    """
    if len(perm) == g.n:
        perm = (0, *perm)
    if sorted(perm[1:]) != list(g.vertices()):
        raise ValueError("not a permutation of the vertices")
    source = [0] * (g.n + 1)    # source[perm[i]] = i
    for i in g.vertices():
        source[perm[i]] = i
    mat = g.mat
    return EdgeBicoloredGraph._from_valid_digits(
        g.n, tuple(mat[source[p]][source[q]] for p, q in pair_list(g.n)))


@functools.cache
def _pair_slot_maps(n: int) -> tuple[tuple[int, ...], ...]:
    """For every vertex permutation, the induced permutation of pair slots.

    Slot t of the image equals slot map[t] of the source, i.e. applying
    ``image[m[t]] = digits[t]`` realizes permute_graph on digit strings.
    """
    pairs = pair_list(n)
    return tuple(tuple([_slot(n, a, b) if a < b else _slot(n, b, a)
                        for a, b in [(perm[i - 1], perm[j - 1]) for i, j in pairs]])
                 for perm in itertools.permutations(range(1, n + 1)))


def _orbit(digits, maps, include_swap: bool) -> set:
    """Every image of a digit string under the slot maps, composed with the
    color swap when ``include_swap``.

    The maps form a group, so reading ``var[m[t]]`` (the image under the
    inverse relabeling) sweeps out the same set as writing ``img[m[t]]``.
    """
    variants = [digits, tuple(SWAPPED[c] for c in digits)] if include_swap else [digits]
    return {tuple([var[i] for i in m]) for m in maps for var in variants}


def canonical_key(g: EdgeBicoloredGraph, include_swap: bool = True) -> bytes:
    """Minimum serialization over all relabelings (and the color swap if set).

    Equal keys characterize isomorphism up to relabeling (composed with the
    global swap when ``include_swap``).
    """
    if g.n > MAX_CANONICAL_VERTICES:
        raise UnsupportedSizeError(
            f"canonicalization supports at most {MAX_CANONICAL_VERTICES} vertices")
    return bytes([g.n]) + bytes(min(_orbit(g.digits(), _pair_slot_maps(g.n), include_swap)))


@record(frozen=True)
class GraphClass:
    """One isomorphism(+swap) class: canonical key, a representative whose own
    key equals it, and the number of labeled colorings in the class."""

    canonical_key: bytes
    representative: EdgeBicoloredGraph
    labeled_count: int


def enumerate_classes(n: int, include_swap: bool = True) -> list[GraphClass]:
    """All coloring classes on n vertices, exhaustively, sorted by canonical key.

    The labeled counts partition the 3^C(n,2) colorings exactly.
    """
    if not 1 <= n <= MAX_CENSUS_VERTICES:
        raise UnsupportedSizeError(
            f"exhaustive census supports 1..{MAX_CENSUS_VERTICES} vertices")
    nslots = n * (n - 1) // 2
    maps = _pair_slot_maps(n)
    # a digit tuple's code is the tuple read as a base-3 numeral, slot 0 the
    # most significant digit, so the enumeration index below *is* the code.
    # An orbit member's code is parsed in C: translating its bytes 0, 1, 2 to
    # the characters "0", "1", "2" gives the numeral for int(..., 3), and on
    # n = 1, with no slots, the empty numeral reads as "0"
    numeral = b"012" + bytes(253)
    seen = bytearray(3 ** nslots)
    classes = []
    for code, digits in enumerate(itertools.product((0, 1, 2), repeat=nslots)):
        if seen[code]:
            continue
        orbit = _orbit(digits, maps, include_swap)
        best = min(orbit)
        for member in orbit:
            seen[int(bytes(member).translate(numeral) or b"0", 3)] = 1
        classes.append(GraphClass(
            canonical_key=bytes([n]) + bytes(best),
            representative=EdgeBicoloredGraph._from_valid_digits(n, best),
            labeled_count=len(orbit)))
    classes.sort(key=lambda c: c.canonical_key)
    return classes


@record(frozen=True)
class DirectedGraph:
    """A loop-free directed graph on vertices 1..n; (i,j) and (j,i) may coexist."""

    n: int
    arcs: frozenset

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("vertex count must be positive")
        for i, j in self.arcs:
            if i == j:
                raise ValueError("loops are not allowed")
            if not (1 <= i <= self.n and 1 <= j <= self.n):
                raise ValueError(f"arc ({i},{j}) out of range")

    @classmethod
    def from_arcs(cls, n: int, arcs) -> "DirectedGraph":
        arcs = [tuple(a) for a in arcs]
        if len(arcs) != len(set(arcs)):
            raise ValueError("duplicate arcs")
        return cls(n, frozenset(arcs))

    def has_arc(self, i: int, j: int) -> bool:
        return (i, j) in self.arcs
