"""Multiplicities on the braid arrangement built from edge-bicolored graphs.

A spec (k, n_1..n_{l+1}, G) puts multiplicity 2k + n_i + n_j + c on the
hyperplane x_i = x_j, where c is +1/-1/0 as {i,j} is a Plus edge, a Minus
edge, or absent.  Within the proven scope (k positive, or no Minus edges, or
no Plus edges with all multiplicities positive) freeness is equivalent to
bicolor-eliminability of G, with exponents 0 and B + d_r for r = 2..l+1,
where B is the common offset (l+1)k + sum n_i and d_r the tilde-degrees
along any elimination ordering.

Hyperplanes receiving multiplicity 0 are dropped; the derivation module does
not see them.  Negative multiplicities (possible only outside the theorem
scope) make the module undefined and are rejected when an arrangement is
requested.
"""

from __future__ import annotations

import itertools

from ._record import record
from .eliminate import (Ordering, StructuralReport, is_eliminable,
                        tilde_degrees)
from .graphs import (MINUS, PLUS, EdgeBicoloredGraph, UnsupportedSizeError,
                     color_swap, induced_subgraph, pair_list)
from .oracle import FREE, NONFREE, MultiArrangement, rank2_oracle_exponents

OUT_OF_SCOPE = "OutOfTheoremScope"

_EDGE_WEIGHT = {PLUS: 1, MINUS: -1}


@record(frozen=True)
class MultiBraidSpec:
    """(k, n_1..n_{l+1}, G): the multiplicity 2k + n_i + n_j + w({i,j}) on
    each hyperplane x_i = x_j of the braid arrangement."""

    k: int
    n: tuple[int, ...]
    graph: EdgeBicoloredGraph

    def __post_init__(self):
        if self.k < 0:
            raise ValueError("k must be non-negative")
        if len(self.n) != self.graph.n:
            raise ValueError("one shift per vertex is required")
        if any(x < 0 for x in self.n):
            raise ValueError("vertex shifts must be non-negative")

    @property
    def vertex_count(self) -> int:
        return self.graph.n

    @property
    def exponent_offset(self) -> int:
        """The common offset added to every tilde-degree in the exponent
        formula: (l+1)k + sum of the vertex shifts."""
        return self.vertex_count * self.k + sum(self.n)

    def multiplicity(self, i: int, j: int) -> int:
        return (2 * self.k + self.n[i - 1] + self.n[j - 1]
                + _EDGE_WEIGHT.get(self.graph.mat[i][j], 0))

    def multiplicities(self) -> dict:
        return {(i, j): self.multiplicity(i, j)
                for i, j in pair_list(self.vertex_count)}

    @property
    def multiplicity_sum(self) -> int:
        """Total multiplicity, counting only the hyperplanes actually present."""
        return sum(m for m in self.multiplicities().values() if m > 0)


@record(frozen=True)
class Verdict:
    """Classification outcome for one spec."""

    status: str                       # Free | NonFree | OutOfTheoremScope
    condition: str | None             # which scope condition held: a / b / c
    exponents: tuple[int, ...] | None
    ordering: Ordering | None
    tilde: tuple[int, ...] | None
    structural: StructuralReport      # the graph's report, on every verdict


def theorem_scope(spec: MultiBraidSpec) -> str | None:
    """The first scope condition the spec satisfies, or None."""
    if spec.k > 0:
        return "a"
    if not spec.graph.minus_edges():
        return "b"
    if not spec.graph.plus_edges() and all(m > 0 for m in spec.multiplicities().values()):
        return "c"
    return None


def classify(spec: MultiBraidSpec) -> Verdict:
    """Free with explicit exponents iff the graph is bicolor-eliminable;
    NonFree with a structural witness otherwise; OutOfTheoremScope when no
    scope condition holds (no claim is made there).  Every verdict carries
    the graph's structural report."""
    result = is_eliminable(spec.graph)
    cond = theorem_scope(spec)
    if cond is None:
        return Verdict(OUT_OF_SCOPE, None, None, None, None, result.structural)
    if result.eliminable:
        degs = tilde_degrees(spec.graph, result.ordering)
        off = spec.exponent_offset
        exps = tuple(sorted([0] + [off + d for d in degs[1:]]))
        return Verdict(FREE, cond, exps, result.ordering, degs, result.structural)
    return Verdict(NONFREE, cond, None, None, None, result.structural)


def dual_spec(spec: MultiBraidSpec) -> MultiBraidSpec:
    """The same spec with the graph's colors swapped, realizing the dual
    multiplicity 2k + n_i + n_j - w({i,j})."""
    return MultiBraidSpec(spec.k, spec.n, color_swap(spec.graph))


@record(frozen=True)
class CharPoly:
    """Root multiset of the characteristic polynomial of a free spec: one 0
    for the leading factor plus the exponent multiset (whose smallest entry
    is the 0 exponent, so 0 always appears twice)."""

    roots: tuple[int, ...]

    @classmethod
    def of(cls, verdict: Verdict) -> "CharPoly":
        """The factorization read off a Free verdict.  Refuses any other: no
        factorization is claimed for non-free multiplicities."""
        if verdict.status != FREE:
            raise ValueError(
                "characteristic polynomial factorization requires a free, in-scope spec")
        return cls(tuple(sorted((0,) + verdict.exponents)))


def char_poly(spec: MultiBraidSpec) -> CharPoly:
    """Factored characteristic polynomial of a free, in-scope spec."""
    return CharPoly.of(classify(spec))


def euler_restrict_spec(spec: MultiBraidSpec, edge) -> MultiBraidSpec:
    """Euler restriction along a filtration edge {s,j} (j < s, s the current
    block vertex): vertex s is merged into j, whose shift absorbs n_s + k,
    and the graph is replaced by its induced subgraph without s."""
    a, b = edge
    s, j = (a, b) if a > b else (b, a)
    if not (1 <= j < s <= spec.vertex_count):
        raise ValueError(f"bad restriction edge {edge}")
    if spec.multiplicity(j, s) < 1:
        raise ValueError("the restriction hyperplane is not in the arrangement")
    shifts = list(spec.n)
    shifts[j - 1] += shifts[s - 1] + spec.k
    del shifts[s - 1]
    keep = [v for v in range(1, spec.vertex_count + 1) if v != s]
    return MultiBraidSpec(spec.k, tuple(shifts), induced_subgraph(spec.graph, keep))


def euler_multiplicity(mults, m0: int) -> int:
    """Euler restriction multiplicity on a rank-2 flat.

    ``mults`` is the multiset of multiplicities of the hyperplanes through
    the flat; ``m0`` is the one on the restricting hyperplane.  The first
    applicable combinatorial case decides.  Every flat of 2 or 3 hyperplanes
    meets one: with 3, when the rules on 2*m0 and 2*m1 fail, 2*m0 < total
    and 2*m1 < total - 1, so the last rule applies.  A larger flat that no
    case covers is refused.  ``oracle.euler_restriction_degree`` finds the
    same degree from the rank-2 basis and is the tests' reference.
    """
    mults = sorted(mults, reverse=True)
    if len(mults) < 2:
        raise ValueError("a rank-2 flat carries at least two hyperplanes")
    if m0 not in mults:
        raise ValueError("m0 must be one of the flat multiplicities")
    others = list(mults)
    others.remove(m0)
    count = len(mults)
    total = sum(mults)
    m1 = max(others)
    if count == 2:
        return m1
    if 2 * m0 >= total:
        return total - m0
    if 2 * m1 >= total - 1:
        return m1
    if total <= 2 * count - 1 and m0 > 1:
        return count - 1
    if total <= 2 * count - 2 and m0 == 1:
        return total - count + 1
    if all(m == 2 for m in mults):
        return count
    if count == 3:
        return total // 2
    raise UnsupportedSizeError(
        f"no closed-form Euler multiplicity for a flat of {count} hyperplanes")


def rank2_exponents(mults) -> tuple[int, int]:
    """Exponent pair of a rank-2 flat with 2 or 3 hyperplanes.

    Two lines split as a product: (m_1, m_2).  Three lines with largest
    multiplicity m have exponents (m, total - m) when 2m >= total and
    (ceil(total/2), floor(total/2)) otherwise (A. Wakamiko, On the exponents
    of 2-multiarrangements, Tokyo J. Math. 30 (2007)); any three distinct
    lines of a plane are linearly equivalent, so only the multiplicities
    matter.  Nothing checks this at run time: ``validate_rank2_closed_form``
    compares it with the kernel oracle, which the test suite runs on every
    tuple of total at most 12; ``lmp2`` also reads larger totals.
    """
    ms = sorted(mults, reverse=True)
    if any(m < 1 for m in ms):
        raise ValueError("multiplicities must be positive")
    if len(ms) == 2:
        return ms[0], ms[1]
    if len(ms) == 3:
        total = sum(ms)
        d1 = max(ms[0], (total + 1) // 2)
        return d1, total - d1
    raise UnsupportedSizeError("rank-2 flats of braid arrangements have 2 or 3 lines")


def validate_rank2_closed_form(max_total: int = 12) -> int:
    """Compare the closed form with the graded-kernel oracle on every 2- and
    3-line multiplicity tuple with total at most ``max_total``; returns the
    number of cases, raising on any mismatch."""
    checked = 0
    for a in range(1, max_total):
        for b in range(1, max_total - a + 1):
            if rank2_exponents((a, b)) != rank2_oracle_exponents((a, b)):
                raise AssertionError(f"closed form wrong on two lines ({a},{b})")
            checked += 1
    for a in range(1, max_total - 1):
        for b in range(1, max_total - a):
            for c in range(1, max_total - a - b + 1):
                got = rank2_exponents((a, b, c))
                want = rank2_oracle_exponents((a, b, c))
                if got != want:
                    raise AssertionError(
                        f"closed form wrong on three lines ({a},{b},{c}): "
                        f"{got} vs {want}")
                checked += 1
    return checked


def lmp2(spec: MultiBraidSpec) -> int:
    """Second local mixed product: the sum over rank-2 flats of d1*d2, the
    local exponent pair; e2 of the exponents when free (Abe-Terao-Wakefield
    2007).  Any two present hyperplanes (multiplicity > 0) lie in exactly one
    rank-2 flat: a triangle x_i = x_j = x_h if they share a vertex, a
    disjoint pair otherwise.  A two-hyperplane flat gives m_p*m_q, so
    LMP2 = e2(m) - sum (ab + bc + ca - d1*d2) over the triangles whose three
    hyperplanes a, b, c are all present.
    """
    mult = spec.multiplicities()
    present = [m for m in mult.values() if m > 0]
    total = (sum(present) ** 2 - sum(m * m for m in present)) // 2
    for i, j, h in itertools.combinations(range(1, spec.vertex_count + 1), 3):
        a, b, c = mult[i, j], mult[j, h], mult[i, h]
        if a > 0 and b > 0 and c > 0:
            d1, d2 = rank2_exponents((a, b, c))
            total -= a * b + b * c + c * a - d1 * d2
    return total


def to_arrangement(spec: MultiBraidSpec) -> MultiArrangement:
    """The spec as an explicit multiarrangement (hyperplanes x_i = x_j with
    positive multiplicity).  Negative multiplicities are rejected: they do
    not define a derivation module."""
    count = spec.vertex_count
    items = []
    for (i, j), m in spec.multiplicities().items():
        if m < 0:
            raise ValueError(
                f"multiplicity {m} on pair {(i, j)}: no derivation module exists")
        if m == 0:
            continue
        normal = [0] * count
        normal[i - 1] = 1
        normal[j - 1] = -1
        items.append((tuple(normal), m))
    return MultiArrangement(count, tuple(items))
