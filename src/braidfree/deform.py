"""Deformations of the braid arrangement encoded by directed graphs.

A digraph G on vertices 1..l+1 and a level k define the affine arrangement
x_i - x_j = -k - e(i,j), -k, ..., k, k + e(j,i) (i < j), where e(i,j) is 1
exactly when the arc (i,j) is present.  Its cone (``build_and_cone``, the
only arrangement built here) adds a homogenizing coordinate and the infinity
hyperplane; restricting to infinity with hyperplane-counting multiplicities
lands back in the multi-braid setting, at level k+1 with Plus / Absent /
Minus recording two / one / zero arcs between a pair.

The verdict is three-way.  Conditions (A1)/(A2) holding proves the cone free
(this is the proven direction of Athanasiadis's conjectured
characterization); a restriction that falls outside the free classification
proves the cone non-free; anything else is reported Undetermined, never
guessed from the conjecture.
"""

from __future__ import annotations

from ._record import record
from .graphs import ABSENT, MINUS, PLUS, DirectedGraph, EdgeBicoloredGraph, pair_list
from .multibraid import FREE, NONFREE, MultiBraidSpec, Verdict, classify
from .oracle import MultiArrangement

UNDETERMINED = "Undetermined"


@record(frozen=True)
class DeformationSpec:
    digraph: DirectedGraph
    k: int

    def __post_init__(self):
        if self.k < 0:
            raise ValueError("k must be non-negative")


@record(frozen=True)
class DeformationVerdict:
    status: str                      # Free | NonFree | Undetermined
    a1: bool
    a2: bool
    witness_triple: tuple | None
    ziegler: MultiBraidSpec
    ziegler_verdict: Verdict
    note: str


def check_a1_a2(g: DirectedGraph):
    """Scan all triples i, j < h for the two local arc conditions.

    (A1): an arc (i,j) forces (i,h) or (h,j).
    (A2): arcs (i,h) and (h,j) force (i,j).
    Returns (a1, a2, first failing triple or None).
    """
    a1 = a2 = True
    witness = None
    arcs = g.arcs
    for h in range(1, g.n + 1):
        for i in range(1, h):
            for j in range(1, h):
                if i == j:
                    continue
                if a1 and (i, j) in arcs and (i, h) not in arcs and (h, j) not in arcs:
                    a1 = False
                    witness = witness or (i, j, h)
                if a2 and (i, h) in arcs and (h, j) in arcs and (i, j) not in arcs:
                    a2 = False
                    witness = witness or (i, j, h)
    return a1, a2, witness


def _constants(spec: DeformationSpec, i: int, j: int) -> range:
    """-k - e(i,j), -k, ..., k, k + e(j,i): one interval, since e is 0 or 1."""
    e_ij = 1 if spec.digraph.has_arc(i, j) else 0
    e_ji = 1 if spec.digraph.has_arc(j, i) else 0
    return range(-spec.k - e_ij, spec.k + e_ji + 1)


def build_and_cone(spec: DeformationSpec) -> MultiArrangement:
    """The cone of the deformation, in one more coordinate z.

    Each affine sheet x_i - x_j = c becomes x_i - x_j - c z = 0, pair by
    pair in ``pair_list`` order and by increasing c, and the infinity
    hyperplane z = 0 comes last.  Every hyperplane of the cone is simple
    (multiplicity 1).
    """
    n = spec.digraph.n
    if n < 2:
        raise ValueError("a deformation needs at least two vertices")
    coned = []
    for i, j in pair_list(n):
        for c in _constants(spec, i, j):
            normal = [0] * (n + 1)
            normal[i - 1], normal[j - 1], normal[n] = 1, -1, -c
            coned.append((tuple(normal), 1))
    coned.append(((0,) * n + (1,), 1))
    return MultiArrangement(n + 1, tuple(coned))


def ziegler_spec(spec: DeformationSpec) -> MultiBraidSpec:
    """The restriction to infinity with hyperplane-counting multiplicities,
    encoded as a multi-braid spec.

    The pair {i,j} receives one hyperplane per distinct constant, i.e.
    2k + 1 + e(i,j) + e(j,i); with level k+1 this is Plus for two arcs,
    Absent for one and Minus for none.
    """
    n = spec.digraph.n
    has_arc = spec.digraph.has_arc
    digits = [(MINUS, ABSENT, PLUS)[has_arc(i, j) + has_arc(j, i)] for i, j in pair_list(n)]
    return MultiBraidSpec(spec.k + 1, (0,) * n, EdgeBicoloredGraph.from_digits(n, digits))


def deformation_verdict(spec: DeformationSpec) -> DeformationVerdict:
    """Three-way verdict for the coned deformation.

    (A1) and (A2) together prove freeness.  Otherwise, if the restriction to
    infinity is non-free (its graph not bicolor-eliminable), the cone cannot
    be free either, since a free cone has a free restriction.  A failed
    (A1)/(A2) with an eliminable restriction stays Undetermined: the converse
    direction of Athanasiadis's conjecture is open.
    """
    a1, a2, witness = check_a1_a2(spec.digraph)
    z = ziegler_spec(spec)
    zv = classify(z)
    if a1 and a2:
        if zv.status != FREE:
            raise AssertionError(
                "conditions (A1)/(A2) hold but the infinity restriction is not "
                "free; this is a bug")
        status, note = FREE, "conditions (A1) and (A2) hold, so the cone is free"
    elif zv.status == NONFREE:
        status, note = NONFREE, "the restriction to infinity is non-free, so the cone is non-free"
    else:
        status, note = UNDETERMINED, (
            "conditions (A1)/(A2) fail but the restriction to infinity is free; "
            "the converse direction of Athanasiadis's conjecture is open, so no "
            "verdict is claimed")
    return DeformationVerdict(status, a1, a2, witness, z, zv, note)
