"""Ground-truth freeness engine for central multiarrangements.

For a central arrangement with multiplicities, the degree-d layer of the
module of derivations theta with theta(alpha_H) divisible by alpha_H^m(H) is
an exact linear-algebra problem: write theta(alpha_H) in coordinates whose
first variable is alpha_H itself, and every monomial coefficient with
alpha-exponent below m(H) must vanish.  The substitution table behind this
(``_expansion``) expands each power of the pivot variable once per
hyperplane and degree, and every monomial with that pivot power reuses the
terms, shifted by the rest of the monomial.  Every check reads these tables
the same way, on the flat coefficient vector of a derivation: ``_assemble``
builds the constraint rows from them, and ``_is_member`` evaluates the same
rows on one vector without building them.  All constraints are assembled
over the integers and solved by fraction-free elimination, so dimensions,
generator counts, and determinant tests are certificates rather than
numerical estimates.

Internally a non-essential arrangement is reduced to its essential rank: the
derivation module splits as (essential module tensored with the center
polynomials) plus a free summand of center directions, which turns sweeps
over braid-type arrangements from minutes into milliseconds.  The essential
coordinates are the pivot columns of one echelon table of the normals,
chosen so that the heaviest hyperplanes become coordinate hyperplanes (a
braid spec is read in y_t = x_t - x_v, with v its vertex of largest incident
multiplicity; ``_essential_form`` states the rule).  The essential normal of
H is its restriction to those columns (braid normals x_i - x_j stay
two-term), and the center directions are the table's kernel vectors.  The
Saito test of a candidate basis lifts nothing: at one seeded integer point p
it evaluates the essential generators at y = B p (the rows b_t of B are the
essential coordinate forms), places the values at the pivot columns and adds
the center vectors, and ranks those rows.  A Free certificate keeps its
essential basis; its ambient generators are lifted by an integer
substitution when first read, each component in one pass that multiplies
its terms by the linear forms b_t.  All reported tables, generators and
Saito checks are in the original ambient coordinates, and the whole path is
integer arithmetic.

One per-degree scan computes every graded piece: ``graded_dimension``,
``minimal_generators`` and ``freeness_verdict`` all read its tables.  At
each degree it spans the products of the earlier generators.  The new
generators are the layer's elements that vanish on that span's pivot
columns, and a coordinate hyperplane y_i = 0 of multiplicity m forces every
coefficient of y^mu d/dy_i with mu_i < m to vanish too: those are the
columns that its own ``_expansion`` table gives a nonempty entry.  These
"dead" columns are left out before the rows of the other hyperplanes are
assembled, and the rows are eliminated once on the live columns that
remain: every kernel vector is a new generator, the same as eliminating the
whole system would give, and each is checked against every hyperplane (see
``_scan_degree``).
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, combinations
from math import comb, gcd, lcm
from operator import mul

from ._record import field, record
from .graphs import UnsupportedSizeError
from .linalg import ReducedSpan, primitive

FREE = "Free"
NONFREE = "NonFree"
INCONCLUSIVE = "Inconclusive"

MAX_AMBIENT_DIM = 5
_MAX_UNKNOWNS = 120_000   # guard on dim * #monomials before each degree's scan


@record(frozen=True)
class MultiArrangement:
    """A central multiarrangement: primitive integer normals with positive
    multiplicities, pairwise non-proportional."""

    dim: int
    hyperplanes: tuple[tuple[tuple[int, ...], int], ...]

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("ambient dimension must be positive")
        seen = set()
        for normal, mult in self.hyperplanes:
            if len(normal) != self.dim:
                raise ValueError("normal length does not match the dimension")
            if not any(normal):
                raise ValueError("zero normal vector")
            if mult < 1:
                raise ValueError("multiplicities must be positive")
            key = tuple(primitive(normal))
            if key in seen:
                raise ValueError(f"proportional normals: {normal}")
            seen.add(key)

    @classmethod
    def build(cls, dim: int, items) -> "MultiArrangement":
        """Normalize (normal, multiplicity) pairs; rational normals are scaled
        to primitive integer vectors."""
        hyps = []
        for normal, mult in items:
            vec = [Fraction(x) for x in normal]
            hyps.append((tuple(primitive(vec)), int(mult)))
        return cls(dim, tuple(hyps))

    @property
    def multiplicity_sum(self) -> int:
        return sum(m for _, m in self.hyperplanes)


@record(frozen=True)
class DerivationElement:
    """A homogeneous derivation sum_i f_i d/dx_i with integer coefficients;
    ``components[i]`` maps exponent tuples to the coefficient of x^exp in f_i."""

    degree: int
    components: tuple

    def evaluate(self, point) -> tuple:
        """The coefficient vector (f_1(p), ..., f_n(p)) at a point of ints or
        Fractions."""
        out = []
        for comp in self.components:
            total = 0
            for exp, coeff in comp.items():
                term = coeff
                for x, e in zip(point, exp):
                    if e:
                        term *= x ** e
                total += term
            out.append(total)
        return tuple(out)


@record
class FreenessCertificate:
    """Outcome of a freeness computation with everything needed to audit it.

    A Free certificate keeps its basis in essential coordinates
    (``essential_form`` and ``essential_generators``); ``generators`` lifts
    it to the ambient coordinates on first read and keeps the result.
    """

    status: str
    ambient_dim: int
    multiplicity_sum: int
    generator_degrees: tuple[int, ...]
    dimension_table: dict
    new_generator_table: dict
    saito_point: tuple | None
    seed: int
    budget: int
    note: str | None = None
    essential_form: _EssentialForm | None = field(default=None, repr=False)
    essential_generators: tuple | None = field(default=None, repr=False)
    _generators = None   # the lifted basis, once ``generators`` is read

    @property
    def generators(self) -> tuple | None:
        """The certified basis in ambient coordinates (None unless Free)."""
        form = self.essential_form
        if self._generators is None and form is not None:
            self._generators = tuple(
                _center_elements(form)
                + _lift_elements(self.essential_generators, form, self.ambient_dim))
        return self._generators


# ---------------------------------------------------------------------------
# monomials and constraint assembly

@lru_cache(maxsize=None)
def monomials(nvars: int, d: int) -> tuple:
    """All exponent tuples of total degree d, in a fixed deterministic order."""
    if d < 0:
        return ()
    if nvars == 0:
        return ((),) if d == 0 else ()
    if nvars == 1:
        return ((d,),)
    out = []
    for first in range(d, -1, -1):
        for rest in monomials(nvars - 1, d - first):
            out.append((first, *rest))
    return tuple(out)


@lru_cache(maxsize=None)
def monomial_index(nvars: int, d: int) -> dict:
    return {mu: t for t, mu in enumerate(monomials(nvars, d))}


def _mono_count(nvars: int, d: int) -> int:
    if d < 0:
        return 0
    if nvars == 0:
        return 1 if d == 0 else 0
    return comb(d + nvars - 1, nvars - 1)


@lru_cache(maxsize=None)
def _expansion(normal: tuple, d: int, cap: int):
    """Substitution table for one hyperplane at one degree.

    In coordinates whose first variable is the defining form alpha (the rest
    being the non-pivot x's), every x-monomial of degree d expands into
    y-monomials; only those with alpha-exponent below ``cap`` are kept, these
    being exactly the coefficients that divisibility by alpha^cap forces to
    zero.  Returns (row_count, entries) where entries[t] lists (row, coeff)
    for the t-th x-monomial.  Rows are numbered in order of first appearance
    and scaled by pivot^d so entries stay integral for any integer normal.

    With pivot coordinate x_p = (alpha - sum_{q != p} a_q x_q) / a_p, the
    monomial x^mu expands as a_p^-mu_p times the multinomial expansion of
    x_p^mu_p, shifted by the rest of mu.  So the terms, each an
    alpha-exponent r0, a tail increment and a coefficient already scaled by
    a_p^(d - mu_p), are built once per pivot power mu_p, and only for the
    powers some monomial has.  A row (r0, tail) is keyed by one integer, its
    digits in radix d + 1, so the key of a term of x^mu is the key of mu's
    tail plus the term's increment.  With no other variable in the support
    (a coordinate hyperplane) the only term of x^mu is r0 = mu_p, so each
    x^mu with mu_p < cap is its own row, with coefficient a_p^(d - mu_p),
    and the table is written down directly.
    """
    nv = len(normal)
    pivot = min((i for i, a in enumerate(normal) if a), key=lambda i: abs(normal[i]))
    apiv = normal[pivot]
    radix = d + 1
    weight = [0] * nv       # the place value of each non-pivot exponent
    for q, i in enumerate(i for i in range(nv) if i != pivot):
        weight[i] = radix ** q
    top = radix ** (nv - 1)  # the place value of r0
    support = [(weight[i], -a) for i, a in enumerate(normal) if a and i != pivot]
    if not support:
        entries, rows = [], 0
        for mu in monomials(nv, d):
            kept = mu[pivot] < cap
            entries.append(((rows, apiv ** (d - mu[pivot])),) if kept else ())
            rows += kept
        return rows, tuple(entries)

    def power_terms(mp: int) -> list:
        scale = apiv ** (d - mp)
        terms = []
        for r0 in range(min(mp, cap - 1) + 1):
            rest = mp - r0
            head = comb(mp, r0) * scale
            # ascending lexicographic order: it fixes the row numbering
            for comp in reversed(monomials(len(support), rest)):
                coeff = head
                left = rest
                inc = r0 * top
                for (w, a), s in zip(support, comp):
                    if s:
                        coeff *= comb(left, s) * a ** s
                        left -= s
                        inc += s * w
                terms.append((inc, coeff))
        return terms

    powers: dict = {}
    row_index: dict = {}
    row_of = row_index.setdefault
    entries = []
    for mu in monomials(nv, d):
        mp = mu[pivot]
        terms = powers.get(mp)
        if terms is None:
            terms = powers[mp] = power_terms(mp)
        base = sum(map(mul, mu, weight))
        entries.append(tuple([(row_of(base + inc, len(row_index)), c) for inc, c in terms]))
    return len(row_index), tuple(entries)


def _assemble(hyperplanes, nv: int, d: int, live=None):
    """Sparse constraint rows ``{column: int}`` of the given hyperplanes over
    the unknown coefficient vector of a degree-d derivation in ``nv``
    variables (columns are coordinate-major: column i*M + t is the t-th
    monomial of the i-th component).  Given ``live``, an increasing list of
    columns, every other column is left out, column ``live[k]`` becomes
    column k, and rows left empty are dropped; returns the rows and their
    column count."""
    M = _mono_count(nv, d)
    columns = range(nv * M) if live is None else live
    rows: list[dict] = []
    for normal, mult in hyperplanes:
        nrows, entries = _expansion(normal, d, min(mult, d + 1))
        block: list[dict] = [{} for _ in range(nrows)]
        for k, c in enumerate(columns):
            ai = normal[c // M]
            if ai:
                for row, coeff in entries[c % M]:
                    block[row][k] = ai * coeff
        rows.extend(filter(None, block))
    return rows, len(columns)


def _is_member(a: MultiArrangement, vec: dict, d: int) -> bool:
    """True iff alpha_H^m(H) divides theta(alpha_H) for every hyperplane H,
    theta the degree-d derivation with sparse coefficient vector ``vec``:
    every constraint row of ``_assemble`` evaluated on ``vec``, the same
    table entries summed into one accumulator per row instead of built."""
    M = _mono_count(a.dim, d)
    for normal, mult in a.hyperplanes:
        nrows, entries = _expansion(normal, d, min(mult, d + 1))
        acc = [0] * nrows
        for c, v in vec.items():
            ai = normal[c // M]
            if ai:
                for row, coeff in entries[c % M]:
                    acc[row] += ai * coeff * v
        if any(acc):
            return False
    return True


# ---------------------------------------------------------------------------
# polynomial helpers (sparse exponent-tuple dicts)

def _poly_mul(p: dict, q: dict) -> dict:
    out: dict = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            key = tuple(a + b for a, b in zip(e1, e2))
            v = out.get(key, 0) + c1 * c2
            if v:
                out[key] = v
            elif key in out:
                del out[key]
    return out


def _element_from_flat(vec: dict, nv: int, d: int) -> DerivationElement:
    """The derivation whose sparse coefficient vector is ``vec``."""
    monos = monomials(nv, d)
    M = len(monos)
    comps: list[dict] = [{} for _ in range(nv)]
    for col in sorted(vec):
        i, t = divmod(col, M)
        comps[i][monos[t]] = vec[col]
    return DerivationElement(d, tuple(comps))


def _flat_shifted(el: DerivationElement, mu: tuple, nv: int, d: int) -> dict:
    """Sparse coefficient vector of x^mu * el at degree d."""
    idx = monomial_index(nv, d)
    M = len(idx)
    vec = {}
    for i, comp in enumerate(el.components):
        off = i * M
        for exp, c in comp.items():
            vec[off + idx[tuple(a + b for a, b in zip(exp, mu))]] = c
    return vec


def coordinate_derivations(n: int) -> list[DerivationElement]:
    one = (0,) * n
    return [DerivationElement(0, tuple({one: 1} if i == j else {} for j in range(n)))
            for i in range(n)]


# ---------------------------------------------------------------------------
# essentialization

@record(frozen=True)
class _EssentialForm:
    ess: MultiArrangement | None   # None when there are no hyperplanes
    pivots: tuple      # the essential coordinates' columns p_1 < ... < p_r
    forms: tuple       # integer rows b_t, y_t = b_t . x; D * normal = sum_t normal[p_t] * b_t
    center: tuple      # kernel vectors k_c of the normals, one per free column c


def _essential_form(a: MultiArrangement) -> _EssentialForm:
    """Essential coordinates read off one echelon table of the normals.

    With r the rank of the normals, the essential coordinates' columns P
    are, among the r-column sets on which the normals have rank r, the one
    of highest score, the smallest in lexicographic order on a tie.  The
    score of P is the total multiplicity of the hyperplanes whose normal has
    exactly one nonzero entry on P: the heaviest hyperplanes become
    coordinate hyperplanes, and the degree scan leaves their columns out as
    dead; for a braid spec the center of the coordinates is the vertex of
    largest incident multiplicity.  The candidates are taken in that order,
    and each is tested by eliminating the normals once with its columns
    ordered first: the normals have rank r on P exactly when the table's
    pivots are the positions 0..r-1, and the first such table is kept, so
    its pivot columns are P.  Restriction to P is injective on the span of
    the normals, so H has essential normal primitive(normal restricted to
    P).  The kernel vector k_c of a free column c is supported on {c} and P;
    with D = lcm |k_c[c]| (``scale``), the integer forms b_t = D e_{p_t} -
    sum_c (D k_c[p_t] / k_c[c]) e_c are orthogonal to every k_c and so span
    the normals.

    Nothing else depends on which basis P is.  The form b_s is D at p_s and
    0 at the other columns of P, so the lift of sum_t g_t d/dy_t, which puts
    g_t(B x) at column p_t, sends each y_s = b_s . x to D g_s(B x): it is a
    member exactly when the essential derivation is, and its coefficient
    row at a point p is a nonzero multiple of the row ``_essential_saito``
    ranks.
    """
    n = a.dim
    normals = [normal for normal, _ in a.hyperplanes]
    r = ReducedSpan(n, normals).rank

    def score(cols):
        return sum(mult for normal, mult in a.hyperplanes
                   if sum(1 for c in cols if normal[c]) == 1)

    for _, pivots in sorted((-score(cols), cols) for cols in combinations(range(n), r)):
        free = [c for c in range(n) if c not in pivots]
        order = [*pivots, *free]
        span = ReducedSpan(n, ([normal[c] for c in order] for normal in normals))
        if max(span.pivots, default=-1) < r:
            break
    else:
        raise AssertionError("the normals have rank r on no r columns")
    center = tuple(tuple(k.get(order.index(i), 0) for i in range(n)) for k in span.kernel())
    scale = lcm(*(abs(k[c]) for k, c in zip(center, free)))
    forms = []
    for p in pivots:
        b = [0] * n
        b[p] = scale
        for k, c in zip(center, free):
            b[c] = -(scale // k[c]) * k[p]
        forms.append(tuple(b))
    ess_hyps = []
    for normal, mult in a.hyperplanes:
        coeffs = [normal[p] for p in pivots]
        combo = [sum(x * b[i] for x, b in zip(coeffs, forms)) for i in range(n)]
        if combo != [scale * x for x in normal]:
            raise AssertionError("normal not in the span of the pivot forms")
        ess_hyps.append((tuple(primitive(coeffs)), mult))
    ess = MultiArrangement(len(pivots), tuple(ess_hyps)) if pivots else None
    return _EssentialForm(ess, pivots, tuple(forms), center)


def _compose(poly: dict, forms: tuple, ambient: int) -> dict:
    """The polynomial poly(y) under y_t = b_t . x, as a polynomial in x: each
    term is multiplied by its linear forms one at a time."""
    linear = [{tuple(int(i == j) for j in range(ambient)): c for i, c in enumerate(b) if c}
              for b in forms]
    out: dict = {}
    for exp, coeff in poly.items():
        term = {(0,) * ambient: coeff}
        for lin, e in zip(linear, exp):
            for _ in range(e):
                term = _poly_mul(term, lin)
        for key, v in term.items():
            out[key] = out.get(key, 0) + v
    return {key: v for key, v in out.items() if v}


def _lift_elements(elements, form: _EssentialForm, ambient: int):
    """Express essential-coordinate derivations in the ambient coordinates.

    With y = B x for the forms b_t, the derivation sum_t g_t d/dy_t lifts, up
    to the factor D, to sum_t g_t(B x) d/dx_{p_t}; the other components are
    0.  Each lifted element is divided by its content.
    """
    lifted = []
    for el in elements:
        comps: list[dict] = [{} for _ in range(ambient)]
        for g, p in zip(el.components, form.pivots):
            comps[p] = _compose(g, form.forms, ambient)
        content = gcd(*(v for comp in comps for v in comp.values()))
        if content > 1:
            comps = [{e: v // content for e, v in comp.items()} for comp in comps]
        lifted.append(DerivationElement(el.degree, tuple(comps)))
    return lifted


def _center_elements(form: _EssentialForm):
    """The center directions k_c as constant derivations."""
    return [DerivationElement(0, tuple({(0,) * len(k): x} if x else {} for x in k))
            for k in form.center]


# ---------------------------------------------------------------------------
# generator scan: the one place where graded pieces are computed

def _lifted_dimension_table(ess_dims: dict, center: int, ambient: int) -> dict:
    """dim D_d of the ambient module: the center directions, ``center``
    times the degree-d monomial count in ``ambient`` variables, plus the
    convolution of ``ess_dims`` with the monomial counts m_c of the
    ``center`` center variables.  By Pascal's rule m_c(k) = m_c(k-1) +
    m_{c-1}(k), so that convolution is ``ess_dims`` prefix-summed ``center``
    times, in O(budget * center) additions."""
    dims = [ess_dims[d] for d in range(len(ess_dims))]
    for _ in range(center):
        dims = list(accumulate(dims))
    return {d: center * _mono_count(ambient, d) + v for d, v in enumerate(dims)}


def _scan_degree(ess: MultiArrangement, d: int, gens: list):
    """One degree of the minimal-generator scan; appends new generators.

    Every product x^mu * g of an earlier generator goes into the product
    span P first.  Let W be the coordinate subspace of the columns that are
    not pivots of P.  A nonzero element of P is nonzero at some pivot
    column, so P and W intersect in 0; as P lies in the layer D_d, the layer
    is the direct sum of P and the intersection of D_d with W, and
    dim D_d = rank P + dim of that intersection.  Its equations are the
    constraint rows and one unit row on each pivot column of P.

    Some constraint rows are unit rows too: for a coordinate hyperplane
    y_i = 0 of multiplicity m, theta(y_i) = theta_i, and y_i^m divides it
    exactly when every column (i, mu) with mu_i < min(m, d + 1) is zero, one
    row per column; these are the columns (i, t) whose entry in the
    hyperplane's ``_expansion`` table is nonempty, and they are read off it.
    Call the columns of all these unit rows dead and the rest live.  Every
    other row is its part on the dead columns, a combination of unit rows,
    plus its part on the live columns, so the row space is the span of the
    dead unit vectors plus the span of the live parts.  Hence the pivot
    columns are the dead columns plus the pivots of the live parts, the free
    columns are live, and the kernel vectors are those of the live parts,
    extended by zero.  So only the live parts of the other hyperplanes' rows
    are assembled, on the live columns numbered in increasing order, and
    eliminated once: as the numbering keeps the column order, the pivots
    and the primitive kernel vectors (lead positive at the lowest column)
    are those of the full system, and there are len(live) - rank of them.
    Each is a new generator.  Its coefficient vector is checked against
    every hyperplane, the coordinate ones included, which evaluates every
    constraint row of the full system without building them
    (``_is_member``), and it must raise the rank of P.
    """
    nv = ess.dim
    M = _mono_count(nv, d)
    if nv * M > _MAX_UNKNOWNS:
        raise UnsupportedSizeError("degree exceeds the desk-scale budget")
    span = ReducedSpan(nv * M)
    for gen in gens:
        for mu in monomials(nv, d - gen.degree):
            span.insert(_flat_shifted(gen, mu, nv, d))
    dead = set(span.pivots)
    others = []
    for normal, mult in ess.hyperplanes:
        if normal.count(0) == nv - 1:   # y_i = 0
            off = M * next(filter(normal.__getitem__, range(nv)))
            entries = _expansion(normal, d, min(mult, d + 1))[1]
            dead.update(off + t for t, terms in enumerate(entries) if terms)
        else:
            others.append((normal, mult))
    live = [c for c in range(nv * M) if c not in dead]
    table = ReducedSpan(len(live), _assemble(others, nv, d, live)[0])
    for vec in table.kernel():
        vec = {live[c]: v for c, v in vec.items()}
        if not _is_member(ess, vec, d):
            raise AssertionError("a new generator is not a member of the module")
        if not span.insert(vec):
            raise AssertionError("a new generator lies in the product span")
        gens.append(_element_from_flat(vec, nv, d))
    return span.rank, len(live) - table.rank


def _random_point(a: MultiArrangement, rng: random.Random):
    for _ in range(500):
        pt = tuple(rng.randint(-19, 19) for _ in range(a.dim))
        if all(sum(c * x for c, x in zip(normal, pt)) for normal, _ in a.hyperplanes):
            return pt
    raise AssertionError("could not sample a point off the arrangement")


def _essential_saito(a: MultiArrangement, form: _EssentialForm, gens, seed: int):
    """(nonzero?, evaluation point) for the coefficient determinant of the
    lifted basis, computed without lifting it.

    For members of the module whose degrees sum to the multiplicity sum, the
    determinant is c times the product of the defining forms to their
    multiplicities (Saito 1980; Ziegler 1989), so at one seeded point p off
    the arrangement the coefficient rows have full rank exactly when c is
    nonzero.  The lift of an essential generator has g_t(B x) / content at
    the pivot column p_t and 0 elsewhere, so its row at p is a nonzero
    multiple of the generator's values at y = B p placed at the pivot
    columns; the center directions k_c are constant.  ``saito_check`` ranks
    the lifted rows at the same point, with the same outcome.
    """
    pt = _random_point(a, random.Random(seed))
    y = [sum(map(mul, b, pt)) for b in form.forms]
    rows = [{p: v for p, v in zip(form.pivots, gen.evaluate(y)) if v} for gen in gens]
    rows.extend(form.center)
    return ReducedSpan(a.dim, rows).rank == a.dim, pt


def saito_check(a: MultiArrangement, gens, seed: int = 0) -> bool:
    """Certify that ``gens`` form a basis of the derivation module.

    Requires exactly ambient-dim elements, each with ambient-dim components
    keyed by exponent tuples of ambient-dim non-negative ints, re-verifies
    membership and the degree-sum identity, then tests the coefficient
    determinant.  Given membership and the degree sum, a non-vanishing
    determinant forces the determinant to be a constant multiple of the
    product of the defining forms to their multiplicities, which is Saito's
    criterion.
    """
    n = a.dim
    gens = list(gens)
    if len(gens) != n:
        raise ValueError("need exactly ambient-dim derivations")
    for gen in gens:
        if len(gen.components) != n:
            raise ValueError("a derivation needs exactly ambient-dim components")
        for comp in gen.components:
            for exp in comp:
                if not (isinstance(exp, tuple) and len(exp) == n
                        and all(type(e) is int and e >= 0 for e in exp) and sum(exp) == gen.degree):
                    raise ValueError("exponents must be tuples of ambient-dim non-negative ints "
                                     "summing to the stated degree")
        if not _is_member(a, _flat_shifted(gen, (0,) * n, n, gen.degree), gen.degree):
            raise ValueError("derivation is not a member of the module")
    if sum(g.degree for g in gens) != a.multiplicity_sum:
        raise ValueError("generator degrees do not sum to the multiplicity sum")
    pt = _random_point(a, random.Random(seed))
    return ReducedSpan(n, [gen.evaluate(pt) for gen in gens]).rank == n


def graded_dimension(a: MultiArrangement, d: int) -> int:
    """Dimension of the degree-d layer of the logarithmic derivation module,
    read off the generator scan up to degree d."""
    return minimal_generators(a, budget=d).dimension_table[d]


def minimal_generators(a: MultiArrangement, budget: int | None = None) -> FreenessCertificate:
    """Minimal-generator table of the derivation module up to ``budget``.

    The scan runs the full budget (default: the multiplicity sum).  Counting
    alone can prove non-freeness; freeness certification is the job of
    ``freeness_verdict``.
    """
    return _run(a, budget, seed=0, want_verdict=False)


def freeness_verdict(a: MultiArrangement, budget: int | None = None,
                     seed: int = 0) -> FreenessCertificate:
    """Free / NonFree / Inconclusive with a full audit trail.

    Free requires exactly ambient-dim minimal generators whose degrees sum to
    the multiplicity sum and which pass the Saito determinant test; NonFree
    is proved by generator counting (more than ambient-dim generators, or the
    right number with the wrong degree sum).  Anything undecided within the
    budget is reported Inconclusive, never guessed.
    """
    return _run(a, budget, seed, want_verdict=True)


def _run(a: MultiArrangement, budget: int | None, seed: int,
         want_verdict: bool) -> FreenessCertificate:
    if a.dim > MAX_AMBIENT_DIM:
        raise UnsupportedSizeError(f"ambient dimension capped at {MAX_AMBIENT_DIM}")
    n = a.dim
    msum = a.multiplicity_sum
    if budget is None:
        budget = msum
    if budget < 0:
        raise ValueError("degree budget must be non-negative")
    form = _essential_form(a)
    if not a.hyperplanes:
        top = 0 if want_verdict else budget    # a verdict stops where certified
        return FreenessCertificate(
            status=FREE, ambient_dim=n, multiplicity_sum=0,
            generator_degrees=(0,) * n,
            dimension_table={d: n * _mono_count(n, d) for d in range(top + 1)},
            new_generator_table={0: n}, saito_point=(1,) * n,
            seed=seed, budget=budget,
            essential_form=form, essential_generators=())

    center = len(form.center)
    ess_dims: dict = {}
    new_table: dict = {}
    gens: list[DerivationElement] = []
    count = center
    degsum = 0
    status = INCONCLUSIVE
    note = None
    saito_point = None
    for d in range(budget + 1):
        dim_d, n_new = _scan_degree(form.ess, d, gens)
        ess_dims[d] = dim_d
        new_table[d] = n_new + (center if d == 0 else 0)
        count += n_new
        degsum += n_new * d
        if not want_verdict:
            continue
        if count > n:
            break
        # count first reaches n in a degree that found generators, and any
        # later generator takes it past n, so each candidate is tested once
        if count == n and n_new:
            if degsum > msum:
                break
            if degsum == msum:
                ok, saito_point = _essential_saito(a, form, gens, seed)
                if ok:
                    status = FREE
                    break
                # a candidate with vanishing determinant cannot be a basis;
                # keep scanning for the extra generators that must exist
                note = "candidate basis failed the determinant test"
    if status is INCONCLUSIVE:
        if count > n:
            status = NONFREE
            note = "more than ambient-dim minimal generators"
        elif count == n and degsum != msum:
            # exactly n minimal generators in total would force freeness,
            # whose exponents must sum to the multiplicity sum; a mismatch
            # proves further generators exist beyond what was scanned
            status = NONFREE
            note = "generator degrees cannot sum to the multiplicity sum"
        else:
            note = note or f"undecided within degree budget {budget}"

    degrees = tuple(sorted([0] * center + [g.degree for g in gens]))
    dim_table = _lifted_dimension_table(ess_dims, center, n)
    free = status == FREE
    if free:
        for d, dim_d in dim_table.items():
            expect = sum(_mono_count(n, d - e) for e in degrees)
            if dim_d != expect:
                raise AssertionError("free module dimensions break the Hilbert series")
    return FreenessCertificate(
        status=status, ambient_dim=n, multiplicity_sum=msum,
        generator_degrees=degrees, dimension_table=dim_table,
        new_generator_table=new_table,
        saito_point=saito_point if free else None,
        seed=seed, budget=budget, note=note,
        essential_form=form if free else None,
        essential_generators=tuple(gens) if free else None)
