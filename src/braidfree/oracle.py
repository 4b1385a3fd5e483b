"""Ground-truth freeness engine for central multiarrangements.

For a central arrangement with multiplicities, the degree-d layer of the
module of derivations theta with theta(alpha_H) divisible by alpha_H^m(H) is
an exact linear-algebra problem: write theta(alpha_H) in coordinates whose
first variable is alpha_H itself, and every monomial coefficient with
alpha-exponent below m(H) must vanish.  All constraints are assembled over
the integers and solved by fraction-free elimination, so dimensions,
generator counts, and determinant tests are certificates rather than
numerical estimates.

Internally a non-essential arrangement is reduced to its essential rank: the
derivation module splits as (essential module tensored with the center
polynomials) plus a free summand of center directions, which turns sweeps
over braid-type arrangements from minutes into milliseconds.  All reported
tables, generators and Saito checks are in the original ambient coordinates.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, gcd
from operator import mul

from .graphs import UnsupportedSizeError
from .linalg import ReducedSpan, fraction_determinant, fraction_matrix_inverse, primitive

FREE = "Free"
NONFREE = "NonFree"
INCONCLUSIVE = "Inconclusive"

MAX_AMBIENT_DIM = 5
_MAX_UNKNOWNS = 120_000   # guard on dim * #monomials before assembling


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class DerivationElement:
    """A homogeneous derivation sum_i f_i d/dx_i with integer coefficients;
    ``components[i]`` maps exponent tuples to the coefficient of x^exp in f_i."""

    degree: int
    components: tuple

    def evaluate(self, point) -> tuple:
        """The coefficient vector (f_1(p), ..., f_n(p)) at a rational point."""
        out = []
        for comp in self.components:
            total = Fraction(0)
            for exp, coeff in comp.items():
                term = Fraction(coeff)
                for x, e in zip(point, exp):
                    if e:
                        term *= x ** e
                total += term
            out.append(total)
        return tuple(out)


@dataclass
class FreenessCertificate:
    """Outcome of a freeness computation with everything needed to audit it."""

    status: str
    ambient_dim: int
    multiplicity_sum: int
    generator_degrees: tuple[int, ...]
    dimension_table: dict
    new_generator_table: dict
    generators: tuple | None
    saito_point: tuple | None
    seed: int
    budget: int
    note: str | None = None


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


def _compositions(total: int, nparts: int):
    if nparts == 0:
        if total == 0:
            yield ()
        return
    if nparts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, nparts - 1):
            yield (first, *rest)


@lru_cache(maxsize=None)
def _expansion(normal: tuple, d: int, cap: int):
    """Substitution table for one hyperplane at one degree.

    In coordinates whose first variable is the defining form alpha (the rest
    being the non-pivot x's), every x-monomial of degree d expands into
    y-monomials; only those with alpha-exponent below ``cap`` are kept, these
    being exactly the coefficients that divisibility by alpha^cap forces to
    zero.  Returns (row_count, entries) where entries[t] lists (row, coeff)
    for the t-th x-monomial.  Rows are scaled by pivot^d so entries stay
    integral for any integer normal.
    """
    nv = len(normal)
    pivot = min((i for i, a in enumerate(normal) if a), key=lambda i: abs(normal[i]))
    apiv = normal[pivot]
    others = [i for i in range(nv) if i != pivot]
    support = [q for q, i in enumerate(others) if normal[i]]
    row_index: dict = {}
    entries = []
    for mu in monomials(nv, d):
        mp = mu[pivot]
        base = tuple(mu[i] for i in others)
        scale = apiv ** (d - mp)
        terms = []
        for r0 in range(min(mp, cap - 1) + 1):
            rest = mp - r0
            head = comb(mp, r0) * scale
            for comp in _compositions(rest, len(support)):
                coeff = head
                left = rest
                tail = list(base)
                for q, s in zip(support, comp):
                    if s:
                        coeff *= comb(left, s) * (-normal[others[q]]) ** s
                        left -= s
                        tail[q] += s
                key = (r0, tuple(tail))
                row = row_index.setdefault(key, len(row_index))
                terms.append((row, coeff))
        entries.append(tuple(terms))
    return len(row_index), tuple(entries)


def _assemble(a: MultiArrangement, d: int):
    """Sparse constraint rows ``{column: int}`` over the unknown coefficient
    vector of a degree-d derivation (columns are coordinate-major: column
    i*M + t is the t-th monomial of the i-th component)."""
    nv = a.dim
    M = _mono_count(nv, d)
    cols = nv * M
    if cols > _MAX_UNKNOWNS:
        raise UnsupportedSizeError("degree exceeds the desk-scale budget")
    rows: list[dict] = []
    for normal, mult in a.hyperplanes:
        cap = min(mult, d + 1)
        nrows, entries = _expansion(normal, d, cap)
        block: list[dict] = [{} for _ in range(nrows)]
        for i, ai in enumerate(normal):
            if not ai:
                continue
            off = i * M
            for t in range(M):
                for row, coeff in entries[t]:
                    block[row][off + t] = ai * coeff
        rows.extend(block)
    return rows, cols


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


def _poly_combine(polys, coeffs) -> dict:
    out: dict = {}
    for p, c in zip(polys, coeffs):
        if not c:
            continue
        for e, v in p.items():
            w = out.get(e, 0) + c * v
            if w:
                out[e] = w
            elif e in out:
                del out[e]
    return out


def _linear_form_power(form: tuple, k: int) -> dict:
    nv = len(form)
    base = {tuple(int(i == j) for j in range(nv)): c for i, c in enumerate(form) if c}
    if not base:
        return {} if k else {(0,) * nv: 1}
    out = {(0,) * nv: 1}
    for _ in range(k):
        out = _poly_mul(out, base)
    return out


def _poly_vanishes_mod_power(poly: dict, normal: tuple, mult: int) -> bool:
    """True iff alpha^mult divides the homogeneous polynomial (empty = yes)."""
    if not poly:
        return True
    d = sum(next(iter(poly)))
    cap = min(mult, d + 1)
    nv = len(normal)
    nrows, entries = _expansion(normal, d, cap)
    idx = monomial_index(nv, d)
    acc = [0] * nrows
    for exp, coeff in poly.items():
        for row, f in entries[idx[exp]]:
            acc[row] += coeff * f
    return not any(acc)


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

@dataclass(frozen=True)
class _EssentialForm:
    rank: int
    ess: MultiArrangement
    to_new: tuple      # Y, integer rows: y = Y x; first ``rank`` rows span the normals
    to_old: tuple      # Y^{-1} as Fraction rows: x = Y^{-1} y


@lru_cache(maxsize=None)
def _essential_form(a: MultiArrangement) -> _EssentialForm:
    n = a.dim
    span = ReducedSpan(n, (normal for normal, _ in a.hyperplanes))
    rank = span.rank
    pivots = sorted(span.pivots)
    basis = [tuple(span.pivots[p].get(c, 0) for c in range(n)) for p in pivots]
    ess_hyps = []
    for normal, mult in a.hyperplanes:
        residual = [Fraction(x) for x in normal]
        coeffs = []
        for t in range(rank):
            pc = pivots[t]
            c = residual[pc] / basis[t][pc]
            coeffs.append(c)
            if c:
                residual = [x - c * y for x, y in zip(residual, basis[t])]
        if any(residual):
            raise AssertionError("normal not in the span of the echelon basis")
        ess_hyps.append((tuple(primitive(coeffs)), mult))
    ess = MultiArrangement(rank, tuple(ess_hyps))
    pivot_set = set(pivots)
    rows = list(basis)
    for c in range(n):
        if c not in pivot_set:
            rows.append(tuple(int(i == c) for i in range(n)))
    to_new = tuple(rows)
    to_old = tuple(tuple(r) for r in fraction_matrix_inverse([list(r) for r in rows]))
    return _EssentialForm(rank, ess, to_new, to_old)


def _lift_elements(elements, form: _EssentialForm, ambient: int):
    """Express essential-coordinate derivations in the ambient coordinates.

    If y = Y x, a derivation with y-components g has x-components
    f_i = sum_t Yinv[i][t] * g_t(Y x); center directions lift to the constant
    columns of Yinv.  Each lifted element is rescaled to primitive integers.
    """
    r = form.rank
    lifted = []
    for el in elements:
        composed = []
        for t in range(r):
            poly: dict = {}
            for exp, coeff in el.components[t].items():
                term = {(0,) * ambient: coeff}
                for var, e in enumerate(exp):
                    if e:
                        term = _poly_mul(term, _linear_form_power(form.to_new[var], e))
                for key, v in term.items():
                    w = poly.get(key, 0) + v
                    if w:
                        poly[key] = w
                    elif key in poly:
                        del poly[key]
            composed.append(poly)
        comps = []
        for i in range(ambient):
            acc: dict = {}
            for t in range(r):
                c = form.to_old[i][t]
                if not c:
                    continue
                for e, v in composed[t].items():
                    w = acc.get(e, Fraction(0)) + c * v
                    if w:
                        acc[e] = w
                    elif e in acc:
                        del acc[e]
            comps.append(acc)
        lifted.append(_rescale_element(el.degree, comps, ambient))
    return lifted


def _center_elements(form: _EssentialForm, ambient: int):
    out = []
    one = (0,) * ambient
    for t in range(form.rank, ambient):
        comps = [{one: form.to_old[i][t]} if form.to_old[i][t] else {}
                 for i in range(ambient)]
        out.append(_rescale_element(0, comps, ambient))
    return out


def _rescale_element(degree: int, comps, ambient: int) -> DerivationElement:
    denom = 1
    for comp in comps:
        for v in comp.values():
            f = Fraction(v)
            denom = denom * f.denominator // gcd(denom, f.denominator)
    g = 0
    ints = []
    for comp in comps:
        scaled = {e: int(Fraction(v) * denom) for e, v in comp.items()}
        ints.append(scaled)
        for v in scaled.values():
            g = gcd(g, v)
    if g > 1:
        ints = [{e: v // g for e, v in comp.items()} for comp in ints]
    return DerivationElement(degree, tuple(dict(c) for c in ints))


# ---------------------------------------------------------------------------
# graded dimensions

@lru_cache(maxsize=None)
def _ess_graded(ess: MultiArrangement, d: int) -> int:
    rows, cols = _assemble(ess, d)
    return cols - ReducedSpan(cols, rows).rank


def graded_dimension(a: MultiArrangement, d: int) -> int:
    """Dimension of the degree-d layer of the logarithmic derivation module."""
    if d < 0:
        raise ValueError("degree must be non-negative")
    if a.dim > MAX_AMBIENT_DIM:
        raise UnsupportedSizeError(f"ambient dimension capped at {MAX_AMBIENT_DIM}")
    if a.dim * _mono_count(a.dim, d) > _MAX_UNKNOWNS:
        raise UnsupportedSizeError("degree exceeds the desk-scale budget")
    if not a.hyperplanes:
        return a.dim * _mono_count(a.dim, d)
    form = _essential_form(a)
    ess_dims = {e: _ess_graded(form.ess, e) for e in range(d + 1)}
    return _lifted_dimension_table(ess_dims, a.dim - form.rank, a.dim)[d]


def _lifted_dimension_table(ess_dims: dict, center: int, ambient: int) -> dict:
    table = {}
    for d in range(len(ess_dims)):
        total = center * _mono_count(ambient, d)
        for e in range(d + 1):
            mc = _mono_count(center, d - e)
            if mc:
                total += ess_dims[e] * mc
        table[d] = total
    return table


# ---------------------------------------------------------------------------
# generator scan

def _check_kernel_vector(rows, vec: dict, cols: int) -> None:
    """Raise unless every constraint row annihilates ``vec`` exactly."""
    dense = [0] * cols
    for c, v in vec.items():
        dense[c] = v
    for row in rows:
        if sum(map(mul, row.values(), map(dense.__getitem__, row))):
            raise AssertionError("kernel vector violates a constraint row")


def _scan_degree(ess: MultiArrangement, d: int, gens: list):
    """One degree of the minimal-generator scan; appends new generators.

    The constraint rows are eliminated once: the pivot table gives the layer
    dimension, and kernel vectors are drawn from it lazily until the span of
    products and new generators fills the layer.
    """
    nv = ess.dim
    rows, cols = _assemble(ess, d)
    table = ReducedSpan(cols, rows)
    dim_d = cols - table.rank
    span = ReducedSpan(cols)
    for gen in gens:
        for mu in monomials(nv, d - gen.degree):
            if span.rank == dim_d:
                break
            span.insert(_flat_shifted(gen, mu, nv, d))
    n_new = dim_d - span.rank
    if n_new < 0:
        raise AssertionError("product span exceeds the layer dimension")
    if n_new:
        for vec in table.kernel():
            if span.rank == dim_d:
                break
            if span.insert(vec):
                _check_kernel_vector(rows, vec, cols)
                gens.append(_element_from_flat(vec, nv, d))
        if span.rank != dim_d:
            raise AssertionError("generator extraction does not match the count")
    return dim_d, n_new


def _random_point(a: MultiArrangement, rng: random.Random):
    for _ in range(500):
        pt = tuple(Fraction(rng.randint(-19, 19)) for _ in range(a.dim))
        if all(sum(c * x for c, x in zip(normal, pt)) for normal, _ in a.hyperplanes):
            return pt
    raise AssertionError("could not sample a point off the arrangement")


def _saito_determinant(a: MultiArrangement, gens, seed: int):
    """(nonzero?, evaluation point) for the coefficient determinant of ``gens``.

    For members of the module whose degrees sum to the multiplicity sum, the
    determinant is c times the product of the defining forms to their
    multiplicities (Saito 1980; Ziegler 1989), so its value at one seeded
    point off the arrangement is zero exactly when c is.
    """
    pt = _random_point(a, random.Random(seed))
    return bool(fraction_determinant([gen.evaluate(pt) for gen in gens])), pt


def saito_check(a: MultiArrangement, gens, seed: int = 0) -> bool:
    """Certify that ``gens`` form a basis of the derivation module.

    Requires exactly ambient-dim elements, re-verifies membership and the
    degree-sum identity, then tests the coefficient determinant.  Given
    membership and the degree sum, a non-vanishing determinant forces the
    determinant to be a constant multiple of the product of the defining
    forms to their multiplicities, which is Saito's criterion.
    """
    gens = list(gens)
    if len(gens) != a.dim:
        raise ValueError("need exactly ambient-dim derivations")
    for gen in gens:
        for comp in gen.components:
            for exp in comp:
                if sum(exp) != gen.degree:
                    raise ValueError("components are not homogeneous of the stated degree")
        for normal, mult in a.hyperplanes:
            applied = _poly_combine(gen.components, normal)
            if not _poly_vanishes_mod_power(applied, normal, mult):
                raise ValueError("derivation is not a member of the module")
    if sum(g.degree for g in gens) != a.multiplicity_sum:
        raise ValueError("generator degrees do not sum to the multiplicity sum")
    ok, _ = _saito_determinant(a, gens, seed)
    return ok


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
    if not a.hyperplanes:
        gens = tuple(coordinate_derivations(n))
        return FreenessCertificate(
            status=FREE, ambient_dim=n, multiplicity_sum=0,
            generator_degrees=(0,) * n,
            dimension_table={d: n * _mono_count(n, d) for d in range(budget + 1)},
            new_generator_table={0: n},
            generators=gens, saito_point=tuple(Fraction(1) for _ in range(n)),
            seed=seed, budget=budget)

    form = _essential_form(a)
    center = n - form.rank
    ess_dims: dict = {}
    new_table: dict = {}
    gens: list[DerivationElement] = []
    count = center
    degsum = 0
    status = INCONCLUSIVE
    note = None
    saito_point = None
    lifted = None
    fresh = True
    for d in range(budget + 1):
        dim_d, n_new = _scan_degree(form.ess, d, gens)
        ess_dims[d] = dim_d
        new_table[d] = n_new + (center if d == 0 else 0)
        count += n_new
        degsum += n_new * d
        fresh = fresh or n_new > 0
        if not want_verdict:
            continue
        if count > n:
            break
        if count == n and fresh:
            fresh = False
            if degsum > msum:
                break
            if degsum == msum:
                lifted = tuple(_center_elements(form, n) + _lift_elements(gens, form, n))
                ok, saito_point = _saito_determinant(a, lifted, seed)
                if ok:
                    status = FREE
                    break
                # a candidate with vanishing determinant cannot be a basis;
                # keep scanning for the extra generators that must exist
                note = "candidate basis failed the determinant test"
                lifted = None
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
    if status == FREE:
        for d, dim_d in dim_table.items():
            expect = sum(_mono_count(n, d - e) for e in degrees)
            if dim_d != expect:
                raise AssertionError("free module dimensions break the Hilbert series")
    return FreenessCertificate(
        status=status, ambient_dim=n, multiplicity_sum=msum,
        generator_degrees=degrees, dimension_table=dim_table,
        new_generator_table=new_table,
        generators=lifted if status == FREE else None,
        saito_point=saito_point if status == FREE else None,
        seed=seed, budget=budget, note=note)


# ---------------------------------------------------------------------------
# rank-2 service routines (used as the independent oracle for closed forms)

def _lines(count: int):
    return ((1, 0), (0, 1), (1, -1))[:count]


def rank2_oracle_exponents(mults) -> tuple[int, int]:
    """Exponents of 2 or 3 concurrent lines with the given multiplicities,
    straight from the graded kernels.  Any such multiarrangement is free, and
    3 distinct concurrent lines are linearly equivalent to any other 3, so
    only the multiplicities matter."""
    mults = list(mults)
    if len(mults) not in (2, 3):
        raise UnsupportedSizeError("rank-2 oracle handles 2 or 3 lines")
    if any(m < 1 for m in mults):
        raise ValueError("multiplicities must be positive")
    arr = MultiArrangement(2, tuple(zip(_lines(len(mults)), mults)))
    cert = freeness_verdict(arr)
    if cert.status != FREE:
        raise AssertionError("rank-2 multiarrangement did not certify free")
    d1, d2 = sorted(cert.generator_degrees, reverse=True)
    return d1, d2


def euler_restriction_degree(m0: int, others) -> int:
    """Degree of the rank-2 basis generator lying outside alpha_H0 * Der.

    The distinguished line H0 carries multiplicity m0; the basis of the
    rank-2 module splits into one generator inside alpha_H0 * Der and one
    outside, whose degree is the Euler restriction multiplicity.
    """
    others = list(others)
    mults = [m0] + others
    if len(mults) not in (2, 3):
        raise UnsupportedSizeError("Euler fallback handles 2 or 3 lines")
    arr = MultiArrangement(2, tuple(zip(_lines(len(mults)), mults)))
    d2, d1 = rank2_oracle_exponents(mults)   # d1 <= d2
    if d1 == d2:
        return d1
    rows, cols = _assemble(arr, d1)
    alpha0 = arr.hyperplanes[0][0]
    for vec in ReducedSpan(cols, rows).kernel():
        el = _element_from_flat(vec, 2, d1)
        if not all(_poly_vanishes_mod_power(comp, alpha0, 1)
                   for comp in el.components):
            return d1
    return d2
