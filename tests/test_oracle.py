"""The exact derivation-module engine: graded dimensions, minimal generators,
Saito certification, and freeness verdicts on classical fixtures."""

import functools
import importlib.util
import itertools
import json
import math
import operator
import pickle
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from braidfree import (EdgeBicoloredGraph, MultiArrangement, MultiBraidSpec,
                       UnsupportedSizeError, classify, enumerate_classes,
                       freeness_verdict, graded_dimension, lmp2,
                       minimal_generators, saito_check, theorem_scope,
                       to_arrangement)
import braidfree.oracle as oracle
from braidfree.cli import main
from braidfree.deform import DeformationSpec, build_and_cone
from braidfree.graphs import DirectedGraph, permute_graph
from braidfree.linalg import ReducedSpan, primitive
from braidfree.oracle import (DerivationElement, FREE, INCONCLUSIVE, NONFREE,
                              coordinate_derivations, monomials)

ROOT = Path(__file__).resolve().parents[1]

BRAID3 = MultiArrangement.build(3, [
    ((1, -1, 0), 1), ((1, 0, -1), 1), ((0, 1, -1), 1)])
BRAID3_DOUBLE = MultiArrangement.build(3, [
    ((1, -1, 0), 2), ((1, 0, -1), 2), ((0, 1, -1), 2)])


def braid_spec(k, n, plus=(), minus=(), count=4):
    return MultiBraidSpec(k, tuple(n), EdgeBicoloredGraph.from_edges(count, plus, minus))


def test_arrangement_validation():
    with pytest.raises(ValueError):
        MultiArrangement(2, (((0, 0), 1),))
    with pytest.raises(ValueError):
        MultiArrangement(2, (((1, 0), 0),))
    with pytest.raises(ValueError):
        MultiArrangement(2, (((1, -1), 1), ((-2, 2), 1)))
    arr = MultiArrangement.build(2, [((Fraction(1, 2), Fraction(-1, 3)), 2)])
    assert arr.hyperplanes == (((3, -2), 2),)


def test_two_lines_graded_dimensions():
    for a, b in ((1, 1), (2, 3), (4, 1)):
        arr = MultiArrangement.build(2, [((1, 0), a), ((0, 1), b)])
        for d in range(7):
            assert graded_dimension(arr, d) == max(0, d - a + 1) + max(0, d - b + 1)


def test_braid_degree_zero_contains_diagonal():
    assert graded_dimension(BRAID3, 0) >= 1
    assert graded_dimension(BRAID3_DOUBLE, 0) >= 1


def test_rank2_simple_first_degrees():
    arr = MultiArrangement.build(2, [((1, 0), 1), ((0, 1), 1), ((1, -1), 1)])
    dims = [graded_dimension(arr, d) for d in range(4)]
    # exponents (1,2): Hilbert series of a free module with those degrees
    assert dims == [0, 1, 3, 5]


def test_graded_dimension_guards():
    with pytest.raises(ValueError):
        graded_dimension(BRAID3, -1)
    with pytest.raises(UnsupportedSizeError):
        graded_dimension(MultiArrangement(6, (((1, -1, 0, 0, 0, 0), 1),)), 0)


def test_negative_budget_is_refused():
    for a in (BRAID3, MultiArrangement(3, ())):
        with pytest.raises(ValueError):
            freeness_verdict(a, budget=-1)
        with pytest.raises(ValueError):
            minimal_generators(a, budget=-1)


def test_minimal_generators_examples():
    empty = MultiArrangement(3, ())
    cert = minimal_generators(empty)
    assert cert.new_generator_table[0] == 3 and cert.generator_degrees == (0, 0, 0)
    # the generator table lists every degree up to the budget, even when empty
    assert minimal_generators(empty, budget=4).dimension_table == {0: 3, 1: 9, 2: 18, 3: 30, 4: 45}
    assert graded_dimension(empty, 4) == 45

    cert = minimal_generators(BRAID3)
    assert cert.generator_degrees == (0, 1, 2)

    cert = minimal_generators(BRAID3_DOUBLE)
    assert cert.generator_degrees == (0, 3, 3)


def test_freeness_verdict_classics():
    assert freeness_verdict(BRAID3).status == FREE
    cert = freeness_verdict(BRAID3_DOUBLE)
    assert cert.status == FREE and cert.generator_degrees == (0, 3, 3)
    empty = MultiArrangement(4, ())
    cert = freeness_verdict(empty)
    assert cert.status == FREE and cert.generator_degrees == (0, 0, 0, 0)
    # certified at degree 0, the verdict stops there whatever the budget
    cert = freeness_verdict(empty, budget=10**9)
    assert cert.dimension_table == {0: 4} and cert.new_generator_table == {0: 4}
    assert cert.budget == 10**9


def test_free_certificate_has_hilbert_consistent_table():
    cert = freeness_verdict(BRAID3_DOUBLE)
    n = cert.ambient_dim
    for d, dim in cert.dimension_table.items():
        expect = sum(len(monomials(n, d - e)) for e in cert.generator_degrees)
        assert dim == expect


def test_saito_check_paths():
    empty = MultiArrangement(3, ())
    assert saito_check(empty, coordinate_derivations(3))

    cert = freeness_verdict(BRAID3)
    assert saito_check(BRAID3, cert.generators)

    # a dependent triple with the right degree sum: duplicate a generator
    # shifted by a variable
    th0, th1, _ = sorted(cert.generators, key=lambda el: el.degree)
    shifted = DerivationElement(th1.degree + 1, tuple(
        {tuple(e[i] + (1 if i == 0 else 0) for i in range(3)): c
         for e, c in comp.items()} for comp in th1.components))
    assert not saito_check(BRAID3, (th0, th1, shifted))

    with pytest.raises(ValueError):
        saito_check(BRAID3, (th0, th1))          # wrong count
    with pytest.raises(ValueError):
        saito_check(BRAID3, (th0, th0, th0))     # degree sum mismatch
    bad = DerivationElement(1, ({(1, 0, 0): 1}, {}, {}))
    with pytest.raises(ValueError):
        saito_check(BRAID3, (th0, bad, sorted(cert.generators,
                                              key=lambda el: el.degree)[2]))


def test_verdict_matches_classifier_on_samples():
    rng = random.Random(31)
    found = 0
    while found < 12:
        k = rng.randint(0, 1)
        shifts = tuple(rng.randint(0, 1) for _ in range(4))
        digits = [rng.randrange(3) for _ in range(6)]
        spec = MultiBraidSpec(k, shifts, EdgeBicoloredGraph.from_digits(4, digits))
        from braidfree.multibraid import theorem_scope
        if theorem_scope(spec) is None:
            continue
        if any(m < 0 for m in spec.multiplicities().values()):
            continue
        found += 1
        verdict = classify(spec)
        cert = freeness_verdict(to_arrangement(spec))
        assert cert.status == verdict.status
        if verdict.status == FREE:
            assert tuple(sorted(verdict.exponents)) == cert.generator_degrees


def test_nonfree_reason_is_recorded():
    cyc = EdgeBicoloredGraph.from_edges(4, plus=[(1, 2), (2, 3), (3, 4), (1, 4)])
    cert = freeness_verdict(to_arrangement(MultiBraidSpec(1, (0, 0, 0, 0), cyc)))
    assert cert.status == NONFREE
    assert cert.note is not None and cert.generators is None


def test_monotone_under_multiplicity_increase():
    rng = random.Random(37)
    for _ in range(6):
        mults = [rng.randint(1, 3) for _ in range(3)]
        base = MultiArrangement.build(3, [
            ((1, -1, 0), mults[0]), ((1, 0, -1), mults[1]), ((0, 1, -1), mults[2])])
        which = rng.randrange(3)
        bumped = list(mults)
        bumped[which] += 1
        up = MultiArrangement.build(3, [
            ((1, -1, 0), bumped[0]), ((1, 0, -1), bumped[1]), ((0, 1, -1), bumped[2])])
        for d in range(7):
            assert graded_dimension(up, d) <= graded_dimension(base, d)


def test_certificates_are_deterministic():
    spec = MultiBraidSpec(1, (0, 0, 0, 0), EdgeBicoloredGraph.from_edges(4))
    a = freeness_verdict(to_arrangement(spec), seed=5)
    b = freeness_verdict(to_arrangement(spec), seed=5)
    assert a == b
    assert a.seed == 5


def test_small_budget_is_inconclusive_not_wrong():
    cert = freeness_verdict(BRAID3_DOUBLE, budget=1)
    assert cert.status == INCONCLUSIVE
    assert cert.note is not None


NORMALS3 = sorted({tuple(primitive(v)) for v in itertools.product((-1, 0, 1), (-1, 0, 1), (0, 1, 2))
                   if any(v)})


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(st.lists(st.tuples(st.sampled_from(NORMALS3), st.integers(1, 2)),
                min_size=1, max_size=5, unique_by=lambda h: h[0]).flatmap(
       lambda hyps: st.tuples(st.just(hyps), st.permutations(hyps))))
def test_dimension_table_invariant_under_reordering(pair):
    hyps, shuffled = pair
    a = minimal_generators(MultiArrangement(3, tuple(hyps)), budget=4)
    b = minimal_generators(MultiArrangement(3, tuple(shuffled)), budget=4)
    assert a.dimension_table == b.dimension_table
    assert a.generator_degrees == b.generator_degrees


def unimodular(ops, perm):
    """The permutation matrix of ``perm`` after column operations
    col_j += c * col_i, one per (i, j, c) in ``ops``; determinant +-1."""
    u = [[int(perm[i] == j) for j in range(3)] for i in range(3)]
    for i, j, c in ops:
        if i != j:
            for row in u:
                row[j] += c * row[i]
    return u


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(st.lists(st.tuples(st.sampled_from(NORMALS3), st.integers(1, 2)),
                min_size=1, max_size=5, unique_by=lambda h: h[0]),
       st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2), st.sampled_from((-1, 1, 2))),
                max_size=4),
       st.permutations(range(3)))
def test_certificate_invariant_under_unimodular_coordinates(hyps, ops, perm):
    # normal -> normal . U moves the pivot columns and the center vector (and
    # so the scale D of the essential forms) but not the module's invariants
    u = unimodular(ops, perm)
    moved = [([sum(v[i] * u[i][j] for i in range(3)) for j in range(3)], m) for v, m in hyps]
    a = freeness_verdict(MultiArrangement(3, tuple(hyps)), budget=5)
    b = freeness_verdict(MultiArrangement.build(3, moved), budget=5)
    assert (a.status, a.note, a.generator_degrees) == (b.status, b.note, b.generator_degrees)
    assert a.dimension_table == b.dimension_table
    assert a.new_generator_table == b.new_generator_table


def _count_lifts(monkeypatch):
    calls = []
    lift = oracle._lift_elements

    def spy(*args):
        calls.append(args)
        return lift(*args)

    monkeypatch.setattr(oracle, "_lift_elements", spy)
    return calls


def test_census_oracle_never_lifts(capsys, monkeypatch):
    calls = _count_lifts(monkeypatch)
    assert main(["census", "--vertices", "4", "--oracle"]) == 0
    golden = Path(__file__).parent / "golden" / "census4_oracle.json"
    assert capsys.readouterr().out == golden.read_text(encoding="utf-8")
    assert calls == []


def test_rank2_closed_form_validation_never_lifts(monkeypatch):
    from braidfree import validate_rank2_closed_form
    calls = _count_lifts(monkeypatch)
    assert validate_rank2_closed_form(6) == 15 + 20
    assert calls == []


def test_generators_lift_once_on_first_read(monkeypatch):
    # Plus 12, 13, 23 on 4 vertices at k = 1: Free, with a center direction
    arr = to_arrangement(braid_spec(1, (0, 0, 0, 0), plus=[(1, 2), (1, 3), (2, 3)]))
    cert = freeness_verdict(arr, seed=4)
    assert cert.status == FREE and cert.generator_degrees[0] == 0
    calls = _count_lifts(monkeypatch)
    gens = cert.generators
    assert cert.generators is gens
    assert len(calls) == 1
    assert tuple(sorted(g.degree for g in gens)) == cert.generator_degrees
    assert saito_check(arr, gens, seed=cert.seed)


def test_free_certificate_pickles_with_its_generators():
    arr = to_arrangement(braid_spec(1, (0, 1, 0, 0), plus=[(1, 2)], minus=[(3, 4)]))
    cert = freeness_verdict(arr)
    assert cert.status == FREE
    unread = pickle.loads(pickle.dumps(cert))
    assert unread == cert
    gens = cert.generators
    read = pickle.loads(pickle.dumps(cert))
    assert unread.generators == read.generators == gens
    assert saito_check(arr, read.generators)


@pytest.mark.parametrize("digits, budget", [("0001022222", 4), ("0011202120", 5)])
def test_failed_determinant_leaves_the_candidate_inconclusive(digits, budget):
    # 5-vertex k=1 classes whose n minimal generators up to the budget have
    # the right degree sum but vanishing determinant at the seeded point
    graph = EdgeBicoloredGraph.from_digits(5, tuple(int(c) for c in digits))
    arr = to_arrangement(MultiBraidSpec(1, (0,) * 5, graph))
    cert = freeness_verdict(arr, budget=budget)
    assert cert.status == INCONCLUSIVE
    assert cert.note == "candidate basis failed the determinant test"
    assert cert.generators is None and cert.saito_point is None
    assert len(cert.generator_degrees) == 5
    assert sum(cert.generator_degrees) == arr.multiplicity_sum


def test_free_exponents_match_second_local_mixed_product():
    # for a free multiarrangement the second local mixed product is e2 of
    # the exponents (Abe-Terao-Wakefield 2007)
    specs = [MultiBraidSpec(1, (0,) * n, c.representative)
             for n in (3, 4) for c in enumerate_classes(n, include_swap=True)]
    rng = random.Random(67)
    drawn = 0
    while drawn < 20:
        spec = MultiBraidSpec(rng.randint(0, 2), tuple(rng.randint(0, 2) for _ in range(4)),
                              EdgeBicoloredGraph.from_digits(4, [rng.randrange(3) for _ in range(6)]))
        if theorem_scope(spec) is None or min(spec.multiplicities().values()) < 0:
            continue
        drawn += 1
        specs.append(spec)
    free = 0
    for spec in specs:
        cert = freeness_verdict(to_arrangement(spec))
        if cert.status == FREE:
            free += 1
            degs = cert.generator_degrees
            assert sum(a * b for a, b in itertools.combinations(degs, 2)) == lmp2(spec)
    assert free >= 30 + 5       # the 30 Free classes and some drawn specs


def _layers(arr, top):
    """Full kernel bases of the ambient constraint tables, degrees 0..top."""
    out = []
    for d in range(top + 1):
        rows, cols = oracle._assemble(arr, d)
        out.append((list(ReducedSpan(cols, rows).kernel()), cols))
    return out


def _reference_new_generators(arr, layers, d):
    """dim D_d minus the rank of the products x_j * D_{d-1}: the number of
    minimal generators of degree d, whatever basis is chosen."""
    layer, cols = layers[d]
    if d == 0:
        return len(layer)
    n = arr.dim
    lower = monomials(n, d - 1)
    index = {mu: t for t, mu in enumerate(monomials(n, d))}
    products = []
    for vec in layers[d - 1][0]:
        for j in range(n):
            shifted = {}
            for col, v in vec.items():
                i, t = divmod(col, len(lower))
                mu = list(lower[t])
                mu[j] += 1
                shifted[i * len(index) + index[tuple(mu)]] = v
            products.append(shifted)
    return len(layer) - ReducedSpan(cols, products).rank


def _count_fixtures():
    rng = random.Random(73)
    arrangements = []
    while len(arrangements) < 30:
        dim = 2 + len(arrangements) % 3
        rank = dim - (len(arrangements) % 4 == 0 and dim > 2)    # some non-essential
        basis = [[rng.randint(-1, 1) for _ in range(dim)] for _ in range(rank)]
        normals = {}
        for _ in range(rng.randint(2, 5 if dim < 4 else 4)):
            v = [sum(rng.randint(-1, 1) * b[j] for b in basis) for j in range(dim)]
            if any(v):
                normals.setdefault(tuple(primitive(v)), rng.randint(1, 3))
        if len(normals) >= 2:
            arrangements.append(MultiArrangement(dim, tuple(normals.items())))
    return arrangements + _cone_arrangements()[3:6]


def _cone_arrangements():
    """The 4-vertex deformation cones at k=1 that perfbench's oracle-deep draws."""
    cones = json.loads((ROOT / "perfbench" / "data" / "cones.json").read_text(encoding="utf-8"))
    return [build_and_cone(DeformationSpec(DirectedGraph.from_arcs(
        4, [tuple(arc) for arc in cone["arcs"]]), 1)) for cone in cones]


def test_new_generator_counts_match_a_basis_free_reference():
    # the scan takes as new generators the layer's kernel off the pivot
    # columns of the product span; the reference counts from full kernels
    nonfree = to_arrangement(MultiBraidSpec(
        1, (0,) * 5, EdgeBicoloredGraph.from_digits(5, tuple(int(c) for c in "0012122220"))))
    for arr in [nonfree, *_count_fixtures()]:
        cert = minimal_generators(arr, budget=5)
        layers = _layers(arr, 5)
        for d in range(6):
            assert cert.dimension_table[d] == len(layers[d][0])
            assert cert.new_generator_table[d] == _reference_new_generators(arr, layers, d)
    assert minimal_generators(nonfree, budget=5).new_generator_table[5] == 4


# ---------------------------------------------------------------------------
# the degree scan on its live columns

CLASSES5 = json.loads((ROOT / "perfbench" / "data" / "classes5.json").read_text(encoding="utf-8"))


def _k1_arrangement(digits):
    graph = EdgeBicoloredGraph.from_digits(5, tuple(int(c) for c in digits))
    return to_arrangement(MultiBraidSpec(1, (0,) * 5, graph))


def _reference_scan_degree(ess, d, gens):
    """The degree scan on the full system: every constraint row and a unit
    row on each pivot column of the product span, eliminated together;
    (dim, new generator count, new generators)."""
    nv = ess.dim
    rows, cols = oracle._assemble(ess, d)
    span = ReducedSpan(cols)
    for gen in gens:
        for mu in monomials(nv, d - gen.degree):
            span.insert(oracle._flat_shifted(gen, mu, nv, d))
    table = ReducedSpan(cols, rows + [{c: 1} for c in span.pivots])
    kernel = [oracle._element_from_flat(vec, nv, d) for vec in table.kernel()]
    return span.rank + len(kernel), cols - table.rank, kernel


def _assert_scan_matches_full_system(ess, degrees):
    gens = []
    for d in degrees:
        dim, n_new, kernel = _reference_scan_degree(ess, d, gens)
        before = len(gens)
        assert oracle._scan_degree(ess, d, gens) == (dim, n_new), (ess, d)
        assert gens[before:] == kernel, (ess, d)


def test_live_column_scan_matches_the_full_system():
    # the forced-zero columns (the product span's pivots and the columns of
    # the coordinate hyperplanes' one-entry rows) are left out before the
    # elimination; the dimension, the count and every generator must be
    # those of eliminating the whole system
    spec_k2 = braid_spec(2, (0,) * 5, plus=[(1, 2), (1, 3)], minus=[(3, 4)], count=5)
    cases = [(oracle._essential_form(to_arrangement(spec_k2)).ess, range(9))]
    for row in random.Random(83).sample(CLASSES5, 20):
        ess = oracle._essential_form(_k1_arrangement(row["digits"])).ess
        cases.append((ess, range(max(row["generator_degrees"]) + 1)))
    for cone in _cone_arrangements():
        top = max(freeness_verdict(cone).generator_degrees)
        cases.append((oracle._essential_form(cone).ess, range(top + 1)))
    for arr in _linalg_arrangements():
        top = max(freeness_verdict(arr).generator_degrees) + 2     # past the verdict
        cases.append((oracle._essential_form(arr).ess, range(top + 1)))
    # a coordinate normal with a negative sign, scanned as given
    negative = MultiArrangement(3, (((0, -1, 0), 3), ((1, -1, 0), 1), ((1, 0, -2), 2),
                                    ((0, 1, -1), 1)))
    cases.append((negative, range(negative.multiplicity_sum + 1)))
    # multiplicity 1000: below degree 1000 the cap is d + 1 and every column is dead
    for normal in ((1,), (-1,)):
        line = MultiArrangement(1, ((normal, 1000),))
        cases.append((line, (0, 1, 2, 998, 999, 1000, 1001, 1002)))
    dead_coordinates = 0
    for ess, degrees in cases:
        _assert_scan_matches_full_system(ess, degrees)
        dead_coordinates += any(sum(map(bool, normal)) == 1 for normal, _ in ess.hyperplanes)
    assert dead_coordinates >= 20


def _monomial_count(nvars, d):
    if d < 0:
        return 0
    return math.comb(d + nvars - 1, nvars - 1) if nvars else int(d == 0)


def test_lifted_dimension_table_matches_the_convolution():
    # the center directions plus the essential dimensions convolved with the
    # monomial counts of the center variables, written out term by term
    def convolution(ess_dims, center, ambient):
        return {d: center * _monomial_count(ambient, d)
                + sum(ess_dims[e] * _monomial_count(center, d - e) for e in range(d + 1))
                for d in range(len(ess_dims))}

    rng = random.Random(31)
    for center in range(5):
        for rank in range(1, 4):
            for budget in (0, 1, 7, 40):
                ess_dims = {d: rng.randrange(60 * (d + 1)) for d in range(budget + 1)}
                assert oracle._lifted_dimension_table(ess_dims, center, rank + center) == \
                    convolution(ess_dims, center, rank + center), (center, rank, budget)


def test_one_hyperplane_at_a_deep_degree():
    # x_1 = 0 in dimension 5 is free with exponents 0, 0, 0, 0, 1: the essential
    # part has rank 1 and the other four directions are the center
    line = MultiArrangement(5, (((1, 0, 0, 0, 0), 1),))
    d = 2000
    assert graded_dimension(line, d) == 4 * _monomial_count(5, d) + _monomial_count(5, d - 1)


def test_membership_check_catches_a_perturbed_kernel_vector(monkeypatch):
    # the lowest entry of a kernel vector with two or more entries is a pivot
    # column, so some constraint row reads it: bumping it breaks membership
    class Perturbed(ReducedSpan):
        def kernel(self):
            for vec in super().kernel():
                if len(vec) > 1:
                    vec[min(vec)] += 1
                yield vec

    ess = oracle._essential_form(BRAID3_DOUBLE).ess
    gens = []
    for d in range(3):
        oracle._scan_degree(ess, d, gens)
    monkeypatch.setattr(oracle, "ReducedSpan", Perturbed)
    with pytest.raises(AssertionError, match="^a new generator is not a member of the module$"):
        oracle._scan_degree(ess, 3, gens)


@pytest.mark.slow
def test_every_five_vertex_class_matches_its_stored_answer():
    # all 406 classes at k=1 against perfbench's stored answers, with every
    # Free certificate re-checked by saito_check on its lifted generators
    assert len(CLASSES5) == 406
    free = 0
    for row in CLASSES5:
        arr = _k1_arrangement(row["digits"])
        cert = freeness_verdict(arr)
        assert (cert.status, list(cert.generator_degrees)) == (
            row["status"], row["generator_degrees"]), row["digits"]
        if cert.status == FREE:
            free += 1
            assert saito_check(arr, cert.generators, seed=cert.seed)
    assert 0 < free < 406


# ---------------------------------------------------------------------------
# the choice of essential coordinates

def _linalg_arrangements():
    """The random arrangements of test_linalg.py, drawn as it draws them."""
    spec = importlib.util.spec_from_file_location("linalg_fixtures", ROOT / "tests" / "test_linalg.py")
    fixtures = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(fixtures)
    rng = random.Random(7)
    arrangements = [fixtures.random_arrangement(rng, dim) for dim in (3, 4) for _ in range(10)]
    arrangements += [fixtures.centered_arrangement(rng, dim) for dim in (3, 4) for _ in range(4)]
    return arrangements + [fixtures.SCALED_CENTER]


def _first_basis(a):
    """Pivot columns and center vectors of the normals' echelon table in the
    natural column order: the smallest basis, the coordinates the choice
    rule keeps on a tie."""
    span = ReducedSpan(a.dim, [normal for normal, _ in a.hyperplanes])
    center = tuple(tuple(k.get(i, 0) for i in range(a.dim)) for k in span.kernel())
    return tuple(sorted(span.pivots)), center


def _score(a, cols):
    return sum(m for normal, m in a.hyperplanes if sum(1 for c in cols if normal[c]) == 1)


def _assert_form_follows_the_rule(a):
    """The chosen pivots are, among the column sets on which the normals have
    full rank (found by brute force), one of highest score and the smallest
    on a tie; the center, the forms and the essential normals satisfy the
    identities the lift and the Saito test rely on."""
    n = a.dim
    form = oracle._essential_form(a)
    normals = [normal for normal, _ in a.hyperplanes]
    r = ReducedSpan(n, normals).rank
    bases = [cols for cols in itertools.combinations(range(n), r)
             if ReducedSpan(r, [[v[c] for c in cols] for v in normals]).rank == r]
    best = max(_score(a, cols) for cols in bases)
    pivots = form.pivots
    assert pivots == min(cols for cols in bases if _score(a, cols) == best)
    free = [c for c in range(n) if c not in pivots]
    assert len(form.center) == len(free) == n - r
    for k, c in zip(form.center, free):
        assert list(k) == primitive(k) and k[c]
        assert all(not x for i, x in enumerate(k) if i != c and i not in pivots)
        assert all(sum(map(operator.mul, v, k)) == 0 for v in normals)
    scale = form.forms[0][pivots[0]]
    for t, b in enumerate(form.forms):
        assert [b[p] for p in pivots] == [scale * (s == t) for s in range(r)]
        assert all(sum(map(operator.mul, b, k)) == 0 for k in form.center)
    for (normal, mult), (ess_normal, ess_mult) in zip(a.hyperplanes, form.ess.hyperplanes):
        combo = [sum(normal[p] * b[i] for p, b in zip(pivots, form.forms)) for i in range(n)]
        assert combo == [scale * x for x in normal]
        assert list(ess_normal) == primitive([normal[p] for p in pivots]) and ess_mult == mult
    assert sum(m for v, m in form.ess.hyperplanes if sum(map(bool, v)) == 1) == best
    return form


def test_braid_spec_takes_its_heaviest_vertex_as_the_center():
    # vertex 1 meets three Plus edges (multiplicity 3 each at k=1), every other
    # vertex one Plus and two absent edges (3 + 2 + 2): the free column is
    # vertex 1's, and its three hyperplanes become coordinate hyperplanes
    arr = to_arrangement(braid_spec(1, (0,) * 4, plus=[(1, 2), (1, 3), (1, 4)]))
    form = _assert_form_follows_the_rule(arr)
    assert _first_basis(arr)[0] == (0, 1, 2)
    assert form.pivots == (1, 2, 3) and form.center == ((1, 1, 1, 1),)
    assert form.forms == ((-1, 1, 0, 0), (-1, 0, 1, 0), (-1, 0, 0, 1))
    assert sorted(m for v, m in form.ess.hyperplanes if sum(map(bool, v)) == 1) == [3, 3, 3]
    cert = freeness_verdict(arr)
    assert cert.status == FREE and cert.essential_form == form
    assert saito_check(arr, cert.generators, seed=cert.seed)
    # the k=2 spec of perfbench's oracle-deep: Plus 12, 13 make vertex 1 the center
    spec_k2 = to_arrangement(braid_spec(2, (0,) * 5, plus=[(1, 2), (1, 3)], minus=[(3, 4)], count=5))
    assert _assert_form_follows_the_rule(spec_k2).pivots == (1, 2, 3, 4)
    # the oracle sweep's traffic: every five-vertex class at k=1
    for row in CLASSES5:
        _assert_form_follows_the_rule(_k1_arrangement(row["digits"]))


def test_deformation_cones_keep_the_first_basis():
    # every cone has multiplicity 1 throughout and four coordinate hyperplanes
    # whichever vertex is the base, so the tie keeps the smallest basis
    for cone in _cone_arrangements():
        form = _assert_form_follows_the_rule(cone)
        assert (form.pivots, form.center) == _first_basis(cone)


def test_rank_deficient_arrangement_with_a_two_dimensional_center():
    # three concurrent lines in the x_1 x_2 x_3 space, multiplicities 5, 1, 2,
    # in dimension 4: x_1 - x_2 and x_1 - x_3 have one nonzero entry on the
    # columns (1, 2), and on (0, 3) too, but the normals vanish on column 3,
    # so (0, 3) is no basis
    arr = MultiArrangement(4, (((1, -1, 0, 0), 5), ((0, 1, -1, 0), 1), ((1, 0, -1, 0), 2)))
    form = _assert_form_follows_the_rule(arr)
    assert _score(arr, (0, 3)) == _score(arr, (1, 2)) == 7
    assert _first_basis(arr)[0] == (0, 1) and form.pivots == (1, 2)
    assert form.center == ((1, 1, 1, 0), (0, 0, 0, 1))
    cert = freeness_verdict(arr)
    assert cert.status == FREE and cert.generator_degrees == (0, 0, 3, 5)
    assert saito_check(arr, cert.generators, seed=cert.seed)
    for d, dim in cert.dimension_table.items():
        rows, cols = oracle._assemble(arr, d)
        assert dim == cols - ReducedSpan(cols, rows).rank


def test_moved_pivots_map_the_center_back():
    # lines through the center (1, 2, 3): the heavy 2x_1 - x_2 becomes a
    # coordinate hyperplane on the columns (0, 2), eliminated in the order
    # 0, 2, 1, and the center vector is read back in the ambient order
    arr = MultiArrangement(3, (((2, -1, 0), 3), ((3, 0, -1), 1), ((0, 3, -2), 1)))
    form = _assert_form_follows_the_rule(arr)
    assert _first_basis(arr)[0] == (0, 1) and form.pivots == (0, 2)
    assert form.center == ((1, 2, 3),)
    cert = freeness_verdict(arr)
    assert cert.status == FREE and cert.generator_degrees == (0, 2, 3)
    assert saito_check(arr, cert.generators, seed=cert.seed)


def test_empty_arrangement_has_no_essential_coordinates():
    form = oracle._essential_form(MultiArrangement(3, ()))
    assert form.ess is None and form.pivots == () and form.forms == ()
    assert form.center == ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def test_forms_span_the_normals_on_the_linalg_arrangements():
    # D * normal = sum_t normal[p_t] * b_t, among the other identities
    arrangements = _linalg_arrangements()
    assert sum(len(oracle._essential_form(arr).center) for arr in arrangements) == 9
    for arr in arrangements:
        _assert_form_follows_the_rule(arr)


def _invariants(cert):
    return (cert.status, cert.generator_degrees, cert.dimension_table,
            cert.new_generator_table, cert.note)


def test_certificates_are_invariant_under_relabeling_the_vertices():
    # relabeling the vertices moves the vertex of largest incident
    # multiplicity, and with it the chosen coordinates, but no invariant of
    # the module; a Free basis found in moved coordinates must pass Saito
    cases = [(cls.representative, [(0, *p) for p in itertools.permutations(range(1, n + 1))])
             for n in (3, 4) for cls in enumerate_classes(n)]
    rng = random.Random(97)
    for row in rng.sample(CLASSES5, 30):
        graph = EdgeBicoloredGraph.from_digits(5, tuple(int(c) for c in row["digits"]))
        cases.append((graph, [(0, *rng.sample(range(1, 6), 5)) for _ in range(2)]))
    moved = 0
    for graph, perms in cases:
        expect = _invariants(freeness_verdict(to_arrangement(MultiBraidSpec(1, (0,) * graph.n, graph))))
        for image in {permute_graph(graph, perm) for perm in perms}:
            arr = to_arrangement(MultiBraidSpec(1, (0,) * graph.n, image))
            cert = freeness_verdict(arr)
            assert _invariants(cert) == expect, (graph.digits(), image.digits())
            if cert.status == FREE and cert.essential_form.pivots != _first_basis(arr)[0]:
                moved += 1
                assert saito_check(arr, cert.generators, seed=cert.seed)
    assert moved >= 100


# ---------------------------------------------------------------------------
# the substitution table and its two readers

def _reference_expansion(normal, d, cap):
    """The substitution table built monomial by monomial: for every x^mu,
    the multinomial expansion of x_p^mu_p with every alpha-exponent below
    ``cap`` and every composition of the rest over the support."""
    nv = len(normal)
    pivot = min((i for i, a in enumerate(normal) if a), key=lambda i: abs(normal[i]))
    apiv = normal[pivot]
    others = [i for i in range(nv) if i != pivot]
    support = [q for q, i in enumerate(others) if normal[i]]
    row_index = {}
    entries = []
    for mu in monomials(nv, d):
        mp = mu[pivot]
        base = tuple(mu[i] for i in others)
        scale = apiv ** (d - mp)
        terms = []
        for r0 in range(min(mp, cap - 1) + 1):
            rest = mp - r0
            head = math.comb(mp, r0) * scale
            for comp in itertools.product(range(rest + 1), repeat=len(support)):
                if sum(comp) != rest:
                    continue
                coeff = head
                left = rest
                tail = list(base)
                for q, s in zip(support, comp):
                    if s:
                        coeff *= math.comb(left, s) * (-normal[others[q]]) ** s
                        left -= s
                        tail[q] += s
                row = row_index.setdefault((r0, tuple(tail)), len(row_index))
                terms.append((row, coeff))
        entries.append(tuple(terms))
    return len(row_index), tuple(entries)


def _expansion_cases():
    rng = random.Random(29)
    entries = (0, 0, 0, 1, -1, 2, -2, 3, -5, 7, -7)
    cases = [((1,), 0, 1), ((-3,), 5, 6), ((2, -2, 3), 4, 2), ((0, -3, 3, 0, 3), 6, 7),
             ((0, 0, 0, 0, 5), 8, 3), ((-2, 4, 0, -6, 2), 7, 1), ((5, -7, 3, -2, 7), 8, 9)]
    while len(cases) < 400:
        normal = tuple(rng.choice(entries) for _ in range(rng.randint(1, 5)))
        if any(normal):
            d = rng.randint(0, 8)
            cases.append((normal, d, rng.randint(1, d + 1)))
    return cases


def test_expansion_matches_the_composition_loop():
    # equal element for element: the row order is the order of first
    # appearance, which ReducedSpan's stable sort and kernel basis depend on
    for normal, d, cap in _expansion_cases():
        want = _reference_expansion(normal, d, cap)
        assert oracle._expansion.__wrapped__(normal, d, cap) == want, (normal, d, cap)
        assert oracle._expansion(normal, d, cap) == want


def test_assembled_rows_match_the_composition_loop(monkeypatch):
    spec_k2 = braid_spec(2, (0,) * 5, plus=[(1, 2), (1, 3)], minus=[(3, 4)], count=5)
    cases = [(oracle._essential_form(to_arrangement(spec_k2)).ess, range(11))]
    cases += [(cone, (0, 1, 4, 6)) for cone in _cone_arrangements()]
    reference = functools.lru_cache(maxsize=None)(_reference_expansion)
    for arr, degrees in cases:
        for d in degrees:
            got = oracle._assemble(arr, d)
            with monkeypatch.context() as m:
                m.setattr(oracle, "_expansion", reference)
                assert got == oracle._assemble(arr, d)


def _count_comb(monkeypatch):
    calls = []
    comb = oracle.comb

    def spy(n, k):
        calls.append((n, k))
        return comb(n, k)

    monkeypatch.setattr(oracle, "comb", spy)
    return calls


def test_high_multiplicity_line_takes_one_term_per_degree(monkeypatch):
    # with no other variable in the support only alpha^mu_p itself is a
    # term; building every comb(mu_p, r0) made the scan quadratic or worse
    calls = _count_comb(monkeypatch)
    assert oracle._expansion.__wrapped__((1,), 2000, 2000) == (0, ((),))
    assert oracle._expansion.__wrapped__((-3,), 2000, 2001) == (1, (((0, 1),),))
    assert oracle._expansion.__wrapped__((0, 2, 0), 40, 3) == _reference_expansion((0, 2, 0), 40, 3)
    assert len(calls) <= 2 + 3
    calls.clear()
    cert = freeness_verdict(MultiArrangement(1, (((1,), 1000),)))
    assert (cert.status, cert.generator_degrees) == (FREE, (1000,))
    assert len(calls) < 5 * 1001        # a few per degree, not one per r0


def _reference_divisible(poly, normal, mult):
    """alpha^mult divides poly, by repeated exact division by alpha in its
    pivot variable x_p over Q: each step cancels a term of highest
    x_p-degree, and a nonzero remainder free of x_p means no."""
    p = max(range(len(normal)), key=lambda i: (abs(normal[i]), -i))
    poly = {e: Fraction(c) for e, c in poly.items() if c}
    for _ in range(mult):
        quotient = {}
        while poly:
            e = max(poly, key=lambda e: e[p])
            if not e[p]:
                return False
            c = poly[e] / normal[p]
            q = e[:p] + (e[p] - 1,) + e[p + 1:]
            quotient[q] = c
            for i, a in enumerate(normal):
                if a:
                    key = q[:i] + (q[i] + 1,) + q[i + 1:]
                    v = poly.get(key, 0) - c * a
                    if v:
                        poly[key] = v
                    else:
                        poly.pop(key, None)
        poly = quotient
    return True


def _random_poly(rng, nv, d, terms):
    monos = monomials(nv, d)
    return {rng.choice(monos): rng.choice((-3, -2, -1, 1, 2, 5)) for _ in range(terms)}


def test_poly_vanishes_mod_power_matches_division():
    rng = random.Random(31)
    normals = [(1, -1), (2, -3), (0, 3), (-2, 1, 0), (2, 0, -3), (1, -1, 2), (3, -2, 5),
               (0, 0, 1, -1), (1, 0, -1, -2), (0, -2, 0, 0, 1), (2, -1, 0, 3, -1)]
    outcomes = set()
    for case in range(240):
        normal = normals[case % len(normals)]
        nv = len(normal)
        m = rng.randint(1, 4)
        q = _random_poly(rng, nv, rng.randint(0, 3), rng.randint(1, 4))
        poly = oracle._poly_mul(q, oracle._linear_form_power(normal, m))
        if not poly:
            continue
        assert oracle._poly_vanishes_mod_power(poly, normal, m)
        assert _reference_divisible(poly, normal, m)
        d = sum(next(iter(poly)))
        for mult in (m, m + 1, rng.randint(1, d + 2)):
            bumped = dict(poly)
            mu = rng.choice(monomials(nv, d))
            bumped[mu] = bumped.get(mu, 0) + rng.choice((-1, 1, 4))
            bumped = {e: c for e, c in bumped.items() if c}
            for p in (poly, bumped):
                want = _reference_divisible(p, normal, mult)
                assert oracle._poly_vanishes_mod_power(p, normal, mult) == want
                outcomes.add(want)
    assert outcomes == {True, False}
