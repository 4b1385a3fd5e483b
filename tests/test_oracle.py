"""The exact derivation-module engine: graded dimensions, minimal generators,
Saito certification, and freeness verdicts on classical fixtures."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from braidfree import (EdgeBicoloredGraph, MultiArrangement, MultiBraidSpec,
                       UnsupportedSizeError, classify, freeness_verdict,
                       graded_dimension, minimal_generators, saito_check,
                       to_arrangement)
from braidfree.linalg import primitive
from braidfree.oracle import (DerivationElement, FREE, INCONCLUSIVE, NONFREE,
                              coordinate_derivations, monomials)

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


def test_minimal_generators_examples():
    empty = MultiArrangement(3, ())
    cert = minimal_generators(empty)
    assert cert.new_generator_table[0] == 3 and cert.generator_degrees == (0, 0, 0)

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
