"""Braid deformations from digraphs: the arc conditions, coning, the
restriction to infinity, and the three-way verdict."""

import itertools

import pytest

from braidfree import deform
from braidfree import (DeformationSpec, DirectedGraph, UNDETERMINED,
                       build_and_cone, check_a1_a2, classify,
                       deformation_verdict, ziegler_spec)
from braidfree.graphs import ABSENT, MINUS, PLUS
from braidfree.multibraid import FREE, NONFREE


def digraph(n, arcs):
    return DirectedGraph.from_arcs(n, arcs)


def all_digraphs(n):
    pairs = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
    for bits in itertools.product((0, 1), repeat=len(pairs)):
        yield digraph(n, [p for p, b in zip(pairs, bits) if b])


def test_check_a1_a2_examples():
    assert check_a1_a2(digraph(4, []))[:2] == (True, True)
    complete = digraph(4, [(i, j) for i in range(1, 5) for j in range(1, 5) if i != j])
    assert check_a1_a2(complete)[:2] == (True, True)
    a1, a2, witness = check_a1_a2(digraph(3, [(1, 2)]))
    assert (a1, a2) == (False, True) and witness == (1, 2, 3)


def sheet_constants(cone):
    """The affine sheets' constants c, each read off its cone hyperplane
    x_i - x_j - c z = 0 as minus its z-coefficient; the infinity hyperplane
    z = 0 comes last and is not a sheet."""
    n = cone.dim - 1
    assert cone.hyperplanes[-1] == ((0,) * n + (1,), 1)
    return sorted(-normal[n] for normal, _ in cone.hyperplanes[:-1])


def test_build_and_cone_examples():
    cone = build_and_cone(DeformationSpec(digraph(2, []), 0))
    assert sheet_constants(cone) == [0]
    assert len(cone.hyperplanes) == 2

    cone = build_and_cone(DeformationSpec(digraph(2, [(1, 2), (2, 1)]), 0))
    assert sheet_constants(cone) == [-1, 0, 1]

    cone = build_and_cone(DeformationSpec(digraph(2, [(1, 2)]), 1))
    assert sheet_constants(cone) == [-2, -1, 0, 1]


def test_cone_is_simple_and_counts_match():
    for g in (digraph(3, [(1, 2)]), digraph(3, [(1, 2), (2, 1), (3, 1)])):
        spec = DeformationSpec(g, 0)
        cone = build_and_cone(spec)
        assert all(m == 1 for _, m in cone.hyperplanes)
        sheets = sheet_constants(cone)
        assert len(cone.hyperplanes) == len(sheets) + 1
        # total restricted multiplicity equals the number of affine sheets
        assert ziegler_spec(spec).multiplicity_sum == len(sheets)


def test_ziegler_spec_examples():
    z = ziegler_spec(DeformationSpec(digraph(3, []), 0))
    assert z.k == 1 and set(z.multiplicities().values()) == {1}
    assert all(z.graph.mat[i][j] == MINUS for i in range(1, 4) for j in range(i + 1, 4))

    complete = digraph(3, [(i, j) for i in range(1, 4) for j in range(1, 4) if i != j])
    z = ziegler_spec(DeformationSpec(complete, 0))
    assert set(z.multiplicities().values()) == {3}
    assert all(z.graph.mat[i][j] == PLUS for i in range(1, 4) for j in range(i + 1, 4))

    z = ziegler_spec(DeformationSpec(digraph(3, [(1, 2)]), 0))
    assert z.graph.mat[1][2] == ABSENT
    assert z.graph.mat[1][3] == MINUS and z.graph.mat[2][3] == MINUS
    assert z.multiplicities() == {(1, 2): 2, (1, 3): 1, (2, 3): 1}


def test_deformation_verdict_examples():
    complete = digraph(4, [(i, j) for i in range(1, 5) for j in range(1, 5) if i != j])
    assert deformation_verdict(DeformationSpec(complete, 0)).status == FREE
    assert deformation_verdict(DeformationSpec(digraph(4, []), 0)).status == FREE

    v = deformation_verdict(DeformationSpec(digraph(3, [(1, 2)]), 0))
    assert not v.a1 and v.a2
    # every 3-vertex restriction graph passes elimination, so this one is
    # undetermined rather than non-free
    assert v.status == UNDETERMINED
    assert v.ziegler_verdict.status == FREE


def test_nonfree_branch_exists_on_four_vertices():
    # a single arc on 4 vertices: the restriction graph is K4 minus an edge
    # in Minus with one Absent pair
    v = deformation_verdict(DeformationSpec(digraph(4, [(1, 2)]), 0))
    assert not v.a1
    assert v.status in (NONFREE, UNDETERMINED)
    assert v.status == (NONFREE if v.ziegler_verdict.status == NONFREE else UNDETERMINED)


def test_conditions_imply_eliminable_restriction_exhaustive():
    # over every digraph on up to 4 vertices: (A1) and (A2) force the
    # restriction graph into the free classification
    for n in (2, 3, 4):
        for g in all_digraphs(n):
            a1, a2, _ = check_a1_a2(g)
            if a1 and a2:
                spec = DeformationSpec(g, 0)
                assert classify(ziegler_spec(spec)).status == FREE
                assert deformation_verdict(spec).status == FREE


def test_level_shifts_ziegler_level():
    z = ziegler_spec(DeformationSpec(digraph(3, [(1, 2)]), 2))
    assert z.k == 3
    assert z.multiplicities()[(1, 2)] == 2 * 2 + 1 + 1


def test_ziegler_spec_colors_by_arc_count_on_every_three_vertex_digraph():
    # Plus for two arcs between a pair, Absent for one, Minus for none
    color = {2: PLUS, 1: ABSENT, 0: MINUS}
    for g in all_digraphs(3):
        for k in (0, 1):
            z = ziegler_spec(DeformationSpec(g, k))
            assert z.k == k + 1 and z.n == (0, 0, 0)
            assert all(z.graph.mat[i][j] == z.graph.mat[j][i] == color[g.has_arc(i, j)
                                                                      + g.has_arc(j, i)]
                       for i, j in itertools.combinations(range(1, 4), 2))


def test_each_branch_keeps_its_note(monkeypatch):
    cases = [
        (digraph(4, []), FREE,
         "conditions (A1) and (A2) hold, so the cone is free"),
        (digraph(4, [(3, 2), (4, 1)]), NONFREE,
         "the restriction to infinity is non-free, so the cone is non-free"),
        (digraph(3, [(1, 2)]), UNDETERMINED,
         "conditions (A1)/(A2) fail but the restriction to infinity is free; "
         "the converse direction of Athanasiadis's conjecture is open, so no "
         "verdict is claimed"),
    ]
    for g, status, note in cases:
        spec = DeformationSpec(g, 0)
        v = deformation_verdict(spec)
        assert (v.status, v.note) == (status, note)
        assert v.ziegler == ziegler_spec(spec)
        assert (v.a1, v.a2, v.witness_triple) == check_a1_a2(g)
    # (A1)/(A2) holding with a non-free restriction is an internal bug
    nonfree = classify(ziegler_spec(DeformationSpec(digraph(4, [(3, 2), (4, 1)]), 0)))
    monkeypatch.setattr(deform, "classify", lambda z: nonfree)
    with pytest.raises(AssertionError, match=r"^conditions \(A1\)/\(A2\) hold but the "
                       r"infinity restriction is not free; this is a bug$"):
        deformation_verdict(DeformationSpec(digraph(4, []), 0))
