"""The record classes behave as the ``dataclasses`` classes they replace:
constructor, equality, hashing, ``repr``, frozenness and pickling, on one
instance of each of the 18 records."""

import pickle

import pytest

from braidfree._record import record
from braidfree.deform import DeformationSpec, deformation_verdict
from braidfree.eliminate import (HillWitness, MountainWitness, Ordering, complete_filtration,
                                 find_ordering, is_eliminable, structural_check)
from braidfree.graphs import MINUS, PLUS, DirectedGraph, EdgeBicoloredGraph, GraphClass
from braidfree.multibraid import CharPoly, MultiBraidSpec, classify
from braidfree.oracle import (DerivationElement, FreenessCertificate, MultiArrangement,
                              freeness_verdict)


def _instances() -> dict:
    g = EdgeBicoloredGraph.from_edges(3, plus=[(1, 2)], minus=[(2, 3)])
    spec = MultiBraidSpec(1, (0, 1, 0), g)
    verdict = classify(spec)
    arr = MultiArrangement.build(2, [((1, 0), 2), ((0, 1), 1), ((1, -1), 1)])
    cert = freeness_verdict(arr)
    dspec = DeformationSpec(DirectedGraph.from_arcs(3, [(1, 2), (2, 3)]), 0)
    return {
        "EdgeBicoloredGraph": g,
        "GraphClass": GraphClass(b"\x02\x01", EdgeBicoloredGraph.from_digits(2, (1,)), 1),
        "DirectedGraph": dspec.digraph,
        "Ordering": Ordering.from_by_rank((2, 1, 3)),
        "Filtration": complete_filtration(g, find_ordering(g)),
        "MountainWitness": MountainWitness(PLUS, (1, 2, 3), 4),
        "HillWitness": HillWitness(MINUS, (1, 2), 3, 4),
        "StructuralReport": structural_check(g),
        "EliminabilityResult": is_eliminable(g),
        "MultiBraidSpec": spec,
        "Verdict": verdict,
        "CharPoly": CharPoly.of(verdict),
        "MultiArrangement": arr,
        "DerivationElement": DerivationElement(1, ({(1, 0): 1}, {(0, 1): -2})),
        "FreenessCertificate": cert,
        "_EssentialForm": cert.essential_form,
        "DeformationSpec": dspec,
        "DeformationVerdict": deformation_verdict(dspec),
    }


INSTANCES = _instances()

# the compare-fields of each record, in field order; they are also its init
# fields
FIELDS = {
    "EdgeBicoloredGraph": ("n", "mat"),
    "GraphClass": ("canonical_key", "representative", "labeled_count"),
    "DirectedGraph": ("n", "arcs"),
    "Ordering": ("ranks", "by_rank"),
    "Filtration": ("steps", "added_edges", "ordering"),
    "MountainWitness": ("sigma", "path", "omega"),
    "HillWitness": ("sigma", "path", "omega1", "omega2"),
    "StructuralReport": ("graph",),
    "EliminabilityResult": ("eliminable", "ordering", "structural"),
    "MultiBraidSpec": ("k", "n", "graph"),
    "Verdict": ("status", "condition", "exponents", "ordering", "tilde", "structural"),
    "CharPoly": ("roots",),
    "MultiArrangement": ("dim", "hyperplanes"),
    "DerivationElement": ("degree", "components"),
    "FreenessCertificate": ("status", "ambient_dim", "multiplicity_sum", "generator_degrees",
                            "dimension_table", "new_generator_table", "saito_point", "seed",
                            "budget", "note", "essential_form", "essential_generators"),
    "_EssentialForm": ("ess", "pivots", "forms", "center"),
    "DeformationSpec": ("digraph", "k"),
    "DeformationVerdict": ("status", "a1", "a2", "witness_triple", "ziegler",
                           "ziegler_verdict", "note"),
}

# repr of each instance as the dataclass versions printed it
REPRS = {
    'EdgeBicoloredGraph': 'EdgeBicoloredGraph(n=3, mat=((0, 0, 0, 0), (0, 0, 1, 0), (0, 1, 0, 2), (0, 0, 2, 0)))',
    'GraphClass': "GraphClass(canonical_key=b'\\x02\\x01', representative=EdgeBicoloredGraph(n=2, mat=((0, 0, 0), (0, 0, 1), (0, 1, 0))), labeled_count=1)",
    'DirectedGraph': 'DirectedGraph(n=3, arcs=frozenset({(2, 3), (1, 2)}))',
    'Ordering': 'Ordering(ranks=(2, 1, 3), by_rank=(2, 1, 3))',
    'Filtration': 'Filtration(steps=(EdgeBicoloredGraph(n=3, mat=((0, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0))), EdgeBicoloredGraph(n=3, mat=((0, 0, 0, 0), (0, 0, 1, 0), (0, 1, 0, 0), (0, 0, 0, 0))), EdgeBicoloredGraph(n=3, mat=((0, 0, 0, 0), (0, 0, 1, 0), (0, 1, 0, 2), (0, 0, 2, 0)))), added_edges=(((1, 2), 1), ((2, 3), 2)), ordering=Ordering(ranks=(1, 3, 2), by_rank=(1, 3, 2)))',
    'MountainWitness': 'MountainWitness(sigma=1, path=(1, 2, 3), omega=4)',
    'HillWitness': 'HillWitness(sigma=2, path=(1, 2), omega1=3, omega2=4)',
    'StructuralReport': 'StructuralReport(graph=EdgeBicoloredGraph(n=3, mat=((0, 0, 0, 0), (0, 0, 1, 0), (0, 1, 0, 2), (0, 0, 2, 0))))',
    'EliminabilityResult': 'EliminabilityResult(eliminable=True, ordering=Ordering(ranks=(1, 3, 2), by_rank=(1, 3, 2)), structural=StructuralReport(graph=EdgeBicoloredGraph(n=3, mat=((0, 0, 0, 0), (0, 0, 1, 0), (0, 1, 0, 2), (0, 0, 2, 0)))))',
    'MultiBraidSpec': 'MultiBraidSpec(k=1, n=(0, 1, 0), graph=EdgeBicoloredGraph(n=3, mat=((0, 0, 0, 0), (0, 0, 1, 0), (0, 1, 0, 2), (0, 0, 2, 0))))',
    'Verdict': "Verdict(status='Free', condition='a', exponents=(0, 4, 4), ordering=Ordering(ranks=(1, 3, 2), by_rank=(1, 3, 2)), tilde=(0, 0, 0), structural=StructuralReport(graph=EdgeBicoloredGraph(n=3, mat=((0, 0, 0, 0), (0, 0, 1, 0), (0, 1, 0, 2), (0, 0, 2, 0)))))",
    'CharPoly': 'CharPoly(roots=(0, 0, 4, 4))',
    'MultiArrangement': 'MultiArrangement(dim=2, hyperplanes=(((1, 0), 2), ((0, 1), 1), ((1, -1), 1)))',
    'DerivationElement': 'DerivationElement(degree=1, components=({(1, 0): 1}, {(0, 1): -2}))',
    'FreenessCertificate': "FreenessCertificate(status='Free', ambient_dim=2, multiplicity_sum=4, generator_degrees=(2, 2), dimension_table={0: 0, 1: 0, 2: 2}, new_generator_table={0: 0, 1: 0, 2: 2}, saito_point=(5, 7), seed=0, budget=4, note=None)",
    '_EssentialForm': '_EssentialForm(ess=MultiArrangement(dim=2, hyperplanes=(((1, 0), 2), ((0, 1), 1), ((1, -1), 1))), pivots=(0, 1), forms=((1, 0), (0, 1)), center=())',
    'DeformationSpec': 'DeformationSpec(digraph=DirectedGraph(n=3, arcs=frozenset({(2, 3), (1, 2)})), k=0)',
    'DeformationVerdict': 'DeformationVerdict(status=\'Undetermined\', a1=False, a2=True, witness_triple=(1, 2, 3), ziegler=MultiBraidSpec(k=1, n=(0, 0, 0), graph=EdgeBicoloredGraph(n=3, mat=((0, 0, 0, 0), (0, 0, 0, 2), (0, 0, 0, 0), (0, 2, 0, 0)))), ziegler_verdict=Verdict(status=\'Free\', condition=\'a\', exponents=(0, 2, 3), ordering=Ordering(ranks=(3, 1, 2), by_rank=(2, 3, 1)), tilde=(0, 0, -1), structural=StructuralReport(graph=EdgeBicoloredGraph(n=3, mat=((0, 0, 0, 0), (0, 0, 0, 2), (0, 0, 0, 0), (0, 2, 0, 0))))), note="conditions (A1)/(A2) fail but the restriction to infinity is free; the converse direction of Athanasiadis\'s conjecture is open, so no verdict is claimed")',
}

NAMES = sorted(INSTANCES)
FROZEN = [name for name in NAMES if name != "FreenessCertificate"]


def _values(name):
    x = INSTANCES[name]
    return [getattr(x, f) for f in FIELDS[name]]


def test_every_record_is_covered():
    assert len(NAMES) == 18
    assert set(NAMES) == set(FIELDS) == set(REPRS)
    for name, x in INSTANCES.items():
        assert type(x).__name__ == name


@pytest.mark.parametrize("name", NAMES)
def test_equality_compares_the_fields_within_one_class(name):
    x = INSTANCES[name]
    cls = type(x)
    positional = cls(*_values(name))
    by_keyword = cls(**dict(zip(FIELDS[name], _values(name))))
    assert x == positional == by_keyword and not x != positional
    assert x.__eq__(object()) is NotImplemented
    assert x != object() and x != tuple(_values(name))


@record(frozen=True)
class _SameFields:
    dim: int
    hyperplanes: tuple


def test_records_of_different_classes_with_equal_fields_differ():
    hyps = (((1, 0), 1), ((0, 1), 1))
    multi, other = MultiArrangement(2, hyps), _SameFields(2, hyps)
    assert multi != other and not multi == other


@pytest.mark.parametrize("name", FROZEN)
def test_frozen_hash_is_the_hash_of_the_field_tuple(name):
    x = INSTANCES[name]
    try:
        expected = hash(tuple(_values(name)))
    except TypeError:     # a DerivationElement holds dicts, as before
        with pytest.raises(TypeError):
            hash(x)
    else:
        assert hash(x) == expected


def test_derived_fields_take_no_part_in_equality_or_repr():
    g = INSTANCES["EdgeBicoloredGraph"]
    assert "adjacency" not in repr(g)
    assert hash(g) == hash((g.n, g.mat))
    cert = INSTANCES["FreenessCertificate"]
    fresh = FreenessCertificate(*_values("FreenessCertificate"))
    assert fresh._generators is None
    cert.generators          # read on one side only
    assert cert._generators is not None
    assert fresh == cert
    assert "essential" not in repr(cert) and "_generators" not in repr(cert)


@pytest.mark.parametrize("name", NAMES)
def test_repr_matches_the_dataclass_text(name):
    assert repr(INSTANCES[name]) == REPRS[name]


@pytest.mark.parametrize("name", FROZEN)
def test_frozen_records_refuse_assignment_and_deletion(name):
    x = INSTANCES[name]
    before = repr(x)
    for attr in FIELDS[name] + ("not_a_field",):
        with pytest.raises(AttributeError):
            setattr(x, attr, 0)
        with pytest.raises(AttributeError):
            delattr(x, attr)
    assert repr(x) == before


@pytest.mark.parametrize("name", NAMES)
def test_every_instance_keeps_its_fields_in_its_dict(name):
    x = INSTANCES[name]
    assert set(FIELDS[name]) <= vars(x).keys()


def test_freeness_certificate_stays_mutable_and_unhashable():
    cert = FreenessCertificate(*_values("FreenessCertificate"))
    assert FreenessCertificate.__hash__ is None
    with pytest.raises(TypeError):
        hash(cert)
    cert.note = "changed"
    assert cert.note == "changed" and cert != INSTANCES["FreenessCertificate"]
    del cert.note
    assert cert.note is None       # the class default shows through


def test_defaults_and_init_false_fields():
    values = _values("FreenessCertificate")[:9]
    cert = FreenessCertificate(*values)
    assert (cert.note, cert.essential_form, cert.essential_generators) == (None, None, None)
    assert cert.generators is None
    with pytest.raises(TypeError):
        FreenessCertificate(*values, _generators=())
    g = INSTANCES["EdgeBicoloredGraph"]
    for call in (lambda: EdgeBicoloredGraph(g.n, g.mat, g.adjacency),
                 lambda: EdgeBicoloredGraph(g.n, g.mat, adjacency=g.adjacency)):
        with pytest.raises(TypeError):
            call()


@pytest.mark.parametrize("name", NAMES)
def test_wrong_arguments_raise_type_error(name):
    cls = type(INSTANCES[name])
    values = _values(name)
    required = values[:9] if name == "FreenessCertificate" else values
    first = FIELDS[name][0]
    calls = [
        lambda: cls(),                                  # missing
        lambda: cls(*required[:-1]),                    # the last required one missing
        lambda: cls(*values, not_a_field=1),            # unexpected keyword
        lambda: cls(*values, values[-1]),               # one positional too many
        lambda: cls(*values, **{first: values[0]}),     # a field given twice
    ]
    for call in calls:
        with pytest.raises(TypeError):
            call()


G3 = EdgeBicoloredGraph.from_edges(3, plus=[(1, 2)])


@pytest.mark.parametrize("cls, kwargs, message", [
    (EdgeBicoloredGraph, {"n": 0, "mat": ((0,),)}, "vertex count must be positive"),
    (EdgeBicoloredGraph, {"n": 2, "mat": ((0, 0), (0, 0))}, "color matrix has wrong shape"),
    (DirectedGraph, {"n": 2, "arcs": frozenset({(1, 1)})}, "loops are not allowed"),
    (DirectedGraph, {"n": 2, "arcs": frozenset({(1, 3)})}, r"arc \(1,3\) out of range"),
    (Ordering, {"ranks": (1, 2), "by_rank": (2, 1)}, "ranks and by_rank are inconsistent"),
    (Ordering, {"ranks": (0, 1), "by_rank": (1, 0)}, "an ordering must be a permutation"),
    (MultiBraidSpec, {"k": -1, "n": (0, 0, 0), "graph": G3}, "k must be non-negative"),
    (MultiBraidSpec, {"k": 0, "n": (0, 0), "graph": G3}, "one shift per vertex is required"),
    (MultiBraidSpec, {"k": 0, "n": (0, -1, 0), "graph": G3}, "vertex shifts must be non-negative"),
    (MultiArrangement, {"dim": 0, "hyperplanes": ()}, "ambient dimension must be positive"),
    (MultiArrangement, {"dim": 2, "hyperplanes": (((1, 0), 0),)}, "multiplicities must be positive"),
    (MultiArrangement, {"dim": 2, "hyperplanes": (((1, 0), 1), ((2, 0), 1))}, "proportional normals"),
    (DeformationSpec, {"digraph": DirectedGraph(2, frozenset()), "k": -1}, "k must be non-negative"),
])
def test_post_init_checks_keep_their_messages(cls, kwargs, message):
    for call in (lambda: cls(*kwargs.values()), lambda: cls(**kwargs)):
        with pytest.raises(ValueError, match=message):
            call()


def _round_trip(x):
    return pickle.loads(pickle.dumps(x))


def test_graph_and_spec_pickle():
    g, spec = INSTANCES["EdgeBicoloredGraph"], INSTANCES["MultiBraidSpec"]
    g2, spec2 = _round_trip(g), _round_trip(spec)
    assert g2 == g and g2.adjacency == g.adjacency and hash(g2) == hash(g)
    assert spec2 == spec and spec2.graph.adjacency == g.adjacency


def test_verdict_with_read_conditions_pickles():
    verdict = classify(MultiBraidSpec(0, (0, 0, 0, 0), EdgeBicoloredGraph.from_edges(
        4, plus=[(1, 2), (2, 3), (3, 4), (1, 4)])))
    report = verdict.structural
    conditions = (report.chordal_plus, report.chordal_minus, report.bad_quadruple,
                  report.mountain, report.hill)
    copy = _round_trip(verdict)
    assert copy == verdict and repr(copy) == repr(verdict)
    kept = copy.structural.__dict__
    assert (kept["chordal_plus"], kept["chordal_minus"], kept["bad_quadruple"],
            kept["mountain"], kept["hill"]) == conditions
    assert copy.structural.passes == report.passes


def test_deformation_verdict_pickles():
    verdict = INSTANCES["DeformationVerdict"]
    copy = _round_trip(verdict)
    assert copy == verdict and repr(copy) == repr(verdict) and hash(copy) == hash(verdict)
