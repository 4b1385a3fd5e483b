"""braidfree: bicolor-eliminable graphs, free multiplicities on braid
arrangements, deformations from directed graphs, and an exact-arithmetic
derivation-module oracle to verify it all at desk scale."""

__version__ = "0.1.0"

from .graphs import (ABSENT, MINUS, PLUS, DirectedGraph, EdgeBicoloredGraph,
                     GraphClass, UnsupportedSizeError, canonical_key, color_swap,
                     enumerate_classes, induced_subgraph, permute_graph)
from .eliminate import (EliminabilityResult, Filtration, Ordering,
                        StructuralReport, complete_filtration, find_ordering,
                        is_eliminable, is_valid_ordering, iter_valid_orderings,
                        structural_check, structurally_eliminable, tilde_degrees)
from .multibraid import (CharPoly, MultiBraidSpec, Verdict, char_poly, classify,
                         dual_spec, euler_multiplicity, euler_restrict_spec,
                         lmp2, rank2_exponents, theorem_scope, to_arrangement)
from .oracle import (FREE, INCONCLUSIVE, NONFREE, DerivationElement,
                     FreenessCertificate, MultiArrangement, freeness_verdict,
                     graded_dimension, minimal_generators, saito_check)
from .deform import (DeformationSpec, DeformationVerdict, UNDETERMINED,
                     build_and_cone, check_a1_a2, deformation_verdict,
                     ziegler_spec)

__all__ = [name for name in dir() if not name.startswith("_")]
