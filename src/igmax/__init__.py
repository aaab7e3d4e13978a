"""Maximal subgroups of free idempotent generated semigroups over T_n / PT_n.

Builds the rank-k D-class of the full (partial) transformation monoid as a
grid of H-classes, assembles the associated group presentation from anchors,
Schreier words and singular squares, and identifies the presented group by
coset enumeration, abelianization, and an explicit homomorphism onto the
symmetric group of the base image.
"""

from .dclass import DClassGrid, anchors, build_grid, enumerate_idempotents, sandwich_matrix
from .errors import StructuralError
from .groupid import (
    AbelianInvariants,
    CosetTable,
    IdentificationReport,
    abelian_invariants,
    identify,
    perm_group_order,
    rees_hom,
    todd_coxeter,
    verify_hom,
)
from .presentation import (
    GHGraph,
    GroupPresentation,
    build_presentation,
    eliminate_partial_rows,
    free_rank,
    gh_graph,
    tietze_simplify,
)
from .ptrans import (
    KernelPartition,
    Monoid,
    PartialMap,
    compose,
)
from .schreier import (
    SchreierSystem,
    build_schreier,
    verify_schreier,
)
from .squares import SingularClass, enumerate_singular_squares

__version__ = "0.1.0"
