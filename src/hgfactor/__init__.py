"""Coloured directed hypergraphs: hereditary properties, their
join-decompositions, and bounded factorization into irreducible parts.

The layers build on each other:

- core: graphs, edges, isomorphism, canonical forms, text format
- generate: exhaustive enumeration of graphs and partitions
- props: membership tests (forbidden sets, products, bounded generators)
- decomp: join subset tests, maximal part counts, strictness
- construct: tracked-copy supergraphs forcing decomposition shapes
- factor: dec brackets, irreducibility certificates, factor search
- cli: the hgfactor command
"""

from .core import (
    CANONICAL_ORDER_CAP,
    CapExceededError,
    EdgeKind,
    EdgeObject,
    Embedding,
    FormatError,
    HgError,
    Hypergraph,
    Universe,
    UniverseMismatchError,
    canonical_form,
    canonical_key,
    connected_components,
    crossing_edge_candidates,
    disjoint_union,
    embed_induced,
    format_hypergraph,
    induced,
    is_connected,
    is_isomorphic,
    join_members,
    parse_hypergraph,
    relabel,
    replicate,
    simple_graph,
    simple_universe,
)
from .generate import (
    HARD_VERTEX_CAP,
    EnumSpec,
    enumerate_hypergraphs,
    enumerate_partitions,
)
from .props import (
    BoundExceededError,
    FiniteForbidden,
    ForbiddenWitness,
    GeneratedBounded,
    MembershipResult,
    PartitionAssignment,
    ProductProperty,
    Property,
    forbidden_property,
    forbidden_up_to,
    format_property,
    is_additive,
    load_property,
    member,
    min_forbidden_order,
    minimize_forbidden,
    parse_property,
    partition_solve,
    save_property,
)
from .decomp import (
    BOUNDED,
    EXACT,
    DecResult,
    DecWitness,
    Decomposition,
    JoinCheck,
    StrictnessWitness,
    all_decompositions,
    dec_number,
    ind_parts,
    is_decomposition,
    is_strict,
    is_uniquely_decomposable,
    join_subset_of,
    multiplicity,
    respects,
    respects_uniformly,
    strictify,
    strictness_witness,
    unique_decomposition,
)
from .construct import (
    ArrowPattern,
    CopyTracked,
    aligning_super,
    decomposition_blocker,
    forcing_pair,
    format_copy_tracked,
    parse_copy_tracked,
    unique_respect_super,
    unique_super,
)
from .factor import (
    IRREDUCIBLE_CERTIFIED,
    REDUCIBLE,
    UNKNOWN,
    DecBounds,
    Factorisation,
    FullMultiplicityError,
    IrreducibilityVerdict,
    VerifyResult,
    case_split,
    dec_bounds,
    factor_search,
    ind_part_family,
    irreducibility_test,
    verify_factorisation,
)

__version__ = "0.1.0"
