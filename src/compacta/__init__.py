"""Exact workbench for labelled trees, their limit compacta in [0,1],
and the labelled Boolean algebras dual to them."""

from .dyadic import Address, Dyadic, address_ends, midpoint
from .trees import (
    ETA,
    Event,
    LabelledTree,
    Node,
    SPINE,
    SPLIT,
    StageScript,
    TERMINAL,
    fishbone,
    limit_tree,
    parse_script,
    parse_tree,
    print_script,
    print_tree,
    single_node_tree,
)
from .compactum import (
    Cantor,
    CompactumForm,
    Interval,
    Point,
    PointSeq,
    SymbolicCompactum,
    all_clopen_selectors,
    canonical_form,
    cb_derivative,
    compactum,
    compactum_contains,
    derived_selector,
    is_intom,
    parse_compactum,
    print_compactum,
    reduce_intoms,
    reduction,
    satisfies_inf,
    select,
)
from .construct import (
    construct_limit,
    enumerate_stage,
    seed_point,
    hausdorff_gap,
    junk_points,
    replacement_bridges,
)
from .boolalg import (
    AtomIso,
    BAForm,
    Cluster,
    LabelledBA,
    QuotientIso,
    algebra,
    build_isomorphism,
    clopen_algebra,
    cluster,
    interval_algebra,
    is_balanced,
    parse_ba,
    print_ba,
    quotient_by_junk,
    stone_space,
    tree_algebra,
    verify_isomorphism,
)
from .boolalg import canonical_form as algebra_form
from .compact import (
    Ball,
    CoverCertificate,
    balls_intersect,
    clopen_partitions,
    cover,
    cover_is_valid,
    parse_cover,
    print_cover,
)
from .banach import (
    HostedFunction,
    PLFunction,
    add,
    dense_family,
    dist,
    generalized_tooth,
    parse_plf,
    plf,
    print_plf,
    scale,
    stage_points,
    sup_norm,
    tooth,
    unit_sup,
)

import types as _types

__all__ = [
    name
    for name, value in list(globals().items())
    if not name.startswith("_") and not isinstance(value, _types.ModuleType)
]
