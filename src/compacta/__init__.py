"""Exact workbench for labelled trees, their limit compacta in [0,1],
and the labelled Boolean algebras dual to them."""

from .dyadic import Address, Dyadic, midpoint
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
    parse_compactum,
    print_compactum,
    reduce_intoms,
    reduction,
    satisfies_inf,
)
from .construct import (
    construct_limit,
    enumerate_stage,
    hausdorff_gap,
    stone_space,
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
    is_balanced,
    parse_ba,
    print_ba,
    quotient_by_junk,
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
    generalized_tooth,
    parse_plf,
    plf,
    print_plf,
    scale,
    stage_points,
    sup_norm,
    unit_sup,
)

import types as _types

__all__ = [
    name
    for name, value in list(globals().items())
    if not name.startswith("_") and not isinstance(value, _types.ModuleType)
]
