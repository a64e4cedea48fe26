"""Monotone connectivity-raising reorientation of directed hypergraphs.

Any orientation of a sufficiently partition-connected hypergraph can be
turned into a ``k``-hyperarc-connected one by reorienting a single hyperarc
at a time without ever decreasing the connectivity.  This package computes
such sequences and everything they rest on:

* exact hypergraph/orientation primitives and degree functions (``core``),
* minimum-degree separators and hyperarc-connectivity by max flow, each
  flow a list of heads whose augmenting hyperpaths it reverses
  (``separator``),
* tight-set families, per-vertex minimal tight sets, and safe endpoint
  tests (``families``),
* admissible hyperpath search (``pathsearch``),
* the augmentation loop with certified traces and an independent trace
  verifier (``augment``),
* literal brute-force reference implementations for desk-scale
  certification (``oracle``),
* a feasible-instance generator, text formats, and a CLI (``toolkit``,
  ``cli``).

Quick tour::

    >>> import hyperorient as ho
    >>> h = ho.hypergraph(3, [(0, 1), (0, 1), (1, 2), (1, 2), (0, 2), (0, 2)])
    >>> o = ho.Orientation(h, (1, 1, 2, 2, 2, 2))
    >>> ho.hyperarc_connectivity(h, o)
    0
    >>> trace = ho.augment_to(h, o, 2)
    >>> trace.lambda_final, ho.verify_trace(h, trace).ok
    (2, True)
"""

from .augment import (
    NotPartitionConnectedError,
    PathEvent,
    ReorientationStep,
    ReorientationTrace,
    VerifyFailure,
    VerifyReport,
    apply_trace,
    augment_one,
    augment_to,
    verify_trace,
)
from .core import (
    Hypergraph,
    Hyperpath,
    InvalidReorientation,
    InvariantViolation,
    Orientation,
    Partition,
    PathArc,
    PreconditionError,
    VertexSet,
    canonical_sorted,
    crossing,
    crossing_edges,
    degree,
    hypergraph,
    in_degree,
    minimal_members,
    out_degree,
    reorient,
    trim,
)
from .families import (
    CutFamilies,
    compute_families,
    find_safe_sink,
    find_safe_source,
    is_in_dangerous,
    is_in_tight,
    is_out_dangerous,
    is_out_tight,
    is_safe_sink,
    is_safe_source,
)
from .oracle import (
    bf_families,
    bf_lambda,
    bf_min_separator,
    bf_orientation_exists,
    bf_partition_connected,
    bf_safe_sink,
    bf_safe_source,
    bf_tight_families,
    iter_partitions,
)
from .pathsearch import (
    AdmissiblePath,
    admissible_path_in_tminus,
    admissible_path_in_tplus,
    reachability_check,
)
from .separator import (
    IncidenceDigraph,
    hyperarc_connectivity,
    incidence_digraph,
    max_flow_min_cut,
    min_separator,
)
from .toolkit import (
    GenSpec,
    ParseError,
    format_hypergraph,
    format_orientation,
    format_trace,
    gen_instance,
    gen_orientation,
    parse_hypergraph,
    parse_orientation,
    parse_trace,
)

__version__ = "0.1.0"

__all__ = [
    "AdmissiblePath",
    "CutFamilies",
    "GenSpec",
    "Hypergraph",
    "Hyperpath",
    "IncidenceDigraph",
    "InvalidReorientation",
    "InvariantViolation",
    "NotPartitionConnectedError",
    "Orientation",
    "ParseError",
    "Partition",
    "PathArc",
    "PathEvent",
    "PreconditionError",
    "ReorientationStep",
    "ReorientationTrace",
    "VerifyFailure",
    "VerifyReport",
    "VertexSet",
    "admissible_path_in_tminus",
    "admissible_path_in_tplus",
    "apply_trace",
    "augment_one",
    "augment_to",
    "bf_families",
    "bf_lambda",
    "bf_min_separator",
    "bf_orientation_exists",
    "bf_partition_connected",
    "bf_safe_sink",
    "bf_safe_source",
    "bf_tight_families",
    "canonical_sorted",
    "compute_families",
    "crossing",
    "crossing_edges",
    "degree",
    "find_safe_sink",
    "find_safe_source",
    "format_hypergraph",
    "format_orientation",
    "format_trace",
    "gen_instance",
    "gen_orientation",
    "hyperarc_connectivity",
    "hypergraph",
    "in_degree",
    "incidence_digraph",
    "is_in_dangerous",
    "is_in_tight",
    "is_out_dangerous",
    "is_out_tight",
    "is_safe_sink",
    "is_safe_source",
    "iter_partitions",
    "max_flow_min_cut",
    "min_separator",
    "minimal_members",
    "out_degree",
    "parse_hypergraph",
    "parse_orientation",
    "parse_trace",
    "reachability_check",
    "reorient",
    "trim",
    "verify_trace",
]
