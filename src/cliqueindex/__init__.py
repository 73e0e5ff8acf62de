"""Clique indexing schemas.

Index tables that reference nodes of a complex structure (acyclic
digraph, interval collection, binary interval tree) by coloring the
intersection graph of a set-valued function, materializing the colors as
a relation, and answering queries with posting-list set algebra.
"""

from .bitset import CompressedBitset
from .digraph import (
    AcyclicDigraph,
    ChromaticBounds,
    DownHypergraph,
    ancestor_set_function,
    build_digraph,
    descendant_set_function,
    down_chromatic_bounds,
    down_conflict_graph,
    down_hypergraph,
    exact_down_chromatic,
    greedy_down_coloring,
    hypergraph_degeneracy,
    is_down_coloring,
    max_down_set_size,
    peel_degeneracy,
    read_edge_list,
)
from .endpoints import (
    EndpointSchema,
    IntervalRecord,
    TreeIntervalIndex,
    build_endpoint_schema,
    build_tree_interval_index,
    interval_query,
    interval_query_branches,
    stabbing_query,
    tree_interval_query,
)
from .engine import (
    And,
    Atom,
    BenchSpec,
    FactTable,
    Not,
    Or,
    PostingIndex,
    ScanOracle,
    aggregate_sum,
    bench,
    build_index,
    evaluate,
    evaluate_in,
    evaluate_with_stats,
    format_query,
    parse_query,
)
from .errors import (
    CliqueIndexError,
    ColorCollision,
    CycleDetected,
    EmptyDigraph,
    EmptyInput,
    InconsistentArity,
    InvalidRange,
    MalformedCsv,
    MalformedExpr,
    MeasureOverflow,
    OutOfRange,
    TooLargeForExact,
    UnknownNode,
)
from .intersection import (
    EntryColoring,
    IntersectionGraph,
    SetValuedFunction,
    build_intersection_graph,
    clique_lower_bound,
    exact_chromatic,
    greedy_color,
)
from .oracle import (
    oracle_degeneracy,
    oracle_intersection_graph,
    oracle_interval_intersections,
    oracle_tree_overlap,
)
from .schema import (
    CliqueTable,
    VerifyResult,
    compact_colors,
    export_table,
    import_table,
    materialize,
    recover_coloring,
    verify_schema,
)
from .tree import (
    ancestor_path,
    build_tree_schema,
    entry_members,
    extent,
    level,
    naive_overlap_function,
    overlap_query,
    tree_coloring,
    tree_entry_function,
    tree_fact_query,
    verify_tree_schema,
)

__version__ = "0.1.0"
