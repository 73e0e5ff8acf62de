"""Acyclic digraphs, their reachability closures and down-coloring bounds.

The central objects are reachability closures: the descendants-and-self set
of a node, and its mirror on the reversed digraph.  The inclusion-maximal
descendant sets form a hypergraph whose degeneracy, together with the
largest closure size, bounds how many colors a down-coloring needs (a
down-coloring gives any two nodes sharing an ancestor different colors).
That color count is the width of the dimension table extracted from the
digraph, which is why the bounds matter here.  A down-coloring is an
ordinary EntryColoring: a proper coloring of the intersection graph of
ancestor_set_function.

Node identifiers are opaque hashables externally; internally everything
runs on dense integer handles and bitmask sets.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from itertools import chain
from typing import Hashable, Iterable, Sequence

import numpy as np

from .errors import (
    CycleDetected,
    EmptyDigraph,
    TooLargeForExact,
    UnknownNode,
)
from .intersection import (
    DEFAULT_CHROMATIC_CAP,
    EntryColoring,
    IntersectionGraph,
    SetValuedFunction,
    build_intersection_graph,
    exact_chromatic,
    greedy_color,
    mask_positions,
)
from .schema import CsvInput

NodeId = Hashable

EXACT_DEGENERACY_CELLS = 1 << 20  # most subset x hyperedge cells hypergraph_degeneracy enumerates


class AcyclicDigraph:
    """Immutable acyclic digraph with memoized reachability closures.

    A closure is a Python-int mask over node handles (bit i = self.nodes[i]).
    The first closure query in a direction computes every node's mask in one
    topological pass, each node ORing its successors' (or predecessors')
    masks into its own bit, and keeps them; _all_desc_masks and
    _all_anc_masks are the only accessors.  Every caller in the package reads
    all closures anyway, so nothing is gained by computing them one node at
    a time.
    """

    def __init__(self, nodes: Sequence[NodeId], edges: Sequence[tuple[NodeId, NodeId]]):
        self.nodes: tuple[NodeId, ...] = tuple(nodes)
        self.edges: tuple[tuple[NodeId, NodeId], ...] = tuple(edges)
        self._index = {u: i for i, u in enumerate(self.nodes)}
        n = len(self.nodes)
        self._out: list[list[int]] = [[] for _ in range(n)]
        self._in: list[list[int]] = [[] for _ in range(n)]
        for s, t in self.edges:
            si, ti = self._index[s], self._index[t]
            self._out[si].append(ti)
            self._in[ti].append(si)
        self._topo = self._toposort_or_raise()
        self._desc_masks: tuple[int, ...] | None = None
        self._anc_masks: tuple[int, ...] | None = None

    # -- construction helpers ------------------------------------------------

    def _toposort_or_raise(self) -> tuple[int, ...]:
        n = len(self.nodes)
        indeg = [len(self._in[i]) for i in range(n)]
        queue = [i for i in range(n) if indeg[i] == 0]
        order: list[int] = []
        while queue:
            v = queue.pop()
            order.append(v)
            for w in self._out[v]:
                indeg[w] -= 1
                if indeg[w] == 0:
                    queue.append(w)
        if len(order) < n:
            raise CycleDetected(self._find_cycle({i for i in range(n) if indeg[i] > 0}))
        return tuple(order)

    def _find_cycle(self, remaining: set[int]) -> list[NodeId]:
        """A cycle among the nodes the sort left.  Each keeps a predecessor
        among them, while one downstream of a cycle may have no successor
        there, so the walk follows predecessors and is then reversed."""
        path: list[int] = []
        on_path: dict[int, int] = {}
        v = min(remaining)
        while v not in on_path:
            on_path[v] = len(path)
            path.append(v)
            v = next(w for w in self._in[v] if w in remaining)
        return [self.nodes[i] for i in reversed(path[on_path[v]:])]

    # -- reachability ----------------------------------------------------------

    def _closure_masks(self, order: Iterable[int], adj: list[list[int]]) -> tuple[int, ...]:
        """Every node's closure mask; `order` must reach each v after all of adj[v]."""
        masks = [0] * len(self.nodes)
        for v in order:
            mask = 1 << v
            for w in adj[v]:
                mask |= masks[w]
            masks[v] = mask
        return tuple(masks)

    def _all_desc_masks(self) -> tuple[int, ...]:
        """Descendants-and-self mask of every node handle."""
        if self._desc_masks is None:
            self._desc_masks = self._closure_masks(reversed(self._topo), self._out)
        return self._desc_masks

    def _all_anc_masks(self) -> tuple[int, ...]:
        """Ancestors-and-self mask of every node handle."""
        if self._anc_masks is None:
            self._anc_masks = self._closure_masks(self._topo, self._in)
        return self._anc_masks

    def _require(self, u: NodeId) -> int:
        try:
            return self._index[u]
        except KeyError:
            raise UnknownNode(u) from None

    def _unmask(self, mask: int) -> frozenset[NodeId]:
        return frozenset(map(self.nodes.__getitem__, mask_positions(mask).tolist()))

    def descendants_and_self(self, u: NodeId) -> frozenset[NodeId]:
        """All nodes reachable from u along edge direction, including u."""
        i = self._require(u)
        return self._unmask(self._all_desc_masks()[i])

    def ancestors_and_self(self, u: NodeId) -> frozenset[NodeId]:
        """Reachability on the reversed digraph, including u."""
        i = self._require(u)
        return self._unmask(self._all_anc_masks()[i])

    def __len__(self) -> int:
        return len(self.nodes)


def build_digraph(
    edge_list: Iterable[tuple[NodeId, NodeId]],
    isolated: Iterable[NodeId] = (),
) -> AcyclicDigraph:
    """Build a digraph from edge pairs plus optional isolated nodes.

    Duplicate edges are dropped silently; a cycle raises CycleDetected with
    one witness cycle.  Node order is first appearance.
    """
    edges = tuple(dict.fromkeys((s, t) for s, t in edge_list))
    nodes = tuple(dict.fromkeys(chain(chain.from_iterable(edges), isolated)))
    return AcyclicDigraph(nodes, edges)


class EdgeListDialect(csv.excel_tab):
    quoting = csv.QUOTE_NONE  # tab-separated, `"` an ordinary character


def read_edge_list(source) -> tuple[list[tuple[str, str]], list[str]]:
    """Parse the tab-separated edge-list format from a `CsvInput` source (a
    path, text or a file object), read in EdgeListDialect.

    One `source<TAB>target` edge per line; `#` starts a comment line and a
    blank line is skipped; a line `node<TAB>` with empty target declares an
    isolated node.  Returns (edges, isolated).  A malformed line is
    MalformedCsv naming its line and, for a path, the file.
    """
    edges: list[tuple[str, str]] = []
    isolated: list[str] = []
    with CsvInput(source, EdgeListDialect) as rows:
        for fields in rows:
            line = "\t".join(fields)
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            if len(fields) != 2 or not fields[0]:
                raise rows.error(f"expected 'source<TAB>target', got {line!r}")
            src, tgt = fields
            if tgt == "":
                isolated.append(src)
            else:
                edges.append((src, tgt))
    return edges, isolated


@dataclass(frozen=True)
class DownHypergraph:
    """Vertices of the digraph plus its inclusion-maximal closure sets."""

    vertices: tuple[NodeId, ...]
    hyperedges: tuple[frozenset[NodeId], ...]

    def __post_init__(self):
        if len(set(self.hyperedges)) != len(self.hyperedges):
            raise ValueError("hyperedges must be pairwise distinct")
        for e in self.hyperedges:
            for other in self.hyperedges:
                if e is not other and e < other:
                    raise ValueError(f"hyperedge {set(e)} is not maximal (contained in {set(other)})")


def down_hypergraph(g: AcyclicDigraph) -> DownHypergraph:
    """Keep the inclusion-maximal descendants-and-self sets: the closures of
    the sources, in node order.  A source lies in no other closure, and
    every closure lies inside some source's closure."""
    masks = g._all_desc_masks()
    sources = [i for i in range(len(g.nodes)) if not g._in[i]]
    return DownHypergraph(g.nodes, tuple(g._unmask(masks[i]) for i in sources))


def max_down_set_size(g: AcyclicDigraph) -> int:
    if not g.nodes:
        raise EmptyDigraph("max down-set size is undefined on an empty digraph")
    return max(m.bit_count() for m in g._all_desc_masks())


def _edge_masks(h: DownHypergraph) -> list[int]:
    index = {u: i for i, u in enumerate(h.vertices)}
    masks = []
    for e in h.hyperedges:
        m = 0
        for u in e:
            m |= 1 << index[u]
        masks.append(m)
    return masks


def hypergraph_degeneracy(h: DownHypergraph) -> int:
    """Exact degeneracy of the down-hypergraph: the max over vertex subsets
    of the minimum edge-membership degree.

    One vectorized pass over all 2^|V| subsets: restrict every hyperedge,
    drop restrictions under two vertices, deduplicate per subset, then take
    the min degree per subset and the max over subsets.  Raises
    TooLargeForExact when the subset x hyperedge table would exceed
    EXACT_DEGENERACY_CELLS cells.
    """
    width, cells = len(h.vertices), len(h.hyperedges) << len(h.vertices)
    if cells > EXACT_DEGENERACY_CELLS:
        raise TooLargeForExact(cells, EXACT_DEGENERACY_CELLS, what="subset x hyperedge table")
    if not h.hyperedges:
        return 0
    subsets = np.arange(1 << width, dtype=np.int64)
    restricted = subsets[:, None] & np.array(_edge_masks(h), dtype=np.int64)
    restricted[(restricted & (restricted - 1)) == 0] = 0  # fewer than two vertices
    restricted.sort(axis=1)
    distinct = np.empty(restricted.shape, dtype=bool)
    distinct[:, 0] = restricted[:, 0] != 0
    distinct[:, 1:] = (restricted[:, 1:] != restricted[:, :-1]) & (restricted[:, 1:] != 0)

    min_degree = np.full(len(subsets), np.iinfo(np.int64).max, dtype=np.int64)
    for u in range(width):
        degree_u = (((restricted >> u) & 1) * distinct).sum(axis=1)
        member = ((subsets >> u) & 1) == 1
        np.minimum(min_degree, degree_u, where=member, out=min_degree)
    min_degree[0] = 0  # the empty subset
    return int(min_degree.max())


def peel_degeneracy(h: DownHypergraph) -> int:
    """Lower bound on the degeneracy along one min-degree removal chain, with
    no size limit.  Restriction-and-dedup can break the monotonicity the
    graph argument relies on, so the chain value is never reported as exact.

    Each step counts every vertex's degree in one bincount of the distinct
    restrictions' positions and removes the live vertex of least degree,
    the lowest on a tie."""
    edge_masks = _edge_masks(h)
    n = len(h.vertices)
    alive = (1 << n) - 1
    best = 0
    while alive:
        restrictions = [r for r in {em & alive for em in edge_masks} if r.bit_count() >= 2]
        members = np.concatenate([np.empty(0, dtype=np.intp), *map(mask_positions, restrictions)])
        degree = np.bincount(members, minlength=n)
        live = mask_positions(alive)
        u = int(live[degree[live].argmin()])
        best = max(best, int(degree[u]))
        alive &= ~(1 << u)
    return best


@dataclass(frozen=True)
class ChromaticBounds:
    """Lower/upper bounds on the down-chromatic number.

    `degeneracy_exact` is False when the down-hypergraph's subset x
    hyperedge table exceeded EXACT_DEGENERACY_CELLS and the peel estimate
    fed the upper bound.
    """

    lower: int
    upper: int
    degeneracy: int
    degeneracy_exact: bool
    part: int


def down_chromatic_bounds(g: AcyclicDigraph) -> ChromaticBounds:
    """Bound the down-chromatic number from the closure structure.

    Lower bound: the largest descendants-and-self set is pairwise
    conflicting.  Upper bound: equals the lower bound when the hypergraph
    degeneracy is 1 or the largest set has 2 nodes; otherwise
    degeneracy * (largest - 2) + 1.  Both are greedy-achievable.  The
    degeneracy is exact when 2^|V| x sources is at most
    EXACT_DEGENERACY_CELLS (every digraph of up to 16 nodes), else the
    peel estimate.
    """
    if not g.nodes:
        raise EmptyDigraph("chromatic bounds are undefined on an empty digraph")
    if not g.edges:
        return ChromaticBounds(1, 1, 0, True, 0)
    largest = max_down_set_size(g)
    h = down_hypergraph(g)
    try:
        ind, exact = hypergraph_degeneracy(h), True
    except TooLargeForExact:
        ind, exact = peel_degeneracy(h), False
    if ind == 1 or largest == 2:
        return ChromaticBounds(largest, largest, ind, exact, 1)
    return ChromaticBounds(largest, max(largest, ind * (largest - 2) + 1), ind, exact, 2)


def is_down_coloring(g: AcyclicDigraph, coloring: EntryColoring) -> bool:
    """Direct enumeration: every descendants-and-self set is rainbow."""
    for u in g.nodes:
        closure = g.descendants_and_self(u)
        if len({coloring.assignment[v] for v in closure}) != len(closure):
            return False
    return True


def down_conflict_graph(g: AcyclicDigraph) -> IntersectionGraph:
    """Pairwise conflict graph: two nodes clash when some node sees both
    among its descendants, i.e. their ancestors-and-self sets intersect."""
    return build_intersection_graph(ancestor_set_function(g))


def greedy_down_coloring(g: AcyclicDigraph, order: str = "smallest-last") -> EntryColoring:
    """Greedy proper coloring of the conflict graph; always valid, and on
    instances covered by the bounds it should not exceed the upper bound."""
    if not g.nodes:
        raise EmptyDigraph("cannot color an empty digraph")
    return greedy_color(down_conflict_graph(g), order)


def exact_down_chromatic(g: AcyclicDigraph) -> int:
    """Exact down-chromatic number via branch-and-bound on the conflict
    graph; raises TooLargeForExact past DEFAULT_CHROMATIC_CAP nodes before
    building it."""
    if not g.nodes:
        raise EmptyDigraph("chromatic number is undefined on an empty digraph")
    if len(g.nodes) > DEFAULT_CHROMATIC_CAP:
        raise TooLargeForExact(len(g.nodes), DEFAULT_CHROMATIC_CAP, what="conflict graph")
    return exact_chromatic(down_conflict_graph(g))


def _closure_function(g: AcyclicDigraph, masks: tuple[int, ...]) -> SetValuedFunction:
    """Nodes as entries over the same nodes, each row a closure mask decoded
    into its slot of one int32 array sized from the masks' bit counts."""
    indptr = np.zeros(len(masks) + 1, dtype=np.int64)
    np.cumsum([m.bit_count() for m in masks], out=indptr[1:])
    indices = np.empty(indptr[-1], dtype=np.int32)
    bounds = indptr.tolist()
    for i, m in enumerate(masks):
        indices[bounds[i]:bounds[i + 1]] = mask_positions(m)
    return SetValuedFunction(g.nodes, g.nodes, indptr, indices)


def descendant_set_function(g: AcyclicDigraph) -> SetValuedFunction:
    """Nodes as data entries, each pointing at its descendants-and-self set.

    This is the indexing function for digraph dimension tables: coloring its
    intersection graph and materializing gives a schema answering
    descendant-conditioned queries.
    """
    return _closure_function(g, g._all_desc_masks())


def ancestor_set_function(g: AcyclicDigraph) -> SetValuedFunction:
    """Mirror of descendant_set_function on the reversed digraph."""
    return _closure_function(g, g._all_anc_masks())
