"""Set-valued functions, their intersection graphs, and proper colorings.

A set-valued function maps data entries to node sets.  Two entries are
adjacent in the intersection graph exactly when their images share a node.
Any proper coloring of that graph can be materialized as an indexing schema
(see the schema module); conversely every complete schema induces a proper
coloring, so the chromatic number is the exact lower limit on schema width.

Entry identifiers must be hashable and totally orderable within one
function (strings, ints, or tuples -- not mixed): the graph numbers the
entries by their sorted order, and greedy coloring breaks ties by lowest
identifier to stay deterministic.  Mixed types raise TypeError.

Layout and cost.  A set-valued function is CSR over node positions: row i
lists the positions of entry i's nodes in its ordered node domain,
ascending, and `image` decodes a row to a frozenset only when read.  The
graph is CSR over entry positions, a position being an entry's rank in
sorted order: row p lists p's neighbour positions, ascending.  The builder
gives each node position a Python-int mask of the entries holding it and
ORs an entry's node masks into its row, which costs
Theta(sum_e |F(e)| * n/64) machine words plus one n/8-byte decode per row,
instead of one pair per shared node.  Smallest-last is n argmin steps over
an int64 degree array (O(n^2) in numpy, O(n + m) decrements); largest-first
is one stable sort; first-fit reads each vertex's neighbour colors
through its CSR row.

The row decoder, mask_positions, is shared: it is the package's one way to
turn a Python-int mask into ascending positions, and the digraph module
decodes its closure masks with it too.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property
from itertools import compress
from typing import Callable, Hashable, Iterable, Sequence

import numpy as np

from .errors import TooLargeForExact

Entry = Hashable
Node = Hashable

GREEDY_ORDERS = ("input", "largest-first", "smallest-last")

DEFAULT_CHROMATIC_CAP = 20


class RowView(Mapping):
    """Read-only mapping over the owner's `keys` whose row `decode(key)` computes
    on each read, raising KeyError for an unknown key.  Owners make a fresh
    view per access (f.image, g.adj, t.rows), so none holds a reference cycle.
    A view equals a dict with the same items, as any Mapping does, so verify
    compares g.adj with the graph oracle's dict directly."""

    def __init__(self, keys: Sequence, decode: Callable):
        self._keys, self._decode = keys, decode

    def __getitem__(self, key):
        return self._decode(key)

    def __iter__(self):
        return iter(self._keys)

    def __len__(self) -> int:
        return len(self._keys)


class SetValuedFunction:
    """Ordered data entries plus the node set each one points at.

    Stored as CSR over node positions: `nodes` is the ordered node domain
    (distinct; a node may sit in no image), and entry i's image is
    indices[indptr[i]:indptr[i + 1]], the int32 positions of its nodes in
    ascending order; `indptr` holds the len(entries) + 1 int64 offsets.
    Empty images are permitted; such entries are isolated in the
    intersection graph.  The constructor takes these four; from_images
    converts hashable node sets once, and from_pairs goes through it.
    `image` decodes one entry to a frozenset when read.  Immutable: both
    arrays are read-only.
    """

    def __init__(self, entries: tuple[Entry, ...], nodes: tuple[Node, ...], indptr: np.ndarray, indices: np.ndarray):
        indptr.flags.writeable = False
        indices.flags.writeable = False
        self.entries, self.nodes, self.indptr, self.indices = entries, nodes, indptr, indices

    @classmethod
    def from_images(cls, image: Mapping[Entry, Iterable[Node]]) -> "SetValuedFunction":
        """The entries are the mapping's keys, in order, and the nodes are
        numbered in first-seen order."""
        position: dict[Node, int] = {}
        rows = [sorted(position.setdefault(u, len(position)) for u in frozenset(nodes)) for nodes in image.values()]
        return cls(tuple(image), tuple(position), *_csr(rows))

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[Entry, Node]]) -> "SetValuedFunction":
        """Build from (entry, node) membership pairs, preserving first-seen entry order."""
        image: dict[Entry, set[Node]] = {}
        for entry, node in pairs:
            image.setdefault(entry, set()).add(node)
        return cls.from_images(image)

    @cached_property
    def entry_index(self) -> dict[Entry, int]:
        """Entry -> its index in `entries`, built on first use."""
        return dict(zip(self.entries, range(len(self.entries))))

    @property
    def image(self) -> Mapping[Entry, frozenset[Node]]:
        """Read-only entry -> node set; each image is decoded when read."""
        return RowView(self.entries, self._image_of)

    def _image_of(self, e: Entry) -> frozenset[Node]:
        return frozenset(map(self.nodes.__getitem__, self.row(self.entry_index[e]).tolist()))

    def row(self, i: int) -> np.ndarray:
        """Node positions of entry index i, ascending."""
        return self.indices[self.indptr[i]:self.indptr[i + 1]]

    def node_domain(self) -> frozenset[Node]:
        """Union of all images."""
        held = np.bincount(self.indices, minlength=len(self.nodes)) > 0
        return frozenset(compress(self.nodes, held.tolist()))

    def __len__(self) -> int:
        return len(self.entries)


class IntersectionGraph:
    """Entries as vertices; an edge wherever two images overlap.

    Stored as CSR over positions: `order` is the vertices sorted, and a
    vertex's position is its rank there.  Row p is
    indices[indptr[p]:indptr[p + 1]], the int32 positions of p's
    neighbours in ascending order, so it decodes to the sorted neighbour
    list; `indptr` holds the n + 1 int64 offsets.  Symmetric and
    irreflexive.  build_intersection_graph is the one builder.
    Immutable: both arrays are read-only.
    """

    def __init__(self, vertices: tuple[Entry, ...], order: tuple[Entry, ...], indptr: np.ndarray, indices: np.ndarray):
        indptr.flags.writeable = False
        indices.flags.writeable = False
        self.vertices, self.order, self.indptr, self.indices = vertices, order, indptr, indices

    @cached_property
    def position(self) -> dict[Entry, int]:
        """Entry -> position, built on first use."""
        return {e: p for p, e in enumerate(self.order)}

    @property
    def adj(self) -> Mapping[Entry, list[Entry]]:
        """Read-only entry -> sorted neighbour list; each row is decoded when read."""
        return RowView(self.vertices, self._neighbours_of)

    def _neighbours_of(self, e: Entry) -> list[Entry]:
        return [self.order[q] for q in self.row(self.position[e]).tolist()]

    def row(self, p: int) -> np.ndarray:
        """Neighbour positions of position p, ascending."""
        return self.indices[self.indptr[p]:self.indptr[p + 1]]

    def edge_count(self) -> int:
        return self.indices.size // 2


def _csr(rows: Sequence[Sequence[int]]) -> tuple[np.ndarray, np.ndarray]:
    """int64 offsets and int32 positions of the concatenated rows (arrays or lists)."""
    indptr = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum([len(r) for r in rows], out=indptr[1:])
    indices = np.concatenate([np.empty(0, dtype=np.int32), *rows]).astype(np.int32)
    return indptr, indices


@dataclass(frozen=True)
class EntryColoring:
    """Map entry -> color in 1..k.  Proper on the graph it was built from."""

    assignment: dict[Entry, int]
    k: int

    def is_proper(self, g: IntersectionGraph) -> bool:
        """No edge of g joins two vertices of one color: one comparison of
        the colors at both ends of every CSR edge.  A vertex with an edge
        and no color is KeyError; an isolated vertex needs no color."""
        degree = np.diff(g.indptr)
        colors = np.zeros(len(g.order), dtype=np.int64)
        held = np.flatnonzero(degree)
        order, assignment = g.order, self.assignment
        colors[held] = np.fromiter((assignment[order[p]] for p in held.tolist()), dtype=np.int64, count=held.size)
        return not np.any(np.repeat(colors, degree) == colors[g.indices])


def mask_positions(mask: int) -> np.ndarray:
    """Ascending positions of the set bits of a non-negative Python int.

    A sparse mask unpacks only its non-zero bytes, so it costs one byte scan
    plus eight bits per non-zero byte; a mask with over a quarter of its
    bytes set is unpacked whole, which is cheaper there."""
    data = np.frombuffer(mask.to_bytes((mask.bit_length() + 7) // 8, "little"), dtype=np.uint8)
    nonzero = np.flatnonzero(data)
    if 4 * nonzero.size > data.size:
        return np.flatnonzero(np.unpackbits(data, bitorder="little"))
    hit = np.flatnonzero(np.unpackbits(data[nonzero], bitorder="little"))
    return (nonzero[hit >> 3] << 3) | (hit & 7)


def build_intersection_graph(f: SetValuedFunction) -> IntersectionGraph:
    """Construct the intersection graph from per-node entry masks.

    One pass over the images gives each node position the Python-int mask
    of the entries holding it (bit = graph position); an entry's row is the
    OR of its nodes' masks without its own bit, decoded one row at a time.
    The all-pairs route lives in the oracle module for verification.
    """
    by_rank = sorted(range(len(f.entries)), key=f.entries.__getitem__)
    bounds = f.indptr.tolist()
    members = [f.indices[bounds[i]:bounds[i + 1]].tolist() for i in by_rank]
    holders = [0] * len(f.nodes)
    for p, row in enumerate(members):
        bit = 1 << p
        for u in row:
            holders[u] |= bit
    rows = []
    for p, row in enumerate(members):
        mask = 0
        for u in row:
            mask |= holders[u]
        rows.append(mask_positions(mask & ~(1 << p)))
    order = tuple(f.entries[i] for i in by_rank)
    return IntersectionGraph(f.entries, order, *_csr(rows))


def _smallest_last_positions(g: IntersectionGraph) -> np.ndarray:
    """Repeatedly remove a minimum-degree vertex; return the reverse
    removal sequence.  argmin takes the first minimum, the lowest position,
    which is the lowest entry."""
    bounds = g.indptr.tolist()
    indices = g.indices
    degree = np.diff(g.indptr)
    gone = np.iinfo(np.int64).max
    removed = np.empty(len(g.order), dtype=np.int64)
    for step in range(len(g.order)):
        p = int(degree.argmin())
        removed[step] = p
        # Removed vertices sit near int64 max, far above any live degree,
        # so decrementing them with the rest of the row is harmless.
        degree[p] = gone
        degree[indices[bounds[p]:bounds[p + 1]]] -= 1
    return removed[::-1]


def _order_positions(g: IntersectionGraph, order: str) -> np.ndarray:
    if order == "input":
        return np.fromiter(map(g.position.__getitem__, g.vertices), dtype=np.int64, count=len(g.vertices))
    if order == "largest-first":
        return np.argsort(-np.diff(g.indptr), kind="stable")
    if order == "smallest-last":
        return _smallest_last_positions(g)
    raise ValueError(f"unknown order {order!r}; expected one of {GREEDY_ORDERS}")


def greedy_color(g: IntersectionGraph, order: str = "smallest-last") -> EntryColoring:
    """First-fit coloring along the chosen vertex order.

    Each vertex gets the smallest color (starting at 1) unused among its
    already-colored neighbors.  Deterministic for a given order.
    """
    positions = _order_positions(g, order).tolist()
    bounds = g.indptr.tolist()
    indices = g.indices
    colors = np.zeros(len(g.order), dtype=np.int64)
    k = 0
    for p in positions:
        # Colors 1..k+1 suffice; index 0 marks the uncolored neighbours.
        taken = np.zeros(k + 2, dtype=bool)
        taken[colors[indices[bounds[p]:bounds[p + 1]]]] = True
        taken[0] = True
        c = int(taken.argmin())
        colors[p] = c
        k = max(k, c)
    return EntryColoring(dict(zip([g.order[p] for p in positions], colors[positions].tolist())), k)


def clique_lower_bound(f: SetValuedFunction) -> int:
    """Entries sharing one node are pairwise adjacent, so the heaviest node
    gives a clique in the intersection graph and a floor on any schema width."""
    return int(np.bincount(f.indices).max(initial=0))


def exact_chromatic(g: IntersectionGraph, cap: int = DEFAULT_CHROMATIC_CAP) -> int:
    """Exact chromatic number by branch and bound.

    Bounds: a greedily grown clique from several seeds gives the floor, the
    best greedy coloring over all orders gives the ceiling, and a DSATUR
    backtracking search closes the gap one k at a time.
    """
    n = len(g.vertices)
    if n > cap:
        raise TooLargeForExact(n, cap, what="intersection graph")
    if n == 0:
        return 0
    if g.edge_count() == 0:
        return 1

    adj = [g.row(p).tolist() for p in range(n)]
    adj_sets = [set(a) for a in adj]

    lower = _greedy_clique_bound(adj, adj_sets)
    upper = min(greedy_color(g, order).k for order in GREEDY_ORDERS)
    if lower >= upper:
        return upper

    for k in range(lower, upper):
        if _k_colorable(adj, adj_sets, k):
            return k
    return upper


def _greedy_clique_bound(adj: list[list[int]], adj_sets: list[set[int]]) -> int:
    n = len(adj)
    by_degree = sorted(range(n), key=lambda v: -len(adj[v]))
    best = 1
    for seed in by_degree[: min(n, 12)]:
        clique = [seed]
        candidates = sorted(adj_sets[seed], key=lambda v: -len(adj[v]))
        for v in candidates:
            if all(v in adj_sets[u] for u in clique):
                clique.append(v)
        best = max(best, len(clique))
    return best


def _k_colorable(adj: list[list[int]], adj_sets: list[set[int]], k: int) -> bool:
    """DSATUR backtracking: color the most saturated vertex next, trying at
    most one brand-new color per step to break color symmetry."""
    n = len(adj)
    colors = [0] * n
    neighbor_colors: list[set[int]] = [set() for _ in range(n)]

    def pick() -> int:
        best_v, best_key = -1, (-1, -1)
        for v in range(n):
            if colors[v]:
                continue
            key = (len(neighbor_colors[v]), len(adj[v]))
            if key > best_key:
                best_v, best_key = v, key
        return best_v

    def assign(v: int, c: int) -> list[int]:
        colors[v] = c
        touched = []
        for w in adj[v]:
            if not colors[w] and c not in neighbor_colors[w]:
                neighbor_colors[w].add(c)
                touched.append(w)
        return touched

    def undo(v: int, c: int, touched: list[int]) -> None:
        colors[v] = 0
        for w in touched:
            neighbor_colors[w].discard(c)

    max_used = 0

    def solve(colored: int) -> bool:
        nonlocal max_used
        if colored == n:
            return True
        v = pick()
        if len(neighbor_colors[v]) >= k:
            return False
        limit = min(k, max_used + 1)
        for c in range(1, limit + 1):
            if c in neighbor_colors[v]:
                continue
            prev = max_used
            max_used = max(max_used, c)
            touched = assign(v, c)
            if solve(colored + 1):
                return True
            undo(v, c, touched)
            max_used = prev
        return False

    return solve(0)
