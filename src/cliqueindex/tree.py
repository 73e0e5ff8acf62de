"""Binary interval tree indexing: dyadic intervals, entries, and queries.

The tree enumerates the 2^n - 1 dyadic subintervals of [0,1) in heap
order: id k sits at level L(k) = bit_length(k), and its half-open extent
halves as the level grows.  An entry (p, q) points at node p's subtree
when p sits exactly at level q, and at {p} alone when p sits above q;
coloring entries by q gives an n-column schema with no NULL cells, and a
single-column IN query over an id's ancestor chain answers overlap.

Row k's cell in column q is k >> max(L(k) - q, 0); the streamed CSV
computes the cells block by block.  Column q holds every id of level <= q
as itself and nothing else, so the clique table needs no cells at all:
its entries are range(1, 2^q), its codes cell - 1, and its postings are
written in closed form from n and q.  Its node domain is range(1, 2^n),
id j + 1 at position j, kept as the range.  Overlap queries, on the table's
postings or on a fact index over it, such as the interval covers of
endpoints.build_tree_interval_index, are one IN list, the ancestor chain
in column L(k), gathered in one pass.  Extents are integers, in units of 2^(1-n).
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from . import engine
from .errors import OutOfRange
from .intersection import EntryColoring, SetValuedFunction
from .schema import BLOCK_ROWS, CliqueTable, Postings, VerifyResult

DEFAULT_TREE_CAP = 24


def level(k: int) -> int:
    """Level of interval id k: floor(log2 k) + 1, in exact integers."""
    if k < 1:
        raise OutOfRange(f"interval id {k} must be at least 1")
    return k.bit_length()


def _check_id(k: int, n: int) -> None:
    if not 1 <= k < (1 << n):
        raise OutOfRange(f"interval id {k} outside 1..{(1 << n) - 1}")


def _check_levels(n: int, cap: int = DEFAULT_TREE_CAP) -> None:
    if n < 1:
        raise OutOfRange(f"level count {n} must be at least 1")
    if n > cap:
        raise OutOfRange(f"level count {n} exceeds the cap {cap}")


def ancestor_path(k: int) -> tuple[int, ...]:
    """Ids on the route from k up to the root: (k, k//2, ..., 1)."""
    lvl = level(k)
    return tuple(k >> shift for shift in range(lvl))


def extent(k: int, n: int) -> tuple[int, int]:
    """Half-open extent [lo, hi) of id k in units of 2^(1-n)."""
    _check_levels(n)
    _check_id(k, n)
    lvl = level(k)
    width = 1 << (n - lvl)
    lo = (k - (1 << (lvl - 1))) * width
    return lo, lo + width


def entry_members(p: int, q: int, n: int) -> frozenset[int]:
    """Interval ids the entry (p, q) points at: the whole subtree of p when
    p's level is exactly q, else just {p}."""
    _check_levels(n)
    _check_id(p, n)
    if not level(p) <= q <= n:
        raise OutOfRange(f"entry ({p},{q}) needs level({p})={level(p)} <= q <= n={n}")
    if level(p) < q:
        return frozenset({p})
    members = set()
    for t in range(q, n + 1):
        shift = t - q
        members.update(range(p << shift, (p + 1) << shift))
    return frozenset(members)


def tree_entry_function(n: int, canonical: bool = True) -> SetValuedFunction:
    """Entries as (p, q) pairs with their member sets.

    Canonical keeps one entry per node, (p, level(p)); the full variant
    keeps every (p, q) with level(p) <= q <= n, whose extra entries are the
    singletons appearing in columns below a node's level.
    """
    _check_levels(n)
    image = {}
    for p in range(1, 1 << n):
        for q in [level(p)] if canonical else range(level(p), n + 1):
            image[(p, q)] = entry_members(p, q, n)
    return SetValuedFunction.from_images(image)


def tree_coloring(n: int, canonical: bool = True) -> EntryColoring:
    """The schema coloring: entry (p, q) gets color q."""
    _check_levels(n)
    assignment = {}
    for p in range(1, 1 << n):
        qs = [level(p)] if canonical else range(level(p), n + 1)
        for q in qs:
            assignment[(p, q)] = q
    return EntryColoring(assignment, n)


def _tree_cells(ids: np.ndarray, n: int, q=None) -> np.ndarray:
    """Cells of the given ids in column q (1-based): k's level-q ancestor
    k >> (L(k) - q) up to k's level and k itself below.  By default in all
    n columns, as an (n, len(ids)) array."""
    levels = np.frexp(ids)[1]  # L(k) = bit_length(k), exact below 2^53
    q = np.arange(1, n + 1)[:, None] if q is None else q
    return ids >> np.maximum(levels - q, 0)


def iter_tree_blocks(n: int) -> Iterator[np.ndarray]:
    """Stream the table as (n + 1, rows) int blocks of up to BLOCK_ROWS ids in
    id order, the ids then their cells, as write_table_csv takes them.
    Arguments are checked at the call, before a caller opens output."""
    _check_levels(n)
    blocks = (np.arange(start, min(start + BLOCK_ROWS, 1 << n)) for start in range(1, 1 << n, BLOCK_ROWS))
    return (np.vstack([ids, _tree_cells(ids, n)]) for ids in blocks)


def _tree_column(n: int, q: int) -> tuple[np.ndarray, np.ndarray]:
    """Column q's posting offsets and ids, written in closed form.

    With h = 2^(q-1), codes 0..h-2 are the singletons above level q, one
    position each, and codes h-1..2h-2 are the level-q nodes, each holding
    its subtree of 2^(n-q+1) - 1 positions; node i's subtree is row i of an
    (h, 2^(n-q+1) - 1) block whose level-t slab is the positions
    h*2^(t-q) - 1 .. 2h*2^(t-q) - 2 read row by row."""
    h = 1 << (q - 1)
    width = (1 << (n - q + 1)) - 1
    ids = np.empty((1 << n) - 1, dtype=np.int32)
    ids[:h - 1] = np.arange(h - 1, dtype=np.int32)
    block = ids[h - 1:].reshape(h, width)
    for depth in range(n - q + 1):  # the level-(q + depth) slab, w positions per row
        w = 1 << depth
        block[:, w - 1:2 * w - 1] = np.arange(h * w - 1, 2 * h * w - 1, dtype=np.int32).reshape(h, w)
    offsets = np.concatenate((np.arange(h), np.arange(h - 1 + width, h * (width + 1), width)))
    return offsets, ids


def build_tree_schema(n: int) -> CliqueTable:
    """Materialize the n-column table over all 2^n - 1 ids.

    Column q of row k holds the id truncated to level q (its level-q
    ancestor) for q up to k's level, and k itself below; storing the bare
    p is enough because the column fixes q.  Column q's values are exactly
    the ids 1..2^q - 1 with code cell - 1, and every part of its postings
    is known from n and q: its entries are range(1, 2^q), so an int is
    coded by range arithmetic with no entry map, and the offsets and ids
    are written directly (_tree_column), with no cells, codes or sort.  The
    node domain stays range(1, 2^n): no node objects are made until a
    reader (rows, column_preimage, export) asks for them.
    """
    _check_levels(n)
    columns = [(range(1, 1 << q), *_tree_column(n, q)) for q in range(1, n + 1)]
    return CliqueTable(range(1, 1 << n), Postings((1 << n) - 1, columns))


def verify_tree_schema(t: CliqueTable, n: int) -> VerifyResult:
    """Check every entry's column preimage against its member set.

    Same check as schema.verify_schema, specialized to the bare-p cell
    encoding: the value p in column q stands for the entry (p, q).
    """
    for p in range(1, 1 << n):
        for q in range(level(p), n + 1):
            expected = entry_members(p, q, n)
            recovered = t.column_preimage(q, p)
            if recovered != expected:
                return VerifyResult(
                    False, (p, q), frozenset(expected - recovered), frozenset(recovered - expected)
                )
    return VerifyResult(True)


def overlap_query(k: int, schema: CliqueTable) -> np.ndarray:
    """Ids whose extent meets id k's extent, as an ascending int64 array.

    One IN list on column L(k), gathered from the table's postings in one
    pass (Postings.union_of): a row overlaps k exactly when its level-L(k)
    cell is one of k's ancestors-or-self.  A build_tree_schema table holds
    id j + 1 at node position j, so no node decode is needed.
    """
    _check_id(k, schema.k)
    ids = schema.postings.union_of(level(k), ancestor_path(k)).to_array()
    ids += 1
    return ids


def tree_fact_query(k: int, idx: "engine.PostingIndex"):
    """Fact rows of the index referencing any interval overlapping k: one
    IN list, the ancestor path in column L(k), gathered in one pass
    (engine.evaluate_in)."""
    _check_id(k, idx.k)
    return engine.evaluate_in(level(k), ancestor_path(k), idx)


def naive_overlap_function(n: int) -> SetValuedFunction:
    """The first-attempt indexing function: every id points at everything it
    overlaps.  All images share the root's extent slices, so the
    intersection graph is complete and needs 2^n - 1 colors; this is the
    motivation for the (p, q) entries."""
    _check_levels(n, cap=10)
    ids = range(1, 1 << n)
    extents = {k: extent(k, n) for k in ids}
    image = {}
    for k in ids:
        lo, hi = extents[k]
        image[k] = frozenset(
            j for j in ids if extents[j][0] < hi and lo < extents[j][1]
        )
    return SetValuedFunction.from_images(image)
