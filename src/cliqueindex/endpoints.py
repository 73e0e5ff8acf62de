"""Indexing closed intervals, through their endpoint set or a tree schema.

Every distinct endpoint value is a data entry; the entry e points at the
intervals that straddle it (lower endpoint weakly left of e, upper endpoint
strictly right).  An interval's straddled entries form one consecutive run
in the sorted endpoint list, so entries conflict only within runs and
coloring the sorted positions cyclically with the longest run length is
proper.  A range query then needs one color-column lookup plus one scan of
upper endpoints.  The tree path stores each interval's dyadic cover as fact
rows over the n-column build_tree_schema(n); a stab is one IN list on them.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from typing import Hashable, Iterable

import numpy as np

from .errors import EmptyInput, InvalidRange
from .intersection import EntryColoring, SetValuedFunction
from .schema import CliqueTable, PostingIndex, materialize
from .tree import DEFAULT_TREE_CAP, build_tree_schema, tree_fact_query


@dataclass(frozen=True, order=True)
class IntervalRecord:
    """Closed interval [x, y] with an opaque orderable id."""

    id: Hashable
    x: float
    y: float

    def __post_init__(self):
        try:
            finite = math.isfinite(self.x) and math.isfinite(self.y)
        except (TypeError, OverflowError):  # not a number, or one float() cannot hold
            finite = False
        if not finite:
            raise InvalidRange(f"interval {self.id!r}: endpoints {self.x!r}, {self.y!r} must be finite numbers")
        if self.y < self.x:
            raise InvalidRange(f"interval {self.id!r}: upper {self.y} below lower {self.x}")


@dataclass
class EndpointSchema:
    """Materialized endpoint schema over one interval collection.

    It keeps no copy of the intervals: each interval's id is a node of the
    function and the clique table.  The coloring's k is the window, the
    longest straddled-entry run.  The build also passes the upper
    endpoints in ascending order (ties in the order of intervals) and
    their ids, which range queries bisect."""

    entries: tuple  # distinct endpoint values, ascending
    function: SetValuedFunction
    coloring: EntryColoring
    clique: CliqueTable
    escalations: int  # always 0; kept only for perfbench's set-up check
    _ys: list = field(repr=False)
    _y_ids: list = field(repr=False)


def _endpoint_dtype(values: list):
    """float64 when every value is a Python float, which float64 holds
    exactly; otherwise object, whose sorts compare with Python's exact
    comparisons (ints past 2**53, Fractions, mixed int/float values)."""
    return np.float64 if {type(v) for v in values} == {float} else object


def _straddle_csr(start, run, held, n_entries: int, n_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """CSR of the pairs (start[r] + j, held[r]) for j < run[r], grouped by
    entry: one sort of entry-major keys entry * n_nodes + node, built in
    place so that one pair-sized temporary exists at a time.  The keys are
    int32 when every key and the pair count fit, int64 otherwise.  When
    intervals share an id (fewer nodes than intervals), a pair the shared
    id repeats is dropped.  Each entry's offset is a search for its first
    key, and subtracting entry * n_nodes leaves the node positions."""
    pairs = int(run.sum())
    dtype = np.int32 if max(n_entries * n_nodes, pairs) <= 2**31 else np.int64
    key = np.repeat((start - (np.cumsum(run) - run)).astype(dtype), run)
    key += np.arange(pairs, dtype=dtype)
    key *= n_nodes
    key += np.repeat(held.astype(dtype), run)
    key.sort()
    if n_nodes < len(held):
        key = key[np.diff(key, prepend=-1) != 0]
    base = np.arange(n_entries, dtype=dtype) * n_nodes
    indptr = np.empty(n_entries + 1, dtype=np.int64)
    indptr[:-1], indptr[-1] = np.searchsorted(key, base), key.size
    key -= np.repeat(base, np.diff(indptr))
    return indptr, key.astype(np.int32, copy=False)


def build_endpoint_schema(intervals: Iterable[IntervalRecord]) -> EndpointSchema:
    """Entries, cyclic coloring, and materialized table for the collection.

    k is the window, the longest straddled run.  Conflicting entries are
    those straddled by one common interval, a consecutive position run no
    longer than k, and cyclic colors repeat only every k positions, so the
    coloring is proper when each repeated id's runs overlap or touch;
    otherwise materialize raises ColorCollision.

    One stable lexsort over (x, y, node position) orders the records by
    (x, y, id); of equal ids (1, 1.0) the first in that order names the
    node.  One stable np.unique over the endpoints, interleaved x0, y0,
    x1, y1, ... in that order, gives the entries (of -0.0 and 0.0 the first
    seen) and each run [rank of x, rank of y), the entries x <= e < y.
    The arrays are float64 when every endpoint is a Python float, otherwise
    object, which sorts by Python's exact comparisons.  The runs expand
    into (entry, interval) pairs and one sort groups them by entry as CSR.
    A stable argsort of the ordered upper endpoints gives the order range
    queries bisect.
    """
    records = list(intervals)
    if not records:
        raise EmptyInput("no intervals given")
    xs, ys, ids = [r.x for r in records], [r.y for r in records], [r.id for r in records]
    dtype = _endpoint_dtype(xs + ys)
    x, y = np.array(xs, dtype=dtype), np.array(ys, dtype=dtype)
    node_pos = {node: p for p, node in enumerate(dict.fromkeys(sorted(ids)))}
    held = np.fromiter(map(node_pos.__getitem__, ids), dtype=np.int64, count=len(ids))
    order = np.lexsort((held, y, x))
    held = held[order]
    nodes = tuple(map(ids.__getitem__, order[np.unique(held, return_index=True)[1]].tolist()))

    values = np.empty(2 * len(records), dtype=dtype)
    values[0::2], values[1::2] = x[order], y[order]
    _, first, inverse = np.unique(values, return_index=True, return_inverse=True)
    entries = tuple(values[first].tolist())
    start, run = inverse[0::2], inverse[1::2] - inverse[0::2]
    window = max(1, int(run.max()))

    indptr, indices = _straddle_csr(start, run, held, len(entries), len(nodes))
    f = SetValuedFunction(entries, nodes, indptr, indices)

    colors = (np.arange(len(entries)) % window + 1).tolist()
    coloring = EntryColoring(dict(zip(entries, colors)), window)
    clique = materialize(f, coloring, nodes)
    by_y = order[np.argsort(y[order], kind="stable")].tolist()  # ties keep (x, y, id) order
    y_order = list(map(ys.__getitem__, by_y)), list(map(ids.__getitem__, by_y))
    return EndpointSchema(entries, f, coloring, clique, 0, *y_order)


def _check_bounds(a, b) -> None:
    if not a <= b:  # also true when either bound is NaN
        if a != a or b != b:
            raise InvalidRange(f"query bound is NaN: [{a}, {b}]")
        raise InvalidRange(f"query upper {b} below lower {a}")


def _straddling(s: EndpointSchema, a, b) -> set:
    """Check the bounds, then give the first branch as a new set: rows
    whose color column for the greatest entry N* <= b holds N*, the
    intervals straddling N*.  Each has x <= b < y, since every upper
    endpoint is an entry."""
    _check_bounds(a, b)
    pos = bisect.bisect_right(s.entries, b) - 1
    if pos < 0:
        return set()
    star = s.entries[pos]
    return s.clique.column_preimage(s.coloring.assignment[star], star)


def _ending_in(s: EndpointSchema, a, b) -> list:
    """The second branch: ids of the intervals whose upper endpoint lies in [a, b]."""
    return s._y_ids[bisect.bisect_left(s._ys, a):bisect.bisect_right(s._ys, b)]


def interval_query_branches(s: EndpointSchema, a, b) -> tuple[set, set]:
    """The two union branches of the range query, kept apart for testing:
    the intervals straddling N* (y > b) and those with y in [a, b].  As
    sets of intervals they are disjoint; an id that two intervals share
    can fall in both."""
    return _straddling(s, a, b), set(_ending_in(s, a, b))


def interval_query(s: EndpointSchema, a, b) -> set:
    """Ids of intervals meeting [a, b]: x <= b and y >= a, as a new set:
    the first branch's set, updated with the second branch's ids.  On 200
    stabbing and range queries over interval_stab's seed-11 intervals
    (36 ids per answer; Python 3.11, 2-core host, median of 5 alternating
    runs) this took 10.6 us per query where a union of two branch sets
    took 14.6 us.  A NaN bound raises InvalidRange; infinite bounds are
    allowed."""
    out = _straddling(s, a, b)
    out.update(_ending_in(s, a, b))
    return out


def stabbing_query(s: EndpointSchema, p) -> set:
    """Ids of intervals containing the point p (closed semantics)."""
    return interval_query(s, p, p)


@dataclass
class TreeIntervalIndex:
    """Row r of index is a node of interval owner[r]'s dyadic cover; xs, ys
    and ids are in x order, and v in [xs[0], top] is on leaf _leaf_ids(v, ...)."""

    lo: float
    scale: float
    top: object
    index: PostingIndex
    owner: np.ndarray
    xs: list
    ys: list
    ids: list


def _leaf_ids(v, lo: float, scale: float, half: int) -> np.ndarray:
    """Tree id half + floor((v - lo) * scale), the leaf index clipped to 0..half - 1,
    for float64 v >= lo.  At ranges past the float limits v - lo can overflow
    and inf * 0 give NaN; NaN takes leaf 0, so the map stays monotone."""
    with np.errstate(over="ignore", invalid="ignore"):
        pos = (v - lo) * scale
    return half + np.where(pos > 0, np.minimum(pos, half - 1), 0).astype(np.int64)


def build_tree_interval_index(intervals: Iterable[IntervalRecord]) -> TreeIntervalIndex:
    """Cover rows over build_tree_schema(n), n = min(DEFAULT_TREE_CAP, ceil(log2 m) + 1)
    for m intervals.  2^(n-1) leaves split [least x, greatest y] as floats;
    float() and the arithmetic are monotone, so x <= v <= y puts v's leaf
    between x's and y's.  n passes of the bottom-up segment-tree walk give
    each leaf range's canonical cover, disjoint nodes, one row each."""
    records = sorted(intervals, key=lambda r: r.x)  # stable, by exact comparisons
    if not records:
        raise EmptyInput("no intervals given")
    xs, ys, ids = [r.x for r in records], [r.y for r in records], [r.id for r in records]
    n = min(DEFAULT_TREE_CAP, (len(records) - 1).bit_length() + 1)
    half = 1 << (n - 1)
    xf, yf = np.array(xs, dtype=np.float64), np.array(ys, dtype=np.float64)
    lo, hi = float(xf[0]), float(yf.max())
    scale = half / (hi - lo) if hi > lo else 0.0
    left, right = _leaf_ids(xf, lo, scale, half), _leaf_ids(yf, lo, scale, half) + 1
    at, owner, nodes = np.arange(len(records)), [], []
    for _ in range(n):
        take = (left < right) & (left & 1 == 1)  # an odd left end is a cover node,
        left += take
        take_right = (left < right) & (right & 1 == 1)  # and so is the one before an odd right end
        right -= take_right
        owner += [at[take], at[take_right]]
        nodes += [left[take] - 1, right[take_right]]
        left >>= 1
        right >>= 1
    index = PostingIndex(build_tree_schema(n).postings, np.concatenate(nodes) - 1)
    return TreeIntervalIndex(lo, scale, max(ys), index, np.concatenate(owner), xs, ys, ids)


def tree_interval_query(t: TreeIntervalIndex, a, b) -> set:
    """Ids of intervals meeting [a, b], as interval_query gives them: those
    holding a, from the rows at a's leaf and its ancestors (tree_fact_query,
    which meets an interval at most once, its cover nodes being disjoint)
    kept when x <= a <= y, and those starting in (a, b], a slice of xs."""
    _check_bounds(a, b)
    xs, ys, ids = t.xs, t.ys, t.ids
    out = set(ids[bisect.bisect_right(xs, a):bisect.bisect_right(xs, b)])
    if xs[0] <= a <= t.top:
        leaf = int(_leaf_ids(np.float64(a), t.lo, t.scale, 1 << (t.index.k - 1)))
        out.update(ids[i] for i in t.owner[tree_fact_query(leaf, t.index).to_array()].tolist() if xs[i] <= a <= ys[i])
    return out
