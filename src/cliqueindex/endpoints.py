"""Indexing closed intervals through their endpoint set.

Every distinct endpoint value is a data entry; the entry e points at the
intervals that straddle it (lower endpoint weakly left of e, upper endpoint
strictly right).  An interval's straddled entries form one consecutive run
in the sorted endpoint list, so entries conflict only within runs and
coloring the sorted positions cyclically with the longest run length is
proper.  A range query then needs one color-column lookup plus one scan of
upper endpoints.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from operator import attrgetter
from typing import Hashable, Iterable, Sequence

import numpy as np

from .errors import EmptyInput, InvalidRange
from .intersection import EntryColoring, SetValuedFunction
from .schema import CliqueTable, materialize


@dataclass(frozen=True, order=True)
class IntervalRecord:
    """Closed interval [x, y] with an opaque orderable id."""

    id: Hashable
    x: float
    y: float

    def __post_init__(self):
        try:
            finite = math.isfinite(self.x) and math.isfinite(self.y)
        except TypeError:
            finite = False
        if not finite:
            raise InvalidRange(f"interval {self.id!r}: endpoints {self.x!r}, {self.y!r} must be finite numbers")
        if self.y < self.x:
            raise InvalidRange(f"interval {self.id!r}: upper {self.y} below lower {self.x}")


@dataclass
class EndpointSchema:
    """Materialized endpoint schema over one interval collection."""

    intervals: tuple[IntervalRecord, ...]
    entries: tuple  # distinct endpoint values, ascending
    function: SetValuedFunction
    coloring: EntryColoring
    clique: CliqueTable
    window: int  # longest straddled-entry run, which is k
    escalations: int  # always 0; the sidecar, the CLI report and perfbench's set-up check read it

    def __post_init__(self):
        ys = [r.y for r in self.intervals]
        if _all_floats(ys):
            order = np.argsort(np.array(ys), kind="stable").tolist()
        else:
            order = sorted(range(len(ys)), key=ys.__getitem__)  # stable: ties keep input order
        self._ys = [ys[i] for i in order]
        self._y_ids = [self.intervals[i].id for i in order]


def _all_floats(values: list) -> bool:
    """Whether every value is a Python float, which float64 holds exactly;
    ints, Fractions and mixed int/float values keep Python's comparisons."""
    return {type(v) for v in values} == {float}


def _straddle_csr(start, run, held, n_entries: int, n_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """CSR of the pairs (start[r] + j, held[r]) for j < run[r], grouped by
    entry: one sort of entry-major int64 keys, built in place so that one
    pair-sized temporary exists at a time.  When intervals share an id
    (fewer nodes than intervals), a pair the shared id repeats is dropped."""
    key = np.repeat(start - (np.cumsum(run) - run), run)
    key += np.arange(key.size)
    key *= n_nodes
    key += np.repeat(held, run)
    key.sort()
    if n_nodes < len(held):
        key = key[np.diff(key, prepend=-1) != 0]
    indptr = np.zeros(n_entries + 1, dtype=np.int64)
    np.cumsum(np.bincount(key // n_nodes, minlength=n_entries), out=indptr[1:])
    key %= n_nodes
    return indptr, key.astype(np.int32)


def _general_runs(records: list) -> tuple[tuple, list, np.ndarray, np.ndarray]:
    """Records sorted by (x, y, id), the sorted distinct endpoints, and each
    record's [start, end) run as the ranks of its x and y, by Python sorts
    and a rank dict: exact for ints, Fractions and mixed int/float values."""
    records = tuple(sorted(records, key=attrgetter("x", "y", "id")))
    xs, ys = [r.x for r in records], [r.y for r in records]
    entries = sorted({v for pair in zip(xs, ys) for v in pair})
    rank = dict(zip(entries, range(len(entries))))
    start = np.fromiter(map(rank.__getitem__, xs), dtype=np.int64, count=len(xs))
    end = np.fromiter(map(rank.__getitem__, ys), dtype=np.int64, count=len(ys))
    return records, entries, start, end


def _float_runs(records: list, xs: list, ys: list) -> tuple[tuple, list, np.ndarray, np.ndarray]:
    """What _general_runs returns, for float endpoints, by array sorts: one
    stable lexsort orders the records by (x, y), and only runs of equal
    (x, y) are sorted again by the (x, y, id) key.  One stable np.unique
    over the endpoints, interleaved x0, y0, x1, y1, ... in record order,
    gives the entries and the runs; of equal values (-0.0 and 0.0) the
    first seen is kept, as a set built in that order keeps it."""
    x, y = np.array(xs), np.array(ys)
    order = np.lexsort((y, x))
    tie = (x[order][1:] == x[order][:-1]) & (y[order][1:] == y[order][:-1])
    if tie.any():
        order, key = order.tolist(), attrgetter("x", "y", "id")
        bounds = np.flatnonzero(np.diff(tie, prepend=False, append=False)).tolist()
        for a, b in zip(bounds[::2], bounds[1::2]):  # records a..b share (x, y)
            order[a:b + 1] = sorted(order[a:b + 1], key=lambda i: key(records[i]))
        order = np.array(order)
    values = np.empty(2 * len(order))
    values[0::2], values[1::2] = x[order], y[order]
    _, first, inverse = np.unique(values, return_index=True, return_inverse=True)
    records = tuple(map(records.__getitem__, order.tolist()))
    return records, values[first].tolist(), inverse[0::2], inverse[1::2]


def build_endpoint_schema(intervals: Iterable[IntervalRecord]) -> EndpointSchema:
    """Entries, cyclic coloring, and materialized table for the collection.

    k is the window, the longest straddled run.  Conflicting entries are
    exactly those straddled by one common interval, a consecutive position
    run no longer than k, and cyclic colors repeat only every k positions,
    so the coloring is proper; materialize raises ColorCollision if not.

    The function is written as CSR straight from the runs: an interval's
    run is [rank of x, rank of y) in the sorted distinct endpoints (the
    entries straddled: x <= entry < y), the runs expand into
    (entry, interval) position pairs, and one sort groups them by entry.
    When every endpoint is a Python float the records, entries and runs
    come from array sorts (_float_runs), otherwise from Python sorts.
    """
    records = list(intervals)
    if not records:
        raise EmptyInput("no intervals given")
    xs, ys = [r.x for r in records], [r.y for r in records]
    if _all_floats(xs) and _all_floats(ys):
        records, entries, start, end = _float_runs(records, xs, ys)
    else:
        records, entries, start, end = _general_runs(records)
    ids = [r.id for r in records]
    nodes = tuple(dict.fromkeys(sorted(ids)))
    node_pos = dict(zip(nodes, range(len(nodes))))
    held = np.fromiter(map(node_pos.__getitem__, ids), dtype=np.int64, count=len(ids))
    run = end - start
    window = max(1, int(run.max()))

    indptr, indices = _straddle_csr(start, run, held, len(entries), len(nodes))
    f = SetValuedFunction.from_csr(tuple(entries), nodes, indptr, indices)

    colors = (np.arange(len(entries)) % window + 1).tolist()
    coloring = EntryColoring(dict(zip(entries, colors)), window)
    clique = materialize(f, coloring, nodes)
    return EndpointSchema(records, tuple(entries), f, coloring, clique, window, 0)


def interval_query_branches(s: EndpointSchema, a, b) -> tuple[set, set]:
    """The two union branches of the range query, kept apart for testing.

    First: rows whose color column for the greatest entry N* <= b holds N*
    (intervals straddling N*, all with y > b).  Second: intervals whose
    upper endpoint lies inside [a, b].  The branches are provably disjoint.
    A NaN bound raises InvalidRange; infinite bounds are allowed.
    """
    if not a <= b:  # also true when either bound is NaN
        if a != a or b != b:
            raise InvalidRange(f"query bound is NaN: [{a}, {b}]")
        raise InvalidRange(f"query upper {b} below lower {a}")
    first: set = set()
    pos = bisect.bisect_right(s.entries, b) - 1
    if pos >= 0:
        star = s.entries[pos]
        first = s.clique.column_preimage(s.coloring.assignment[star], star)
    lo = bisect.bisect_left(s._ys, a)
    hi = bisect.bisect_right(s._ys, b)
    return first, set(s._y_ids[lo:hi])


def interval_query(s: EndpointSchema, a, b) -> set:
    """Ids of intervals meeting [a, b]: x <= b and y >= a."""
    first, second = interval_query_branches(s, a, b)
    return first | second


def stabbing_query(s: EndpointSchema, p) -> set:
    """Ids of intervals containing the point p (closed semantics)."""
    return interval_query(s, p, p)


def bucketed_schema(intervals: Iterable[IntervalRecord]) -> list[EndpointSchema]:
    """One schema per log2-length bucket; zero-length intervals get their own.

    Mixing long and short intervals inflates runs (a long interval straddles
    every endpoint under it), so bucketing by magnitude usually shrinks the
    per-bucket color count.
    """
    records = list(intervals)
    if not records:
        raise EmptyInput("no intervals given")
    buckets: dict[float, list[IntervalRecord]] = {}
    for rec in records:
        length = rec.y - rec.x
        key = -math.inf if length == 0 else math.floor(math.log2(length))
        buckets.setdefault(key, []).append(rec)
    return [build_endpoint_schema(buckets[key]) for key in sorted(buckets)]


def bucketed_interval_query(schemas: Sequence[EndpointSchema], a, b) -> set:
    out: set = set()
    for s in schemas:
        out |= interval_query(s, a, b)
    return out
