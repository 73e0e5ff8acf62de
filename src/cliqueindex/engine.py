"""Posting-list query engine over a fact table joined to a clique table.

An atom (column, entry) holds exactly the rows whose acc node carries the
entry in that column, so every predicate depends only on a row's acc node.
The engine therefore evaluates predicates on the clique table's own node
postings and expands the matched nodes to fact rows: a semijoin through
the dimension table (`schema.PostingIndex`).  Node sets live over N + 1
slots, slot N standing for the rows whose acc is no table node; no
posting holds it, so only a negation reaches those rows.  Set algebra runs
on sorted id arrays and bool masks (`bitset`); integer sums read per-node
sums and never touch rows.  A full scan over per-column row codes is the
reference path, and a bench harness reports index-vs-scan work.
"""

from __future__ import annotations

import csv
import io
import math
import re
import time
from dataclasses import dataclass
from itertools import repeat
from typing import Hashable, Iterable, Sequence

import numpy as np

from .bitset import DENSE_FRACTION, CompressedBitset, union
from .errors import MalformedCsv, MalformedExpr, MeasureOverflow, OutOfRange
from .schema import CliqueTable, CsvInput, PostingIndex


# CSV number syntax: an optional sign, ASCII digits with an optional
# fraction, and an optional exponent; no digit-group underscores, no padding.
_CSV_NUMBER = re.compile(r"[+-]?(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?")


def check_csv_number(text: str, what: str) -> None:
    """The package's one number rule for CSV fields, measures and interval
    endpoints: MalformedCsv naming text as what unless it is CSV number
    syntax.  float() reads the words nan and inf; they are named as not
    finite."""
    if _CSV_NUMBER.fullmatch(text) is None:
        finite = text.lstrip("+-").lower() not in ("nan", "inf", "infinity")
        raise MalformedCsv(f"{what} {text!r} is not {'numeric' if finite else 'finite'}")


def _parse_measure(text: str):
    # A plain digit string, most measures, needs no pattern match.
    if not (text.isascii() and text.isdigit()):
        check_csv_number(text, "measure")
    try:
        return int(text)
    except ValueError:  # a fraction or an exponent, or more digits than int() reads
        value = float(text)
    if not math.isfinite(value):  # 1e999 would poison every sum
        raise MalformedCsv(f"measure {text!r} is not finite")
    return value


class FactTable:
    """Referencing rows (rid, acc, m) with dense contiguous rids."""

    def __init__(self, accs: Sequence, measures: Sequence):
        if len(accs) != len(measures):
            raise MalformedCsv("acc and measure columns differ in length")
        self.accs = accs
        self.measures = measures
        self.n = len(accs)
        self._measure_data = None

    def measure_data(self):
        """(kind, array) where kind is "int" (int64 array, sums provably do
        not wrap), "pyint" (integers too large for safe int64 sums, no
        array) or "float"; built once on first use."""
        if self._measure_data is None:
            if all(type(m) is int for m in self.measures):
                try:
                    arr = np.asarray(self.measures, dtype=np.int64)
                except OverflowError:
                    arr = None
                # Exact ints: np.abs(-2**63) wraps to -2**63 in int64.
                if arr is None or (self.n and max(-int(arr.min()), int(arr.max())) * self.n >= 2**62):
                    self._measure_data = ("pyint", None)
                else:
                    self._measure_data = ("int", arr)
            else:
                self._measure_data = ("float", np.asarray(self.measures, dtype=np.float64))
        return self._measure_data

    @classmethod
    def from_csv(cls, source, acc_cast=None) -> "FactTable":
        """Read `rid,acc,m` CSV from a `schema.CsvInput` source (a path,
        text or a file object, streamed); extra columns are ignored; rids
        must be a permutation of 0..N-1 (rows may arrive in any order).
        acc_cast converts the acc strings when the clique table's nodes
        are typed.  A bad row is MalformedCsv naming its line.  A measure
        is CSV number syntax (an optional sign, ASCII digits, an optional
        fraction and exponent), read as an int when it has neither; `1_0`,
        ` 7 ` and `nan` are MalformedCsv."""
        rids, accs, measures = [], [], []
        with CsvInput(source) as rows:
            i_rid, i_acc, i_m = rows.columns("fact", ("rid", "acc", "m"))
            width = max(i_rid, i_acc, i_m) + 1
            for row in rows:
                if len(row) < width:
                    raise rows.error(f"short row, {len(row)} of {width} fields")
                try:
                    rid = int(row[i_rid])
                except ValueError:
                    raise rows.error(f"bad rid {row[i_rid]!r}") from None
                acc = row[i_acc]
                if acc_cast is not None:
                    try:
                        acc = acc_cast(acc)
                    except ValueError:
                        raise rows.error(f"bad acc {acc!r} for rid {rid}") from None
                rids.append(rid)
                accs.append(acc)
                try:
                    measures.append(_parse_measure(row[i_m]))
                except MalformedCsv as exc:
                    raise rows.error(str(exc)) from None
        n = len(rids)
        # n rids inside 0..N-1 with no rid twice are a permutation.
        if n and (min(rids) < 0 or max(rids) >= n or np.bincount(rids).max() > 1):
            raise MalformedCsv("rids are not contiguous 0..N-1")
        row_of = np.empty(n, dtype=np.intp)
        row_of[rids] = np.arange(n)
        order = row_of.tolist()
        return cls([accs[i] for i in order], [measures[i] for i in order])

    def measure_sum(self, ids: np.ndarray):
        """Sum of the measure over the rows `ids`; 0 when there are none.

        Integer measures sum exactly; a float sum reaching infinity raises
        MeasureOverflow.
        """
        if ids.size == 0:
            return 0
        kind, marr = self.measure_data()
        if kind == "int":
            return int(marr[ids].sum())
        if kind == "pyint":
            measures = self.measures
            return sum(measures[int(i)] for i in ids)
        with np.errstate(over="ignore", invalid="ignore"):  # inf - inf is nan, reported below
            total = float(marr[ids].sum())
        if not math.isfinite(total):
            raise MeasureOverflow(f"measure sum overflowed: {total!r}")
        return total


# -- boolean expressions -----------------------------------------------------


@dataclass(frozen=True)
class Atom:
    col: int
    entry: Hashable


@dataclass(frozen=True)
class And:
    items: tuple


@dataclass(frozen=True)
class Or:
    items: tuple


@dataclass(frozen=True)
class Not:
    item: object


_TOKEN = re.compile(r"\s*(?:(c\d+)\s*=\s*'([^']*)'|([&|!()]))")

# Parsing, evaluating and formatting recurse once or more per level of `!`
# and `(`; the bound keeps every one of them far from the interpreter's
# recursion limit.
MAX_QUERY_DEPTH = 100


def parse_query(text: str):
    """Parse the mini-language: atoms `cN='value'` combined with `!`, `&`,
    `|` and parentheses; `!` binds tightest, then `&`, then `|`.  Nesting
    deeper than MAX_QUERY_DEPTH levels of `!` and `(` is MalformedExpr."""
    tokens: list = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise MalformedExpr(f"unexpected input at position {pos}: {text[pos:pos + 20]!r}")
            break
        if m.group(1):
            col = int(m.group(1)[1:])
            if col < 1:
                raise MalformedExpr("column numbers start at c1")
            tokens.append(Atom(col, m.group(2)))
        else:
            tokens.append(m.group(3))
        pos = m.end()

    idx = 0

    def peek():
        return tokens[idx] if idx < len(tokens) else None

    def take():
        nonlocal idx
        tok = peek()
        idx += 1
        return tok

    def parse_or():
        items = [parse_and()]
        while peek() == "|":
            take()
            items.append(parse_and())
        return items[0] if len(items) == 1 else Or(tuple(items))

    def parse_and():
        items = [parse_not()]
        while peek() == "&":
            take()
            items.append(parse_not())
        return items[0] if len(items) == 1 else And(tuple(items))

    depth = 0

    def parse_not():
        nonlocal depth
        tok = peek()
        if tok in ("!", "("):
            depth += 1
            if depth > MAX_QUERY_DEPTH:
                raise MalformedExpr(f"query nests deeper than {MAX_QUERY_DEPTH} levels of '!' and '('")
            take()
            if tok == "!":
                inner = Not(parse_not())
            else:
                inner = parse_or()
                if peek() != ")":
                    raise MalformedExpr("missing closing parenthesis")
                take()
            depth -= 1
            return inner
        if isinstance(tok, Atom):
            return take()
        raise MalformedExpr(f"expected an atom, got {tok!r}")

    if not tokens:
        raise MalformedExpr("empty query")
    expr = parse_or()
    if idx != len(tokens):
        raise MalformedExpr(f"trailing tokens starting at {tokens[idx]!r}")
    return expr


def format_query(q) -> str:
    if isinstance(q, Atom):
        return f"c{q.col}='{q.entry}'"
    if isinstance(q, Not):
        return f"!{_wrap(q.item)}"
    if isinstance(q, And):
        return " & ".join(_wrap(i, tight=True) for i in q.items)
    if isinstance(q, Or):
        return " | ".join(_wrap(i) for i in q.items)
    raise MalformedExpr(f"not a query node: {q!r}")


def _wrap(q, tight: bool = False) -> str:
    text = format_query(q)
    if isinstance(q, Or) or (tight and isinstance(q, (And, Or))):
        return f"({text})"
    return text


# -- posting index ------------------------------------------------------------


def build_index(fact: FactTable, clique: CliqueTable) -> PostingIndex:
    """Join the fact rows to the clique table's postings by their acc
    positions (schema.PostingIndex).  Rows whose acc is absent from the
    clique domain take slot N and are counted as unresolved: they match no
    atom but still occupy rids, so NOT can return them.
    """
    get, slot = clique.position.get, len(clique)
    acc = np.fromiter(map(get, fact.accs, repeat(slot)), dtype=np.int32, count=fact.n)
    return PostingIndex(clique.postings, acc)


@dataclass
class QueryStats:
    """Work done by one evaluation: node postings read and the rows their
    node set expanded to, as ids touched and the bytes of the arrays read."""

    postings_touched: int = 0
    ids_touched: int = 0
    bytes_touched: int = 0


def _nodes(q, idx: PostingIndex, stats: QueryStats | None) -> CompressedBitset:
    """The node slots (0..N) whose rows satisfy q."""
    if isinstance(q, Atom):
        if not 1 <= q.col <= idx.k:
            raise MalformedExpr(f"column c{q.col} outside 1..c{idx.k}")
        ids = idx.postings.ids_of(q.col, q.entry)
        n = idx.postings.n
        posting = CompressedBitset.empty(n) if ids is None else CompressedBitset(n, ids=ids)
        if stats is not None:
            stats.postings_touched += 1
            stats.ids_touched += posting.cardinality()
            stats.bytes_touched += posting.byte_size()
        return posting
    if isinstance(q, And):
        out = _nodes(q.items[0], idx, stats)
        for item in q.items[1:]:
            out = out & _nodes(item, idx, stats)
        return out
    if isinstance(q, Or):
        return union(idx.postings.n, [_nodes(item, idx, stats) for item in q.items])
    if isinstance(q, Not):
        return _nodes(q.item, idx, stats).complement()
    raise MalformedExpr(f"not a query node: {q!r}")


def _total(per_slot: np.ndarray, nodes: CompressedBitset) -> int:
    """Sum of a per-slot array over the slots of a node set."""
    return int(per_slot[nodes.ids if nodes.ids is not None else nodes.mask].sum())


# Run copies (see _expand): the fewest rows worth detecting runs for, and
# the shortest mean run worth a copy.
_RUN_GATE = 1 << 15
_RUN_CUT = 512


def _expand(nodes: CompressedBitset, idx: PostingIndex, stats: QueryStats | None) -> CompressedBitset:
    """The rows of a node set, ascending, by the cheapest of four routes,
    its ids widened to intp first: numpy casts narrower ints on every fancy
    index (1000 int32 ids index indptr in 3.6 us, intp ids in 1.1 us, on a
    Xeon with numpy 2.4):

    - one node: a zero-copy view of its CSR slice;
    - at least n / 2 rows: a row mask read through acc, one take over all
      n rows (mask form, counted in stats as acc's bytes);
    - at least 2^15 rows whose CSR slices form runs averaging at least
      512 rows: the runs copied by one concatenate and the copy sorted in
      place.  A slice that starts where the previous one ended continues
      its run, so nodes with no rows do not break it;
    - otherwise the mask through acc from n / 4 rows on, and below that
      one gather of the slices' rows, then a sort.

    Measured over the perfbench op node sets (numpy 2.4, AVX-512, 100 k
    and 500 k rows): the int32 sort costs 3-4 ns a row, a copied run
    about 0.5 us plus its bytes, the per-row gather about 3 ns a row more
    than a run copy, and the mask 2-3 ns per fact row for its take and
    flatnonzero.  Runs beat the gather from a mean length of about 250
    rows, and beat the mask below n / 2 rows when they are long (at
    500 k rows, 125 k rows in 1-50 runs: 0.6 ms against 1.2-1.6 ms), but
    not at 40 k of 100 k rows in 149 runs of 266.  Detecting runs costs
    4-12 us, which the gate keeps off the small gathers.
    """
    if nodes.ids is not None:
        nodes = CompressedBitset(nodes.n, ids=nodes.ids.astype(np.intp, copy=False))
    count = _total(idx.counts, nodes)
    rows = _rows(nodes, idx, count)
    if stats is not None:
        stats.ids_touched += count
        stats.bytes_touched += idx.acc.nbytes if rows.mask is not None else idx.rows.itemsize * count
    return rows


def _rows(nodes: CompressedBitset, idx: PostingIndex, count: int) -> CompressedBitset:
    ids = nodes.ids
    if ids is not None and len(ids) == 1:
        j = int(ids[0])
        return CompressedBitset(idx.n, ids=idx.rows[idx.indptr[j]:idx.indptr[j + 1]])
    if _RUN_GATE <= count and count * 2 < idx.n:
        runs = _runs(ids if ids is not None else np.flatnonzero(nodes.mask), idx, count)
        if runs is not None:
            return runs
    if count * DENSE_FRACTION >= idx.n:
        mask = nodes.mask
        if mask is None:
            mask = np.zeros(idx.postings.n, dtype=bool)
            mask[ids] = True
        return CompressedBitset(idx.n, mask=mask.take(idx.acc))
    if ids is None:
        ids = np.flatnonzero(nodes.mask)
    sizes = idx.counts[ids]
    # Each matched row's position in the CSR: its node's slice start, plus
    # its rank among the matched rows, less the rows of the slices before.
    pos = np.repeat(idx.indptr[ids] - (np.cumsum(sizes) - sizes), sizes)
    pos += np.arange(count)
    return CompressedBitset(idx.n, ids=np.sort(idx.rows.take(pos)))


def _runs(ids: np.ndarray, idx: PostingIndex, count: int) -> CompressedBitset | None:
    """The count rows of node slots ids (ascending) as their CSR runs,
    copied and sorted; None when the runs average fewer than _RUN_CUT rows."""
    starts, ends = idx.indptr[ids], idx.indptr[1:][ids]
    joins = starts[1:] == ends[:-1]
    if count < _RUN_CUT * (len(ids) - np.count_nonzero(joins)):
        return None
    breaks = np.flatnonzero(~joins)
    firsts = starts[np.concatenate(([0], breaks + 1))].tolist()
    lasts = ends[np.append(breaks, len(ids) - 1)].tolist()
    out = np.concatenate([idx.rows[a:b] for a, b in zip(firsts, lasts)])
    out.sort()
    return CompressedBitset(idx.n, ids=out)


def evaluate(q, idx: PostingIndex) -> CompressedBitset:
    """Exact rid set of the predicate: its node set, by posting-list
    algebra, expanded to rows."""
    return _expand(_nodes(q, idx, None), idx, None)


def evaluate_in(col: int, entries: Iterable, idx: PostingIndex) -> CompressedBitset:
    """Exact rid set of `col IN entries`, the Or of its atoms, with the
    column's postings gathered in one pass (Postings.union_of)."""
    if not 1 <= col <= idx.k:
        raise MalformedExpr(f"column c{col} outside 1..c{idx.k}")
    return _expand(idx.postings.union_of(col, entries), idx, None)


def evaluate_with_stats(q, idx: PostingIndex) -> tuple[CompressedBitset, QueryStats]:
    stats = QueryStats()
    result = _expand(_nodes(q, idx, stats), idx, stats)
    return result, stats


def row_count(q, idx: PostingIndex) -> int:
    """Number of rows matching the predicate, from its nodes' row counts."""
    return _total(idx.counts, _nodes(q, idx, None))


def aggregate_sum(q, idx: PostingIndex, fact: FactTable):
    """Sum of the measure column over the matching rows.  Exact integer
    measures sum the matched nodes' per-node sums; other measures sum the
    matching rows in rid order (FactTable.measure_sum)."""
    nodes = _nodes(q, idx, None)
    kind, marr = fact.measure_data()
    if kind == "int":
        return _total(idx.slot_sums(marr), nodes)
    return fact.measure_sum(_expand(nodes, idx, None).to_array())


# -- scan path ----------------------------------------------------------------


class ScanOracle:
    """Full-scan evaluation: every query touches all N rows.

    Each row's acc node is resolved once, to its position in the clique
    table or -1.  A column's per-row codes are built when an atom first
    reads the column and kept, so repeated scans stay affordable in tests
    and columns no query reads cost nothing; each atom still compares
    every row's code.
    """

    def __init__(self, fact: FactTable, clique: CliqueTable):
        self.fact = fact
        self.clique = clique
        self.k = clique.k
        self._acc_pos = np.fromiter(map(clique.position.get, fact.accs, repeat(-1)), dtype=np.intp, count=fact.n)
        self._codes: dict[int, np.ndarray] = {}

    def row_codes(self, col: int) -> np.ndarray:
        """Column col's int32 code at each fact row: its acc node's code,
        -1 for NULL or an acc outside the table's domain."""
        if col not in self._codes:
            # One slot past the nodes stays -1: acc position -1 (unresolved) reads it.
            padded = np.full(len(self.clique) + 1, -1, dtype=np.int32)
            self.clique.column_codes(col, out=padded[:-1])
            self._codes[col] = padded.take(self._acc_pos)
        return self._codes[col]

    def _mask(self, q) -> np.ndarray:
        if isinstance(q, Atom):
            if not 1 <= q.col <= self.k:
                raise MalformedExpr(f"column c{q.col} outside 1..c{self.k}")
            code = self.clique.postings.codes(q.col).get(q.entry, -2)
            return self.row_codes(q.col) == code
        if isinstance(q, And):
            out = self._mask(q.items[0])
            for item in q.items[1:]:
                out = out & self._mask(item)
            return out
        if isinstance(q, Or):
            out = self._mask(q.items[0])
            for item in q.items[1:]:
                out = out | self._mask(item)
            return out
        if isinstance(q, Not):
            return ~self._mask(q.item)
        raise MalformedExpr(f"not a query node: {q!r}")

    def rid_array(self, q) -> np.ndarray:
        return np.flatnonzero(self._mask(q))

    def sum_measure(self, q):
        """Row-at-a-time sum, left to right over the matching rids."""
        measures = self.fact.measures
        return sum(measures[rid] for rid in self.rid_array(q).tolist())


# -- bench --------------------------------------------------------------------

BENCH_COLUMNS = (
    "query_id",
    "expr",
    "target_sigma",
    "achieved_sigma",
    "result_rows",
    "postings_touched",
    "ids_touched",
    "bytes_touched",
    "index_ms",
    "scan_ms",
    "speedup",
)


@dataclass(frozen=True)
class BenchSpec:
    """Workload description; the seed is mandatory so reruns are comparable."""

    seed: int
    rows: int = 1_500_000
    levels: int = 12
    targets: tuple[float, ...] = (1 / 24, 1 / 204)


def _pick_workload(target: float, levels: int) -> tuple[int, int]:
    """Deepest-fitting (level q, atom count m) with m/2^(q-1) near target.

    Atoms will be disjoint same-column subtree entries, so the expected
    selectivity of their OR is exactly m/2^(q-1) under uniform leaf accs.
    """
    best = None
    for q in range(2, levels + 1):
        slots = 1 << (q - 1)
        m = max(1, min(slots, round(target * slots)))
        err = abs(m / slots - target)
        if best is None or err < best[0]:
            best = (err, q, m)
    return best[1], best[2]


def bench(spec: BenchSpec) -> str:
    """Generate a seeded synthetic workload and time index vs scan.

    Fact rows reference uniform random leaves of a binary interval tree
    schema; each query is an OR of disjoint same-column atoms chosen to
    approximate a target selectivity.  All columns except the timing ones
    are deterministic functions of the BenchSpec argument.
    """
    from .tree import build_tree_schema

    if spec.levels < 2:
        raise OutOfRange(f"bench needs at least 2 tree levels, got {spec.levels}")
    if spec.rows < 0:
        raise OutOfRange(f"bench needs a row count of at least 0, got {spec.rows}")
    for target in spec.targets:
        if not 0 < target <= 1:  # also rejects NaN
            raise OutOfRange(f"bench targets must be finite numbers in (0, 1], got {target}")
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(BENCH_COLUMNS)
    if not spec.targets:
        return buf.getvalue()

    clique = build_tree_schema(spec.levels)
    rng = np.random.default_rng(spec.seed)
    half = 1 << (spec.levels - 1)
    accs = rng.integers(half, 2 * half, size=spec.rows)
    measures = rng.integers(0, 1000, size=spec.rows)
    fact = FactTable(accs.tolist(), measures.tolist())
    idx = build_index(fact, clique)
    scan = ScanOracle(fact, clique)

    for qid, target in enumerate(spec.targets):
        q_level, m = _pick_workload(target, spec.levels)
        level_ids = np.arange(1 << (q_level - 1), 1 << q_level)
        chosen = sorted(int(p) for p in rng.choice(level_ids, size=m, replace=False))
        expr = Or(tuple(Atom(q_level, p) for p in chosen)) if m > 1 else Atom(q_level, chosen[0])
        t0 = time.perf_counter()
        result, stats = evaluate_with_stats(expr, idx)
        index_s = time.perf_counter() - t0
        t1 = time.perf_counter()
        scan_rids = scan.rid_array(expr)
        scan_s = time.perf_counter() - t1
        rows = result.cardinality()
        if rows != len(scan_rids):
            raise AssertionError(f"index/scan disagree on query {qid}: {rows} vs {len(scan_rids)}")
        row = {
            "query_id": qid,
            "expr": format_query(expr),
            "target_sigma": f"{target:.10g}",
            "achieved_sigma": f"{rows / fact.n:.10g}" if fact.n else "0",
            "result_rows": rows,
            "postings_touched": stats.postings_touched,
            "ids_touched": stats.ids_touched,
            "bytes_touched": stats.bytes_touched,
            "index_ms": f"{index_s * 1000:.3f}",
            "scan_ms": f"{scan_s * 1000:.3f}",
            "speedup": f"{scan_s / index_s:.2f}" if index_s > 0 else "inf",
        }
        writer.writerow([row[c] for c in BENCH_COLUMNS])
    return buf.getvalue()
