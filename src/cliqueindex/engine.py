"""Posting-list query engine over a fact table joined to a clique table.

One posting per (color column, entry) holds the row ids whose referenced
node carries that entry in that column, emulating a bitmap join index.
A column's postings are slices of one sorted id array (CSR layout), so
building the index is one argsort per column.  Boolean predicates run as
set algebra on sorted rid arrays and bool masks (`bitset`), with a full
scan over per-column codes as the reference path and a bench harness that
reports index-vs-scan work.
"""

from __future__ import annotations

import csv
import io
import math
import re
import time
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Hashable, Sequence

import numpy as np

from .bitset import CompressedBitset, union
from .errors import EmptyFactTable, MalformedCsv, MalformedExpr, MeasureOverflow
from .schema import NULL, CliqueTable


def _parse_measure(text: str):
    try:
        return int(text)
    except ValueError:
        try:
            return float(text)
        except ValueError:
            raise MalformedCsv(f"measure {text!r} is not numeric") from None


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
                if arr is None or (self.n and int(np.abs(arr).max()) * self.n >= 2**62):
                    self._measure_data = ("pyint", None)
                else:
                    self._measure_data = ("int", arr)
            else:
                self._measure_data = ("float", np.asarray(self.measures, dtype=np.float64))
        return self._measure_data

    @classmethod
    def from_csv(cls, source, acc_cast=None) -> "FactTable":
        """Read `rid,acc,m` CSV; extra columns are ignored; rids must be a
        permutation of 0..N-1 (rows may arrive in any order).  acc_cast
        converts the acc strings when the clique table's nodes are typed."""
        if hasattr(source, "read"):
            text = source.read()
        else:
            text = source
        reader = csv.DictReader(io.StringIO(text))
        fields = reader.fieldnames or []
        for required in ("rid", "acc", "m"):
            if required not in fields:
                raise MalformedCsv(f"fact CSV is missing column {required!r}")
        rids, accs, measures = [], [], []
        for record in reader:
            try:
                rid = int(record["rid"])
            except (TypeError, ValueError):
                raise MalformedCsv(f"bad rid {record.get('rid')!r}") from None
            if record["acc"] is None or record["m"] is None:
                raise MalformedCsv(f"short row for rid {rid}")
            acc = record["acc"]
            if acc_cast is not None:
                try:
                    acc = acc_cast(acc)
                except ValueError:
                    raise MalformedCsv(f"bad acc {acc!r} for rid {rid}") from None
            rids.append(rid)
            accs.append(acc)
            measures.append(_parse_measure(record["m"]))
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
        with np.errstate(over="ignore"):
            total = float(marr[ids].sum())
        if not math.isfinite(total):
            raise MeasureOverflow(f"measure sum overflowed: {total!r}")
        return total

    def __len__(self) -> int:
        return self.n


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


def parse_query(text: str):
    """Parse the mini-language: atoms `cN='value'` combined with `!`, `&`,
    `|` and parentheses; `!` binds tightest, then `&`, then `|`."""
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

    def parse_not():
        tok = peek()
        if tok == "!":
            take()
            return Not(parse_not())
        if tok == "(":
            take()
            inner = parse_or()
            if peek() != ")":
                raise MalformedExpr("missing closing parenthesis")
            take()
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


class _Postings(Mapping):
    """(column, entry) -> rid set.  Per column, `ids` holds the non-NULL
    fact rids grouped by entry code (read-only, ascending within a code);
    code c's posting is the zero-copy view ids[offsets[c]:offsets[c + 1]]."""

    def __init__(self, n: int, columns: list[tuple[dict, np.ndarray, np.ndarray]]):
        self.n = n
        self.columns = columns

    def __getitem__(self, key) -> CompressedBitset:
        col, entry = key
        if not 1 <= col <= len(self.columns):
            raise KeyError(key)
        entry_code, offsets, ids = self.columns[col - 1]
        code = entry_code[entry]
        return CompressedBitset(self.n, ids=ids[offsets[code]:offsets[code + 1]])

    def __iter__(self):
        for col, (entry_code, _, _) in enumerate(self.columns, start=1):
            for entry in entry_code:
                yield col, entry

    def __len__(self) -> int:
        return sum(len(entry_code) for entry_code, _, _ in self.columns)


@dataclass
class PostingIndex:
    """Per-(column, entry) rid sets plus build statistics."""

    n: int
    k: int
    postings: _Postings
    unresolved: int

    def cardinalities(self) -> dict[tuple[int, Hashable], int]:
        return {key: b.cardinality() for key, b in self.postings.items()}

    def byte_size(self) -> int:
        """Bytes of the posting id arrays."""
        return sum(ids.nbytes for _, _, ids in self.postings.columns)


def _resolve_codes(fact: FactTable, clique: CliqueTable):
    """(unresolved row count, generator of (entry_code, row_codes) per
    column): entry -> code by first appearance, and each fact row's code,
    -1 for NULL or unresolved.  One column at a time bounds the memory."""
    rows = list(clique.rows.values())
    node_pos = {u: j for j, u in enumerate(clique.rows)}
    get = node_pos.get
    acc_idx = np.fromiter((get(a, -1) for a in fact.accs), dtype=np.intp, count=fact.n)

    def columns():
        for i in range(clique.k):
            entry_code: dict = {}
            # One slot past the nodes stays -1: acc index -1 (unresolved) reads it.
            node_codes = np.full(len(rows) + 1, -1, dtype=np.int32)
            for j, cells in enumerate(rows):
                if cells[i] is not NULL:
                    node_codes[j] = entry_code.setdefault(cells[i], len(entry_code))
            yield entry_code, node_codes[acc_idx]

    return int(np.count_nonzero(acc_idx < 0)), columns()


def build_index(fact: FactTable, clique: CliqueTable) -> PostingIndex:
    """Group fact rids by each color column's entry value.

    A column's postings are slices of one stable argsort of its non-NULL
    row codes, kept as int32 rids.  Rows whose acc is absent from the
    clique domain are counted as unresolved and appear in no posting (they
    still occupy rids, so NOT can return them).
    """
    unresolved, columns = _resolve_codes(fact, clique)
    csr = []
    for entry_code, row_codes in columns:
        rows = np.flatnonzero(row_codes >= 0)
        codes = row_codes[rows]
        ids = rows[np.argsort(codes, kind="stable")].astype(np.int32)
        ids.flags.writeable = False
        counts = np.bincount(codes, minlength=len(entry_code))
        csr.append((entry_code, np.concatenate(([0], np.cumsum(counts))), ids))
    return PostingIndex(fact.n, clique.k, _Postings(fact.n, csr), unresolved)


@dataclass
class QueryStats:
    """Work done by one evaluation: postings read, ids in them, and the
    bytes of their id arrays."""

    postings_touched: int = 0
    ids_touched: int = 0
    bytes_touched: int = 0


def _evaluate(q, idx: PostingIndex, stats: QueryStats | None) -> CompressedBitset:
    if isinstance(q, Atom):
        if not 1 <= q.col <= idx.k:
            raise MalformedExpr(f"column c{q.col} outside 1..c{idx.k}")
        posting = idx.postings.get((q.col, q.entry))
        if posting is None:
            posting = CompressedBitset.empty(idx.n)
        if stats is not None:
            stats.postings_touched += 1
            stats.ids_touched += posting.cardinality()
            stats.bytes_touched += posting.byte_size()
        return posting
    if isinstance(q, And):
        out = _evaluate(q.items[0], idx, stats)
        for item in q.items[1:]:
            out = out & _evaluate(item, idx, stats)
        return out
    if isinstance(q, Or):
        return union(idx.n, [_evaluate(item, idx, stats) for item in q.items])
    if isinstance(q, Not):
        return _evaluate(q.item, idx, stats).complement()
    raise MalformedExpr(f"not a query node: {q!r}")


def evaluate(q, idx: PostingIndex) -> CompressedBitset:
    """Exact rid set of the predicate, by posting-list algebra."""
    return _evaluate(q, idx, None)


def evaluate_with_stats(q, idx: PostingIndex) -> tuple[CompressedBitset, QueryStats]:
    stats = QueryStats()
    result = _evaluate(q, idx, stats)
    return result, stats


def aggregate_sum(q, idx: PostingIndex, fact: FactTable):
    """Sum of the measure column over the matching rows (FactTable.measure_sum)."""
    return fact.measure_sum(evaluate(q, idx).to_array())


# -- scan path ----------------------------------------------------------------


class ScanOracle:
    """Full-scan evaluation: every query touches all N rows.

    Per-column codes are materialized once so repeated scans stay
    affordable in tests; each query still reads every row's code.
    """

    def __init__(self, fact: FactTable, clique: CliqueTable):
        self.fact = fact
        self.k = clique.k
        self.unresolved, columns = _resolve_codes(fact, clique)
        self._columns = list(columns)

    def _mask(self, q) -> np.ndarray:
        if isinstance(q, Atom):
            if not 1 <= q.col <= self.k:
                raise MalformedExpr(f"column c{q.col} outside 1..c{self.k}")
            entry_code, row_codes = self._columns[q.col - 1]
            code = entry_code.get(q.entry, -2)
            return row_codes == code
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

    def rids(self, q) -> set[int]:
        return {int(r) for r in self.rid_array(q)}

    def sum_measure(self, q):
        measures = self.fact.measures
        total = 0
        for rid in self.rid_array(q):
            total += measures[rid]
        return total


def full_scan_oracle(q, fact: FactTable, clique: CliqueTable) -> set[int]:
    """One-shot scan evaluation; prefer ScanOracle for repeated queries."""
    return ScanOracle(fact, clique).rids(q)


def selectivity(q, idx: PostingIndex, fact: FactTable) -> float:
    """Fraction of fact rows the query touches."""
    if fact.n == 0:
        raise EmptyFactTable("selectivity is undefined on an empty fact table")
    return evaluate(q, idx).cardinality() / fact.n


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

TIMING_COLUMNS = ("index_ms", "scan_ms", "speedup")


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
