"""Materialized clique tables: the relational form of a colored function.

Given a set-valued function and a proper coloring of its intersection
graph, the table has one row per node and one column per color; cell
(u, i) holds the unique entry of color i whose image contains u, or NULL.
Column i is then an index on the data: the rows holding e* in column
c(e*) are exactly the image of e*, which is what verify_schema checks.
The table is stored as that index and nothing else: per column, its
entries in code order and CSR postings of node positions (`Postings`),
which build the column's entry -> code map on its first lookup; a column
whose entries are a range (the tree's) codes an int by arithmetic and
builds no map for it.  A range node domain is kept as the range.  Rows and
cells are read from a node -> cells transpose built on first use.  A
`PostingIndex` joins the fact rows that reference the nodes (`engine`) to
those postings through a node -> rows CSR, so a predicate is evaluated on
the nodes and its node set expanded to fact rows.
"""

from __future__ import annotations

import bisect
import copy
import csv
import io
import json
import os
import re
from collections.abc import Mapping
from contextlib import AbstractContextManager
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, islice, repeat
from types import SimpleNamespace
from typing import Hashable, Iterable, Iterator, Sequence

import numpy as np

from .bitset import CompressedBitset, union
from .errors import ColorCollision, InconsistentArity, MalformedCsv, OutOfRange, UnknownNode
from .intersection import EntryColoring, RowView, SetValuedFunction

Entry = Hashable
Node = Hashable

NULL = None
BLOCK_ROWS = 4096  # rows per `%`-formatted block of table CSV
GATHER_BLOCK = 1 << 18  # memberships per block of materialize's gather, whole columns each


def _sorted_ids(values: Iterable) -> list:
    values = list(values)
    try:
        return sorted(values)
    except TypeError:
        return sorted(values, key=repr)


def _entry_map(maps: list, i: int, entries: Sequence) -> dict:
    """maps[i], the entry -> code dict of a column with these entries,
    built on first use and kept."""
    entry_code = maps[i]
    if entry_code is None:
        entry_code = maps[i] = dict(zip(entries, range(len(entries))))
    return entry_code


class _RangeCodes(dict):
    """Entry -> code of a column whose entries are a range, filled as keys
    are looked up: an int's code is found by range arithmetic and kept (an
    absent int gives None, not kept); a key of any other type gives what
    the column's full map (maps[i], built on first use) gives.  Kept keys
    are the ints that map holds, so a key equal to one (True, 2.0) reads
    the same code from either."""

    __slots__ = ("maps", "i", "entries")

    def __init__(self, maps: list, i: int, entries: range):
        self.maps, self.i, self.entries = maps, i, entries

    def __missing__(self, e: Entry) -> int | None:
        if type(e) is not int:
            return _entry_map(self.maps, self.i, self.entries).get(e)
        if e not in self.entries:
            return None
        code = self[e] = (e - self.entries.start) // self.entries.step
        return code


class Postings:
    """(column, entry) -> id set over positions 0..n-1, stored by column.

    Each column is a tuple (entries, offsets, ids): entries lists (a range
    for the tree) the column's entries in code order, ids holds the
    column's positions grouped by code (read-only int32, ascending within
    a code), and code c's posting is the zero-copy view
    ids[offsets[c]:offsets[c + 1]].  codes(col) is the column's entry ->
    code dict, built on first use and kept, also by copies (PostingIndex's).
    A column whose entries are a range codes an int by range arithmetic
    (_RangeCodes) and builds that dict only for a key of another type.
    A posting is read two ways only: ids_of gives one (column, entry)'s
    view, and union_of a column's IN list in one pass; when its postings'
    runs do not interleave, the answer stays an array at any size.  len is
    the number of (column, entry) postings.  from_codes builds the columns
    from int32 code arrays over the positions.
    """

    def __init__(self, n: int, columns: Iterable[tuple[Sequence, np.ndarray, np.ndarray]]):
        self.n = n
        self.columns = list(columns)
        self._maps: list[dict | None] = [None] * len(self.columns)
        self._ranges = [
            _RangeCodes(self._maps, i, entries) if type(entries) is range else None
            for i, (entries, _, _) in enumerate(self.columns)
        ]
        for _, _, ids in self.columns:
            ids.flags.writeable = False

    @classmethod
    def from_codes(cls, n: int, columns: Iterable[tuple[Sequence, np.ndarray]]) -> "Postings":
        """Columns from (entries, codes) pairs, codes holding each
        position's int32 code (-1 for NULL), by one stable argsort each;
        a column is turned into its posting before the next is read."""
        out = []
        for entries, codes in columns:
            rows = np.flatnonzero(codes >= 0)
            codes = codes[rows]
            ids = rows[np.argsort(codes, kind="stable")].astype(np.int32)
            counts = np.bincount(codes, minlength=len(entries))
            out.append((entries, np.concatenate(([0], np.cumsum(counts))), ids))
        return cls(n, out)

    def codes(self, col: int) -> dict:
        """Column col's (1-based, in 1..k) entry -> code dict, built from its
        entries on first use and kept."""
        return _entry_map(self._maps, col - 1, self.columns[col - 1][0])

    def ids_of(self, col: int, entry: Entry) -> np.ndarray | None:
        """Column col's posting of entry as its read-only id view, or None
        for a column outside 1..k or an entry the column does not hold."""
        if not 1 <= col <= len(self.columns):
            return None
        _, offsets, ids = self.columns[col - 1]
        by_range = self._ranges[col - 1]
        code = self.codes(col).get(entry) if by_range is None else by_range[entry]
        return None if code is None else ids[offsets[code]:offsets[code + 1]]

    def union_of(self, col: int, entries: Iterable[Entry]) -> CompressedBitset:
        """Column col's IN list in one pass: the union of the entries'
        postings, absent and repeated entries and empty postings dropped.
        One posting is its zero-copy view.  A column's postings are
        disjoint, so runs ordered by first id that do not interleave are
        concatenated (one copy, no sort or mask, an array at any size);
        interleaving runs take bitset.union."""
        if not 1 <= col <= len(self.columns):
            raise KeyError(col)
        _, offsets, ids = self.columns[col - 1]
        by_range = self._ranges[col - 1]
        if by_range is None:
            entry_code = self.codes(col)
            codes = {entry_code[e] for e in entries if e in entry_code}
        else:
            codes = {by_range[e] for e in entries}
            codes.discard(None)
        spans = ((offsets[c], offsets[c + 1]) for c in codes)
        runs = sorted((ids[a:b] for a, b in spans if a < b), key=lambda run: run[0])
        if not runs:
            return CompressedBitset.empty(self.n)
        if len(runs) == 1:
            return CompressedBitset(self.n, ids=runs[0])
        if all(run[-1] < after[0] for run, after in zip(runs, runs[1:])):
            return CompressedBitset(self.n, ids=np.concatenate(runs))
        return union(self.n, [CompressedBitset(self.n, ids=run) for run in runs])

    def __len__(self) -> int:
        return sum(len(entries) for entries, _, _ in self.columns)


class PostingIndex:
    """Fact rows that reference the nodes of a clique table, joined to its
    postings (a semijoin through the table, in place of a bitmap join
    index that copies each posting into row space).

    postings copies the table's, sharing its columns and kept entry maps,
    over the N + 1 node slots: ids_of gives one (column, entry)'s node
    positions and union_of a column's IN list.  acc[r] is row r's node
    position, N for a row that references no node (unresolved, in no
    posting).  Node slot j's rows, ascending, are rows[indptr[j]:indptr[j + 1]]
    for j in 0..N, from one stable argsort of acc, and counts[j] is their
    number; acc, rows, indptr and counts are read-only.
    """

    def __init__(self, postings: Postings, acc: np.ndarray):
        self.postings = copy.copy(postings)
        self.postings.n += 1
        self.n = len(acc)
        self.k = len(postings.columns)
        self.acc = acc.astype(np.int32)
        # acc holds 0..N; numpy radix-sorts 16-bit keys (500 k rows: 9 ms, not 59).
        keys = self.acc.astype(np.uint16) if postings.n < 1 << 16 else self.acc
        self.rows = np.argsort(keys, kind="stable").astype(np.int32)
        self.counts = np.bincount(self.acc, minlength=postings.n + 1)
        self.indptr = np.concatenate(([0], np.cumsum(self.counts)))
        self.unresolved = int(self.counts[postings.n])
        for array in (self.acc, self.rows, self.counts, self.indptr):
            array.flags.writeable = False
        self._sums = None

    def slot_sums(self, values: np.ndarray) -> np.ndarray:
        """Per node slot, the int64 sum of values over its rows: prefix
        sums of values in rows order, differenced at indptr.  The sums of
        the last values array given are kept."""
        if self._sums is None or self._sums[0] is not values:
            prefix = np.concatenate(([0], np.cumsum(values.take(self.rows), dtype=np.int64)))
            self._sums = (values, prefix[self.indptr[1:]] - prefix[self.indptr[:-1]])
        return self._sums[1]

    def byte_size(self) -> int:
        """Bytes of the posting id arrays, acc and the node -> rows CSR."""
        postings = sum(ids.nbytes for _, _, ids in self.postings.columns)
        return postings + self.acc.nbytes + self.rows.nbytes + self.indptr.nbytes


def _code_columns(n: int, columns: Iterable[Sequence], null=NULL) -> Iterator[tuple[list, np.ndarray]]:
    """Code the columns' n cells in first-seen order, one column at a time:
    per column, its entries in code order and int32 codes, -1 at null."""
    for column in columns:
        entries = [v for v in dict.fromkeys(column) if v != null]
        index = dict(zip(entries, range(len(entries))))
        index[null] = -1
        yield entries, np.fromiter(map(index.__getitem__, column), dtype=np.int32, count=n)


class CliqueTable:
    """k color columns over an ordered node domain, stored as their postings.

    postings holds the column postings over node positions, the table's
    only cell storage, and entries[i] is column i + 1's entries in it (not
    a copy), in code order; each entry is held by some node.  A column's
    entry -> code map is postings.codes(i + 1), built on its first lookup
    (a range column's int lookups need none).  rows and export read a
    node -> cells transpose built from the postings on first use.  Queries
    answer in positions: column_preimage alone decodes them to nodes.  A
    range node domain of the table's length is kept as the range; any other
    is copied at construction into the object array of nodes by position,
    which a range domain builds only when node objects are read.  Builders
    write the postings: materialize and build_tree_schema lay out the
    columns directly, import_table codes its cells with Postings.from_codes.
    Immutable by convention.
    """

    def __init__(self, nodes: Iterable[Node], postings: Postings):
        if type(nodes) is range and len(nodes) == postings.n:
            self._domain = nodes
        else:
            self._domain = self._nodes = np.fromiter(nodes, dtype=object, count=postings.n)
        self.k = len(postings.columns)
        self.entries = [entries for entries, _, _ in postings.columns]
        self.postings = postings

    @cached_property
    def _nodes(self) -> np.ndarray:
        """The nodes by position as an object array, built on first use
        from a range domain."""
        return np.fromiter(self._domain, dtype=object, count=len(self))

    @cached_property
    def position(self) -> dict:
        """Node -> position, built on first use."""
        domain = self._domain
        return dict(zip(domain if type(domain) is range else domain.tolist(), range(len(self))))

    @cached_property
    def _transpose(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Node -> cells, built on first use: node position j's non-NULL
        cells are cells[indptr[j]:indptr[j + 1]] in column order, each the
        number of its entry when the columns' entries are numbered in order
        (code c of 0-based column i is c plus the entry count of the columns
        before i), and column[g] is entry number g's 0-based column.  A column holds a node
        at most once, so the columns are placed one after another by
        counting sort, with no temporary as large as the table."""
        columns = self.postings.columns
        counts = np.zeros(len(self), dtype=np.intp)
        for _, _, ids in columns:
            counts[ids] += 1
        indptr = np.concatenate(([0], np.cumsum(counts)))
        starts = np.cumsum([0] + [len(column) for column in self.entries])
        cells, fill = np.empty(indptr[-1], dtype=np.int32), indptr[:-1].copy()
        for start, (_, offsets, ids) in zip(starts.tolist(), columns):
            codes = np.arange(start, start + len(offsets) - 1, dtype=np.int32)
            cells[fill[ids]] = np.repeat(codes, np.diff(offsets))
            fill[ids] += 1
        return indptr, cells, np.repeat(np.arange(self.k, dtype=np.int32), np.diff(starts))

    @cached_property
    def _numbered_entries(self) -> tuple[list, list[int]]:
        """Every entry in number order, and its 0-based column, as lists."""
        return list(chain.from_iterable(self.entries)), self._transpose[2].tolist()

    @property
    def rows(self) -> Mapping[Node, tuple]:
        """Read-only node -> tuple of cells; each row is decoded when read."""
        return RowView(self._domain, self._cells_of)

    def _cells_of(self, u: Node) -> tuple:
        indptr, cells, _ = self._transpose
        entries, column = self._numbered_entries
        j = self.position[u]
        row = [NULL] * self.k
        for g in cells[indptr[j]:indptr[j + 1]].tolist():
            row[column[g]] = entries[g]
        return tuple(row)

    def column_codes(self, i: int, out: np.ndarray) -> np.ndarray:
        """Column i's (1-based) int32 code at each node position, -1 for
        NULL, written from its postings into out (N long int32)."""
        _, offsets, ids = self.postings.columns[i - 1]
        out.fill(-1)
        out[ids] = np.repeat(np.arange(len(offsets) - 1, dtype=np.int32), np.diff(offsets))
        return out

    def null_count(self) -> int:
        return len(self) * self.k - sum(len(ids) for _, _, ids in self.postings.columns)

    def column_preimage(self, i: int, e: Entry) -> set:
        """Nodes whose column i holds entry e: its posting, as a new set."""
        ids = self.postings.ids_of(i, e)
        return set() if ids is None else set(self._nodes.take(ids).tolist())

    def __len__(self) -> int:
        return self.postings.n


def _first_conflict(f: SetValuedFunction, c: EntryColoring, position: dict) -> Exception:
    """The error a cell-by-cell fill in entry order meets first: a node
    outside the domain, or a cell claimed by two entries of one color."""
    owner: dict = {}
    for e, image in f.image.items():
        i = c.assignment[e]
        for u in image:
            if u not in position:
                return UnknownNode(u)
            prev = owner.setdefault((u, i), e)
            if prev != e:
                return ColorCollision(u, i, prev, e)
    raise AssertionError("no conflicting cell")


def materialize(
    f: SetValuedFunction,
    c: EntryColoring,
    domain: Sequence[Node] | None = None,
) -> CliqueTable:
    """Write each column's postings straight from f's CSR.

    The row set defaults to the sorted union of all images; an explicit
    domain may add nodes no entry references (their rows are all NULL).
    An image node outside the domain raises UnknownNode, and a color
    outside 1..k raises OutOfRange.  A node claimed by two entries of one
    color means the coloring was not proper on the intersection graph:
    ColorCollision.  One lookup per node of f's domain maps f's node
    positions to rows; when they already are the rows (the domain starts
    with f's nodes, in order) f.indices is used as is.  The entries with a
    non-empty image, grouped by color in f's order, are the columns'
    entries in code order (slices of one list), and their rows, gathered
    in that order into one int32 array, the columns' ids (views of it).
    The gather runs in blocks of whole columns, about GATHER_BLOCK
    memberships each, widened once to intp for the per-column check: a row
    twice in one column is a collision.
    """
    order = _sorted_ids(f.node_domain()) if domain is None else list(dict.fromkeys(domain))
    position = dict(zip(order, range(len(order))))
    sizes = np.diff(f.indptr)
    filled = np.flatnonzero(sizes)
    entries = np.fromiter(f.entries, dtype=object, count=len(f.entries))
    colors = np.fromiter(map(c.assignment.__getitem__, entries[filled].tolist()), dtype=np.intp, count=len(filled))
    bad = np.flatnonzero((colors < 1) | (colors > c.k))
    if len(bad):
        raise OutOfRange(f"entry {entries[filled[bad[0]]]!r} has color {colors[bad[0]]}, outside 1..{c.k}")
    row_of = np.fromiter(map(position.get, f.nodes, repeat(-1)), dtype=np.int32, count=len(f.nodes))
    if np.array_equal(row_of, np.arange(len(row_of))):
        rows = f.indices
    else:
        rows = row_of[f.indices]
        if (rows < 0).any():
            raise _first_conflict(f, c, position)
        known = row_of[row_of >= 0]
        if (known[1:] < known[:-1]).any():  # rows of an entry no longer ascend: sort within entries
            base = np.repeat(np.arange(len(sizes)) * len(order), sizes)
            rows = (np.sort(rows + base) - base).astype(np.int32)
    by_color = filled[np.argsort(colors, kind="stable")]
    names = entries[by_color].tolist()  # every column's entries, in code order
    lengths = sizes[by_color]
    offset = np.concatenate(([0], np.cumsum(lengths)))  # each entry's first membership, counted in color order
    shift = f.indptr[by_color] - offset[:-1]  # membership j of an entry is rows[shift + j]
    ends = np.concatenate(([0], np.cumsum(np.bincount(colors, minlength=c.k + 1)[1:]))).tolist()
    bounds = offset[ends].tolist()  # membership offset of each column
    ids = np.empty(bounds[-1], dtype=np.int32)
    last = np.empty(len(order), dtype=np.intp)
    lo = hi = 0
    seq = wide = np.empty(0, dtype=np.intp)
    columns = []
    for i in range(c.k):
        a, b = ends[i], ends[i + 1]
        if bounds[i + 1] > hi:  # gather the next block: whole columns from column i on
            stop = max(i + 1, bisect.bisect_right(bounds, bounds[i] + GATHER_BLOCK) - 1)
            lo, hi = bounds[i], bounds[stop]
            seq = np.arange(lo, hi)
            np.take(rows, np.repeat(shift[a:ends[stop]], lengths[a:ends[stop]]) + seq, out=ids[lo:hi])
            wide = ids[lo:hi].astype(np.intp)
        span = slice(bounds[i] - lo, bounds[i + 1] - lo)
        column, mark = wide[span], seq[span]
        last[column] = mark  # a row twice in the column keeps one of its writes
        if not np.array_equal(last[column], mark):
            raise _first_conflict(f, c, position)
        offsets = offset[a:b + 1] - offset[a]
        columns.append((names[a:b], offsets, ids[bounds[i]:bounds[i + 1]]))
    return CliqueTable(order, Postings(len(order), columns))


@dataclass(frozen=True)
class VerifyResult:
    """Outcome of verify_schema; falsy on the first counterexample found."""

    ok: bool
    entry: Entry = None
    missing: frozenset = frozenset()
    extra: frozenset = frozenset()

    def __bool__(self) -> bool:
        return self.ok


def verify_schema(f: SetValuedFunction, t: CliqueTable, c: EntryColoring) -> VerifyResult:
    """Check the table is a complete schema for f under coloring c.

    For every entry e, the preimage of e in column c(e) (its posting) must
    equal the image F(e) exactly; any entry a column holds that is not of
    that column's color is also a failure, reported at its first node.
    Postings are compared with f's rows as table positions; only a
    mismatching entry is decoded to node sets.
    """
    row_of = np.fromiter(map(t.position.get, f.nodes, repeat(-1)), dtype=np.int64, count=len(f.nodes))
    none = np.empty(0, dtype=np.int32)
    for i, e in enumerate(f.entries):
        got = t.postings.ids_of(c.assignment[e], e)
        if not np.array_equal(none if got is None else got, np.sort(row_of[f.row(i)])):
            recovered = t.column_preimage(c.assignment[e], e)
            expected = f.image[e]
            return VerifyResult(False, e, frozenset(expected - recovered), frozenset(recovered - expected))
    by_color: dict[int, set] = {}
    for e in f.entries:
        by_color.setdefault(c.assignment[e], set()).add(e)
    strays = [
        (int(t.postings.ids_of(i, value)[0]), i, value)
        for i, column in enumerate(t.entries, start=1)
        for value in column
        if value not in by_color.get(i, ())
    ]
    if strays:
        j, _, value = min(strays)  # positions and columns never tie
        return VerifyResult(False, value, frozenset(), frozenset({t._nodes[j]}))
    return VerifyResult(True)


def recover_coloring(t: CliqueTable) -> EntryColoring:
    """Read the entry -> column map back out of a table's entry lists.

    Every complete schema induces a proper coloring this way.  An entry
    sitting in two different columns means the table is no schema at all.
    """
    assignment: dict[Entry, int] = {}
    for i, column in enumerate(t.entries, start=1):
        for value in column:
            prev = assignment.setdefault(value, i)
            if prev != i:
                raise MalformedCsv(
                    f"entry {value!r} appears in columns {prev} and {i}; not a schema"
                )
    return EntryColoring(assignment, t.k)


def compact_colors(t: CliqueTable) -> tuple[CliqueTable, dict[int, int]]:
    """Drop all-NULL columns (those with no entries) and renumber the rest 1..k'.

    Returns the new table and the old -> new column map.
    """
    used = [i for i in range(1, t.k + 1) if t.entries[i - 1]]
    remap = {old: new for new, old in enumerate(used, start=1)}
    columns = t.postings.columns
    return CliqueTable(t._domain, Postings(len(t), [columns[i - 1] for i in used])), remap


def write_table_csv(fh, k: int, blocks: Iterable[np.ndarray], texts: Sequence[str] | None = None) -> None:
    """Write the table CSV: header `node,c1,...,ck`, then each block, a
    (k + 1, rows) int array with the node column first, as one `%`-formatted
    string.  A 0 cell is NULL, written as an empty field; with texts, any
    other cell v is written as texts[v - 1], else as the int itself."""
    line = ",".join(["%s"] * (k + 1)) + "\n"
    fh.write(",".join(["node"] + [f"c{i}" for i in range(1, k + 1)]) + "\n")
    lookup = None if texts is None else np.array(["", *texts], dtype=object)
    for cells in (np.ascontiguousarray(block.T) for block in blocks):  # rows in memory order
        fields = cells.astype(object) if lookup is None else lookup.take(cells)
        fields[cells == 0] = ""
        fh.write(line * len(cells) % tuple(fields.ravel().tolist()))


def csv_lines(rows: Iterable[Iterable]) -> Iterator[str]:
    """Each row as one line of CSV text ending in "\\n", the package's one
    output rule for a field: csv.writer's minimal quoting under a "\\r\\n"
    terminator, so that a field holding a lone "\\r" is quoted as well as one
    holding "\\n", '"' or ",", and a row of one empty field reads '""'."""
    lines: list[str] = []
    writer = csv.writer(SimpleNamespace(write=lines.append), lineterminator="\r\n")
    for row in rows:
        writer.writerow(row)
        yield lines.pop()[:-2] + "\n"


def export_table(t: CliqueTable, dest=None) -> str | None:
    """Write the table through write_table_csv to the text file object dest,
    each distinct node and entry escaped once by csv_lines; with dest None,
    return the CSV text."""
    # One row per node, then per entry, padded to two fields unless k is 0:
    # csv.writer quotes an empty field only when it is a row's only field.
    pad = [repeat("")] * min(t.k, 1)
    texts = [line[: -1 - len(pad)] for line in csv_lines(zip(chain(t._nodes.tolist(), *t.entries), *pad))]
    # Block cell v stands for texts[v - 1]: node position j is j + 1, and
    # the transpose's entry number g is len(t) + 1 + g.
    indptr, cells, column = t._transpose

    def block(start: int) -> np.ndarray:
        stop = min(start + BLOCK_ROWS, len(t))
        ints = np.zeros((t.k + 1, stop - start), dtype=np.int64)
        ints[0] = np.arange(start + 1, stop + 1)
        g = cells[indptr[start]:indptr[stop]]
        ints[column[g] + 1, np.repeat(np.arange(stop - start), np.diff(indptr[start:stop + 1]))] = g + len(t) + 1
        return ints

    out = io.StringIO() if dest is None else dest
    write_table_csv(out, t.k, map(block, range(0, len(t), BLOCK_ROWS)), texts)
    return out.getvalue() if dest is None else None


def _first_undecodable_line(path) -> int | None:
    """The physical line, counted as csv.reader counts them, that holds
    the file's first byte that is not UTF-8 (None if it now has none).
    The text layer decodes ahead of the reader, so this rereads the file;
    surrogateescape turns each bad byte into a lone surrogate, which
    UTF-8 text never holds."""
    with open(path, encoding="utf-8", errors="surrogateescape", newline="") as fh:
        for number, line in enumerate(fh, 1):
            if _ESCAPED_BYTE.search(line):
                return number
    return None


_ESCAPED_BYTE = re.compile("[\udc80-\udcff]")


def _not_utf8(exc: UnicodeDecodeError) -> str:
    """A decode error's text: its first bad byte and why."""
    return f"byte 0x{exc.object[exc.start]:02x} is not UTF-8 ({exc.reason})"


class CsvInput(AbstractContextManager):
    """One CSV input read by the package's one rule, in a `with`: a path is
    opened as UTF-8 (a leading BOM dropped) with newline="", text is wrapped
    likewise and a file object (opened with newline="") is read as is.  The
    csv dialect (RFC 4180 by default; the edge list passes its own) splits
    lines at "\\n", "\\r\\n" or "\\r", keeping quoted line breaks.
    The header is the first row of `reader` (or read by `columns`);
    iterating then gives the rows after it, blank lines skipped.
    `error` names the last physical line read and, for a path, the file;
    a csv.Error leaving the `with` becomes such a MalformedCsv.  So does a
    UnicodeDecodeError: for a path it names the line of the first bad byte,
    found by rereading the file, and for a file object, which cannot be
    reread, no line."""

    def __init__(self, source, dialect="excel"):
        self._where = f"{os.fspath(source)} " if isinstance(source, os.PathLike) else ""
        if self._where:
            source = self._file = open(source, encoding="utf-8-sig", newline="")
        elif isinstance(source, str):
            source = io.StringIO(source, newline="")
        self.reader = csv.reader(source, dialect)

    def __exit__(self, kind, exc, tb) -> None:
        if self._where:
            self._file.close()
        if isinstance(exc, csv.Error):
            raise self.error(str(exc)) from None
        if isinstance(exc, UnicodeDecodeError):
            line = self._where and f"line {_first_undecodable_line(self._file.name) or self.reader.line_num}: "
            raise MalformedCsv(f"{self._where}{line}{_not_utf8(exc)}") from None

    def __iter__(self) -> Iterator[list[str]]:
        return filter(None, self.reader)  # csv.reader reads a blank line as []

    def columns(self, kind: str, required: Sequence[str]) -> list[int]:
        """Position of each required name in the header row; the last
        column of a repeated name wins, a missing name is MalformedCsv."""
        where = {name: i for i, name in enumerate(next(self.reader, None) or [])}
        for name in required:
            if name not in where:
                raise MalformedCsv(f"{kind} CSV is missing column {name!r}")
        return [where[name] for name in required]

    def error(self, text: str, cls: type[Exception] = MalformedCsv) -> Exception:
        return cls(f"{self._where}line {self.reader.line_num}: {text}")


def import_table(source) -> CliqueTable:
    """Read a table back from a `CsvInput` source (a path, text or a file
    object, streamed).  Nodes and entries are the CSV's strings, an empty
    field is NULL.  A bad header or duplicate node is MalformedCsv, a short
    or long row InconsistentArity; a row's error names its line."""
    with CsvInput(source) as rows:
        header = next(rows.reader, None)
        if header is None:
            raise MalformedCsv("empty input: missing header")
        if not header or header[0] != "node":
            raise MalformedCsv(f"bad header {header!r}: first column must be 'node'")
        k = len(header) - 1
        if header[1:] != [f"c{i}" for i in range(1, k + 1)]:
            raise MalformedCsv(f"bad header {header!r}: color columns must be c1..c{k}")
        nodes: dict[Node, list[str]] = {}
        for record in rows:
            if len(record) != k + 1:
                raise rows.error(f"expected {k + 1} fields, got {len(record)}", InconsistentArity)
            node = record[0]
            if node in nodes:
                raise rows.error(f"duplicate node {node!r}")
            nodes[node] = record
    columns = islice(zip(*nodes.values()), 1, None) if nodes else [()] * k  # zip builds one column per step
    postings = Postings.from_codes(len(nodes), _code_columns(len(nodes), columns, ""))
    return CliqueTable(nodes, postings)


def sidecar_payload(c: EntryColoring, provenance: dict) -> dict:
    """The JSON sidecar that read_sidecar reads: k, the entry -> color map
    (entries as strings) and provenance notes."""
    return {"k": c.k, "coloring": {str(e): i for e, i in c.assignment.items()}, "provenance": provenance}


def read_sidecar(path) -> tuple[EntryColoring, dict]:
    """Coloring and provenance from a sidecar; MalformedCsv unless it is a
    JSON object holding k, an entry -> color map and, optionally, a
    provenance object.  k and the colors must be JSON integers (not 2.7,
    true or 1e400), each color in 1..k, and k at most the entry count: a
    proper coloring needs no more, and k sizes the table that is built."""
    with open(path, encoding="utf-8-sig") as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise MalformedCsv(f"sidecar {path}: not JSON ({exc})") from None
        except UnicodeDecodeError as exc:
            raise MalformedCsv(f"sidecar {path}: {_not_utf8(exc)}") from None
    try:
        k, assignment = payload["k"], dict(payload["coloring"].items())
        provenance = payload.get("provenance", {})
    except (AttributeError, KeyError, TypeError) as exc:
        raise MalformedCsv(f"sidecar {path}: needs k and a coloring map ({exc!r})") from None
    if type(k) is not int or not 0 <= k <= len(assignment):
        raise MalformedCsv(f"sidecar {path}: k {json.dumps(k)} is not a JSON integer in 0..{len(assignment)}")
    for e, i in assignment.items():
        if type(i) is not int or not 1 <= i <= k:
            why = "outside" if type(i) is int else "not a JSON integer in"
            raise MalformedCsv(f"sidecar {path}: entry {e!r} has color {json.dumps(i)}, {why} 1..{k}")
    if not isinstance(provenance, dict):
        raise MalformedCsv(f"sidecar {path}: provenance {json.dumps(provenance)} is not an object")
    return EntryColoring(assignment, k), provenance
