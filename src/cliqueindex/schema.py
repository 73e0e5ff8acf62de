"""Materialized clique tables: the relational form of a colored function.

Given a set-valued function and a proper coloring of its intersection
graph, the table has one row per node and one column per color; cell
(u, i) holds the unique entry of color i whose image contains u, or NULL.
Column i is then an index on the data: the rows holding e* in column
c(e*) are exactly the image of e*, which is what verify_schema checks.
The table is stored as such an index, by column (O'Neil & Quass's bitmap
join index): int32 entry codes over node positions and CSR postings over
them, built by the same `Postings` that indexes fact rows in `engine`.
"""

from __future__ import annotations

import csv
import io
import json
import os
import sys
from collections.abc import Mapping
from contextlib import nullcontext
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, repeat
from types import SimpleNamespace
from typing import Hashable, Iterable, Sequence

import numpy as np

from .bitset import CompressedBitset
from .errors import ColorCollision, InconsistentArity, MalformedCsv, UnknownNode
from .intersection import EntryColoring, RowView, SetValuedFunction

Entry = Hashable
Node = Hashable

NULL = None
BLOCK_ROWS = 4096  # rows per `%`-formatted block of table CSV


def _sorted_ids(values: Iterable) -> list:
    values = list(values)
    try:
        return sorted(values)
    except TypeError:
        return sorted(values, key=repr)


class Postings(Mapping):
    """(column, entry) -> id set over positions 0..n-1, built from one int32
    code array per column (-1 for NULL) by one stable argsort each.

    Per column, `ids` holds the positions of the non-NULL codes grouped by
    code (read-only int32, ascending within a code), and code c's posting
    is the zero-copy view ids[offsets[c]:offsets[c + 1]]; entry_code maps
    an entry to its code.
    """

    def __init__(self, n: int, entry_codes: Sequence[dict], code_columns: Iterable[np.ndarray]):
        self.n = n
        self.columns: list[tuple[dict, np.ndarray, np.ndarray]] = []
        for entry_code, codes in zip(entry_codes, code_columns):
            rows = np.flatnonzero(codes >= 0)
            codes = codes[rows]
            ids = rows[np.argsort(codes, kind="stable")].astype(np.int32)
            ids.flags.writeable = False
            counts = np.bincount(codes, minlength=len(entry_code))
            self.columns.append((entry_code, np.concatenate(([0], np.cumsum(counts))), ids))

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
    """Per-(column, entry) id sets over n positions; `unresolved` counts the
    positions that reference no table node (they are in no posting)."""

    n: int
    k: int
    postings: Postings
    unresolved: int

    def byte_size(self) -> int:
        """Bytes of the posting id arrays."""
        return sum(ids.nbytes for _, _, ids in self.postings.columns)


def _code_columns(n: int, columns: Sequence[Sequence], null=NULL, cast=None) -> tuple[list[list], np.ndarray]:
    """Code the columns' n cells in first-seen order: per column, an entry
    list in code order and int32 codes, -1 at null.  A cast applies to the
    distinct cells, and cells that cast equal share one code."""
    entries, codes = [], np.empty((len(columns), n), dtype=np.int32)
    for column, out in zip(columns, codes):
        code: dict = {}
        index = {v: code.setdefault(cast(v) if cast else v, len(code)) for v in dict.fromkeys(column) if v != null}
        index[null] = -1
        out[:] = np.fromiter(map(index.__getitem__, column), dtype=np.int32, count=n)
        entries.append(list(code))
    return entries, codes


class CliqueTable:
    """k color columns over an ordered node domain, stored by column.

    entries[i] lists column i + 1's entries in code order, each held by
    some node; codes[i, j] is that column's code at node position j, -1 for
    NULL; index holds the column postings over node positions.
    CliqueTable(k, rows) converts node -> k cells, for small tables;
    builders of large ones call from_columns.  Immutable by convention.
    """

    def __init__(self, k: int, rows: Mapping[Node, tuple]):
        for u, cells in rows.items():
            if len(cells) != k:
                raise InconsistentArity(f"row {u!r} has {len(cells)} cells, table width is {k}")
        self._init(k, rows, *_code_columns(len(rows), list(zip(*rows.values())) or [()] * k))

    @classmethod
    def from_columns(cls, k: int, nodes: Iterable[Node], entries: list[list], codes: np.ndarray) -> "CliqueTable":
        table = cls.__new__(cls)
        table._init(k, nodes, entries, codes)
        return table

    def _init(self, k: int, nodes: Iterable[Node], entries: list[list], codes: np.ndarray) -> None:
        self.k, self.entries, self.codes = k, entries, codes
        self._nodes = np.fromiter(nodes, dtype=object, count=codes.shape[1])
        self.entry_codes = [{e: code for code, e in enumerate(column)} for column in entries]
        self.index = PostingIndex(len(self._nodes), k, Postings(len(self._nodes), self.entry_codes, codes), 0)

    @cached_property
    def position(self) -> dict:
        """Node -> position, built on first use."""
        return dict(zip(self._nodes.tolist(), range(len(self._nodes))))

    @property
    def rows(self) -> Mapping[Node, tuple]:
        """Read-only node -> tuple of cells; each row is decoded when read."""
        return RowView(self._nodes, self._cells_of)

    def _cells_of(self, u: Node) -> tuple:
        codes = self.codes[:, self.position[u]].tolist()
        return tuple(NULL if c < 0 else column[c] for column, c in zip(self.entries, codes))

    def cell(self, u: Node, i: int):
        """Cell in column i (1-based) of node u's row."""
        if u not in self.position:
            raise UnknownNode(u)
        if not 1 <= i <= self.k:
            raise IndexError(f"column {i} outside 1..{self.k}")
        code = self.codes[i - 1, self.position[u]]
        return NULL if code < 0 else self.entries[i - 1][code]

    def nodes(self) -> tuple:
        return tuple(self._nodes.tolist())

    def nodes_at(self, positions: np.ndarray) -> set:
        return set(self._nodes.take(positions).tolist())

    def null_count(self) -> int:
        return int(np.count_nonzero(self.codes < 0))

    def column_preimage(self, i: int, e: Entry) -> set:
        """Nodes whose column i holds entry e: its posting."""
        posting = self.index.postings.get((i, e))
        return set() if posting is None else self.nodes_at(posting.ids)

    def __len__(self) -> int:
        return len(self._nodes)


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
    """Write each entry's code into its column at its image's node positions.

    The row set defaults to the sorted union of all images; an explicit
    domain may add nodes no entry references (their rows are all NULL).
    An image node outside the domain raises UnknownNode.  A node claimed
    by two entries of one color means the coloring was not proper on the
    intersection graph: ColorCollision.  One lookup per node of f's domain
    maps f's node positions to rows, and one scatter from f's CSR writes
    the codes; reading the cells back finds collisions, since only one of
    two writes to a cell survives.
    """
    order = _sorted_ids(f.node_domain()) if domain is None else list(dict.fromkeys(domain))
    position = dict(zip(order, range(len(order))))
    entries: list[list] = [[] for _ in range(c.k)]
    writes = []  # (column, code) per entry with a non-empty image
    sizes = np.diff(f.indptr)
    filled = np.flatnonzero(sizes)
    for i in filled.tolist():
        e = f.entries[i]
        column = c.assignment[e] - 1
        writes.append((column, len(entries[column])))
        entries[column].append(e)
    col, code = np.array(writes, dtype=np.intp).reshape(-1, 2).T
    row_of = np.fromiter(map(position.get, f.nodes, repeat(-1)), dtype=np.int64, count=len(f.nodes))
    cells = row_of[f.indices]  # image rows, then flat offsets into codes
    if (cells < 0).any():
        raise _first_conflict(f, c, position)
    cells += np.repeat(col * len(order), sizes[filled])
    code = np.repeat(code, sizes[filled])
    codes = np.full((c.k, len(order)), -1, dtype=np.int32)
    np.put(codes, cells, code)  # flat put/take beat 2-D fancy indexing
    if not np.array_equal(codes.take(cells), code):
        raise _first_conflict(f, c, position)
    return CliqueTable.from_columns(c.k, order, entries, codes)


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
        posting = t.index.postings.get((c.assignment[e], e))
        got = none if posting is None else posting.ids
        if not np.array_equal(got, np.sort(row_of[f.row(i)])):
            recovered = t.column_preimage(c.assignment[e], e)
            expected = f.image[e]
            return VerifyResult(False, e, frozenset(expected - recovered), frozenset(recovered - expected))
    by_color: dict[int, set] = {}
    for e in f.entries:
        by_color.setdefault(c.assignment[e], set()).add(e)
    strays = [
        (int(t.index.postings[i, value].ids[0]), i, value)
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
    keep = [i - 1 for i in used]
    table = CliqueTable.from_columns(len(used), t.nodes(), [t.entries[i] for i in keep], t.codes[keep])
    return table, remap


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


def export_table(t: CliqueTable, dest=None) -> str | None:
    """Write the table through write_table_csv, each distinct node and entry
    escaped once by csv.writer.  With dest None, returns the CSV text;
    otherwise writes to the given path or file object.
    """
    # One row per node, then per entry, padded to two fields unless k is 0:
    # csv.writer quotes an empty field only when it is a row's only field.
    # The "\r\n" terminator makes it quote a lone "\r" as well as "\n".
    rows: list[str] = []
    pad = [repeat("")] * min(t.k, 1)
    writer = csv.writer(SimpleNamespace(write=rows.append), lineterminator="\r\n")
    writer.writerows(zip(chain(t._nodes.tolist(), *t.entries), *pad))
    texts = [row[: -2 - len(pad)] for row in rows]
    # Block cell v stands for texts[v - 1]: node position j is j + 1, code c of column i is offsets[i] + c.
    offsets = len(t) + 1 + np.cumsum([0] + [len(column) for column in t.entries])[:-1, None]
    starts = range(0, len(t), BLOCK_ROWS)
    blocks = (
        np.vstack([np.arange(start + 1, start + 1 + codes.shape[1]), np.where(codes < 0, 0, codes + offsets)])
        for start, codes in zip(starts, np.array_split(t.codes, starts[1:], axis=1))
    )
    out = io.StringIO() if dest is None else dest
    with nullcontext(out) if hasattr(out, "write") else open(out, "w", encoding="utf-8") as fh:
        write_table_csv(fh, t.k, blocks, texts)
    return out.getvalue() if dest is None else None


def import_table(source, node_cast=None, entry_cast=None) -> CliqueTable:
    """Read a table back from a file object, an os.PathLike path, or CSV text.

    Values arrive as strings; node_cast/entry_cast convert them (e.g. int
    for tree tables).  Raises MalformedCsv on a bad header or duplicate
    node, InconsistentArity on a short or long row.
    """
    if hasattr(source, "read"):
        text = source.read()
    elif isinstance(source, os.PathLike):
        with open(source, encoding="utf-8", newline="") as fh:
            text = fh.read()
    else:
        text = source
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        header = next(reader)
    except StopIteration:
        raise MalformedCsv("empty input: missing header") from None
    if not header or header[0] != "node":
        raise MalformedCsv(f"bad header {header!r}: first column must be 'node'")
    k = len(header) - 1
    if header[1:] != [f"c{i}" for i in range(1, k + 1)]:
        raise MalformedCsv(f"bad header {header!r}: color columns must be c1..c{k}")
    nodes: dict[Node, None] = {}
    records = []
    for lineno, record in enumerate(reader, start=2):
        if not record:
            continue
        if len(record) != k + 1:
            raise InconsistentArity(
                f"line {lineno}: expected {k + 1} fields, got {len(record)}"
            )
        node = node_cast(record[0]) if node_cast else record[0]
        if node in nodes:
            raise MalformedCsv(f"line {lineno}: duplicate node {node!r}")
        nodes[node] = None
        records.append(record)
    columns = list(zip(*records))[1:] or [()] * k
    return CliqueTable.from_columns(k, nodes, *_code_columns(len(nodes), columns, "", entry_cast))


def write_sidecar(path, c: EntryColoring, provenance: dict) -> None:
    """JSON sidecar giving k, the entry -> color map, and provenance notes;
    written to stdout when no path is given."""
    payload = {
        "k": c.k,
        "coloring": {str(e): i for e, i in c.assignment.items()},
        "provenance": provenance,
    }
    with open(path, "w", encoding="utf-8") if path else nullcontext(sys.stdout) as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_sidecar(path, entry_cast=None) -> tuple[EntryColoring, dict]:
    """Coloring and provenance from a sidecar; MalformedCsv when it is not
    JSON or lacks an integer k and an entry -> color map."""
    with open(path, encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise MalformedCsv(f"sidecar {path}: not JSON ({exc})") from None
    try:
        assignment = {
            (entry_cast(e) if entry_cast else e): int(i)
            for e, i in payload["coloring"].items()
        }
        return EntryColoring(assignment, int(payload["k"])), payload.get("provenance", {})
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise MalformedCsv(f"sidecar {path}: needs k and a coloring map ({exc!r})") from None
