"""Differential tests for the columnar clique table: materialize against the
cell-by-cell fill it replaced, the fact index against the table's rows, the
vectorized tree cells against the per-cell formula they replaced, the
column coder, table CSV writer and reader against the row-wise code they
replaced, the table stored as postings alone against the dense k x N
code matrix it used to keep, and a column's IN list gathered in one pass
against the union of its atoms' postings."""

import csv
import io
import random
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from cliqueindex import schema
from cliqueindex.bitset import CompressedBitset, union
from cliqueindex.corpus import random_function, random_intervals
from cliqueindex.endpoints import build_endpoint_schema
from cliqueindex.engine import Atom, FactTable, ScanOracle, build_index, evaluate
from cliqueindex.errors import ColorCollision, InconsistentArity, MalformedCsv, UnknownNode
from cliqueindex.intersection import (
    GREEDY_ORDERS,
    EntryColoring,
    SetValuedFunction,
    build_intersection_graph,
    greedy_color,
)
from cliqueindex.schema import (
    NULL,
    Postings,
    compact_colors,
    export_table,
    import_table,
    materialize,
    recover_coloring,
)
from cliqueindex.tree import ancestor_path, build_tree_schema, level
from conftest import rows_table

seeds = st.integers(min_value=0, max_value=2**32 - 1)


def reference_rows(f, c, order):
    """Node -> tuple of cells, filled one cell at a time in entry order."""
    cells = {u: [NULL] * c.k for u in order}
    for e in f.entries:
        i = c.assignment[e]
        for u in f.image[e]:
            if u not in cells:
                raise UnknownNode(u)
            existing = cells[u][i - 1]
            if existing is not NULL and existing != e:
                raise ColorCollision(u, i, existing, e)
            cells[u][i - 1] = e
    return {u: tuple(cells[u]) for u in order}


def gather_block(rng):
    """GATHER_BLOCK patched to 1 (a block per column), to a few memberships
    (blocks of several columns, the columns split among blocks) or left as
    is (one block here)."""
    return mock.patch.object(schema, "GATHER_BLOCK", rng.choice([1, 2, 5, 16, schema.GATHER_BLOCK]))


def domains(rng, f):
    """(domain, row order): materialize's default (the sorted image nodes)
    or an explicit domain, those nodes or f's own nodes, whose positions
    already are the rows, either sometimes with a node no entry references."""
    order = sorted(f.node_domain())
    if rng.random() < 0.25:
        return None, order
    if rng.random() < 0.5:
        order = list(f.nodes)
    if rng.random() < 0.5:
        order = order + ["spare"]
    return order, order


@given(seeds)
@settings(max_examples=60, deadline=None)
def test_materialize_matches_the_cell_by_cell_fill(seed):
    rng = random.Random(seed)
    f = random_function(rng, max_entries=15, max_nodes=20)
    graph = build_intersection_graph(f)
    domain, order = domains(rng, f)
    for greedy in GREEDY_ORDERS:
        c = greedy_color(graph, greedy)
        with gather_block(rng):
            t = materialize(f, c, domain)
        want = reference_rows(f, c, order)
        assert list(t.rows) == order
        assert dict(t.rows.items()) == want
        assert [t.rows[u] for u in order] == list(want.values())
        entries, codes = dense_codes(f, c, order)
        assert_same_postings(t.postings, entries, dense_postings(entries, codes))
        for e in f.entries:
            assert t.column_preimage(c.assignment[e], e) == f.image[e]
        assert t.null_count() == sum(v is NULL for row in want.values() for v in row)

        used = [i for i in range(1, c.k + 1) if any(row[i - 1] is not NULL for row in want.values())]
        squeezed, remap = compact_colors(t)
        assert remap == {old: new for new, old in enumerate(used, start=1)}
        assert dict(squeezed.rows.items()) == {
            u: tuple(row[i - 1] for i in used) for u, row in want.items()
        }
        assert recover_coloring(t).assignment == {
            v: i for row in want.values() for i, v in enumerate(row, start=1) if v is not NULL
        }


def _outcome(build):
    try:
        return build()
    except (UnknownNode, ColorCollision) as exc:
        return type(exc), str(exc)


@given(seeds)
@settings(max_examples=100, deadline=None)
def test_materialize_raises_what_the_cell_by_cell_fill_raises(seed):
    rng = random.Random(seed)
    f = random_function(rng, max_entries=10, max_nodes=12)
    k = rng.randint(1, 3)
    c = EntryColoring({e: rng.randint(1, k) for e in f.entries}, k)  # often improper
    nodes = list(f.nodes) if rng.random() < 0.5 else sorted(f.node_domain())
    domain = nodes if rng.random() < 0.3 else [u for u in nodes if rng.random() < 0.9]
    want = _outcome(lambda: reference_rows(f, c, domain))
    with gather_block(rng):
        got = _outcome(lambda: materialize(f, c, domain))
    if isinstance(want, dict):
        assert dict(got.rows.items()) == want
        entries, codes = dense_codes(f, c, domain)
        assert_same_postings(got.postings, entries, dense_postings(entries, codes))
    else:
        assert got == want


def test_gather_block_does_not_change_the_endpoint_table():
    # thousands of memberships over dozens of columns, gathered in blocks of
    # one column, of a few columns and all at once
    intervals = random_intervals(random.Random(5), 400)
    built = []
    for block in (1, 1000, schema.GATHER_BLOCK):
        with mock.patch.object(schema, "GATHER_BLOCK", block):
            s = build_endpoint_schema(intervals)
        built.append([(list(codes), offsets.tolist(), ids.tolist()) for codes, offsets, ids in s.clique.postings.columns])
    assert sum(len(ids) for _, _, ids in built[0]) > 3000 and len(built[0]) > 10
    assert built[0] == built[1] == built[2]


@given(seeds)
@settings(max_examples=40, deadline=None)
def test_fact_postings_hold_the_rows_whose_acc_cell_is_the_entry(seed):
    rng = random.Random(seed)
    f = random_function(rng, max_entries=15, max_nodes=20)
    t = materialize(f, greedy_color(build_intersection_graph(f)))
    accs = [rng.choice(list(t.rows) + ["absent"]) for _ in range(rng.randint(0, 200))]
    fact = FactTable(accs, [1] * len(accs))
    want: dict = {}
    for rid, acc in enumerate(accs):
        if acc != "absent":
            for i, v in enumerate(t.rows[acc], start=1):
                if v is not NULL:
                    want.setdefault((i, v), set()).add(rid)
    idx = build_index(fact, t)
    atoms = [Atom(i, v) for i, column in enumerate(t.entries, start=1) for v in column]
    got = {(a.col, a.entry): ids for a in atoms if (ids := set(evaluate(a, idx).to_array().tolist()))}
    assert got == want
    assert idx.unresolved == accs.count("absent")
    scan = ScanOracle(fact, t)
    for (i, v), rids in want.items():
        assert np.array_equal(scan.rid_array(Atom(i, v)), sorted(rids))


def test_rows_view_is_read_only():
    t = rows_table(1, {"u": ("a",)})
    with pytest.raises(TypeError):
        t.rows["u"] = ("b",)
    assert t.rows == {"u": ("a",)}


# Tree cases are named "<levels>-table" after the one tree table layout.
TABLE_LAYOUT = "{}-table".format


def reference_tree_row(k, n):
    """Row k's cells, one cell at a time."""
    lvl = level(k)
    return tuple((k >> (lvl - q)) if q <= lvl else k for q in range(1, n + 1))


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 13], ids=TABLE_LAYOUT)
def test_tree_rows_match_the_cell_by_cell_formula(n):
    want = {k: reference_tree_row(k, n) for k in range(1, 1 << n)}
    assert list(build_tree_schema(n).rows.items()) == list(want.items())


@pytest.mark.parametrize("n", [1, 2, 5, 8], ids=TABLE_LAYOUT)
def test_tree_columns_match_the_rows_constructor(n):
    built = build_tree_schema(n)
    converted = rows_table(n, {k: reference_tree_row(k, n) for k in range(1, 1 << n)})
    assert built.rows == converted.rows
    assert built.null_count() == converted.null_count()
    for q in range(1, n + 1):
        assert sorted(built.entries[q - 1]) == sorted(converted.entries[q - 1])
        for p in built.entries[q - 1]:
            assert type(p) is int
            assert built.column_preimage(q, p) == converted.column_preimage(q, p)


def test_tree_table_exports_the_row_generators_csv():
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["node"] + [f"c{q}" for q in range(1, 13)])
    for k in range(1, 1 << 12):
        writer.writerow([k, *reference_tree_row(k, 12)])
    assert export_table(build_tree_schema(12)) == buf.getvalue()


def reference_coding(k, rows):
    """The row-major coder the column coder replaced: per column, first-seen
    codes assigned row by row, -1 for NULL."""
    entry_codes = [{} for _ in range(k)]
    codes = [
        [-1 if v is NULL else ec.setdefault(v, len(ec)) for ec, v in zip(entry_codes, cells)]
        for cells in rows.values()
    ]
    return [list(ec) for ec in entry_codes], np.array(codes, dtype=np.int32).reshape(len(rows), k).T


def table_codes(t):
    """Each node's per-column code, rebuilt from the decoded rows and the
    table's entry codes, as a (k, N) array, -1 for NULL."""
    maps = [t.postings.codes(i) for i in range(1, t.k + 1)]
    codes = [[-1 if v is NULL else ec[v] for ec, v in zip(maps, row)] for row in t.rows.values()]
    return np.array(codes, dtype=np.int32).reshape(len(t), t.k).T


def reference_csv(t):
    """The per-row csv.writer export the shared block writer replaced, with
    fields quoted as under lineterminator="\r\n" (so a lone "\r" is quoted)
    and each record still ended by "\n"."""
    lines = []
    writer = csv.writer(SimpleNamespace(write=lines.append), lineterminator="\r\n")
    writer.writerow(["node"] + [f"c{i}" for i in range(1, t.k + 1)])
    for u, row in t.rows.items():
        writer.writerow([u] + ["" if v is NULL else v for v in row])
    return "".join(line[:-2] + "\n" for line in lines)


def reference_import(text):
    """import_table as it was, for a well-formed header: a node -> tuple of
    cells dict, then the row-major coder.  A row's error names its last
    physical line."""
    reader = csv.reader(io.StringIO(text, newline=""))
    k = len(next(reader)) - 1
    rows = {}
    for record in reader:
        if not record:
            continue
        if len(record) != k + 1:
            raise InconsistentArity(f"line {reader.line_num}: expected {k + 1} fields, got {len(record)}")
        if record[0] in rows:
            raise MalformedCsv(f"line {reader.line_num}: duplicate node {record[0]!r}")
        rows[record[0]] = tuple(NULL if v == "" else v for v in record[1:])
    return list(rows), *reference_coding(k, rows)


def _imported(build):
    try:
        nodes, entries, codes = build()
    except (InconsistentArity, MalformedCsv, csv.Error) as exc:
        return type(exc), str(exc)
    return nodes, entries, codes.tolist()


# Text with the characters csv quoting turns on, spaces, non-ASCII, and the
# empty string.
csv_texts = st.text(alphabet=st.sampled_from(list(',"\n\r aé€π')), max_size=5)
tables = st.integers(0, 4).flatmap(
    lambda k: st.tuples(
        st.just(k),
        st.dictionaries(
            st.one_of(csv_texts, st.integers(-3, 3)),
            st.tuples(*[st.one_of(st.none(), csv_texts, st.integers(-3, 3), st.floats(allow_nan=False))] * k),
            max_size=8,
        ),
    )
)


@given(tables)
@example((0, {"": (), "a,b": ()}))
@example((1, {"": ("x\ry",), 'q"': (None,), "é\n": ("",)}))
@example((3, {}))
@example((3, {1: (1.5, -2, None), " s ": ("a,b", 1.0, 'q"')}))
@example((0, {"a\rb": (), "c\r\nd": (), 1: (), "1": ()}))
@settings(max_examples=300, deadline=None)
def test_table_csv_matches_the_row_wise_coder_writer_and_reader(table):
    k, rows = table
    t = rows_table(k, rows)
    entries, codes = reference_coding(k, rows)
    assert [list(map(repr, column)) for column in t.entries] == [list(map(repr, column)) for column in entries]
    assert np.array_equal(table_codes(t), codes)
    text = export_table(t)
    assert text == reference_csv(t)

    def imported(source):
        back = import_table(source)
        return list(back.rows), [list(column) for column in back.entries], table_codes(back)

    want = _imported(lambda: reference_import(text))
    assert _imported(lambda: imported(text)) == want
    assert _imported(lambda: imported(io.StringIO(text, newline=""))) == want


# -- the stored postings against the dense k x N code matrix they replaced --


def _sorted_nodes(nodes):
    try:
        return sorted(nodes)
    except TypeError:
        return sorted(nodes, key=repr)


def dense_codes(f, c, order):
    """The (k, N) int32 code matrix the table stored before, -1 for NULL,
    filled one cell at a time in f's entry order.  A column's codes number
    its entries with a non-empty image in that order.  Raises as the fill
    meets an unknown node or a cell claimed twice."""
    position = {u: j for j, u in enumerate(order)}
    entries = [[] for _ in range(c.k)]
    codes = np.full((c.k, len(order)), -1, dtype=np.int32)
    for e in f.entries:
        column, image = c.assignment[e] - 1, f.image[e]
        if image:
            entries[column].append(e)
        for u in image:
            if u not in position:
                raise UnknownNode(u)
            j = position[u]
            if codes[column, j] >= 0:
                raise ColorCollision(u, column + 1, entries[column][codes[column, j]], e)
            codes[column, j] = len(entries[column]) - 1
    return entries, codes


def dense_postings(entries, codes):
    """Per column, (offsets, ids): each code's positions, ascending."""
    out = []
    for column, row in zip(entries, codes):
        groups = [np.flatnonzero(row == code).astype(np.int32) for code in range(len(column))]
        sizes = [len(g) for g in groups]
        offsets = np.concatenate(([0], np.cumsum(sizes, dtype=np.int64)))
        out.append((offsets, np.concatenate([np.empty(0, np.int32), *groups])))
    return out


def assert_same_postings(postings, entries, want):
    assert len(postings.columns) == len(want)
    for column, (entry_code, offsets, ids), (want_offsets, want_ids) in zip(entries, postings.columns, want):
        assert list(entry_code) == column
        assert offsets.dtype == np.int64 and ids.dtype == np.int32 and not ids.flags.writeable
        assert offsets[0] == 0
        assert offsets.tolist() == want_offsets.tolist()
        assert ids.tolist() == want_ids.tolist()


def dense_rows(entries, codes, order):
    return {
        u: tuple(NULL if code < 0 else column[code] for column, code in zip(entries, codes[:, j].tolist()))
        for j, u in enumerate(order)
    }


int_nodes, str_nodes = st.integers(-30, 30), st.text("ab1", max_size=3)
node_values = st.sampled_from([int_nodes, str_nodes, st.one_of(int_nodes, str_nodes)]).flatmap(
    lambda nodes: st.lists(nodes, min_size=1, max_size=12, unique=True)
)


@st.composite
def colored_functions(draw):
    """(f, coloring, domain): images over int, str or mixed nodes; f built
    by from_images (first-seen node order) or by the constructor from CSR
    over sorted nodes; a greedy proper coloring or a random, often improper,
    one; no domain, f's own nodes (perhaps with extra ones after them), or
    an explicit one with extra nodes, reordered, and sometimes missing a
    node an image holds."""
    nodes = draw(node_values)
    images = draw(st.lists(st.sets(st.sampled_from(nodes), max_size=6), min_size=1, max_size=10))
    entries = tuple(f"e{i}" for i in range(len(images)))
    if draw(st.booleans()):
        f = SetValuedFunction.from_images(dict(zip(entries, images)))
    else:
        held = _sorted_nodes(set(nodes))
        pos = {u: j for j, u in enumerate(held)}
        rows = [sorted(pos[u] for u in image) for image in images]
        indptr = np.concatenate(([0], np.cumsum([len(r) for r in rows]))).astype(np.int64)
        indices = np.array([j for r in rows for j in r], dtype=np.int32)
        f = SetValuedFunction(entries, tuple(held), indptr, indices)
    if draw(st.booleans()):
        c = greedy_color(build_intersection_graph(f), draw(st.sampled_from(GREEDY_ORDERS)))
    else:
        k = draw(st.integers(1, 4))
        c = EntryColoring({e: draw(st.integers(1, k)) for e in entries}, k)
    domain = None
    if draw(st.booleans()):
        domain = list(f.nodes) + draw(st.lists(st.integers(100, 110), max_size=2, unique=True))  # rows are f's positions
    elif draw(st.booleans()):
        extra = draw(st.lists(st.one_of(st.integers(100, 110), st.just("spare")), max_size=3))
        domain = draw(st.permutations(list(nodes) + extra))
        if draw(st.booleans()) and domain:
            domain = domain[1:]
    return f, c, domain


@given(colored_functions(), seeds)
@example(
    (SetValuedFunction.from_images({"a": {"n10", "n9"}, "b": {"n9"}}), EntryColoring({"a": 1, "b": 2}, 2), None), 0
)
@settings(max_examples=300, deadline=None)
def test_sparse_table_reads_what_the_dense_matrix_read(case, seed):
    f, c, domain = case
    order = _sorted_nodes(f.node_domain()) if domain is None else list(dict.fromkeys(domain))
    try:
        entries, codes = dense_codes(f, c, order)
    except (UnknownNode, ColorCollision) as exc:
        with pytest.raises(type(exc)) as raised, gather_block(random.Random(seed)):
            materialize(f, c, domain)
        assert str(raised.value) == str(exc)
        return
    with gather_block(random.Random(seed)):
        t = materialize(f, c, domain)
    assert_same_postings(t.postings, entries, dense_postings(entries, codes))
    want = dense_rows(entries, codes, order)
    assert list(t.rows) == order
    assert dict(t.rows.items()) == want
    assert t.null_count() == int(np.count_nonzero(codes < 0))
    assert export_table(t) == reference_csv(SimpleNamespace(k=t.k, rows=want))

    used = [i for i, column in enumerate(entries) if column]
    squeezed, _ = compact_colors(t)
    kept = [entries[i] for i in used]
    assert_same_postings(squeezed.postings, kept, dense_postings(kept, codes[used]))
    squeezed_rows = dense_rows(kept, codes[used], order)
    assert dict(squeezed.rows.items()) == squeezed_rows
    assert export_table(squeezed) == reference_csv(SimpleNamespace(k=len(used), rows=squeezed_rows))

    rng = random.Random(seed)
    accs = [rng.choice(order + ["absent"]) for _ in range(rng.randint(0, 40))]
    acc_pos = np.array([order.index(a) if a in order else -1 for a in accs], dtype=np.intp)
    fact_codes = np.hstack([codes, np.full((c.k, 1), -1, dtype=np.int32)])[:, acc_pos]  # -1 reads the pad
    idx = build_index(FactTable(accs, [1] * len(accs)), t)
    assert idx.acc.tolist() == np.where(acc_pos < 0, len(order), acc_pos).tolist()
    for i, (column, (offsets, ids)) in enumerate(zip(entries, dense_postings(entries, fact_codes)), start=1):
        for code, entry in enumerate(column):
            assert evaluate(Atom(i, entry), idx).to_array().tolist() == ids[offsets[code]:offsets[code + 1]].tolist()
    assert idx.unresolved == accs.count("absent")


# -- a column's IN list against the union of its atoms' postings ------------


def assert_in_list_matches(postings, col, entries):
    """union_of(col, entries) holds the ascending unique ids of bitset.union
    over the entries' posting views; one non-empty posting is its view."""
    found = {e: ids for e in entries if (ids := postings.ids_of(col, e)) is not None}
    views = [CompressedBitset(postings.n, ids=ids) for ids in found.values()]
    want = union(postings.n, views).to_array() if views else np.empty(0, dtype=np.int64)
    got = postings.union_of(col, entries)
    assert got.n == postings.n
    ids = got.to_array()
    assert np.array_equal(ids, want), (col, entries)
    assert (ids[1:] > ids[:-1]).all()
    nonempty = [e for e, ids in found.items() if len(ids)]
    if len(nonempty) == 1:
        assert np.shares_memory(got.ids, postings.columns[col - 1][2])


@pytest.mark.parametrize("n", range(1, 9), ids=TABLE_LAYOUT)
def test_tree_in_lists_match_the_union_of_their_atoms(n):
    postings = build_tree_schema(n).postings
    rng = random.Random(n)
    for k in range(1, 1 << n):  # the overlap IN lists: disjoint runs, concatenated
        assert_in_list_matches(postings, level(k), ancestor_path(k))
    for q in range(1, n + 1):
        values = list(range(1 << q)) + [1 << q, -1, "1"]  # 0, 2^q, -1 and "1" are absent
        for size in (0, 1, 2, 3, 8):
            entries = [rng.choice(values) for _ in range(size)]
            assert_in_list_matches(postings, q, entries)
            assert_in_list_matches(postings, q, entries + entries[:2])  # repeats
        if q > 1:  # siblings' subtrees interleave: the union fallback
            assert_in_list_matches(postings, q, range(1 << (q - 1), 1 << q))
    if n >= 3:  # column 2's entries 2 and 3, subtrees 2 4 5 8.. and 3 6 7..., interleave
        two, three = postings.ids_of(2, 2), postings.ids_of(2, 3)
        assert two[0] < three[0] < two[-1]
        assert_in_list_matches(postings, 2, [2, 3])


def test_in_list_drops_empty_postings_and_sorts_interleaved_runs():
    ids = np.array([0, 4, 2, 6, 7, 1, 3], dtype=np.int32)
    postings = Postings(8, [(["a", "b", "none", "c", "d"], np.array([0, 2, 4, 4, 5, 7]), ids)])
    assert postings.union_of(1, ["b", "a"]).to_array().tolist() == [0, 2, 4, 6]
    assert postings.union_of(1, ["c", "none", "b", "b"]).to_array().tolist() == [2, 6, 7]
    assert postings.union_of(1, ["d", "c"]).to_array().tolist() == [1, 3, 7]
    assert postings.union_of(1, ["none", "x"]).to_array().tolist() == []
    assert postings.union_of(1, []).to_array().tolist() == []
    single = postings.union_of(1, ["none", "c", "c"])
    assert single.to_array().tolist() == [7] and np.shares_memory(single.ids, ids)
    for entries in (["a", "b", "c", "d"], ["none"], ["c", "d", "none"]):
        assert_in_list_matches(postings, 1, entries)
    with pytest.raises(KeyError):
        postings.union_of(0, ["a"])
    with pytest.raises(KeyError):
        postings.union_of(2, ["a"])


@st.composite
def in_lists(draw):
    """(postings, column, entries): a table from rows_table(k, rows) or
    materialized from a greedily colored function, one of its columns, and
    entries drawn from that column's, absent values and repeats."""
    if draw(st.booleans()):
        t = rows_table(*draw(tables.filter(lambda table: table[0] > 0)))
    else:
        f = draw(colored_functions())[0]
        t = materialize(f, greedy_color(build_intersection_graph(f)))
    filled = [i for i, column in enumerate(t.entries, start=1) if column]
    assume(filled)
    col = draw(st.sampled_from(filled))
    entries = draw(st.lists(st.sampled_from(list(t.entries[col - 1])), min_size=1, max_size=8))
    absent = draw(st.lists(st.sampled_from(["absent", -99]), max_size=2))
    return t.postings, col, draw(st.permutations(entries + absent))


@given(in_lists())
@settings(max_examples=60, deadline=None)
def test_drawn_in_lists_match_the_union_of_their_atoms(case):
    assert_in_list_matches(*case)
