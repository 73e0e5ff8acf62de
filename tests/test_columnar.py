"""Differential tests for the columnar clique table: materialize against the
cell-by-cell fill it replaced, the fact index against the table's rows, the
vectorized tree cells against the per-cell formula they replaced, and the
column coder, table CSV writer and reader against the row-wise code they
replaced."""

import csv
import io
import random
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cliqueindex.corpus import random_function
from cliqueindex.engine import Atom, FactTable, ScanOracle, build_index
from cliqueindex.errors import ColorCollision, InconsistentArity, MalformedCsv, UnknownNode
from cliqueindex.intersection import (
    GREEDY_ORDERS,
    EntryColoring,
    build_intersection_graph,
    greedy_color,
)
from cliqueindex.schema import (
    NULL,
    CliqueTable,
    compact_colors,
    export_table,
    import_table,
    materialize,
    recover_coloring,
)
from cliqueindex.tree import build_tree_schema, iter_tree_rows, level

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


@given(seeds)
@settings(max_examples=60, deadline=None)
def test_materialize_matches_the_cell_by_cell_fill(seed):
    rng = random.Random(seed)
    f = random_function(rng, max_entries=15, max_nodes=20)
    graph = build_intersection_graph(f)
    spare = rng.random() < 0.5  # an explicit domain with a node no entry references
    order = sorted(f.node_domain()) + (["spare"] if spare else [])
    for greedy in GREEDY_ORDERS:
        c = greedy_color(graph, greedy)
        t = materialize(f, c, order) if spare else materialize(f, c)
        want = reference_rows(f, c, order)
        assert list(t.rows) == order
        assert dict(t.rows.items()) == want
        assert [t.rows[u] for u in order] == list(want.values())
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
    domain = [u for u in sorted(f.node_domain()) if rng.random() < 0.9]
    want = _outcome(lambda: reference_rows(f, c, domain))
    got = _outcome(lambda: materialize(f, c, domain))
    if isinstance(want, dict):
        assert dict(got.rows.items()) == want
    else:
        assert got == want


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
    got = {key: ids for key, p in idx.postings.items() if (ids := set(p.to_ids()))}
    assert got == want
    assert idx.unresolved == accs.count("absent")
    scan = ScanOracle(fact, t)
    for (i, v), rids in want.items():
        assert scan.rids(Atom(i, v)) == rids


def test_rows_view_is_read_only():
    t = CliqueTable(1, {"u": ("a",)})
    with pytest.raises(TypeError):
        t.rows["u"] = ("b",)
    assert t.rows == {"u": ("a",)}


def reference_tree_row(k, n, variant):
    """Row k's cells, one cell at a time."""
    lvl = level(k)
    if variant == "literal":
        cells = []
        for q in range(1, n + 1):
            if q >= lvl:
                cells.append(k)
            else:
                p = (k << q) >> n
                cells.append(p if (1 << q) <= 2 * p <= k < (1 << n) else NULL)
        return tuple(cells)
    return tuple((k >> (lvl - q)) if q <= lvl else k for q in range(1, n + 1))


@pytest.mark.parametrize("variant", ["table", "literal"])
@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 13])
def test_tree_rows_match_the_cell_by_cell_formula(n, variant):
    want = {k: reference_tree_row(k, n, variant) for k in range(1, 1 << n)}
    assert list(iter_tree_rows(n, variant)) == list(want.items())
    if n <= 8:
        assert build_tree_schema(n, variant=variant).rows == want


@pytest.mark.parametrize("variant", ["table", "literal"])
@pytest.mark.parametrize("n", [1, 2, 5, 8])
def test_tree_columns_match_the_rows_constructor(n, variant):
    built = build_tree_schema(n, variant=variant)
    converted = CliqueTable(n, dict(iter_tree_rows(n, variant)))
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
    for k, cells in iter_tree_rows(12):
        writer.writerow([k, *cells])
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
    cells dict, then the row-major coder."""
    reader = csv.reader(io.StringIO(text))
    k = len(next(reader)) - 1
    rows = {}
    for lineno, record in enumerate(reader, start=2):
        if not record:
            continue
        if len(record) != k + 1:
            raise InconsistentArity(f"line {lineno}: expected {k + 1} fields, got {len(record)}")
        if record[0] in rows:
            raise MalformedCsv(f"line {lineno}: duplicate node {record[0]!r}")
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
@settings(max_examples=300, deadline=None)
def test_table_csv_matches_the_row_wise_coder_writer_and_reader(table):
    k, rows = table
    t = CliqueTable(k, rows)
    entries, codes = reference_coding(k, rows)
    assert [list(map(repr, column)) for column in t.entries] == [list(map(repr, column)) for column in entries]
    assert np.array_equal(t.codes, codes)
    text = export_table(t)
    assert text == reference_csv(t)

    def imported():
        back = import_table(text)
        return list(back.rows), back.entries, back.codes

    assert _imported(imported) == _imported(lambda: reference_import(text))
