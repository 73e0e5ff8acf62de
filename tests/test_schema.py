import io
import json
import re

import numpy as np
import pytest

from cliqueindex.errors import (
    ColorCollision,
    InconsistentArity,
    MalformedCsv,
    UnknownNode,
)
from cliqueindex.corpus import random_function
from cliqueindex.intersection import build_intersection_graph, EntryColoring, greedy_color, SetValuedFunction
from cliqueindex.schema import (
    compact_colors,
    export_table,
    import_table,
    materialize,
    NULL,
    PostingIndex,
    read_sidecar,
    recover_coloring,
    sidecar_payload,
    verify_schema,
    VerifyResult,
)
from cliqueindex.tree import build_tree_schema
from conftest import rows_table


def fn(**images):
    return SetValuedFunction.from_images({k: frozenset(v) for k, v in images.items()})


def colored(f):
    return greedy_color(build_intersection_graph(f))


def test_materialize_single_entry():
    f = fn(e={1, 2})
    c = colored(f)
    t = materialize(f, c)
    assert t.k == 1
    assert len(t) == 2
    assert t.rows == {1: ("e",), 2: ("e",)}


def test_materialize_domain_defaults_to_image_union():
    f = fn(a={3, 1}, b={2})
    t = materialize(f, colored(f))
    assert list(t.rows) == [1, 2, 3]


def test_materialize_explicit_domain_adds_null_rows():
    f = fn(a={1})
    t = materialize(f, colored(f), domain=[1, 2])
    assert t.rows[2] == (NULL,)
    assert t.null_count() == 1


def test_materialize_rejects_node_outside_domain():
    f = fn(a={1, 9})
    with pytest.raises(UnknownNode):
        materialize(f, colored(f), domain=[1])


def test_materialize_detects_color_collision():
    from cliqueindex.intersection import EntryColoring

    f = fn(a={1, 2}, b={2, 3})
    bad = EntryColoring({"a": 1, "b": 1}, 1)
    with pytest.raises(ColorCollision):
        materialize(f, bad)


def test_verify_round_trip(rng):
    for _ in range(25):
        f = random_function(rng, max_entries=15, max_nodes=20)
        c = colored(f)
        t = materialize(f, c)
        assert verify_schema(f, t, c)


def test_verify_catches_blanked_cell():
    f = fn(a={1, 2}, b={2, 3})
    c = colored(f)
    t = materialize(f, c)
    rows = dict(t.rows)
    cells = list(rows[2])
    col = c.assignment["a"] - 1
    cells[col] = NULL
    rows[2] = tuple(cells)
    broken = rows_table(t.k, rows)
    res = verify_schema(f, broken, c)
    assert not res
    assert res.entry == "a"
    assert 2 in res.missing


def test_verify_catches_stray_cell():
    f = fn(a={1})
    c = colored(f)
    t = materialize(f, c, domain=[1, 2])
    rows = dict(t.rows)
    cells = list(rows[2])
    cells[c.assignment["a"] - 1] = "a"
    rows[2] = tuple(cells)
    res = verify_schema(f, rows_table(t.k, rows), c)
    assert not res
    assert 2 in res.extra


def test_verify_catches_an_entry_the_function_lacks():
    """Every entry of f is where its color says, but column 2 also holds
    z, which f has no entry for: the failure names z at its first node."""
    f = fn(a={1})
    t = rows_table(2, {1: ("a", NULL), 2: (NULL, "z")})
    res = verify_schema(f, t, EntryColoring({"a": 1}, 2))
    assert res == VerifyResult(False, "z", frozenset(), frozenset({2}))


def test_recover_coloring_round_trip():
    f = fn(a={1, 2}, b={2, 3}, c={4})
    c = colored(f)
    t = materialize(f, c)
    rec = recover_coloring(t)
    assert rec.assignment == c.assignment
    assert rec.is_proper(build_intersection_graph(f))


def test_recover_coloring_rejects_entry_in_two_columns():
    t = rows_table(2, {1: ("a", NULL), 2: (NULL, "a")})
    with pytest.raises(MalformedCsv):
        recover_coloring(t)


def test_compact_colors_drops_empty_columns():
    t = rows_table(3, {1: (NULL, "a", NULL), 2: (NULL, "a", NULL)})
    squeezed, remap = compact_colors(t)
    assert squeezed.k == 1
    assert remap == {2: 1}
    assert squeezed.rows == {1: ("a",), 2: ("a",)}


def test_compact_colors_noop_when_all_used():
    t = rows_table(1, {1: ("a",)})
    squeezed, remap = compact_colors(t)
    assert squeezed.k == 1
    assert remap == {1: 1}


def test_entries_are_the_postings_entry_maps_not_copies():
    f = fn(a={1, 2}, b={2, 3}, c={4})
    rows = rows_table(3, {1: (NULL, "a", NULL), 2: ("b", "a", NULL), 3: ("b", NULL, NULL)})
    tables = [
        materialize(f, colored(f)),
        import_table("node,c1,c2\nu,a,\nv,a,b\n"),
        build_tree_schema(4),
        rows,
        compact_colors(rows)[0],
    ]
    for t in tables:
        assert len(t.entries) == len(t.postings.columns) == t.k
        for i, (entries, offsets, ids) in enumerate(t.postings.columns):
            assert t.entries[i] is entries
            if type(entries) is range:  # the tree's: each int entry's code is found with no map
                for code, e in enumerate(entries):
                    assert np.array_equal(t.postings.ids_of(i + 1, e), ids[offsets[code]:offsets[code + 1]])
                assert t.postings._maps[i] is None
            assert list(t.postings.codes(i + 1).items()) == list(zip(entries, range(len(offsets) - 1)))  # code order


TABLE_BUILDS = {
    "materialize": lambda f=fn(a={1, 2}, b={2, 3}, c={4}): materialize(f, colored(f)),
    "import_table": lambda: import_table("node,c1,c2\nu,a,\nv,a,b\n"),
    "build_tree_schema": lambda: build_tree_schema(6),
    "compact_colors": lambda f=fn(a={1, 2}, b={2, 3}, c={4}): compact_colors(
        materialize(f, EntryColoring({"a": 1, "b": 3, "c": 1}, 3))
    )[0],
}


def map_key(entries, e):
    """A key that makes a lookup read the column's entry -> code map: the
    entry itself, or for a range column, whose ints need no map, its text
    (a key the column does not hold)."""
    return str(e) if type(entries) is range else e


@pytest.mark.parametrize("build", TABLE_BUILDS.values(), ids=TABLE_BUILDS)
def test_column_maps_are_built_on_first_lookup_once_and_shared(build):
    """No column has an entry -> code map until a lookup reads it; ids_of
    on column i builds column i's alone, later lookups reuse it, and a
    PostingIndex over the table reads (and builds) the very same maps.
    A range column's int lookups build no map at all, in either."""
    for i in range(1, build().k + 1):
        t = build()
        assert t.postings._maps == [None] * t.k
        entries = t.entries[i - 1]
        if type(entries) is range:
            assert len(t.postings.ids_of(i, entries[0])) and t.postings.union_of(i, entries).cardinality() == len(t)
            assert t.postings._maps == [None] * t.k
        found = t.postings.ids_of(i, map_key(entries, entries[0]))
        assert found is None if type(entries) is range else len(found)
        built = t.postings._maps[i - 1]
        assert type(built) is dict and list(built) == list(entries)
        assert [code is not None for code in t.postings._maps] == [j == i for j in range(1, t.k + 1)]
        assert t.postings.codes(i) is built
        idx = PostingIndex(t.postings, np.zeros(0, dtype=np.int32))
        assert idx.postings.codes(i) is built
        other = i % t.k + 1
        idx.postings.union_of(other, [map_key(t.entries[other - 1], t.entries[other - 1][0])])
        assert t.postings._maps[other - 1] is idx.postings.codes(other) is t.postings.codes(other)


def test_column_preimage():
    t = rows_table(2, {1: ("a", NULL), 2: ("a", "b"), 3: (NULL, "b")})
    assert t.column_preimage(1, "a") == {1, 2}
    assert t.column_preimage(2, "b") == {2, 3}
    assert t.column_preimage(2, "zzz") == set()


def test_lookups_outside_the_table_find_nothing():
    """Columns 0 and k + 1 and an entry a column does not hold: ids_of
    gives None and column_preimage set(); union_of finds no ids for an
    absent entry and raises KeyError for a column outside 1..k."""
    t = rows_table(2, {1: ("a", NULL), 2: ("a", "b"), 3: (NULL, "b")})
    postings = t.postings
    assert postings.ids_of(1, "a").tolist() == [0, 1]
    assert postings.union_of(1, ["a"]).to_array().tolist() == [0, 1]
    for col, entry in [(0, "a"), (3, "b"), (1, "b"), (2, "zzz")]:
        assert postings.ids_of(col, entry) is None
        assert t.column_preimage(col, entry) == set()
    for col, entry in [(1, "b"), (2, "zzz")]:
        assert postings.union_of(col, [entry]).cardinality() == 0
    for col in (0, 3):
        with pytest.raises(KeyError):
            postings.union_of(col, ["a"])


def test_csv_round_trip_preserves_nulls():
    t = rows_table(2, {"u": ("a", NULL), "v": (NULL, "b")})
    text = export_table(t)
    back = import_table(text)
    assert back.k == 2
    assert back.rows == {"u": ("a", NULL), "v": (NULL, "b")}


def test_csv_round_trip_via_file(tmp_path):
    t = rows_table(1, {"u": ("a",)})
    dest = tmp_path / "t.csv"
    with open(dest, "w", encoding="utf-8") as fh:
        export_table(t, fh)
    assert import_table(dest).rows == {"u": ("a",)}
    with open(dest, encoding="utf-8") as fh:
        assert import_table(fh).rows == {"u": ("a",)}


def test_csv_round_trip_keeps_carriage_returns_and_newlines(tmp_path):
    for t in (
        rows_table(2, {"a\rb": ("x\r\ny", NULL), "c\nd": (NULL, "z\r"), "\r\n": ("\n", "\r")}),
        rows_table(0, {"a\rb": (), "\r": (), "": ()}),
    ):
        text = export_table(t)
        assert dict(import_table(text).rows) == dict(t.rows)
        dest = tmp_path / "t.csv"
        dest.write_text(text, encoding="utf-8", newline="")
        assert dict(import_table(dest).rows) == dict(t.rows)
        with open(dest, encoding="utf-8", newline="") as fh:
            assert dict(import_table(fh).rows) == dict(t.rows)


def test_import_reads_lone_carriage_return_line_endings(tmp_path):
    dest = tmp_path / "t.csv"
    for text in ("node,c1\ra,x\rb,\r", "node,c1\r\na,x\r\nb,\r\n"):
        dest.write_bytes(text.encode())
        with open(dest, encoding="utf-8", newline="") as fh:
            for source in (text, dest, io.StringIO(text, newline=""), fh):
                assert dict(import_table(source).rows) == {"a": ("x",), "b": (NULL,)}


@pytest.mark.parametrize("text, error, message", [
    ('node,c1\n"u\nv",a\nw\n', InconsistentArity, "line 4: expected 2 fields, got 1"),
    ('node,c1\r"u\r\nv",a\r\r"u\r\nv",b\r', MalformedCsv, "line 6: duplicate node 'u\\r\\nv'"),
])
def test_import_names_the_physical_line_after_a_quoted_line_break(tmp_path, text, error, message):
    path = tmp_path / "t.csv"
    path.write_bytes(text.encode())
    for source, where in ((text, ""), (path, f"{path} ")):
        with pytest.raises(error) as exc:
            import_table(source)
        assert str(exc.value) == where + message


def test_import_rejects_bad_header():
    with pytest.raises(MalformedCsv):
        import_table("id,c1\nu,a\n")
    with pytest.raises(MalformedCsv):
        import_table("node,c1,c3\nu,a,b\n")


def test_import_rejects_duplicate_node():
    with pytest.raises(MalformedCsv):
        import_table("node,c1\nu,a\nu,b\n")


def test_import_rejects_short_row():
    with pytest.raises(InconsistentArity):
        import_table("node,c1,c2\nu,a\n")


# The second field of each case is unused; it keeps the cases' ids as they were.
@pytest.mark.parametrize(
    "text, _, error, message",
    [
        ("", None, MalformedCsv, "empty input: missing header"),
        ("id,c1\nu,a\n", None, MalformedCsv, "bad header ['id', 'c1']: first column must be 'node'"),
        (
            "node,c1,c3\nu,a,b\n", None, MalformedCsv,
            "bad header ['node', 'c1', 'c3']: color columns must be c1..c2",
        ),
        ("node,c1,c2\nu,a\n", None, InconsistentArity, "line 2: expected 3 fields, got 2"),
        ("node,c1\nu,a\n\nv,b,c\n", None, InconsistentArity, "line 4: expected 2 fields, got 3"),
        ("node,c1\nu,a\nu,b\n", None, MalformedCsv, "line 3: duplicate node 'u'"),
        ("node,c1\nu,a\nu,b\nv\n", None, MalformedCsv, "line 3: duplicate node 'u'"),
        ("node,c1\nu\nv,a\nv,b\n", None, InconsistentArity, "line 2: expected 2 fields, got 1"),
    ],
)
def test_import_errors_and_their_order_are_pinned(text, _, error, message):
    with pytest.raises(error) as exc:
        import_table(text)
    assert type(exc.value) is error
    assert str(exc.value) == message


def test_import_skips_blank_lines_and_codes_cast_entries_once():
    t = import_table("node,c1,c2\n\nu,a,\n\n\nv,,b\n\n")
    assert t.rows == {"u": ("a", NULL), "v": (NULL, "b")}
    t = import_table("node,c1\nu,1\nv,1\nw,\n")
    assert [list(column) for column in t.entries] == [["1"]]
    assert len(t.postings) == 1
    assert t.column_preimage(1, "1") == {"u", "v"}


def test_empty_table_exports_header_only():
    t = rows_table(2, {})
    assert export_table(t).strip() == "node,c1,c2"


def test_sidecar_round_trip(tmp_path):
    f = fn(a={1, 2}, b={2, 3})
    c = colored(f)
    path = tmp_path / "c.json"
    path.write_text(json.dumps(sidecar_payload(c, {"origin": "unit-test"})), encoding="utf-8")
    back, meta = read_sidecar(path)
    assert back.k == c.k
    assert back.assignment == c.assignment
    assert meta["origin"] == "unit-test"


def test_a_file_object_that_is_not_utf8_is_malformed_csv(tmp_path):
    """Only a path can be reread to find the bad byte's line, so a file
    object's error names none."""
    dest = tmp_path / "t.csv"
    dest.write_bytes(b"node,c1\na,x\n\xff,y\n")
    with open(dest, encoding="utf-8", newline="") as fh:
        with pytest.raises(MalformedCsv, match=r"^byte 0xff is not UTF-8 \(invalid start byte\)$"):
            import_table(fh)
    with pytest.raises(MalformedCsv, match=rf"^{re.escape(str(dest))} line 3: byte 0xff is not UTF-8"):
        import_table(dest)
