import gc
import random
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest

from cliqueindex import engine
from cliqueindex.engine import Atom, build_index, evaluate, evaluate_in, FactTable
from cliqueindex.errors import MalformedExpr, OutOfRange
from cliqueindex.intersection import build_intersection_graph, exact_chromatic
from cliqueindex.oracle import oracle_tree_overlap
from cliqueindex.schema import materialize, Postings, verify_schema
from cliqueindex.tree import (
    _tree_cells,
    ancestor_path,
    build_tree_schema,
    entry_members,
    extent,
    iter_tree_blocks,
    level,
    naive_overlap_function,
    overlap_query,
    tree_coloring,
    tree_entry_function,
    tree_fact_query,
    verify_tree_schema,
)

from conftest import GOLDEN_TREE_4, rows_table


def test_level_values():
    assert level(1) == 1
    assert level(5) == 3
    assert level(8) == 4
    assert level(15) == 4


def test_level_rejects_nonpositive():
    for bad in (0, -1):
        with pytest.raises(OutOfRange):
            level(bad)


def test_ancestor_path():
    assert tuple(ancestor_path(1)) == (1,)
    assert tuple(ancestor_path(5)) == (5, 2, 1)
    assert tuple(ancestor_path(13)) == (13, 6, 3, 1)


def test_extent_is_half_open_dyadic():
    # id 10 is the third leaf of a 4-level tree: [2/8, 3/8)
    assert extent(10, 4) == (2, 3)
    assert extent(1, 4) == (0, 8)
    assert extent(2, 4) == (0, 4)
    assert extent(3, 4) == (4, 8)


def test_entry_members_subtree_cases():
    assert entry_members(5, 3, 4) == {5, 10, 11}
    assert entry_members(2, 3, 4) == {2}
    assert entry_members(1, 3, 4) == {1}
    assert entry_members(2, 2, 4) == {2, 4, 5, 8, 9, 10, 11}
    assert entry_members(1, 1, 4) == set(range(1, 16))


def test_entry_members_rejects_bad_level():
    with pytest.raises(OutOfRange):
        entry_members(5, 2, 4)
    with pytest.raises(OutOfRange):
        entry_members(5, 5, 4)


def test_golden_table():
    t = build_tree_schema(4)
    assert t.k == 4
    assert len(t) == 15
    for k, want in GOLDEN_TREE_4.items():
        assert t.rows[k] == want, k
    assert t.null_count() == 0


def test_single_level_table():
    t = build_tree_schema(1)
    assert t.k == 1
    assert t.rows == {1: (1,)}


def test_schema_has_no_nulls_up_to_ten_levels():
    for n in range(1, 11):
        t = build_tree_schema(n)
        assert len(t) == 2 ** n - 1
        assert t.null_count() == 0


def test_both_variants_verify():
    # the closed-form build and the same rows through the rows constructor
    for n in range(1, 7):
        for t in (build_tree_schema(n), rows_table(n, dict(build_tree_schema(n).rows))):
            assert verify_tree_schema(t, n), n


def unique_coded_postings(n):
    """The coding build_tree_schema replaced: each column's distinct cells
    numbered in sorted order by one np.unique."""
    ids = np.arange(1, 1 << n)
    columns = []
    for q in range(1, n + 1):
        values, inverse = np.unique(_tree_cells(ids, n, q), return_inverse=True)
        columns.append((values.tolist(), inverse.astype(np.int32)))
    return Postings.from_codes(len(ids), columns)


def test_closed_form_codes_match_unique_coding():
    for n in range(1, 17):
        t = build_tree_schema(n)
        want = unique_coded_postings(n)
        assert t.postings.n == want.n and len(t.postings.columns) == len(want.columns) == n
        for q, (got_col, want_col) in enumerate(zip(t.postings.columns, want.columns), start=1):
            (entries, offsets, ids), (_, want_offsets, want_ids) = got_col, want_col
            assert t.entries[q - 1] is entries and entries == range(1, 2**q)
            assert offsets.dtype == want_offsets.dtype and np.array_equal(offsets, want_offsets), (n, q)
            assert ids.dtype == want_ids.dtype == np.int32 and np.array_equal(ids, want_ids), (n, q)
            assert not ids.flags.writeable
            # int lookups are range arithmetic: the last entry's posting, and all of them at once
            assert np.array_equal(t.postings.ids_of(q, 2**q - 1), want.ids_of(q, 2**q - 1)), (n, q)
            assert np.array_equal(t.postings.union_of(q, entries).to_array(), np.arange(want.n)), (n, q)
        assert t.postings._maps == [None] * n
        # keys of other types read the full maps: real dicts, one per column, as the unique coding's
        maps = [t.postings.codes(q) for q in range(1, n + 1)]
        assert all(type(entry_code) is dict for entry_code in maps)
        assert len({id(entry_code) for entry_code in maps}) == n
        for q, entry_code in enumerate(maps, start=1):
            assert list(entry_code.items()) == list(want.codes(q).items()), (n, q)


OTHER_KEYS = [True, False, 2.0, Fraction(3), np.int64(3), "3", None, 2**64]


@pytest.mark.parametrize("n", range(1, 11))
@pytest.mark.parametrize("ints_first", [True, False])
def test_lookups_match_the_dict_coding_for_every_key_type(n, ints_first):
    """ids_of and union_of on the closed-form table (range arithmetic for
    an int, the column's map for any other key) give what the dict-coded
    table gives, whichever kind of key a column is asked first."""
    got, want = build_tree_schema(n).postings, unique_coded_postings(n)
    for q in range(1, n + 1):
        ints = list(range(-1, 2**q + 1))
        for key in (ints + OTHER_KEYS) if ints_first else (OTHER_KEYS + ints):
            a, b = got.ids_of(q, key), want.ids_of(q, key)
            assert (a is None and b is None) or np.array_equal(a, b), (n, q, key)
        rng = random.Random(n * 100 + q)
        mixed = [*OTHER_KEYS, -1, 2**q, 2**q - 1, 2**q - 1, *rng.sample(ints, min(len(ints), 4))]
        for keys in (mixed, mixed[::-1], ints[1:-1:3], [np.int64(2**q - 1), 1.0]):
            assert np.array_equal(got.union_of(q, iter(keys)).to_array(), want.union_of(q, keys).to_array()), (n, q)
        for postings in (got, want):
            with pytest.raises(TypeError):
                postings.ids_of(q, [1])
            with pytest.raises(TypeError):
                postings.union_of(q, [1, [1]])


def test_overlap_queries_keep_no_node_objects_or_entry_maps():
    """After the build and one overlap query per level, the table holds
    its posting arrays and little else: no node array, position map or
    entry dict (a 2^16 - 1 node array of ints alone is about 2.3 MB)."""
    gc.collect()
    tracemalloc.start()
    try:
        t = build_tree_schema(16)
        for q in range(1, 17):
            assert len(overlap_query((1 << q) - 1, t)) == q - 1 + (1 << (17 - q)) - 1  # ancestors, subtree
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    arrays = sum(offsets.nbytes + ids.nbytes for _, offsets, ids in t.postings.columns)
    assert abs(retained - arrays) <= 0.1 * arrays, (retained, arrays)
    assert "_nodes" not in vars(t) and "position" not in vars(t)
    assert t.postings._maps == [None] * 16


def test_schema_cap():
    for n in (0, 25):
        with pytest.raises(OutOfRange, match=f"level count {n} "):
            build_tree_schema(n)


def test_tree_blocks_take_the_cap():
    with pytest.raises(OutOfRange, match="level count 25 exceeds the cap 24"):
        iter_tree_blocks(25)
    block = next(iter_tree_blocks(24))
    assert block.shape == (25, 4096)
    assert block[0].tolist() == list(range(1, 4097))
    assert block[:, 4].tolist() == [5] + [1, 2, 5] + [5] * 21


def test_cells_are_level_q_ancestors():
    t = build_tree_schema(6)
    rng = random.Random(2)
    for _ in range(60):
        k = rng.randint(1, 63)
        path = set(ancestor_path(k))
        for q in range(1, level(k) + 1):
            cell = t.rows[k][q - 1]
            assert cell in path
            assert level(cell) == q


def test_overlap_query_worked_example():
    t = build_tree_schema(4)
    assert overlap_query(5, t).tolist() == [1, 2, 5, 10, 11]
    assert entry_members(5, 3, 4) | entry_members(2, 3, 4) | entry_members(1, 3, 4) == {
        1, 2, 5, 10, 11,
    }


def test_overlap_query_root_hits_everything():
    t = build_tree_schema(4)
    assert overlap_query(1, t).tolist() == list(range(1, 16))


def test_overlap_query_matches_oracle():
    for n in range(1, 9):
        t = build_tree_schema(n)
        for k in range(1, 2 ** n):
            got = overlap_query(k, t)
            assert got.dtype == np.int64 and np.array_equal(got, oracle_tree_overlap(k, n)), (k, n)


def test_overlap_query_rejects_bad_id():
    t = build_tree_schema(3)
    with pytest.raises(OutOfRange):
        overlap_query(8, t)
    with pytest.raises(OutOfRange):
        overlap_query(0, t)


def test_tree_entry_function_sizes():
    canonical = tree_entry_function(3)
    assert len(canonical) == 7
    full = tree_entry_function(3, canonical=False)
    assert len(full) == 11


def test_materialized_function_reproduces_schema():
    for n in (2, 3, 4):
        f = tree_entry_function(n, canonical=False)
        c = tree_coloring(n, canonical=False)
        t = materialize(f, c, domain=range(1, 2 ** n))
        direct = build_tree_schema(n)
        for k in direct.rows:
            assert [cell[0] for cell in t.rows[k]] == list(direct.rows[k]), k
        assert verify_schema(f, t, c)


def test_chromatic_identity_small():
    for n in (2, 3, 4):
        f = tree_entry_function(n)
        g = build_intersection_graph(f)
        assert exact_chromatic(g, cap=2 ** n) == n


def test_naive_overlap_needs_full_palette():
    for n in (2, 3):
        f = naive_overlap_function(n)
        g = build_intersection_graph(f)
        assert exact_chromatic(g, cap=2 ** n) == 2 ** n - 1


def test_tree_fact_query_matches_brute_force():
    rng = random.Random(8)
    n = 5
    t = build_tree_schema(n)
    accs = [rng.randint(2 ** (n - 1), 2 ** n - 1) for _ in range(500)]
    fact = FactTable(accs, [1] * 500)
    idx = build_index(fact, t)
    for k in (1, 2, 5, 8, 20, 31):
        got = tree_fact_query(k, idx).to_array().tolist()
        # accs are leaves, so overlap means k sits on the acc's root path
        want = [r for r, acc in enumerate(accs) if k in ancestor_path(acc)]
        assert got == want, k


def test_tree_fact_query_rejects_bad_id_before_any_gather():
    idx = build_index(FactTable([1, 2, 3, 10**9], [1] * 4), build_tree_schema(3))
    with mock.patch.object(engine, "evaluate_in", side_effect=AssertionError("gathered")):
        for k in (0, -1, 8, 9):
            with pytest.raises(OutOfRange, match=f"interval id {k} "):
                tree_fact_query(k, idx)


def test_evaluate_in_rejects_a_column_as_an_atom_does():
    idx = build_index(FactTable([1, 2, 3], [1] * 3), build_tree_schema(3))
    for col in (0, -1, 4):
        with pytest.raises(MalformedExpr) as atom:
            evaluate(Atom(col, 1), idx)
        with pytest.raises(MalformedExpr) as in_list:
            evaluate_in(col, [1], idx)
        assert str(in_list.value) == str(atom.value) == f"column c{col} outside 1..c3"


def test_naive_overlap_function_cap():
    with pytest.raises(OutOfRange):
        naive_overlap_function(11)
