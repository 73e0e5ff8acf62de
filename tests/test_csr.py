"""Differential tests for the CSR set-valued function: its converters
and the endpoint builder against the frozenset constructions
they replaced, and the read-only contract of the view behind `image`,
`adj` and `rows`."""

import bisect
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cliqueindex.corpus import random_function, random_intervals
from cliqueindex.endpoints import IntervalRecord, build_endpoint_schema
from cliqueindex.errors import EmptyInput
from cliqueindex.intersection import SetValuedFunction, build_intersection_graph, clique_lower_bound
from cliqueindex.schema import NULL, materialize, verify_schema
from conftest import rows_table


def assert_csr(f):
    """Layout invariants: distinct nodes, int64 offsets, int32 positions
    strictly ascending within each entry's row, both arrays read-only."""
    assert len(set(f.nodes)) == len(f.nodes)
    assert f.indptr.dtype == np.int64 and f.indices.dtype == np.int32
    assert f.indptr.size == len(f.entries) + 1 and f.indptr[0] == 0 and f.indptr[-1] == f.indices.size
    assert not f.indptr.flags.writeable and not f.indices.flags.writeable
    for i in range(len(f.entries)):
        row = f.row(i)
        assert (np.diff(row) > 0).all()
        assert ((0 <= row) & (row < len(f.nodes))).all()


def reference_lower_bound(image):
    counts = {}
    for nodes in image.values():
        for u in nodes:
            counts[u] = counts.get(u, 0) + 1
    return max(counts.values(), default=0)


# Node sets over one hashable type per example, as real inputs have.
node_types = st.sampled_from([
    st.integers(min_value=0, max_value=30),
    st.text(max_size=2),
    st.tuples(st.integers(min_value=0, max_value=3), st.booleans()),
])
images = node_types.flatmap(
    lambda nodes: st.dictionaries(st.integers(min_value=-20, max_value=20), st.frozensets(nodes, max_size=6), max_size=12)
)


@given(images)
@settings(max_examples=80, deadline=None)
def test_from_images_matches_the_frozenset_construction(image):
    f = SetValuedFunction.from_images(image)
    assert_csr(f)
    assert f.entries == tuple(image)
    assert dict(f.image.items()) == image
    assert f.image == image
    assert f.node_domain() == frozenset().union(*image.values())
    assert clique_lower_bound(f) == reference_lower_bound(image)


@given(st.lists(st.tuples(st.sampled_from("abcdef"), st.integers(min_value=0, max_value=9)), max_size=40))
@settings(max_examples=60, deadline=None)
def test_from_pairs_matches_the_frozenset_construction(pairs):
    want: dict = {}
    for entry, node in pairs:
        want.setdefault(entry, set()).add(node)
    f = SetValuedFunction.from_pairs(pairs)
    assert_csr(f)
    assert f.entries == tuple(want)
    assert f.image == {e: frozenset(s) for e, s in want.items()}


def test_constructors_agree_on_the_corpora():
    rng = random.Random(61)
    for _ in range(30):
        f = random_function(rng)
        image = dict(f.image.items())
        assert_csr(f)
        assert SetValuedFunction.from_images(image).image == image
        pairs = [(e, u) for e in f.entries for u in sorted(image[e])]
        g = SetValuedFunction.from_pairs(pairs)
        assert g.image == {e: s for e, s in image.items() if s}


def test_image_is_a_read_only_view():
    """f.image, g.adj and t.rows share one view contract: read-only, KeyError
    on an unknown key, the owner's key order, len, `in` and dict equality."""
    f = SetValuedFunction.from_images({"c": {2, 3}, "a": {1, 2}, "b": set()})
    g = build_intersection_graph(f)
    t = rows_table(2, {3: ("x", NULL), 1: (NULL, "y"), 2: ("x", "y")})
    cases = [
        (f.image, {"c": frozenset({2, 3}), "a": frozenset({1, 2}), "b": frozenset()}, (f.indices, f.indptr)),
        (g.adj, {"c": ["a"], "a": ["c"], "b": []}, (g.indices, g.indptr)),
        (t.rows, {3: ("x", NULL), 1: (NULL, "y"), 2: ("x", "y")}, ()),
    ]
    for view, want, arrays in cases:
        assert view == want and want == view
        assert list(view) == list(want) and len(view) == len(want)
        first = next(iter(want))
        assert first in view and "missing" not in view
        assert view[first] == want[first]
        with pytest.raises(TypeError):
            view[first] = want[first]
        with pytest.raises(KeyError):
            view["missing"]
        for array in arrays:
            with pytest.raises(ValueError):
                array[0] = 5


def test_empty_function():
    f = SetValuedFunction.from_images({})
    assert_csr(f)
    assert f.node_domain() == frozenset() and clique_lower_bound(f) == 0


def test_node_domain_skips_nodes_no_entry_holds():
    f = SetValuedFunction(
        ("a", "b"), ("x", "y", "z"), np.array([0, 1, 2], dtype=np.int64), np.array([2, 2], dtype=np.int32)
    )
    assert f.node_domain() == {"z"}
    assert f.image == {"a": {"z"}, "b": {"z"}}
    assert clique_lower_bound(f) == 2


# -- the endpoint builder ------------------------------------------------------


def reference_endpoint_schema(intervals):
    """The set-per-entry construction: entries, F and the window."""
    records = sorted(intervals, key=lambda r: (r.x, r.y, r.id))
    entries = sorted({v for r in records for v in (r.x, r.y)})
    image = {e: set() for e in entries}
    window = 1
    for rec in records:
        s, e = bisect.bisect_left(entries, rec.x), bisect.bisect_left(entries, rec.y)
        window = max(window, e - s)
        for pos in range(s, e):
            image[entries[pos]].add(rec.id)
    return entries, {e: frozenset(s) for e, s in image.items()}, window


def assert_matches_reference(intervals):
    s = build_endpoint_schema(intervals)
    entries, image, window = reference_endpoint_schema(intervals)
    assert_csr(s.function)
    assert s.entries == s.function.entries == tuple(entries)
    assert [type(e) for e in s.entries] == [type(e) for e in entries]
    assert s.function.image == image
    assert s.coloring.k == window
    assert s.coloring.assignment == {e: pos % window + 1 for pos, e in enumerate(entries)}
    domain = sorted(r.id for r in intervals)
    want = materialize(SetValuedFunction.from_images(image), s.coloring, domain)
    assert s.clique.rows == want.rows
    assert s.clique.entries == want.entries
    assert verify_schema(s.function, s.clique, s.coloring)


def test_endpoint_builder_matches_the_reference_on_the_corpora():
    rng = random.Random(62)
    for _ in range(20):
        assert_matches_reference(random_intervals(rng, rng.randint(1, 120), mixed_lengths=rng.random() < 0.7))


# Endpoints drawn from ints, equal floats and tenths, so ints and floats tie.
endpoints = st.one_of(
    st.integers(min_value=-4, max_value=4),
    st.integers(min_value=-4, max_value=4).map(float),
    st.integers(min_value=-40, max_value=40).map(lambda v: v / 10),
)
interval_ids = st.sampled_from([lambda j: j, lambda j: f"s{j}"])  # int or string ids


@given(st.tuples(interval_ids, st.lists(st.tuples(endpoints, endpoints), min_size=1, max_size=25)))
@settings(max_examples=150, deadline=None)
def test_endpoint_builder_matches_the_reference(case):
    # duplicate and zero-length intervals all occur here
    name, pairs = case
    assert_matches_reference([IntervalRecord(name(j), min(x, y), max(x, y)) for j, (x, y) in enumerate(pairs)])


@pytest.mark.parametrize("pairs", [
    [(1, 2.0), (1.0, 2)],  # ties collapse to the first value seen, type kept
    [(3, 3), (3.0, 3.0)],  # zero-length only: no interval straddles anything
    [(0, 5), (0, 5), (0, 5)],  # duplicates share every cell
])
def test_endpoint_builder_on_ties_and_degenerate_inputs(pairs):
    intervals = [IntervalRecord(f"i{j}", x, y) for j, (x, y) in enumerate(pairs)]
    assert_matches_reference(intervals)


def test_endpoint_builder_keeps_the_first_value_of_a_tie():
    s = build_endpoint_schema([IntervalRecord("a", 1, 2.0), IntervalRecord("b", 1.0, 2)])
    assert s.entries == (1, 2.0)
    assert [type(e) for e in s.entries] == [int, float]
    assert s.function.image[1.0] == {"a", "b"}


def test_endpoint_builder_repeated_id_is_one_node():
    intervals = [IntervalRecord("a", 0.0, 2.0), IntervalRecord("a", 0.0, 2.0)]
    assert_matches_reference(intervals)
    s = build_endpoint_schema(intervals)
    assert s.function.nodes == ("a",)
    assert s.function.image == {0.0: {"a"}, 2.0: frozenset()}


def test_endpoint_builder_still_rejects_empty_input():
    with pytest.raises(EmptyInput):
        build_endpoint_schema([])
