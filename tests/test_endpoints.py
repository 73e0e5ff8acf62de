import bisect
import math
import random
import re
from fractions import Fraction
from operator import attrgetter
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cliqueindex.corpus import random_intervals
from cliqueindex.endpoints import (
    _leaf_ids,
    build_endpoint_schema,
    build_tree_interval_index,
    interval_query,
    interval_query_branches,
    IntervalRecord,
    _straddle_csr,
    stabbing_query,
    tree_interval_query,
)
from cliqueindex.errors import ColorCollision, EmptyInput, InvalidRange
from cliqueindex.intersection import EntryColoring, SetValuedFunction
from cliqueindex.oracle import oracle_interval_intersections
from cliqueindex.schema import materialize, verify_schema
from cliqueindex.tree import extent


def records(*pairs):
    return [IntervalRecord(f"i{j}", x, y) for j, (x, y) in enumerate(pairs)]


def test_record_rejects_reversed_endpoints():
    with pytest.raises(InvalidRange):
        IntervalRecord("bad", 2.0, 1.0)


@pytest.mark.parametrize("x, y", [
    (math.nan, math.nan), (0.0, math.nan), (math.nan, 5.0),
    (-math.inf, 1.0), (0.0, math.inf), ("abc", "abd"), (None, 1.0),
])
def test_record_rejects_non_finite_or_non_numeric_endpoints(x, y):
    with pytest.raises(InvalidRange):
        IntervalRecord("bad", x, y)


@pytest.mark.parametrize("x, y", [
    (0, 10**400), (-10**400, 0), (0, Fraction(10**400, 3)), (Fraction(-10**400), Fraction(1, 3)),
])
def test_record_rejects_endpoints_no_float_holds(x, y):
    """math.isfinite converts through float(), which overflows on these."""
    with pytest.raises(InvalidRange, match="must be finite numbers"):
        IntervalRecord("big", x, y)


def test_zero_length_record_allowed():
    r = IntervalRecord("pt", 3.0, 3.0)
    assert r.x == r.y


def test_single_interval_schema():
    s = build_endpoint_schema(records((1.0, 4.0)))
    assert list(s.entries) == [1.0, 4.0]
    # only the lower endpoint is straddled, the upper one is covered by nothing
    assert s.function.image[1.0] == {"i0"}
    assert s.function.image[4.0] == frozenset()
    assert s.coloring.k == 1
    assert s.escalations == 0


def test_two_overlapping_intervals_need_two_columns():
    s = build_endpoint_schema(records((0.0, 2.0), (1.0, 3.0)))
    assert s.function.image[1.0] == {"i0", "i1"}
    assert s.coloring.k == 2
    assert verify_schema(s.function, s.clique, s.coloring)


def test_query_example():
    s = build_endpoint_schema(records((0.0, 2.0), (1.0, 3.0), (5.0, 6.0)))
    assert interval_query(s, 1.5, 3.5) == {"i0", "i1"}
    assert interval_query(s, 4.0, 4.5) == set()
    assert interval_query(s, 5.5, 9.0) == {"i2"}


def test_query_branches_are_disjoint_and_cover(rng):
    ivs = random_intervals(rng, 120)
    s = build_endpoint_schema(ivs)
    span = max(r.y for r in ivs) - min(r.x for r in ivs)
    lo = min(r.x for r in ivs)
    for _ in range(60):
        a = lo + rng.random() * span
        b = a + rng.random() * span * 0.2
        first, second = interval_query_branches(s, a, b)
        assert first & second == set()
        assert first | second == oracle_interval_intersections(ivs, a, b)


def test_matches_oracle_on_corpora(rng):
    for _ in range(15):
        ivs = random_intervals(rng, 60)
        s = build_endpoint_schema(ivs)
        lo = min(r.x for r in ivs)
        hi = max(r.y for r in ivs)
        for _ in range(25):
            a = lo + rng.random() * (hi - lo)
            b = a + rng.random() * (hi - lo) * 0.3
            assert interval_query(s, a, b) == oracle_interval_intersections(ivs, a, b)


def test_no_escalations_on_corpora(rng):
    for _ in range(25):
        s = build_endpoint_schema(random_intervals(rng, 50))
        assert s.escalations == 0


def test_boundaries_are_closed():
    s = build_endpoint_schema(records((1.0, 2.0)))
    assert stabbing_query(s, 2.0) == {"i0"}
    assert stabbing_query(s, 1.0) == {"i0"}
    assert stabbing_query(s, 0.999) == set()
    assert stabbing_query(s, 2.001) == set()


def test_stabbing_zero_length_interval():
    s = build_endpoint_schema(records((3.0, 3.0), (0.0, 1.0)))
    assert stabbing_query(s, 3.0) == {"i0"}


def test_identical_intervals_share_cells():
    # duplicates share every entry, so no extra column is needed
    s = build_endpoint_schema(records((0.0, 2.0), (0.0, 2.0)))
    assert s.coloring.k == 1
    assert interval_query(s, 1.0, 1.0) == {"i0", "i1"}


def test_empty_input_raises():
    with pytest.raises(EmptyInput):
        build_endpoint_schema([])


def test_reversed_query_raises():
    s = build_endpoint_schema(records((0.0, 1.0)))
    with pytest.raises(InvalidRange):
        interval_query(s, 2.0, 1.0)


@pytest.mark.parametrize("a, b", [(math.nan, 1.0), (0.0, math.nan), (math.nan, math.nan)])
def test_nan_query_bound_raises(a, b):
    s = build_endpoint_schema(records((0.0, 1.0), (2.0, 3.0)))
    with pytest.raises(InvalidRange):
        interval_query_branches(s, a, b)
    with pytest.raises(InvalidRange):
        tree_interval_query(build_tree_interval_index(records((0.0, 1.0))), a, b)


def test_nan_stabbing_point_raises():
    s = build_endpoint_schema(records((0.0, 1.0), (2.0, 3.0)))
    with pytest.raises(InvalidRange):
        stabbing_query(s, math.nan)


def test_infinite_query_bounds_are_allowed():
    s = build_endpoint_schema(records((0.0, 1.0), (2.0, 3.0), (5.0, 5.0)))
    assert interval_query(s, -math.inf, math.inf) == {"i0", "i1", "i2"}
    assert interval_query(s, 2.5, math.inf) == {"i1", "i2"}
    assert interval_query(s, -math.inf, 0.0) == {"i0"}


def test_cyclic_coloring_below_the_window_collides():
    # i0 straddles entries 0, 1, 2: window 3, so two colors must collide
    ivs = records((0.0, 3.0), (1.0, 1.0), (2.0, 2.0))
    s = build_endpoint_schema(ivs)
    assert s.coloring.k == 3
    k = s.coloring.k - 1
    narrow = EntryColoring({e: (pos % k) + 1 for pos, e in enumerate(s.entries)}, k)
    with pytest.raises(ColorCollision):
        materialize(s.function, narrow)


def test_window_bounds_column_count(rng):
    for _ in range(10):
        ivs = random_intervals(rng, 80)
        s = build_endpoint_schema(ivs)
        # k is the window, the longest run of entries one interval straddles
        runs = [bisect.bisect_left(s.entries, r.y) - bisect.bisect_left(s.entries, r.x) for r in ivs]
        assert s.coloring.k == max(1, *runs)


def test_schema_verifies(rng):
    for _ in range(10):
        s = build_endpoint_schema(random_intervals(rng, 40))
        assert verify_schema(s.function, s.clique, s.coloring)


# -- the array build against the Python builder it replaced ----------------


def reference_endpoint_schema(intervals):
    """The endpoint builder before array sorts: records sorted by an
    (x, y, id) key, entries from a set in that order, ranks from a dict,
    upper endpoints key-sorted; images and postings from their definitions."""
    records = tuple(sorted(intervals, key=attrgetter("x", "y", "id")))
    xs, ys, ids = (list(map(attrgetter(name), records)) for name in ("x", "y", "id"))
    entries = sorted({v for pair in zip(xs, ys) for v in pair})
    rank = dict(zip(entries, range(len(entries))))
    nodes = tuple(dict.fromkeys(sorted(ids)))
    node_pos = dict(zip(nodes, range(len(nodes))))
    window = max(1, max(rank[y] - rank[x] for x, y in zip(xs, ys)))
    images = [sorted({node_pos[r.id] for r in records if r.x <= e < r.y}) for e in entries]
    colors = {e: pos % window + 1 for pos, e in enumerate(entries)}
    indptr = np.cumsum([0] + [len(image) for image in images])
    f = SetValuedFunction(tuple(entries), nodes, indptr, np.array(sum(images, []), dtype=np.int32))
    materialize(f, EntryColoring(colors, window), nodes)  # an id shared by disjoint runs can collide
    postings = []
    for i in range(1, window + 1):
        held = [j for j, e in enumerate(entries) if colors[e] == i and images[j]]
        offsets = np.cumsum([0] + [len(images[j]) for j in held]).tolist()
        postings.append(([repr(entries[j]) for j in held], offsets, sum((images[j] for j in held), [])))
    order = sorted(range(len(ys)), key=ys.__getitem__)  # stable: ties keep input order
    return SimpleNamespace(
        entries=[(type(e), repr(e)) for e in entries],
        nodes=[(type(n), repr(n)) for n in nodes],
        indptr=indptr.tolist(),
        indices=sum(images, []),
        assignment=[(type(e), repr(e), i) for e, i in colors.items()],
        window=window,
        postings=postings,
        ys=[(type(ys[i]), repr(ys[i])) for i in order],
        y_ids=[(type(ids[i]), repr(ids[i])) for i in order],
    )


def snapshot(s):
    """The schema's fields in the reference's form: values and ids by type
    and repr, so that -0.0 and 0.0 or 1, 1.0 and True differ."""
    return SimpleNamespace(
        entries=[(type(e), repr(e)) for e in s.entries],
        nodes=[(type(n), repr(n)) for n in s.function.nodes],
        indptr=s.function.indptr.tolist(),
        indices=s.function.indices.tolist(),
        assignment=[(type(e), repr(e), i) for e, i in s.coloring.assignment.items()],
        window=s.coloring.k,
        postings=[
            ([repr(e) for e in entry_code], offsets.tolist(), ids.tolist())
            for entry_code, offsets, ids in s.clique.postings.columns
        ],
        ys=[(type(y), repr(y)) for y in s._ys],
        y_ids=[(type(i), repr(i)) for i in s._y_ids],
    )


def assert_fresh_answer(want, query, *args):
    """The answer is want, and clearing it leaves the next one as it was:
    no answer aliases the table's state."""
    answer = query(*args)
    assert answer == want
    answer.clear()
    assert query(*args) == want


def assert_matches_reference(intervals):
    """Compare every field, the table and stab and range answers with the
    reference builder; where it raises ColorCollision, the same message.
    Each range query's branches are the intervals with x <= b < y and those
    with a <= y <= b, so they are disjoint when no two intervals share an
    id, and each answer is fresh."""
    try:
        want = reference_endpoint_schema(intervals)
    except ColorCollision as exc:
        with pytest.raises(ColorCollision, match=f"^{re.escape(str(exc))}$"):
            build_endpoint_schema(intervals)
        return
    s = build_endpoint_schema(intervals)
    assert vars(snapshot(s)) == vars(want)
    assert tuple(s.clique.rows) == s.function.nodes
    assert verify_schema(s.function, s.clique, s.coloring)
    points = sorted({v for r in intervals for v in (r.x, r.y)})
    probes = points + [(a + b) / 2 for a, b in zip(points, points[1:])] + [points[0] - 1, points[-1] + 1]
    distinct = len({r.id for r in intervals}) == len(intervals)
    for p in probes:
        assert_fresh_answer(oracle_interval_intersections(intervals, p, p), stabbing_query, s, p)
    for a in probes[::3]:
        for b in probes:
            if a <= b:
                want = oracle_interval_intersections(intervals, a, b)
                first, second = interval_query_branches(s, a, b)
                assert first == {r.id for r in intervals if r.x <= b < r.y}
                assert second == {r.id for r in intervals if a <= r.y <= b}
                assert first | second == want
                assert not (distinct and first & second)
                assert_fresh_answer(want, interval_query, s, a, b)


# Few distinct values, so that (x, y) pairs, upper endpoints and ids tie;
# 1, 1.0 and True are one id, named by the first record in (x, y, id) order.
float_endpoints = st.sampled_from([-0.0, 0.0, -1.5, 0.5, 1.0, 2.0, 2.5, 1e300])
small_ids = st.one_of(
    st.integers(min_value=0, max_value=6), st.sampled_from([1, 1.0, True, 2]), st.sampled_from("abcdefg"),
)


def make_records(rows):
    """Records of (id, x, y) rows, endpoints swapped into order; ids all
    become strings when any is one, since the (x, y, id) sort compares them."""
    cast = str if any(isinstance(i, str) for i, _, _ in rows) else (lambda i: i)
    return [IntervalRecord(cast(i), min(x, y), max(x, y)) for i, x, y in rows]


# Float draws sort on float64 arrays, every other draw on object arrays;
# both go through the one build and meet the same reference.
@given(st.lists(st.tuples(small_ids, float_endpoints, float_endpoints), min_size=1, max_size=40))
@settings(max_examples=300, deadline=None)
def test_float_path_matches_the_python_path(rows):
    assert_matches_reference(make_records(rows))


def many_ties(seed, values):
    # hundreds of records over a few values, beyond the sizes at which
    # numpy's unstable sorts still happen to keep input order
    rng = random.Random(seed)
    return make_records([(rng.randrange(200), rng.choice(values), rng.choice(values)) for _ in range(600)])


@pytest.mark.parametrize("seed", [3, 5, 8])
def test_float_path_matches_on_many_ties(seed):
    assert_matches_reference(many_ties(seed, [-0.0, 0.0, 0.25, 1.0, 3.0, 7.5]))


@pytest.mark.parametrize("seed", [3, 5, 8])
def test_int_endpoints_match_on_many_ties(seed):
    assert_matches_reference(many_ties(seed, [-3, 0, 1, 2, 5, 2 ** 64 + 1]))


general_endpoints = st.one_of(
    st.integers(min_value=-3, max_value=3),  # ints
    st.sampled_from([Fraction(1, 2), Fraction(-3, 2), Fraction(4, 2)]),  # Fractions
    st.sampled_from([0, 0.0, -0.0, 1, 1.0, 2 ** 53, 2.0 ** 53, 2 ** 53 + 1]),  # mixed, and ints float64 rounds
    st.sampled_from([2 ** 64, 2 ** 64 + 1, 2.0 ** 64]),  # past int64
)


@given(st.lists(st.tuples(small_ids, general_endpoints, general_endpoints), min_size=1, max_size=30))
@settings(max_examples=200, deadline=None)
def test_non_float_endpoints_take_the_python_path(rows):
    intervals = make_records(rows)
    if {type(v) for r in intervals for v in (r.x, r.y)} == {float}:
        return  # only floats drawn: the float test covers these
    assert_matches_reference(intervals)


def test_first_seen_zero_is_the_entry():
    # -0.0 and 0.0 are one entry; the first in (x, y, id) order is kept
    first = build_endpoint_schema(make_records([("b", 0.0, 1.0), ("a", -0.0, 2.0)]))
    assert repr(first.entries[0]) == "0.0"
    second = build_endpoint_schema(make_records([("b", 0.0, 1.0), ("a", -0.0, 1.0)]))
    assert repr(second.entries[0]) == "-0.0"


@pytest.mark.parametrize("values", [
    [-3, 0, 1, 2, 5],  # ints
    [Fraction(-1, 2), Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(2)],  # Fractions
    [-0.0, 0, Fraction(1, 2), 0.5, 1, 1.0, 2 ** 53 + 1, 2.0 ** 53],  # mixed, equal across types
], ids=["int", "fraction", "mixed"])
def test_upper_endpoint_order_matches_on_many_ties(values):
    # the upper endpoints tie hundreds of times; ties keep (x, y, id) order,
    # and each value and id keeps its type
    intervals = many_ties(4, values)
    assert_matches_reference(intervals)
    s = build_endpoint_schema(intervals)
    by_y = sorted(sorted(intervals, key=attrgetter("x", "y", "id")), key=attrgetter("y"))
    assert [(type(r.y), repr(r.y)) for r in by_y] == [(type(y), repr(y)) for y in s._ys]
    assert [(type(r.id), repr(r.id)) for r in by_y] == [(type(i), repr(i)) for i in s._y_ids]


# -- the straddle CSR against a pure-Python pair sort -------------------------


def reference_straddle_csr(start, run, held, n_entries):
    """Entry -> ascending distinct nodes, from a sort of (entry, node) pairs."""
    pairs = sorted({(s + j, h) for s, r, h in zip(start, run, held) for j in range(r)})
    counts = [0] * n_entries
    for entry, _ in pairs:
        counts[entry] += 1
    indptr = [0]
    for count in counts:
        indptr.append(indptr[-1] + count)
    return indptr, [node for _, node in pairs]


@pytest.mark.parametrize("shared", [False, True], ids=["distinct", "shared"])
@pytest.mark.parametrize("n_entries", [2 ** 16 - 1, 2 ** 16, 2 ** 16 + 1], ids=["below", "at", "above"])
def test_straddle_csr_matches_a_pair_sort_at_the_key_width_edge(n_entries, shared):
    # n_entries * n_nodes is just below, at and just above 2**31, where the
    # keys widen from int32 to int64; the last entry meets the last node, so
    # the largest key occurs; shared ids repeat pairs that must be dropped
    rng = np.random.default_rng(n_entries)
    n_nodes = 2 ** 15
    count = n_nodes + 500 if shared else n_nodes
    held = rng.permutation(np.arange(count) % n_nodes)
    run = rng.integers(0, 4, size=count)
    start = rng.integers(0, n_entries - run + 1)
    start[:2], run[:2], held[:2] = n_entries - 2, 2, [n_nodes - 1, 0]
    if shared:
        start[2:6], run[2:6], held[2:6] = 7, 3, held[1]  # one id, one run, four times
    indptr, indices = _straddle_csr(start, run, held, n_entries, n_nodes)
    want_indptr, want_indices = reference_straddle_csr(start.tolist(), run.tolist(), held.tolist(), n_entries)
    assert indptr.dtype == np.int64 and indices.dtype == np.int32
    assert indptr.tolist() == want_indptr
    assert indices.tolist() == want_indices
    assert indices[-1] == n_nodes - 1  # the largest key: last entry, last node


# -- the tree path against the oracle -----------------------------------------


def tree_probes(t, intervals):
    """Query points: every endpoint, the midpoints between them, every leaf
    boundary of the grid, points beyond both ends, and both infinities."""
    points = sorted({v for r in intervals for v in (r.x, r.y)})
    edges = [t.lo + j / t.scale for j in range(1 << (t.index.k - 1))] if t.scale else []
    mids = [(a + b) / 2 for a, b in zip(points, points[1:])]
    return points + mids + edges + [points[0] - 1, points[-1] + 1, -math.inf, math.inf]


def assert_tree_path_matches_the_oracle(intervals):
    t = build_tree_interval_index(intervals)
    probes = tree_probes(t, intervals)
    for p in probes:
        assert tree_interval_query(t, p, p) == oracle_interval_intersections(intervals, p, p), p
    for a in probes[::4]:
        for b in probes[::3]:
            if a <= b:
                assert tree_interval_query(t, a, b) == oracle_interval_intersections(intervals, a, b), (a, b)


# Shared ids, zero-length intervals, -0.0 beside 0.0, Fractions and ints
# past 2**53 and 2**64, mixed in one collection.
@given(st.lists(st.tuples(small_ids, st.one_of(float_endpoints, general_endpoints),
                          st.one_of(float_endpoints, general_endpoints)), min_size=1, max_size=30))
@settings(max_examples=150, deadline=None)
def test_tree_path_matches_the_oracle(rows):
    assert_tree_path_matches_the_oracle(make_records(rows))


@pytest.mark.parametrize("value", [5, 5.0, -0.0, Fraction(1, 3), 2 ** 64 + 1])
def test_tree_path_on_one_point(value):
    # every endpoint equal: the grid has no width and every value is on leaf 0
    intervals = records((value, value), (value, value))
    t = build_tree_interval_index(intervals)
    assert t.scale == 0
    for a, b in [(-math.inf, math.inf), (-math.inf, value), (value, math.inf), (value, value), (math.inf, math.inf)]:
        assert tree_interval_query(t, a, b) == ({"i0", "i1"} if a <= value <= b else set())
    assert_tree_path_matches_the_oracle(intervals)


def test_tree_path_answers_an_id_the_endpoint_schema_rejects():
    # a's two runs neither overlap nor touch, so the cyclic coloring collides
    intervals = make_records([("a", 0, 1), ("a", 5, 6), ("b", 2, 3)])
    with pytest.raises(ColorCollision):
        build_endpoint_schema(intervals)
    t = build_tree_interval_index(intervals)
    assert tree_interval_query(t, -math.inf, math.inf) == {"a", "b"}
    assert tree_interval_query(t, 0.5, 2.5) == {"a", "b"}
    assert tree_interval_query(t, 5.5, 5.5) == {"a"}
    assert_tree_path_matches_the_oracle(intervals)


def test_tree_path_boundaries_are_closed():
    t = build_tree_interval_index(records((1.0, 2.0), (3.0, 3.0)))
    assert tree_interval_query(t, 2.0, 2.0) == {"i0"}
    assert tree_interval_query(t, 1.0, 1.0) == {"i0"}
    assert tree_interval_query(t, 0.999, 0.999) == set()
    assert tree_interval_query(t, 2.001, 2.999) == set()
    assert tree_interval_query(t, 2.001, 3.0) == {"i1"}


@pytest.mark.parametrize("a, b, want", [
    (-math.inf, math.inf, {"i0", "i1", "i2"}),
    (2.5, math.inf, {"i1", "i2"}),
    (-math.inf, 0.0, {"i0"}),
    (-(10 ** 400), 10 ** 400, {"i0", "i1", "i2"}),  # past the float range: float() would overflow
    (Fraction(5), Fraction(10 ** 400, 3), {"i2"}),
    (10 ** 400, 10 ** 401, set()),
])
def test_tree_path_takes_bounds_of_any_size(a, b, want):
    t = build_tree_interval_index(records((0.0, 1.0), (2.0, 3.0), (5.0, 5.0)))
    assert tree_interval_query(t, a, b) == want


def test_tree_path_rejects_bad_input():
    with pytest.raises(EmptyInput):
        build_tree_interval_index([])
    with pytest.raises(InvalidRange):
        tree_interval_query(build_tree_interval_index(records((0.0, 1.0))), 2.0, 1.0)


def test_tree_covers_tile_each_leaf_range(rng):
    """Each interval's cover rows are disjoint tree nodes, at most 2n of
    them, whose extents tile exactly the leaves from x's to y's."""
    for _ in range(10):
        intervals = random_intervals(rng, rng.randint(1, 200))
        t = build_tree_interval_index(intervals)
        n = t.index.k
        half = 1 << (n - 1)
        assert n == min(24, math.ceil(math.log2(len(intervals))) + 1)
        nodes = t.index.acc.astype(np.int64) + 1
        for i, (x, y) in enumerate(zip(t.xs, t.ys)):
            spans = sorted(extent(k, n) for k in nodes[t.owner == i].tolist())
            assert 1 <= len(spans) <= 2 * n
            first, last = (int(_leaf_ids(np.float64(v), t.lo, t.scale, half)) - half for v in (x, y))
            assert spans[0][0] == first and spans[-1][1] == last + 1
            assert all(hi == lo for (_, hi), (lo, _) in zip(spans, spans[1:]))
