import math

import pytest

from cliqueindex.corpus import random_intervals
from cliqueindex.endpoints import (
    bucketed_interval_query,
    bucketed_schema,
    build_endpoint_schema,
    interval_query,
    interval_query_branches,
    IntervalRecord,
    stabbing_query,
)
from cliqueindex.errors import ColorCollision, EmptyInput, InvalidRange
from cliqueindex.intersection import EntryColoring
from cliqueindex.oracle import oracle_interval_intersections
from cliqueindex.schema import materialize, verify_schema


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
    assert s.window == 1
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
        bucketed_interval_query(bucketed_schema(records((0.0, 1.0))), a, b)


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
    assert s.window == 3
    k = s.window - 1
    narrow = EntryColoring({e: (pos % k) + 1 for pos, e in enumerate(s.entries)}, k)
    with pytest.raises(ColorCollision):
        materialize(s.function, narrow)


def test_window_bounds_column_count(rng):
    for _ in range(10):
        ivs = random_intervals(rng, 80)
        s = build_endpoint_schema(ivs)
        assert s.coloring.k == s.window
        # the window is the deepest stack of straddles, a clique in overlaps
        assert s.coloring.k >= 1


def test_bucketed_schema_splits_by_length(rng):
    ivs = random_intervals(rng, 150, mixed_lengths=True)
    buckets = bucketed_schema(ivs)
    assert len(buckets) >= 2
    covered = set()
    for schema in buckets:
        ids = {r.id for r in schema.intervals}
        assert not ids & covered
        covered |= ids
    assert covered == {r.id for r in ivs}


def test_zero_length_intervals_get_their_own_bucket():
    ivs = records((1.0, 1.0), (0.0, 8.0))
    buckets = bucketed_schema(ivs)
    assert len(buckets) == 2
    # zero-length bucket sorts first
    assert {r.id for r in buckets[0].intervals} == {"i0"}


def test_bucketed_query_equals_plain(rng):
    for _ in range(8):
        ivs = random_intervals(rng, 70)
        s = build_endpoint_schema(ivs)
        buckets = bucketed_schema(ivs)
        lo = min(r.x for r in ivs)
        hi = max(r.y for r in ivs)
        for _ in range(20):
            a = lo + rng.random() * (hi - lo)
            b = a + rng.random() * (hi - lo) * 0.25
            assert bucketed_interval_query(buckets, a, b) == interval_query(s, a, b)


def test_schema_verifies(rng):
    for _ in range(10):
        s = build_endpoint_schema(random_intervals(rng, 40))
        assert verify_schema(s.function, s.clique, s.coloring)
