"""Property tests: CompressedBitset must behave like a plain set of ints,
in both of its forms (sorted id array below n / DENSE_FRACTION ids, bool
mask at or above it)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cliqueindex.bitset import DENSE_FRACTION, CompressedBitset, union
from cliqueindex.engine import And, Atom, FactTable, Not, Or, build_index, evaluate
from cliqueindex.tree import build_tree_schema

# universe sizes around and well above the cut-off
SIZES = (1, 7, DENSE_FRACTION, DENSE_FRACTION + 1, 1000, 4099)


@st.composite
def id_sets(draw, n):
    """A set of ids in 0..n-1, drawn sparse or dense with equal odds."""
    cut = -(-n // DENSE_FRACTION)  # fewest ids a dense set holds
    if draw(st.booleans()):
        size = draw(st.integers(min_value=cut, max_value=n))
    else:
        size = draw(st.integers(min_value=0, max_value=cut - 1))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    return set(np.random.default_rng(seed).choice(n, size=size, replace=False).tolist())


@st.composite
def universe_and_three_sets(draw):
    n = draw(st.sampled_from(SIZES))
    return n, draw(id_sets(n)), draw(id_sets(n)), draw(id_sets(n))


def is_mask(s):
    return s.mask is not None


@given(universe_and_three_sets())
@settings(max_examples=200, deadline=None)
def test_boolean_algebra_matches_sets(case):
    n, a_ids, b_ids, c_ids = case
    a = CompressedBitset.from_ids(n, a_ids)
    b = CompressedBitset.from_ids(n, b_ids)
    c = CompressedBitset.from_ids(n, c_ids)
    # the drawn sizes decide the forms, so every pairing of forms occurs
    assert is_mask(a) == (len(a_ids) * DENSE_FRACTION >= n)
    assert set(a & b) == a_ids & b_ids
    assert set(a | b) == a_ids | b_ids
    assert set(a - b) == a_ids - b_ids
    assert set(union(n, [a, b, c])) == a_ids | b_ids | c_ids
    assert set(a.complement()) == set(range(n)) - a_ids
    assert is_mask(a.complement())
    if not is_mask(a) or not is_mask(b):
        assert not is_mask(a & b)


@given(universe_and_three_sets())
@settings(max_examples=100, deadline=None)
def test_cardinality_and_membership(case):
    n, a_ids, _, _ = case
    a = CompressedBitset.from_ids(n, a_ids)
    assert a.cardinality() == len(a) == len(a_ids)
    assert bool(a) == bool(a_ids)
    assert list(a) == sorted(a_ids)
    for probe in range(min(n, 64)):
        assert (probe in a) == (probe in a_ids)
    assert -1 not in a and n not in a


@given(universe_and_three_sets())
@settings(max_examples=60, deadline=None)
def test_array_round_trip(case):
    n, a_ids, _, _ = case
    a = CompressedBitset.from_ids(n, a_ids)
    arr = a.to_array()
    assert arr.dtype == np.int64
    assert list(arr) == sorted(a_ids)
    assert a.to_ids() == sorted(a_ids)
    again = CompressedBitset.from_sorted_array(n, arr)
    assert again == a


def test_from_sorted_array_equals_from_ids():
    n = 1000
    for ids in ([0, 1, 31, 32, 999], list(range(0, n, 7))):
        arr = np.asarray(ids, dtype=np.int64)
        assert CompressedBitset.from_sorted_array(n, arr) == CompressedBitset.from_ids(n, ids)
    with pytest.raises(ValueError):
        CompressedBitset.from_ids(n, [n])


def test_empty_and_full():
    n = 4099
    e = CompressedBitset.empty(n)
    f = CompressedBitset.full(n)
    assert e.cardinality() == 0
    assert f.cardinality() == n
    assert e.complement() == f
    assert f.complement() == e
    assert (f & e) == e
    assert (f | e) == f
    assert (f - f) == e


def test_complement_covers_the_whole_universe():
    n = 4099
    c = CompressedBitset.empty(n).complement()
    assert c.cardinality() == n
    assert max(c) == n - 1


def test_mismatched_universes_rejected():
    a = CompressedBitset.empty(8)
    b = CompressedBitset.empty(9)
    for op in (a.__and__, a.__or__, a.__sub__):
        with pytest.raises(ValueError):
            op(b)


def test_array_membership_by_search_and_by_scratch_mask():
    """Few values are looked up in an id array by binary search, many through
    a scratch mask; both must give the set answer and leave operands as they were."""
    n = 40_000
    rng = np.random.default_rng(5)
    big = set(rng.choice(n, size=n // 8, replace=False).tolist())
    for size in (3, 40, 400, 4000):  # from far below to far above len(big) / log2(len(big))
        small = set(rng.choice(n, size=size, replace=False).tolist()) | set(list(big)[:size // 2])
        a = CompressedBitset.from_ids(n, small)
        b = CompressedBitset.from_ids(n, big)
        assert not is_mask(a) and not is_mask(b)
        a_ids, b_ids = a.ids.copy(), b.ids.copy()
        assert set(a & b) == set(b & a) == small & big
        assert set(a - b) == small - big
        assert set(b - a) == big - small
        assert np.array_equal(a.ids, a_ids) and np.array_equal(b.ids, b_ids)


def test_byte_size_grows_with_population():
    n = 32768
    sparse = CompressedBitset.from_ids(n, {1})
    dense = CompressedBitset.from_ids(n, set(range(0, n, 9)))
    assert 0 < sparse.byte_size() < dense.byte_size()


def test_postings_are_read_only_and_survive_evaluation():
    levels, rows = 8, 4000
    rng = np.random.default_rng(3)
    accs = rng.integers(1 << (levels - 1), 1 << levels, size=rows).tolist()
    idx = build_index(FactTable(accs, [1] * rows), build_tree_schema(levels))
    keys = [(1, 1), (2, 2), (8, accs[0])]  # all rows, about half, a few
    before = {key: idx.postings[key].ids.copy() for key in keys}
    for key in keys:
        ids = idx.postings[key].ids
        assert not ids.flags.writeable
        with pytest.raises(ValueError):
            ids[0] = 0
    atoms = [Atom(col, entry) for col, entry in keys]
    for q in (
        Or(tuple(atoms)),
        Or(tuple(atoms[1:])),
        And(tuple(atoms)),
        And((atoms[0], Not(atoms[2]))),
        And((atoms[2], Not(atoms[1]))),
        Not(Or(tuple(atoms[:2]))),
    ):
        evaluate(q, idx).to_array()
    for key in keys:
        assert np.array_equal(idx.postings[key].ids, before[key])
