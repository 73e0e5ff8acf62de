"""The oracles are deliberately naive; these tests pin their own behavior on
tiny hand-checkable inputs so the cross-checks elsewhere rest on something."""

import math

import numpy as np
import pytest

from cliqueindex.digraph import DownHypergraph
from cliqueindex.endpoints import IntervalRecord
from cliqueindex.errors import OutOfRange, TooLargeForExact
from cliqueindex.intersection import SetValuedFunction
from cliqueindex.oracle import (
    oracle_degeneracy,
    oracle_intersection_graph,
    oracle_interval_intersections,
    oracle_tree_overlap,
)


def test_intersection_graph_tiny():
    f = SetValuedFunction.from_images(
        {"a": frozenset({1, 2}), "b": frozenset({2}), "c": frozenset({3})}
    )
    g = oracle_intersection_graph(f)
    assert type(g) is dict and g == {"a": ["b"], "b": ["a"], "c": []}


def test_intersection_graph_cap():
    f = SetValuedFunction.from_images({f"e{i}": frozenset() for i in range(5001)})
    with pytest.raises(TooLargeForExact):
        oracle_intersection_graph(f)


def test_degeneracy_single_edge():
    h = DownHypergraph(("a", "b", "c"), (frozenset({"a", "b", "c"}),))
    assert oracle_degeneracy(h) == 1


def test_degeneracy_triangle_of_pairs():
    h = DownHypergraph(
        ("a", "b", "c"),
        (frozenset({"a", "b"}), frozenset({"b", "c"}), frozenset({"c", "a"})),
    )
    assert oracle_degeneracy(h) == 2


def test_degeneracy_disjoint_edges():
    h = DownHypergraph(
        ("a", "b", "c", "d"),
        (frozenset({"a", "b"}), frozenset({"c", "d"})),
    )
    assert oracle_degeneracy(h) == 1


def test_degeneracy_no_edges():
    h = DownHypergraph(("a", "b"), ())
    assert oracle_degeneracy(h) == 0


def test_degeneracy_cap():
    nodes = tuple(f"x{i}" for i in range(17))
    h = DownHypergraph(nodes, (frozenset(nodes),))
    with pytest.raises(TooLargeForExact):
        oracle_degeneracy(h)


def test_interval_scan_uses_closed_bounds():
    ivs = [IntervalRecord("a", 0.0, 1.0), IntervalRecord("b", 1.0, 2.0)]
    assert oracle_interval_intersections(ivs, 1.0, 1.0) == {"a", "b"}
    assert oracle_interval_intersections(ivs, 2.5, 3.0) == set()


def test_tree_overlap_worked_example():
    assert oracle_tree_overlap(5, 4).tolist() == [1, 2, 5, 10, 11]
    assert oracle_tree_overlap(1, 3).tolist() == list(range(1, 8))


def test_tree_overlap_siblings_disjoint():
    assert 3 not in oracle_tree_overlap(2, 4)
    assert 9 not in oracle_tree_overlap(5, 4)


def reference_tree_overlap(k, n):
    """The scan as a Python loop over every id, each extent from its level."""

    def extent(j):
        level = math.floor(math.log2(j)) + 1
        width = 1 << (n - level)
        lo = (j - (1 << (level - 1))) * width
        return lo, lo + width

    lo, hi = extent(k)
    return [j for j in range(1, 1 << n) if extent(j)[0] < hi and lo < extent(j)[1]]


@pytest.mark.parametrize("n", range(1, 9))
def test_tree_overlap_matches_the_loop(n):
    for k in range(1, 1 << n):
        got = oracle_tree_overlap(k, n)
        assert got.dtype == np.int64 and got.tolist() == reference_tree_overlap(k, n), (k, n)


def test_tree_overlap_bad_inputs():
    with pytest.raises(OutOfRange):
        oracle_tree_overlap(0, 4)
    with pytest.raises(OutOfRange):
        oracle_tree_overlap(16, 4)
    with pytest.raises(TooLargeForExact):
        oracle_tree_overlap(1, 17)
