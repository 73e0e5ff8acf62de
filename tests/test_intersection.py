from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cliqueindex.corpus import random_function
from cliqueindex.digraph import ancestor_set_function, descendant_set_function
from cliqueindex.errors import TooLargeForExact
from cliqueindex.intersection import (
    build_intersection_graph,
    clique_lower_bound,
    EntryColoring,
    exact_chromatic,
    GREEDY_ORDERS,
    greedy_color,
    mask_positions,
    SetValuedFunction,
)
from cliqueindex.oracle import oracle_intersection_graph


def fn(**images):
    return SetValuedFunction.from_images({k: frozenset(v) for k, v in images.items()})


@pytest.mark.parametrize(
    "mask",
    [0, 1, 1 << 7, 1 << 8, 1 << 55, 1 << 63, 1 | 1 << 63, 1 << 64]
    + [(1 << n) - 1 for n in (1, 8, 9, 56, 64, 65)],
)
def test_mask_positions_lists_set_bits_ascending(mask):
    want = [b for b in range(mask.bit_length()) if (mask >> b) & 1]
    assert mask_positions(mask).tolist() == want


def full_unpack_positions(mask):
    """The decoder before zero bytes were skipped: unpack every byte."""
    data = np.frombuffer(mask.to_bytes((mask.bit_length() + 7) // 8, "little"), dtype=np.uint8)
    return np.flatnonzero(np.unpackbits(data, bitorder="little"))


@given(st.one_of(
    st.sets(st.integers(min_value=0, max_value=70_000), max_size=12).map(lambda bits: sum(1 << b for b in bits)),
    st.integers(min_value=0, max_value=(1 << 300) - 1),
))
@settings(max_examples=200, deadline=None)
def test_mask_positions_matches_the_full_unpack(mask):
    # sparse masks with high bits set take the zero-byte skip, dense ones do not
    assert mask_positions(mask).tolist() == full_unpack_positions(mask).tolist()


def test_from_pairs_groups_by_entry():
    f = SetValuedFunction.from_pairs([("e1", "a"), ("e2", "b"), ("e1", "c")])
    assert f.image["e1"] == {"a", "c"}
    assert f.image["e2"] == {"b"}
    assert f.node_domain() == {"a", "b", "c"}


def test_edges_exactly_where_images_overlap():
    f = fn(a={1, 2}, b={2, 3}, c={4})
    g = build_intersection_graph(f)
    assert dict(g.adj) == {"a": ["b"], "b": ["a"], "c": []}
    assert g.edge_count() == 1


def test_empty_images_are_isolated():
    f = fn(a={1}, b=set())
    g = build_intersection_graph(f)
    assert g.adj["b"] == [] and g.row(g.position["b"]).size == 0
    assert greedy_color(g).k == 1


# One entry type per function: str, int or tuple ids, as the module requires.
entry_types = st.sampled_from([
    st.text(max_size=3),
    st.integers(min_value=-40, max_value=40),
    st.tuples(st.integers(min_value=0, max_value=3), st.text(max_size=2)),
])


def functions(nodes: int, max_entries: int = 14):
    """Set-valued functions with possibly empty images over nodes 0..nodes-1."""
    images = st.frozensets(st.integers(min_value=0, max_value=nodes - 1), max_size=5)
    return entry_types.flatmap(
        lambda ids: st.dictionaries(ids, images, max_size=max_entries)
    ).map(SetValuedFunction.from_images)


def reference_adj(f):
    """Entry -> sorted list of the entries whose image meets its own."""
    return {a: sorted(b for b in f.entries if b != a and f.image[a] & f.image[b]) for a in f.entries}


def reference_edges(vertices, adj):
    index = {u: i for i, u in enumerate(vertices)}
    return [(u, v) for u in vertices for v in adj[u] if index[u] < index[v]]


@given(functions(nodes=12))
@settings(max_examples=150, deadline=None)
def test_matches_pairwise_oracle(f):
    fast = build_intersection_graph(f)
    slow = oracle_intersection_graph(f)
    adj = reference_adj(f)
    assert fast.vertices == tuple(slow) == f.entries
    assert fast.adj == slow == adj
    assert fast.edge_count() == len(reference_edges(f.entries, adj))
    for a in f.entries:
        assert [fast.order[q] for q in fast.row(fast.position[a]).tolist()] == adj[a]


def test_single_entry_and_empty_function():
    g = build_intersection_graph(fn(a={1, 2}))
    assert dict(g.adj) == {"a": []} and g.edge_count() == 0
    assert greedy_color(g).assignment == {"a": 1}
    empty = build_intersection_graph(SetValuedFunction.from_images({}))
    assert dict(empty.adj) == {} and empty.edge_count() == 0
    for order in GREEDY_ORDERS:
        assert greedy_color(empty, order) == EntryColoring({}, 0)


def reference_order(vertices, adj, order):
    """Entry-keyed vertex orders, as dict and set code."""
    if order == "input":
        return list(vertices)
    if order == "largest-first":
        return sorted(vertices, key=lambda v: (-len(adj[v]), v))
    degree = {u: len(adj[u]) for u in vertices}
    alive = set(vertices)
    removed = []
    while alive:
        u = min(alive, key=lambda v: (degree[v], v))
        removed.append(u)
        alive.remove(u)
        for w in adj[u]:
            if w in alive:
                degree[w] -= 1
    removed.reverse()
    return removed


def reference_first_fit(vertices, adj, order):
    assignment, k = {}, 0
    for u in reference_order(vertices, adj, order):
        used = {assignment[w] for w in adj[u] if w in assignment}
        c = 1
        while c in used:
            c += 1
        assignment[u] = c
        k = max(k, c)
    return assignment, k


def tied_functions():
    """Many equal degrees: cycles, and entries sharing few distinct images."""
    cycles = st.integers(min_value=1, max_value=12).map(
        lambda m: SetValuedFunction.from_images({i: {i, (i + 1) % m} for i in range(m)})
    )
    pooled = st.lists(st.frozensets(st.integers(0, 5), max_size=3), min_size=1, max_size=3).flatmap(
        lambda pool: st.dictionaries(st.integers(0, 30), st.sampled_from(pool), max_size=16)
    ).map(SetValuedFunction.from_images)
    return st.one_of(cycles, pooled, functions(nodes=4, max_entries=16))


@given(st.one_of(functions(nodes=12), tied_functions()))
@settings(max_examples=200, deadline=None)
def test_orders_and_first_fit_match_the_set_code(f):
    g = build_intersection_graph(f)
    adj = reference_adj(f)
    for order in GREEDY_ORDERS:
        # the assignment lists the vertices in coloring order
        assignment, k = reference_first_fit(f.entries, adj, order)
        c = greedy_color(g, order)
        assert list(c.assignment) == reference_order(f.entries, adj, order)
        assert list(c.assignment.items()) == list(assignment.items())
        assert c.k == k


def test_mixed_entry_types_are_rejected():
    with pytest.raises(TypeError):
        build_intersection_graph(SetValuedFunction.from_images({"a": {1}, 2: {1}}))


def test_pair_digraph_descendant_and_ancestor_functions(pair_dag):
    desc = build_intersection_graph(descendant_set_function(pair_dag))
    # sources covering a common sink overlap: 12 meets 13, 14, 23, 24
    assert 13 in desc.adj[12]
    assert 24 in desc.adj[12]
    assert 34 not in desc.adj[12]
    anc = build_intersection_graph(ancestor_set_function(pair_dag))
    assert exact_chromatic(anc) == 4


def test_greedy_proper_for_every_order(rng):
    for _ in range(20):
        f = random_function(rng, max_entries=20, max_nodes=25)
        g = build_intersection_graph(f)
        for order in GREEDY_ORDERS:
            c = greedy_color(g, order=order)
            assert c.is_proper(g)
            assert c.k >= 1


def test_greedy_rejects_unknown_order():
    with pytest.raises(ValueError):
        greedy_color(build_intersection_graph(fn(a={1})), order="random")


def test_complete_overlap_needs_full_palette():
    f = fn(**{f"e{i}": {0, i} for i in range(1, 5)})
    g = build_intersection_graph(f)
    assert greedy_color(g).k == 4
    assert clique_lower_bound(f) == 4
    assert exact_chromatic(g) == 4


def test_odd_cycle_needs_three_colors():
    f = fn(e1={1, 2}, e2={2, 3}, e3={3, 4}, e4={4, 5}, e5={5, 1})
    g = build_intersection_graph(f)
    assert clique_lower_bound(f) == 2
    assert exact_chromatic(g) == 3
    assert greedy_color(g).k >= 3


def test_exact_beats_every_greedy_order():
    """A graph no greedy order colors optimally, so the search itself finds
    the answer: each edge is one node two entries share, and each entry
    also holds a node of its own.  A brute force over all 3^9 and 2^9
    colorings agrees that 3 colors suffice and 2 do not."""
    order = ["e5", "e0", "e3", "e6", "e8", "e1", "e7", "e2", "e4"]
    edges = [
        ("e5", "e0"), ("e5", "e1"), ("e5", "e6"), ("e5", "e8"), ("e0", "e4"), ("e0", "e6"),
        ("e0", "e8"), ("e3", "e1"), ("e3", "e2"), ("e3", "e6"), ("e3", "e8"), ("e6", "e1"),
        ("e6", "e4"), ("e6", "e7"), ("e8", "e7"), ("e7", "e2"), ("e7", "e4"), ("e2", "e4"),
    ]
    image = {e: {e} for e in order}
    for a, b in edges:
        image[a].add(a + b)
        image[b].add(a + b)
    g = build_intersection_graph(SetValuedFunction.from_images(image))
    assert g.edge_count() == len(edges)
    assert [greedy_color(g, o).k for o in GREEDY_ORDERS] == [4, 4, 4]
    assert exact_chromatic(g) == 3
    position = {e: i for i, e in enumerate(order)}
    pairs = [(position[a], position[b]) for a, b in edges]

    def colorable(k):
        return any(all(c[i] != c[j] for i, j in pairs) for c in product(range(k), repeat=len(order)))

    assert colorable(3) and not colorable(2)


def test_edgeless_needs_one_color():
    f = fn(a={1}, b={2}, c={3})
    g = build_intersection_graph(f)
    assert greedy_color(g).k == 1
    assert exact_chromatic(g) == 1


def test_exact_never_exceeds_greedy(rng):
    for _ in range(20):
        f = random_function(rng, max_entries=12, max_nodes=15)
        g = build_intersection_graph(f)
        chi = exact_chromatic(g)
        assert clique_lower_bound(f) <= chi <= greedy_color(g).k


def test_exact_cap_enforced():
    f = fn(**{f"e{i}": {0} for i in range(21)})
    g = build_intersection_graph(f)
    with pytest.raises(TooLargeForExact):
        exact_chromatic(g, cap=20)
    assert exact_chromatic(g, cap=21) == 21


def test_is_proper_detects_collision():
    f = fn(a={1}, b={1})
    g = build_intersection_graph(f)
    assert not EntryColoring({"a": 1, "b": 1}, 1).is_proper(g)
    assert EntryColoring({"a": 1, "b": 2}, 2).is_proper(g)


def edge_walk_is_proper(assignment, vertices, adj):
    """The edge-at-a-time check the CSR comparison replaced."""
    return all(assignment[u] != assignment[v] for u, v in reference_edges(vertices, adj))


@st.composite
def colorings(draw):
    """A function, its graph and a coloring that may hit an edge's two ends
    with one color and may leave vertices uncolored, isolated ones included."""
    f = draw(st.one_of(functions(nodes=8), tied_functions()))
    g = build_intersection_graph(f)
    assignment = dict(greedy_color(g, draw(st.sampled_from(GREEDY_ORDERS))).assignment)
    edges = [(u, v) for u in f.entries for v in g.adj[u]]
    if edges and draw(st.booleans()):  # one collision on one edge
        u, v = draw(st.sampled_from(edges))
        assignment[v] = assignment[u]
    for e in f.entries:
        if draw(st.integers(0, 5)) == 0:
            assignment[e] = draw(st.integers(1, 3))
        elif draw(st.integers(0, 7)) == 0:
            del assignment[e]
    return f, g, assignment


@given(colorings())
@settings(max_examples=300, deadline=None)
def test_is_proper_matches_the_edge_walk(case):
    f, g, assignment = case
    adj = reference_adj(f)
    coloring = EntryColoring(assignment, max(assignment.values(), default=0))
    if all(e in assignment for e in f.entries if adj[e]):
        assert coloring.is_proper(g) == edge_walk_is_proper(assignment, f.entries, adj)
    else:
        with pytest.raises(KeyError):
            coloring.is_proper(g)
