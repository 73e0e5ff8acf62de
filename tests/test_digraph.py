import csv
import io
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cliqueindex.corpus import random_dag, random_out_tree
from cliqueindex.digraph import (
    ancestor_set_function,
    build_digraph,
    descendant_set_function,
    down_chromatic_bounds,
    down_conflict_graph,
    down_hypergraph,
    DownHypergraph,
    exact_down_chromatic,
    greedy_down_coloring,
    hypergraph_degeneracy,
    is_down_coloring,
    max_down_set_size,
    peel_degeneracy,
    read_edge_list,
)
from cliqueindex.errors import (
    CycleDetected,
    EmptyDigraph,
    MalformedCsv,
    TooLargeForExact,
    UnknownNode,
)
from cliqueindex.intersection import EntryColoring
from cliqueindex.oracle import oracle_degeneracy

from conftest import PAIR_EDGES, PAIR_NODES


def test_empty_edge_list_gives_empty_digraph():
    g = build_digraph([])
    assert len(g) == 0
    assert g.nodes == () and g.edges == ()


def test_isolated_nodes_are_kept():
    g = build_digraph([("a", "b")], isolated=["z"])
    assert set(g.nodes) == {"a", "b", "z"}
    assert g.descendants_and_self("z") == {"z"}


def test_duplicate_edges_are_deduplicated():
    g = build_digraph([("a", "b"), ("a", "b")])
    assert len(g.edges) == 1


def reference_build_order(edge_list, isolated=()):
    """Node and edge order of the seen-set loop build_digraph replaced."""
    nodes, seen_nodes, edges, seen_edges = [], set(), [], set()
    for s, t in edge_list:
        for u in (s, t):
            if u not in seen_nodes:
                seen_nodes.add(u)
                nodes.append(u)
        if (s, t) not in seen_edges:
            seen_edges.add((s, t))
            edges.append((s, t))
    for u in isolated:
        if u not in seen_nodes:
            seen_nodes.add(u)
            nodes.append(u)
    return tuple(nodes), tuple(edges)


@pytest.mark.parametrize("edge_list, isolated", [
    ([("c", "a"), ("a", "b"), ("c", "a"), ("b", "d"), ("a", "b")], ()),
    ([("c", "a"), ("a", "b")], ["b", "z", "c", "y"]),
    ([("c", "a")], ["z", "y", "z", "a", "y"]),
    ([], ["z", "y", "z"]),
    ([(f"n{i % 7}", f"n{i % 7 + 1 + i % 3}") for i in range(40)], ["n20", "n3", "n21"]),
], ids=["duplicate-edges", "isolated-in-edges", "repeated-isolated", "isolated-only", "repeating-pattern"])
def test_build_digraph_keeps_first_appearance_order(edge_list, isolated):
    """Edges and isolated nodes arrive as one-shot generators."""
    g = build_digraph((e for e in edge_list), isolated=(u for u in isolated))
    assert (g.nodes, g.edges) == reference_build_order(edge_list, isolated)


def test_two_cycle_is_rejected_with_witness():
    with pytest.raises(CycleDetected) as exc:
        build_digraph([("a", "b"), ("b", "a")])
    cycle = exc.value.cycle
    assert cycle[0] == cycle[-1]
    assert set(cycle) == {"a", "b"}
    assert "->" in str(exc.value)


def test_self_loop_is_rejected():
    with pytest.raises(CycleDetected):
        build_digraph([("a", "a")])


def test_longer_cycle_witness_is_a_real_cycle():
    with pytest.raises(CycleDetected) as exc:
        build_digraph([("a", "b"), ("b", "c"), ("c", "d"), ("d", "b")])
    cycle = exc.value.cycle
    assert cycle[0] == cycle[-1]
    edges = {("a", "b"), ("b", "c"), ("c", "d"), ("d", "b")}
    for u, v in zip(cycle, cycle[1:]):
        assert (u, v) in edges


@pytest.mark.parametrize("edges", [
    [("1", "0"), ("1", "1")],
    [("b", "a"), ("c", "b"), ("b", "c")],
    [("a", "z"), ("a", "b"), ("b", "c"), ("c", "a")],
])
def test_cycle_witness_skips_nodes_downstream_of_the_cycle(edges):
    with pytest.raises(CycleDetected) as exc:
        build_digraph(edges)
    cycle = exc.value.cycle
    steps = list(zip(cycle, cycle[1:])) or [(cycle[0], cycle[0])]  # a self-loop's walk is its node
    assert cycle[0] == cycle[-1] and all(step in edges for step in steps)


def test_unknown_node_raises():
    g = build_digraph([("a", "b")])
    with pytest.raises(UnknownNode):
        g.descendants_and_self("q")
    with pytest.raises(UnknownNode):
        g.ancestors_and_self("q")


def test_closures_on_pair_digraph(pair_dag):
    assert pair_dag.descendants_and_self(12) == {12, 1, 2}
    assert pair_dag.descendants_and_self(1) == {1}
    assert pair_dag.ancestors_and_self(1) == {1, 12, 13, 14}
    assert pair_dag.ancestors_and_self(34) == {34}


def test_closures_on_chain():
    g = build_digraph([("a", "b"), ("b", "c"), ("c", "d")])
    assert g.descendants_and_self("a") == {"a", "b", "c", "d"}
    assert g.ancestors_and_self("d") == {"a", "b", "c", "d"}
    assert max_down_set_size(g) == 4


def bfs_closure(edges, u, forward=True):
    """u plus every node reachable from it over `edges` (reversed if not forward)."""
    step = {}
    for s, t in edges:
        a, b = (s, t) if forward else (t, s)
        step.setdefault(a, []).append(b)
    seen, frontier = {u}, [u]
    while frontier:
        frontier = [w for v in frontier for w in step.get(v, ()) if w not in seen]
        seen.update(frontier)
    return seen


def assert_closures_match_bfs(g):
    for u in g.nodes:
        assert g.descendants_and_self(u) == bfs_closure(g.edges, u)
        assert g.ancestors_and_self(u) == bfs_closure(g.edges, u, forward=False)


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_closures_match_bfs_on_random_dags(seed):
    assert_closures_match_bfs(random_dag(random.Random(seed), max_nodes=20))


@pytest.mark.parametrize("edges, isolated", [
    ([(i, i + 1) for i in range(69)], []),  # 70-node chain: masks past 64 bits
    ([(i, j) for i in range(16) for j in range(i + 1, 16) if (i * j) % 3 == 1], list(range(16))),
    ([("a", "b"), ("b", "c")], ["x", "y", "z"]),
], ids=["chain-70", "width-16", "isolated"])
def test_closures_match_bfs_on_fixed_digraphs(edges, isolated):
    assert_closures_match_bfs(build_digraph(edges, isolated=isolated))


def assert_set_functions_match_bfs(g):
    """The CSR closure functions against the frozensets a BFS gives."""
    for build, forward in ((descendant_set_function, True), (ancestor_set_function, False)):
        f = build(g)
        assert f.entries == f.nodes == g.nodes
        assert f.indices.dtype == np.int32
        assert all((np.diff(f.row(i)) > 0).all() for i in range(len(g.nodes)))
        assert f.image == {u: frozenset(bfs_closure(g.edges, u, forward)) for u in g.nodes}


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_set_functions_match_bfs_on_random_dags(seed):
    assert_set_functions_match_bfs(random_dag(random.Random(seed), max_nodes=20))


def test_set_functions_match_bfs_on_fixed_digraphs():
    assert_set_functions_match_bfs(build_digraph([(i, i + 1) for i in range(69)]))
    assert_set_functions_match_bfs(build_digraph([("a", "b"), ("b", "c")], isolated=["x", "y"]))
    assert_set_functions_match_bfs(build_digraph([], isolated=["x"]))


def test_single_node_query_on_fresh_digraph():
    g = build_digraph([(i, i + 1) for i in range(69)])
    assert g.ancestors_and_self(69) == set(range(70))
    g = build_digraph([(i, i + 1) for i in range(69)])
    assert g.descendants_and_self(65) == {65, 66, 67, 68, 69}


def test_max_down_set_size_empty_raises():
    with pytest.raises(EmptyDigraph):
        max_down_set_size(build_digraph([]))


def test_down_hypergraph_on_pair_digraph(pair_dag):
    h = down_hypergraph(pair_dag)
    assert set(h.vertices) == PAIR_NODES
    expected = {
        frozenset({12, 1, 2}), frozenset({13, 1, 3}), frozenset({14, 1, 4}),
        frozenset({23, 2, 3}), frozenset({24, 2, 4}), frozenset({34, 3, 4}),
    }
    assert set(h.hyperedges) == expected


def test_down_hypergraph_keeps_only_maximal_sets():
    g = build_digraph([("a", "b"), ("b", "c")])
    h = down_hypergraph(g)
    # D[b] and D[c] are nested inside D[a], so only one hyperedge survives
    assert set(h.hyperedges) == {frozenset({"a", "b", "c"})}


def reference_down_hyperedges(g):
    """Inclusion-maximal distinct closures by the all-pairs scan, first
    occurrence in node order."""
    closures = list(dict.fromkeys(g.descendants_and_self(u) for u in g.nodes))
    return tuple(c for c in closures if not any(c < other for other in closures))


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=80, deadline=None)
def test_down_hypergraph_is_the_maximal_closures_in_order(seed):
    g = random_dag(random.Random(seed), max_nodes=14)
    assert down_hypergraph(g).hyperedges == reference_down_hyperedges(g)


def test_down_hypergraph_rejects_nested_edges():
    with pytest.raises(ValueError):
        DownHypergraph(("a", "b", "c"),
                       (frozenset({"a", "b", "c"}), frozenset({"a", "b"})))
    with pytest.raises(ValueError):
        DownHypergraph(("a", "b"), (frozenset({"a", "b"}), frozenset({"a", "b"})))


def test_degeneracy_on_pair_digraph(pair_dag):
    h = down_hypergraph(pair_dag)
    assert hypergraph_degeneracy(h) == 3
    assert oracle_degeneracy(h) == 3


def test_degeneracy_single_edge_is_one():
    g = build_digraph([("a", "b"), ("a", "c")])
    h = down_hypergraph(g)
    assert hypergraph_degeneracy(h) == 1


def test_degeneracy_edgeless_is_zero():
    g = build_digraph([], isolated=["a", "b"])
    h = down_hypergraph(g)
    # singleton hyperedges never count, so the minimum degree is 0
    assert hypergraph_degeneracy(h) == 0


def test_peel_never_exceeds_exact(rng):
    for _ in range(40):
        g = random_dag(rng)
        h = down_hypergraph(g)
        exact = hypergraph_degeneracy(h)
        peel = peel_degeneracy(h)
        assert peel <= exact
        assert exact == oracle_degeneracy(h)


def reference_peel(h):
    """The peel as a per-vertex loop: each step recounts every live
    vertex's degree restriction by restriction, bit by bit."""
    index = {u: i for i, u in enumerate(h.vertices)}
    edge_masks = [sum(1 << index[u] for u in e) for e in h.hyperedges]
    alive = (1 << len(h.vertices)) - 1
    best = 0
    while alive:
        restrictions = {em & alive for em in edge_masks}
        restrictions = [r for r in restrictions if r.bit_count() >= 2]
        worst_u, worst_d = -1, None
        for u in range(len(h.vertices)):
            if not (alive >> u) & 1:
                continue
            d = sum(1 for r in restrictions if (r >> u) & 1)
            if worst_d is None or d < worst_d:
                worst_u, worst_d = u, d
        best = max(best, worst_d)
        alive &= ~(1 << worst_u)
    return best


def test_peel_matches_the_per_vertex_loop():
    for seed in range(300):
        rng = random.Random(seed)
        h = down_hypergraph(random_dag(rng, max_nodes=rng.choice([12, 30])))
        assert peel_degeneracy(h) == reference_peel(h), seed


def chain_dag(n):
    """n nodes in a line: the down-hypergraph is one hyperedge over all of them."""
    return build_digraph([(f"n{i}", f"n{i + 1}") for i in range(n - 1)])


def test_degeneracy_cap_is_enforced():
    assert hypergraph_degeneracy(down_hypergraph(chain_dag(20))) == 1  # 2^20 x 1 cells
    h = down_hypergraph(chain_dag(21))
    with pytest.raises(TooLargeForExact):
        hypergraph_degeneracy(h)
    # the peel estimate has no cap
    assert peel_degeneracy(h) == 1
    nodes = [f"x{i}" for i in range(17)]
    h = down_hypergraph(build_digraph([], isolated=nodes))
    with pytest.raises(TooLargeForExact):
        hypergraph_degeneracy(h)  # 2^17 x 17 cells
    assert peel_degeneracy(h) == 0


def test_bounds_on_pair_digraph(pair_dag):
    b = down_chromatic_bounds(pair_dag)
    assert (b.lower, b.upper) == (3, 4)
    assert b.part == 2
    assert b.degeneracy == 3
    assert b.degeneracy_exact


def test_bounds_collapse_for_trees(rng):
    for _ in range(20):
        g = random_out_tree(rng)
        b = down_chromatic_bounds(g)
        assert b.part == 1
        assert b.lower == b.upper == max_down_set_size(g)


def test_bounds_single_edge():
    b = down_chromatic_bounds(build_digraph([("a", "b")]))
    assert (b.lower, b.upper) == (2, 2)
    assert b.part == 1


def test_bounds_edgeless():
    b = down_chromatic_bounds(build_digraph([], isolated=["a", "b", "c"]))
    assert (b.lower, b.upper) == (1, 1)


def test_bounds_never_cross(rng):
    for _ in range(40):
        g = random_dag(rng)
        b = down_chromatic_bounds(g)
        assert b.lower <= b.upper


def test_bounds_estimate_degeneracy_past_cap(rng):
    b = down_chromatic_bounds(chain_dag(21))
    assert not b.degeneracy_exact
    assert b.lower <= b.upper
    b = down_chromatic_bounds(chain_dag(18))
    assert b.degeneracy_exact
    assert (b.lower, b.upper, b.degeneracy) == (18, 18, 1)
    # exact exactly when 2^nodes x sources fits in 2^20 cells
    for _ in range(12):
        g = random_dag(rng, max_nodes=22)
        if g.edges:
            sources = len(down_hypergraph(g).hyperedges)
            assert down_chromatic_bounds(g).degeneracy_exact == (sources << len(g) <= 1 << 20)


def test_greedy_down_coloring_pair_digraph(pair_dag):
    c = greedy_down_coloring(pair_dag)
    assert c.k == 4
    assert is_down_coloring(pair_dag, c)


def test_greedy_down_coloring_all_orders_valid(pair_dag, rng):
    for order in ("input", "largest-first", "smallest-last"):
        c = greedy_down_coloring(pair_dag, order=order)
        assert is_down_coloring(pair_dag, c)
    for _ in range(15):
        g = random_dag(rng)
        for order in ("input", "largest-first", "smallest-last"):
            assert is_down_coloring(g, greedy_down_coloring(g, order=order))


def reference_conflict_adj(g):
    """Node -> sorted clashing nodes, from all pairs of ancestor masks."""
    masks = g._all_anc_masks()
    n = len(g.nodes)
    adj = {u: [] for u in g.nodes}
    for i in range(n):
        for j in range(i + 1, n):
            if masks[i] & masks[j]:
                adj[g.nodes[i]].append(g.nodes[j])
                adj[g.nodes[j]].append(g.nodes[i])
    return {u: sorted(vs) for u, vs in adj.items()}


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_down_conflict_graph_matches_pairwise_masks(seed):
    g = random_dag(random.Random(seed), max_nodes=16)
    conflict = down_conflict_graph(g)
    assert conflict.vertices == g.nodes
    assert conflict.adj == reference_conflict_adj(g)


def test_down_conflict_graph_on_pair_digraph(pair_dag):
    assert down_conflict_graph(pair_dag).adj == reference_conflict_adj(pair_dag)


def test_down_coloring_validity_detects_clash(pair_dag):
    bad = EntryColoring({u: 1 for u in pair_dag.nodes}, 1)
    assert not is_down_coloring(pair_dag, bad)


def test_exact_down_chromatic_pair_digraph(pair_dag):
    assert exact_down_chromatic(pair_dag) == 4


def test_exact_down_chromatic_chain():
    g = build_digraph([("a", "b"), ("b", "c"), ("c", "d")])
    assert exact_down_chromatic(g) == 4


def test_exact_down_chromatic_cap():
    chain = [(f"n{i}", f"n{i + 1}") for i in range(21)]
    g = build_digraph(chain)
    with pytest.raises(TooLargeForExact):
        exact_down_chromatic(g)


def test_exact_between_bounds(rng):
    for _ in range(30):
        g = random_dag(rng, max_nodes=9)
        b = down_chromatic_bounds(g)
        chi = exact_down_chromatic(g)
        assert b.lower <= chi <= b.upper
        assert greedy_down_coloring(g).k >= chi


def test_read_edge_list_round_trip():
    text = "# comment\na\tb\nb\tc\nlonely\t\n"
    edges, isolated = read_edge_list(io.StringIO(text))
    assert edges == [("a", "b"), ("b", "c")]
    assert isolated == ["lonely"]
    g = build_digraph(edges, isolated=isolated)
    assert set(g.nodes) == {"a", "b", "c", "lonely"}


def test_read_edge_list_rejects_malformed_line():
    with pytest.raises(MalformedCsv) as exc:
        read_edge_list(io.StringIO("a\tb\nnot-an-edge\n"))
    assert "2" in str(exc.value)



@pytest.mark.parametrize("eol", ["\n", "\r\n", "\r", "mixed"], ids=["lf", "crlf", "cr", "mixed"])
def test_read_edge_list_splits_lines_alike_from_text_a_path_and_a_file_object(tmp_path, eol):
    """One input rule: the same bytes give the same edges whichever source
    holds them, and `"` is an ordinary character."""
    lines = ["# comment", "a\tb", "", "b\tc", '"q\t"r', "lonely\t", "  ", "c\td"]
    ends = ["\n", "\r\n", "\r"] * 3 if eol == "mixed" else [eol] * len(lines)
    text = "".join(line + end for line, end in zip(lines, ends))
    path = tmp_path / "e.tsv"
    path.write_bytes(text.encode())
    with open(path, encoding="utf-8", newline="") as fh:
        from_file = read_edge_list(fh)
    expected = ([("a", "b"), ("b", "c"), ('"q', '"r'), ("c", "d")], ["lonely"])
    assert read_edge_list(text) == read_edge_list(path) == from_file == expected


def test_read_edge_list_rejects_a_field_over_the_csv_field_limit():
    with pytest.raises(MalformedCsv, match=r"^line 2: field larger than field limit"):
        read_edge_list("a\tb\nc\t" + "d" * (csv.field_size_limit() + 1) + "\n")

def test_pair_edges_constant_is_consistent(pair_dag):
    assert set(pair_dag.nodes) == PAIR_NODES
    assert len(pair_dag.edges) == len(PAIR_EDGES)


def test_read_edge_list_names_a_path_and_not_a_file_object(tmp_path):
    """Both name the line of a malformed edge; a byte that is not UTF-8
    is MalformedCsv too, and only a path can be reread to find its line."""
    path = tmp_path / "e.tsv"
    path.write_bytes(b"a\tb\rb\tc\td\n")
    with pytest.raises(MalformedCsv, match=rf"^{re.escape(str(path))} line 2: expected"):
        read_edge_list(path)
    path.write_bytes(b"a\tb\r\n# \xff\n")
    with pytest.raises(MalformedCsv, match=rf"^{re.escape(str(path))} line 2: byte 0xff is not UTF-8"):
        read_edge_list(path)
    with open(path, encoding="utf-8") as fh:
        with pytest.raises(MalformedCsv, match=r"^byte 0xff is not UTF-8 \(invalid start byte\)$"):
            read_edge_list(fh)
