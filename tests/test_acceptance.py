"""Acceptance gate: twelve criteria, one test each, run with pytest -v,
and a scale guard on the coloring pipeline.

Each test prints a PASS line with the measured values after its assertions
hold, and enforces its wall-clock budget.  Tolerances are exact unless the
assertion itself says otherwise.
"""

import csv
import io
import math
import random
import time

import numpy as np
import pytest

from cliqueindex.cli import main
from cliqueindex.corpus import (
    random_dag,
    random_expr,
    random_function,
    random_intervals,
    random_out_tree,
)
from cliqueindex.digraph import (
    build_digraph,
    descendant_set_function,
    down_chromatic_bounds,
    down_hypergraph,
    exact_down_chromatic,
    greedy_down_coloring,
    is_down_coloring,
    max_down_set_size,
)
from cliqueindex.endpoints import (
    build_endpoint_schema,
    build_tree_interval_index,
    interval_query,
    interval_query_branches,
    tree_interval_query,
)
from cliqueindex.engine import (
    aggregate_sum,
    bench,
    BenchSpec,
    build_index,
    evaluate,
    FactTable,
    ScanOracle,
)
from cliqueindex.intersection import (
    build_intersection_graph,
    clique_lower_bound,
    exact_chromatic,
    GREEDY_ORDERS,
    greedy_color,
    SetValuedFunction,
)
from cliqueindex.oracle import (
    oracle_degeneracy,
    oracle_interval_intersections,
)
from cliqueindex.schema import import_table, materialize, NULL, verify_schema
from cliqueindex.tree import (
    build_tree_schema,
    entry_members,
    naive_overlap_function,
    overlap_query,
    tree_entry_function,
)

from conftest import GOLDEN_TREE_4, PAIR_EDGES, rows_table


class Budget:
    """Context manager asserting the body stayed under its time budget."""

    def __init__(self, seconds):
        self.limit = seconds
        self.elapsed = None

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        self.elapsed = time.perf_counter() - self.start
        if exc_type is None:
            assert self.elapsed < self.limit, (
                f"budget exceeded: {self.elapsed:.1f}s >= {self.limit}s"
            )
        return False


def report(num, text, budget):
    print(f"PASS criterion {num:02d} ({budget.elapsed:.2f}s): {text}")


def test_criterion_01_golden_4_level_table(tmp_path):
    with Budget(1.0) as b:
        out = tmp_path / "t4.csv"
        assert main(["build", "tree", "--levels", "4", "--out", str(out)]) == 0
        with open(out) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["node", "c1", "c2", "c3", "c4"]
        assert len(rows) == 16
        got = {int(r[0]): tuple(int(c) for c in r[1:]) for r in rows[1:]}
        assert got == GOLDEN_TREE_4
        assert got[10] == (1, 2, 5, 10)
    report(1, "4-level table matches all 15 golden rows cell-for-cell", b)


def test_criterion_02_overlap_worked_example():
    with Budget(1.0) as b:
        t = build_tree_schema(4)
        hit = overlap_query(5, t)
        assert hit.tolist() == [1, 2, 5, 10, 11]
        parts = [entry_members(5, 3, 4), entry_members(2, 3, 4), entry_members(1, 3, 4)]
        assert parts[0] == {5, 10, 11}
        assert parts[1] == {2}
        assert parts[2] == {1}
        assert set().union(*parts) == set(hit.tolist())
    report(2, "overlap of id 5 = {1,2,5,10,11} = {5,10,11} | {2} | {1}", b)


def test_criterion_03_twenty_level_scale(tmp_path):
    with Budget(60.0) as b:
        out = tmp_path / "t20.csv"
        assert main(["build", "tree", "--levels", "20", "--out", str(out)]) == 0
        rows = 0
        nulls = 0
        with open(out) as fh:
            reader = csv.reader(fh)
            header = next(reader)
            assert len(header) == 21
            for row in reader:
                rows += 1
                if "" in row:
                    nulls += 1
        assert rows == 1_048_575
        assert nulls == 0
    report(3, "20-level table has 1,048,575 rows x 21 columns, zero NULLs", b)


def test_criterion_04_pair_digraph_fixture():
    with Budget(5.0) as b:
        g = build_digraph(PAIR_EDGES)
        assert max_down_set_size(g) == 3
        assert oracle_degeneracy(down_hypergraph(g)) == 3
        assert exact_down_chromatic(g) == 4
        bounds = down_chromatic_bounds(g)
        assert (bounds.lower, bounds.upper) == (3, 4)
        coloring = greedy_down_coloring(g)
        assert coloring.k == 4
        assert is_down_coloring(g, coloring)
    report(4, "10-node fixture: sizes 3/3, exact 4, bounds (3,4), greedy 4 valid", b)


def test_criterion_05_chromatic_bound_conformance_on_200_dags():
    with Budget(120.0) as b:
        rng = random.Random(501)
        part1 = part2 = 0
        for _ in range(200):
            g = random_dag(rng, max_nodes=12)
            bounds = down_chromatic_bounds(g)
            largest = max_down_set_size(g)
            assert bounds.lower == largest
            if bounds.degeneracy == 1 or largest == 2:
                assert bounds.part == 1
                part1 += 1
            elif bounds.part == 2:
                part2 += 1
            assert greedy_down_coloring(g).k <= bounds.upper
            chi = exact_down_chromatic(g)
            assert bounds.lower <= chi <= bounds.upper
        assert part2 > 0, "corpus never exercised the general bound"
    report(5, f"200 DAGs conform ({part1} narrow-bound, {part2} general-bound)", b)


def test_criterion_06_out_trees_have_tight_bounds():
    with Budget(60.0) as b:
        rng = random.Random(601)
        for _ in range(50):
            g = random_out_tree(rng, max_nodes=12)
            assert oracle_degeneracy(down_hypergraph(g)) == 1
            assert exact_down_chromatic(g) == max_down_set_size(g)
    report(6, "50 out-trees: overlap measure 1, exact count = largest set", b)


def test_criterion_07_schema_duality_and_cell_deletion():
    with Budget(60.0) as b:
        rng = random.Random(701)
        deletions = 0
        for _ in range(100):
            f = random_function(rng, max_entries=40, max_nodes=60)
            graph = build_intersection_graph(f)
            tables = []
            for order in GREEDY_ORDERS:
                c = greedy_color(graph, order)
                t = materialize(f, c)
                assert verify_schema(f, t, c), order
                tables.append((t, c))
            t, c = tables[0]
            for node, cells in t.rows.items():
                for col, value in enumerate(cells):
                    if value is NULL:
                        continue
                    broken_cells = list(cells)
                    broken_cells[col] = NULL
                    broken = rows_table(t.k, {**t.rows, node: tuple(broken_cells)})
                    assert not verify_schema(f, broken, c), (node, col)
                    deletions += 1
    report(7, f"100 functions x 3 orders verify; all {deletions} cell deletions caught", b)


def test_criterion_08_interval_queries_vs_oracle():
    with Budget(60.0) as b:
        rng = random.Random(801)
        intervals = random_intervals(rng, 1000)
        schema = build_endpoint_schema(intervals)
        tree = build_tree_interval_index(intervals)
        lo = min(r.x for r in intervals)
        hi = max(r.y for r in intervals)
        for _ in range(500):
            a = lo + rng.random() * (hi - lo)
            beta = rng.random()
            bq = a + beta * beta * (hi - a)
            want = oracle_interval_intersections(intervals, a, bq)
            first, second = interval_query_branches(schema, a, bq)
            assert first & second == set()
            assert first | second == want
            assert interval_query(schema, a, bq) == want
            assert tree_interval_query(tree, a, bq) == want
    report(8, "1000 intervals x 500 queries: exact, disjoint branches, tree path agrees", b)


def test_criterion_09_chromatic_identities():
    with Budget(120.0) as b:
        for n in range(2, 7):
            f = tree_entry_function(n)
            g = build_intersection_graph(f)
            assert exact_chromatic(g, cap=2 ** n) == n, n
        for n in range(2, 5):
            f = naive_overlap_function(n)
            g = build_intersection_graph(f)
            assert exact_chromatic(g, cap=2 ** n) == 2 ** n - 1, n
    report(9, "exact counts: n for levels 2..6; 2^n - 1 naive for 2..4", b)


def test_criterion_10_engine_equivalence_on_100k_rows():
    with Budget(120.0) as b:
        rng = random.Random(1001)
        levels = 8
        clique = build_tree_schema(levels)
        lo, hi = 2 ** (levels - 1), 2 ** levels - 1
        n = 100_000
        accs = [rng.randint(lo, hi) for _ in range(n)]
        measures = [rng.randint(0, 99) for _ in range(n)]
        fact = FactTable(accs, measures)
        idx = build_index(fact, clique)
        scan = ScanOracle(fact, clique)
        first = random_expr(rng, clique)
        assert np.array_equal(evaluate(first, idx).to_array(), scan.rid_array(first))
        for _ in range(500):
            q = random_expr(rng, clique)
            assert np.array_equal(evaluate(q, idx).to_array(), scan.rid_array(q))
            assert aggregate_sum(q, idx, fact) == scan.sum_measure(q)
    report(10, "500 queries over 100k rows: row sets and sums match the scan", b)


def test_criterion_11_bench_selectivity_property(tmp_path):
    with Budget(180.0) as b:
        spec = BenchSpec(seed=1101)
        text = bench(spec)
        (tmp_path / "bench.csv").write_text(text)
        rows = list(csv.DictReader(io.StringIO(text)))
        assert len(rows) == 2
        seen = []
        for row, target in zip(rows, (1 / 24, 1 / 204)):
            assert math.isclose(float(row["target_sigma"]), target, rel_tol=1e-6)
            sigma = float(row["achieved_sigma"])
            assert abs(sigma - target) <= 0.5 * target
            assert int(row["ids_touched"]) <= 2 * sigma * spec.rows + 1024
            assert int(row["result_rows"]) == round(sigma * spec.rows)
            seen.append(sigma)
    report(11, f"bench sigmas {seen[0]:.5f}, {seen[1]:.5f}; ids touched within 2*sigma*N + 1024", b)


def test_criterion_12_user_dag_pipeline(tmp_path, capsys):
    with Budget(120.0) as b:
        rng = random.Random(1201)
        names = [f"term{i:03d}" for i in range(150)]
        order = names[:]
        rng.shuffle(order)
        edges = []
        for i, u in enumerate(order):
            for v in order[i + 1:]:
                if rng.random() < 0.02:
                    edges.append((u, v))
        tsv = tmp_path / "user.tsv"
        tsv.write_text(
            "".join(f"{u}\t{v}\n" for u, v in edges)
            + "".join(f"{u}\t\n" for u in names),
            encoding="utf-8",
        )
        out = tmp_path / "user.csv"
        assert main(["materialize", "--edges", str(tsv), "--out", str(out)]) == 0
        err = capsys.readouterr().err
        assert "k=" in err and "verified" in err
        table = import_table(out)
        g = build_digraph(edges, isolated=names)
        f_desc = {u: g.descendants_and_self(u) for u in names}
        f = SetValuedFunction.from_images(f_desc)
        bound = clique_lower_bound(f)
        assert table.k >= bound
        assert len(table) == 150
    report(12, f"150-node DAG pipeline: verified table, k={table.k} >= bound {bound}", b)


def layered_dag_edges(n, seed, window=200):
    """Node i gets 1-3 parents among the `window` nodes before it."""
    rng = random.Random(seed)
    edges = []
    for i in range(1, n):
        for p in sorted(rng.sample(range(max(0, i - window), i), min(i, rng.randint(1, 3)))):
            edges.append((f"n{p}", f"n{i}"))
    return edges


def test_scale_guard_2000_node_dag_builds_and_colors():
    with Budget(30.0) as b:
        f = descendant_set_function(build_digraph(layered_dag_edges(2000, seed=2000)))
        g = build_intersection_graph(f)
        c = greedy_color(g, "smallest-last")
    colors = np.array([c.assignment[e] for e in g.order])
    rows = np.repeat(np.arange(len(g.order)), np.diff(g.indptr))
    assert not (colors[rows] == colors[g.indices]).any()
    assert c.k >= clique_lower_bound(f)
    print(f"PASS scale guard ({b.elapsed:.2f}s): 2000-node DAG, "
          f"{g.edge_count()} edges, k={c.k}")
