"""The benchmark's four workloads: seeded generators, set-up, ops, references.

Each workload generates its own inputs from the seed (so editing
``cliqueindex.corpus`` cannot change a workload), builds the query-ready
structures through the public API with one span per call, and offers a
pool of ops.  Every op carries the answer of a reference that shares no
code with the path under test:

* tree atoms: leaf-id arithmetic on the generated accs;
* DAG atoms: the benchmark's own closure of its generated edge list;
* intervals: ``oracle_interval_intersections``;
* tree overlap: ``oracle_tree_overlap``.

Op pools are stratified (fixed templates, seeded atoms) so that the cost
mix, and with it the latency percentiles, is the same for every seed.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from cliqueindex import (
    And,
    Atom,
    FactTable,
    IntervalRecord,
    Not,
    Or,
    aggregate_sum,
    build_digraph,
    build_endpoint_schema,
    build_index,
    build_intersection_graph,
    build_tree_schema,
    clique_lower_bound,
    descendant_set_function,
    evaluate,
    evaluate_with_stats,
    greedy_color,
    interval_query,
    materialize,
    overlap_query,
    read_edge_list,
    stabbing_query,
    tree_fact_query,
    verify_schema,
)
from cliqueindex.oracle import (
    ORACLE_PAIRWISE_CAP,
    ORACLE_TREE_CAP,
    oracle_interval_intersections,
    oracle_tree_overlap,
)


@dataclass
class Op:
    """One query: ``run(tracer)`` returns the answer, compared with ``expected``,
    which ``ref()`` computes without the path under test."""

    kind: str
    run: Callable
    ref: Callable
    expr: object = None  # predicate, when the op evaluates one on a PostingIndex

    def __post_init__(self):
        self.expected = self.ref()


def same(result, expected) -> bool:
    if isinstance(expected, np.ndarray):
        return isinstance(result, np.ndarray) and np.array_equal(result, expected)
    return type(result) is type(expected) and result == expected


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def _ref_mask(expr, atom_mask):
    """Boolean row mask of a predicate, built from per-atom masks."""
    if isinstance(expr, Atom):
        return atom_mask(expr)
    if isinstance(expr, Not):
        return ~_ref_mask(expr.item, atom_mask)
    # Folded in place, so a wide OR holds two row masks, not one per atom.
    fold = np.logical_and if isinstance(expr, And) else np.logical_or
    mask = _ref_mask(expr.items[0], atom_mask)
    for item in expr.items[1:]:
        fold(mask, _ref_mask(item, atom_mask), out=mask)
    return mask


def _any_of(atoms):
    return Or(tuple(atoms)) if len(atoms) > 1 else atoms[0]


def _bit_length(ids: np.ndarray, levels: int) -> np.ndarray:
    return np.searchsorted(1 << np.arange(levels, dtype=np.int64), ids, side="right")


def _check_tree_table(clique, levels: int) -> list[str]:
    """Every cell of the tree table against k >> (L(k) - q), or k below L(k)."""
    ids = np.arange(1, 1 << levels, dtype=np.int64)
    if list(clique.rows) != ids.tolist() or clique.k != levels:
        return [f"tree table rows/width differ from 1..{len(ids)} x {levels}"]
    lvl = _bit_length(ids, levels)
    q = np.arange(1, levels + 1)
    shift = np.maximum(lvl[:, None] - q[None, :], 0)
    expected = np.where(q[None, :] <= lvl[:, None], ids[:, None] >> shift, ids[:, None])
    got = np.array(list(clique.rows.values()), dtype=np.int64)
    bad = int((got != expected).sum())
    return [f"tree table has {bad} wrong cells"] if bad else []


def _engine_counts(ops, idx) -> dict:
    touched = ids = rows = 0
    for op in ops:
        if op.expr is not None:
            result, stats = evaluate_with_stats(op.expr, idx)
            touched += stats.postings_touched
            ids += stats.ids_touched
            rows += result.cardinality()
    return {
        "engine.postings": len(idx.postings),
        "engine.posting_bytes": idx.byte_size(),
        "engine.postings_touched": touched,
        "engine.ids_touched": ids,
        "engine.result_rows": rows,
        "engine.ids_touched_per_result": ids / rows if rows else 0.0,
    }


def _fact_ops(templates, idx, fact, atom_mask, measures):
    """Rid ops (evaluate + to_array) and sum ops (aggregate_sum) with answers
    from the reference mask."""
    ops = []
    for kind, expr in templates:
        if kind == "rids":
            def run(tr, expr=expr):
                bits = tr.call("engine.evaluate", evaluate, expr, idx)
                return tr.call("bitset.to_array", bits.to_array)

            def ref(expr=expr):
                return np.flatnonzero(_ref_mask(expr, atom_mask))
        else:
            def run(tr, expr=expr):
                return tr.call("engine.aggregate_sum", aggregate_sum, expr, idx, fact)

            def ref(expr=expr):
                return int(measures[_ref_mask(expr, atom_mask)].sum())
        ops.append(Op(kind, run, ref, expr))
    return ops


def _check_fact(fact, acc_values, measures) -> list[str]:
    if list(fact.accs) != acc_values or list(fact.measures) != measures.tolist():
        return ["FactTable.from_csv rows differ from the generated rows"]
    return []


def _fact_csv(acc_text: list[str], measures: np.ndarray) -> str:
    lines = [f"{rid},{a},{m}\n" for rid, (a, m) in enumerate(zip(acc_text, measures.tolist()))]
    return "rid,acc,m\n" + "".join(lines)


class TreeFacts:
    """Fact rows on uniform random leaves of a 12-level tree table."""

    name = "tree_facts"
    scan_metric = "engine.index_vs_scan"
    levels = 12

    def __init__(self, seed: int, scale: float):
        self.seed = seed
        rng = _rng(seed, 0)
        rows = max(2000, int(500_000 * scale))
        half = 1 << (self.levels - 1)
        self.accs = rng.integers(half, 2 * half, size=rows)
        self.measures = rng.integers(0, 1000, size=rows)
        self.csv = _fact_csv([str(a) for a in self.accs.tolist()], self.measures)
        self.sizes = {"rows": rows, "levels": self.levels}

    def setup(self, tr) -> dict:
        clique = tr.call("tree.build_tree_schema", build_tree_schema, self.levels)
        fact = tr.call("engine.FactTable.from_csv", FactTable.from_csv, self.csv, int)
        idx = tr.call("engine.build_index", build_index, fact, clique)
        tr.call("engine.FactTable.measure_data", fact.measure_data)
        return {"clique": clique, "fact": fact, "idx": idx}

    def check_setup(self, st) -> list[str]:
        problems = _check_tree_table(st["clique"], self.levels)
        problems += _check_fact(st["fact"], self.accs.tolist(), self.measures)
        if st["idx"].unresolved:
            problems.append(f"{st['idx'].unresolved} fact rows unresolved")
        return problems

    def width(self, st) -> int:
        return st["clique"].k

    def _level_nodes(self, rng, q: int, m: int) -> list[int]:
        lo = 1 << (q - 1)
        return sorted(int(p) for p in rng.choice(np.arange(lo, 2 * lo), size=m, replace=False))

    def ops(self, st) -> list[Op]:
        rng = _rng(self.seed, 1)
        n = self.levels
        templates = []
        # Single-column ORs of 1, 4, 16 or 64 disjoint atoms at sigma = 2^-j.
        for j in range(1, n):
            for d in (0, 2, 4, 6):
                q = j + 1 + d
                if q <= n:
                    expr = _any_of([Atom(q, p) for p in self._level_nodes(rng, q, 1 << d)])
                    templates += [("rids", expr), ("sum", expr)]
        # AND/NOT mixes of a subtree with one of its own subtrees.
        for i in range(16):
            q1 = int(rng.integers(2, 9))
            q2 = min(n, q1 + int(rng.integers(1, 5)))
            p = self._level_nodes(rng, q1, 1)[0]
            c = (p << (q2 - q1)) + int(rng.integers(0, 1 << (q2 - q1)))
            shapes = (
                ("rids", And((Atom(q1, p), Not(Atom(q2, c))))),
                ("sum", And((Atom(q1, p), Atom(q2, c)))),
                ("sum", Not(Or((Atom(q1, p), Atom(q2, c))))),
            )
            templates.append(shapes[i % 3])
        accs, measures = self.accs, self.measures

        def atom_mask(a):
            return (accs >> (n - a.col)) == a.entry

        ops = _fact_ops(templates, st["idx"], st["fact"], atom_mask, measures)
        for q in range(1, n + 1):
            k = self._level_nodes(rng, q, 1)[0]

            def run(tr, k=k, idx=st["idx"]):
                bits = tr.call("tree.tree_fact_query", tree_fact_query, k, idx)
                return tr.call("bitset.to_array", bits.to_array)

            def ref(k=k, q=q):
                return np.flatnonzero((accs >> (n - q)) == k)
            # tree_fact_query(k) is the OR over k's ancestor path in column L(k)
            path = [Atom(q, k >> s) for s in range(q)]
            ops.append(Op("tree_fact_query", run, ref, _any_of(path)))
        return ops

    def counts(self, st, ops) -> dict:
        clique = st["clique"]
        out = _engine_counts(ops, st["idx"])
        out["schema.cells"] = len(clique) * clique.k
        out["schema.null_cells"] = clique.null_count()
        return out


class DagReach:
    """Fact rows on a random DAG's nodes, queried by "rows under node X"."""

    name = "dag_reach"
    scan_metric = "engine.index_vs_scan"

    def __init__(self, seed: int, scale: float):
        self.seed = seed
        rng = _rng(seed, 0)
        n = max(60, int(1000 * scale))
        facts = max(2000, int(100_000 * scale))
        if n > ORACLE_PAIRWISE_CAP:
            raise ValueError(f"{n} DAG nodes exceed the pairwise oracle cap {ORACLE_PAIRWISE_CAP}")
        children: list[list[int]] = [[] for _ in range(n)]
        lines = []
        for i in range(1, n):
            lo = max(0, i - 200)
            count = min(i - lo, int(rng.integers(1, 4)))
            for p in sorted(rng.choice(np.arange(lo, i), size=count, replace=False).tolist()):
                children[p].append(i)
                lines.append(f"n{p}\tn{i}\n")
        self.tsv = "".join(lines)
        # Own closure: nodes are generated in topological order (parents first).
        desc = np.zeros((n, n), dtype=bool)
        for i in range(n - 1, -1, -1):
            desc[i, i] = True
            for c in children[i]:
                desc[i] |= desc[c]
        self.desc = desc
        weights = 1.0 / np.arange(1, n + 1)
        ranks = rng.permutation(n)
        self.acc_node = ranks[rng.choice(n, size=facts, p=weights / weights.sum())]
        self.measures = rng.integers(0, 1000, size=facts)
        self.acc_names = [f"n{a}" for a in self.acc_node.tolist()]
        self.csv = _fact_csv(self.acc_names, self.measures)
        self.sizes = {"nodes": n, "edges": len(lines), "rows": facts}

    def setup(self, tr) -> dict:
        edges, isolated = tr.call("digraph.read_edge_list", read_edge_list, self.tsv)
        g = tr.call("digraph.build_digraph", build_digraph, edges, isolated)
        f = tr.call("digraph.descendant_set_function", descendant_set_function, g)
        graph = tr.call("intersection.build_intersection_graph", build_intersection_graph, f)
        coloring = tr.call("intersection.greedy_color", greedy_color, graph)
        table = tr.call("schema.materialize", materialize, f, coloring)
        verdict = tr.call("schema.verify_schema", verify_schema, f, table, coloring)
        fact = tr.call("engine.FactTable.from_csv", FactTable.from_csv, self.csv)
        idx = tr.call("engine.build_index", build_index, fact, table)
        tr.call("engine.FactTable.measure_data", fact.measure_data)
        return {"f": f, "graph": graph, "coloring": coloring, "clique": table,
                "verdict": verdict, "fact": fact, "idx": idx}

    def check_setup(self, st) -> list[str]:
        problems = []
        f, coloring, desc = st["f"], st["coloring"], self.desc
        if not st["verdict"]:
            problems.append(f"verify_schema failed at entry {st['verdict'].entry!r}")
        lb = clique_lower_bound(f)
        if not lb <= st["clique"].k == coloring.k:
            problems.append(f"width {st['clique'].k} vs coloring {coloring.k}, lower bound {lb}")
        for i in range(len(desc)):
            if f.image[f"n{i}"] != {f"n{j}" for j in np.flatnonzero(desc[i])}:
                problems.append(f"closure of n{i} differs from the reference closure")
                break
        colors = np.array([coloring.assignment[f"n{i}"] for i in range(len(desc))])
        for c in np.unique(colors):
            if desc[colors == c].sum(axis=0).max() > 1:
                problems.append(f"color {c} holds two entries with overlapping closures")
                break
        problems += _check_fact(st["fact"], self.acc_names, self.measures)
        return problems

    def width(self, st) -> int:
        return st["clique"].k

    def ops(self, st) -> list[Op]:
        rng = _rng(self.seed, 1)
        desc, n = self.desc, len(self.desc)
        col = st["coloring"].assignment

        def atom(i):
            return Atom(col[f"n{i}"], f"n{i}")

        # Nodes are picked by the fact rows under them: for each of 160
        # log-spaced targets from 8 rows to all rows, a node nearest to it
        # (seeded among near ties).  Every seed's pool then has the same mix
        # of answer sizes, whatever the shape of its DAG.
        rows_under = desc.astype(np.int64) @ np.bincount(self.acc_node, minlength=n)
        log_rows = np.log(np.maximum(rows_under, 1))

        def nearest(candidates, target):
            gap = np.abs(log_rows[candidates] - np.log(target))
            return int(rng.choice(candidates[gap <= gap.min() + 0.05]))

        targets = np.geomspace(8, len(self.acc_node), min(160, n))
        picks = [nearest(np.arange(n), t) for t in targets]
        chosen = itertools.cycle(rng.permutation(picks).tolist())

        def node():
            return next(chosen)

        def below(i):
            """A node under i with about a quarter of i's rows."""
            under = np.flatnonzero(desc[i])
            if len(under) > 1:
                under = under[under != i]
            return nearest(under, max(1, rows_under[i] / 4))

        templates = []
        for _ in range(32):
            a = atom(node())
            templates += [("rids", a), ("sum", a)]
        for _ in range(16):
            x = node()
            y = below(x)
            templates += [
                ("rids", Or((atom(node()), atom(node())))),
                ("sum", Or((atom(node()), atom(node()), atom(node())))),
                ("rids", And((atom(x), atom(y)))),
                ("rids", And((atom(x), Not(atom(y))))),
                ("sum", Not(atom(node()))),
                ("rids", And((Or((atom(x), atom(node()))), Not(atom(y))))),
            ]
        acc_node = self.acc_node

        def atom_mask(a):
            return desc[int(a.entry[1:])][acc_node]

        return _fact_ops(templates, st["idx"], st["fact"], atom_mask, self.measures)

    def counts(self, st, ops) -> dict:
        f, clique = st["f"], st["clique"]
        lb = clique_lower_bound(f)
        out = _engine_counts(ops, st["idx"])
        out.update({
            "digraph.closure_members": sum(len(f.image[e]) for e in f.entries),
            "intersection.graph_edges": st["graph"].edge_count(),
            "intersection.clique_lower_bound": lb,
            "intersection.width_over_bound": clique.k / lb,
            "schema.cells": len(clique) * clique.k,
            "schema.null_cells": clique.null_count(),
        })
        return out


class IntervalStab:
    """Closed intervals at constant density; stabbing and range queries."""

    name = "interval_stab"
    scan_metric = "endpoints.index_vs_scan"
    verify_sample = 32  # entries checked by the sampled form of verify_schema

    def __init__(self, seed: int, scale: float):
        self.seed = seed
        rng = _rng(seed, 0)
        count = max(500, int(32_768 * scale))
        self.span = float(count)
        xs = rng.uniform(0.0, self.span, size=count)
        lengths = np.where(rng.random(count) < 0.05, 0.0, 2.0 ** rng.uniform(-3, 8, size=count))
        self.records = [
            IntervalRecord(i, x, x + length)
            for i, (x, length) in enumerate(zip(xs.tolist(), lengths.tolist()))
        ]
        self.lo = np.array([r.x for r in self.records])
        self.hi = np.array([r.y for r in self.records])
        self.sizes = {"intervals": count, "span": count}

    def setup(self, tr) -> dict:
        s = tr.call("endpoints.build_endpoint_schema", build_endpoint_schema, self.records)
        return {"schema": s}

    def check_setup(self, st) -> list[str]:
        s = st["schema"]
        problems = []
        if s.escalations:
            problems.append(f"cyclic coloring escalated {s.escalations} times")
        lb = clique_lower_bound(s.function)
        if not lb <= s.clique.k:
            problems.append(f"width {s.clique.k} below the clique lower bound {lb}")
        # verify_schema reads every row once per entry (2 x 10^9 cells here),
        # so the table is verified on seeded entries against their own
        # straddling intervals: x <= e < y.
        entries = np.unique(np.concatenate([self.lo, self.hi]))
        if list(s.entries) != entries.tolist():
            problems.append("endpoint entries differ from the generated endpoints")
            return problems
        rng = _rng(self.seed, 3)
        for e in rng.choice(entries, size=min(self.verify_sample, len(entries)), replace=False).tolist():
            straddling = set(np.flatnonzero((self.lo <= e) & (e < self.hi)).tolist())
            preimage = s.clique.column_preimage(s.coloring.assignment[e], e)
            if s.function.image[e] != straddling or preimage != straddling:
                problems.append(f"entry {e!r}: F(e) or its column preimage is not its straddling set")
                break
        return problems

    def width(self, st) -> int:
        return st["schema"].clique.k

    def ops(self, st) -> list[Op]:
        rng = _rng(self.seed, 1)
        s, records = st["schema"], self.records
        ops = []
        for _ in range(100):
            p = float(rng.uniform(0.0, self.span))
            ops.append(Op("stab", lambda tr, p=p: tr.call(
                "endpoints.stabbing_query", stabbing_query, s, p),
                lambda p=p: oracle_interval_intersections(records, p, p)))
            a = float(rng.uniform(0.0, self.span))
            b = a + float(2.0 ** rng.uniform(-3, 6))
            ops.append(Op("range", lambda tr, a=a, b=b: tr.call(
                "endpoints.interval_query", interval_query, s, a, b),
                lambda a=a, b=b: oracle_interval_intersections(records, a, b)))
        return ops

    def counts(self, st, ops) -> dict:
        s = st["schema"]
        lb = clique_lower_bound(s.function)
        return {
            "endpoints.answer_ids": sum(len(op.expected) for op in ops),
            "intersection.clique_lower_bound": lb,
            "intersection.width_over_bound": s.clique.k / lb,
            "schema.cells": len(s.clique) * s.clique.k,
            "schema.null_cells": s.clique.null_count(),
        }


class TreeOverlap:
    """Overlap queries on the largest tree table the oracle accepts."""

    name = "tree_overlap"
    scan_metric = "tree.index_vs_scan"

    levels = 16

    def __init__(self, seed: int, scale: float):
        # The table is fixed, so scale does not apply; the seed picks 8 query
        # ids on every level.
        if self.levels > ORACLE_TREE_CAP:
            raise ValueError(f"{self.levels} tree levels exceed the oracle cap {ORACLE_TREE_CAP}")
        rng = _rng(seed, 1)
        self.queries = [k for q in range(1, self.levels + 1)
                        for k in rng.integers(1 << (q - 1), 1 << q, size=8).tolist()]
        self.sizes = {"levels": self.levels, "rows": (1 << self.levels) - 1}

    def setup(self, tr) -> dict:
        return {"clique": tr.call("tree.build_tree_schema", build_tree_schema, self.levels)}

    def check_setup(self, st) -> list[str]:
        return _check_tree_table(st["clique"], self.levels)

    def width(self, st) -> int:
        return st["clique"].k

    def ops(self, st) -> list[Op]:
        clique, n = st["clique"], self.levels
        return [Op("overlap", lambda tr, k=k: tr.call("tree.overlap_query", overlap_query, k, clique),
                   lambda k=k: oracle_tree_overlap(k, n))
                for k in self.queries]

    def counts(self, st, ops) -> dict:
        clique = st["clique"]
        return {
            "tree.answer_ids": sum(len(op.expected) for op in ops),
            "schema.cells": len(clique) * clique.k,
            "schema.null_cells": clique.null_count(),
        }


WORKLOADS = {w.name: w for w in (TreeFacts, DagReach, IntervalStab, TreeOverlap)}
