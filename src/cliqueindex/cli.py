"""Command-line front door.

Machine output (CSV or JSON) goes to stdout or --out; prose goes to
stderr.  Exit codes: 0 success, 1 domain error (cycle, malformed input,
bad usage), 2 verification failure (an oracle comparison found a
mismatch, the strongest failure class).
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import random
import sys
from contextlib import contextmanager

from . import corpus
from .digraph import (
    ancestor_set_function,
    build_digraph,
    descendant_set_function,
    down_chromatic_bounds,
    exact_down_chromatic,
    greedy_down_coloring,
    hypergraph_degeneracy,
    down_hypergraph,
    max_down_set_size,
    read_edge_list,
)
from .endpoints import (
    IntervalRecord,
    bucketed_interval_query,
    bucketed_schema,
    build_endpoint_schema,
    interval_query,
    interval_query_branches,
)
from .engine import (
    And,
    BenchSpec,
    FactTable,
    Not,
    Or,
    ScanOracle,
    aggregate_sum,
    bench,
    build_index,
    evaluate,
    format_query,
    parse_query,
)
from .errors import CliqueIndexError
from .intersection import (
    GREEDY_ORDERS,
    EntryColoring,
    SetValuedFunction,
    build_intersection_graph,
    clique_lower_bound,
    greedy_color,
)
from .oracle import (
    oracle_degeneracy,
    oracle_interval_intersections,
    oracle_intersection_graph,
    oracle_tree_overlap,
)
from .schema import (
    NULL,
    CliqueTable,
    compact_colors,
    export_table,
    import_table,
    materialize,
    read_sidecar,
    recover_coloring,
    verify_schema,
    write_sidecar,
)
from .tree import (
    DEFAULT_TREE_CAP,
    build_tree_schema,
    iter_tree_rows,
    overlap_query,
    tree_fact_query,
    verify_tree_schema,
)

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_VERIFY = 2


def _env_cap(name: str, default: int) -> int:
    try:
        return int(os.environ.get(name, default))
    except ValueError:
        return default


class _Parser(argparse.ArgumentParser):
    """argparse variant whose usage failures exit with the domain code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_DOMAIN, f"error: {message}\n")


@contextmanager
def _out_stream(path):
    if path:
        fh = open(path, "w", encoding="utf-8", newline="")
        try:
            yield fh
        finally:
            fh.close()
    else:
        yield sys.stdout


def _note(text: str) -> None:
    print(text, file=sys.stderr)


def _emit_json(payload, path) -> None:
    with _out_stream(path) as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


# -- ingestion helpers ---------------------------------------------------------


def _load_digraph(path: str):
    with open(path, encoding="utf-8") as fh:
        edges, isolated = read_edge_list(fh)
    return build_digraph(edges, isolated=isolated)


def _load_intervals(path: str) -> list[IntervalRecord]:
    with open(path, encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        fields = reader.fieldnames or []
        for required in ("id", "x", "y"):
            if required not in fields:
                raise CliqueIndexError(f"interval CSV is missing column {required!r}")
        return [
            IntervalRecord(rec["id"], float(rec["x"]), float(rec["y"]))
            for rec in reader
        ]


def _load_function(path: str) -> SetValuedFunction:
    """Set-valued function CSV: header entry,node then one membership per line."""
    with open(path, encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        fields = reader.fieldnames or []
        for required in ("entry", "node"):
            if required not in fields:
                raise CliqueIndexError(f"function CSV is missing column {required!r}")
        return SetValuedFunction.from_pairs(
            (rec["entry"], rec["node"]) for rec in reader
        )


def _load_fact(path: str, acc_cast=None) -> FactTable:
    with open(path, encoding="utf-8") as fh:
        return FactTable.from_csv(fh, acc_cast=acc_cast)


def _function_for_dag(g, map_kind: str) -> SetValuedFunction:
    return descendant_set_function(g) if map_kind == "descendants" else ancestor_set_function(g)


# -- build ----------------------------------------------------------------------


def cmd_build_dag(args) -> int:
    g = _load_digraph(args.edges)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            for u in g.nodes:
                fh.write(f"{u}\t\n")
            for s, t in g.edges:
                fh.write(f"{s}\t{t}\n")
        _note(f"wrote normalized edge list to {args.out}")
    payload = {"nodes": len(g.nodes), "edges": len(g.edges)}
    if g.nodes:
        payload["max_down_set"] = max_down_set_size(g)
    _emit_json(payload, None)
    return EXIT_OK


def cmd_build_intervals(args) -> int:
    records = _load_intervals(args.data)
    s = build_endpoint_schema(records)
    with _out_stream(args.out) as fh:
        export_table(s.clique, fh)
    sidecar = args.sidecar or (args.out + ".sidecar.json" if args.out else None)
    if sidecar:
        write_sidecar(
            sidecar,
            s.coloring,
            {
                "source": args.data,
                "kind": "interval-endpoints",
                "window": s.window,
                "escalations": s.escalations,
            },
        )
    _note(
        f"{len(records)} intervals, {len(s.entries)} entries, k={s.coloring.k}, "
        f"window={s.window}, escalations={s.escalations}"
    )
    return EXIT_OK


def cmd_build_tree(args) -> int:
    cap = _env_cap("CLIQUEINDEX_TREE_CAP", DEFAULT_TREE_CAP)
    n = args.levels
    if n > cap:
        raise CliqueIndexError(f"level count {n} exceeds the cap {cap} (env CLIQUEINDEX_TREE_CAP)")
    with _out_stream(args.out) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["node"] + [f"c{i}" for i in range(1, n + 1)])
        buffer = []
        rows = 0
        for k, cells in iter_tree_rows(n, args.variant):
            buffer.append([k] + ["" if c is NULL else c for c in cells])
            if len(buffer) >= 16384:
                writer.writerows(buffer)
                rows += len(buffer)
                buffer = []
        writer.writerows(buffer)
        rows += len(buffer)
    _note(f"wrote {rows} rows x {n} columns ({args.variant} variant)")
    return EXIT_OK


# -- coloring and materialization -------------------------------------------------


def cmd_color(args) -> int:
    if bool(args.edges) == bool(args.function):
        raise CliqueIndexError("pass exactly one of --edges or --function")
    if args.edges:
        g = _load_digraph(args.edges)
        if args.map == "ancestors":
            # entries are ancestor sets; their proper colorings are exactly
            # the colorings where nodes under a common ancestor all differ
            coloring_obj = greedy_down_coloring(g, args.order)
            coloring = EntryColoring(coloring_obj.assignment, coloring_obj.k)
            bounds = down_chromatic_bounds(
                g, degeneracy_cap=_env_cap("CLIQUEINDEX_DEGENERACY_CAP", 16)
            )
            provenance = {
                "source": args.edges,
                "kind": "digraph-down-coloring",
                "map": args.map,
                "order": args.order,
                "bounds": {
                    "lower": bounds.lower,
                    "upper": bounds.upper,
                    "degeneracy": bounds.degeneracy,
                    "degeneracy_exact": bounds.degeneracy_exact,
                    "part": bounds.part,
                },
                "within_bound": coloring.k <= bounds.upper,
            }
            _note(
                f"down-coloring with k={coloring.k}, bounds [{bounds.lower}, {bounds.upper}]"
                + ("" if bounds.degeneracy_exact else " (degeneracy estimated)")
            )
        else:
            f = _function_for_dag(g, args.map)
            graph = build_intersection_graph(f)
            coloring = greedy_color(graph, args.order)
            provenance = {
                "source": args.edges,
                "kind": "digraph-map-coloring",
                "map": args.map,
                "order": args.order,
                "clique_lower_bound": clique_lower_bound(f),
            }
            _note(f"colored {len(f)} {args.map} sets with k={coloring.k}")
    else:
        f = _load_function(args.function)
        graph = build_intersection_graph(f)
        coloring = greedy_color(graph, args.order)
        provenance = {
            "source": args.function,
            "kind": "set-valued-function",
            "order": args.order,
            "clique_lower_bound": clique_lower_bound(f),
        }
        _note(f"colored {len(f)} entries with k={coloring.k}")
    if args.out:
        write_sidecar(args.out, coloring, provenance)
    else:
        payload = {
            "k": coloring.k,
            "coloring": {str(e): c for e, c in coloring.assignment.items()},
            "provenance": provenance,
        }
        _emit_json(payload, None)
    return EXIT_OK


def cmd_materialize(args) -> int:
    if bool(args.edges) == bool(args.function):
        raise CliqueIndexError("pass exactly one of --edges or --function")
    if args.edges:
        g = _load_digraph(args.edges)
        f = _function_for_dag(g, args.map)
        source = args.edges
    else:
        f = _load_function(args.function)
        source = args.function
    if args.coloring:
        coloring, meta = read_sidecar(args.coloring)
        sidecar_map = meta.get("map")
        if args.edges and sidecar_map and sidecar_map != args.map:
            raise CliqueIndexError(
                f"coloring sidecar was built for --map {sidecar_map}, "
                f"but --map {args.map} was requested"
            )
        missing = [e for e in f.entries if e not in coloring.assignment]
        if missing:
            raise CliqueIndexError(
                f"coloring sidecar is missing {len(missing)} entries (first: {missing[0]!r})"
            )
    else:
        coloring = greedy_color(build_intersection_graph(f), args.order)
    table = materialize(f, coloring)
    if args.compact_colors:
        table, remap = compact_colors(table)
        coloring = EntryColoring(
            {e: remap[c] for e, c in coloring.assignment.items() if c in remap},
            table.k,
        )
    verdict = verify_schema(f, table, coloring)
    if not verdict:
        _note(f"verification FAILED at entry {verdict.entry!r}")
        return EXIT_VERIFY
    with _out_stream(args.out) as fh:
        export_table(table, fh)
    sidecar = args.sidecar or (args.out + ".sidecar.json" if args.out else None)
    if sidecar:
        provenance = {"source": source, "order": args.order, "verified": True,
                      "clique_lower_bound": clique_lower_bound(f)}
        if args.edges:
            provenance["map"] = args.map
        write_sidecar(sidecar, coloring, provenance)
    _note(
        f"materialized {len(table)} rows x {table.k} columns, verified, "
        f"k={table.k} >= lower bound {clique_lower_bound(f)}"
    )
    return EXIT_OK


# -- query engine ------------------------------------------------------------------


def cmd_index(args) -> int:
    fact = _load_fact(args.fact)
    clique = import_table(args.clique)
    idx = build_index(fact, clique)
    payload = {
        "rows": fact.n,
        "columns": idx.k,
        "postings": len(idx.postings),
        "unresolved": idx.unresolved,
        "bytes": idx.byte_size(),
    }
    _emit_json(payload, args.out)
    return EXIT_OK


def cmd_query(args) -> int:
    fact = _load_fact(args.fact)
    clique = import_table(args.clique)
    expr = parse_query(args.expr)
    idx = build_index(fact, clique)
    result = evaluate(expr, idx)
    if args.check:
        scanned = ScanOracle(fact, clique).rids(expr)
        if scanned != set(result.to_ids()):
            _note("MISMATCH: posting evaluation disagrees with the full scan")
            return EXIT_VERIFY
        _note("scan check passed")
    if args.sum:
        ids = result.to_array()
        payload = {
            "expr": format_query(expr),
            "rows": len(ids),
            "sum": fact.measure_sum(ids),
            "selectivity": len(ids) / fact.n if fact.n else None,
        }
        _emit_json(payload, args.out)
    else:
        with _out_stream(args.out) as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["rid"])
            writer.writerows([rid] for rid in result)
    return EXIT_OK


def cmd_query_intervals(args) -> int:
    records = _load_intervals(args.data)
    a, b = args.a, args.b
    if args.bucketed:
        schemas = bucketed_schema(records)
        ids = bucketed_interval_query(schemas, a, b)
    else:
        s = build_endpoint_schema(records)
        ids = interval_query(s, a, b)
    with _out_stream(args.out) as fh:
        for i in sorted(ids, key=str):
            fh.write(f"{i}\n")
    return EXIT_OK


def cmd_query_tree(args) -> int:
    cap = _env_cap("CLIQUEINDEX_TREE_CAP", DEFAULT_TREE_CAP)
    if args.levels > cap:
        raise CliqueIndexError(f"level count {args.levels} exceeds the cap {cap}")
    schema = build_tree_schema(args.levels, cap=cap, variant=args.variant)
    if args.fact:
        # schema nodes are ints, so acc values must be cast to match
        fact = _load_fact(args.fact, acc_cast=int)
        idx = build_index(fact, schema)
        rids = tree_fact_query(args.k, idx)
        with _out_stream(args.out) as fh:
            for rid in rids:
                fh.write(f"{rid}\n")
    else:
        ids = overlap_query(args.k, schema)
        with _out_stream(args.out) as fh:
            for i in sorted(ids):
                fh.write(f"{i}\n")
    return EXIT_OK


# -- verify -------------------------------------------------------------------------

def _section(name: str):
    return {"section": name, "comparisons": 0, "mismatches": 0, "first_failure": None}


def _record(section, ok: bool, detail: str) -> None:
    section["comparisons"] += 1
    if not ok:
        section["mismatches"] += 1
        if section["first_failure"] is None:
            section["first_failure"] = detail


def _verify_intersection(rng: random.Random, scale: float):
    out = _section("intersection-graph-vs-all-pairs")
    for i in range(max(1, int(120 * scale))):
        f = corpus.random_function(rng, max_entries=20, max_nodes=25)
        fast = build_intersection_graph(f)
        slow = oracle_intersection_graph(f)
        _record(out, fast.adj == slow.adj, f"function #{i}")
    return out


def _verify_degeneracy(rng: random.Random, scale: float):
    out = _section("hypergraph-degeneracy-vs-subset-enumeration")
    for i in range(max(1, int(60 * scale))):
        g = corpus.random_dag(rng, max_nodes=10)
        h = down_hypergraph(g)
        exact = hypergraph_degeneracy(h, "exact")
        _record(out, exact == oracle_degeneracy(h), f"dag #{i} exact")
        _record(out, hypergraph_degeneracy(h, "peel") <= exact, f"dag #{i} peel")
    return out


def _verify_bounds(rng: random.Random, scale: float):
    out = _section("chromatic-bounds-and-greedy")
    for i in range(max(1, int(60 * scale))):
        g = corpus.random_dag(rng, max_nodes=10)
        bounds = down_chromatic_bounds(g)
        chi = exact_down_chromatic(g)
        coloring = greedy_down_coloring(g)
        _record(out, bounds.lower <= chi <= bounds.upper, f"dag #{i} exact in bounds")
        _record(out, coloring.is_valid(g), f"dag #{i} greedy validity")
        _record(out, coloring.k <= bounds.upper, f"dag #{i} greedy under bound")
    return out


def _verify_schema_duality(rng: random.Random, scale: float):
    out = _section("schema-materialize-verify-roundtrip")
    for i in range(max(1, int(40 * scale))):
        f = corpus.random_function(rng, max_entries=15, max_nodes=20)
        graph = build_intersection_graph(f)
        for order in GREEDY_ORDERS:
            coloring = greedy_color(graph, order)
            table = materialize(f, coloring)
            _record(out, bool(verify_schema(f, table, coloring)), f"function #{i} {order}")
            recovered = recover_coloring(table)
            _record(out, recovered.is_proper(graph), f"function #{i} {order} recover")
        nonnull = [
            (u, ci) for u, cells in table.rows.items()
            for ci, v in enumerate(cells) if v is not NULL
        ]
        if nonnull:
            u, ci = nonnull[rng.randrange(len(nonnull))]
            broken = dict(table.rows)
            cells = list(broken[u])
            cells[ci] = NULL
            broken[u] = tuple(cells)
            _record(
                out,
                not verify_schema(f, CliqueTable(table.k, broken), coloring),
                f"function #{i} blanked cell not caught",
            )
    return out


def _verify_intervals(rng: random.Random, scale: float):
    out = _section("interval-queries-vs-scan")
    for i in range(max(1, int(25 * scale))):
        records = corpus.random_intervals(rng, rng.randint(1, 60))
        s = build_endpoint_schema(records)
        schemas = bucketed_schema(records)
        span = 1200
        for _ in range(20):
            a = rng.uniform(-10, span)
            b = a + abs(rng.gauss(0, span / 6))
            want = oracle_interval_intersections(records, a, b)
            first, second = interval_query_branches(s, a, b)
            _record(out, first | second == want, f"corpus #{i} query [{a},{b}]")
            _record(out, not (first & second), f"corpus #{i} branch overlap [{a},{b}]")
            _record(
                out,
                bucketed_interval_query(schemas, a, b) == want,
                f"corpus #{i} bucketed [{a},{b}]",
            )
    return out


def _verify_tree(rng: random.Random, scale: float):
    out = _section("tree-overlap-vs-extent-arithmetic")
    top = 5 if scale < 1 else 7
    for n in range(1, top + 1):
        schema = build_tree_schema(n)
        _record(out, bool(verify_tree_schema(schema, n)), f"n={n} schema verify")
        for k in range(1, (1 << n)):
            _record(
                out,
                overlap_query(k, schema) == oracle_tree_overlap(k, n),
                f"n={n} k={k}",
            )
    return out


def _verify_engine(rng: random.Random, scale: float):
    out = _section("posting-evaluation-vs-full-scan")
    n_levels = 5
    clique = build_tree_schema(n_levels)
    rows = max(64, int(1500 * scale))
    accs = [rng.randint(1, (1 << n_levels) - 1) for _ in range(rows)]
    for j in rng.sample(range(rows), rows // 50 or 1):
        accs[j] = 10 ** 9  # unresolved on purpose
    measures = [rng.randint(0, 1000) for _ in range(rows)]
    fact = FactTable(accs, measures)
    idx = build_index(fact, clique)
    scan = ScanOracle(fact, clique)
    for i in range(max(1, int(90 * scale))):
        expr = corpus.random_expr(rng, clique)
        got = set(evaluate(expr, idx).to_ids())
        want = scan.rids(expr)
        _record(out, got == want, f"expr #{i}: {format_query(expr)}")
        _record(
            out,
            aggregate_sum(expr, idx, fact) == sum(measures[r] for r in want),
            f"expr #{i} sum",
        )
        if isinstance(expr, And) and len(expr.items) == 2:
            lhs = evaluate(Not(expr), idx)
            rhs = evaluate(Or((Not(expr.items[0]), Not(expr.items[1]))), idx)
            _record(out, lhs == rhs, f"expr #{i} De Morgan")
    return out


def cmd_verify(args) -> int:
    rng = random.Random(args.seed)
    scale = 0.25 if args.quick else 1.0
    sections = [
        _verify_intersection(rng, scale),
        _verify_degeneracy(rng, scale),
        _verify_bounds(rng, scale),
        _verify_schema_duality(rng, scale),
        _verify_intervals(rng, scale),
        _verify_tree(rng, scale),
        _verify_engine(rng, scale),
    ]
    total = sum(s["comparisons"] for s in sections)
    bad = sum(s["mismatches"] for s in sections)
    payload = {
        "seed": args.seed,
        "comparisons": total,
        "mismatches": bad,
        "sections": sections,
    }
    _emit_json(payload, args.out)
    _note(f"{total} oracle comparisons, {bad} mismatches")
    return EXIT_OK if bad == 0 else EXIT_VERIFY


# -- bench and export -----------------------------------------------------------------


def _parse_targets(text: str) -> tuple[float, ...]:
    out = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if "/" in part:
            num, den = part.split("/", 1)
            out.append(float(num) / float(den))
        else:
            out.append(float(part))
    return tuple(out)


def cmd_bench(args) -> int:
    spec = BenchSpec(
        seed=args.seed,
        rows=args.rows,
        levels=args.levels,
        targets=_parse_targets(args.targets),
    )
    report = bench(spec)
    with _out_stream(args.out) as fh:
        fh.write(report)
    _note(f"bench complete: {len(spec.targets)} queries over {spec.rows} rows")
    return EXIT_OK


def cmd_export(args) -> int:
    table = import_table(args.table)
    if args.compact_colors:
        table, _ = compact_colors(table)
    with _out_stream(args.out) as fh:
        export_table(table, fh)
    _note(f"{len(table)} rows x {table.k} columns")
    return EXIT_OK


# -- parser wiring -----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="cliqueindex", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="ingest a structure and emit its artifact")
    build_sub = p.add_subparsers(dest="structure", required=True)

    b = build_sub.add_parser("dag", help="validate an edge-list digraph")
    b.add_argument("--edges", required=True, help="tab-separated edge list")
    b.add_argument("--out", help="write a normalized edge list here")
    b.set_defaults(func=cmd_build_dag)

    b = build_sub.add_parser("intervals", help="build the endpoint schema table")
    b.add_argument("--data", required=True, help="CSV with id,x,y")
    b.add_argument("--out", help="clique table CSV destination (default stdout)")
    b.add_argument("--sidecar", help="coloring sidecar JSON destination")
    b.set_defaults(func=cmd_build_intervals)

    b = build_sub.add_parser("tree", help="materialize the interval tree table")
    b.add_argument("--levels", type=int, required=True)
    b.add_argument("--out", help="CSV destination (default stdout)")
    b.add_argument("--variant", choices=("table", "literal"), default="table")
    b.set_defaults(func=cmd_build_tree)

    p = sub.add_parser("color", help="greedy-color a digraph or function")
    p.add_argument("--edges", help="tab-separated edge list")
    p.add_argument("--map", choices=("descendants", "ancestors"), default="descendants",
                   help="which closure each digraph entry maps to (must match materialize)")
    p.add_argument("--function", help="CSV with entry,node memberships")
    p.add_argument("--order", choices=GREEDY_ORDERS, default="smallest-last")
    p.add_argument("--out", help="sidecar JSON destination (default stdout)")
    p.set_defaults(func=cmd_color)

    p = sub.add_parser("materialize", help="build and verify a clique table")
    p.add_argument("--edges", help="tab-separated edge list")
    p.add_argument("--map", choices=("descendants", "ancestors"), default="descendants",
                   help="closure map used as the set-valued function for --edges")
    p.add_argument("--function", help="CSV with entry,node memberships")
    p.add_argument("--coloring", help="sidecar JSON with an existing coloring")
    p.add_argument("--order", choices=GREEDY_ORDERS, default="smallest-last")
    p.add_argument("--compact-colors", action="store_true")
    p.add_argument("--out", help="table CSV destination (default stdout)")
    p.add_argument("--sidecar", help="coloring sidecar JSON destination")
    p.set_defaults(func=cmd_materialize)

    p = sub.add_parser("index", help="build a posting index and report stats")
    p.add_argument("--fact", required=True, help="CSV with rid,acc,m")
    p.add_argument("--clique", required=True, help="clique table CSV")
    p.add_argument("--out")
    p.set_defaults(func=cmd_index)

    p = sub.add_parser("query", help="evaluate a boolean predicate")
    p.add_argument("--fact", required=True)
    p.add_argument("--clique", required=True)
    p.add_argument("--expr", required=True, help="e.g. \"c8='GO:0006810' & !c3='x'\"")
    p.add_argument("--sum", action="store_true", help="emit sum/selectivity JSON instead of rids")
    p.add_argument("--check", action="store_true", help="cross-check against a full scan")
    p.add_argument("--out")
    p.set_defaults(func=cmd_query)

    p = sub.add_parser("query-intervals", help="intervals meeting [a, b]")
    p.add_argument("--data", required=True, help="CSV with id,x,y")
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--b", type=float, required=True)
    p.add_argument("--bucketed", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=cmd_query_intervals)

    p = sub.add_parser("query-tree", help="tree intervals overlapping id k")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--levels", type=int, required=True)
    p.add_argument("--variant", choices=("table", "literal"), default="table")
    p.add_argument("--fact", help="optional fact CSV; returns rids instead of ids")
    p.add_argument("--out")
    p.set_defaults(func=cmd_query_tree)

    p = sub.add_parser("verify", help="run every oracle comparison suite")
    p.add_argument("--all", action="store_true", help="accepted for symmetry; always all")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--quick", action="store_true", help="smaller corpora")
    p.add_argument("--out")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bench", help="index-vs-scan workload report")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--rows", type=int, default=1_500_000)
    p.add_argument("--levels", type=int, default=12)
    p.add_argument("--targets", default="1/24,1/204",
                   help="comma-separated selectivities, fractions allowed")
    p.add_argument("--out")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("export", help="round-trip (and optionally compact) a table CSV")
    p.add_argument("--table", required=True)
    p.add_argument("--compact-colors", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=cmd_export)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliqueIndexError as exc:
        _note(f"error: {exc}")
        return EXIT_DOMAIN
    except BrokenPipeError:
        return EXIT_DOMAIN
    except OSError as exc:
        _note(f"error: {exc}")
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
