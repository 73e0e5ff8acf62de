"""Command-line front door.

Machine output (CSV or JSON) goes to stdout or --out; prose goes to
stderr.  Every output is UTF-8 with \\n line ends, and every id list
writes each id as a CSV field (quoted when it holds a comma, a double
quote, \\r or \\n; the empty id as "").  An output is opened only once
its answer exists, so a command that exits 1 leaves an existing --out
file as it was (`build tree` streams, and opens its output first).
Exit codes: 0 success, 1 domain error (cycle, malformed input, bad
usage), 2 verification failure (an oracle comparison found a mismatch,
the strongest failure class).
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import random
import sys
from contextlib import ExitStack, contextmanager, nullcontext, suppress
from itertools import chain
from pathlib import Path

import numpy as np

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
    is_down_coloring,
    max_down_set_size,
    peel_degeneracy,
    read_edge_list,
)
from .endpoints import (
    IntervalRecord,
    build_endpoint_schema,
    build_tree_interval_index,
    interval_query_branches,
    tree_interval_query,
)
from .engine import (
    And,
    Atom,
    BenchSpec,
    FactTable,
    Not,
    Or,
    ScanOracle,
    aggregate_sum,
    bench,
    build_index,
    check_csv_number,
    evaluate,
    format_query,
    parse_query,
    row_count,
)
from .errors import CliqueIndexError, EmptyDigraph, InvalidRange, MalformedCsv
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
    CliqueTable,
    CsvInput,
    Postings,
    compact_colors,
    csv_lines,
    export_table,
    import_table,
    materialize,
    read_sidecar,
    recover_coloring,
    sidecar_payload,
    verify_schema,
    write_table_csv,
)
from .tree import (
    ancestor_path,
    build_tree_schema,
    iter_tree_blocks,
    level,
    overlap_query,
    tree_fact_query,
    verify_tree_schema,
)

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_VERIFY = 2


class _Parser(argparse.ArgumentParser):
    """argparse variant whose usage failures exit with the domain code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_DOMAIN, f"error: {message}\n")


def _out_stream(path):
    """The one way an output is opened: the path as UTF-8 with newline=""
    (each "\\n" written as is), else stdout."""
    return open(path, "w", encoding="utf-8", newline="") if path else nullcontext(sys.stdout)


def _note(text: str) -> None:
    print(text, file=sys.stderr)


def _write_json(payload, fh) -> None:
    json.dump(payload, fh, indent=2, sort_keys=True)
    fh.write("\n")


def _emit_json(payload, path) -> None:
    with _out_stream(path) as fh:
        _write_json(payload, fh)


def _emit_ids(ids, path) -> None:
    """One id per line, each written as a CSV field (schema.csv_lines)."""
    with _out_stream(path) as fh:
        fh.writelines(csv_lines([i] for i in ids))


# -- ingestion helpers ---------------------------------------------------------


def _load_digraph(path: str):
    return build_digraph(*read_edge_list(Path(path)))


def _csv_rows(path: str, kind: str, required: tuple[str, ...]):
    """(input, required fields in that order) for each non-blank row of a
    header-keyed CSV file, streamed; a short row is MalformedCsv."""
    with CsvInput(Path(path)) as rows:
        where = rows.columns(kind, required)
        width = max(where) + 1
        for row in rows:
            if len(row) < width:
                raise rows.error(f"short row, {len(row)} of {width} fields")
            yield rows, [row[i] for i in where]


def _load_intervals(path: str) -> list[IntervalRecord]:
    """Intervals from `id,x,y` CSV: each endpoint is held to the measures'
    number rule (engine.check_csv_number), then read by float().  A row's
    error, MalformedCsv or IntervalRecord's InvalidRange, names its line."""
    records = []
    for rows, (i, x, y) in _csv_rows(path, "interval", ("id", "x", "y")):
        try:
            check_csv_number(x, "endpoint")
            check_csv_number(y, "endpoint")
            records.append(IntervalRecord(i, float(x), float(y)))
        except (MalformedCsv, InvalidRange) as exc:
            raise rows.error(str(exc), type(exc)) from None
    return records


def _load_function(path: str) -> SetValuedFunction:
    """Set-valued function CSV: header entry,node then one membership per line."""
    return SetValuedFunction.from_pairs(pair for _, pair in _csv_rows(path, "function", ("entry", "node")))


@contextmanager
def _replacing(paths):
    """One stream per path (None: stdout) that replace their files together:
    each file is written to a temporary sibling, and the siblings are
    renamed over their files only once every stream is written and closed.
    Two paths to one file, a path that is a directory, or a sibling that
    cannot be opened raise before anything is written; on any failure the
    siblings are removed, so every file keeps its bytes."""
    targets = [path and os.path.realpath(path) for path in paths]
    named = list(filter(None, targets))
    if len(set(named)) < len(named):
        raise CliqueIndexError(f"two outputs name one file: {', '.join(filter(None, paths))}")
    for path, target in zip(paths, targets):
        if target and os.path.isdir(target):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    tag = os.urandom(4).hex()
    temps = [target and f"{target}.{tag}.tmp" for target in targets]
    try:
        with ExitStack() as stack:
            streams = []
            for path, temp in zip(paths, temps):
                try:
                    streams.append(stack.enter_context(_out_stream(temp)))
                except OSError as exc:
                    exc.filename = path  # name the file asked for, not its sibling
                    raise
            yield streams
        for temp, target in zip(temps, targets):
            if temp:
                os.replace(temp, target)
    finally:
        for temp in filter(None, temps):
            with suppress(OSError):  # renamed, never made, or not removable
                os.remove(temp)


def _emit_table(table: CliqueTable, payload, args) -> None:
    """Export the table to --out and the sidecar payload to --sidecar, else
    to the --out path plus .sidecar.json, else nowhere.  Both files are
    replaced together (_replacing), so a command that fails leaves both as
    they were."""
    sidecar = args.sidecar or (args.out + ".sidecar.json" if args.out else None)
    with _replacing([args.out, sidecar] if sidecar else [args.out]) as streams:
        export_table(table, streams[0])
        if sidecar:
            _write_json(payload, streams[1])


def _load_source(args):
    """Check that exactly one of --edges or --function is given; return the base
    provenance, the digraph (None for --function) and the set-valued function.
    An edge list with no nodes raises EmptyDigraph under either map."""
    if bool(args.edges) == bool(args.function):
        raise CliqueIndexError("pass exactly one of --edges or --function")
    if args.function:
        return {"source": args.function, "order": args.order}, None, _load_function(args.function)
    g = _load_digraph(args.edges)
    if not g.nodes:
        raise EmptyDigraph("cannot color an empty digraph")
    closure = descendant_set_function if args.map == "descendants" else ancestor_set_function
    return {"source": args.edges, "order": args.order, "map": args.map}, g, closure(g)


# -- build ----------------------------------------------------------------------


def cmd_build_dag(args) -> int:
    g = _load_digraph(args.edges)
    payload = {"nodes": len(g.nodes), "edges": len(g.edges)}
    if g.nodes:
        payload["max_down_set"] = max_down_set_size(g)
    if args.out:
        with _out_stream(args.out) as fh:
            fh.writelines(chain((f"{u}\t\n" for u in g.nodes), (f"{s}\t{t}\n" for s, t in g.edges)))
        _note(f"wrote normalized edge list to {args.out}")
    _emit_json(payload, None)
    return EXIT_OK


def cmd_build_intervals(args) -> int:
    records = _load_intervals(args.data)
    s = build_endpoint_schema(records)
    provenance = {"source": args.data, "kind": "interval-endpoints", "window": s.coloring.k}
    _emit_table(s.clique, sidecar_payload(s.coloring, provenance), args)
    _note(f"{len(records)} intervals, {len(s.entries)} entries, k={s.coloring.k}, window={s.coloring.k}")
    return EXIT_OK


def cmd_build_tree(args) -> int:
    blocks = iter_tree_blocks(args.levels)
    with _out_stream(args.out) as fh:
        write_table_csv(fh, args.levels, blocks)
    _note(f"wrote {(1 << args.levels) - 1} rows x {args.levels} columns")
    return EXIT_OK


# -- coloring and materialization -------------------------------------------------


def cmd_color(args) -> int:
    provenance, g, f = _load_source(args)
    down = args.edges and args.map == "ancestors"
    coloring = greedy_color(build_intersection_graph(f), args.order)
    if down:
        # entries are ancestor sets; their proper colorings are exactly
        # the colorings where nodes under a common ancestor all differ
        bounds = down_chromatic_bounds(g)
        provenance.update(
            kind="digraph-down-coloring",
            bounds={
                "lower": bounds.lower,
                "upper": bounds.upper,
                "degeneracy": bounds.degeneracy,
                "degeneracy_exact": bounds.degeneracy_exact,
                "part": bounds.part,
            },
            within_bound=coloring.k <= bounds.upper,
        )
        _note(
            f"down-coloring with k={coloring.k}, bounds [{bounds.lower}, {bounds.upper}]"
            + ("" if bounds.degeneracy_exact else " (degeneracy estimated)")
        )
    else:
        provenance.update(
            kind="digraph-map-coloring" if args.edges else "set-valued-function",
            clique_lower_bound=clique_lower_bound(f),
        )
        _note(f"colored {len(f)} {f'{args.map} sets' if args.edges else 'entries'} with k={coloring.k}")
    _emit_json(sidecar_payload(coloring, provenance), args.out)
    return EXIT_OK


def cmd_materialize(args) -> int:
    provenance, _, f = _load_source(args)
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
        del provenance["order"]  # no greedy order ran: name the sidecar used
        provenance["coloring"] = args.coloring
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
    provenance.update(verified=True, clique_lower_bound=clique_lower_bound(f))
    _emit_table(table, sidecar_payload(coloring, provenance), args)
    _note(
        f"materialized {len(table)} rows x {table.k} columns, verified, "
        f"k={table.k} >= lower bound {clique_lower_bound(f)}"
    )
    return EXIT_OK


# -- query engine ------------------------------------------------------------------


def cmd_index(args) -> int:
    fact = FactTable.from_csv(Path(args.fact))
    clique = import_table(Path(args.clique))
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
    fact = FactTable.from_csv(Path(args.fact))
    clique = import_table(Path(args.clique))
    expr = parse_query(args.expr)
    idx = build_index(fact, clique)
    if args.check:
        scan = ScanOracle(fact, clique)
        if not np.array_equal(scan.rid_array(expr), evaluate(expr, idx).to_array()):
            _note("MISMATCH: posting evaluation disagrees with the full scan")
            return EXIT_VERIFY
        # Float sums add in another order, so only integer sums must agree exactly.
        if args.sum and fact.measure_data()[0] != "float" and aggregate_sum(expr, idx, fact) != scan.sum_measure(expr):
            _note("MISMATCH: the posting sum disagrees with the full scan's")
            return EXIT_VERIFY
        _note("scan check passed")
    if args.sum:
        rows = row_count(expr, idx)
        payload = {
            "expr": format_query(expr),
            "rows": rows,
            "sum": aggregate_sum(expr, idx, fact),
            "selectivity": rows / fact.n if fact.n else None,
        }
        _emit_json(payload, args.out)
    else:
        _emit_ids(chain(["rid"], evaluate(expr, idx).to_array().tolist()), args.out)
    return EXIT_OK


def cmd_query_intervals(args) -> int:
    ids = tree_interval_query(build_tree_interval_index(_load_intervals(args.data)), args.a, args.b)
    _emit_ids(sorted(ids, key=str), args.out)
    return EXIT_OK


def cmd_query_tree(args) -> int:
    schema = build_tree_schema(args.levels)
    if args.fact:
        # schema nodes are ints, so acc values must be cast to match
        fact = FactTable.from_csv(Path(args.fact), int)
        ids = tree_fact_query(args.k, build_index(fact, schema)).to_array()
    else:
        ids = overlap_query(args.k, schema)
    _emit_ids(ids.tolist(), args.out)
    return EXIT_OK


# -- verify -------------------------------------------------------------------------
#
# Each suite yields one (ok, detail) pair per oracle comparison.


def _verify_intersection(rng: random.Random, scale: float):
    for i in range(max(1, int(120 * scale))):
        f = corpus.random_function(rng, max_entries=20, max_nodes=25)
        fast = build_intersection_graph(f)
        slow = oracle_intersection_graph(f)
        yield fast.adj == slow, f"function #{i}"


def _verify_degeneracy(rng: random.Random, scale: float):
    for i in range(max(1, int(60 * scale))):
        g = corpus.random_dag(rng, max_nodes=10)
        h = down_hypergraph(g)
        exact = hypergraph_degeneracy(h)
        yield exact == oracle_degeneracy(h), f"dag #{i} exact"
        yield peel_degeneracy(h) <= exact, f"dag #{i} peel"


def _verify_bounds(rng: random.Random, scale: float):
    for i in range(max(1, int(60 * scale))):
        g = corpus.random_dag(rng, max_nodes=10)
        bounds = down_chromatic_bounds(g)
        chi = exact_down_chromatic(g)
        coloring = greedy_down_coloring(g)
        yield bounds.lower <= chi <= bounds.upper, f"dag #{i} exact in bounds"
        yield is_down_coloring(g, coloring), f"dag #{i} greedy validity"
        yield coloring.k <= bounds.upper, f"dag #{i} greedy under bound"


def _verify_schema_duality(rng: random.Random, scale: float):
    for i in range(max(1, int(40 * scale))):
        f = corpus.random_function(rng, max_entries=15, max_nodes=20)
        graph = build_intersection_graph(f)
        for order in GREEDY_ORDERS:
            coloring = greedy_color(graph, order)
            table = materialize(f, coloring)
            yield bool(verify_schema(f, table, coloring)), f"function #{i} {order}"
            recovered = recover_coloring(table)
            yield recovered.is_proper(graph), f"function #{i} {order} recover"
        codes = np.array([table.column_codes(i, np.empty(len(table), np.int32)) for i in range(1, table.k + 1)])
        filled = np.argwhere(codes.T >= 0)  # (node position, column), row by row
        if len(filled):
            j, col = filled[rng.randrange(len(filled))]
            codes[col, j] = -1
            broken = CliqueTable(table.rows, Postings.from_codes(len(table), zip(table.entries, codes)))
            yield not verify_schema(f, broken, coloring), f"function #{i} blanked cell not caught"


def _verify_intervals(rng: random.Random, scale: float):
    for i in range(max(1, int(25 * scale))):
        records = corpus.random_intervals(rng, rng.randint(1, 60))
        s = build_endpoint_schema(records)
        t = build_tree_interval_index(records)
        yield bool(verify_schema(s.function, s.clique, s.coloring)), f"corpus #{i} schema verify"
        span = 1200
        for _ in range(20):
            a = rng.uniform(-10, span)
            b = a + abs(rng.gauss(0, span / 6))
            want = oracle_interval_intersections(records, a, b)
            first, second = interval_query_branches(s, a, b)
            yield first | second == want, f"corpus #{i} query [{a},{b}]"
            yield not (first & second), f"corpus #{i} branch overlap [{a},{b}]"
            yield tree_interval_query(t, a, b) == want, f"corpus #{i} tree [{a},{b}]"


def _verify_tree(rng: random.Random, scale: float):
    top = 5 if scale < 1 else 7
    for n in range(1, top + 1):
        schema = build_tree_schema(n)
        yield bool(verify_tree_schema(schema, n)), f"n={n} schema verify"
        for k in range(1, (1 << n)):
            yield np.array_equal(overlap_query(k, schema), oracle_tree_overlap(k, n)), f"n={n} k={k}"


def _verify_engine(rng: random.Random, scale: float):
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
        want = scan.rid_array(expr)
        yield np.array_equal(evaluate(expr, idx).to_array(), want), f"expr #{i}: {format_query(expr)}"
        yield aggregate_sum(expr, idx, fact) == sum(measures[r] for r in want.tolist()), f"expr #{i} sum"
        if isinstance(expr, And) and len(expr.items) == 2:
            lhs = evaluate(Not(expr), idx)
            rhs = evaluate(Or((Not(expr.items[0]), Not(expr.items[1]))), idx)
            yield lhs == rhs, f"expr #{i} De Morgan"
    for k in range(1, 1 << n_levels):  # the one-pass IN list against the scanned Or of its atoms
        want = scan.rid_array(Or(tuple(Atom(level(k), p) for p in ancestor_path(k))))
        yield np.array_equal(tree_fact_query(k, idx).to_array(), want), f"tree_fact_query k={k}"
    # Subtree ORs on 100 k rows with counts on both sides of n / 4, n / 2
    # and the 2^15 rows from which engine._expand copies CSR runs.
    n_levels, rows = 8, 100_000
    clique = build_tree_schema(n_levels)
    accs = np.random.default_rng(rng.getrandbits(32)).integers(1 << (n_levels - 1), 1 << n_levels, size=rows)
    fact = FactTable(accs.tolist(), [0] * rows)
    idx = build_index(fact, clique)
    scan = ScanOracle(fact, clique)
    for q in range(2, n_levels + 1):
        h = 1 << (q - 1)
        for m in sorted({1, 2, h // 4, h // 4 + 1, h // 3 + 1, h // 2 - 1, h // 2, h // 2 + 1} & set(range(1, h + 1))):
            expr = Or(tuple(Atom(q, p) for p in rng.sample(range(h, 2 * h), m)))
            yield np.array_equal(evaluate(expr, idx).to_array(), scan.rid_array(expr)), f"subtree OR {format_query(expr)}"


def cmd_verify(args) -> int:
    rng = random.Random(args.seed)
    scale = 0.25 if args.quick else 1.0
    suites = (
        ("intersection-graph-vs-all-pairs", _verify_intersection),
        ("hypergraph-degeneracy-vs-subset-enumeration", _verify_degeneracy),
        ("chromatic-bounds-and-greedy", _verify_bounds),
        ("schema-materialize-verify-roundtrip", _verify_schema_duality),
        ("interval-queries-vs-scan", _verify_intervals),
        ("tree-overlap-vs-extent-arithmetic", _verify_tree),
        ("posting-evaluation-vs-full-scan", _verify_engine),
    )
    sections = []
    # each suite is drained before the next starts, so the rng draws keep their order
    for name, suite in suites:
        section = {"section": name, "comparisons": 0, "mismatches": 0, "first_failure": None}
        for ok, detail in suite(rng, scale):
            section["comparisons"] += 1
            if not ok:
                section["mismatches"] += 1
                if section["first_failure"] is None:
                    section["first_failure"] = detail
        sections.append(section)
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
    """Comma-separated selectivities, each a number or a fraction a/b."""
    out = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            num, slash, den = part.partition("/")
            out.append(float(num) / float(den) if slash else float(num))
        except (ValueError, ZeroDivisionError):
            raise CliqueIndexError(f"--targets: {part!r} is not a number or fraction") from None
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
    table = import_table(Path(args.table))
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
    p.add_argument("--out")
    p.set_defaults(func=cmd_query_intervals)

    p = sub.add_parser("query-tree", help="tree intervals overlapping id k")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--levels", type=int, required=True)
    p.add_argument("--fact", help="optional fact CSV; returns rids instead of ids")
    p.add_argument("--out")
    p.set_defaults(func=cmd_query_tree)

    p = sub.add_parser("verify", help="run every oracle comparison suite")
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
    except (OSError, UnicodeDecodeError) as exc:
        _note(f"error: {exc}")
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
