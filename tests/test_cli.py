import csv
import io
import json
import random
import warnings

import pytest

from cliqueindex import cli
from cliqueindex.cli import main
from cliqueindex.engine import MAX_QUERY_DEPTH, ScanOracle
from cliqueindex.errors import OutOfRange
from cliqueindex.schema import export_table, import_table
from cliqueindex.tree import build_tree_schema, iter_tree_blocks

from conftest import GOLDEN_TREE_4, PAIR_EDGES, rows_table


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


@pytest.fixture
def pair_edges_tsv(tmp_path):
    lines = [f"{u}\t{v}" for u, v in PAIR_EDGES]
    return write(tmp_path / "edges.tsv", "\n".join(lines) + "\n")


@pytest.fixture
def fact_csv(tmp_path):
    rng = random.Random(13)
    rows = ["rid,acc,m"]
    for rid in range(300):
        rows.append(f"{rid},{rng.randint(8, 15)},{rng.randint(0, 5)}")
    return write(tmp_path / "fact.csv", "\n".join(rows) + "\n")


def test_build_tree_golden(tmp_path, capsys):
    out = tmp_path / "t.csv"
    assert main(["build", "tree", "--levels", "4", "--out", str(out)]) == 0
    with open(out) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["node", "c1", "c2", "c3", "c4"]
    got = {int(r[0]): tuple(int(c) for c in r[1:]) for r in rows[1:]}
    assert got == GOLDEN_TREE_4


def reference_tree_csv(n):
    """The per-row writer the block writer replaced, each cell k's level-q
    ancestor k >> (L(k) - q) or k itself below its level L(k)."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["node"] + [f"c{i}" for i in range(1, n + 1)])
    for k in range(1, 1 << n):
        writer.writerow([k, *(k >> max(k.bit_length() - q, 0) for q in range(1, n + 1))])
    return buf.getvalue()


# Tree cases are named "<levels>-table" after the one tree table layout.
TABLE_LAYOUT = "{}-table".format


@pytest.mark.parametrize("n", [1, 2, 5, 12, 13], ids=TABLE_LAYOUT)
def test_build_tree_csv_matches_the_per_row_writer(tmp_path, n):
    out = tmp_path / "t.csv"
    assert main(["build", "tree", "--levels", str(n), "--out", str(out)]) == 0
    assert out.read_bytes() == reference_tree_csv(n).encode()


@pytest.mark.parametrize("n", [1, 2, 3, 7, 12], ids=TABLE_LAYOUT)
def test_build_tree_csv_matches_the_exported_table(tmp_path, n):
    out = tmp_path / "t.csv"
    assert main(["build", "tree", "--levels", str(n), "--out", str(out)]) == 0
    assert out.read_bytes() == export_table(build_tree_schema(n)).encode()


def test_build_dag_reports_summary(pair_edges_tsv, capsys):
    assert main(["build", "dag", "--edges", pair_edges_tsv]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["nodes"] == 10
    assert payload["edges"] == 12
    assert payload["max_down_set"] == 3


def test_build_dag_normalized_output(pair_edges_tsv, tmp_path):
    out = tmp_path / "norm.tsv"
    assert main(["build", "dag", "--edges", pair_edges_tsv, "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    edge_lines = [l for l in lines if not l.endswith("\t")]
    assert len(edge_lines) == 12


def test_build_dag_cycle_exits_one(tmp_path, capsys):
    edges = write(tmp_path / "cyc.tsv", "a\tb\nb\ta\n")
    assert main(["build", "dag", "--edges", edges]) == 1
    assert "cycle" in capsys.readouterr().err


def test_missing_file_exits_one(capsys):
    assert main(["build", "dag", "--edges", "/nonexistent/edges.tsv"]) == 1
    assert "error" in capsys.readouterr().err


def test_usage_error_exits_one():
    # a missing required flag, and flags that no subcommand takes
    for argv in (["query"], ["verify", "--all"], ["build", "tree", "--levels", "3", "--variant", "table"],
                 ["query-tree", "--k", "2", "--levels", "4", "--variant", "literal"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1, argv


def test_color_and_materialize_pipeline(pair_edges_tsv, tmp_path, capsys):
    sidecar = tmp_path / "c.json"
    assert main(["color", "--edges", pair_edges_tsv, "--out", str(sidecar)]) == 0
    payload = json.loads(sidecar.read_text())
    assert payload["provenance"]["map"] == "descendants"
    assert payload["k"] >= payload["provenance"]["clique_lower_bound"] == 4

    table_csv = tmp_path / "t.csv"
    assert main([
        "materialize", "--edges", pair_edges_tsv,
        "--coloring", str(sidecar), "--out", str(table_csv),
    ]) == 0
    err = capsys.readouterr().err
    assert "verified" in err
    t = import_table(table_csv)
    assert t.k == payload["k"]
    assert len(t) == 10
    # rows carry ancestors: a sink's row names every source covering it
    assert set(t.rows["1"]) - {None} == {"1", "12", "13", "14"}


@pytest.mark.parametrize("source", [
    ["--edges", "EDGES", "--map", "descendants"],
    ["--edges", "EDGES", "--map", "ancestors"],
    ["--function", "FUNCTION"],
], ids=["descendants", "ancestors", "function"])
def test_color_stdout_matches_the_out_file(pair_edges_tsv, tmp_path, capsys, source):
    fn_csv = write(tmp_path / "f.csv", "entry,node\ng1,a\ng1,b\ng2,b\ng3,c\n")
    argv = ["color"] + [{"EDGES": pair_edges_tsv, "FUNCTION": fn_csv}.get(a, a) for a in source]
    capsys.readouterr()
    assert main(argv) == 0
    stdout = capsys.readouterr().out
    out = tmp_path / "c.json"
    assert main(argv + ["--out", str(out)]) == 0
    assert out.read_text(encoding="utf-8") == stdout


def sidecar_text(k, coloring, /, **provenance):
    return json.dumps({"coloring": coloring, "k": k, "provenance": provenance}, indent=2, sort_keys=True) + "\n"


DESC_COLORING = {"a": 1, "b": 3, "c": 2, "x": 2, "y": 1}
ANC_COLORING = {"a": 2, "b": 3, "c": 2, "x": 1, "y": 1}
FN_COLORING = {"g1": 2, "g2": 1, "g3": 1}
SMALLEST_LAST = {"order": "smallest-last"}
ONE_SOURCE = "error: pass exactly one of --edges or --function\n"
EMPTY_DIGRAPH = "error: cannot color an empty digraph\n"


PINNED = [
    (["color", "--edges", "EDGES"], 0,
     sidecar_text(3, DESC_COLORING, clique_lower_bound=3, kind="digraph-map-coloring", map="descendants",
                  source="EDGES", **SMALLEST_LAST),
     "colored 5 descendants sets with k=3\n", None),
    (["color", "--edges", "EDGES", "--map", "ancestors"], 0,
     sidecar_text(3, ANC_COLORING, kind="digraph-down-coloring", map="ancestors", source="EDGES", within_bound=True,
                  bounds={"degeneracy": 1, "degeneracy_exact": True, "lower": 3, "part": 1, "upper": 3},
                  **SMALLEST_LAST),
     "down-coloring with k=3, bounds [3, 3]\n", None),
    (["color", "--function", "FUNCTION"], 0,
     sidecar_text(2, FN_COLORING, clique_lower_bound=2, kind="set-valued-function", source="FUNCTION",
                  **SMALLEST_LAST),
     "colored 3 entries with k=2\n", None),
    (["materialize", "--edges", "EDGES"], 0,
     "node,c1,c2,c3\na,a,x,\nb,y,x,b\nc,y,c,\nx,,x,\ny,y,,\n",
     "materialized 5 rows x 3 columns, verified, k=3 >= lower bound 3\n",
     sidecar_text(3, DESC_COLORING, clique_lower_bound=3, map="descendants", source="EDGES", verified=True,
                  **SMALLEST_LAST)),
    (["materialize", "--edges", "EDGES", "--map", "ancestors"], 0,
     "node,c1,c2,c3\na,,a,\nb,,,b\nc,,c,\nx,x,a,b\ny,y,c,b\n",
     "materialized 5 rows x 3 columns, verified, k=3 >= lower bound 3\n",
     sidecar_text(3, ANC_COLORING, clique_lower_bound=3, map="ancestors", source="EDGES", verified=True,
                  **SMALLEST_LAST)),
    (["materialize", "--function", "FUNCTION"], 0,
     "node,c1,c2\na,,g1\nb,g2,g1\nc,g3,\n",
     "materialized 3 rows x 2 columns, verified, k=2 >= lower bound 2\n",
     sidecar_text(2, FN_COLORING, clique_lower_bound=2, source="FUNCTION", verified=True, **SMALLEST_LAST)),
    (["color", "--edges", "EDGES", "--function", "FUNCTION"], 1, "", ONE_SOURCE, None),
    (["color"], 1, "", ONE_SOURCE, None),
    (["materialize", "--edges", "EDGES", "--function", "FUNCTION"], 1, "", ONE_SOURCE, None),
    (["materialize"], 1, "", ONE_SOURCE, None),
    (["color", "--edges", "EMPTY"], 1, "", EMPTY_DIGRAPH, None),
    (["color", "--edges", "EMPTY", "--map", "ancestors"], 1, "", EMPTY_DIGRAPH, None),
    (["materialize", "--edges", "EMPTY"], 1, "", EMPTY_DIGRAPH, None),
    (["materialize", "--edges", "EMPTY", "--map", "ancestors"], 1, "", EMPTY_DIGRAPH, None),
]


@pytest.mark.parametrize("argv, code, out, err, sidecar", PINNED, ids=[" ".join(case[0]) for case in PINNED])
def test_color_and_materialize_output_is_pinned(tmp_path, capsys, argv, code, out, err, sidecar):
    """Exit code, stdout, stderr and the materialize sidecar, byte for byte,
    for each source (an edge list under either --map, or a function CSV),
    the one-source check, and a comment-only edge list."""
    paths = {
        "EDGES": write(tmp_path / "edges.tsv", "# toy\nx\ta\nx\tb\ny\tb\ny\tc\n"),
        "FUNCTION": write(tmp_path / "f.csv", "entry,node\ng1,a\ng1,b\ng2,b\ng3,c\n"),
        "EMPTY": write(tmp_path / "empty.tsv", "# no edges\n"),
    }
    sidecar_path = tmp_path / "c.json"
    extra = ["--sidecar", str(sidecar_path)] if argv[0] == "materialize" else []
    assert main([paths.get(a, a) for a in argv] + extra) == code
    captured = capsys.readouterr()
    written = sidecar_path.read_text(encoding="utf-8") if sidecar_path.exists() else None
    got = [captured.out, captured.err, written]
    for name, path in paths.items():
        got = [None if text is None else text.replace(path, name) for text in got]
    assert got == [out, err, sidecar]


def test_color_ancestor_map_reports_bounds(pair_edges_tsv, tmp_path):
    sidecar = tmp_path / "anc.json"
    assert main([
        "color", "--edges", pair_edges_tsv, "--map", "ancestors",
        "--out", str(sidecar),
    ]) == 0
    payload = json.loads(sidecar.read_text())
    assert payload["k"] == 4
    assert payload["provenance"]["within_bound"] is True
    assert payload["provenance"]["bounds"] == {
        "lower": 3, "upper": 4, "degeneracy": 3, "degeneracy_exact": True, "part": 2,
    }


def test_materialize_rejects_mismatched_sidecar_map(pair_edges_tsv, tmp_path, capsys):
    sidecar = tmp_path / "anc.json"
    main(["color", "--edges", pair_edges_tsv, "--map", "ancestors", "--out", str(sidecar)])
    assert main([
        "materialize", "--edges", pair_edges_tsv, "--coloring", str(sidecar),
    ]) == 1
    assert "--map" in capsys.readouterr().err


def test_materialize_ancestor_map(pair_edges_tsv, tmp_path):
    table_csv = tmp_path / "anc.csv"
    assert main([
        "materialize", "--edges", pair_edges_tsv, "--map", "ancestors",
        "--out", str(table_csv),
    ]) == 0
    t = import_table(table_csv)
    # rows now carry descendants instead
    assert set(t.rows["12"]) - {None} == {"1", "2", "12"}


def test_materialize_function_csv(tmp_path):
    fn_csv = write(tmp_path / "f.csv", "entry,node\ng1,a\ng1,b\ng2,b\ng2,c\n")
    out = tmp_path / "t.csv"
    assert main(["materialize", "--function", fn_csv, "--out", str(out)]) == 0
    t = import_table(out)
    assert t.k == 2
    assert set(t.rows) == {"a", "b", "c"}


def test_materialize_compact_colors_output_is_pinned(tmp_path, capsys):
    """A sidecar coloring that leaves column 2 empty: --compact-colors
    writes two columns, and the sidecar it writes moves b from 3 to 2."""
    fn_csv = write(tmp_path / "f.csv", "entry,node\na,1\nb,1\nb,2\nc,3\n")
    coloring = write(tmp_path / "c.json", '{"k": 3, "coloring": {"a": 1, "b": 3, "c": 1}}\n')
    out, sidecar = tmp_path / "t.csv", tmp_path / "t.json"
    argv = ["materialize", "--function", fn_csv, "--coloring", coloring, "--compact-colors"]
    assert main(argv + ["--out", str(out), "--sidecar", str(sidecar)]) == 0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "materialized 3 rows x 2 columns, verified, k=2 >= lower bound 2\n"
    assert out.read_text(encoding="utf-8") == "node,c1,c2\n1,a,b\n2,,b\n3,c,\n"
    assert sidecar.read_text(encoding="utf-8") == sidecar_text(
        2, {"a": 1, "b": 2, "c": 1}, clique_lower_bound=2, coloring=coloring, source=fn_csv, verified=True
    )


def test_materialize_with_a_coloring_names_its_sidecar_not_an_order(pair_edges_tsv, tmp_path):
    """No greedy order runs when a coloring is given, so the provenance
    names the sidecar read in place of --order."""
    coloring, out = str(tmp_path / "c.json"), str(tmp_path / "t.csv")
    assert main(["color", "--edges", pair_edges_tsv, "--out", coloring]) == 0
    assert main(["materialize", "--edges", pair_edges_tsv, "--coloring", coloring, "--order", "input", "--out", out]) == 0
    with open(out + ".sidecar.json", encoding="utf-8") as fh:
        provenance = json.load(fh)["provenance"]
    assert provenance["coloring"] == coloring and provenance["map"] == "descendants"
    assert "order" not in provenance


def test_query_sum_and_check(fact_csv, tmp_path, capsys):
    clique = tmp_path / "clique.csv"
    assert main(["build", "tree", "--levels", "4", "--out", str(clique)]) == 0
    capsys.readouterr()
    assert main([
        "query", "--fact", fact_csv, "--clique", str(clique),
        "--expr", "c3='4' | c3='5'", "--sum", "--check",
    ]) == 0
    payload = json.loads(capsys.readouterr().out)
    with open(fact_csv) as fh:
        rows = list(csv.DictReader(fh))
    want_rows = [r for r in rows if int(r["acc"]) in (8, 9, 10, 11)]
    assert payload["rows"] == len(want_rows)
    assert payload["sum"] == sum(int(r["m"]) for r in want_rows)
    assert abs(payload["selectivity"] - len(want_rows) / 300) < 1e-12


def test_query_sum_of_the_int64_minimum_is_exact_and_checks(tmp_path, capsys):
    clique = str(tmp_path / "clique.csv")
    assert main(["build", "tree", "--levels", "2", "--out", clique]) == 0
    facts = write(tmp_path / "fact.csv", "rid,acc,m\n0,1,-9223372036854775808\n1,1,-1\n")
    capsys.readouterr()
    assert main(["query", "--fact", facts, "--clique", clique, "--expr", "c1='1'", "--sum", "--check"]) == 0
    assert json.loads(capsys.readouterr().out)["sum"] == -(2 ** 63) - 1


def test_query_sum_json_on_readme_toy(tmp_path, capsys):
    edges = write(tmp_path / "toy.tsv", "x\ta\nx\tb\ny\tb\ny\tc\n")
    facts = write(tmp_path / "facts.csv", "rid,acc,m\n0,a,5\n1,b,7\n2,c,1\n3,a,2\n")
    table = str(tmp_path / "toy_table.csv")
    assert main(["materialize", "--edges", edges, "--out", table]) == 0
    capsys.readouterr()
    assert main(["query", "--fact", facts, "--clique", table, "--expr", "c2='x'", "--sum"]) == 0
    assert capsys.readouterr().out == (
        '{\n  "expr": "c2=\'x\'",\n  "rows": 3,\n  "selectivity": 0.75,\n  "sum": 14\n}\n'
    )


@pytest.mark.parametrize("measure", [lambda r: r % 7 - 3, lambda r: r / 4 - 5, lambda r: 2 ** 70 + r])
def test_query_sum_json_matches_the_rid_listing_and_check(tmp_path, capsys, measure):
    """The --sum JSON (node counts and per-node sums for exact int
    measures) is byte for byte the JSON of the listed rids' rows and sum,
    and the same with --check."""
    clique = str(tmp_path / "clique.csv")
    assert main(["build", "tree", "--levels", "4", "--out", clique]) == 0
    rng = random.Random(17)
    accs = [rng.choice([8, 9, 10, 11, 12, 4, 99]) for _ in range(60)]  # 99 is unresolved
    lines = [f"{rid},{acc},{measure(rid)}" for rid, acc in enumerate(accs)]
    facts = write(tmp_path / "fact.csv", "rid,acc,m\n" + "\n".join(lines) + "\n")
    for expr in ("c3='4' | c3='5'", "!c2='2'", "c4='8'", "c3='7'"):
        capsys.readouterr()
        assert main(["query", "--fact", facts, "--clique", clique, "--expr", expr]) == 0
        rids = [int(r) for r in capsys.readouterr().out.split()[1:]]
        want = json.dumps({
            "expr": expr,
            "rows": len(rids),
            "sum": sum(measure(r) for r in rids),
            "selectivity": len(rids) / len(accs),
        }, indent=2, sort_keys=True) + "\n"
        for check in ([], ["--check"]):
            assert main(["query", "--fact", facts, "--clique", clique, "--expr", expr, "--sum", *check]) == 0
            assert capsys.readouterr().out == want, (expr, check)


@pytest.mark.parametrize("measure, code", [("7", 2), ("2.5", 0)], ids=["int", "float"])
def test_query_check_compares_integer_sums_with_the_scan(tmp_path, capsys, monkeypatch, tree_clique_csv, measure, code):
    """With the scan's sum made wrong, --check --sum exits 2 over integer
    measures; float sums add in another order, so only their rids are checked."""
    facts = write(tmp_path / "fact.csv", f"rid,acc,m\n0,8,{measure}\n1,9,{measure}\n2,12,{measure}\n")
    monkeypatch.setattr(ScanOracle, "sum_measure", lambda self, q: -1)
    assert main(["query", "--fact", facts, "--clique", tree_clique_csv, "--expr", "c3='4'", "--sum", "--check"]) == code
    captured = capsys.readouterr()
    if code:
        assert captured.out == ""
        assert captured.err == "MISMATCH: the posting sum disagrees with the full scan's\n"
    else:
        assert json.loads(captured.out)["sum"] == 5.0


def test_query_rid_listing(fact_csv, tmp_path, capsys):
    clique = tmp_path / "clique.csv"
    main(["build", "tree", "--levels", "4", "--out", str(clique)])
    capsys.readouterr()
    assert main([
        "query", "--fact", fact_csv, "--clique", str(clique),
        "--expr", "c4='8'",
    ]) == 0
    out = capsys.readouterr().out.split()
    assert out[0] == "rid"
    with open(fact_csv) as fh:
        want = [r["rid"] for r in csv.DictReader(fh) if r["acc"] == "8"]
    assert out[1:] == want


def test_query_bad_expression_exits_one(fact_csv, tmp_path, capsys):
    clique = tmp_path / "clique.csv"
    main(["build", "tree", "--levels", "4", "--out", str(clique)])
    assert main([
        "query", "--fact", fact_csv, "--clique", str(clique), "--expr", "c0='x'",
    ]) == 1


def test_index_stats(fact_csv, tmp_path, capsys):
    clique = tmp_path / "clique.csv"
    main(["build", "tree", "--levels", "4", "--out", str(clique)])
    capsys.readouterr()
    assert main(["index", "--fact", fact_csv, "--clique", str(clique)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["rows"] == 300
    assert payload["columns"] == 4
    assert payload["unresolved"] == 0
    assert payload["postings"] > 0


def test_query_intervals_matches_scan(tmp_path, capsys):
    rng = random.Random(31)
    rows = ["id,x,y"]
    ivs = []
    for i in range(80):
        x = round(rng.uniform(0, 50), 3)
        y = round(x + rng.uniform(0, 10), 3)
        ivs.append((f"iv{i}", x, y))
        rows.append(f"iv{i},{x},{y}")
    data = write(tmp_path / "iv.csv", "\n".join(rows) + "\n")
    assert main(["query-intervals", "--data", data, "--a", "10", "--b", "12"]) == 0
    got = set(capsys.readouterr().out.split())
    want = {i for i, x, y in ivs if x <= 12 and y >= 10}
    assert got == want


def test_query_intervals_answers_an_id_the_endpoint_schema_rejects(tmp_path, capsys):
    # a's straddle runs neither overlap nor touch: build intervals cannot color them
    data = write(tmp_path / "iv.csv", "id,x,y\na,0,1\na,5,6\nb,2,3\n")
    assert main(["build", "intervals", "--data", data]) == 1
    assert _no_traceback(capsys) == "error: entries 0.0 and 5.0 both have color 1 and both contain node 'a'\n"
    assert main(["query-intervals", "--data", data, "--a", "0", "--b", "9"]) == 0
    assert capsys.readouterr().out.split() == ["a", "b"]
    assert main(["query-intervals", "--data", data, "--a", "5.5", "--b", "5.5"]) == 0
    assert capsys.readouterr().out.split() == ["a"]


def test_build_intervals_emits_table_and_sidecar(tmp_path, capsys):
    data = write(tmp_path / "iv.csv", "id,x,y\na,0,2\nb,1,3\n")
    out = tmp_path / "clique.csv"
    sidecar = tmp_path / "c.json"
    assert main([
        "build", "intervals", "--data", data,
        "--out", str(out), "--sidecar", str(sidecar),
    ]) == 0
    assert "k=2" in capsys.readouterr().err
    t = import_table(out)
    assert t.k == 2
    assert json.loads(sidecar.read_text())["k"] == 2


INTERVALS_PIN_CSV = (
    "id,x,y\nc,1,3\nw,0,-0\na,1,3\nd,0,5\nb,1.0,3.0\nz,3,3\n"
    "v,-0,0\nd,2,4\nm,-0,1\nn,0,2.5\np,2.5,2.5\n"
)
INTERVALS_PIN_TABLE = """\
node,c1,c2,c3,c4,c5,c6
a,,1.0,2.0,2.5,,
b,,1.0,2.0,2.5,,
c,,1.0,2.0,2.5,,
d,-0.0,1.0,2.0,2.5,3.0,4.0
m,-0.0,,,,,
n,-0.0,1.0,2.0,,,
p,,,,,,
v,,,,,,
w,,,,,,
z,,,,,,
"""
INTERVALS_PIN_SIDECAR = """\
{
  "coloring": {
    "-0.0": 1,
    "1.0": 2,
    "2.0": 3,
    "2.5": 4,
    "3.0": 5,
    "4.0": 6,
    "5.0": 1
  },
  "k": 6,
  "provenance": {
    "kind": "interval-endpoints",
    "source": "DATA",
    "window": 6
  }
}
"""


def test_build_intervals_output_is_pinned(tmp_path, capsys):
    """Table CSV, sidecar and note, byte for byte, on intervals with equal
    (x, y) pairs under out-of-order ids, one id used twice, zero-length
    intervals, and both -0 and 0 endpoints: the zero entry is the -0.0 of
    the first record in (x, y, id) order, v's lower endpoint."""
    data = write(tmp_path / "iv.csv", INTERVALS_PIN_CSV)
    out, sidecar = tmp_path / "t.csv", tmp_path / "t.json"
    argv = ["build", "intervals", "--data", data, "--out", str(out), "--sidecar", str(sidecar)]
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "11 intervals, 7 entries, k=6, window=6\n"
    assert out.read_text(encoding="utf-8") == INTERVALS_PIN_TABLE
    assert sidecar.read_text(encoding="utf-8").replace(data, "DATA") == INTERVALS_PIN_SIDECAR


def test_query_tree_ids(capsys):
    assert main(["query-tree", "--levels", "4", "--k", "5"]) == 0
    assert capsys.readouterr().out == "1\n2\n5\n10\n11\n"


def _extent(j, n):
    width = 1 << (n - j.bit_length())
    lo = (j - (1 << (j.bit_length() - 1))) * width
    return lo, lo + width


@pytest.fixture(scope="module")
def pin_fact_csv(tmp_path_factory):
    """Fact rows in shuffled rid order, with accs over every id of a 6-level
    tree and some past it, which no table of 1-6 levels resolves."""
    rng = random.Random(16)
    accs = [rng.randint(1, 70) for _ in range(200)]
    rows = [f"{rid},{acc},{rid % 7}" for rid, acc in enumerate(accs)]
    rng.shuffle(rows)
    path = tmp_path_factory.mktemp("pin") / "fact.csv"
    return write(path, "rid,acc,m\n" + "\n".join(rows) + "\n"), accs


@pytest.mark.parametrize("with_fact", [False, True], ids=["ids", "fact"])
@pytest.mark.parametrize("n", range(1, 7))
def test_query_tree_output_is_pinned(capsys, pin_fact_csv, n, with_fact):
    """stdout byte for byte, for every k: the overlapping ids (or the rids
    of fact rows referencing one), ascending, one a line, from the extents."""
    path, accs = pin_fact_csv
    for k in range(1, 1 << n):
        lo, hi = _extent(k, n)
        hit = [j for j in range(1, 1 << n) if _extent(j, n)[0] < hi and lo < _extent(j, n)[1]]
        if with_fact:
            hit = [rid for rid, acc in enumerate(accs) if acc in hit]
        argv = ["query-tree", "--levels", str(n), "--k", str(k)] + (["--fact", path] if with_fact else [])
        assert main(argv) == 0
        assert capsys.readouterr().out == "".join(f"{j}\n" for j in hit), (n, k)


def test_query_tree_with_fact(fact_csv, capsys):
    assert main(["query-tree", "--levels", "4", "--k", "5", "--fact", fact_csv]) == 0
    got = {int(v) for v in capsys.readouterr().out.split()}
    with open(fact_csv) as fh:
        want = {int(r["rid"]) for r in csv.DictReader(fh) if int(r["acc"]) in (10, 11)}
    assert got == want


def test_verify_quick(capsys):
    assert main(["verify", "--quick", "--seed", "7"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["mismatches"] == 0
    assert len(payload["sections"]) == 7


def test_verify_checks_each_interval_corpus_on_both_paths(capsys):
    """Per corpus, the interval suite verifies the endpoint schema and runs
    20 queries of three comparisons: the endpoint answer, its branches'
    disjointness and the tree path's answer."""
    assert main(["verify", "--quick", "--seed", "7"]) == 0
    section = json.loads(capsys.readouterr().out)["sections"][4]
    assert section["section"] == "interval-queries-vs-scan" and section["mismatches"] == 0
    corpora = max(1, int(25 * 0.25))
    assert section["comparisons"] == corpora * (20 * 3 + 1)


def test_bench_non_timing_columns_deterministic(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    args = ["bench", "--seed", "5", "--rows", "4000", "--levels", "8"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    ra = list(csv.DictReader(a.open()))
    rb = list(csv.DictReader(b.open()))
    assert len(ra) == len(rb) == 2
    for x, y in zip(ra, rb):
        for col in x:
            if col not in ("index_ms", "scan_ms", "speedup"):
                assert x[col] == y[col], col


def test_export_compacts_unused_columns(tmp_path, capsys):
    src = write(tmp_path / "t.csv", "node,c1,c2,c3\nu,,a,\nv,,a,\n")
    out = tmp_path / "squeezed.csv"
    assert main(["export", "--table", src, "--compact-colors", "--out", str(out)]) == 0
    t = import_table(out)
    assert t.k == 1
    assert t.rows["u"] == ("a",)


def test_tree_cap_env_override(tmp_path, monkeypatch, capsys):
    # The cap is the constant 24; the former CLIQUEINDEX_TREE_CAP override
    # is ignored both ways. The writer is replaced, so a level count past
    # the cap must fail before any output is written.
    monkeypatch.setenv("CLIQUEINDEX_TREE_CAP", "3")
    assert main(["build", "tree", "--levels", "4", "--out", str(tmp_path / "t.csv")]) == 0
    written = []
    monkeypatch.setattr(cli, "write_table_csv", lambda *args: written.append(args))
    monkeypatch.setenv("CLIQUEINDEX_TREE_CAP", "30")
    assert main(["build", "tree", "--levels", "25"]) == 1
    out, err = capsys.readouterr()
    assert "level count 25 exceeds the cap 24" in err and "Traceback" not in err
    assert out == "" and written == []


def test_tree_cap_env_reaches_the_library(monkeypatch, capsys):
    # query-tree and the library share the fixed cap, whatever the
    # environment holds.
    monkeypatch.setenv("CLIQUEINDEX_TREE_CAP", "30")
    assert main(["query-tree", "--k", "5", "--levels", "25"]) == 1
    out, err = capsys.readouterr()
    assert "level count 25 exceeds the cap 24" in err and "Traceback" not in err
    assert out == ""
    for make in (build_tree_schema, iter_tree_blocks):
        with pytest.raises(OutOfRange, match="level count 25 exceeds the cap 24"):
            make(25)


def _no_traceback(capsys):
    err = capsys.readouterr().err
    assert "Traceback" not in err
    return err


def test_query_intervals_rejects_nan_endpoints(tmp_path, capsys):
    data = write(tmp_path / "iv.csv", "id,x,y\na,nan,nan\nb,1,2\n")
    assert main(["query-intervals", "--data", data, "--a", "0", "--b", "5"]) == 1
    assert "finite" in _no_traceback(capsys)


@pytest.mark.parametrize("bounds", [["--a", "nan", "--b", "nan"], ["--a", "nan", "--b", "5"], ["--a", "0", "--b", "nan"]])
@pytest.mark.parametrize("extra", [[], ["--out", "{out}"]])
def test_query_intervals_rejects_nan_bounds(tmp_path, capsys, bounds, extra):
    """A NaN bound exits 1 before any output: an --out file is left as it was."""
    data = write(tmp_path / "iv.csv", "id,x,y\na,0,1\nb,1,2\n")
    out = tmp_path / "answer.csv"
    out.write_bytes(b"kept\r\n")
    assert main(["query-intervals", "--data", data] + bounds + [arg.format(out=out) for arg in extra]) == 1
    assert "NaN" in _no_traceback(capsys)
    assert out.read_bytes() == b"kept\r\n"


def test_interval_csv_non_numeric_endpoint_names_the_line(tmp_path, capsys):
    data = write(tmp_path / "iv.csv", "id,x,y\na,0,1\nb,abc,2\n")
    assert main(["query-intervals", "--data", data, "--a", "0", "--b", "5"]) == 1
    assert "line 3" in _no_traceback(capsys)


@pytest.mark.parametrize("x, y, bad, why", [
    ("1_0", "20", "1_0", "numeric"),
    (" 3 ", "4", " 3 ", "numeric"),
    ("3", "\u0664", "\u0664", "numeric"),
    ("+nan", "4", "+nan", "finite"),
])
def test_interval_csv_endpoints_follow_the_measures_number_rule(tmp_path, capsys, x, y, bad, why):
    # float() reads each bad endpoint; the measures' CSV number syntax does not
    data = write(tmp_path / "iv.csv", f"id,x,y\na,0,1\nb,{x},{y}\n")
    assert main(["query-intervals", "--data", data, "--a", "3.5", "--b", "3.5"]) == 1
    assert _no_traceback(capsys).splitlines() == [f"error: {data} line 3: endpoint {bad!r} is not {why}"]


@pytest.mark.parametrize(
    "argv", [["query-intervals", "--a", "0", "--b", "1"], ["build", "intervals"]], ids=["query", "build"]
)
@pytest.mark.parametrize("row, why", [
    ("b,2,1", "interval 'b': upper 1.0 below lower 2.0"),
    ("b,1e999,1e999", "interval 'b': endpoints inf, inf must be finite numbers"),
], ids=["reversed", "infinite"])
def test_interval_csv_invalid_range_names_the_line(tmp_path, capsys, argv, row, why):
    # each endpoint is a CSV number; the interval they make is not valid
    data = write(tmp_path / "iv.csv", f"id,x,y\na,0,1\n{row}\n")
    assert main(argv + ["--data", data]) == 1
    assert _no_traceback(capsys).splitlines() == [f"error: {data} line 3: {why}"]


def test_interval_csv_reads_every_csv_number_form(tmp_path, capsys):
    data = write(tmp_path / "iv.csv", "id,x,y\na,-.5,1.\nb,+2,2.5e0\nc,1E1,12\n")
    for a, want in [("0", {"a"}), ("2.25", {"b"}), ("11", {"c"})]:
        assert main(["query-intervals", "--data", data, "--a", a, "--b", a]) == 0
        assert set(capsys.readouterr().out.split()) == want


# Each command that reads a header-keyed CSV: the input kind and the argv
# before the path.
CSV_READERS = {
    "materialize": ("function", ["materialize", "--function"]),
    "color": ("function", ["color", "--function"]),
    "build-intervals": ("intervals", ["build", "intervals", "--data"]),
    "query-intervals": ("intervals", ["query-intervals", "--a", "1", "--b", "2.5", "--data"]),
}

SHORT_ROW = {
    "function": ["entry,node\na,x\nb\nc,x\n", "node,entry\nx,a\nx\nx,c\n"],
    "intervals": ["id,x,y\na,1,2\nb,3\n", "x,y,id\n1,2,a\n3,4\n"],
}


@pytest.mark.parametrize("order", [0, 1], ids=["plain", "permuted"])
@pytest.mark.parametrize("command", ["materialize", "build-intervals", "query-intervals"])
def test_a_short_row_exits_one_naming_its_line(tmp_path, capsys, command, order):
    """A row too short to hold every named column is rejected at its line,
    whichever column it leaves out."""
    kind, argv = CSV_READERS[command]
    data = write(tmp_path / "in.csv", SHORT_ROW[kind][order])
    assert main(argv + [data]) == 1
    captured = capsys.readouterr()
    width = {"function": 2, "intervals": 3}[kind]
    assert captured.out == ""
    assert captured.err == f"error: {data} line 3: short row, {width - 1} of {width} fields\n"


@pytest.mark.parametrize("text", ["rid,acc,m\n0,8,1\n1,9\n", "acc,m,rid\n8,1,0\n9,1\n"], ids=["plain", "permuted"])
@pytest.mark.parametrize("command", ["query", "query-tree"])
def test_a_short_fact_row_exits_one_naming_its_line(tmp_path, capsys, command, text):
    clique = str(tmp_path / "clique.csv")
    assert main(["build", "tree", "--levels", "4", "--out", clique]) == 0
    facts = write(tmp_path / "fact.csv", text)
    capsys.readouterr()
    argv = {
        "query": ["query", "--fact", facts, "--clique", clique, "--expr", "c1='1'"],
        "query-tree": ["query-tree", "--levels", "4", "--k", "5", "--fact", facts],
    }[command]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {facts} line 3: short row, 2 of 3 fields\n"


def test_a_node_holding_a_crlf_joins_its_fact_rows(tmp_path, capsys):
    """The table and the fact file both keep the quoted "\r\n" of node
    "a\r\nb", so both fact rows resolve."""
    clique = tmp_path / "t.csv"
    clique.write_text(export_table(rows_table(1, {"a\r\nb": ("x",), "c": ("x",)})), encoding="utf-8", newline="")
    facts = tmp_path / "fact.csv"
    facts.write_bytes(b'rid,acc,m\n0,"a\r\nb",5\n1,c,7\n')
    query = ["query", "--fact", str(facts), "--clique", str(clique), "--expr", "c1='x'"]
    assert main(query + ["--sum"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert (payload["rows"], payload["sum"]) == (2, 12)
    assert main(query + ["--check"]) == 0
    assert capsys.readouterr().out == "rid\n0\n1\n"


def test_function_and_interval_files_keep_a_quoted_crlf(tmp_path, capsys):
    data = tmp_path / "iv.csv"
    data.write_bytes(b'id,x,y\n"i\r\n0",0,1\nj,5,6\n')
    assert main(["query-intervals", "--data", str(data), "--a", "0", "--b", "1"]) == 0
    assert capsys.readouterr().out == '"i\r\n0"\n'
    function = tmp_path / "f.csv"
    function.write_bytes(b'entry,node\r\n"g\r\n1","a\r\nb"\r\n"g\r\n1",c\r\n')
    table = tmp_path / "t.csv"
    assert main(["materialize", "--function", str(function), "--out", str(table)]) == 0
    assert dict(import_table(table).rows) == {"a\r\nb": ("g\r\n1",), "c": ("g\r\n1",)}


# One well-formed corpus of every CSV kind.  Its quoted fields hold line
# breaks of their own, kept verbatim whatever ends the lines.
ENDED_CORPUS = {
    "function": ["entry,node", 'g1,"p\r\nq"', "g1,b", "g2,b", '"g\n3",c', "g2,c"],
    "intervals": ["id,x,y", "i0,0,1", '"i\r\n1",0.5,2', "i2,3,4", "i3,1,1"],
    "fact": ["rid,acc,m", '2,"p\r\nq",1', "0,b,2", "1,c,3", "3,zz,4", '4,"p\r\nq",2.5'],
    "table": ["node,c1,c2", '"p\r\nq",g1,', "b,g1,g2", 'c,"g\n3",g2'],
    "tree_fact": ["acc,m,rid", "5,1,0", "10,2,2", "11,3,1", "3,4,3"],
    "edges": ["# a comment", "r\ta", "r\tb", "", "a\tc", 'b\t"q', "lonely\t"],
}
ENDED_COMMANDS = {
    "build-intervals": ["build", "intervals", "--data", "{intervals}"],
    "query-intervals": ["query-intervals", "--data", "{intervals}", "--a", "0.7", "--b", "1"],
    "color": ["color", "--function", "{function}"],
    "materialize": ["materialize", "--function", "{function}"],
    "index": ["index", "--fact", "{fact}", "--clique", "{table}"],
    "query": ["query", "--fact", "{fact}", "--clique", "{table}", "--expr", "c1='g1' & !c2='g2'"],
    "query-sum": ["query", "--fact", "{fact}", "--clique", "{table}", "--expr", "c2='g2'", "--sum"],
    "query-check": ["query", "--fact", "{fact}", "--clique", "{table}", "--expr", "c1='g\n3' | c1='g1'", "--check"],
    "query-tree": ["query-tree", "--levels", "4", "--k", "5", "--fact", "{tree_fact}"],
    "export": ["export", "--table", "{table}", "--compact-colors"],
    "build-dag": ["build", "dag", "--edges", "{edges}"],
    "color-edges": ["color", "--edges", "{edges}", "--map", "ancestors"],
    "materialize-edges": ["materialize", "--edges", "{edges}"],
}


@pytest.mark.parametrize("command", list(ENDED_COMMANDS))
def test_every_line_ending_prints_the_same_output(tmp_path, capsys, command):
    """Each command that reads CSV, over the corpus written with "\n",
    "\r\n" and "\r" line endings: same exit code, same stdout."""
    paths = {kind: tmp_path / f"{kind}.csv" for kind in ENDED_CORPUS}
    results = []
    for eol in ["\n", "\r\n", "\r"]:
        for kind, lines in ENDED_CORPUS.items():
            paths[kind].write_bytes((eol.join(lines) + eol).encode())
        code = main([arg.format(**paths) for arg in ENDED_COMMANDS[command]])
        results.append((code, capsys.readouterr().out))
    assert results[0][0] == 0 and results[0][1]
    assert results[1:] == results[:1] * 2



# Each input kind, a command that reads it ("{}" the file under test) and
# the file's text.
BOM_INPUTS = {
    "edges": (["materialize", "--edges", "{}"], "r\ta\nr\tb\na\tc\n"),
    "function": (["materialize", "--function", "{}"], "entry,node\ng1,a\ng1,b\ng2,b\n"),
    "intervals": (["query-intervals", "--data", "{}", "--a", "0", "--b", "1"], "id,x,y\ni0,0,1\ni1,2,3\n"),
    "fact": (["query", "--fact", "{}", "--clique", "{table}", "--expr", "c1='g1'", "--sum"], "rid,acc,m\n0,a,1\n1,b,2\n"),
    "table": (["export", "--table", "{}"], "node,c1,c2\na,g1,\nb,g1,g2\n"),
    "sidecar": (["materialize", "--function", "{function}", "--coloring", "{}"], '{"k": 2, "coloring": {"g1": 1, "g2": 2}}'),
}


@pytest.mark.parametrize("kind", list(BOM_INPUTS))
def test_a_leading_byte_order_mark_is_dropped(tmp_path, capsys, kind):
    """A file that starts with a UTF-8 byte-order mark prints exactly what
    the same file without it prints."""
    argv, text = BOM_INPUTS[kind]
    table = write(tmp_path / "t.csv", BOM_INPUTS["table"][1])
    function = write(tmp_path / "f.csv", BOM_INPUTS["function"][1])
    data = tmp_path / f"{kind}.in"
    results = []
    for bom in [b"", b"\xef\xbb\xbf"]:
        data.write_bytes(bom + text.encode())
        code = main([arg.format(data, table=table, function=function) for arg in argv])
        results.append((code, *capsys.readouterr()))
    assert results[0][0] == 0 and results[0][1]
    assert results[1] == results[0]

def reorder(text, names):
    """The CSV text with its columns in the order `names`; a name the header
    lacks is a column of filler."""
    header, *rows = csv.reader(io.StringIO(text))
    where = [header.index(name) if name in header else None for name in names]
    lines = [names] + [["z" if i is None else row[i] for i in where] for row in rows]
    return "".join(",".join(line) + "\n" for line in lines)


PLAIN = {
    "function": "entry,node\ng1,a\ng1,b\ng2,b\ng2,c\ng3,d\n",
    "intervals": INTERVALS_PIN_CSV,
}
ORDERS = {
    "function": [["node", "entry"], ["note", "node", "x", "entry"]],
    "intervals": [["y", "x", "id"], ["x", "note", "id", "y", "other"]],
}


@pytest.mark.parametrize("command", list(CSV_READERS))
def test_permuted_and_extra_columns_print_the_plain_output(tmp_path, capsys, command):
    kind, argv = CSV_READERS[command]
    data = tmp_path / "in.csv"
    outputs = []
    for text in [PLAIN[kind]] + [reorder(PLAIN[kind], names) for names in ORDERS[kind]]:
        write(data, text)
        assert main(argv + [str(data)]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] and outputs[1:] == outputs[:1] * 2


@pytest.mark.parametrize("bad, other", [("nan", "1"), ("inf", "-inf"), ("1e999", "2.5")])
def test_query_sum_rejects_a_non_finite_measure(tmp_path, capsys, bad, other):
    clique = str(tmp_path / "clique.csv")
    assert main(["build", "tree", "--levels", "4", "--out", clique]) == 0
    facts = write(tmp_path / "fact.csv", f"rid,acc,m\n0,8,{bad}\n1,9,{other}\n")
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["query", "--fact", facts, "--clique", clique, "--expr", "c3='4'", "--sum"]) == 1
    err = _no_traceback(capsys)
    assert err.splitlines() == [f"error: {facts} line 2: measure {bad!r} is not finite"]
    assert "Warning" not in err and not caught


@pytest.mark.parametrize("payload", [
    '{"k": 2}', '{"coloring": {}}', '{"k": "two", "coloring": {}}', "[1]", "{",
    '{"k": 2, "coloring": {"g1": 1}}', '{"k": 1, "coloring": {"g1": 1}, "provenance": [1]}',
])
def test_materialize_rejects_malformed_sidecar(tmp_path, capsys, payload):
    fn_csv = write(tmp_path / "f.csv", "entry,node\ng1,a\n")
    sidecar = write(tmp_path / "c.json", payload)
    assert main(["materialize", "--function", fn_csv, "--coloring", sidecar]) == 1
    assert "sidecar" in _no_traceback(capsys)


@pytest.mark.parametrize("color", [0, 3, -1])
def test_materialize_rejects_a_sidecar_color_outside_1_to_k(tmp_path, capsys, color):
    fn_csv = write(tmp_path / "f.csv", "entry,node\ng1,a\ng1,b\ng2,b\n")
    sidecar = write(tmp_path / "c.json", json.dumps({"k": 2, "coloring": {"g1": 1, "g2": color}}))
    assert main(["materialize", "--function", fn_csv, "--coloring", sidecar]) == 1
    assert f"entry 'g2' has color {color}, outside 1..2" in _no_traceback(capsys)


@pytest.mark.parametrize("value", ["Infinity", "-Infinity", "NaN", "1e400", "2.7", "true", "null", "99999999999999999999"])
@pytest.mark.parametrize("slot", ["k", "color"])
def test_materialize_rejects_a_sidecar_number_that_is_not_an_integer_in_range(tmp_path, capsys, slot, value):
    fn_csv = write(tmp_path / "f.csv", "entry,node\ng1,a\ng1,b\ng2,b\n")
    k, color = (value, "2") if slot == "k" else ("2", value)
    sidecar = write(tmp_path / "c.json", f'{{"k": {k}, "coloring": {{"g1": 1, "g2": {color}}}}}')
    assert main(["materialize", "--function", fn_csv, "--coloring", sidecar]) == 1
    err = _no_traceback(capsys)
    assert len(err.splitlines()) == 1 and err.startswith(f"error: sidecar {sidecar}: ")


@pytest.fixture
def tree_clique_csv(tmp_path, capsys):
    clique = str(tmp_path / "clique.csv")
    assert main(["build", "tree", "--levels", "4", "--out", clique]) == 0
    capsys.readouterr()
    return clique


@pytest.mark.parametrize("expr", [
    "!" * 5000 + "c3='4'",
    "(" * 5000 + "c3='4'" + ")" * 5000,
    "!" * 600 + "c3='4'",
    "!(" * (MAX_QUERY_DEPTH // 2) + "!c3='4'" + ")" * (MAX_QUERY_DEPTH // 2),
], ids=["5000 !", "5000 (", "600 !", "bound + 1"])
@pytest.mark.parametrize("extra", [[], ["--sum"], ["--check"]], ids=["rids", "sum", "check"])
def test_query_nested_past_the_bound_exits_one(fact_csv, tree_clique_csv, capsys, expr, extra):
    assert main(["query", "--fact", fact_csv, "--clique", tree_clique_csv, "--expr", expr, *extra]) == 1
    err = _no_traceback(capsys)
    assert err.splitlines() == [f"error: query nests deeper than {MAX_QUERY_DEPTH} levels of '!' and '('"]


@pytest.mark.parametrize("expr", [
    "!" * MAX_QUERY_DEPTH + "c3='4'",
    "(" * MAX_QUERY_DEPTH + "c3='4'" + ")" * MAX_QUERY_DEPTH,
    "!(" * (MAX_QUERY_DEPTH // 2) + "c3='4'" + ")" * (MAX_QUERY_DEPTH // 2),
], ids=["!", "(", "!("])
def test_query_at_the_nesting_bound_parses_evaluates_and_formats(fact_csv, tree_clique_csv, capsys, expr):
    """An even number of ! leaves c3='4', so the rids and sum are its own."""
    argv = ["query", "--fact", fact_csv, "--clique", tree_clique_csv]
    assert main(argv + ["--expr", "c3='4'"]) == 0
    want = capsys.readouterr().out
    assert main(argv + ["--expr", expr, "--check"]) == 0
    assert capsys.readouterr().out == want
    assert main(argv + ["--expr", "c3='4'", "--sum"]) == 0
    want_sum = json.loads(capsys.readouterr().out)
    assert main(argv + ["--expr", expr, "--sum"]) == 0
    got_sum = json.loads(capsys.readouterr().out)
    assert got_sum == {**want_sum, "expr": expr.replace("(", "").replace(")", "")}


def test_bench_rejects_fewer_than_two_levels(capsys):
    assert main(["bench", "--seed", "1", "--rows", "100", "--levels", "1"]) == 1
    assert "2 tree levels" in _no_traceback(capsys)


@pytest.mark.parametrize("bad", [
    ["--targets", "abc"], ["--targets", "1/0"], ["--targets", "nan"], ["--targets", "inf"],
    ["--targets", "-1"], ["--targets", "0"], ["--targets", "2"], ["--rows", "-5"],
], ids=lambda a: " ".join(a))
def test_bench_rejects_bad_arguments(capsys, bad):
    assert main(["bench", "--seed", "1", "--rows", "100", "--levels", "4"] + bad) == 1
    assert "error" in _no_traceback(capsys)


@pytest.mark.parametrize("edge", [["--targets", ""], ["--rows", "0"]], ids=lambda a: " ".join(a))
def test_bench_accepts_empty_targets_and_zero_rows(capsys, edge):
    assert main(["bench", "--seed", "1", "--rows", "100", "--levels", "4"] + edge) == 0
    assert capsys.readouterr().out.startswith("query_id,")


def test_query_missing_clique_file_is_an_os_error(fact_csv, tmp_path, capsys):
    missing = str(tmp_path / "missing.csv")
    assert main(["query", "--fact", fact_csv, "--clique", missing, "--expr", "c1='1'"]) == 1
    err = _no_traceback(capsys)
    assert "No such file" in err and "header" not in err


@pytest.mark.parametrize("argv, header", [
    ("export --table {}", "node,c1"),
    ("index --fact {} --clique {}", "rid,acc,m"),
    ("build intervals --data {}", "id,x,y"),
    ("materialize --function {}", "entry,node"),
], ids=["export", "index", "build-intervals", "materialize"])
def test_csv_field_over_the_csv_limit_exits_one(tmp_path, capsys, argv, header):
    field = "x" * (csv.field_size_limit() + 1)
    data = write(tmp_path / "big.csv", f"{header}\n{field}" + ",1" * header.count(",") + "\n")
    assert main([arg.format(data) for arg in argv.split()]) == 1
    err = _no_traceback(capsys)
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


def test_export_of_a_table_holding_carriage_returns_is_byte_stable(tmp_path):
    table = rows_table(2, {"a\rb": ("x\r\ny", None), "c\nd": (None, "z\r"), "plain": ("\r", "q")})
    first, second, third = (tmp_path / f"{name}.csv" for name in ("first", "second", "third"))
    first.write_text(export_table(table), encoding="utf-8", newline="")
    assert main(["export", "--table", str(first), "--out", str(second)]) == 0
    assert main(["export", "--table", str(second), "--out", str(third)]) == 0
    data = first.read_bytes()
    assert second.read_bytes() == data == third.read_bytes()
    assert dict(import_table(data.decode()).rows) == dict(table.rows)


def test_export_reads_lone_carriage_return_line_endings(tmp_path, capsys):
    table = tmp_path / "t.csv"
    table.write_bytes(b"node,c1\ra,x\rb,\r")
    assert main(["export", "--table", str(table)]) == 0
    assert capsys.readouterr().out == "node,c1\na,x\nb,\n"


@pytest.mark.parametrize("command", ["build-intervals", "export", "query", "materialize"])
def test_input_that_is_not_utf8_exits_one(fact_csv, tmp_path, capsys, command):
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"\xff\xfe")
    fn_csv = write(tmp_path / "f.csv", "entry,node\ng1,a\n")
    argv = {
        "build-intervals": ["build", "intervals", "--data", str(bad)],
        "export": ["export", "--table", str(bad)],
        "query": ["query", "--fact", fact_csv, "--clique", str(bad), "--expr", "c1='1'"],
        "materialize": ["materialize", "--function", fn_csv, "--coloring", str(bad)],
    }[command]
    assert main(argv) == 1
    assert "error" in _no_traceback(capsys)


@pytest.mark.parametrize("kind", ["fact", "table", "function", "interval"])
def test_input_that_is_not_utf8_names_its_file_and_line(tmp_path, capsys, kind):
    """The bad byte sits past the text layer's first decoded chunk and
    after a quoted line break, so it is found on the physical line 3004."""
    header, first, row = {
        "fact": ("rid,acc,m", '0,"a\nb",1', "{i},8,1"),
        "table": ("node,c1", '"a\nb",x', "n{i},x"),
        "function": ("entry,node", 'e,"a\nb"', "e{i},n{i}"),
        "interval": ("id,x,y", '"a\nb",0,1', "i{i},0,1"),
    }[kind]
    text = "\n".join([header, first] + [row.format(i=i) for i in range(1, 3001)]) + "\n"
    bad = tmp_path / "bad.csv"
    bad.write_bytes(text.encode() + b"\xff,0,1\n")
    table = tmp_path / "t.csv"
    assert main(["build", "tree", "--levels", "4", "--out", str(table)]) == 0
    argv = {
        "fact": ["query", "--fact", str(bad), "--clique", str(table), "--expr", "c1='1'"],
        "table": ["export", "--table", str(bad)],
        "function": ["materialize", "--function", str(bad)],
        "interval": ["build", "intervals", "--data", str(bad)],
    }[kind]
    capsys.readouterr()
    assert main(argv) == 1
    assert _no_traceback(capsys) == f"error: {bad} line 3004: byte 0xff is not UTF-8 (invalid start byte)\n"


ODD_IDS = ["a\nb", "c,d", "e\rf", ""]


def test_ids_that_need_quoting_read_back_through_csv(tmp_path, capsys):
    """query-intervals prints each id as a CSV field, the empty id as '""',
    and build intervals writes them as table nodes by the same rule."""
    data = tmp_path / "iv.csv"
    with open(data, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerows([["id", "x", "y"]] + [[i, 0, 1] for i in ODD_IDS])
    argv = ["query-intervals", "--data", str(data), "--a", "0", "--b", "1"]
    assert main(argv) == 0
    printed = capsys.readouterr().out
    assert printed == '""\n"a\nb"\n"c,d"\n"e\rf"\n'
    assert list(csv.reader(io.StringIO(printed, newline=""))) == [[i] for i in sorted(ODD_IDS)]
    out, table = tmp_path / "ids.csv", tmp_path / "t.csv"
    assert main(argv + ["--out", str(out)]) == 0
    assert out.read_bytes() == printed.encode()
    assert main(["build", "intervals", "--data", str(data), "--out", str(table)]) == 0
    with open(table, encoding="utf-8", newline="") as fh:
        assert sorted(row[0] for row in list(csv.reader(fh))[1:]) == sorted(ODD_IDS)


def test_a_failing_query_leaves_its_out_file_as_it_was(tmp_path, capsys, fact_csv):
    """The rids, --sum and --check: the output is opened only once the
    answer exists."""
    clique, out = tmp_path / "t.csv", tmp_path / "answer.csv"
    assert main(["build", "tree", "--levels", "4", "--out", str(clique)]) == 0
    out.write_bytes(b"kept\r\n")
    capsys.readouterr()
    argv = ["query", "--fact", fact_csv, "--clique", str(clique), "--expr", "c999='n0'", "--out", str(out)]
    for extra in [], ["--sum"], ["--check"]:
        assert main(argv + extra) == 1
        assert _no_traceback(capsys) == "error: column c999 outside 1..c4\n"
        assert out.read_bytes() == b"kept\r\n"


@pytest.mark.parametrize("command", ["materialize", "build intervals"])
@pytest.mark.parametrize("sidecar", ["nodir/s.json", None], ids=["sidecar", "default"])
def test_a_sidecar_that_cannot_be_opened_leaves_the_table_as_it_was(tmp_path, capsys, command, sidecar):
    """The sidecar, given or defaulted to <out>.sidecar.json, cannot be
    opened, so the table keeps its bytes."""
    if command == "materialize":
        argv = ["materialize", "--function", write(tmp_path / "f.csv", "entry,node\ng1,a\ng2,a\n")]
    else:
        argv = ["build", "intervals", "--data", write(tmp_path / "iv.csv", "id,x,y\na,0,2\nb,1,3\n")]
    table = tmp_path / "t.csv"
    table.write_bytes(b"kept\r\n")
    if sidecar is None:
        (tmp_path / "t.csv.sidecar.json").mkdir()  # a directory cannot be opened for writing
    else:
        argv += ["--sidecar", str(tmp_path / sidecar)]
    assert main(argv + ["--out", str(table)]) == 1
    err = _no_traceback(capsys)
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert table.read_bytes() == b"kept\r\n"


@pytest.mark.parametrize("command", ["materialize", "build intervals"])
def test_a_table_that_cannot_be_opened_leaves_the_sidecar_as_it_was(tmp_path, capsys, command):
    """Table and sidecar are replaced together: when --out cannot be
    written or names the sidecar's file, an existing sidecar keeps its
    bytes and no temporary file is left behind; when both can be written,
    both are, and nothing else."""
    if command == "materialize":
        argv = ["materialize", "--function", write(tmp_path / "f.csv", "entry,node\ng1,a\ng2,a\n")]
    else:
        argv = ["build", "intervals", "--data", write(tmp_path / "iv.csv", "id,x,y\na,0,2\nb,1,3\n")]
    sidecar = tmp_path / "s.json"
    sidecar.write_bytes(b"kept\r\n")
    before = sorted(tmp_path.iterdir())
    argv += ["--sidecar", str(sidecar)]
    assert main(argv + ["--out", str(tmp_path / "nodir" / "t.csv")]) == 1
    assert _no_traceback(capsys) == f"error: [Errno 2] No such file or directory: '{tmp_path / 'nodir' / 't.csv'}'\n"
    assert sidecar.read_bytes() == b"kept\r\n"
    assert sorted(tmp_path.iterdir()) == before
    assert main(argv + ["--out", str(sidecar)]) == 1
    assert _no_traceback(capsys) == f"error: two outputs name one file: {sidecar}, {sidecar}\n"
    assert sidecar.read_bytes() == b"kept\r\n"
    assert main(argv + ["--out", str(tmp_path / "t.csv")]) == 0
    assert json.loads(sidecar.read_text(encoding="utf-8"))["k"] == 2
    assert (tmp_path / "t.csv").read_text(encoding="utf-8").startswith("node,c1,c2\n")
    assert sorted(tmp_path.iterdir()) == sorted(before + [tmp_path / "t.csv"])


def test_build_dag_names_the_file_and_line_of_a_bad_edge_list(tmp_path, capsys):
    """Lines end in "\r" and "\r\n" and the bad byte sits past the text
    layer's first decoded chunk, so only a reread finds its line."""
    bad = tmp_path / "bad.tsv"
    bad.write_bytes(b"a\tb\r" + b"".join(b"n%d\tm%d\r\n" % (i, i) for i in range(3000)) + b"\xff\tq\n")
    assert main(["build", "dag", "--edges", str(bad)]) == 1
    assert _no_traceback(capsys) == f"error: {bad} line 3002: byte 0xff is not UTF-8 (invalid start byte)\n"
    bad.write_bytes(b"a\tb\rb\tc\td\n")
    assert main(["build", "dag", "--edges", str(bad)]) == 1
    assert _no_traceback(capsys) == f"error: {bad} line 2: expected 'source<TAB>target', got 'b\\tc\\td'\n"


def test_a_sidecar_that_is_not_utf8_names_its_file(tmp_path, capsys):
    function = write(tmp_path / "f.csv", "entry,node\ng1,a\n")
    sidecar = tmp_path / "c.json"
    sidecar.write_bytes(b'{"k": 1, "coloring": {"g\xff": 1}}')
    assert main(["materialize", "--function", function, "--coloring", str(sidecar)]) == 1
    assert _no_traceback(capsys) == f"error: sidecar {sidecar}: byte 0xff is not UTF-8 (invalid start byte)\n"
