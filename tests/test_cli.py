import csv
import json
import random

import pytest

from cliqueindex.cli import main
from cliqueindex.schema import import_table

from conftest import GOLDEN_TREE_4, PAIR_EDGES


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
    with pytest.raises(SystemExit) as exc:
        main(["query"])
    assert exc.value.code == 1


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
    t = import_table(str(table_csv), node_cast=int, entry_cast=int)
    assert t.k == payload["k"]
    assert len(t) == 10
    # rows carry ancestors: a sink's row names every source covering it
    assert set(t.rows[1]) - {None} == {1, 12, 13, 14}


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
    t = import_table(str(table_csv), node_cast=int, entry_cast=int)
    # rows now carry descendants instead
    assert set(t.rows[12]) - {None} == {1, 2, 12}


def test_materialize_function_csv(tmp_path):
    fn_csv = write(tmp_path / "f.csv", "entry,node\ng1,a\ng1,b\ng2,b\ng2,c\n")
    out = tmp_path / "t.csv"
    assert main(["materialize", "--function", fn_csv, "--out", str(out)]) == 0
    t = import_table(str(out))
    assert t.k == 2
    assert set(t.nodes()) == {"a", "b", "c"}


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
    for extra in ([], ["--bucketed"]):
        assert main(["query-intervals", "--data", data, "--a", "10", "--b", "12"] + extra) == 0
        got = set(capsys.readouterr().out.split())
        want = {i for i, x, y in ivs if x <= 12 and y >= 10}
        assert got == want


def test_build_intervals_emits_table_and_sidecar(tmp_path, capsys):
    data = write(tmp_path / "iv.csv", "id,x,y\na,0,2\nb,1,3\n")
    out = tmp_path / "clique.csv"
    sidecar = tmp_path / "c.json"
    assert main([
        "build", "intervals", "--data", data,
        "--out", str(out), "--sidecar", str(sidecar),
    ]) == 0
    assert "k=2" in capsys.readouterr().err
    t = import_table(str(out))
    assert t.k == 2
    assert json.loads(sidecar.read_text())["k"] == 2


def test_query_tree_ids(capsys):
    assert main(["query-tree", "--levels", "4", "--k", "5"]) == 0
    assert {int(v) for v in capsys.readouterr().out.split()} == {1, 2, 5, 10, 11}


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
    t = import_table(str(out))
    assert t.k == 1
    assert t.cell("u", 1) == "a"


def test_tree_cap_env_override(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("CLIQUEINDEX_TREE_CAP", "3")
    assert main(["build", "tree", "--levels", "4"]) == 1
    assert "cap" in capsys.readouterr().err
