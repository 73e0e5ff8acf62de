import csv
import io
import random

import pytest

from cliqueindex.corpus import random_expr
from cliqueindex.engine import (
    aggregate_sum,
    And,
    Atom,
    BENCH_COLUMNS,
    bench,
    BenchSpec,
    build_index,
    evaluate,
    evaluate_with_stats,
    FactTable,
    format_query,
    full_scan_oracle,
    Not,
    Or,
    parse_query,
    ScanOracle,
    selectivity,
    TIMING_COLUMNS,
)
from cliqueindex.errors import (
    EmptyFactTable,
    MalformedCsv,
    MalformedExpr,
    MeasureOverflow,
)
from cliqueindex.schema import CliqueTable, NULL
from cliqueindex.tree import build_tree_schema


def make_fact(n=800, seed=5, levels=4):
    rng = random.Random(seed)
    lo, hi = 2 ** (levels - 1), 2 ** levels - 1
    accs = [rng.randint(lo, hi) for _ in range(n)]
    measures = [rng.randint(0, 9) for _ in range(n)]
    return FactTable(accs, measures)


@pytest.fixture
def tree_setup():
    clique = build_tree_schema(4)
    fact = make_fact()
    return fact, clique, build_index(fact, clique)


# -- CSV ingestion -------------------------------------------------------------


def test_from_csv_accepts_shuffled_rids():
    text = "rid,acc,m\n2,a,1\n0,b,2\n1,c,3\n"
    fact = FactTable.from_csv(text)
    assert fact.accs == ["b", "c", "a"]
    assert fact.measures == [2, 3, 1]


def test_from_csv_parses_int_and_float_measures():
    fact = FactTable.from_csv("rid,acc,m\n0,a,3\n1,b,2.5\n")
    assert fact.measures == [3, 2.5]
    assert type(fact.measures[0]) is int


def test_from_csv_ignores_extra_columns():
    fact = FactTable.from_csv("rid,acc,m,junk\n0,a,1,zzz\n")
    assert fact.n == 1


def test_from_csv_missing_column():
    with pytest.raises(MalformedCsv):
        FactTable.from_csv("rid,acc\n0,a\n")


def test_from_csv_rejects_gapped_rids():
    with pytest.raises(MalformedCsv):
        FactTable.from_csv("rid,acc,m\n0,a,1\n2,b,1\n")
    with pytest.raises(MalformedCsv):
        FactTable.from_csv(f"rid,acc,m\n0,a,1\n{2**70},b,1\n")


def test_from_csv_rejects_duplicated_rid():
    with pytest.raises(MalformedCsv):
        FactTable.from_csv("rid,acc,m\n0,a,1\n1,b,1\n1,c,1\n")


def test_from_csv_rejects_negative_rid():
    with pytest.raises(MalformedCsv):
        FactTable.from_csv("rid,acc,m\n0,a,1\n-1,b,1\n")


def test_from_csv_rejects_bad_measure():
    with pytest.raises(MalformedCsv):
        FactTable.from_csv("rid,acc,m\n0,a,one\n")


def test_from_csv_acc_cast():
    fact = FactTable.from_csv("rid,acc,m\n0,8,1\n", acc_cast=int)
    assert fact.accs == [8]
    with pytest.raises(MalformedCsv):
        FactTable.from_csv("rid,acc,m\n0,x,1\n", acc_cast=int)


# -- query mini-language ---------------------------------------------------------


def test_parse_atom():
    assert parse_query("c2='GO:42'") == Atom(2, "GO:42")


def test_parse_precedence_not_and_or():
    q = parse_query("c1='a' | c2='b' & !c3='c'")
    assert q == Or((Atom(1, "a"), And((Atom(2, "b"), Not(Atom(3, "c"))))))


def test_parse_parentheses_override():
    q = parse_query("(c1='a' | c2='b') & c3='c'")
    assert q == And((Or((Atom(1, "a"), Atom(2, "b"))), Atom(3, "c")))


def test_parse_double_negation():
    assert parse_query("!!c1='a'") == Not(Not(Atom(1, "a")))


def test_format_parse_round_trip(tree_setup):
    rng = random.Random(9)
    _, clique, _ = tree_setup
    for text in (
        "c1='a'",
        "!c1='a' & c2='b'",
        "(c1='a' | c2='b') & !(c3='c' | c4='d')",
        "c1='a' | c2='b' | c3='c'",
    ):
        q = parse_query(text)
        assert parse_query(format_query(q)) == q


def test_parse_rejects_bad_input():
    for text in ("", "c0='a'", "c1=", "c1='a' &", "(c1='a'", "c1='a')", "c1='a' zzz", "&"):
        with pytest.raises(MalformedExpr):
            parse_query(text)


def test_evaluate_rejects_out_of_range_column(tree_setup):
    fact, clique, idx = tree_setup
    with pytest.raises(MalformedExpr):
        evaluate(Atom(5, 8), idx)


# -- postings and evaluation -----------------------------------------------------


def test_postings_partition_each_column(tree_setup):
    fact, clique, idx = tree_setup
    for col in range(1, clique.k + 1):
        total = sum(
            p.cardinality() for (c, _), p in idx.postings.items() if c == col
        )
        assert total == fact.n


def test_atom_posting_matches_scan(tree_setup):
    fact, clique, idx = tree_setup
    scan = ScanOracle(fact, clique)
    q = Atom(3, 5)
    assert set(evaluate(q, idx)) == scan.rids(q)


def test_absent_entry_evaluates_empty(tree_setup):
    fact, clique, idx = tree_setup
    assert evaluate(Atom(1, 999), idx).cardinality() == 0


def test_random_queries_match_scan(tree_setup, rng):
    fact, clique, idx = tree_setup
    scan = ScanOracle(fact, clique)
    for _ in range(120):
        q = random_expr(rng, clique)
        assert set(evaluate(q, idx)) == scan.rids(q), format_query(q)


def test_de_morgan(tree_setup, rng):
    fact, clique, idx = tree_setup
    for _ in range(40):
        a = random_expr(rng, clique, depth=1)
        b = random_expr(rng, clique, depth=1)
        lhs = evaluate(Not(And((a, b))), idx)
        rhs = evaluate(Or((Not(a), Not(b))), idx)
        assert lhs == rhs


def test_not_includes_unresolved_rows():
    clique = build_tree_schema(3)
    fact = FactTable([4, 5, 99], [1, 1, 1])
    idx = build_index(fact, clique)
    assert idx.unresolved == 1
    assert set(evaluate(Atom(3, 4), idx)) == {0}
    # row 2 references no table row, so it fails the atom and passes its negation
    assert set(evaluate(Not(Atom(3, 4)), idx)) == {1, 2}
    scan = ScanOracle(fact, clique)
    assert scan.rids(Not(Atom(3, 4))) == {1, 2}


def test_full_scan_oracle_helper(tree_setup):
    fact, clique, _ = tree_setup
    q = Or((Atom(4, 8), Atom(4, 9)))
    want = {r for r, a in enumerate(fact.accs) if a in (8, 9)}
    assert full_scan_oracle(q, fact, clique) == want


def test_null_cells_never_match():
    clique = CliqueTable(2, {"u": ("a", NULL), "v": (NULL, "b")})
    fact = FactTable(["u", "v"], [1, 1])
    idx = build_index(fact, clique)
    scan = ScanOracle(fact, clique)
    for q in (Atom(2, "a"), Atom(1, "b")):
        assert evaluate(q, idx).cardinality() == 0
        assert scan.rids(q) == set()


def test_aggregate_sum_matches_scan(tree_setup, rng):
    fact, clique, idx = tree_setup
    scan = ScanOracle(fact, clique)
    for _ in range(40):
        q = random_expr(rng, clique)
        assert aggregate_sum(q, idx, fact) == scan.sum_measure(q)


def test_aggregate_sum_empty_is_zero(tree_setup):
    fact, clique, idx = tree_setup
    assert aggregate_sum(Atom(1, 999), idx, fact) == 0


def test_aggregate_sum_huge_ints_are_exact():
    clique = build_tree_schema(3)
    fact = FactTable([4, 5], [2 ** 70, 1])
    idx = build_index(fact, clique)
    q = Or((Atom(3, 4), Atom(3, 5)))
    assert aggregate_sum(q, idx, fact) == 2 ** 70 + 1


def test_aggregate_sum_float_overflow_raises():
    clique = build_tree_schema(3)
    fact = FactTable([4, 5], [1e308, 1e308])
    idx = build_index(fact, clique)
    with pytest.raises(MeasureOverflow):
        aggregate_sum(Or((Atom(3, 4), Atom(3, 5))), idx, fact)


def test_selectivity_limits(tree_setup):
    fact, clique, idx = tree_setup
    taut = Or((Atom(1, 1), Not(Atom(1, 1))))
    assert selectivity(taut, idx, fact) == 1.0
    contradiction = And((Atom(1, 1), Not(Atom(1, 1))))
    assert selectivity(contradiction, idx, fact) == 0.0


def test_selectivity_empty_fact_raises():
    clique = build_tree_schema(2)
    fact = FactTable([], [])
    idx = build_index(fact, clique)
    with pytest.raises(EmptyFactTable):
        selectivity(Atom(1, 1), idx, fact)


def test_stats_count_atom_postings(tree_setup):
    fact, clique, idx = tree_setup
    q = Or((Atom(4, 8), Atom(4, 9)))
    result, stats = evaluate_with_stats(q, idx)
    assert stats.postings_touched == 2
    card8 = idx.postings[(4, 8)].cardinality()
    card9 = idx.postings[(4, 9)].cardinality()
    assert stats.ids_touched == card8 + card9
    assert stats.bytes_touched > 0
    assert result.cardinality() == card8 + card9


def test_index_byte_size_positive(tree_setup):
    _, _, idx = tree_setup
    assert idx.byte_size() > 0
    assert len(idx.cardinalities()) == len(idx.postings)


# -- bench ---------------------------------------------------------------------


def read_bench_csv(text):
    rows = list(csv.DictReader(io.StringIO(text)))
    return rows


def test_bench_deterministic_outside_timing_columns():
    spec = BenchSpec(seed=11, rows=4000, levels=8)
    a = read_bench_csv(bench(spec))
    b = read_bench_csv(bench(spec))
    assert len(a) == len(b) == 2
    stable = [c for c in BENCH_COLUMNS if c not in TIMING_COLUMNS]
    for ra, rb in zip(a, b):
        for col in stable:
            assert ra[col] == rb[col], col


def test_bench_different_seeds_differ():
    a = read_bench_csv(bench(BenchSpec(seed=1, rows=4000, levels=8)))
    b = read_bench_csv(bench(BenchSpec(seed=2, rows=4000, levels=8)))
    assert any(ra["expr"] != rb["expr"] for ra, rb in zip(a, b))


def test_bench_hits_selectivity_targets():
    rows = read_bench_csv(bench(BenchSpec(seed=3, rows=60000, levels=10)))
    for row in rows:
        target = float(row["target_sigma"])
        achieved = float(row["achieved_sigma"])
        assert abs(achieved - target) <= 0.5 * target
        n = 60000
        assert int(row["ids_touched"]) <= 2 * achieved * n + 1024


def test_bench_empty_targets_yields_header_only():
    text = bench(BenchSpec(seed=1, rows=100, levels=4, targets=()))
    lines = text.strip().splitlines()
    assert lines == [",".join(BENCH_COLUMNS)]
