import csv
import io
import random
import re
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cliqueindex import engine
from cliqueindex.bitset import CompressedBitset, union
from cliqueindex.cli import _verify_engine
from cliqueindex.corpus import random_expr, random_function
from cliqueindex.engine import (
    _parse_measure,
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
    Not,
    Or,
    parse_query,
    QueryStats,
    row_count,
    ScanOracle,
)
from cliqueindex.errors import (
    MalformedCsv,
    MalformedExpr,
    MeasureOverflow,
)
from cliqueindex.intersection import build_intersection_graph, greedy_color
from cliqueindex.schema import NULL, PostingIndex, Postings, materialize
from cliqueindex.tree import build_tree_schema
from conftest import rows_table


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


@pytest.mark.parametrize("m", ["1_0", " 7 ", "7 ", "1_0.5", "1e1_0", "", "+", ".", "1e", "0x10", "\u0663"])
def test_from_csv_rejects_measures_outside_csv_number_syntax(m):
    # int() and float() read digit-group underscores, padding and non-ASCII digits
    with pytest.raises(MalformedCsv, match="^" + re.escape(f"line 3: measure {m!r} is not numeric") + "$"):
        FactTable.from_csv(f"rid,acc,m\n0,a,1\n1,b,{m}\n")


def test_from_csv_reads_csv_number_syntax():
    text = "rid,acc,m\n" + "".join(f"{i},a,{m}\n" for i, m in enumerate(["7", "-7", "+7", "007", "1.5", "1.", ".5", "-2E-1"]))
    fact = FactTable.from_csv(text)
    assert fact.measures == [7, -7, 7, 7, 1.5, 1.0, 0.5, -0.2]
    assert [type(m) for m in fact.measures] == [int] * 4 + [float] * 4


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


@pytest.mark.parametrize("m", ["nan", "inf", "-Infinity", "1e999"])
def test_from_csv_rejects_non_finite_measure(m):
    with pytest.raises(MalformedCsv, match=f"measure '{m}' is not finite"):
        FactTable.from_csv(f"rid,acc,m\n0,a,1\n1,b,{m}\n")


def test_from_csv_acc_cast():
    fact = FactTable.from_csv("rid,acc,m\n0,8,1\n", acc_cast=int)
    assert fact.accs == [8]
    with pytest.raises(MalformedCsv):
        FactTable.from_csv("rid,acc,m\n0,x,1\n", acc_cast=int)


@pytest.mark.parametrize("eol", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
def test_from_csv_reads_every_line_ending_and_keeps_quoted_breaks(tmp_path, eol):
    text = eol.join(["rid,acc,m", '0,"a\r\nb",1', "1,b,2", '2,"\r",3', ""])
    path = tmp_path / "fact.csv"
    path.write_bytes(text.encode())
    for source in (text, path):
        fact = FactTable.from_csv(source)
        assert fact.accs == ["a\r\nb", "b", "\r"]
        assert fact.measures == [1, 2, 3]


@pytest.mark.parametrize("text, message", [
    ("rid,acc,m\n0,a\n", "line 2: short row, 2 of 3 fields"),
    ("acc,m,rid\na,1\n", "line 2: short row, 2 of 3 fields"),
    ('rid,acc,m\n0,"a\nb",1\n\n1,b\n', "line 5: short row, 2 of 3 fields"),
    ("rid,acc,m\n0,a,1\nr,b,1\n", "line 3: bad rid 'r'"),
    ("rid,acc,m\n0,a,1\n1,b,one\n", "line 3: measure 'one' is not numeric"),
])
def test_from_csv_names_the_line_of_a_bad_row(tmp_path, text, message):
    with pytest.raises(MalformedCsv) as exc:
        FactTable.from_csv(text)
    assert str(exc.value) == message
    path = tmp_path / "fact.csv"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(MalformedCsv) as exc:
        FactTable.from_csv(path)
    assert str(exc.value) == f"{path} {message}"


def reference_from_csv(text, acc_cast=None, where=""):
    """(accs, measures) in rid order, read through csv.DictReader; a row's
    error names its line, after `where`."""
    reader = csv.DictReader(io.StringIO(text, newline=""))
    names = reader.fieldnames or []
    # Each row's field count, for a short row's message: DictReader's rows
    # as lists, after the header.
    lengths = map(len, filter(None, csv.reader(io.StringIO(text, newline=""))))
    next(lengths, None)
    for required in ("rid", "acc", "m"):
        if required not in names:
            raise MalformedCsv(f"fact CSV is missing column {required!r}")
    width = max(len(names) - names[::-1].index(name) for name in ("rid", "acc", "m"))

    def error(text):
        return MalformedCsv(f"{where}line {reader.line_num}: {text}")

    rows = []
    for record, fields in zip(reader, lengths):
        if None in (record["rid"], record["acc"], record["m"]):
            raise error(f"short row, {fields} of {width} fields")
        try:
            rid = int(record["rid"])
        except ValueError:
            raise error(f"bad rid {record['rid']!r}") from None
        acc = record["acc"]
        if acc_cast is not None:
            try:
                acc = acc_cast(acc)
            except ValueError:
                raise error(f"bad acc {acc!r} for rid {rid}") from None
        try:
            rows.append((rid, acc, _parse_measure(record["m"])))
        except MalformedCsv as exc:
            raise error(str(exc)) from None
    if sorted(r[0] for r in rows) != list(range(len(rows))):
        raise MalformedCsv("rids are not contiguous 0..N-1")
    rows.sort(key=lambda r: r[0])
    return [r[1] for r in rows], [r[2] for r in rows]


@st.composite
def fact_csvs(draw):
    """Fact CSV text: rid, acc and m among extra (possibly repeated) columns
    in any order, shuffled rids, int and float measures, lines ended by
    "\n", "\r\n" or "\r", quoted fields holding line breaks, and now and
    then a blank line, a short row, a bad value or a rid out of place."""
    names = draw(st.permutations(["rid", "acc", "m"] + draw(st.lists(
        st.sampled_from(["x", "note", "acc", "m"]), max_size=2))))
    n = draw(st.integers(min_value=0, max_value=12))
    rids = draw(st.permutations(range(n)))
    eol = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    cells = {
        "rid": lambda rid: str(rid),
        "acc": lambda rid: draw(st.sampled_from(["7", "a", "b c", "", "-3", '"a\nb"', '"a\r\nb"', '"\r"'])),
        "m": lambda rid: draw(st.one_of(st.integers(-9, 9).map(str), st.sampled_from(["2.5", "1e3", "-0.5"]))),
    }
    lines = [",".join(names)]
    for rid in rids:
        row = [cells.get(name, lambda _: draw(st.sampled_from(["z", '"y\r\nz"'])))(rid) for name in names]
        fault = draw(st.integers(0, 40))
        if fault == 0:
            row[names.index("rid")] = draw(st.sampled_from(["-1", str(n), "r", str(rids[0])]))
        elif fault == 1:
            row[names.index("m")] = "x"
        elif fault == 2:
            row = row[: draw(st.integers(0, len(row) - 1))]
        elif fault == 3:
            row.append("extra")
        lines.append(",".join(row))
        if draw(st.integers(0, 8)) == 0:
            lines.append("")
    return eol.join(lines) + draw(st.sampled_from(["", eol]))


@pytest.fixture(scope="module")
def fact_path(tmp_path_factory):
    return tmp_path_factory.mktemp("facts") / "fact.csv"


@given(text=fact_csvs(), acc_cast=st.sampled_from([None, int]))
@settings(max_examples=300, deadline=None)
def test_from_csv_matches_the_dictreader_reading(fact_path, text, acc_cast):
    """The text, a file holding it read as a path, and the same file opened
    with newline="" read as DictReader reads them: same values, same errors,
    a row's error naming its line (and for the path, the file)."""
    fact_path.write_bytes(text.encode())
    with open(fact_path, encoding="utf-8", newline="") as fh:
        for source, where in ((text, ""), (fact_path, f"{fact_path} "), (fh, "")):
            try:
                want = reference_from_csv(text, acc_cast, where)
            except MalformedCsv as exc:
                with pytest.raises(MalformedCsv) as got:
                    FactTable.from_csv(source, acc_cast)
                assert str(got.value) == str(exc)
                continue
            fact = FactTable.from_csv(source, acc_cast)
            assert fact.accs == want[0]
            assert [(type(m), m) for m in fact.measures] == [(type(m), m) for m in want[1]]


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
        rows = [evaluate(Atom(col, e), idx).to_array() for e in clique.entries[col - 1]]
        assert np.array_equal(np.sort(np.concatenate(rows)), np.arange(fact.n))


def test_atom_posting_matches_scan(tree_setup):
    fact, clique, idx = tree_setup
    scan = ScanOracle(fact, clique)
    q = Atom(3, 5)
    assert np.array_equal(evaluate(q, idx).to_array(), scan.rid_array(q))


def test_absent_entry_evaluates_empty(tree_setup):
    fact, clique, idx = tree_setup
    assert evaluate(Atom(1, 999), idx).cardinality() == 0


def test_random_queries_match_scan(tree_setup, rng):
    fact, clique, idx = tree_setup
    scan = ScanOracle(fact, clique)
    for _ in range(120):
        q = random_expr(rng, clique)
        assert np.array_equal(evaluate(q, idx).to_array(), scan.rid_array(q)), format_query(q)


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
    assert evaluate(Atom(3, 4), idx).to_array().tolist() == [0]
    # row 2 references no table row, so it fails the atom and passes its negation
    assert evaluate(Not(Atom(3, 4)), idx).to_array().tolist() == [1, 2]
    scan = ScanOracle(fact, clique)
    assert scan.rid_array(Not(Atom(3, 4))).tolist() == [1, 2]


def test_scan_oracle_codes_only_the_columns_its_atoms_read():
    clique = build_tree_schema(4)
    fact = FactTable([8, 9, 3, 99], [1, 1, 1, 1])
    scan = ScanOracle(fact, clique)
    assert scan.rid_array(And((Atom(3, 4), Not(Atom(4, 9))))).tolist() == [0]
    assert sorted(scan._codes) == [3, 4]
    codes = clique.postings.codes(2)
    assert scan.row_codes(2).tolist() == [codes[2], codes[2], codes[3], -1]


def fact_row_postings(fact, clique):
    """The fact-row posting index node-space evaluation replaced: each
    column's postings copied into rid space, one row code per fact row."""
    scan = ScanOracle(fact, clique)
    return Postings.from_codes(fact.n, ((codes, scan.row_codes(i)) for i, codes in enumerate(clique.entries, 1)))


def fact_row_evaluate(q, postings):
    if isinstance(q, Atom):
        ids = postings.ids_of(q.col, q.entry)
        return CompressedBitset.empty(postings.n) if ids is None else CompressedBitset(postings.n, ids=ids)
    if isinstance(q, And):
        out = fact_row_evaluate(q.items[0], postings)
        for item in q.items[1:]:
            out = out & fact_row_evaluate(item, postings)
        return out
    if isinstance(q, Or):
        return union(postings.n, [fact_row_evaluate(item, postings) for item in q.items])
    return fact_row_evaluate(q.item, postings).complement()


MEASURES = {
    "int": lambda rng: rng.randint(-50, 50),
    "float": lambda rng: rng.uniform(-1e3, 1e3),
    "pyint": lambda rng: rng.choice([2 ** 70, -(2 ** 66)]) + rng.randint(-9, 9),
}


@given(seed=st.integers(0, 2 ** 32 - 1), kind=st.sampled_from(sorted(MEASURES)),
       layout=st.sampled_from(["shuffled", "acc-sorted", "table rows"]))
@settings(max_examples=200, deadline=None)
def test_node_space_matches_the_fact_row_postings(seed, kind, layout):
    rng = random.Random(seed)
    f = random_function(rng, max_entries=12, max_nodes=16)
    domain = sorted(f.node_domain()) + ["spare"]  # a node no entry holds
    clique = materialize(f, greedy_color(build_intersection_graph(f)), domain)
    if layout == "table rows":  # row j references node j
        accs = list(clique.rows)
    else:
        # Skewed acc frequencies, so that node sets expand to one node's
        # rows, to few rows and to many; "absent" rows are unresolved.
        weights = [rng.expovariate(1) ** 3 for _ in range(len(domain) + 1)]
        accs = rng.choices(domain + ["absent"], weights, k=rng.randint(0, 300))
        if layout == "acc-sorted":
            accs.sort(key=lambda a: (domain + ["absent"]).index(a))
    fact = FactTable(accs, [MEASURES[kind](rng) for _ in accs])
    idx = build_index(fact, clique)
    postings = fact_row_postings(fact, clique)
    exprs = [random_expr(rng, clique) for _ in range(12)]
    exprs += [Not(Atom(1, "@absent"))] + [Not(e) for e in exprs[:4]]
    for q in exprs:
        want = fact_row_evaluate(q, postings).to_array()
        got = evaluate(q, idx)
        assert got.n == fact.n and got.to_array().tolist() == want.tolist(), format_query(q)
        assert row_count(q, idx) == len(want)
        total, want_total = aggregate_sum(q, idx, fact), fact.measure_sum(want)
        assert (type(total), total) == (type(want_total), want_total), format_query(q)


def test_null_cells_never_match():
    clique = rows_table(2, {"u": ("a", NULL), "v": (NULL, "b")})
    fact = FactTable(["u", "v"], [1, 1])
    idx = build_index(fact, clique)
    scan = ScanOracle(fact, clique)
    for q in (Atom(2, "a"), Atom(1, "b")):
        assert evaluate(q, idx).cardinality() == 0
        assert scan.rid_array(q).size == 0


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


def test_aggregate_sum_of_the_int64_minimum_is_exact():
    # np.abs(-2**63) is -2**63 in int64: a bound taken from it would pass
    # these measures as safe int64 sums, and their sum would wrap
    clique = build_tree_schema(2)
    fact = FactTable([1, 1], [-(2 ** 63), -1])
    idx = build_index(fact, clique)
    assert fact.measure_data()[0] == "pyint"
    assert aggregate_sum(Atom(1, 1), idx, fact) == -(2 ** 63) - 1
    assert fact.measure_sum(evaluate(Atom(1, 1), idx).to_array()) == -(2 ** 63) - 1


def test_aggregate_sum_float_overflow_raises():
    clique = build_tree_schema(3)
    fact = FactTable([4, 5], [1e308, 1e308])
    idx = build_index(fact, clique)
    with pytest.raises(MeasureOverflow):
        aggregate_sum(Or((Atom(3, 4), Atom(3, 5))), idx, fact)


def test_aggregate_sum_of_opposite_overflows_raises_without_a_warning():
    # pairwise summation meets +inf and -inf partial sums, whose sum is nan
    clique = build_tree_schema(3)
    fact = FactTable([4, 5] * 8, [1e308, -1e308] * 8)
    idx = build_index(fact, clique)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(MeasureOverflow):
            aggregate_sum(Or((Atom(3, 4), Atom(3, 5))), idx, fact)


def test_selectivity_limits(tree_setup):
    fact, clique, idx = tree_setup
    taut = Or((Atom(1, 1), Not(Atom(1, 1))))
    assert row_count(taut, idx) / fact.n == 1.0
    contradiction = And((Atom(1, 1), Not(Atom(1, 1))))
    assert row_count(contradiction, idx) / fact.n == 0.0


def test_stats_count_atom_postings(tree_setup):
    fact, clique, idx = tree_setup
    q = Or((Atom(4, 8), Atom(4, 9)))
    result, stats = evaluate_with_stats(q, idx)
    assert stats.postings_touched == 2
    # Node postings read, then the rows their node set expands to.
    nodes = len(clique.column_preimage(4, 8)) + len(clique.column_preimage(4, 9))
    want = [r for r, a in enumerate(fact.accs) if a in (8, 9)]
    assert stats.ids_touched == nodes + len(want)
    assert stats.bytes_touched - 4 * nodes in (4 * len(want), 4 * fact.n)
    assert result.to_array().tolist() == want


def test_index_byte_size_positive(tree_setup):
    _, _, idx = tree_setup
    assert idx.byte_size() > 0


# -- node set -> rows (engine._expand) -----------------------------------------


def rows_through_acc(nodes, idx):
    """The route the others are checked against: the node set as a slot
    mask read through acc."""
    mask = np.zeros(idx.postings.n, dtype=bool)
    mask[nodes.to_array()] = True
    return np.flatnonzero(mask.take(idx.acc))


@st.composite
def expand_cases(draw):
    """A PostingIndex over N nodes holding 0-40 rows each (zero often, so
    runs span row-less nodes) in a drawn rid order, slot N holding the
    unresolved rows; a node set over the N + 1 slots in either form; and a
    run gate and cut around the set's row count."""
    n_nodes = draw(st.integers(1, 24))
    sizes = np.array(draw(st.lists(st.sampled_from([0, 0, 1, 3, 17, 40]), min_size=n_nodes + 1, max_size=n_nodes + 1)))
    acc = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1))).permutation(np.repeat(np.arange(n_nodes + 1), sizes))
    idx = PostingIndex(Postings(n_nodes, []), acc)
    slots = n_nodes + 1
    shape = draw(st.sampled_from(["any", "empty", "one", "all", "range"]))
    if shape == "any":
        chosen = sorted(draw(st.sets(st.integers(0, n_nodes))))
    elif shape == "range":  # abutting slices
        lo = draw(st.integers(0, n_nodes))
        chosen = list(range(lo, draw(st.integers(lo, slots))))
    else:
        chosen = {"empty": [], "one": [draw(st.integers(0, n_nodes))], "all": list(range(slots))}[shape]
    ids = np.array(chosen, dtype=np.int32)
    if draw(st.booleans()):
        nodes = CompressedBitset(slots, ids=ids)
    else:
        mask = np.zeros(slots, dtype=bool)
        mask[ids] = True
        nodes = CompressedBitset(slots, mask=mask)
    count = int(sizes[ids].sum())
    gate = draw(st.sampled_from([1, max(count, 1), count + 1]))
    cut = draw(st.integers(1, 128))
    return idx, nodes, gate, cut


@given(expand_cases())
@settings(max_examples=400, deadline=None)
def test_expand_matches_the_mask_through_acc(case):
    idx, nodes, gate, cut = case
    rows_before = idx.rows.copy()
    stats = QueryStats()
    with mock.patch.multiple(engine, _RUN_GATE=gate, _RUN_CUT=cut):
        got = engine._expand(nodes, idx, stats)
    want = rows_through_acc(nodes, idx)
    assert np.array_equal(got.to_array(), want)
    assert stats.ids_touched == len(want)
    assert stats.bytes_touched == (idx.acc.nbytes if got.mask is not None else 4 * len(want))
    assert np.array_equal(idx.rows, rows_before)


@given(levels=st.integers(2, 5), seed=st.integers(0, 2 ** 32 - 1),
       gate=st.sampled_from([1, 8, 10 ** 9]), cut=st.sampled_from([1, 4, 64]))
@settings(max_examples=150, deadline=None)
def test_expand_routes_match_the_scan(levels, seed, gate, cut):
    """Random queries on tree tables whose facts sit mostly on leaves, so
    the internal nodes hold no rows; some accs are internal or unresolved."""
    rng = random.Random(seed)
    clique = build_tree_schema(levels)
    leaf, top = 1 << (levels - 1), (1 << levels) - 1
    accs = [rng.choice([rng.randint(leaf, top)] * 6 + [rng.randint(1, top), 10 ** 9]) for _ in range(rng.randint(0, 300))]
    fact = FactTable(accs, [0] * len(accs))
    idx = build_index(fact, clique)
    scan = ScanOracle(fact, clique)
    with mock.patch.multiple(engine, _RUN_GATE=gate, _RUN_CUT=cut):
        for _ in range(10):
            q = random_expr(rng, clique)
            assert np.array_equal(evaluate(q, idx).to_array(), scan.rid_array(q)), format_query(q)


def test_verify_engine_suite_crosses_every_expand_threshold(monkeypatch):
    """verify's engine suite, from Random(7), agrees with the scan and expands
    100 k-row node sets on both sides of n / 4, the 2^15-row run gate and
    n / 2, some of them by the run copy."""
    rows, runs, expanded, answered = engine._rows, engine._runs, [], []
    monkeypatch.setattr(engine, "_rows", lambda nodes, idx, count: expanded.append((count, idx.n)) or rows(nodes, idx, count))
    monkeypatch.setattr(engine, "_runs", lambda *args: answered.append(runs(*args)) or answered[-1])
    assert all(ok for ok, _ in _verify_engine(random.Random(7), 1.0))
    bands = {sum(count >= cut for cut in (n / 4, engine._RUN_GATE, n / 2)) for count, n in expanded if n == 100_000}
    assert bands == {0, 1, 2, 3}
    assert any(r is not None for r in answered)


# -- bench ---------------------------------------------------------------------


def read_bench_csv(text):
    rows = list(csv.DictReader(io.StringIO(text)))
    return rows


def test_bench_deterministic_outside_timing_columns():
    spec = BenchSpec(seed=11, rows=4000, levels=8)
    a = read_bench_csv(bench(spec))
    b = read_bench_csv(bench(spec))
    assert len(a) == len(b) == 2
    stable = [c for c in BENCH_COLUMNS if c not in ("index_ms", "scan_ms", "speedup")]
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
