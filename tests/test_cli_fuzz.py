"""CLI contract under any input bytes: main() returns 0, 1 or 2 and raises
nothing, whatever one input file holds while the others are well formed.

Each input kind draws either raw bytes or text shaped like the format (its
header, with named columns in any order and now and then one extra, then
rows of tokens that mix numbers, non-finite and out-of-range values, quotes
and quoted line breaks, every line ended by one of "\n", "\r\n" and
"\r"), so that the parsers get past the header; sidecars also draw JSON
numbers that are not integers or do not fit one.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from cliqueindex.cli import main

GOOD = {
    "edges": "a\tb\nb\tc\nd\t\n",
    "function": "entry,node\ng1,a\ng1,b\ng2,b\n",
    "intervals": "id,x,y\ni0,0,1\ni1,0.5,2\n",
    "fact": "rid,acc,m\n0,5,1\n1,10,2\n2,11,3\n",
    "table": "node,c1,c2\n5,1,2\n10,1,2\n11,1,3\n",
    "sidecar": '{"k": 2, "coloring": {"g1": 1, "g2": 2}}',
}

# Every command that reads the kind, with the other inputs well formed.
COMMANDS = {
    "edges": [
        ["build", "dag", "--edges", "{edges}"],
        ["color", "--edges", "{edges}", "--map", "ancestors"],
        ["materialize", "--edges", "{edges}"],
    ],
    "function": [
        ["color", "--function", "{function}"],
        ["materialize", "--function", "{function}", "--coloring", "{sidecar}"],
    ],
    "intervals": [
        ["build", "intervals", "--data", "{intervals}"],
        ["query-intervals", "--data", "{intervals}", "--a", "0", "--b", "1"],
    ],
    "fact": [
        ["query", "--fact", "{fact}", "--clique", "{table}", "--expr", "c1='1' & !c2='3'", "--sum", "--check"],
        ["query-tree", "--levels", "4", "--k", "5", "--fact", "{fact}"],
    ],
    "table": [
        ["export", "--table", "{table}", "--compact-colors"],
        ["query", "--fact", "{fact}", "--clique", "{table}", "--expr", "c2='2' | c1='x'", "--check"],
    ],
    "sidecar": [
        ["materialize", "--function", "{function}", "--coloring", "{sidecar}"],
    ],
}


def header(names):
    """The names in any order, now and then with one extra column (a filler
    or a repeated name) anywhere among them."""
    extra = st.lists(st.sampled_from(["note", *names]), max_size=1)
    return extra.flatmap(lambda more: st.permutations(names + more)).map(",".join)


HEADERS = {
    "edges": st.just(""),
    "function": header(["entry", "node"]),
    "intervals": header(["id", "x", "y"]),
    "fact": header(["rid", "acc", "m"]),
    "table": st.just("node,c1,c2"),
}

TOKENS = ["0", "1", "2", "5", "-1", "2.5", "-0", "1e400", "nan", "inf", "-inf", "1_0", " 7 ",
          "99999999999999999999", "", "a", "b", "g1", '"', '"x,y"', "\r", "\x00", "é",
          '"a\nb"', '"a\r\nb"', '"\r"']

JSON_NUMBERS = ["0", "1", "2", "-1", "2.7", "1e400", "-1e400", "Infinity", "NaN", "true", "null",
                '"2"', "99999999999999999999", "[1]", "{}"]

field = st.one_of(st.sampled_from(TOKENS), st.text(max_size=4))


def shaped(kind):
    sep = "\t" if kind == "edges" else ","
    row = st.lists(field, min_size=1, max_size=4).map(sep.join)
    eol = st.sampled_from(["\n", "\r\n", "\r"])
    parts = st.tuples(eol, HEADERS[kind], st.lists(row, max_size=6))
    return parts.map(lambda p: p[0].join([p[1], *p[2]]).encode())


number = st.one_of(st.sampled_from(JSON_NUMBERS), st.integers().map(str))
sidecar = st.tuples(number, number, number, st.sampled_from(["{}", "[1]", '"x"', '{"map": 3}'])).map(
    lambda v: ('{"k": %s, "coloring": {"g1": %s, "g2": %s}, "provenance": %s}' % v).encode()
)

INPUT = {kind: st.one_of(st.binary(max_size=120), shaped(kind)) for kind in HEADERS}
INPUT["sidecar"] = st.one_of(st.binary(max_size=120), sidecar)


@pytest.mark.parametrize("kind", list(COMMANDS))
@settings(max_examples=40, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_any_bytes_in_an_input_file_exit_cleanly(tmp_path, capsys, kind, data):
    paths = {}
    for name, text in GOOD.items():
        paths[name] = tmp_path / f"{name}.in"
        paths[name].write_text(text, encoding="utf-8")
    blob = data.draw(INPUT[kind], label=kind)
    paths[kind].write_bytes(blob)
    for argv in COMMANDS[kind]:
        argv = [arg.format(**paths) for arg in argv]
        assert main(argv + ["--out", str(tmp_path / "out")]) in (0, 1, 2), argv
        capsys.readouterr()
