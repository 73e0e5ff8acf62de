"""Self-tests of the benchmark, at a scale that runs in a few seconds.

Count fields must repeat exactly for one seed, another seed must change
the generated inputs, and a wrong reference must fail the run.
"""

from __future__ import annotations

import json
import time

import pytest

import run

run.load_workloads()

import workloads  # noqa: E402  (needs the package path set by load_workloads)
from tracer import Tracer  # noqa: E402

SCALE = 0.02
COUNT_FIELDS = (
    "schema_width",
    "engine.result_rows",
    "engine.ids_touched",
    "engine.postings",
    "endpoints.answer_ids",
    "tree.answer_ids",
)


def small_run(name: str, seed: int) -> dict:
    return run.measure(name, seed, seconds=0, trace=True, scale=SCALE, min_ops=48)


def inputs(name: str, seed: int):
    wl = workloads.WORKLOADS[name](seed, SCALE)
    if name == "tree_overlap":  # the table is fixed; the seed picks the queried ids
        return wl.queries
    if name == "interval_stab":
        return wl.records
    return getattr(wl, "tsv", "") + wl.csv


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_same_counts(name):
    first, second = small_run(name, 7), small_run(name, 7)
    for r in (first, second):
        assert r["correct"] and r["failed"] == 0
    assert first["attempted"] == second["attempted"]
    for field in COUNT_FIELDS:
        assert first["values"].get(field) == second["values"].get(field), field
    assert inputs(name, 7) == inputs(name, 7)
    assert inputs(name, 7) != inputs(name, 8)


def test_result_line_holds_exactly_the_declared_metrics():
    spec = run.load_spec()
    r = small_run("interval_stab", 1)
    traced = run.result_line(r, spec, trace=True)
    assert list(traced["metrics"]) == [m["name"] for m in spec["per_layer"]]
    r = run.measure("interval_stab", 1, seconds=0, trace=False, scale=SCALE, min_ops=16)
    plain = run.result_line(r, spec, trace=False)
    assert list(plain["metrics"]) == [m["name"] for m in spec["end_to_end"]]
    assert all(plain["metrics"][m]["value"] > 0 for m in plain["metrics"])


def test_wrong_reference_fails_the_run(monkeypatch, capsys):
    real = workloads.oracle_interval_intersections
    monkeypatch.setattr(workloads, "oracle_interval_intersections",
                        lambda records, a, b: real(records, a, b) | {-1})
    r = run.measure("interval_stab", 1, seconds=0, trace=False, scale=SCALE, min_ops=16)
    assert not r["correct"] and r["failed"] == r["attempted"] > 0
    assert run.report("interval_stab", 1, r, run.load_spec(), False, run.stamp()) == 1
    assert json.loads(capsys.readouterr().out.splitlines()[-1])["correct"] is False


def test_trace_accounting_matches_the_measured_time():
    tr = Tracer(True)
    t0 = time.perf_counter_ns()
    with tr.span("setup"):
        tr.call("engine.build_index", time.sleep, 0.002)
        with tr.span("tree.overlap_query"):
            tr.call("bitset.to_array", time.sleep, 0.001)
    measured = time.perf_counter_ns() - t0
    acct = tr.accounting(measured, run.ROOT_SPAN_NS)
    assert acct["self_ns"]["engine"] >= 2_000_000 and acct["self_ns"]["bitset"] >= 1_000_000
    assert sum(acct["self_ns"].values()) + acct["unattributed_ns"] == acct["wall_ns"]
    time.sleep(0.001)  # work the spans did not record
    with pytest.raises(ValueError):
        tr.accounting(time.perf_counter_ns() - t0, run.ROOT_SPAN_NS)


def test_layer_notes_cover_every_per_layer_metric():
    spec = run.load_spec()
    with open(run.HERE / "layers.json", encoding="utf-8") as fh:
        notes = json.load(fh)
    assert list(notes) == [m["name"] for m in spec["per_layer"]]
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    names = {w["name"] for w in spec["workloads"]}
    for note in notes.values():
        assert set(note["moves"]) <= end_to_end and set(note["on"]) <= names
