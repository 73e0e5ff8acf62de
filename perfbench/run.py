"""Seeded end-to-end and per-layer benchmark of cliqueindex.

    python3 perfbench/run.py --workload tree_facts --seed 1 --seconds 6 --trace 0
    python3 perfbench/run.py --workload all --seed 1

One workload per process.  The command generates the workload from the
seed, sets it up at least SETUP_REPS times (setup_s is the median), then runs a
closed loop with one client: each op is issued when the previous one
returns, cycling through a seeded order of the workload's op pool, until
``--seconds`` of op time have passed and at least MIN_OPS ops have run.
Latency percentiles and throughput are taken per slice of whole passes
over the pool and reported as the median over slices, scaled to a
reference host speed by a probe timed between op batches (SpeedProbe).
Every answer is compared with an independent reference outside the timed
region; a mismatch or an exception counts as a failed op and makes the
exit status 1.

With ``--trace 0`` the last stdout line holds the end-to-end metrics of
BENCHMARK.json; with ``--trace 1`` it holds the per-layer metrics: the
loop first runs untraced for half the time, then replays the same ops
with a span around every call into the library, and the spans of the set
ups and the replay give each layer's self time.  ``--workload all`` runs
every workload untraced and traced, each in a fresh process, and prints
all metrics.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
if __name__ == "__main__":
    # Pinned before numpy is imported, so that no library starts a thread pool.
    for _var in THREAD_VARS:
        os.environ[_var] = "1"

import argparse
import gc
import hashlib
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from tracer import LAYERS, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = ROOT / "src" / "cliqueindex"
OUT = HERE / "out"

SETUP_REPS = 3  # at least this many set-ups, and more, up to SETUP_MAX_REPS,
SETUP_MIN_NS = 2_000_000_000  # until they have taken this long together
SETUP_MAX_REPS = 15
MIN_OPS = 200
BATCH = 16  # ops run back to back between two rounds of answer checks
REF_REPS = 3  # warm runs of each reference timed for *.index_vs_scan
# Allowed gap between the traced wall and the same work timed without the
# tracer: the cost of entering and leaving each root span (about 15 us seen)
# plus a share for pauses, such as garbage collections, that fall between
# spans (up to 0.5% seen).
ROOT_SPAN_NS = 50_000
GAP_FRAC = 0.01
# The speed of a process on a shared host drifts by up to 2x over minutes,
# and the ops and any other work slow together.  Op latencies and
# throughput are therefore scaled to a reference host speed: a fixed probe
# is timed between op batches, and each op time is multiplied by
# PROBE_REF_NS over the probe's median in the run.  setup_s is not scaled:
# a set-up is seconds of allocation-heavy work that the probe does not
# follow (scaling it widened its spread across runs).
PROBE_REF_NS = 5_000_000
PROBE_EVERY_NS = 250_000_000  # op time between two rounds of 3 probes

# Per-layer times taken from set-up spans: median over the set-ups of the
# summed durations of these calls.
SETUP_SPANS = {
    "digraph.ingest_s": ("digraph.read_edge_list", "digraph.build_digraph"),
    "digraph.closure_s": ("digraph.descendant_set_function",),
    "intersection.graph_s": ("intersection.build_intersection_graph",),
    "intersection.color_s": ("intersection.greedy_color",),
    "schema.materialize_s": ("schema.materialize",),
    "schema.verify_s": ("schema.verify_schema",),
    "engine.ingest_s": ("engine.FactTable.from_csv",),
    "engine.index_s": ("engine.build_index",),
    "endpoints.build_s": ("endpoints.build_endpoint_schema",),
    "tree.build_s": ("tree.build_tree_schema",),
}
# Per-layer times taken from op spans: time in these calls per traced op.
OP_SPANS = {
    "engine.evaluate_s": ("engine.evaluate",),
    "engine.aggregate_s": ("engine.aggregate_sum",),
    "bitset.to_array_s": ("bitset.to_array",),
    "endpoints.query_s": ("endpoints.stabbing_query", "endpoints.interval_query"),
    "tree.overlap_s": ("tree.overlap_query",),
}


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def load_workloads() -> None:
    """Import the cliqueindex package of this checkout, then the workloads."""
    if not (PACKAGE / "__init__.py").is_file():
        raise SystemExit(f"error: no cliqueindex package at {PACKAGE}; run from a full checkout")
    sys.path.insert(0, str(PACKAGE.parent))
    import cliqueindex

    if Path(cliqueindex.__file__).resolve().parent != PACKAGE.resolve():
        raise SystemExit(f"error: imported cliqueindex from {cliqueindex.__file__}, not {PACKAGE}")
    import workloads  # noqa: F401  (fails here, not mid-run, if the package API moved)


def stamp() -> dict:
    digest = hashlib.sha256()
    for path in sorted(PACKAGE.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }


class SpeedProbe:
    """Fixed work, independent of cliqueindex and of the seed, in the mix the
    workloads' ops run: 4096-bit int operations, small numpy calls on one
    block, and a scan over 2^15 tuples held in shuffled order (about 11 MB,
    past the L2 cache)."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.block = int.from_bytes(rng.bytes(512), "little")
        self.rows = [tuple(range(i, i + 8)) for i in rng.permutation(1 << 15).tolist()]
        self.wanted = set(range(0, 1 << 15, 7))
        self.samples: list[int] = []
        self._once()  # first numpy calls pay one-off costs

    def _once(self) -> int:
        t0 = time.perf_counter_ns()
        v, d = self.block, {}
        for i in range(1000):
            d[i & 127] = v & (v >> (i & 63))
        for _ in range(100):
            raw = np.frombuffer(v.to_bytes(512, "little"), dtype=np.uint8)
            np.flatnonzero(np.unpackbits(raw, bitorder="little"))
        wanted = self.wanted
        sum(1 for r in self.rows if r[3] in wanted)
        return time.perf_counter_ns() - t0

    def sample(self) -> None:
        self.samples += [self._once() for _ in range(3)]

    def scale(self) -> float:
        """PROBE_REF_NS over the median probe time."""
        return PROBE_REF_NS / statistics.median(self.samples)


def op_sequence(seed: int, size: int):
    """Endless seeded order over the pool: one fresh permutation per pass."""
    rng = np.random.default_rng([seed, 2])
    while True:
        yield from rng.permutation(size).tolist()


class Loop:
    """Outcome of one closed-loop run over the op pool."""

    def __init__(self, pool, seed: int, tr: Tracer, seconds: float, min_ops: int, exact: int = 0,
                 probe: SpeedProbe | None = None):
        from workloads import same

        self.latency_ns: list[int] = []
        self.op_ns = [0] * len(pool)
        self.op_runs = [0] * len(pool)
        self.busy_ns = 0
        self.failed = 0
        next_probe = 0
        seq = op_sequence(seed, len(pool))
        while True:
            batch = [next(seq) for _ in range(BATCH)]
            results = []
            t = time.perf_counter_ns()
            for i in batch:
                with tr.span("op", op=len(self.latency_ns) + len(results)):
                    try:
                        out = pool[i].run(tr)
                    except Exception as exc:  # a failed op is counted, not fatal
                        out = exc
                now = time.perf_counter_ns()
                results.append((i, out, now - t))
                t = now
            for i, out, ns in results:
                self.latency_ns.append(ns)
                self.busy_ns += ns
                self.op_ns[i] += ns
                self.op_runs[i] += 1
                if isinstance(out, Exception) or not same(out, pool[i].expected):
                    self.failed += 1
                    if self.failed <= 3:
                        what = repr(out) if isinstance(out, Exception) else "answer differs from reference"
                        print(f"op {len(self.latency_ns) - 1} ({pool[i].kind}) failed: {what}", file=sys.stderr)
            if probe is not None and self.busy_ns >= next_probe:
                probe.sample()
                next_probe = self.busy_ns + PROBE_EVERY_NS
            done = len(self.latency_ns)
            if exact:
                if done >= exact:
                    break
            elif done >= min_ops and self.busy_ns >= seconds * 1e9:
                break

    def index_vs_scan(self, pool) -> float:
        """Reference time over index time, summed over the pool ops that ran.

        Both sides are means of warm runs: the index side over the loop's
        runs of the op, the reference side over REF_REPS runs after the one
        that computed its answer."""
        ref = idx = 0.0
        for op, ns, runs in zip(pool, self.op_ns, self.op_runs):
            if runs:
                t0 = time.perf_counter_ns()
                for _ in range(REF_REPS):
                    op.ref()
                ref += (time.perf_counter_ns() - t0) / REF_REPS
                idx += ns / runs
        return ref / idx


def slice_medians(latency_ns: list[int], slice_len: int, scale: float = 1.0) -> dict:
    """p50, p95 and throughput of each slice of the run, medians over slices.

    A burst of machine noise then moves one slice, not the reported value.
    Latencies are multiplied by ``scale`` first."""
    whole = len(latency_ns) // slice_len * slice_len
    lat = np.array(latency_ns[:whole]).reshape(-1, slice_len) / 1e6 * scale
    return {
        "op_p50_ms": float(np.median(np.percentile(lat, 50, axis=1))),
        "op_p95_ms": float(np.median(np.percentile(lat, 95, axis=1))),
        "ops_per_s": float(np.median(slice_len / (lat.sum(axis=1) / 1e3))),
    }


def _median_setup_span(tr: Tracer, names) -> float:
    per_rep = [tr.durations(name) for name in names]
    if not any(per_rep):
        return 0.0
    return statistics.median(sum(ns) for ns in zip(*per_rep)) / 1e9


def measure(name: str, seed: int, seconds: float, trace: bool, scale: float = 1.0,
            min_ops: int = MIN_OPS) -> dict:
    """Run one workload; returns correctness, op counts and all metric values.

    ``scale`` shrinks the generated inputs for the self-tests."""
    from workloads import WORKLOADS

    wl = WORKLOADS[name](seed, scale)
    tr = Tracer(trace)
    setup_ns, problems = [], []
    while len(setup_ns) < SETUP_REPS or (sum(setup_ns) < SETUP_MIN_NS
                                         and len(setup_ns) < SETUP_MAX_REPS):
        st = None  # release the previous set-up before building the next
        gc.collect()
        t0 = time.perf_counter_ns()
        with tr.span("setup"):
            st = wl.setup(tr)
        setup_ns.append(time.perf_counter_ns() - t0)
        problems += wl.check_setup(st)
    pool = wl.ops(st)
    values = {"schema_width": wl.width(st), "setup_s": statistics.median(setup_ns) / 1e9}

    # A slice is whole passes over the pool holding at least min_ops ops, so
    # each slice has the pool's exact cost mix and >= 10 samples beyond p95.
    slice_len = -(-min_ops // len(pool)) * len(pool)
    probe = SpeedProbe()
    plain = Loop(pool, seed, Tracer(False), seconds / 2 if trace else seconds, slice_len, probe=probe)
    loops = [plain]
    values.update(slice_medians(plain.latency_ns, slice_len, probe.scale()))
    unscaled = slice_medians(plain.latency_ns, slice_len)
    unscaled["probe_ms"] = statistics.median(probe.samples) / 1e6
    if trace:
        values.update(wl.counts(st, pool))
        values[wl.scan_metric] = plain.index_vs_scan(pool)
        traced = Loop(pool, seed, tr, 0, 0, exact=len(plain.latency_ns))
        loops.append(traced)
        try:
            measured = sum(setup_ns) + traced.busy_ns
            roots = len(setup_ns) + len(traced.latency_ns)
            acct = tr.accounting(measured, roots * ROOT_SPAN_NS + int(measured * GAP_FRAC))
        except ValueError as exc:
            problems.append(f"trace accounting: {exc}")
        else:
            for layer in LAYERS:
                values[f"{layer}.self_s"] = acct["self_ns"][layer] / 1e9
            values["unattributed_s"] = acct["unattributed_ns"] / 1e9
            values["trace.wall_s"] = acct["wall_ns"] / 1e9
        values["trace.overhead_frac"] = traced.busy_ns / plain.busy_ns - 1
        for metric, names in SETUP_SPANS.items():
            values[metric] = _median_setup_span(tr, names)
        n_traced = len(traced.latency_ns)
        for metric, names in OP_SPANS.items():
            values[metric] = sum(sum(tr.durations(n)) for n in names) / 1e9 / n_traced

    attempted = sum(len(lp.latency_ns) for lp in loops)
    failed = sum(lp.failed for lp in loops)
    values["ops_ok_frac"] = (attempted - failed) / attempted
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    return {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "values": values,
        "unscaled": unscaled,
        "sizes": wl.sizes,
        "setup_reps": len(setup_ns),
        "samples": len(plain.latency_ns),
        "slice_len": slice_len,
        "tracer": tr,
    }


def result_line(run: dict, spec: dict, trace: bool) -> dict:
    """The result line: exactly the metrics BENCHMARK.json declares for this mode.

    A layer the workload does not call reports 0."""
    metrics = spec["per_layer"] if trace else spec["end_to_end"]
    known = {m["name"] for m in spec["per_layer"] + spec["end_to_end"]}
    unknown = set(run["values"]) - known
    if unknown:
        raise SystemExit(f"error: metrics missing from BENCHMARK.json: {sorted(unknown)}")
    return {
        "correct": run["correct"],
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {m["name"]: {"value": run["values"].get(m["name"], 0), "unit": m["unit"]}
                    for m in metrics},
    }


def report(name: str, seed: int, run: dict, spec: dict, trace: bool, info: dict) -> int:
    """Print a run's stamp, sizes and metrics, then its result line; returns
    the exit status."""
    line = result_line(run, spec, trace)
    print("stamp " + json.dumps(info, sort_keys=True))
    print(f"workload {name} seed {seed} sizes {json.dumps(run['sizes'])} "
          f"setup_reps {run['setup_reps']} op_samples {run['samples']} slice_len {run['slice_len']}")
    print("unscaled " + json.dumps(run["unscaled"]))
    for metric, m in line["metrics"].items():
        print(f"  {metric:34s} {m['value']!r:>24} {m['unit']}")
    if trace:
        OUT.mkdir(exist_ok=True)
        run["tracer"].dump(OUT / f"trace-{name}-seed{seed}.json", info)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


def run_one(args, spec: dict) -> int:
    load_workloads()
    info = stamp()
    run = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    return report(args.workload, args.seed, run, spec, bool(args.trace), info)


def run_all(args, spec: dict) -> int:
    """Every workload, untraced and traced, each in a fresh process."""
    with open(HERE / "layers.json", encoding="utf-8") as fh:
        moves = json.load(fh)
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for wl in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", wl, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.splitlines()
            if proc.returncode not in (0, 1) or not lines:
                print(f"{wl} trace={trace}: exit {proc.returncode}", file=sys.stderr)
                return 2
            line = json.loads(lines[-1])
            print("\n".join(lines[:3]))
            for metric, m in line["metrics"].items():
                note = moves.get(metric)
                if trace and wl not in note["on"]:
                    continue
                hint = f"  -> {', '.join(note['moves'])}" if trace and note["moves"] else ""
                print(f"  {metric:34s} {m['value']!r:>24} {m['unit']}{hint}")
                merged["metrics"][f"{wl}.{metric}"] = m
            merged["correct"] &= line["correct"]
            merged["attempted"] += line["attempted"]
            merged["failed"] += line["failed"]
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"all-seed{args.seed}.json", "w", encoding="utf-8") as fh:
        json.dump(merged, fh, indent=1)
    print(json.dumps(merged))
    return 0 if merged["correct"] else 1


def main(argv=None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args, spec)
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
