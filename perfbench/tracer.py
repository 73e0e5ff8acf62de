"""In-memory spans around the benchmark's calls into cliqueindex.

A span records a name, start and end (perf_counter_ns), the index of the
span that was open when it started, and the op id it belongs to.  The
layer of a span is the module prefix of its name (``engine.build_index``
belongs to ``engine``); the benchmark's own root spans (``setup``, ``op``)
belong to no layer, so their self time is the unattributed bucket.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager

LAYERS = ("digraph", "intersection", "schema", "engine", "bitset", "endpoints", "tree")


class Tracer:
    """Span recorder; when disabled, ``call`` is a plain function call."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent, op]
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, op: int | None = None):
        if not self.enabled:
            yield
            return
        parent = self._open[-1] if self._open else -1
        if op is None and parent >= 0:
            op = self.spans[parent][4]
        record = [name, time.perf_counter_ns(), None, parent, op]
        self.spans.append(record)
        self._open.append(len(self.spans) - 1)
        try:
            yield
        finally:
            record[2] = time.perf_counter_ns()
            self._open.pop()

    def call(self, name: str, fn, *args):
        if not self.enabled:
            return fn(*args)
        with self.span(name):
            return fn(*args)

    def durations(self, name: str) -> list[int]:
        """Durations in ns of every span with this name, in start order."""
        return [s[2] - s[1] for s in self.spans if s[0] == name]

    def accounting(self, measured_ns: int, slack_ns: int) -> dict:
        """Self time per layer, the unattributed bucket and the traced wall.

        The traced wall is the summed duration of the root spans.
        ``measured_ns`` is the same stretches of work timed outside the
        tracer.  The two may differ only by ``slack_ns``, the cost of
        entering and leaving the root spans; a larger gap means time the
        spans did not record, and raises ValueError.
        """
        children_ns = [0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                children_ns[parent] += end - start
        self_ns = {layer: 0 for layer in LAYERS}
        unattributed = 0
        for (name, start, end, parent, _), child in zip(self.spans, children_ns):
            layer = name.split(".", 1)[0]
            if layer in self_ns:
                self_ns[layer] += end - start - child
            else:
                unattributed += end - start - child
        wall = sum(self_ns.values()) + unattributed
        if abs(measured_ns - wall) > slack_ns:
            raise ValueError(f"spans cover {wall / 1e9:.6f} s of {measured_ns / 1e9:.6f} s measured")
        return {"self_ns": self_ns, "unattributed_ns": unattributed, "wall_ns": wall}

    def dump(self, path, stamp: dict) -> None:
        keys = ("name", "start_ns", "end_ns", "parent", "op")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"stamp": stamp, "spans": [dict(zip(keys, s)) for s in self.spans]}, fh)
