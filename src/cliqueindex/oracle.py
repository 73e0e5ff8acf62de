"""Brute-force reference implementations.

Everything here is a direct transcription of a definition, written without
reusing the optimized code paths it exists to check.  Oracles enumerate;
they never sample.  Size caps fail loudly instead of degrading.
"""

from __future__ import annotations

from itertools import chain, combinations

import numpy as np

from .errors import OutOfRange, TooLargeForExact
from .intersection import SetValuedFunction

ORACLE_PAIRWISE_CAP = 5000
ORACLE_HYPERGRAPH_CAP = 16
ORACLE_TREE_CAP = 16


def oracle_intersection_graph(f: SetValuedFunction) -> dict:
    """The graph's definition as entry -> sorted neighbour list, in entry
    order: an all-pairs image intersection test, quadratic on purpose."""
    n = len(f.entries)
    if n > ORACLE_PAIRWISE_CAP:
        raise TooLargeForExact(n, ORACLE_PAIRWISE_CAP, what="entry list")
    adj: dict = {e: [] for e in f.entries}
    images = list(f.image.values())
    for i in range(n):
        for j in range(i + 1, n):
            a, b = f.entries[i], f.entries[j]
            if images[i] & images[j]:
                adj[a].append(b)
                adj[b].append(a)
    for e in adj:
        adj[e].sort()
    return adj


def oracle_degeneracy(h) -> int:
    """Max over vertex subsets S of the min edge-membership degree in H[S].

    H[S] keeps the distinct restrictions of hyperedges to S that still have
    at least two vertices; a subset with no surviving restriction scores 0.
    Full enumeration of all 2^|V| subsets.
    """
    vertices = list(h.vertices)
    if len(vertices) > ORACLE_HYPERGRAPH_CAP:
        raise TooLargeForExact(len(vertices), ORACLE_HYPERGRAPH_CAP, what="hypergraph vertex set")
    edges = [frozenset(e) for e in h.hyperedges]
    best = 0
    subsets = chain.from_iterable(
        combinations(vertices, r) for r in range(1, len(vertices) + 1)
    )
    for subset in subsets:
        s = frozenset(subset)
        restrictions = {e & s for e in edges}
        restrictions = [r for r in restrictions if len(r) >= 2]
        if restrictions:
            delta = min(sum(1 for r in restrictions if u in r) for u in s)
        else:
            delta = 0
        best = max(best, delta)
    return best


def oracle_interval_intersections(intervals, a, b) -> set:
    """Ids of closed intervals [x, y] meeting [a, b]: x <= b and y >= a."""
    out = set()
    for rec in intervals:
        if rec.x <= b and rec.y >= a:
            out.add(rec.id)
    return out


def oracle_tree_overlap(k: int, n: int) -> np.ndarray:
    """All tree interval ids whose half-open dyadic extent meets k's, as an
    ascending int64 array: every id's extent in units of 2^(1-n), computed
    from its level, scanned in one vectorized comparison against k's."""
    if n > ORACLE_TREE_CAP:
        raise TooLargeForExact(n, ORACLE_TREE_CAP, what="tree level count")
    if not 1 <= k < (1 << n):
        raise OutOfRange(f"interval id {k} outside 1..{(1 << n) - 1}")
    ids = np.arange(1, 1 << n, dtype=np.int64)
    levels = np.frexp(ids.astype(np.float64))[1]  # frexp's exponent is the bit length
    widths = np.left_shift(1, n - levels, dtype=np.int64)
    los = (ids - np.left_shift(1, levels - 1, dtype=np.int64)) * widths
    lo, hi = los[k - 1], los[k - 1] + widths[k - 1]
    return ids[(los < hi) & (lo < los + widths)]
