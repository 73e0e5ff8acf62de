"""Seeded random corpora for the verify subcommand and the test suite.

Everything takes an explicit random.Random so a seed fully determines the
instance; generators return library objects ready to feed both the
optimized paths and their oracles.
"""

from __future__ import annotations

import random

from .digraph import AcyclicDigraph, build_digraph
from .endpoints import IntervalRecord
from .engine import And, Atom, Not, Or
from .intersection import SetValuedFunction
from .schema import CliqueTable


def random_dag(rng: random.Random, max_nodes: int = 12) -> AcyclicDigraph:
    """Random DAG: random topological order, forward edges by coin flip."""
    n = rng.randint(1, max_nodes)
    names = [f"n{i}" for i in range(n)]
    order = names[:]
    rng.shuffle(order)
    density = rng.uniform(0.1, 0.5)
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < density:
                edges.append((order[i], order[j]))
    return build_digraph(edges, isolated=names)


def random_out_tree(rng: random.Random, max_nodes: int = 12) -> AcyclicDigraph:
    """Random out-tree: every non-root node gets one parent edge parent -> child."""
    n = rng.randint(2, max_nodes)
    names = [f"t{i}" for i in range(n)]
    edges = [(names[rng.randrange(i)], names[i]) for i in range(1, n)]
    return build_digraph(edges)


def random_function(
    rng: random.Random, max_entries: int = 40, max_nodes: int = 60
) -> SetValuedFunction:
    """Random set-valued function; some images may be empty."""
    n_entries = rng.randint(1, max_entries)
    n_nodes = rng.randint(1, max_nodes)
    nodes = [f"v{i}" for i in range(n_nodes)]
    image = {}
    for i in range(n_entries):
        size = min(n_nodes, int(rng.expovariate(1 / 3)))
        image[f"e{i}"] = frozenset(rng.sample(nodes, size))
    return SetValuedFunction.from_images(image)


def random_intervals(rng: random.Random, count: int, mixed_lengths: bool = True) -> list[IntervalRecord]:
    """Random closed intervals, lower endpoints uniform on [0, 1000]; lengths
    span magnitudes when mixed_lengths, and about 5% have length zero."""
    out = []
    for i in range(count):
        x = rng.uniform(0, 1000.0)
        roll = rng.random()
        if roll < 0.05:
            length = 0.0
        elif mixed_lengths:
            length = 2.0 ** rng.uniform(-3, 8)
        else:
            length = rng.uniform(1, 10)
        out.append(IntervalRecord(f"i{i}", x, x + length))
    return out


def random_expr(rng: random.Random, clique: CliqueTable, depth: int = 3):
    """Random boolean tree over (column, entry) pairs present in the table,
    with a few atoms referencing values that match nothing."""
    pairs = sorted(
        {(i, e) for i, column in enumerate(clique.entries, start=1) for e in column},
        key=repr,
    )

    def atom():
        if not pairs or rng.random() < 0.08:
            return Atom(rng.randint(1, clique.k), "@absent")
        return Atom(*rng.choice(pairs))

    def build(d: int):
        if d <= 0 or rng.random() < 0.3:
            return atom()
        roll = rng.random()
        if roll < 0.2:
            return Not(build(d - 1))
        parts = tuple(build(d - 1) for _ in range(rng.randint(2, 3)))
        return And(parts) if roll < 0.6 else Or(parts)

    return build(depth)
