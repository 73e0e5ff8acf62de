"""Shared fixtures: the pair-cover digraph, the 4-level golden table and
clique tables written row by row.

The pair digraph has sink nodes 1..4 and a source node for every two-element
subset, named by its digits (12 covers 1 and 2).  Every descendant set has
size 3, the cover structure forces one extra color, so the exact down-count
is 4 while the largest descendant set has only 3 nodes.
"""

import random

import pytest

from cliqueindex.digraph import build_digraph
from cliqueindex.schema import CliqueTable, Postings, _code_columns

PAIR_EDGES = [
    (12, 1), (12, 2),
    (13, 1), (13, 3),
    (14, 1), (14, 4),
    (23, 2), (23, 3),
    (24, 2), (24, 4),
    (34, 3), (34, 4),
]

PAIR_NODES = {1, 2, 3, 4, 12, 13, 14, 23, 24, 34}

# 4-level dyadic tree table: row k holds, per level column q, the level-q
# ancestor of k for q <= level(k) and k itself beyond its own level.
GOLDEN_TREE_4 = {
    1: (1, 1, 1, 1),
    2: (1, 2, 2, 2),
    3: (1, 3, 3, 3),
    4: (1, 2, 4, 4),
    5: (1, 2, 5, 5),
    6: (1, 3, 6, 6),
    7: (1, 3, 7, 7),
    8: (1, 2, 4, 8),
    9: (1, 2, 4, 9),
    10: (1, 2, 5, 10),
    11: (1, 2, 5, 11),
    12: (1, 3, 6, 12),
    13: (1, 3, 6, 13),
    14: (1, 3, 7, 14),
    15: (1, 3, 7, 15),
}


@pytest.fixture
def pair_dag():
    return build_digraph(PAIR_EDGES)


@pytest.fixture
def rng():
    return random.Random(0xC11)


def rows_table(k, rows):
    """The clique table of node -> k cells (None for NULL), each column's
    entries coded in first-seen order, as small tests write tables."""
    assert all(len(cells) == k for cells in rows.values())
    columns = zip(*rows.values()) if rows else [()] * k
    return CliqueTable(rows, Postings.from_codes(len(rows), _code_columns(len(rows), columns)))
