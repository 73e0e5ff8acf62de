"""Exception types shared across the package.

Every error raised by the library derives from CliqueIndexError so callers
(and the CLI) can distinguish domain failures from programming errors.
"""

from __future__ import annotations


class CliqueIndexError(Exception):
    """Base class for all library errors."""


class CycleDetected(CliqueIndexError):
    """Edge set contains a directed cycle; carries one witness walk whose
    first and last nodes coincide."""

    def __init__(self, cycle):
        walk = list(cycle)
        if walk and walk[0] != walk[-1]:
            walk.append(walk[0])
        self.cycle = walk
        path = " -> ".join(str(n) for n in walk)
        super().__init__(f"directed cycle detected: {path}")


class UnknownNode(CliqueIndexError):
    def __init__(self, node):
        self.node = node
        super().__init__(f"node {node!r} is not declared in the digraph")


class EmptyDigraph(CliqueIndexError):
    pass


class TooLargeForExact(CliqueIndexError):
    """Instance exceeds the configured cap for an exhaustive computation."""

    def __init__(self, size, cap, what="instance"):
        self.size = size
        self.cap = cap
        super().__init__(f"{what} has size {size}, exceeding the exact-computation cap {cap}")


class ColorCollision(CliqueIndexError):
    """Two same-colored entries claim the same node; the coloring is not proper."""

    def __init__(self, node, color, first, second):
        self.node = node
        self.color = color
        self.entries = (first, second)
        super().__init__(
            f"entries {first!r} and {second!r} both have color {color} and both contain node {node!r}"
        )


class MalformedCsv(CliqueIndexError):
    pass


class InconsistentArity(CliqueIndexError):
    pass


class MalformedExpr(CliqueIndexError):
    pass


class MeasureOverflow(CliqueIndexError):
    pass


class EmptyInput(CliqueIndexError):
    pass


class InvalidRange(CliqueIndexError):
    pass


class OutOfRange(CliqueIndexError):
    pass
