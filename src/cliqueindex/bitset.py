"""Row-id sets over a dense universe 0..n-1, in one of two numpy forms.

A set is either a sorted array of unique ids or a bool mask of length n.
Sets come from posting views, unions, intersections and complements,
never from loose ids.  Posting lists are array-form views of a posting
index's shared, read-only id arrays, whatever their size; no operation
writes into an operand.  A union follows the container rule of Chambi,
Lemire, Kaser & Godin, *Better bitmap performance with Roaring bitmaps*
(SPE 2016), applied to the whole universe: it is an array when its
operands are arrays holding fewer than n / DENSE_FRACTION ids in total,
and a mask otherwise.  Roaring cuts where both containers take the same
space: here a byte of mask per row against four per int32 id, n / 4,
which is also where a union costs the same by sort as through a mask
(measured at 100k and 500k rows).  A complement is always a mask.  An
intersection with an array operand is an array, since it can only shrink
it.  A column's IN list whose postings' runs do not interleave is their
concatenation (`schema.Postings.union_of`), so it too stays an array at
any size.  The n / DENSE_FRACTION rule governs the form of unions, not
row expansion: `engine._expand` picks its route from node sets to fact
rows by its own measured costs, and its array answers may hold up to half
the rows.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

DENSE_FRACTION = 4


def _is_dense(count: int, n: int) -> bool:
    return count * DENSE_FRACTION >= n


def _scatter(mask: np.ndarray, ids: np.ndarray, value: bool) -> np.ndarray:
    """mask[ids] = value, with ids widened to intp first: numpy's casting
    path for narrower indices is about twice as slow."""
    mask[ids.astype(np.intp, copy=False)] = value
    return mask


def _check(n: int, s: "CompressedBitset") -> None:
    if s.n != n:
        raise ValueError(f"universe mismatch: {n} vs {s.n}")


class CompressedBitset:
    """A set of row ids in 0..n-1: exactly one of `ids` (ascending unique
    ints) and `mask` (bool, length n) is set."""

    __slots__ = ("n", "ids", "mask")

    def __init__(self, n: int, ids: np.ndarray | None = None, mask: np.ndarray | None = None):
        self.n = n
        self.ids = ids
        self.mask = mask

    # -- constructors ---------------------------------------------------------

    @classmethod
    def empty(cls, n: int) -> "CompressedBitset":
        return cls(n, ids=np.empty(0, dtype=np.int64))

    # -- algebra ---------------------------------------------------------------

    def _has(self, values: np.ndarray) -> np.ndarray:
        """Per id in `values` (all inside the universe): is it in this set?"""
        if self.mask is not None:
            return np.take(self.mask, values)
        if len(values) * len(self.ids).bit_length() > len(self.ids):
            # A binary search costs about log2(len(ids)) probes per value and
            # a scratch mask one write per id: past this point the mask is cheaper.
            return np.take(_scatter(np.zeros(self.n, dtype=bool), self.ids, True), values)
        if len(self.ids) == 0:
            return np.zeros(len(values), dtype=bool)
        pos = np.searchsorted(self.ids, values)
        np.minimum(pos, len(self.ids) - 1, out=pos)
        return self.ids[pos] == values

    def __and__(self, other: "CompressedBitset") -> "CompressedBitset":
        _check(self.n, other)
        if self.mask is not None and other.mask is not None:
            return CompressedBitset(self.n, mask=self.mask & other.mask)
        # Filter the smaller array through the other side.
        a, b = self, other
        if a.ids is None or (b.ids is not None and len(b.ids) < len(a.ids)):
            a, b = b, a
        return CompressedBitset(self.n, ids=np.compress(b._has(a.ids), a.ids))

    def complement(self) -> "CompressedBitset":
        """All row ids of the universe not in this set, as a mask."""
        if self.mask is not None:
            return CompressedBitset(self.n, mask=~self.mask)
        return CompressedBitset(self.n, mask=_scatter(np.ones(self.n, dtype=bool), self.ids, False))

    # -- inspection --------------------------------------------------------------

    def cardinality(self) -> int:
        if self.ids is not None:
            return len(self.ids)
        return int(np.count_nonzero(self.mask))

    def __eq__(self, other) -> bool:
        if not isinstance(other, CompressedBitset):
            return NotImplemented
        return self.n == other.n and np.array_equal(self.to_array(), other.to_array())

    def to_array(self) -> np.ndarray:
        """Ascending row ids as a new int64 array."""
        if self.ids is not None:
            return self.ids.astype(np.int64)
        return np.flatnonzero(self.mask).astype(np.int64, copy=False)

    def byte_size(self) -> int:
        """Bytes of the id array or mask behind this set."""
        return (self.ids if self.ids is not None else self.mask).nbytes

    def __repr__(self) -> str:
        return f"CompressedBitset(n={self.n}, cardinality={self.cardinality()})"


def union(n: int, sets: Sequence[CompressedBitset]) -> CompressedBitset:
    """The union of sets over universe n in one pass: one sort of the
    concatenated arrays when they hold fewer than n / DENSE_FRACTION ids
    in total, else one mask."""
    for s in sets:
        _check(n, s)
    arrays = [s.ids for s in sets if s.ids is not None]
    if len(arrays) == len(sets) and not _is_dense(sum(map(len, arrays)), n):
        # Sort and drop repeats by hand: np.unique is several times slower.
        # Boolean indexing is slower than np.compress here, and postings of
        # one column never repeat an id, so the copy is often skipped.
        ids = np.sort(np.concatenate(arrays))
        fresh = np.empty(len(ids), dtype=bool)
        fresh[:1] = True
        np.not_equal(ids[1:], ids[:-1], out=fresh[1:])
        return CompressedBitset(n, ids=ids if fresh.all() else np.compress(fresh, ids))
    mask = np.zeros(n, dtype=bool)
    for s in sets:
        if s.ids is not None:
            _scatter(mask, s.ids, True)
        else:
            mask |= s.mask
    return CompressedBitset(n, mask=mask)
