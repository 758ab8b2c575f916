"""Standard domino tableaux and the domino major index.

Cells are 1-based (row, col) pairs, row 1 at the top.  An odd-size shape
carries a zero square fixed at (1, 1); dominoes are labelled 1..n.  A
domino has one orientation: its two cells in increasing (row, col)
order, as `_domino_removals` lists them, so its first cell holds its top
row and its second its bottom row.
"""

from __future__ import annotations

from collections.abc import Iterator

from .qpoly import QPolynomial, Value, running_sums
from .shapes import Cell, Partition, _domino_removals, check_partition


class DominoTableau(Value):
    """A domino tableau: its shape and dominoes[i], the cell pair of the
    domino labelled i+1.  Instances are immutable, and equal and hashable
    by (shape, dominoes).

    This is the one place a tableau is checked: the shape is read through
    `check_partition` and the dominoes are stored as a tuple of
    ((row, col), (row, col)) int tuples, each domino's cells in increasing
    order, so a list form, or a domino given with its cells turned,
    equals, hashes and maps as the stored form, and a float or bool part
    or cell, a zero part, or a domino that is not two cells of two ints
    is refused (ValueError).  Whether the dominoes tile the shape is left to the
    maps.  Code that holds a checked shape and dominoes read from the
    removals table (`enumerate_sdt`, `sdt_at`, the error path of
    `bijections.map_shape`) builds its tableaux unchecked (`_trusted`)."""

    __slots__ = ("shape", "dominoes")

    def __init__(self, shape: Partition, dominoes: tuple[tuple[Cell, Cell], ...]):
        _set_shape(self, check_partition(shape))
        _set_dominoes(self, _check_dominoes(dominoes))

    @property
    def size(self) -> int:
        return sum(self.shape)

    @property
    def has_zero_square(self) -> bool:
        return self.size % 2 == 1

    @property
    def n(self) -> int:
        return len(self.dominoes)

    def cells_of(self, label: int) -> tuple[Cell, Cell]:
        """The cells of the domino labelled label; IndexError for a label
        that is not an int (a bool or a float is not one) or lies outside
        1..n."""
        if type(label) is not int or not 1 <= label <= self.n:
            raise IndexError(f"no domino labelled {label} in a tableau of {self.n}")
        return self.dominoes[label - 1]

    def render(self) -> str:
        """Grid with each domino's label in both its cells, 0 for the
        zero square.  ValueError naming a cell when the dominoes do not
        cover each cell of the shape, the zero square aside, once."""
        grid: dict[Cell, int] = {(1, 1): 0} if self.has_zero_square else {}
        for label, domino in enumerate(self.dominoes, start=1):
            for cell in domino:
                if cell in grid:
                    raise ValueError(f"cell {cell} is covered twice")
                grid[cell] = label
        cells = {(r, c) for r, length in enumerate(self.shape, start=1) for c in range(1, length + 1)}
        stray = min(grid.keys() ^ cells, default=None)
        if stray is not None:
            where = "lies outside" if stray in grid else "is not covered in"
            raise ValueError(f"cell {stray} {where} shape {self.shape}")
        width = max(len(str(self.n)), 1)
        lines = []
        for r, row_len in enumerate(self.shape, start=1):
            lines.append(" ".join(str(grid[(r, c)]).rjust(width) for c in range(1, row_len + 1)))
        return "\n".join(lines)

    def to_json(self) -> list[dict]:
        return [
            {"label": i + 1, "cells": [list(a), list(b)]}
            for i, (a, b) in enumerate(self.dominoes)
        ]


_set_shape, _set_dominoes = DominoTableau.shape.__set__, DominoTableau.dominoes.__set__


def _check_dominoes(dominoes) -> tuple[tuple[Cell, Cell], ...]:
    """The dominoes as a tuple of ((row, col), (row, col)) tuples, each
    entry an int (a bool is not one), each domino's two cells in
    increasing order; ValueError otherwise."""
    try:
        out = tuple(((r1, c1), (r2, c2)) for (r1, c1), (r2, c2) in dominoes)
    except (TypeError, ValueError):
        raise ValueError(f"dominoes must be pairs of (row, col) cells: {dominoes!r}") from None
    if not all(type(x) is int for domino in out for cell in domino for x in cell):
        raise ValueError(f"domino cells must be int pairs: {out}")
    return tuple((a, b) if a < b else (b, a) for a, b in out)


def _trusted(shape: Partition, dominoes: tuple[tuple[Cell, Cell], ...]) -> DominoTableau:
    """The tableau of a checked shape and dominoes the caller built as
    `DominoTableau` would store them, its fields set without a check."""
    t = object.__new__(DominoTableau)
    _set_shape(t, shape)
    _set_dominoes(t, dominoes)
    return t


def enumerate_sdt(shape: Partition) -> Iterator[DominoTableau]:
    """All standard domino tableaux of the shape, built by peeling the
    largest-labelled border domino; empty iff the shape supports none.

    The order is that of the recursion which tries the border dominoes of
    each shape in `_domino_removals` order, largest label outermost; the
    CLI numbers tableaux by it, and the tests pin it against a copy of
    that recursion.  One generator frame runs that recursion with an
    explicit stack: levels[k] iterates the removals of the region under
    label k+1, and stack[k] holds that label's domino.  Label 1 has no
    level: the region under label 2 has rank 1, so its one border domino,
    the one entry of its removals, is read, not iterated, and the leaf
    follows at once, in the same order.  Each shape's removals are
    computed once per process (`_domino_removals` is memoised) and read
    once per region of rank >= 1 the walk reaches, and each tableau's
    domino tuple is built once, at the leaf, from the stack filled in
    place, into a tableau stored unchecked (`_trusted`).  The walk stops
    at its first region of rank >= 1 with no border domino: that region
    is the 2-core, which every region of the shape shares, so the shape
    has no tableau.  A shape that is not a partition is refused
    (`check_partition`'s ValueError).
    """
    shape = check_partition(shape)
    n = sum(shape) // 2
    if n == 0:
        yield _trusted(shape, ())
        return
    stack: list = [None] * n
    levels: list = [None] * n
    levels[-1] = iter(_domino_removals(shape))
    k = n - 1
    while k < n:
        for smaller, stack[k] in levels[k]:
            if k:
                removals = _domino_removals(smaller)
                if not removals:  # a 2-core of rank k >= 1
                    return
                if k > 1:
                    k -= 1
                    levels[k] = iter(removals)
                    break
                stack[0] = removals[0][1]  # a rank-1 region's one domino
            yield _trusted(shape, tuple(stack))
        else:
            k += 1


def sdt_at(shape: Partition, index: int) -> DominoTableau:
    """The standard domino tableau at position index of `enumerate_sdt`
    (shape), without walking the ones before it.

    Descends from the largest label down: the tableaux are grouped by the
    domino of the largest label, in `_domino_removals` order, and each
    group is skipped whole, counted as the coefficient sum of its smaller
    shape's generating function.  IndexError outside 0..count-1 or for an
    index that is not an int (a bool or a float is not one); ValueError
    when the shape is not a partition.  The shape is checked here, and the smaller shapes come
    from the removals table, so the memo is read directly and the
    tableau is stored unchecked (`_trusted`).
    """
    shape = check_partition(shape)
    if type(index) is not int or not 0 <= index < sum(_sdt_maj_gf(shape)):
        raise IndexError(f"no standard domino tableau #{index} of shape {shape}")
    stack: list = []
    p, rest = shape, index
    while sum(p) > 1:
        for smaller, cells in _domino_removals(p):
            count = sum(_sdt_maj_gf(smaller))
            if rest < count:
                break
            rest -= count
        stack.append(cells)
        p = smaller
    return _trusted(shape, tuple(reversed(stack)))


def maj_domino(t: DominoTableau) -> int:
    """Sum of labels i whose domino lies strictly above domino i+1.

    "Strictly above" compares rows only: every cell of i must have a
    smaller row index than every cell of i+1.  One pass reads each
    domino's top and bottom row, its first and second cell's, and keeps
    the bottom row of domino i, the one before (row 0 for i = 0, which
    adds nothing).
    """
    total = bottom = 0
    for i, ((top, _), (r, _)) in enumerate(t.dominoes):
        if bottom < top:
            total += i
        bottom = r
    return total


def sdt_maj_gf(shape: Partition) -> QPolynomial:
    """Sum of q^maj over all standard domino tableaux of the shape; zero
    when the shape supports none.  The shape is read through
    `check_partition` on every call (ValueError), so a list reads its
    tuple form and a float or bool twin of a memoised shape is refused."""
    return QPolynomial(_sdt_maj_gf(check_partition(shape)))


def _sdt_maj_gf(shape: Partition) -> tuple[int, ...]:
    """The coefficient tuple of that sum, read from the memo as it is
    stored; the shape is not checked."""
    entries = _by_last_domino(shape)
    return entries[-1][1] if entries else ()


# Running sums by the domino of the largest label (`qpoly.running_sums`),
# keyed by its cells.  n-1 is a descent exactly when its domino lies
# strictly above n's: its bottom row a[1] above n's top row b[0].
# `_domino_removals` lists the bottom rows in nondecreasing order.  The
# memo checks nothing: its callers hold checked shapes.
_by_last_domino = running_sums(
    _domino_removals.__wrapped__, lambda p: sum(p) // 2, lambda a, b: a[1][0] < b[0][0]
)
