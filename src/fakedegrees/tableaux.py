"""Standard Young tableaux, tuple tableaux, and their major indices.

A tableau is a tuple of row tuples.  A tuple tableau is a tuple of such
fillings, one per component of a multipartition, using each label 1..n
exactly once overall.  The corners of a shape, in (component, row) order,
come from `shapes._cell_removals`, the only coding of that order: the
enumerator and the running-sum memo both walk it.  An empty filling holds
no label and no row, so a shape has the tableaux and major indices of its
nonempty components, in order; the running-sum memo is keyed on those, and
solves each such shape once whatever empty components its callers give.
The public readers check their shape on every call and return a
`QPolynomial`; the package's routes, whose labels `Representation`
checked, read the memo through the private ones, which return the memo's
coefficient tuple itself.
"""

from __future__ import annotations

from collections.abc import Iterator

from .qpoly import QPolynomial, running_sums
from .shapes import (
    Multipartition,
    Partition,
    _cell_removals,
    check_multipartition,
    nonempty_components,
    total_size,
)

Tableau = tuple[tuple[int, ...], ...]
TupleTableau = tuple[Tableau, ...]


def enumerate_syt(shape: Partition) -> Iterator[Tableau]:
    """All standard Young tableaux of the given shape.

    The one-component case of `enumerate_tuple_tableaux`, in its order:
    the largest label at each corner in turn, so each tableau appears
    exactly once.
    """
    for (t,) in enumerate_tuple_tableaux((shape,)):
        yield t


def maj_syt(t: Tableau) -> int:
    """Sum of labels i with i+1 in a strictly lower row than i: the major
    index of t as a one-filling tuple tableau."""
    return maj_tuple((t,))


def syt_maj_gf(shape: Partition) -> QPolynomial:
    """Sum of q^maj over all SYT of the shape."""
    return tuple_maj_gf((shape,))


def enumerate_tuple_tableaux(mp: Multipartition) -> Iterator[TupleTableau]:
    """All standard tuple tableaux of a multipartition shape.

    The order is that of the recursion which places the largest label at
    each corner in turn, in `_cell_removals` order (components, then rows),
    outermost; the CLI numbers tableaux by it, and the tests pin it
    against a copy of that recursion.  One generator frame runs that
    recursion with an explicit stack: levels[k] iterates the removals of
    the shape under label k+1, whose cell is written into a preallocated
    grid as it is placed.  Label 1 has no level: the shape under label 2
    has one cell, the one entry of its removals, which is read, not
    iterated, and the leaf follows at once, in the same order.  Each
    shape's removals are computed once per process (`_cell_removals` is
    memoised) and read once per shape of rank >= 1 the walk reaches.  A
    row's labels all lie above its column-0 cell, so its tuple is built
    when that cell is placed, and a filling's when its (0, 0) cell is;
    each leaf builds only the tuple of fillings, and every tableau below
    a node shares the rows and fillings completed above it.  An empty
    component is the empty filling.  A shape that is not a sequence of
    partitions is refused (`check_multipartition`'s ValueError).
    """
    mp = check_multipartition(mp)
    grid = [[[0] * length for length in comp] for comp in mp]
    rows = [[()] * len(comp) for comp in mp]
    fillings = [()] * len(mp)
    n = total_size(mp)
    if n == 0:
        yield tuple(fillings)
        return
    levels: list = [None] * n
    levels[-1] = iter(_cell_removals(mp))
    k = n - 1
    while k < n:
        for smaller, (ci, ri, col) in levels[k]:
            row = grid[ci][ri]
            row[col] = k + 1
            if not col:
                rows[ci][ri] = tuple(row)
                if not ri:
                    fillings[ci] = tuple(rows[ci])
            if k:
                removals = _cell_removals(smaller)
                if k > 1:
                    k -= 1
                    levels[k] = iter(removals)
                    break
                # a rank-1 shape's one cell, (ci, 0, 0), opens its filling
                ci = removals[0][1][0]
                row = grid[ci][0]
                row[0] = 1
                rows[ci][0] = tuple(row)
                fillings[ci] = tuple(rows[ci])
            yield tuple(fillings)
        else:
            k += 1


def label_positions(t: TupleTableau) -> dict[int, tuple[int, int, int]]:
    """label -> (component index 1-based, row, col)."""
    out = {}
    for ci, filling in enumerate(t, start=1):
        for ri, row in enumerate(filling, start=1):
            for cj, x in enumerate(row, start=1):
                out[x] = (ci, ri, cj)
    return out


def maj_tuple(t: TupleTableau) -> int:
    """Tuple-tableau major index.

    Label i is a descent if i sits strictly above i+1 within the same
    filling, or if i lives in an earlier filling than i+1: the rank of
    its (component, row), counted over all fillings, is smaller.  One pass
    over the cells maps each label to that rank, one over the labels sums
    the descents.
    """
    rank: dict[int, int] = {}
    r = 0
    for filling in t:
        for row in filling:
            for x in row:
                rank[x] = r
            r += 1
    total = 0
    prev = rank.get(1)
    for i in range(2, len(rank) + 1):
        cur = rank[i]
        if prev < cur:
            total += i - 1
        prev = cur
    return total


def largest_label_component(t: TupleTableau) -> int:
    """1-based index of the filling containing the largest label.

    Rows increase, so the largest label ends its row: only the last entry
    of each row is read."""
    last = [(row[-1], ci) for ci, filling in enumerate(t, start=1) for row in filling]
    if not last:
        raise ValueError("an empty tuple tableau has no largest label")
    return max(last)[1]


def _nonempty_cell_removals(mp: Multipartition) -> tuple:
    """The table of the running-sum memo: the moves of `_cell_removals`,
    read unmemoised, in its order, each with its smaller shape less the
    component the move empties.  A shape with an empty component is
    refused (ValueError), so every shape the memo solves past rank 0 has
    none and its keys index its nonempty components.

    The descent rule still holds across a dropped component.  A move that
    empties component c removes its only cell, (c, 0, 0), and the later
    components of the smaller shape shift down by one; each of their keys
    (c', r), with c' >= c after the shift, compares with (c, 0) under
    a[:2] < b[:2] as it did before it (never smaller), and the keys of
    the earlier components do not move."""
    if not all(mp):
        raise ValueError(f"the tuple running-sum memo needs nonempty components, got {mp}")
    return tuple(
        (nonempty_components(smaller), move) for smaller, move in _cell_removals.__wrapped__(mp)
    )


# Running sums by the cell of the largest label (`qpoly.running_sums`),
# keyed by the corner (component, row, col) among the nonempty components.
# n-1 is a descent exactly when its corner comes before n's in
# (component, row) order.  The memo checks nothing: its callers hold
# checked shapes.
_maj_gf_by_last_cell = running_sums(
    _nonempty_cell_removals, total_size, lambda a, b: a[:2] < b[:2]
)


def tuple_maj_gf(mp: Multipartition) -> QPolynomial:
    """Sum of q^maj over all standard tuple tableaux of the shape.  The
    shape is read through `check_multipartition` on every call
    (ValueError), so a shape given with lists reads its tuple form and a
    float or bool twin of a memoised shape is refused."""
    return QPolynomial(_tuple_maj_gf(check_multipartition(mp)))


def _tuple_maj_gf(mp: Multipartition) -> tuple[int, ...]:
    return _maj_gf_by_last_cell(nonempty_components(mp))[-1][1]


def tuple_maj_gf_restricted(mp: Multipartition) -> QPolynomial:
    """Same sum, restricted to tableaux whose largest label is in the
    first filling.  Defined for ordered pairs (d = 2) with n >= 1; the
    components are read as by `tuple_maj_gf`."""
    mp = check_multipartition(mp)
    if len(mp) != 2:
        raise ValueError("restricted generating function needs a pair shape")
    if not any(mp):
        raise ValueError("restricted generating function needs n >= 1")
    return QPolynomial(_tuple_maj_gf_restricted(mp))


def _tuple_maj_gf_restricted(mp: Multipartition) -> tuple[int, ...]:
    """Zero (the empty tuple) when the first filling alpha is empty, else
    the memo entry of alpha's last corner: the nonempty shape begins with
    alpha, whose corners, one per distinct part, come first in
    (component, row) order, so it is entry len(set(alpha)) - 1."""
    alpha = mp[0]
    if not alpha:
        return ()
    return _maj_gf_by_last_cell(nonempty_components(mp))[len(set(alpha)) - 1][1]


def format_tableau(t: Tableau) -> str:
    return "[" + ",".join("[" + ",".join(map(str, row)) + "]" for row in t) + "]"


def format_tuple_tableau(t: TupleTableau) -> str:
    return " ; ".join(format_tableau(f) for f in t)
