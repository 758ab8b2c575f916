"""Constructive maps from standard domino tableaux to tableau pairs.

The even-size map (`pi_c`) and odd-size map (`pi_b`) put each domino's
label in one cell of a pair of Young tableaux; the cell is forced at every
stage because the covered region determines the pair of component shapes
through the (inverse) two-quotient maps, so lifting the dominoes off the
shape, largest label first, reads off each label's cell.  The pair-level
major index rules and the flip procedures then turn these into
major-index-preserving bijections (`pi_c_prime`, `pi_b_prime`).

Inside the module one record carries each tableau through both steps:
the label-ordered list of keyed cells (filling, row, col, key).  The
insertion produces it, the flip swaps its entries, and `pair_of` builds
the tableau pair once, at the end.  `map_shape` maps every tableau of a
shape in one walk, sharing each insertion step among the tableaux that
share the dominoes of the larger labels.  The walk and the insertion
follow the same cached nodes (`_node`), one per covered region, each
holding one store of its steps, built whole on the node's first use: a
dict keyed by each border domino in its one orientation, its cells in
increasing (row, col) order, as `DominoTableau` stores it.  The
insertion reads it by one dict lookup per label and the walk iterates
it, and both build the nodes in the same order, so the walk's first
RuleError is the first one the maps would raise.
"""

from __future__ import annotations

from collections.abc import Callable
from functools import lru_cache

from .dominoes import DominoTableau, _trusted, enumerate_sdt
from .shapes import (
    Partition,
    _domino_removals,
    check_partition,
    lusztig_rho1_inverse,
    lusztig_rho2_inverse,
    two_core,
)
from .tableaux import Tableau, label_positions

TableauPair = tuple[Tableau, Tableau]
# (filling, row, col, key) of one label, 1-based; see `_keyed_cells`
KeyedCell = tuple[int, int, int, int]


class RuleError(RuntimeError):
    """An insertion or flip step produced an invalid tableau.

    Raised instead of silently repairing, by two checks: an insertion step
    whose Lusztig preimages of the regions before and after lifting a
    domino do not differ by one addable cell in one component
    (`_RegionNode`), and a flip that ends on another descent set than
    the insertion image's (`_flip`).  Either signals a bug in the Lusztig
    inverse or the flip, not a bad input.  ``tableau`` is the domino
    tableau being mapped, when known.
    """

    def __init__(self, message: str, tableau: DominoTableau | None = None):
        super().__init__(message)
        self.tableau = tableau


class Trace:
    """The swaps a flip makes: swaps lists the label i of each i/i+1 swap,
    in order.  Each trace starts with an empty list of its own."""

    __slots__ = ("swaps",)

    def __init__(self):
        self.swaps: list[int] = []

    def __repr__(self) -> str:
        return f"Trace(swaps={self.swaps!r})"


def _map_of(odd: int) -> tuple[Callable, int, str]:
    """(Lusztig inverse, second-filling key offset, name) of the insertion
    for sizes of the parity odd: `pi_c` (offset 1) for even sizes, `pi_b`
    (offset 3) for odd.  The inverse is read at call time, so a replaced
    one takes effect."""
    if odd:
        return lusztig_rho2_inverse, 3, "pi_b"
    return lusztig_rho1_inverse, 1, "pi_c"


@lru_cache(maxsize=None)
def _node(inverse, offset: int, region: Partition) -> _RegionNode:
    """The process-wide node (`_RegionNode`) of a covered region under one
    (Lusztig inverse, key offset), made once, on its first lookup, with
    the region's preimage under the inverse computed then: one call of the
    inverse per region, which refuses a region that is not a partition
    (ValueError).  The memo is keyed on the inverse itself, so a replaced
    inverse gets nodes of its own, validated afresh."""
    return _RegionNode(inverse, offset, region)


class _RegionNode:
    """The insertion steps out of one covered region, one store built
    whole on the node's first use (`build`): the insertion's first lookup
    or the walk's first visit; both read it as ``node.steps or
    node.build()``.  steps is None until then; it is then a dict from
    each border domino of the region, in `_domino_removals` order, to its
    step (domino, top row, bottom row, child node, keyed cell): the rows
    of the domino's two cells, the node of the region left once it is
    lifted off, and its label's keyed cell (filling, row, col, key), the
    cell the pair loses between the two regions, keyed by `_keyed_cell`
    at the node's offset.  A map follows one lookup per label.

    Each step is validated as it is built: the region's stored preimage
    under the Lusztig inverse exceeds the smaller region's by exactly one
    cell, at the end of one row of exactly one component, so the grown
    component is its old shape plus one addable cell (RuleError
    otherwise), and steps is assigned only once every step has passed,
    so a build that raises stores nothing.  Steps are tuples, so no
    caller can change them.
    """

    __slots__ = ("inverse", "offset", "region", "preimage", "steps")

    def __init__(self, inverse, offset: int, region: Partition):
        self.inverse, self.offset, self.region = inverse, offset, region
        self.preimage = inverse(region)
        self.steps = None

    def build(self) -> dict:
        """Validate every step out of the region, then store them as
        steps; return steps."""
        region, after, steps = self.region, self.preimage, {}
        for smaller, domino in _domino_removals(region):
            child = _node(self.inverse, self.offset, smaller)
            before = child.preimage
            grown = [k for k in (0, 1) if before[k] != after[k]]
            if len(grown) == 1:
                old, new = before[grown[0]], after[grown[0]]
                # the first row where they differ must gain one addable cell
                row = next((i for i, x in enumerate(old) if i >= len(new) or new[i] != x), len(old))
                col = (old[row] if row < len(old) else 0) + 1
                if (row == 0 or old[row - 1] >= col) and new == old[:row] + (col,) + old[row + 1:]:
                    (top, _), (bottom, _) = domino
                    cell = _keyed_cell(grown[0] + 1, row + 1, col, self.offset)
                    steps[domino] = domino, top, bottom, child, cell
                    continue
            raise RuleError(
                f"covered regions {smaller} -> {region}: pairs {before} -> {after} "
                "do not differ by one addable cell in one component"
            )
        self.steps = steps
        return steps


def _insert(t: DominoTableau, odd: int) -> list[KeyedCell]:
    """The keyed cells of the insertion image, labels 1..n in order.

    Lifts the dominoes off the shape, largest label first, down to the
    2-core (`()` or `(1,)`).  The shapes of the pair are forced at every
    stage: they are the preimage of the covered region under the Lusztig
    map, so the cell each lift takes from the pair holds the domino's
    label; the shape's node (`_node`) lifts the domino and keys the cell,
    one lookup per label, written into a list of n from the largest label
    down.  A domino the node has no step for is not a border domino of
    its region, as in a tableau that is not standard (ValueError).
    Anything but a `DominoTableau` is refused (ValueError naming
    it), by one class test; the shape and dominoes are read as stored,
    since the tableau's constructor checked them.
    """
    inverse, offset, name = _map_of(odd)
    if t.__class__ is not DominoTableau:
        raise ValueError(f"{name} needs a DominoTableau, got {t!r}")
    shape, dominoes = t.shape, t.dominoes
    if sum(shape) % 2 != odd:
        raise ValueError(f"{name} needs an {('even', 'odd')[odd]}-size shape")
    k = len(dominoes)
    node, cells = _node(inverse, offset, shape), [None] * k
    for domino in reversed(dominoes):
        k -= 1
        steps = node.steps or node.build()
        try:
            _, _, _, node, cells[k] = steps[domino]
        except KeyError:
            raise ValueError(f"cells {domino} are not a border domino of {node.region}") from None
    if node.region != (1,) * odd:
        raise ValueError(f"the dominoes do not tile shape {shape}")
    return cells


def pair_of(cells: list[KeyedCell]) -> TableauPair:
    """The tableau pair whose label i sits in the cell cells[i-1].

    The cells must form a standard pair in label order, as the insertion
    and the flip leave them: each label's cell then extends its row, or
    opens the next row, of what the smaller labels fill.
    """
    first: list[list[int]] = []
    second: list[list[int]] = []
    fillings = (None, first, second)
    label = 0
    for f, r, c, _ in cells:
        label += 1
        if c == 1:
            fillings[f].append([label])
        else:
            fillings[f][r - 1].append(label)
    return tuple(map(tuple, first)), tuple(map(tuple, second))


def pi_c(t: DominoTableau) -> TableauPair:
    """Insertion map for even-size standard domino tableaux."""
    return pair_of(_insert(t, 0))


def pi_b(t: DominoTableau) -> TableauPair:
    """Insertion map for odd-size standard domino tableaux."""
    return pair_of(_insert(t, 1))


def _keyed_cell(f: int, r: int, c: int, offset: int) -> KeyedCell:
    """The keyed cell (f, r, c, key) of the cell (r, c) of filling f, all
    1-based, under a map of that key offset.  The one coding of the
    pair-level key, which decides every pair maj: the cell's diagonal
    2(r - c), plus offset in the second filling."""
    return f, r, c, 2 * (r - c) + (offset if f == 2 else 0)


def _keyed_cells(pair: TableauPair, offset: int) -> list[KeyedCell]:
    """(filling, row, col, key) of labels 1..n in order, all 1-based, read
    from `label_positions` and keyed by `_keyed_cell`.  A pair that
    is not standard is refused (ValueError): it must have two fillings,
    each of a partition's shape with rows and columns increasing, that
    hold the labels 1..n once each."""
    pos = label_positions(pair)
    rows = [row for filling in pair for row in filling]
    if not (
        len(pair) == 2
        and sum(map(len, rows)) == len(pos)
        and sorted(pos) == list(range(1, len(pos) + 1))
        and all(row and all(a < b for a, b in zip(row, row[1:])) for row in rows)
        and all(
            len(below) <= len(above) and all(a < b for a, b in zip(above, below))
            for filling in pair
            for above, below in zip(filling, filling[1:])
        )
    ):
        raise ValueError(f"not a standard tableau pair: {pair}")
    return [_keyed_cell(*pos[label], offset) for label in range(1, len(pos) + 1)]


def _pair_maj(pair: TableauPair, odd: int) -> int:
    """Shifted-diagonal major index of a tableau pair.

    Label i is a descent when the cell of i+1 has a strictly larger
    pair-level key (`_keyed_cells` at the offset of the parity's map).
    Within one filling this reduces to "i+1 strictly lower"; across
    fillings it extends the same-row / same-cell comparisons consistently
    (the offsets are odd, so ties cannot occur).  Validated exhaustively
    against the domino major index.
    """
    keys = [k for _, _, _, k in _keyed_cells(pair, _map_of(odd)[1])]
    return sum(i for i in range(1, len(keys)) if keys[i] > keys[i - 1])


def pair_maj_c(pair: TableauPair) -> int:
    """Major index of an even-map image pair (second filling offset 1);
    equals the domino major index of its preimage."""
    return _pair_maj(pair, 0)


def pair_maj_b(pair: TableauPair) -> int:
    """Major index of an odd-map image pair (second filling offset 3);
    equals the domino major index of its preimage."""
    return _pair_maj(pair, 1)


def _flip(cells: list[KeyedCell], trace: Trace | None) -> list[KeyedCell]:
    """Swap labels across the fillings until the tuple descent set equals
    the pair-level descent set of the keyed cells.

    For labels i, i+1 in different fillings let the gap g_i be the key of
    the first filling's cell minus that of the second's: the pair-level
    comparison of i and i+1 changes exactly when the offset is raised by
    g_i, and once it is raised past every gap the pair-level rule is the
    tuple rule.  So slide the raise upward from 0: one scan finds the
    smallest gap above it and every i with that gap, swap i and i+1 for
    each of them (in ascending order; such labels are never consecutive),
    which restores the descent set, and move the raise to that gap; stop
    when no gap lies above it.  Every swap keeps the pair standard: i and
    i+1 sit in different fillings and no label lies between them, so each
    filling still increases along rows and columns.  A result whose tuple
    descent set is not the input's raises RuleError naming the input
    pair.  The first scan also compares, at each i, the tuple descent
    with the pair-level one, so a list that needs no swap is checked in
    that one scan and returned as it is, the input list itself; the first
    swap works on a copy, so the input list is never changed.
    """
    if len(cells) < 2:
        return cells
    given = cells
    raised = 0
    matched = True  # the first scan's check, redone in full after a swap
    while True:
        level, at = None, []
        f1, r1, _, k1 = cells[0]
        for i in range(1, len(cells)):
            f2, r2, _, k2 = cells[i]
            if f1 != f2:
                g = k1 - k2 if f1 == 1 else k2 - k1
                if g > raised:
                    if level is None or g < level:
                        level, at = g, [i - 1]
                    elif g == level:
                        at.append(i - 1)
                elif not g and f1 == 1:
                    # the tuple rule makes i a descent (f1 < f2), the keys
                    # not (k2 == k1); at any other gap not above 0 they agree
                    matched = False
            elif not raised and (r1 < r2) != (k2 > k1):
                matched = False
            f1, r1, k1 = f2, r2, k2
        if level is None:
            break
        raised = level
        if cells is given:
            cells = cells.copy()
        for i in at:
            cells[i], cells[i + 1] = cells[i + 1], cells[i]
            if trace is not None:
                trace.swaps.append(i + 1)
    if cells is not given:  # after a swap, compare with the input's keys
        pairs, matched = zip(cells, given), True
        (f1, r1, _, _), (_, _, _, k1) = next(pairs)
        for (f2, r2, _, _), (_, _, _, k2) in pairs:
            if (f1 < f2 or (f1 == f2 and r1 < r2)) != (k2 > k1):
                matched = False
                break
            f1, r1, k1 = f2, r2, k2
    if not matched:
        raise RuleError(f"flip procedure cannot match the descent set of {pair_of(given)}")
    return cells


def _flip_pair(pair: TableauPair, odd: int, trace: Trace | None) -> TableauPair:
    cells = _keyed_cells(pair, _map_of(odd)[1])
    flipped = _flip(cells, trace)
    return pair if flipped is cells else pair_of(flipped)


def flip_c(pair: TableauPair, trace: Trace | None = None) -> TableauPair:
    """Flip procedure for even-size map images (offset 1)."""
    return _flip_pair(pair, 0, trace)


def flip_b(pair: TableauPair, trace: Trace | None = None) -> TableauPair:
    """Flip procedure for odd-size map images (offset 3)."""
    return _flip_pair(pair, 1, trace)


def _prime(t: DominoTableau, odd: int) -> TableauPair:
    try:
        return pair_of(_flip(_insert(t, odd), None))
    except RuleError as exc:
        exc.tableau = t
        raise


def pi_c_prime(t: DominoTableau) -> TableauPair:
    """Major-index-preserving bijection for even-size shapes: `flip_c`
    after `pi_c`, with the pair built once."""
    return _prime(t, 0)


def pi_b_prime(t: DominoTableau) -> TableauPair:
    """Major-index-preserving bijection for odd-size shapes: `flip_b`
    after `pi_b`, with the pair built once."""
    return _prime(t, 1)


def map_shape(shape: Partition, visit: Callable[[int, list[KeyedCell]], None]) -> None:
    """Call visit(maj_domino(t), cells) for each standard domino tableau t
    of the shape, in `enumerate_sdt` order, with the keyed cells of
    `pi_c_prime`(t) (even size) or `pi_b_prime`(t) (odd size).

    One recursion lifts the largest label first, as `enumerate_sdt` and
    `_insert` do, over the nodes `_insert` looks up.  Label k's insertion
    step depends only on its domino and the region under it, so the walk
    reads each node's steps (`_RegionNode.steps`, built on the node's
    first use, by the walk or the maps) once for every tableau below and
    writes label k's keyed cell into one reused list (a visit that keeps
    the list must copy it); k is a descent when domino k's bottom row lies
    above domino k+1's top row.  Every label has a level of its own,
    label 1's iterating the rank-1 node's one step, and the level below
    it, k = 0, is the leaf, which flips the list and visits; so the walk
    builds nodes at one site and flips at one.  It builds each node and
    flips each tableau in the order the maps do, so its first RuleError
    is theirs: it names the leaf's tableau, or for a failing build the
    first tableau below that node.
    A shape given as a list reads its tuple form; a shape that is not a
    partition is refused (ValueError).
    """
    shape = check_partition(shape)
    n, odd = divmod(sum(shape), 2)
    if two_core(shape) != (1,) * odd:
        return
    inverse, offset, _ = _map_of(odd)
    cells: list = [None] * n
    stack: list = [None] * n  # stack[k-1] is the domino of label k

    def walk(node: _RegionNode, k: int, maj: int, below: int) -> None:
        """Labels k..1 below the node; at k = 0, the leaf."""
        if k == 0:
            try:
                image = _flip(cells, None)
            except RuleError as exc:
                exc.tableau = _trusted(shape, tuple(stack))
                raise
            visit(maj, image)
            return
        try:
            steps = node.steps or node.build()
        except RuleError as exc:
            # labels 1..k of the first tableau below, under labels k+1..n
            first = next(enumerate_sdt(node.region)).dominoes
            exc.tableau = _trusted(shape, first + tuple(stack[k:]))
            raise
        j = k - 1
        for stack[j], top, bottom, child, cells[j] in steps.values():
            walk(child, j, maj + k if bottom < below else maj, top)

    walk(_node(inverse, offset, shape), n, 0, 0)
