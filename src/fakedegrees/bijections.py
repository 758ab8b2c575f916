"""Constructive maps from standard domino tableaux to tableau pairs.

The even-size map (`pi_c`) and odd-size map (`pi_b`) add one labelled cell
to a pair of Young tableaux per domino; the receiving cell is forced at
every stage because the covered region determines the pair of component
shapes through the (inverse) two-quotient maps.  The pair-level major
index rules and the flip procedures then turn these into
major-index-preserving bijections (`pi_c_prime`, `pi_b_prime`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from .dominoes import DominoTableau
from .shapes import Partition, check_partition, lusztig_rho1_inverse, lusztig_rho2_inverse
from .tableaux import Tableau, shape_of

TableauPair = tuple[Tableau, Tableau]


class RuleError(RuntimeError):
    """An insertion or flip step produced an invalid tableau.

    Raised instead of silently repairing: it signals a transcription bug
    in the case rules (an insertion step that breaks a shape, or flips
    that end on another descent set), not a bad input.  ``tableau`` is
    the domino tableau being mapped, when known.
    """

    def __init__(self, message: str, tableau: DominoTableau | None = None):
        super().__init__(message)
        self.tableau = tableau


@dataclass
class TraceStep:
    label: int
    rule: str
    target: int  # 1 or 2, which tableau received the cell
    cell: tuple[int, int]


@dataclass
class Trace:
    steps: list[TraceStep] = field(default_factory=list)
    swaps: list[int] = field(default_factory=list)  # label i of each i/i+1 swap


def _case_name(prefix: str, domino: tuple[tuple[int, int], tuple[int, int]]) -> str:
    """Descriptive case label: orientation plus row/column and extreme-
    square parities of the domino, for traces."""
    (r1, c1), (r2, c2) = domino
    if r1 == r2:
        line_par = "e" if r1 % 2 == 0 else "o"
        ext_par = "e" if max(c1, c2) % 2 == 0 else "o"
        return f"{prefix}-H{line_par}{ext_par}"
    line_par = "e" if c1 % 2 == 0 else "o"
    ext_par = "e" if max(r1, r2) % 2 == 0 else "o"
    return f"{prefix}-V{line_par}{ext_par}"


@lru_cache(maxsize=None)
def _insertion_step(inverse, prev: Partition, cur: Partition) -> tuple[int, int, int]:
    """(target, row, col) of the cell the pair gains between two
    consecutive covered regions, 1-based.

    Validates, once per distinct (inverse, prev, cur): both regions are
    partitions (ValueError otherwise), and the preimage of cur under the
    Lusztig inverse exceeds that of prev by exactly one cell, at the end of
    one row of exactly one component, so the grown component is its old
    shape plus one addable cell (RuleError otherwise).  The memo is
    process-wide and keyed on the inverse itself, so a replaced inverse
    is validated afresh.
    """
    before = inverse(check_partition(prev))
    after = inverse(check_partition(cur))
    grown = [k for k in (0, 1) if before[k] != after[k]]
    if len(grown) == 1:
        old, new = before[grown[0]], after[grown[0]]
        # the first row where they differ must gain one addable cell
        row = next((i for i, x in enumerate(old) if i >= len(new) or new[i] != x), len(old))
        col = (old[row] if row < len(old) else 0) + 1
        if (row == 0 or old[row - 1] >= col) and new == old[:row] + (col,) + old[row + 1:]:
            return grown[0] + 1, row + 1, col
    raise RuleError(
        f"covered regions {prev} -> {cur}: pairs {before} -> {after} "
        "do not differ by one addable cell in one component"
    )


def _run_insertion(t: DominoTableau, inverse, prefix: str, trace: Trace | None) -> TableauPair:
    """Build the pair stage by stage.

    At each stage the shapes of the pair are forced: they must be the
    preimage of the covered region under the Lusztig map (the covered
    region after each domino is itself a domino-supporting Young diagram).
    The new cell receives the domino's label; `_insertion_step` finds it.
    """
    covered = list(t.shape)
    # peel back to the empty stage, recording the covered regions
    stages = [t.shape]
    for (r1, _), (r2, _) in reversed(t.dominoes):
        covered[r1 - 1] -= 1
        covered[r2 - 1] -= 1
        while covered and covered[-1] == 0:
            covered.pop()
        stages.append(tuple(covered))
    stages.reverse()
    if stages[0] not in ((), (1,)):
        raise ValueError(f"the dominoes do not tile shape {t.shape}")

    fillings: tuple[list[list[int]], list[list[int]]] = ([], [])
    for label in range(1, t.n + 1):
        target, row, col = _insertion_step(inverse, stages[label - 1], stages[label])
        rows = fillings[target - 1]
        if col == 1:
            rows.append([label])
        else:
            rows[row - 1].append(label)
        if trace is not None:
            trace.steps.append(
                TraceStep(label=label, rule=_case_name(prefix, t.cells_of(label)),
                          target=target, cell=(row, col))
            )
    return tuple(tuple(map(tuple, rows)) for rows in fillings)


def pi_c(t: DominoTableau, trace: Trace | None = None) -> TableauPair:
    """Insertion map for even-size standard domino tableaux."""
    if t.size % 2 != 0:
        raise ValueError("pi_c needs an even-size shape")
    return _run_insertion(t, lusztig_rho1_inverse, "piC", trace)


def pi_b(t: DominoTableau, trace: Trace | None = None) -> TableauPair:
    """Insertion map for odd-size standard domino tableaux."""
    if t.size % 2 != 1:
        raise ValueError("pi_b needs an odd-size shape")
    return _run_insertion(t, lusztig_rho2_inverse, "piB", trace)


def _cells_by_label(pair: TableauPair) -> list:
    """Label-indexed list of (filling, row, col, diagonal) with diagonal
    2(r - c), all 1-based; entry 0 is unused."""
    cells: list = [None] * (1 + sum(len(row) for t in pair for row in t))
    for f, t in enumerate(pair, start=1):
        for r, row in enumerate(t, start=1):
            for c, x in enumerate(row, start=1):
                cells[x] = (f, r, c, 2 * (r - c))
    return cells


def _pair_maj(pair: TableauPair, y2_offset: int) -> int:
    """Shifted-diagonal major index of a tableau pair.

    Label i is a descent when the cell of i+1 sits on a strictly larger
    shifted diagonal, where a cell (r, c) has diagonal 2(r - c), offset by
    y2_offset in the second filling.  Within one filling this reduces to
    "i+1 strictly lower"; across fillings it extends the same-row /
    same-cell comparisons consistently (the offsets are odd, so ties
    cannot occur).  Validated exhaustively against the domino major index.
    """
    keys = [d + y2_offset if f == 2 else d for f, _, _, d in _cells_by_label(pair)[1:]]
    return sum(i for i in range(1, len(keys)) if keys[i] > keys[i - 1])


def pair_maj_c(pair: TableauPair) -> int:
    """Major index of an even-map image pair (second filling offset 1);
    equals the domino major index of its preimage."""
    return _pair_maj(pair, 1)


def pair_maj_b(pair: TableauPair) -> int:
    """Major index of an odd-map image pair (second filling offset 3);
    equals the domino major index of its preimage."""
    return _pair_maj(pair, 3)


def _flip_to_pattern(pair: TableauPair, offset: int, trace: Trace | None) -> TableauPair:
    """Swap labels across the fillings until the tuple descent set equals
    the pair-level descent set of the input at the given offset.

    For labels i, i+1 in different fillings let the gap g_i be the
    diagonal of the first filling's cell minus that of the second's: the
    pair-level comparison of i and i+1 changes exactly when the offset
    passes g_i, and once the offset exceeds every gap the pair-level rule
    is the tuple rule.  So slide the offset upward: take the smallest gap
    above it, swap i and i+1 for every i with that gap (in ascending
    order; such labels are never consecutive), which restores the
    descent set, and move the offset to that gap; stop when no gap lies
    above it.  Every swap keeps the pair standard: i and i+1 sit in
    different fillings and no label lies between them, so each filling
    still increases along rows and columns.  A result whose tuple
    descent set is not the input's raises RuleError; with no swap made,
    the input pair itself is the result.
    """
    cells = _cells_by_label(pair)
    n = len(cells) - 1
    keys = [d + offset if f == 2 else d for f, _, _, d in cells[1:]]
    target = [keys[i] > keys[i - 1] for i in range(1, n)]
    swapped = False
    while True:
        gaps = [
            (i, d1 - d2 if f1 == 1 else d2 - d1)
            for i, (f1, _, _, d1), (f2, _, _, d2) in zip(range(1, n), cells[1:], cells[2:])
            if f1 != f2
        ]
        offset = min((g for _, g in gaps if g > offset), default=None)
        if offset is None:
            break
        for i, g in gaps:
            if g == offset:
                cells[i], cells[i + 1] = cells[i + 1], cells[i]
                swapped = True
                if trace is not None:
                    trace.swaps.append(i)
    tuple_descents = [
        f1 < f2 or (f1 == f2 and r1 < r2)
        for (f1, r1, _, _), (f2, r2, _, _) in zip(cells[1:], cells[2:])
    ]
    if tuple_descents != target:
        raise RuleError(f"flip procedure cannot match the descent set of {pair}")
    if not swapped:
        return pair
    fillings = [[list(row) for row in t] for t in pair]
    for label, (f, r, c, _) in enumerate(cells[1:], start=1):
        fillings[f - 1][r - 1][c - 1] = label
    return tuple(tuple(tuple(row) for row in t) for t in fillings)


def flip_c(pair: TableauPair, trace: Trace | None = None) -> TableauPair:
    """Flip procedure for even-size map images (offset 1)."""
    return _flip_to_pattern(pair, 1, trace)


def flip_b(pair: TableauPair, trace: Trace | None = None) -> TableauPair:
    """Flip procedure for odd-size map images (offset 3)."""
    return _flip_to_pattern(pair, 3, trace)


def pi_c_prime(t: DominoTableau, trace: Trace | None = None) -> TableauPair:
    """Major-index-preserving bijection for even-size shapes."""
    try:
        return flip_c(pi_c(t, trace), trace)
    except RuleError as exc:
        exc.tableau = t
        raise


def pi_b_prime(t: DominoTableau, trace: Trace | None = None) -> TableauPair:
    """Major-index-preserving bijection for odd-size shapes."""
    try:
        return flip_b(pi_b(t, trace), trace)
    except RuleError as exc:
        exc.tableau = t
        raise


def pair_shapes(pair: TableauPair) -> tuple[tuple[int, ...], tuple[int, ...]]:
    return (shape_of(pair[0]), shape_of(pair[1]))
