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

from .dominoes import DominoTableau
from .shapes import check_partition, lusztig_rho1_inverse, lusztig_rho2_inverse
from .tableaux import Tableau, label_positions, shape_of

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


def _add_cell_row(t: Tableau, row: int, label: int) -> tuple[Tableau, tuple[int, int]]:
    """Append a cell at the end of 1-based row; must stay a partition."""
    rows = [list(r) for r in t]
    if row < 1 or row > len(rows) + 1:
        raise RuleError(f"cannot add to row {row} of shape {shape_of(t)}")
    while len(rows) < row:
        rows.append([])
    rows[row - 1].append(label)
    if row > 1 and len(rows[row - 1]) > len(rows[row - 2]):
        raise RuleError(f"row {row} addition breaks shape {shape_of(t)}")
    return tuple(tuple(r) for r in rows), (row, len(rows[row - 1]))


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


def _grown_cell(old: tuple[int, ...], new: tuple[int, ...]) -> tuple[int, int]:
    """1-based (row, col) of the single cell by which new exceeds old."""
    for i in range(len(new)):
        o = old[i] if i < len(old) else 0
        if new[i] != o:
            return (i + 1, new[i])
    raise RuleError(f"shapes {old} -> {new} do not differ by one cell")


def _run_insertion(t: DominoTableau, inverse, prefix: str, trace: Trace | None) -> TableauPair:
    """Build the pair stage by stage.

    At each stage the shapes of the pair are forced: they must be the
    preimage of the covered region under the Lusztig map (the covered
    region after each domino is itself a domino-supporting Young diagram).
    The new cell receives the domino's label.
    """
    covered = list(t.shape)
    # peel back to the empty stage, recording shapes
    stages = [tuple(covered)]
    for label in range(t.n, 0, -1):
        for (r, c) in t.cells_of(label):
            covered[r - 1] -= 1
        while covered and covered[-1] == 0:
            covered.pop()
        stages.append(check_partition(tuple(covered)))
    stages.reverse()

    pair: TableauPair = ((), ())
    prev = inverse(stages[0])
    for label in range(1, t.n + 1):
        cur = inverse(stages[label])
        target = 1 if cur[0] != prev[0] else 2
        row, col = _grown_cell(prev[target - 1], cur[target - 1])
        y, cell = _add_cell_row(pair[target - 1], row, label)
        if cell != (row, col):
            raise RuleError(f"label {label}: expected cell {(row, col)}, got {cell}")
        pair = (y, pair[1]) if target == 1 else (pair[0], y)
        if trace is not None:
            trace.steps.append(
                TraceStep(label=label, rule=_case_name(prefix, t.cells_of(label)),
                          target=target, cell=cell)
            )
        prev = cur
    return pair


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


def _n_of(pair: TableauPair) -> int:
    return sum(len(row) for t in pair for row in t)


def _diagonal(cell) -> int:
    """Diagonal 2(r - c) of a (filling, row, col) cell."""
    _, r, c = cell
    return 2 * (r - c)


def _descent_diag(pos, i, y2_offset: int) -> bool:
    """Shifted-diagonal descent rule for a tableau pair.

    Label i is a descent when the cell of i+1 sits on a strictly larger
    shifted diagonal, where a cell (r, c) has diagonal 2(r - c), offset by
    y2_offset in the second filling.  Within one filling this reduces to
    "i+1 strictly lower"; across fillings it extends the same-row /
    same-cell comparisons consistently (the offsets are odd, so ties
    cannot occur).  Validated exhaustively against the domino major index.
    """
    s1 = _diagonal(pos[i]) + (y2_offset if pos[i][0] == 2 else 0)
    s2 = _diagonal(pos[i + 1]) + (y2_offset if pos[i + 1][0] == 2 else 0)
    return s2 > s1


def _pair_maj(pair: TableauPair, y2_offset: int) -> int:
    pos = label_positions(pair)
    return sum(i for i in range(1, _n_of(pair)) if _descent_diag(pos, i, y2_offset))


def pair_maj_c(pair: TableauPair) -> int:
    """Major index of an even-map image pair (second filling offset 1);
    equals the domino major index of its preimage."""
    return _pair_maj(pair, 1)


def pair_maj_b(pair: TableauPair) -> int:
    """Major index of an odd-map image pair (second filling offset 3);
    equals the domino major index of its preimage."""
    return _pair_maj(pair, 3)


def _tuple_descent(pos, i) -> bool:
    """Tuple-tableau descent indicator: i+1 strictly lower in the same
    filling, or i in an earlier filling than i+1."""
    t1, r1, _ = pos[i]
    t2, r2, _ = pos[i + 1]
    return (t1 == t2 and r1 < r2) or t1 < t2


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
    descent set is not the input's raises RuleError.
    """
    n = _n_of(pair)
    pos = label_positions(pair)
    target = [_descent_diag(pos, i, offset) for i in range(1, n)]
    while True:
        gaps = {
            i: (_diagonal(pos[i]) - _diagonal(pos[i + 1])) * (1 if pos[i][0] == 1 else -1)
            for i in range(1, n)
            if pos[i][0] != pos[i + 1][0]
        }
        ahead = [g for g in gaps.values() if g > offset]
        if not ahead:
            break
        offset = min(ahead)
        for i in sorted(i for i, g in gaps.items() if g == offset):
            pos[i], pos[i + 1] = pos[i + 1], pos[i]
            if trace is not None:
                trace.swaps.append(i)
    if [_tuple_descent(pos, i) for i in range(1, n)] != target:
        raise RuleError(f"flip procedure cannot match the descent set of {pair}")
    fillings = [[list(row) for row in t] for t in pair]
    for label, (f, r, c) in pos.items():
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
