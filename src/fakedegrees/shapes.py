"""Partitions, multipartitions, hooks, b-statistics, and the 2-abacus.

A partition is a plain tuple of weakly decreasing positive integers; the
empty tuple is the empty partition.  A multipartition is a tuple of
partitions.  Rows and columns are indexed from 1, row 1 at the top.
With r >= len(p) rows, p has the r beads p_i + r - i; on the 2-abacus the
even beads lie on runner 0 and the odd ones on runner 1 (James-Kerber).
Every walk over domino tableaux reads `_domino_removals` (1-based
cells), and every walk over tuple tableaux `_cell_removals` (0-based
cells), the only coding of the (component, row) corner order and the
tuple side's only step rule: no other code decides whether a cell can
be added to or removed from a tuple shape (the insertion's region
nodes and the pair-level door in `bijections` read it too).  Both are
memoised and private: a memo keyed by a shape answers a float or bool
twin of a stored key, so only walkers whose shapes were checked read
them, and the route memos, which solve each shape once, read them
unmemoised.  A public reader checks its shape on every call.
"""

from __future__ import annotations

import operator
from collections.abc import Iterator, Sequence
from functools import lru_cache

Partition = tuple[int, ...]
Multipartition = tuple[Partition, ...]
Cell = tuple[int, int]


def check_partition(parts: Sequence[int]) -> Partition:
    """Validate a sequence of int parts, weak decrease and positivity;
    return a canonical tuple.  Anything that is not a sequence (an int,
    None) is refused with the same ValueError as a bad part."""
    try:
        p = tuple(parts)
    except TypeError:
        raise ValueError(f"partition parts must be a sequence of ints, got {parts!r}") from None
    last = p[0] if p else 0
    for x in p:
        if type(x) is not int:  # a bool is not a part
            raise ValueError(f"partition parts must be ints: {p}")
        if x < 1:
            raise ValueError(f"partition parts must be positive: {p}")
        if last < x:
            raise ValueError(f"partition parts must be weakly decreasing: {p}")
        last = x
    return p


def check_multipartition(mp: Sequence[Sequence[int]]) -> Multipartition:
    """Validate each component by `check_partition`; return a tuple of
    partition tuples.  Anything that is not a sequence (an int, None) is
    refused with a ValueError, as a bad component is, before any caller
    reads its length."""
    try:
        return tuple(map(check_partition, mp))
    except TypeError:
        raise ValueError(f"a label must be a sequence of partitions, got {mp!r}") from None


def parse_partition(text: str) -> Partition:
    """Parse "2,2,1" (empty string for the empty partition)."""
    text = text.strip()
    if not text:
        return ()
    try:
        parts = tuple(int(t) for t in text.split(","))
    except ValueError:
        raise ValueError(f"malformed partition {text!r}") from None
    return check_partition(parts)


def parse_multipartition(text: str) -> Multipartition:
    return tuple(parse_partition(t) for t in text.split("|"))


def format_partition(p: Partition) -> str:
    return ",".join(str(x) for x in p)


def format_multipartition(mp: Multipartition) -> str:
    return "|".join(format_partition(p) for p in mp)


def conjugate(p: Partition) -> Partition:
    if not p:
        return ()
    return tuple(sum(1 for x in p if x >= c) for c in range(1, p[0] + 1))


def hooks(p: Partition) -> list[int]:
    """Hook length (arm + leg + 1) of every cell, as a flat list."""
    conj = conjugate(p)
    out = []
    for i, row in enumerate(p, start=1):
        for j in range(1, row + 1):
            out.append((row - j) + (conj[j - 1] - i) + 1)
    return out


def b_statistic(p: Partition) -> int:
    """b(alpha) = sum (i-1)*alpha_i over rows numbered from 1."""
    return sum(i * part for i, part in enumerate(p))


def b_multi(mp: Multipartition) -> int:
    """b(lambda) = sum (i-1)*|component i|."""
    b = 0
    for i, comp in enumerate(mp):
        b += i * sum(comp)
    return b


def total_size(mp: Multipartition) -> int:
    return sum(map(sum, mp))


def nonempty_components(mp: Multipartition) -> Multipartition:
    """The nonempty components of mp, in order; mp itself when none is
    empty."""
    return mp if all(mp) else tuple(filter(None, mp))


def beta_set(p: Partition, r: int) -> tuple[int, ...]:
    """The r beads of p on the abacus, largest first: p_i + r - i."""
    if r < len(p):
        raise ValueError("not enough rows")
    return tuple(map(operator.add, tuple(p) + (0,) * (r - len(p)), range(r - 1, -1, -1)))


def from_beta_set(beads: Sequence[int]) -> Partition:
    """The partition whose beads are the given integers, in any order.

    Raises ValueError unless the beads are distinct and nonnegative.
    """
    beads = sorted(beads, reverse=True)
    parts = list(map(operator.sub, beads, range(len(beads) - 1, -1, -1)))
    if (parts and parts[-1] < 0) or parts != sorted(parts, reverse=True):
        raise ValueError(f"beads must be distinct and nonnegative: {beads}")
    return tuple(filter(None, parts))


def symbol_of(pair: Multipartition) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Defect-1 symbol of an ordered pair: two strictly increasing rows
    whose lengths differ by one.  Raises ValueError unless the pair has
    two components and each is a partition (`check_multipartition`)."""
    pair = check_multipartition(pair)
    if len(pair) != 2:
        raise ValueError("Lusztig map needs an ordered pair of partitions")
    lam1, lam2 = pair
    m = max(len(lam2), len(lam1) - 1)
    return beta_set(lam1, m + 1)[::-1], beta_set(lam2, m)[::-1]


def _lusztig(pair: Multipartition, parity: int) -> Partition:
    """The 2-abacus of the symbol: its long row on runner `parity`, its
    short row on the other runner."""
    long_row, short_row = symbol_of(pair)
    return from_beta_set(
        [2 * a + parity for a in long_row] + [2 * b + 1 - parity for b in short_row]
    )


def lusztig_rho1(pair: Multipartition) -> Partition:
    """Map an ordered partition pair of total size n to a partition of 2n."""
    return _lusztig(pair, 0)


def lusztig_rho2(pair: Multipartition) -> Partition:
    """Map an ordered partition pair of total size n to a partition of 2n+1."""
    return _lusztig(pair, 1)


def _lusztig_inverse(p: Partition, parity: int) -> Multipartition:
    """The pair mapping to p under the even (parity 0) or odd (parity 1)
    Lusztig map: the beads on runner `parity` of the 2-abacus of p (an
    odd number of beads) give the first component, the other runner the
    second."""
    kind = ("even", "odd")[parity]
    p = check_partition(p)
    if sum(p) % 2 != parity:
        raise ValueError(f"lusztig_rho{parity + 1}_inverse needs an {kind}-size shape")
    beads = beta_set(p, len(p) | 1)
    first = [b // 2 for b in beads if b % 2 == parity]
    second = [b // 2 for b in beads if b % 2 != parity]
    if len(first) != len(second) + 1:
        raise ValueError(f"shape {p} is not in the image of the {kind} Lusztig map")
    return (from_beta_set(first), from_beta_set(second))


def lusztig_rho1_inverse(p: Partition) -> Multipartition:
    """The unique pair mapping to p under lusztig_rho1.

    Splits the beta numbers of p (taken with an odd number of rows) by
    parity: even entries halve to the starred first component, odd entries
    to the starred second.  Raises ValueError when p is not in the image,
    i.e. does not support a standard domino tableau.
    """
    return _lusztig_inverse(p, 0)


def lusztig_rho2_inverse(p: Partition) -> Multipartition:
    """The unique pair mapping to p under lusztig_rho2."""
    return _lusztig_inverse(p, 1)


@lru_cache(maxsize=None)
def _domino_removals(p: Partition) -> tuple[tuple[Partition, tuple[Cell, Cell]], ...]:
    """Each border domino of p: the smaller shape left by removing it, and
    its two 1-based cells in increasing (row, col) order, the one
    orientation of a domino (`DominoTableau` stores the same).  The memo
    is process-wide; its entries are tuples, so no caller can change
    them."""
    out = []
    k = len(p)
    for i in range(k):
        below = p[i + 1] if i + 1 < k else 0
        # horizontal domino at the end of row i+1
        if p[i] - 2 >= below:
            parts = list(p)
            parts[i] -= 2
            out.append((tuple(x for x in parts if x), ((i + 1, p[i] - 1), (i + 1, p[i]))))
        if i + 1 < k and p[i] == p[i + 1]:
            deeper = p[i + 2] if i + 2 < k else 0
            # vertical domino at the end of rows i+1, i+2
            if p[i] - 1 >= deeper:
                parts = list(p)
                parts[i] -= 1
                parts[i + 1] -= 1
                out.append((tuple(x for x in parts if x), ((i + 1, p[i]), (i + 2, p[i]))))
    return tuple(out)


@lru_cache(maxsize=None)
def _cell_removals(mp: Multipartition) -> tuple[tuple[Multipartition, tuple[int, int, int]], ...]:
    """Each removable cell of mp, in (component, row) order: the smaller
    multipartition left by removing it, and its 0-based (component, row,
    column).  The only coding of the tuple-tableau corner order.  The
    memo is process-wide; its entries are tuples, so no caller can change
    them."""
    out = []
    for ci, comp in enumerate(mp):
        for ri, length in enumerate(comp):
            if ri + 1 == len(comp) or comp[ri + 1] < length:
                # a one-cell corner is the last row, which then goes
                smaller = comp[:ri] + (length - 1,) + comp[ri + 1:] if length > 1 else comp[:ri]
                out.append((mp[:ci] + (smaller,) + mp[ci + 1:], (ci, ri, length - 1)))
    return tuple(out)


def two_core(p: Partition) -> Partition:
    """The shape left once no domino can be removed: each runner's beads
    pushed down on the 2-abacus."""
    p = check_partition(p)
    beads = beta_set(p, len(p))
    odd = sum(b % 2 for b in beads)
    return from_beta_set([*range(0, 2 * (len(beads) - odd), 2), *range(1, 2 * odd, 2)])


def check_size(n: int, caller: str, least: int = 0) -> None:
    """The one rule for a size or rank n: an int (a bool is not one) no
    smaller than least; ValueError naming the caller otherwise."""
    if type(n) is not int:
        raise ValueError(f"{caller} requires an int n, got n = {n!r}")
    if n < least:
        raise ValueError(f"{caller} requires n >= {least}, got n = {n}")


def partitions_of(n: int, max_part: int | None = None) -> Iterator[Partition]:
    """All partitions of n (with no part above max_part, when given) in
    reverse lexicographic order."""
    check_size(n, "partitions_of")
    if max_part is None:
        max_part = n
    elif type(max_part) is not int:
        raise ValueError(f"partitions_of requires an int max_part, got {max_part!r}")
    if n == 0:
        yield ()
        return
    for first in range(min(n, max_part), 0, -1):
        for rest in partitions_of(n - first, first):
            yield (first,) + rest


def multipartitions_of(n: int, d: int) -> Iterator[Multipartition]:
    """All ordered d-tuples of partitions with total size n: the first
    component's size from n down to 0, each size's partitions in the
    order of `partitions_of`, then the later components likewise.

    The partitions of each k <= n are listed once per call, and the tuples
    of the last d - 1 components once per total size, component by
    component from the last; the d-tuples are then yielded one by one."""
    check_size(n, "multipartitions_of")
    if type(d) is not int or d < 1:
        raise ValueError(f"multipartitions_of requires an int d >= 1, got d = {d!r}")
    table = [list(partitions_of(k)) for k in range(n + 1)]
    tails: list[list[Multipartition]] = [[()]] + [[] for _ in range(n)]
    for _ in range(d - 1):
        tails = [
            [
                (head,) + tail
                for k in range(r, -1, -1)
                for head in table[k]
                for tail in tails[r - k]
            ]
            for r in range(n + 1)
        ]
    for k in range(n, -1, -1):
        for head in table[k]:
            for tail in tails[n - k]:
                yield (head,) + tail
