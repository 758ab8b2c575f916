"""Ground-truth checks that only the tests use: schoolbook polynomial
multiplication, the regular sum by schoolbook accumulation, partitions
and multipartitions by brute force, a search for domino support, a
cell-by-cell standardness check, prefixes of a domino tableau, the shapes
of tableaux, the hook formula by long division and the q-multinomial by
the q-Pascal rule."""

from __future__ import annotations

from functools import lru_cache, reduce
from itertools import combinations, product

from fakedegrees.dominoes import DominoTableau
from fakedegrees.fakedeg import all_representations, fake_degree
from fakedegrees.qpoly import ONE, QPolynomial, q_int
from fakedegrees.shapes import (
    Cell,
    Partition,
    _domino_removals,
    b_statistic,
    hooks,
    two_core,
)


def mul_by_convolution(a: QPolynomial, b: QPolynomial) -> QPolynomial:
    """The schoolbook product: every pair of coefficients, one at a time."""
    if not a.coeffs or not b.coeffs:
        return QPolynomial()
    out = [0] * (len(a.coeffs) + len(b.coeffs) - 1)
    for i, x in enumerate(a.coeffs):
        for j, y in enumerate(b.coeffs):
            out[i + j] += x * y
    return QPolynomial(out)


def product_by_convolution(polys) -> QPolynomial:
    """The product of the polynomials, folded pairwise by
    mul_by_convolution; the empty product is 1."""
    return reduce(mul_by_convolution, polys, ONE)


def weighted_sum_by_accumulation(terms) -> QPolynomial:
    """Sum of w * cs over the (weight, coefficient list) terms, one
    coefficient at a time."""
    acc: list[int] = []
    for w, cs in terms:
        acc.extend([0] * (len(cs) - len(acc)))
        for k, c in enumerate(cs):
            acc[k] += w * c
    return QPolynomial(acc)


def regular_sum_by_accumulation(group: str, n: int, d: int = 2) -> QPolynomial:
    """Sum of dim(V) * f_V over the irreducibles, one coefficient at a
    time, dim(V) the sum of the coefficients of f_V."""
    fakes = [fake_degree(rep).coeffs for rep in all_representations(group, n, d)]
    return weighted_sum_by_accumulation((sum(cs), cs) for cs in fakes)


def partitions_by_cuts(n: int, max_part: int | None = None) -> list[Partition]:
    """Every partition of n with no part above max_part (when given), in
    decreasing tuple order: each composition of n, one per set of cut
    points among 1..n-1, kept when its parts weakly decrease."""
    out = []
    for k in range(n):
        for cuts in combinations(range(1, n), k):
            bounds = (0, *cuts, n)
            parts = tuple(b - a for a, b in zip(bounds, bounds[1:]))
            if list(parts) == sorted(parts, reverse=True):
                out.append(parts)
    if n == 0:
        out.append(())
    fits = [p for p in out if max_part is None or max(p, default=0) <= max_part]
    return sorted(fits, reverse=True)


def multipartitions_by_sizes(n: int, d: int) -> list[tuple[Partition, ...]]:
    """Every d-tuple of partitions of total size n, one product of
    partition lists per d-tuple of component sizes, sorted so that the
    first component's size, then the first component, then the second
    component's size, and so on, decrease."""
    out = []
    for sizes in product(range(n + 1), repeat=d):
        if sum(sizes) == n:
            out.extend(product(*map(partitions_by_cuts, sizes)))
    return sorted(out, key=lambda mp: [(sum(c), c) for c in mp], reverse=True)


@lru_cache(maxsize=None)
def q_factorial_by_convolution(r: int) -> QPolynomial:
    """[r]_q! = [1]_q [2]_q ... [r]_q by schoolbook products."""
    return product_by_convolution(map(q_int, range(1, r + 1)))


@lru_cache(maxsize=None)
def supports_domino(p: Partition) -> bool:
    """Whether at least one standard domino tableau of this shape exists.

    Ground truth by search: peel off one border domino at a time, keeping a
    Young diagram at each stage, down to the empty shape (even size) or the
    single zero square (odd size).
    """
    n = sum(p)
    if n == 0:
        return True
    if p == (1,):
        return True
    for smaller, _cells in _domino_removals(p):
        if supports_domino(smaller):
            return True
    return False


def supports_domino_by_core(p: Partition) -> bool:
    """2-core criterion: empty core for even size, single box for odd."""
    core = two_core(p)
    return core == () if sum(p) % 2 == 0 else core == (1,)


def is_standard(t: DominoTableau) -> bool:
    """Every prefix of labels (plus the zero square) covers a Young
    diagram."""
    covered: set[Cell] = set()
    if t.has_zero_square:
        covered.add((1, 1))
    if not _is_young(covered):
        return False
    for label in range(1, t.n + 1):
        a, b = t.cells_of(label)
        if a in covered or b in covered:
            return False
        covered.add(a)
        covered.add(b)
        if not _is_young(covered):
            return False
    return _cells_of_shape(t.shape) == covered


def _is_young(cells: set[Cell]) -> bool:
    for (r, c) in cells:
        if r > 1 and (r - 1, c) not in cells:
            return False
        if c > 1 and (r, c - 1) not in cells:
            return False
    return True


def _cells_of_shape(shape: Partition) -> set[Cell]:
    return {(r, c) for r, row in enumerate(shape, start=1) for c in range(1, row + 1)}


def truncate(t: DominoTableau, k: int) -> DominoTableau:
    """The sub-tableau of labels <= k (keeping the zero square)."""
    cells: list[Cell] = []
    if t.has_zero_square:
        cells.append((1, 1))
    for label in range(1, k + 1):
        cells.extend(t.cells_of(label))
    max_row = max((r for r, _ in cells), default=0)
    shape = tuple(
        sum(1 for (r, _c) in cells if r == row) for row in range(1, max_row + 1)
    )
    return DominoTableau(shape=shape, dominoes=t.dominoes[:k])


def shape_of(t) -> Partition:
    return tuple(len(row) for row in t)


def pair_shapes(pair) -> tuple[Partition, Partition]:
    return (shape_of(pair[0]), shape_of(pair[1]))


def hook_syt_gf_by_long_division(shape: Partition) -> QPolynomial:
    """The hook form q^b(shape) [r]_q! / prod over cells [hook]_q, computed
    as [r]_q! by schoolbook products, then one exact long division by
    [h]_q per cell."""
    r = sum(shape)
    num = q_factorial_by_convolution(r).shift(b_statistic(shape))
    for h in hooks(shape):
        num = num.exact_div(q_int(h))
    return num


@lru_cache(maxsize=None)
def q_binomial_by_pascal(n: int, k: int) -> QPolynomial:
    """The q-binomial [n, k] by the q-Pascal rule
    [n, k] = [n-1, k-1] + q^k [n-1, k], with no division."""
    if k == 0 or k == n:
        return ONE
    return q_binomial_by_pascal(n - 1, k - 1) + q_binomial_by_pascal(n - 1, k).shift(k)


def q_multinomial_by_pascal(parts) -> QPolynomial:
    """The q-multinomial of the parts as the schoolbook product of
    q-binomials [p_1 + ... + p_j, p_j], one per part, each by the q-Pascal
    rule."""
    totals = [sum(parts[: j + 1]) for j in range(len(parts))]
    return product_by_convolution(map(q_binomial_by_pascal, totals, parts))
