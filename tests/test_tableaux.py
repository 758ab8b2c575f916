import inspect
import math

import pytest

from fakedegrees import tableaux
from fakedegrees.dominoes import enumerate_sdt
from fakedegrees.qpoly import QPolynomial, q_int
from fakedegrees.shapes import (
    _cell_removals,
    hooks,
    multipartitions_of,
    nonempty_components,
    partitions_of,
)
from fakedegrees.tableaux import (
    _maj_gf_by_last_cell,
    _nonempty_cell_removals,
    _tuple_maj_gf_restricted,
    enumerate_syt,
    enumerate_tuple_tableaux,
    format_tableau,
    format_tuple_tableau,
    label_positions,
    largest_label_component,
    maj_syt,
    maj_tuple,
    syt_maj_gf,
    tuple_maj_gf,
    tuple_maj_gf_restricted,
)
from oracles import shape_of


def syt_count_by_hooks(shape):
    n = sum(shape)
    denom = math.prod(hooks(shape))
    return math.factorial(n) // denom


def test_syt_enumeration_counts():
    for n in range(0, 7):
        for shape in partitions_of(n):
            ts = list(enumerate_syt(shape))
            assert len(ts) == syt_count_by_hooks(shape), shape
            assert len(set(ts)) == len(ts)
            for t in ts:
                assert shape_of(t) == shape


@pytest.mark.parametrize(
    "enumerator",
    [enumerate_syt, enumerate_tuple_tableaux, enumerate_sdt],
    ids=lambda f: f.__name__,
)
def test_enumerators_are_generator_functions(enumerator):
    """The benchmark tracer counts the tableaux of generator functions it
    finds with inspect.isgeneratorfunction."""
    assert inspect.isgeneratorfunction(enumerator)


def test_syt_standardness():
    for t in enumerate_syt((3, 2)):
        for i, row in enumerate(t):
            assert all(row[j] < row[j + 1] for j in range(len(row) - 1))
            if i:
                assert all(t[i - 1][j] < row[j] for j in range(len(row)))


def test_maj_examples():
    assert maj_syt(((1, 2, 3),)) == 0
    assert maj_syt(((1,), (2,), (3,))) == 1 + 2
    assert syt_maj_gf((2, 1)) == QPolynomial([0, 1, 1])


def reference_maj_tuple(t):
    """The earlier maj, through the label -> position dict."""
    pos = label_positions(t)
    total = 0
    for i in range(1, len(pos)):
        ci, ri, _ = pos[i]
        cj, rj, _ = pos[i + 1]
        if (ci == cj and ri < rj) or ci < cj:
            total += i
    return total


def test_maj_tuple_equals_the_reference_maj():
    """On every tuple tableau with d = 1, 2, 3 and n <= 6, the empty one
    included."""
    count = 0
    for d in (1, 2, 3):
        for n in range(0, 7):
            for mp in multipartitions_of(n, d):
                for t in enumerate_tuple_tableaux(mp):
                    assert maj_tuple(t) == reference_maj_tuple(t), t
                    count += 1
    assert maj_tuple(((), ())) == 0
    assert count > 10_000


def test_label_positions():
    t = ((1, 3), (2,))
    assert label_positions((t,)) == {1: (1, 1, 1), 3: (1, 1, 2), 2: (1, 2, 1)}
    assert label_positions(((), t, ((4,),))) == {
        1: (2, 1, 1), 3: (2, 1, 2), 2: (2, 2, 1), 4: (3, 1, 1),
    }


def test_largest_label_component():
    """The filling holding the largest label, read from the row ends; a
    tableau with no label is rejected by name."""
    assert largest_label_component((((1, 3), (2,)), ((4,),))) == 2
    assert largest_label_component((((1, 4), (2,)), ((3,),))) == 1
    assert largest_label_component(((), ((1, 2),), ((3,), (4,)))) == 3
    for t in ((), ((), ())):
        with pytest.raises(ValueError, match="empty tuple tableau has no largest label"):
            largest_label_component(t)
    for mp in multipartitions_of(5, 3):
        for t in enumerate_tuple_tableaux(mp):
            assert largest_label_component(t) == label_positions(t)[5][0]


def test_tuple_enumeration_counts():
    # multinomial times product of SYT counts
    for n in range(0, 5):
        for mp in multipartitions_of(n, 2):
            ts = list(enumerate_tuple_tableaux(mp))
            sizes = [sum(c) for c in mp]
            expected = math.factorial(n)
            for s in sizes:
                expected //= math.factorial(s)
            for c in mp:
                expected *= syt_count_by_hooks(c)
            assert len(ts) == expected, mp
            assert len(set(ts)) == len(ts)


def test_tuple_maj_known_value():
    assert tuple_maj_gf(((1, 1), (1,))) == QPolynomial([0, 1, 1, 1])


def test_restricted_gfs_known_values():
    assert tuple_maj_gf_restricted(((1, 1), (1,))) == QPolynomial([0, 1, 1])
    assert tuple_maj_gf_restricted(((1,), (1, 1))) == QPolynomial([0, 1])


def restricted_by_scan(mp):
    """The restricted sum as a scan of the memo read it: the last entry
    keyed in component 0 of the nonempty form, zero when the first
    filling is empty."""
    first = ()
    if mp[0]:
        for key, coeffs in _maj_gf_by_last_cell(nonempty_components(mp)):
            if key[0]:
                break
            first = coeffs
    return first


def test_the_indexed_restricted_read_is_the_scan():
    """Every nonempty pair form with n <= 8 (including first components
    with repeated parts): the entry of the first component's last corner,
    read by index, is the scan's."""
    repeated = 0
    for n in range(1, 9):
        for mp in multipartitions_of(n, 2):
            assert _tuple_maj_gf_restricted(mp) == restricted_by_scan(mp), mp
            repeated += len(set(mp[0])) < len(mp[0])
    assert repeated > 100


def test_restricted_complement_identity():
    """Restricting the largest label to either component splits the full
    generating function."""
    for n in range(1, 6):
        for mp in multipartitions_of(n, 2):
            lam1, lam2 = mp
            swapped = (lam2, lam1)
            total = tuple_maj_gf(mp)
            first = tuple_maj_gf_restricted(mp)
            second = QPolynomial()
            for t in enumerate_tuple_tableaux(mp):
                if largest_label_component(t) == 2:
                    second = second + QPolynomial.monomial(maj_tuple(t))
            assert first + second == total
            # every tableau has the largest label in exactly one component
            assert sum(first.coeffs) + sum(second.coeffs) == len(
                list(enumerate_tuple_tableaux(mp))
            )
            assert len(list(enumerate_tuple_tableaux(swapped))) == len(
                list(enumerate_tuple_tableaux(mp))
            )


def test_recursion_matches_enumeration():
    """The recursion on the largest label gives the same sums as listing
    every tuple tableau, in total and, for pairs, restricted to the
    tableaux whose largest label is in the first filling."""
    for d in (1, 2, 3):
        for n in range(0, 7):
            for mp in multipartitions_of(n, d):
                majs, first = [], []
                for t in enumerate_tuple_tableaux(mp):
                    majs.append(maj_tuple(t))
                    if n and largest_label_component(t) == 1:
                        first.append(majs[-1])
                assert tuple_maj_gf(mp) == QPolynomial.from_exponents(majs), mp
                if d == 2 and n:
                    assert tuple_maj_gf_restricted(mp) == QPolynomial.from_exponents(first), mp


def test_memo_entries_are_running_sums():
    """The memo is keyed on the nonempty components, in order: read at
    that form, a shape has one entry per corner, keyed by the 0-based
    (component, row, col) move of the form's `_cell_removals` table in its
    order, and entry k sums q^maj over the enumerated tableaux whose
    largest label sits at key k or an earlier one, for every tuple shape
    with d <= 3 and n <= 6.  An enumerated cell's component is counted
    among the nonempty ones: less the empty components before it."""
    for d in (1, 2, 3):
        assert _maj_gf_by_last_cell(nonempty_components(((),) * d)) == ((None, (1,)),)
        for n in range(1, 7):
            for mp in multipartitions_of(n, d):
                form = nonempty_components(mp)
                empties_before = [sum(not c for c in mp[:ci]) for ci in range(d)]
                placed = []
                for t in enumerate_tuple_tableaux(mp):
                    ci, r, c = label_positions(t)[n]
                    key = (ci - 1 - empties_before[ci - 1], r - 1, c - 1)
                    placed.append((key, maj_tuple(t)))
                entries = _maj_gf_by_last_cell(form)
                keys = [key for key, _ in entries]
                assert keys == sorted({key for key, _ in placed}), mp
                assert keys == [move for _, move in _cell_removals(form)], mp
                for key, coeffs in entries:
                    below = QPolynomial.from_exponents(m for k, m in placed if k <= key)
                    assert QPolynomial(coeffs) == below, (mp, key)


def test_empty_components_anywhere_give_the_enumerated_sum():
    """An empty filling holds no label and no row, so empty components
    placed anywhere leave the sum over the enumerated tableaux unchanged,
    for every tuple shape with d <= 4 and n <= 5; the memo, read at the
    nonempty components, solves each of their shapes once."""
    _maj_gf_by_last_cell.cache_clear()
    forms = set()
    for d in (1, 2, 3, 4):
        for n in range(0, 6):
            for mp in multipartitions_of(n, d):
                majs = map(maj_tuple, enumerate_tuple_tableaux(mp))
                assert tuple_maj_gf(mp) == QPolynomial.from_exponents(majs), mp
                forms.add(nonempty_components(mp))
    assert _maj_gf_by_last_cell.cache_info().currsize == len(forms)


def test_restricted_sum_is_zero_when_the_first_filling_is_empty():
    """No tableau of ((), mu) has its largest label in the first filling."""
    for n in range(1, 6):
        for mu in partitions_of(n):
            assert tuple_maj_gf_restricted(((), mu)) == QPolynomial(), mu
            assert tuple_maj_gf_restricted((mu, ())) == tuple_maj_gf((mu,)), mu


def test_a_shape_given_with_lists_reads_its_tuple_form():
    """The generating-function readers take a shape given with lists, as
    the enumerators do, and answer as for its tuple form."""
    for n in range(0, 6):
        for shape in partitions_of(n):
            assert syt_maj_gf(list(shape)) == syt_maj_gf(shape), shape
        for mp in multipartitions_of(n, 2):
            for given in ([list(c) for c in mp], (list(mp[0]), mp[1]), list(mp)):
                assert tuple_maj_gf(given) == tuple_maj_gf(mp), given
                if n:
                    assert tuple_maj_gf_restricted(given) == tuple_maj_gf_restricted(mp), given


@pytest.mark.parametrize("mp", [((),), ((1,), ()), ((), (2, 1)), ((1,), (), (1,))])
def test_the_memo_table_refuses_an_empty_component(mp):
    """The memo's table, and so the memo past rank 0, refuses a shape with
    an empty component, so no entry is stored keyed in its indexing."""
    with pytest.raises(ValueError, match="nonempty components"):
        _nonempty_cell_removals(mp)
    if sum(map(sum, mp)):
        with pytest.raises(ValueError, match="nonempty components"):
            _maj_gf_by_last_cell(mp)


@pytest.mark.parametrize(
    "call",
    [
        lambda: tuple_maj_gf(((2, 0),)),
        lambda: tuple_maj_gf(((0,),)),
        lambda: tuple_maj_gf(((1,), (1, 3))),
        lambda: tuple_maj_gf_restricted(((1, 2), (1,))),
        lambda: tuple_maj_gf_restricted(((), (2, 0))),
        lambda: tuple_maj_gf_restricted(((0,), ())),
        lambda: tuple_maj_gf_restricted(((1, -1), ())),
        lambda: tuple_maj_gf([[2, 0]]),
        lambda: syt_maj_gf([1, 2]),
        lambda: syt_maj_gf((1, 2)),
        lambda: list(enumerate_syt((1, 2))),
        lambda: list(enumerate_tuple_tableaux(((2,), (1, 1, 0)))),
        lambda: tuple_maj_gf_restricted((("a",), ())),
        lambda: list(enumerate_syt(4)),
        lambda: list(enumerate_tuple_tableaux(((2,), None))),
        lambda: tuple_maj_gf(((1,), 3)),
        lambda: syt_maj_gf(None),
        lambda: tuple_maj_gf_restricted(((1,), 2)),
    ],
)
def test_a_shape_that_is_not_a_partition_is_refused(call):
    """The enumerators and the generating-function readers refuse a
    component that is not a partition, or not a sequence at all, and the
    memo stores no entry for it."""
    stored = _maj_gf_by_last_cell.cache_info().currsize
    with pytest.raises(ValueError, match="partition parts must be"):
        call()
    assert _maj_gf_by_last_cell.cache_info().currsize == stored


def reference_tuple_tableaux(mp):
    """The earlier enumerator, kept as the reference for its order: the
    largest label at each corner in turn (components, then rows), each
    smaller tuple tableau rebuilt with it."""
    n = sum(sum(comp) for comp in mp)
    if n == 0:
        yield tuple(() for _ in mp)
        return
    for ci, comp in enumerate(mp):
        for corner, row in enumerate(comp):
            if corner + 1 == len(comp) or comp[corner + 1] < row:
                parts = list(comp)
                parts[corner] -= 1
                smaller = mp[:ci] + (tuple(x for x in parts if x),) + mp[ci + 1:]
                for t in reference_tuple_tableaux(smaller):
                    rows = [list(r) for r in t[ci]]
                    while len(rows) <= corner:
                        rows.append([])
                    rows[corner].append(n)
                    yield t[:ci] + (tuple(tuple(r) for r in rows),) + t[ci + 1:]


def test_enumeration_order_is_the_reference_order():
    """The CLI numbers tuple tableaux and SYT by this order, so it is
    pinned as a sequence, not a set."""
    for d, top in ((1, 7), (2, 6), (3, 4)):
        for n in range(0, top + 1):
            for mp in multipartitions_of(n, d):
                reference = list(reference_tuple_tableaux(mp))
                assert list(enumerate_tuple_tableaux(mp)) == reference, mp
                if d == 1:
                    assert [(t,) for t in enumerate_syt(mp[0])] == reference, mp


def reference_shapes(mp):
    """The shapes of rank >= 1 of the reference recursion, in the order
    it reaches them: the shape, then below each corner in turn."""
    if not any(mp):
        return []
    return [mp] + [s for smaller, _ in _cell_removals(mp) for s in reference_shapes(smaller)]


@pytest.mark.parametrize(
    "mp",
    [((),), ((), ()), ((1,),), ((), (1,), ()), ((), (), (1,)), ((2,),), ((1, 1),),
     ((1,), (1,)), ((), (2, 1), (), (1,), ()), ((3, 1), (2,)), ((2, 2), (), (1, 1))],
)
def test_the_walk_reads_each_shape_of_rank_1_or_more_once(monkeypatch, mp):
    """Enumerating a shape reads the removals table once for each shape
    of rank >= 1 the reference recursion reaches, in its order, and no
    shape of rank 0: label 1's cell is the one entry of the rank-1
    shape's table, also when it lies after empty components."""
    calls = []

    def counting(shape):
        calls.append(shape)
        return _cell_removals(shape)

    monkeypatch.setattr(tableaux, "_cell_removals", counting)
    assert list(enumerate_tuple_tableaux(mp)) == list(reference_tuple_tableaux(mp))
    assert calls == reference_shapes(mp)
    if len(mp) == 1:
        calls.clear()
        assert [(t,) for t in enumerate_syt(mp[0])] == list(reference_tuple_tableaux(mp))
        assert calls == reference_shapes(mp)


def test_tableaux_below_a_node_share_the_rows_and_fillings_above_it():
    """Consecutive tableaux agree on every label above the largest one
    they place differently, so a row or filling made only of those labels
    was completed above the node where they part, and both hold the one
    tuple built there."""
    ts = list(enumerate_tuple_tableaux(((3, 2), (2, 1))))
    shared = 0
    for a, b in zip(ts, ts[1:]):
        pa, pb = label_positions(a), label_positions(b)
        parted = max(x for x in pa if pa[x] != pb[x])
        for fa, fb in zip(a, b):
            if fa[0][0] > parted:
                assert fa is fb, (a, b)
                shared += 1
            for ra, rb in zip(fa, fb):
                if ra[0] > parted:
                    assert ra is rb, (a, b)
                    shared += 1
    assert len(ts) == 560 and shared > 0


def test_formatting():
    t = ((1, 3), (2,))
    assert format_tableau(t) == "[[1,3],[2]]"
    assert format_tuple_tableau((t, ((4,),))) == "[[1,3],[2]] ; [[4]]"
