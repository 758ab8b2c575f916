import copy
import pickle
from itertools import islice
from types import SimpleNamespace

import pytest

from fakedegrees import dominoes
from fakedegrees.dominoes import (
    DominoTableau,
    _by_last_domino,
    enumerate_sdt,
    maj_domino,
    sdt_at,
    sdt_maj_gf,
)
from fakedegrees.qpoly import QPolynomial
from fakedegrees.shapes import (
    _domino_removals,
    lusztig_rho1,
    lusztig_rho2,
    multipartitions_of,
    partitions_of,
    two_core,
)
from oracles import is_standard, supports_domino, truncate


def test_census_222():
    ts = list(enumerate_sdt((2, 2, 2)))
    assert len(ts) == 3
    assert sorted(maj_domino(t) for t in ts) == [1, 2, 3]


def test_census_2211():
    ts = list(enumerate_sdt((2, 2, 1, 1)))
    assert len(ts) == 3
    assert sdt_maj_gf((2, 2, 1, 1)) == QPolynomial([0, 1, 1, 1])


def test_census_44():
    ts = list(enumerate_sdt((4, 4)))
    assert len(ts) == 6
    assert sdt_maj_gf((4, 4)) == QPolynomial([1, 1, 2, 1, 1])


def test_untileable_shapes():
    assert list(enumerate_sdt((2, 1))) == []
    assert not sdt_maj_gf((2, 1))


@pytest.mark.parametrize("shape", [(12, 11, 8, 7), (9, 7, 4, 3), (8, 7, 4, 3, 2, 2)])
def test_a_shape_with_a_nontrivial_2_core_stops_at_its_first_dead_end(monkeypatch, shape):
    """A shape whose 2-core is neither empty nor (1) has no tableau; the
    walk stops at the first region with no border domino, which is that
    core, reading at most one removals entry per rank on the way down
    (a walk of every tiling above the core reads hundreds to tens of
    thousands)."""
    calls = []

    def counting(p):
        calls.append(p)
        return _domino_removals(p)

    monkeypatch.setattr(dominoes, "_domino_removals", counting)
    assert list(enumerate_sdt(shape)) == []
    assert len(calls) <= sum(shape) // 2 + 1
    assert calls[-1] == two_core(shape) not in ((), (1,))


def test_zero_square_shapes():
    ts = list(enumerate_sdt((3, 2, 2)))
    assert all(t.has_zero_square for t in ts)
    assert sdt_maj_gf((3, 2, 2)) == QPolynomial([0, 1, 1, 1])
    assert list(enumerate_sdt((1,)))[0].dominoes == ()


def test_enumeration_is_standard_and_complete():
    for n in range(0, 8):
        for shape in partitions_of(n):
            ts = list(enumerate_sdt(shape))
            assert len(set(t.dominoes for t in ts)) == len(ts)
            assert bool(ts) == supports_domino(shape)
            for t in ts:
                assert is_standard(t)


def test_recursion_matches_enumeration():
    """The recursion on the largest domino gives the same sum as listing
    every domino tableau, on both Lusztig shapes of every pair, and zero on
    every shape that supports none."""
    for n in range(0, 7):
        for pair in multipartitions_of(n, 2):
            for shape in (lusztig_rho1(pair), lusztig_rho2(pair)):
                expected = QPolynomial.from_exponents(maj_domino(t) for t in enumerate_sdt(shape))
                assert sdt_maj_gf(shape) == expected, shape
    for size in range(0, 14):
        for shape in partitions_of(size):
            if not supports_domino(shape):
                assert not sdt_maj_gf(shape), shape


def test_memo_entries_are_running_sums():
    """The memo has one entry per border domino, in `_domino_removals`
    order, and entry k sums q^maj over the enumerated tableaux whose
    largest label lies in domino k or an earlier one, for every shape of
    size <= 13."""
    for size in range(0, 14):
        for shape in partitions_of(size):
            entries = _by_last_domino(shape)
            if size < 2:
                assert entries == ((None, (1,)),), shape
                continue
            removals = [cells for _, cells in _domino_removals(shape)]
            assert [cells for cells, _ in entries] == removals, shape
            placed = [(removals.index(t.dominoes[-1]), maj_domino(t)) for t in enumerate_sdt(shape)]
            for k, (_, coeffs) in enumerate(entries):
                below = QPolynomial.from_exponents(m for j, m in placed if j <= k)
                assert QPolynomial(coeffs) == below, (shape, k)


def reference_sdt_dominoes(shape, n):
    """The earlier enumerator, kept as the reference for its order: each
    border domino of the shape in `_domino_removals` order holds the
    largest label, each smaller tableau's tuple extended by it."""
    if n == 0:
        if sum(shape) == 0 or shape == (1,):
            yield ()
        return
    for smaller, cells in _domino_removals(shape):
        for rest in reference_sdt_dominoes(smaller, n - 1):
            yield rest + (cells,)


def test_enumeration_order_is_the_reference_order():
    """The CLI numbers domino tableaux by this order (`explain --index`),
    so it is pinned as a sequence, not a set."""
    for size in range(0, 13):
        for shape in partitions_of(size):
            if supports_domino(shape):
                expected = [DominoTableau(shape, d) for d in reference_sdt_dominoes(shape, size // 2)]
                assert list(enumerate_sdt(shape)) == expected, shape


def reference_regions(shape):
    """The regions of rank >= 1 of the reference recursion, in the order
    it reaches them: the shape, then below each border domino in turn."""
    if sum(shape) < 2:
        return []
    return [shape] + [r for smaller, _ in _domino_removals(shape) for r in reference_regions(smaller)]


@pytest.mark.parametrize(
    "shape",
    [(), (1,), (2,), (1, 1), (3,), (1, 1, 1), (2, 1), (2, 2), (3, 2), (4, 2), (3, 2, 2),
     (4, 4, 2, 2), (5, 3, 1), (9, 5, 5, 1, 1)],
)
def test_the_walk_reads_each_region_of_rank_1_or_more_once(monkeypatch, shape):
    """Enumerating a shape reads the removals table once for each region
    of rank >= 1 the reference recursion reaches, in its order, and no
    region of rank 0: label 1's domino is the one entry of the rank-1
    region's table.  The rank-1 2-core (2, 1) is read once and has no
    tableau."""
    calls = []

    def counting(p):
        calls.append(p)
        return _domino_removals(p)

    monkeypatch.setattr(dominoes, "_domino_removals", counting)
    tableaux = list(enumerate_sdt(shape))
    assert calls == reference_regions(shape)
    assert [t.dominoes for t in tableaux] == list(reference_sdt_dominoes(shape, sum(shape) // 2))
    assert bool(tableaux) == (shape != (2, 1))


def test_truncate_prefix_shapes():
    for t in enumerate_sdt((4, 4)):
        for k in range(t.n + 1):
            prefix = truncate(t, k)
            assert is_standard(prefix)
            assert sum(prefix.shape) == 2 * k


def test_render_and_json():
    t = list(enumerate_sdt((2, 2)))[0]
    assert t.render().splitlines() == ["1 1", "2 2"] or t.render().splitlines() == [
        "1 2",
        "1 2",
    ]
    data = t.to_json()
    assert data[0]["label"] == 1
    assert len(data) == 2


def test_sdt_maj_gf_of_a_list_shape_is_that_of_its_tuple_form():
    for n in range(0, 9):
        for shape in partitions_of(n):
            assert sdt_maj_gf(list(shape)) == sdt_maj_gf(shape), shape
    with pytest.raises(ValueError, match="partition parts must be"):
        sdt_maj_gf([1, 2])


def test_domino_tableau_is_a_value():
    """A `DominoTableau` is built by position or keyword, stores a shape
    or dominoes given as lists as tuples, is equal and hashes by (shape,
    dominoes), equals no tuple of them and no object of another class,
    has the repr of its fields, refuses any assignment or deletion, and
    survives pickle, `copy.copy` and `copy.deepcopy`.  A shape that is not
    a partition is refused at construction."""
    dominoes = (((1, 1), (2, 1)), ((1, 2), (2, 2)))
    t = DominoTableau((2, 2), dominoes)
    for same in (
        DominoTableau(shape=(2, 2), dominoes=dominoes),
        DominoTableau((2, 2), dominoes=dominoes),
        DominoTableau([2, 2], list(dominoes)),
        DominoTableau((2, 2), [[[1, 1], [2, 1]], [[1, 2], [2, 2]]]),
        sdt_at((2, 2), 0),
        pickle.loads(pickle.dumps(t)),
        copy.copy(t),
        copy.deepcopy(t),
    ):
        assert t == same and not t != same
        assert hash(t) == hash(same)
    assert hash(t) == hash(((2, 2), dominoes))
    assert len(set(enumerate_sdt((2, 2))) | {t}) == 2
    with pytest.raises(ValueError, match="partition parts must be positive"):
        DominoTableau((2, 2, 0), dominoes)
    for other in (
        sdt_at((2, 2), 1),
        ((2, 2), dominoes),
        SimpleNamespace(shape=(2, 2), dominoes=dominoes),
    ):
        assert t != other and not t == other
    assert repr(t) == "DominoTableau(shape=(2, 2), dominoes=(((1, 1), (2, 1)), ((1, 2), (2, 2))))"
    assert repr(DominoTableau((1,), ())) == "DominoTableau(shape=(1,), dominoes=())"
    for name in ("shape", "dominoes", "extra"):
        with pytest.raises(AttributeError):
            setattr(t, name, ())
    for name in ("shape", "dominoes"):
        with pytest.raises(AttributeError):
            delattr(t, name)
    assert (t.size, t.n, t.has_zero_square, t.cells_of(2)) == (4, 2, False, ((1, 2), (2, 2)))
    assert t.render() == "1 2\n1 2"
    assert t.to_json() == [
        {"label": 1, "cells": [[1, 1], [2, 1]]},
        {"label": 2, "cells": [[1, 2], [2, 2]]},
    ]


def test_render_zero_square():
    t = list(enumerate_sdt((1,)))[0]
    assert t.render() == "0"


@pytest.mark.parametrize(
    "shape, dominoes, refusal",
    [
        ((2,), (), r"cell \(1, 1\) is not covered in shape \(2,\)"),
        ((3,), (((1, 1), (1, 2)),), r"cell \(1, 1\) is covered twice"),
        ((2,), (((1, 1), (1, 2)), ((5, 5), (5, 6))), r"cell \(5, 5\) lies outside shape \(2,\)"),
        ((2, 2), (((1, 1), (1, 2)), ((1, 2), (2, 2))), r"cell \(1, 2\) is covered twice"),
        ((2, 2), (((1, 1), (1, 2)), ((2, 2), (2, 3))), r"cell \(2, 1\) is not covered in shape"),
    ],
    ids=["empty", "zero-square", "outside", "overlap", "shifted"],
)
def test_render_refuses_dominoes_that_do_not_cover_the_shape_once(shape, dominoes, refusal):
    """A tableau is drawn only when its dominoes cover each cell of its
    shape, the zero square aside, exactly once; otherwise render names the
    first cell that is missed, covered twice or outside the shape."""
    with pytest.raises(ValueError, match=refusal):
        DominoTableau(shape, dominoes).render()


def test_cells_of_takes_only_a_label_of_the_tableau():
    """cells_of(label) is the domino labelled label for 1..n, and an
    IndexError naming the label outside that range, where indexing the
    dominoes would read from the end, or when the label is not an int: a
    bool would read label 1's domino and a float would fail to index."""
    t = sdt_at((4, 2), 0)
    assert [t.cells_of(label) for label in (1, 2, 3)] == list(t.dominoes)
    for label in (0, -1, -3, 4, True, 1.0):
        with pytest.raises(IndexError, match=f"no domino labelled {label} in a tableau of 3"):
            t.cells_of(label)


def test_maj_is_row_strict():
    t = DominoTableau(shape=(2, 2), dominoes=(((1, 1), (2, 1)), ((1, 2), (2, 2))))
    assert maj_domino(t) == 0  # overlapping rows: no descent


def reference_maj_domino(t: DominoTableau) -> int:
    """The earlier two-pass formula: label i is a descent when the larger
    row of domino i is below the smaller row of domino i+1."""
    return sum(
        i
        for i, (a, b) in enumerate(zip(t.dominoes, t.dominoes[1:]), start=1)
        if max(a[0][0], a[1][0]) < min(b[0][0], b[1][0])
    )


def test_maj_equals_the_reference_formula():
    """On every domino tableau with n <= 7, and with each domino's cells
    given in the other order, as library callers may build them."""
    for n in range(0, 8):
        for pair_shape in multipartitions_of(n, 2):
            for rho in (lusztig_rho1, lusztig_rho2):
                for t in enumerate_sdt(rho(pair_shape)):
                    flipped = DominoTableau(t.shape, tuple((b, a) for a, b in t.dominoes))
                    assert maj_domino(t) == maj_domino(flipped) == reference_maj_domino(t)


def test_enumerate_sdt_yields_before_listing_the_shape():
    """The first tableaux of a shape with 6,726,720 of them come without
    the rest being built: the enumerator is lazy."""
    shape = (10, 8, 8, 6)
    assert list(islice(enumerate_sdt(shape), 3)) == [sdt_at(shape, i) for i in range(3)]


def test_sdt_at_is_the_enumeration_order():
    """sdt_at(shape, i) is the i-th tableau of `enumerate_sdt`, and the
    index just past the last one (or before the first) is an IndexError."""
    for size in range(0, 14):
        for shape in partitions_of(size):
            tableaux = list(enumerate_sdt(shape))
            assert [sdt_at(shape, i) for i in range(len(tableaux))] == tableaux, shape
            for index in (-1, len(tableaux)):
                with pytest.raises(IndexError, match=f"no standard domino tableau #{index}"):
                    sdt_at(shape, index)


@pytest.mark.parametrize("shape", [(2, 2), (8, 6, 4, 2)])
def test_sdt_at_takes_only_an_integral_index_in_range(shape):
    """An index that is not an int (1.0, True, a fractional float), or is
    negative or too large, is an IndexError, as `check_size` refuses a
    bool."""
    count = sum(sdt_maj_gf(shape).coeffs)
    assert count == 2 or count > 1000
    for index in (1.0, True, False, float(count - 1), 0.5, 1.5, count - 0.5, -1, count):
        with pytest.raises(IndexError, match="no standard domino tableau #"):
            sdt_at(shape, index)


@pytest.mark.parametrize(
    "call",
    [
        lambda: sdt_maj_gf((2, 4)),
        lambda: sdt_maj_gf((0,)),
        lambda: list(enumerate_sdt((2, 4))),
        lambda: list(enumerate_sdt((1, 1, -1))),
        lambda: sdt_at((2, 4), 0),
        lambda: sdt_at((0,), 0),
        lambda: list(enumerate_sdt(4)),
        lambda: sdt_maj_gf(None),
        lambda: sdt_at(6, 0),
        lambda: DominoTableau(4, ()),
    ],
)
def test_a_shape_that_is_not_a_partition_is_refused(call):
    """The enumerator, the generating-function reader, `sdt_at` and the
    tableau constructor refuse a shape that is not a partition, or not a
    sequence at all, and the memo stores no entry for it."""
    stored = _by_last_domino.cache_info().currsize
    with pytest.raises(ValueError, match="partition parts must be"):
        call()
    assert _by_last_domino.cache_info().currsize == stored
