import pytest
from hypothesis import given, settings, strategies as st

from fakedegrees import bijections
from fakedegrees.bijections import (
    RuleError,
    Trace,
    _insertion_step,
    flip_b,
    flip_c,
    pair_maj_b,
    pair_maj_c,
    pair_shapes,
    pi_b,
    pi_b_prime,
    pi_c,
    pi_c_prime,
)
from fakedegrees.dominoes import DominoTableau, _by_last_domino, enumerate_sdt, maj_domino, truncate
from fakedegrees.shapes import (
    domino_removals,
    lusztig_rho1,
    lusztig_rho1_inverse,
    lusztig_rho2,
    lusztig_rho2_inverse,
    multipartitions_of,
)
from fakedegrees.tableaux import enumerate_tuple_tableaux, label_positions, maj_tuple


def test_pi_parity_checks():
    t_even = next(iter(enumerate_sdt((2,))))
    t_odd = next(iter(enumerate_sdt((1,))))
    with pytest.raises(ValueError):
        pi_b(t_even)
    with pytest.raises(ValueError):
        pi_c(t_odd)


def restricted_shapes(pair, k):
    """Shapes of the two fillings cut down to the labels 1..k."""
    return tuple(
        tuple(filter(None, (sum(x <= k for x in row) for row in filling))) for filling in pair
    )


def test_insertion_shapes_and_cells():
    """Each image has the pair shape, and for every k the labels 1..k fill
    the preimage of the region that dominoes 1..k cover, so each label
    sits in the cell its domino adds."""
    for n in range(0, 5):
        for pair_shape in multipartitions_of(n, 2):
            for rho, inverse, pi in (
                (lusztig_rho1, lusztig_rho1_inverse, pi_c),
                (lusztig_rho2, lusztig_rho2_inverse, pi_b),
            ):
                for t in enumerate_sdt(rho(pair_shape)):
                    pair = pi(t)
                    assert pair_shapes(pair) == pair_shape
                    assert sorted(label_positions(pair)) == list(range(1, n + 1))
                    for k in range(n + 1):
                        assert restricted_shapes(pair, k) == inverse(truncate(t, k).shape)


@pytest.mark.parametrize(
    "bend",
    [
        # the grown component gains a second cell
        lambda pair: tuple((c[0] + 1,) + c[1:] if c else c for c in pair),
        # the other component grows as well
        lambda pair: tuple(c or (1,) for c in pair),
    ],
    ids=["two-cells", "both-components"],
)
def test_insertion_rejects_a_bent_stage(monkeypatch, bend):
    """An inverse whose preimages of the size-2 regions grow wrongly makes
    pi_c raise RuleError, although the true inverse's steps are already
    memoised; the true inverse maps as before afterwards."""
    tableaux = list(enumerate_sdt((4, 2, 2)))
    expected = [pi_c(t) for t in tableaux]

    def bent(p):
        pair = lusztig_rho1_inverse(p)
        return bend(pair) if sum(p) == 2 else pair

    monkeypatch.setattr(bijections, "lusztig_rho1_inverse", bent)
    for t in tableaux:
        with pytest.raises(RuleError, match="one addable cell in one component"):
            pi_c(t)
    monkeypatch.undo()
    assert [pi_c(t) for t in tableaux] == expected


def test_insertion_rejects_dominoes_that_do_not_tile():
    """Every covered region must be a partition, and peeling every domino
    must leave the empty shape."""
    below_first = DominoTableau(shape=(2, 2), dominoes=(((2, 1), (2, 2)), ((1, 1), (1, 2))))
    with pytest.raises(ValueError, match="partition parts must be positive"):
        pi_c(below_first)
    too_few = DominoTableau(shape=(4,), dominoes=(((1, 3), (1, 4)),))
    with pytest.raises(ValueError, match="do not tile"):
        pi_c(too_few)


def test_insertion_memo_is_order_independent_and_immutable():
    """The process-wide step memo gives the same images whether the small
    shapes are mapped first or the large ones, and every cached step is a
    tuple naming the filling and cell where the image holds that label."""
    shapes = [ps for n in range(0, 6) for ps in multipartitions_of(n, 2)]
    maps = ((lusztig_rho1, lusztig_rho1_inverse, pi_c), (lusztig_rho2, lusztig_rho2_inverse, pi_b))
    runs = []
    for order in (shapes, shapes[::-1]):
        _insertion_step.cache_clear()
        runs.append({
            (ps, pi): [pi(t) for t in enumerate_sdt(rho(ps))] for ps in order for rho, _, pi in maps
        })
        for ps in order:
            for rho, inverse, pi in maps:
                for t in enumerate_sdt(rho(ps)):
                    pos = label_positions(pi(t))
                    for k in range(1, t.n + 1):
                        entry = _insertion_step(inverse, truncate(t, k - 1).shape, truncate(t, k).shape)
                        assert isinstance(entry, tuple)
                        assert entry == pos[k]
    assert runs[0] == runs[1]


def test_pair_maj_equals_domino_maj():
    for n in range(0, 6):
        for pair_shape in multipartitions_of(n, 2):
            for t in enumerate_sdt(lusztig_rho1(pair_shape)):
                assert pair_maj_c(pi_c(t)) == maj_domino(t)
            for t in enumerate_sdt(lusztig_rho2(pair_shape)):
                assert pair_maj_b(pi_b(t)) == maj_domino(t)


def test_flip_worked_example_even():
    y = (((4,), (6,)), ((1, 3), (2, 5)))
    trace = Trace()
    z = flip_c(y, trace)
    assert z == (((3,), (4,)), ((1, 5), (2, 6)))
    assert trace.swaps == [3, 5, 4]


def test_flip_worked_example_second():
    y = (((1,), (3,), (4,)), ((2,),))
    trace = Trace()
    z = flip_c(y, trace)
    assert z == (((1,), (2,), (3,)), ((4,),))
    assert trace.swaps == [2, 3]


def test_flip_fixpoint_when_nothing_qualifies():
    y = (((1, 2),), ((3,),))
    trace = Trace()
    assert flip_c(y, trace) == y
    assert trace.swaps == []


def test_flip_preserves_shapes_and_labels():
    for n in range(0, 5):
        for pair_shape in multipartitions_of(n, 2):
            for t in enumerate_sdt(lusztig_rho1(pair_shape)):
                y = pi_c(t)
                z = flip_c(y)
                assert pair_shapes(z) == pair_shapes(y)
                labels = sorted(x for f in z for row in f for x in row)
                assert labels == list(range(1, n + 1))


def certify(rho, prime, pair_shape_list):
    for pair_shape in pair_shape_list:
        images = []
        for t in enumerate_sdt(rho(pair_shape)):
            z = prime(t)
            assert pair_shapes(z) == pair_shape
            assert maj_tuple(z) == maj_domino(t)
            images.append(z)
        assert len(set(images)) == len(images)  # injective
        assert sorted(images) == sorted(enumerate_tuple_tableaux(pair_shape))


PAIR_SHAPES_THROUGH_5 = [ps for n in range(6) for ps in multipartitions_of(n, 2)]


def test_pi_c_prime_bijection_certified():
    certify(lusztig_rho1, pi_c_prime, PAIR_SHAPES_THROUGH_5)


def test_pi_b_prime_bijection_certified():
    certify(lusztig_rho2, pi_b_prime, PAIR_SHAPES_THROUGH_5)


def test_pi_c_prime_injective_where_shortest_flips_collided():
    """On each of these n = 8 shapes, a breadth-first shortest-flip search
    sent two domino tableaux to one pair."""
    certify(lusztig_rho1, pi_c_prime, [((2, 1, 1), (4,)), ((1, 1, 1, 1), (3, 1))])


def test_flip_b_small_case():
    """Odd-size inputs flip under the odd descent rule; sanity on a small
    case that needs no flips."""
    t = next(iter(enumerate_sdt((3, 2, 2))))
    y = pi_b(t)
    z = flip_b(y)
    assert maj_tuple(z) == maj_domino(t)


def random_sdt(shape, rand) -> DominoTableau:
    """A uniform random standard domino tableau of the shape, drawn from
    the largest label down: each border domino is taken with probability
    proportional to the number of tableaux of the shape left without it,
    the coefficient sum of its entry in the domino memo."""
    dominoes = []
    p = shape
    while sum(p) > 1:
        entries = list(zip(domino_removals(p), _by_last_domino(p)))
        pick = rand.randrange(sum(sum(coeffs) for _, (_, coeffs) in entries))
        for (smaller, cells), (memo_cells, coeffs) in entries:
            assert cells == memo_cells
            pick -= sum(coeffs)
            if pick < 0:
                break
        dominoes.append(cells)
        p = smaller
    return DominoTableau(shape=shape, dominoes=tuple(reversed(dominoes)))


def is_standard_pair(pair, pair_shape) -> bool:
    labels = sorted(x for t in pair for row in t for x in row)
    return (
        pair_shapes(pair) == pair_shape
        and labels == list(range(1, len(labels) + 1))
        and all(
            all(a < b for a, b in zip(row, row[1:])) and all(a < b for a, b in zip(above, row))
            for t in pair
            for above, row in zip(((),) + t, t)
        )
    )


def descent_set(pair, rule) -> set[int]:
    pos = label_positions(pair)
    return {i for i in range(1, len(pos)) if rule(pos[i], pos[i + 1])}


def tuple_rule(a, b) -> bool:
    """i+1 strictly lower in the same filling, or i in an earlier one."""
    return (a[0] == b[0] and a[1] < b[1]) or a[0] < b[0]


def diagonal_rule(offset):
    """i+1 on a strictly larger diagonal 2(r - c), the second filling's
    shifted by offset."""
    def key(cell):
        f, r, c = cell
        return 2 * (r - c) + (offset if f == 2 else 0)

    return lambda a, b: key(b) > key(a)


large_pair_shapes = st.integers(10, 14).flatmap(
    lambda n: st.sampled_from(list(multipartitions_of(n, 2)))
)


@settings(max_examples=50, deadline=None)
@given(large_pair_shapes, st.randoms(use_true_random=False))
def test_bijections_past_the_certified_range(pair_shape, rand):
    for rho, insert, prime, offset in (
        (lusztig_rho1, pi_c, pi_c_prime, 1),
        (lusztig_rho2, pi_b, pi_b_prime, 3),
    ):
        t = random_sdt(rho(pair_shape), rand)
        z = prime(t)
        assert is_standard_pair(z, pair_shape)
        assert descent_set(z, tuple_rule) == descent_set(insert(t), diagonal_rule(offset))
        assert maj_tuple(z) == maj_domino(t)
