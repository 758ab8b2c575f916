import sys
from ast import literal_eval
from functools import lru_cache
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from fakedegrees import bijections, dominoes
from fakedegrees.bijections import (
    RuleError,
    TableauPair,
    Trace,
    flip_b,
    flip_c,
    map_shape,
    pair_maj_b,
    pair_maj_c,
    pair_of,
    pi_b,
    pi_b_prime,
    pi_c,
    pi_c_prime,
)
from fakedegrees.dominoes import (
    DominoTableau,
    enumerate_sdt,
    maj_domino,
    sdt_at,
    sdt_maj_gf,
)
from fakedegrees.shapes import (
    Partition,
    _domino_removals,
    check_partition,
    lusztig_rho1,
    lusztig_rho1_inverse,
    lusztig_rho2,
    lusztig_rho2_inverse,
    multipartitions_of,
    partitions_of,
)
from fakedegrees.tableaux import enumerate_tuple_tableaux, label_positions, maj_tuple
from oracles import is_standard, pair_shapes, truncate


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


def test_step_graph_calls_the_inverse_once_per_region(monkeypatch):
    """Each cached region node holds its region's preimage, so mapping
    every even shape with n <= 6 calls the inverse once per region, not
    twice per step, and every region it was called on keeps its node."""
    calls = []

    def counting(p):
        calls.append(p)
        return lusztig_rho1_inverse(p)

    monkeypatch.setattr(bijections, "lusztig_rho1_inverse", counting)
    for n in range(7):
        for pair_shape in multipartitions_of(n, 2):
            map_shape(lusztig_rho1(pair_shape), lambda maj, cells: None)
    assert len(calls) == len(set(calls)) == 139
    nodes = [bijections._node(counting, 1, p) for p in calls]
    assert [node.region for node in nodes] == calls and len(calls) == 139


def test_insertion_rejects_dominoes_that_do_not_tile():
    """The shape must be a partition (refused when the tableau is built),
    every domino a border domino of the region it is lifted off, and
    lifting every domino must leave the 2-core."""
    with pytest.raises(ValueError, match="partition parts must be positive"):
        DominoTableau(shape=(2, 0), dominoes=(((1, 1), (1, 2)),))
    below_first = DominoTableau(shape=(2, 2), dominoes=(((2, 1), (2, 2)), ((1, 1), (1, 2))))
    with pytest.raises(ValueError, match="not a border domino of"):
        pi_c(below_first)
    too_few = DominoTableau(shape=(4,), dominoes=(((1, 3), (1, 4)),))
    with pytest.raises(ValueError, match="do not tile"):
        pi_c(too_few)


# (int tableau, twin shape, maps): one domino of each parity, and the
# 2-core tableau of the odd map with a bool for its one part.
TWINS = [
    (DominoTableau((2,), (((1, 1), (1, 2)),)), (2.0,), (pi_c, pi_c_prime)),
    (DominoTableau((3,), (((1, 2), (1, 3)),)), (3.0,), (pi_b, pi_b_prime)),
    (DominoTableau((1,), ()), (True,), (pi_b, pi_b_prime)),
]


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
@pytest.mark.parametrize("t, twin, maps", TWINS, ids=["even-float", "odd-float", "core-bool"])
def test_the_insertion_reads_its_shape_as_a_partition(t, twin, maps, warm):
    """A float or bool twin of a shape is refused when its tableau is
    built, whether or not the int shape's region node exists, and a shape
    and dominoes given as lists map as their tuple forms."""
    bijections._node.cache_clear()
    for f in maps:
        if warm:
            f(t)
        with pytest.raises(ValueError, match="partition parts must be ints"):
            f(DominoTableau(twin, t.dominoes))
        assert f(DominoTableau(list(t.shape), t.dominoes)) == f(t)
        assert f(DominoTableau(t.shape, [list(map(list, d)) for d in t.dominoes])) == f(t)


# (shape, dominoes, refusal) of tableaux refused when built, beyond the
# float and bool parts of TWINS: a zero part, a float or bool cell entry,
# and dominoes that are not pairs of (row, col) cells.
NOT_TABLEAUX = [
    ((2, 0), (((1, 1), (1, 2)),), "partition parts must be positive"),
    ((2,), (((1, 1.0), (1, 2)),), "domino cells must be int pairs"),
    ((3,), (((True, 2), (1, 3)),), "domino cells must be int pairs"),
    ((2,), (((1, 1), (1, 2), (1, 3)),), "dominoes must be pairs of"),
    ((2,), ((1, 2),), "dominoes must be pairs of"),
    ((2,), 1, "dominoes must be pairs of"),
]


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
def test_a_domino_tableau_is_checked_when_built(warm):
    """A tableau of NOT_TABLEAUX is refused when built, whether or not the
    maps have built the region nodes of its int twin."""
    bijections._node.cache_clear()
    if warm:
        pi_c_prime(DominoTableau((2,), (((1, 1), (1, 2)),)))
        pi_b_prime(DominoTableau((3,), (((1, 2), (1, 3)),)))
    for shape, dominoes, refusal in NOT_TABLEAUX:
        with pytest.raises(ValueError, match=refusal):
            DominoTableau(shape, dominoes)


def test_the_maps_refuse_anything_but_a_domino_tableau():
    """The maps read a tableau's fields as its constructor stored them, so
    a look-alike is refused by its class, naming what was given."""
    dominoes = (((1, 1), (1, 2)),)
    for given in (SimpleNamespace(shape=(2,), dominoes=dominoes), ((2,), dominoes)):
        for f in (pi_c, pi_c_prime):
            with pytest.raises(ValueError, match=r"pi_c needs a DominoTableau, got (namespace|\(\(2,\))"):
                f(given)


def test_the_maps_check_no_shape_per_tableau(monkeypatch):
    """Each tableau's shape was checked when it was built, so once the
    region nodes exist, mapping every tableau of a shape of each parity
    makes no `check_partition` call."""
    work = [
        (list(enumerate_sdt(rho(((2, 1), (1, 1))))), prime)
        for rho, prime in ((lusztig_rho1, pi_c_prime), (lusztig_rho2, pi_b_prime))
    ]
    images = [[prime(t) for t in ts] for ts, prime in work]
    calls = []

    def counting(parts):
        calls.append(parts)
        return check_partition(parts)

    for name, module in list(sys.modules.items()):
        if name.startswith("fakedegrees") and getattr(module, "check_partition", None) is check_partition:
            monkeypatch.setattr(module, "check_partition", counting)
    assert [[prime(t) for t in ts] for ts, prime in work] == images
    assert calls == [] and sum(map(len, images)) > 0


# Domino tableaux that tile their shape but are not standard: label 1
# lies right of label 2, in one row or in two columns, for both parities
# (the odd ones with the zero square at (1, 1)).
NOT_STANDARD = [
    DominoTableau((4,), (((1, 3), (1, 4)), ((1, 1), (1, 2)))),
    DominoTableau((2, 2), (((1, 2), (2, 2)), ((1, 1), (2, 1)))),
    DominoTableau((5,), (((1, 4), (1, 5)), ((1, 2), (1, 3)))),
    DominoTableau((2, 2, 1), (((1, 2), (2, 2)), ((2, 1), (3, 1)))),
]


@pytest.mark.parametrize("t", NOT_STANDARD, ids=["row", "columns", "odd-row", "odd-columns"])
def test_insertion_rejects_a_tableau_that_is_not_standard(t):
    """Each step lifts only a border domino of the region it is lifted
    off, so no map gives an image of a tableau that is not standard; the
    rows of its dominoes alone would give one."""
    for f in (pi_c, pi_b, pi_c_prime, pi_b_prime):
        with pytest.raises(ValueError):
            f(t)


def test_insertion_reads_a_domino_in_either_order():
    """A standard tableau with one domino's cells, or every domino's,
    given in the other order is stored in the one orientation: it equals
    and hashes as the tableau itself, is a member of its shape's
    enumeration, writes the same JSON and maps to the same pairs, for
    every label of every domino tableau with n <= 5 of both parities."""
    for n in range(0, 6):
        for pair_shape in multipartitions_of(n, 2):
            for rho, pi, prime in ((lusztig_rho1, pi_c, pi_c_prime), (lusztig_rho2, pi_b, pi_b_prime)):
                tableaux = list(enumerate_sdt(rho(pair_shape)))
                members = set(tableaux)
                for t in tableaux:
                    image, bijected = pi(t), prime(t)
                    d = t.dominoes
                    forms = [tuple(x[::-1] for x in d)] + [d[:k] + (d[k][::-1],) + d[k + 1:] for k in range(t.n)]
                    for dominoes in forms:
                        turned = DominoTableau(t.shape, dominoes)
                        assert turned == t and hash(turned) == hash(t) and turned in members
                        assert turned.dominoes == t.dominoes and turned.to_json() == t.to_json()
                        assert (pi(turned), prime(turned)) == (image, bijected)


def test_insertion_memo_is_order_independent_and_immutable():
    """The process-wide region nodes give the same images whether the small
    shapes are mapped first or the large ones, and every step of a
    region's node, keyed by its domino, is a tuple naming the domino, its
    top and bottom rows, the node of the region left once the domino is
    lifted off and the filling, cell and key of that label in the
    image."""
    node_of = bijections._node
    shapes = [ps for n in range(0, 6) for ps in multipartitions_of(n, 2)]
    maps = (
        (lusztig_rho1, lusztig_rho1_inverse, 1, pi_c),
        (lusztig_rho2, lusztig_rho2_inverse, 3, pi_b),
    )
    runs = []
    for order in (shapes, shapes[::-1]):
        node_of.cache_clear()
        runs.append({
            (ps, pi): [pi(t) for t in enumerate_sdt(rho(ps))]
            for ps in order
            for rho, *_, pi in maps
        })
        for ps in order:
            for rho, inverse, offset, pi in maps:
                for t in enumerate_sdt(rho(ps)):
                    pos = label_positions(pi(t))
                    for k in range(1, t.n + 1):
                        entry = node_of(inverse, offset, truncate(t, k).shape).steps[t.cells_of(k)]
                        assert isinstance(entry, tuple)
                        domino, top, bottom, child, (f, r, c, key) = entry
                        assert domino == t.cells_of(k) and (top, bottom) == (domino[0][0], domino[1][0])
                        assert child is node_of(inverse, offset, truncate(t, k - 1).shape)
                        assert child.region == truncate(t, k - 1).shape
                        assert (f, r, c) == pos[k]
                        assert key == 2 * (r - c) + (offset if f == 2 else 0)
    assert runs[0] == runs[1]


# The insertion and flip as they were before the forward walk and the
# one-scan flip, copied verbatim: a backward peel recording every covered
# region, a step memo keyed on two regions, and a flip that lists the gaps,
# takes their minimum and swaps in three passes per raise.  The maps are
# pinned to them below.

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


def _run_insertion(t: DominoTableau, inverse) -> TableauPair:
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
    return tuple(tuple(map(tuple, rows)) for rows in fillings)


def _keyed_cells(pair: TableauPair, offset: int) -> list[tuple[int, int, int, int]]:
    """(filling, row, col, key) of labels 1..n in order, all 1-based, read
    from `label_positions`; the pair-level key of a cell (r, c) is its
    diagonal 2(r - c), plus offset in the second filling."""
    pos = label_positions(pair)
    return [
        (f, r, c, 2 * (r - c) + (offset if f == 2 else 0))
        for f, r, c in map(pos.__getitem__, range(1, len(pos) + 1))
    ]


def _flip_to_pattern(pair: TableauPair, offset: int, trace: Trace | None) -> TableauPair:
    """Swap labels across the fillings until the tuple descent set equals
    the pair-level descent set of the input at the given offset.

    For labels i, i+1 in different fillings let the gap g_i be the key
    (`_keyed_cells` at the offset) of the first filling's cell minus that
    of the second's: the pair-level comparison of i and i+1 changes
    exactly when the offset is raised by g_i, and once it is raised past
    every gap the pair-level rule is the tuple rule.  So slide the raise
    upward from 0: take the smallest gap above it, swap i and i+1 for
    every i with that gap (in ascending order; such labels are never
    consecutive), which restores the descent set, and move the raise to
    that gap; stop when no gap lies above it.  Every swap keeps the pair standard: i and i+1
    sit in different fillings and no label lies between them, so each
    filling still increases along rows and columns.  A result whose tuple
    descent set is not the input's raises RuleError; with no swap made,
    the input pair itself is the result.
    """
    cells = _keyed_cells(pair, offset)
    target = [k2 > k1 for (_, _, _, k1), (_, _, _, k2) in zip(cells, cells[1:])]
    raised = 0
    swapped = False
    while True:
        gaps = [
            (i, k1 - k2 if f1 == 1 else k2 - k1)
            for i, ((f1, _, _, k1), (f2, _, _, k2)) in enumerate(zip(cells, cells[1:]))
            if f1 != f2
        ]
        raised = min((g for _, g in gaps if g > raised), default=None)
        if raised is None:
            break
        for i, g in gaps:
            if g == raised:
                cells[i], cells[i + 1] = cells[i + 1], cells[i]
                swapped = True
                if trace is not None:
                    trace.swaps.append(i + 1)
    tuple_descents = [
        f1 < f2 or (f1 == f2 and r1 < r2)
        for (f1, r1, _, _), (f2, r2, _, _) in zip(cells, cells[1:])
    ]
    if tuple_descents != target:
        raise RuleError(f"flip procedure cannot match the descent set of {pair}")
    if not swapped:
        return pair
    fillings = [[list(row) for row in t] for t in pair]
    for label, (f, r, c, _) in enumerate(cells, start=1):
        fillings[f - 1][r - 1][c - 1] = label
    return tuple(tuple(tuple(row) for row in t) for t in fillings)


def with_swaps(flip, *args):
    """The image of flip(*args, trace) and the swaps it made."""
    trace = Trace()
    return flip(*args, trace), trace.swaps


def test_maps_equal_the_reference_maps():
    """On every domino tableau with n <= 6 both insertions give the
    reference images, and both flips the reference images and swaps, in
    order; so do the flips on every standard pair with n <= 5, image or
    not."""
    for n in range(0, 7):
        for pair_shape in multipartitions_of(n, 2):
            for rho, inverse, pi, flip, prime, offset in (
                (lusztig_rho1, lusztig_rho1_inverse, pi_c, flip_c, pi_c_prime, 1),
                (lusztig_rho2, lusztig_rho2_inverse, pi_b, flip_b, pi_b_prime, 3),
            ):
                for t in enumerate_sdt(rho(pair_shape)):
                    y = pi(t)
                    assert y == _run_insertion(t, inverse)
                    z, swaps = with_swaps(flip, y)
                    assert (z, swaps) == with_swaps(_flip_to_pattern, y, offset)
                    assert prime(t) == z
                if n <= 5:
                    for y in enumerate_tuple_tableaux(pair_shape):
                        assert with_swaps(flip, y) == with_swaps(_flip_to_pattern, y, offset)


def value_error(f, *args) -> str:
    with pytest.raises(ValueError) as raised:
        f(*args)
    return str(raised.value)


def test_fused_maps_equal_the_composed_maps():
    """On every domino tableau with n <= 7 each bijection gives the image
    of its flip after its insertion, and the other bijection
    raises the other insertion's ValueError."""
    for n in range(0, 8):
        for pair_shape in multipartitions_of(n, 2):
            for rho, pi, flip, prime, other_pi, other_prime in (
                (lusztig_rho1, pi_c, flip_c, pi_c_prime, pi_b, pi_b_prime),
                (lusztig_rho2, pi_b, flip_b, pi_b_prime, pi_c, pi_c_prime),
            ):
                for t in enumerate_sdt(rho(pair_shape)):
                    assert prime(t) == flip(pi(t))
                    assert value_error(other_prime, t) == value_error(other_pi, t)
    assert value_error(pi_c_prime, DominoTableau((1,), ())) == "pi_c needs an even-size shape"
    assert value_error(pi_b_prime, DominoTableau((), ())) == "pi_b needs an odd-size shape"


def walked(shape):
    """(maj, image) of every tableau, in the order `map_shape` visits
    them; the cell list is copied, since the walk reuses it."""
    out = []
    map_shape(shape, lambda maj, cells: out.append((maj, cells.copy())))
    return [(maj, pair_of(cells)) for maj, cells in out]


def mapped(shape):
    """The same, one tableau at a time."""
    prime = pi_b_prime if sum(shape) % 2 else pi_c_prime
    return [(maj_domino(t), prime(t)) for t in enumerate_sdt(shape)]


def test_map_shape_equals_the_tableau_maps():
    """On every shape with n <= 7, of both parities, the walk visits the
    maj and the image of each tableau in `enumerate_sdt` order, and
    nothing on a shape that supports no domino tableau."""
    for size in range(0, 16):
        for shape in partitions_of(size):
            assert walked(shape) == mapped(shape), shape


def first_failure(shape):
    """The message and tableau of the first RuleError of the tableau-by-
    tableau maps, in `enumerate_sdt` order."""
    prime = pi_b_prime if sum(shape) % 2 else pi_c_prime
    for t in enumerate_sdt(shape):
        try:
            prime(t)
        except RuleError as exc:
            return str(exc), exc.tableau
    raise AssertionError(f"no tableau of {shape} fails")


def walk_failure(shape):
    with pytest.raises(RuleError) as raised:
        map_shape(shape, lambda maj, cells: None)
    return str(raised.value), raised.value.tableau


def flip_failing_where(fails):
    """A flip that raises, naming the pair, on the cell lists that fails
    picks."""
    flip = bijections._flip

    def broken(cells, trace=None):
        if fails(cells):
            raise RuleError(f"flip procedure cannot match the descent set of {pair_of(cells)}")
        return flip(cells, trace)

    return broken


def bent_inverse(shape, bend, at):
    """The name of the Lusztig inverse of the shape's parity, and that
    inverse bent on the regions that at picks."""
    name = ("lusztig_rho1_inverse", "lusztig_rho2_inverse")[sum(shape) % 2]
    inverse = getattr(bijections, name)

    def bent(p):
        pair = inverse(p)
        return bend(pair) if at(p) else pair

    return name, bent


def both_components(pair):
    return tuple(c or (1,) for c in pair)


def two_cells(pair):
    return tuple((c[0] + 1,) + c[1:] if c else c for c in pair)


WALK_SHAPES = [lusztig_rho1(((4,), (2, 1))), lusztig_rho2(((4,), (2, 1))), (4, 4, 2, 2)]


@pytest.mark.parametrize("shape", WALK_SHAPES)
@pytest.mark.parametrize(
    "fault",
    [
        lambda shape: ("_flip", flip_failing_where(lambda cells: True)),
        # only where the largest label lies in the second filling
        lambda shape: ("_flip", flip_failing_where(lambda cells: cells[-1][0] == 2)),
        # the bend of `test_insertion_rejects_a_bent_stage`, at the first domino
        lambda shape: bent_inverse(shape, two_cells, lambda p: sum(p) == 2 + sum(shape) % 2),
        # at every region of two dominoes
        lambda shape: bent_inverse(shape, both_components, lambda p: sum(p) == 4 + sum(shape) % 2),
        # at the one region the last tableau's dominoes 1, 2 cover
        lambda shape: bent_inverse(
            shape,
            two_cells,
            lambda p, last=truncate(list(enumerate_sdt(shape))[-1], 2).shape: p == last,
        ),
    ],
    ids=["flip-everywhere", "flip-second-filling", "two-cells", "both-components", "one-region"],
)
def test_map_shape_raises_the_first_error_of_the_maps(monkeypatch, shape, fault):
    """A broken flip or a bent inverse makes the walk raise the message
    and name the tableau of the first failing `pi_c_prime`/`pi_b_prime`
    call, at a leaf or at a step, first tableau of the shape or not."""
    monkeypatch.setattr(bijections, *fault(shape))
    message, tableau = first_failure(shape)
    assert walk_failure(shape) == (message, tableau)
    assert message.startswith(("flip procedure", "covered regions"))


@pytest.mark.parametrize("shape", [(), (1,), (2,), (1, 1), (3,), (1, 1, 1), (2, 1)])
def test_a_failing_flip_at_rank_0_or_1_is_named_as_the_maps_name_it(monkeypatch, shape):
    """Under a flip that always raises, the walk of a shape of rank 0 or 1
    raises the message of the first failing `pi_c_prime`/`pi_b_prime`
    call and names its tableau, the empty tableau at rank 0; the 2-core
    (2, 1) has no tableau, so its walk raises nothing."""
    monkeypatch.setattr(bijections, "_flip", flip_failing_where(lambda cells: True))
    if shape == (2, 1):
        map_shape(shape, lambda maj, cells: None)
        return
    message, tableau = first_failure(shape)
    assert walk_failure(shape) == (message, tableau)
    assert message.startswith("flip procedure")
    if sum(shape) < 2:
        assert tableau == DominoTableau(shape, ())


@pytest.mark.parametrize("shape", WALK_SHAPES)
def test_a_failing_step_leaves_the_domino_route_memo_alone(monkeypatch, shape):
    """The walk names the first tableau below a failing step by
    enumerating it, so the running-sum memo of the domino routes gains no
    entry from a walk."""
    monkeypatch.setattr(
        bijections, *bent_inverse(shape, both_components, lambda p: sum(p) == 4 + sum(shape) % 2)
    )
    dominoes._by_last_domino.cache_clear()
    message, tableau = walk_failure(shape)
    assert message.startswith("covered regions")
    assert tableau.shape == shape and is_standard(tableau)
    assert dominoes._by_last_domino.cache_info().currsize == 0


@pytest.mark.parametrize("shape", WALK_SHAPES)
def test_map_shape_and_the_maps_fail_first_at_the_larger_label(monkeypatch, shape):
    """An inverse bent at the regions of one and of two dominoes breaks
    the steps of labels 1 and 3; both lift the largest label first, so
    the walk and the maps report label 3's step, on the same tableau."""
    odd = sum(shape) % 2
    monkeypatch.setattr(
        bijections, *bent_inverse(shape, two_cells, lambda p: sum(p) in (2 + odd, 4 + odd))
    )
    message, tableau = first_failure(shape)
    assert walk_failure(shape) == (message, tableau)
    regions = message.removeprefix("covered regions ").split(":")[0].split(" -> ")
    assert [sum(literal_eval(region)) for region in regions] == [4 + odd, 6 + odd]


def walked_cells(shape):
    """(maj, keyed cells) of every tableau, in the order `map_shape`
    visits them, each cell list copied."""
    out = []
    map_shape(shape, lambda maj, cells: out.append((maj, cells.copy())))
    return out


@pytest.mark.parametrize("shape", WALK_SHAPES)
def test_a_second_walk_reads_the_stored_steps(monkeypatch, shape):
    """A walk over fresh region nodes stores each node's steps; a second
    walk gives the same (maj, cells) stream without reading a border
    domino table, and both give the images of the tableau maps."""
    bijections._node.cache_clear()
    first = walked_cells(shape)
    removals = []

    def counting(region):
        removals.append(region)
        return _domino_removals(region)

    monkeypatch.setattr(bijections, "_domino_removals", counting)
    assert walked_cells(shape) == first
    assert removals == []
    assert [(maj, pair_of(cells)) for maj, cells in first] == mapped(shape)
    odd = sum(shape) % 2
    steps = bijections._node(*bijections._map_of(odd)[:2], shape).steps
    assert type(steps) is dict
    assert list(steps) == [domino for _, domino in _domino_removals(shape)]
    assert [step[0] for step in steps.values()] == list(steps)


def counting_removals(monkeypatch) -> list:
    """The regions whose border dominoes `bijections` reads from now on."""
    removals = []

    def counting(region):
        removals.append(region)
        return _domino_removals(region)

    monkeypatch.setattr(bijections, "_domino_removals", counting)
    return removals


@pytest.mark.parametrize("shape", WALK_SHAPES)
def test_a_walk_after_the_maps_reads_the_steps_they_built(monkeypatch, shape):
    """On fresh region nodes, the tableau maps over every tableau of the
    shape build every node the walk visits, so the walk after them reads
    no border domino table and gives their images."""
    bijections._node.cache_clear()
    maps = mapped(shape)
    removals = counting_removals(monkeypatch)
    assert walked(shape) == maps
    assert removals == []


@pytest.mark.parametrize("shape", WALK_SHAPES)
def test_the_maps_after_a_walk_read_the_steps_it_built(monkeypatch, shape):
    """On fresh region nodes, a walk builds every node the tableau maps
    look up, so the maps after it read no border domino table and give
    its images."""
    bijections._node.cache_clear()
    walk = walked(shape)
    removals = counting_removals(monkeypatch)
    assert mapped(shape) == walk
    assert removals == []


def node_traffic(monkeypatch, run) -> tuple:
    """What run gives on fresh region nodes, with the regions whose nodes
    it makes (one Lusztig inverse call each), builds, and reads the
    border domino table of, and the sizes of the cell lists it flips,
    each list in order."""
    made, built, flipped = [], [], []
    flip = bijections._flip
    monkeypatch.setattr(
        bijections, "_flip", lambda cells, trace: flipped.append(len(cells)) or flip(cells, trace)
    )
    for name in ("lusztig_rho1_inverse", "lusztig_rho2_inverse"):
        inverse = getattr(bijections, name)
        monkeypatch.setattr(bijections, name, lambda p, inverse=inverse: made.append(p) or inverse(p))
    build = bijections._RegionNode.build
    monkeypatch.setattr(
        bijections._RegionNode, "build", lambda node: built.append(node.region) or build(node)
    )
    bijections._node.cache_clear()
    reads = counting_removals(monkeypatch)
    try:
        return run(), made, built, reads, flipped
    finally:
        monkeypatch.undo()
        bijections._node.cache_clear()


@pytest.mark.parametrize(
    "shape",
    [(), (1,), (2,), (1, 1), (3,), (1, 1, 1), (2, 1), (2, 2), (3, 2), (4, 2), (3, 2, 2),
     (5, 2, 2), *WALK_SHAPES],
)
def test_the_walk_makes_and_builds_the_nodes_the_maps_do(monkeypatch, shape):
    """On fresh region nodes, a walk makes, builds and reads the table of
    the same regions as the tableau maps over every tableau of the shape,
    in the same order, flips once per tableau, and gives their images:
    label 1's step is the rank-1 node's one step, built as the maps build
    it, and no rank-0 node is ever built.  Ranks 0 and 1 of both parities
    and the rank-1 2-core (2, 1), which has no tableau, are included."""
    walk = node_traffic(monkeypatch, lambda: walked(shape))
    maps = node_traffic(monkeypatch, lambda: mapped(shape))
    assert walk == maps
    images, made, built, reads, flipped = walk
    assert bool(images) == (shape != (2, 1))
    assert flipped == [sum(shape) // 2] * len(images)
    assert reads == built and set(built) <= set(made)
    assert all(sum(region) >= 2 for region in built)


@pytest.mark.parametrize("shape", WALK_SHAPES)
def test_a_build_that_raises_stores_nothing(monkeypatch, shape):
    """Under an inverse bent at every region of two dominoes, the node
    whose build raised first keeps no steps, and its next build raises
    the same message and keeps none either."""
    monkeypatch.setattr(
        bijections, *bent_inverse(shape, both_components, lambda p: sum(p) == 4 + sum(shape) % 2)
    )
    message, _ = walk_failure(shape)
    region = literal_eval(message.removeprefix("covered regions ").split(":")[0].split(" -> ")[1])
    odd = sum(shape) % 2
    node = bijections._node(*bijections._map_of(odd)[:2], region)
    assert node.steps is None
    with pytest.raises(RuleError) as raised:
        node.build()
    assert str(raised.value) == message
    assert node.steps is None


@pytest.mark.parametrize("shape", WALK_SHAPES)
@pytest.mark.parametrize(
    "fault",
    [
        lambda shape: bent_inverse(shape, two_cells, lambda p: sum(p) == 2 + sum(shape) % 2),
        lambda shape: bent_inverse(shape, both_components, lambda p: sum(p) == 4 + sum(shape) % 2),
        # bent at one region only, so the first walk builds many nodes before it fails
        lambda shape: bent_inverse(
            shape,
            two_cells,
            lambda p, last=truncate(list(enumerate_sdt(shape))[-1], 2).shape: p == last,
        ),
        lambda shape: ("_flip", flip_failing_where(lambda cells: cells[-1][0] == 2)),
    ],
    ids=["two-cells", "both-components", "one-region", "flip-second-filling"],
)
def test_a_walk_that_raised_raises_the_same_again(monkeypatch, shape, fault):
    """A build that raises stores no steps, so a second walk after a
    failing one raises the same message naming the same tableau, the
    first failure of the tableau maps, whatever nodes the first walk
    did build."""
    monkeypatch.setattr(bijections, *fault(shape))
    first = walk_failure(shape)
    assert walk_failure(shape) == first == first_failure(shape)


@pytest.mark.parametrize(
    "cells",
    [[(1, 1, 1, 0), (2, 1, 1, 0)], [(1, 1, 1, 0), (1, 1, 2, 2)]],
    ids=["cross-pair-equal-keys", "same-row-keyed-descent"],
)
def test_a_flip_that_swaps_nothing_refuses_inconsistent_keys(cells):
    """With no gap above 0 the flip swaps nothing, and its one scan still
    compares the tuple descents with the keys': labels 1, 2 across the
    fillings with equal keys, or in one row keyed as a descent, are
    refused, naming the pair."""
    with pytest.raises(RuleError) as raised:
        bijections._flip(cells, None)
    assert str(raised.value) == f"flip procedure cannot match the descent set of {pair_of(cells)}"


def test_a_flip_that_swaps_is_judged_by_its_final_check_alone():
    """Labels 1, 2 in one row keyed as a descent fail the first scan's
    check, but the scan also finds the gap of 2 and 3, and swapping them
    gives the keys' descent set: the final check passes the swapped list,
    as it would with no first-scan check at all."""
    cells = [(1, 1, 1, -3), (1, 1, 2, -2), (2, 1, 1, -3)]
    assert with_swaps(bijections._flip, cells) == (
        [(1, 1, 1, -3), (2, 1, 1, -3), (1, 1, 2, -2)],
        [2],
    )


def test_a_flip_that_swaps_nothing_returns_its_input():
    """A consistent list that needs no swap comes back as the same list,
    with no swap traced, and one that swaps as a new list; the input is
    never changed.  Checked on two hand-made lists and every insertion
    image with n <= 6."""
    lists = [[(1, 1, 1, 0), (2, 1, 1, 1)], [(1, 1, 1, 0), (1, 1, 2, -2)]]
    for n in range(0, 7):
        for pair_shape in multipartitions_of(n, 2):
            for odd, rho in enumerate((lusztig_rho1, lusztig_rho2)):
                lists += [bijections._insert(t, odd) for t in enumerate_sdt(rho(pair_shape))]
    unswapped = 0
    for cells in lists:
        kept, trace = cells.copy(), Trace()
        image = bijections._flip(cells, trace)
        assert cells == kept
        assert (image is cells) == (not trace.swaps)
        unswapped += len(cells) >= 2 and not trace.swaps
    assert unswapped > 1000


def test_map_shape_reads_a_list_shape():
    """A shape given as a list is walked as its tuple form; a list that is
    not a partition is refused."""
    for shape in ([2, 2], [3, 2], [4, 2, 2]):
        assert walked(shape) == walked(tuple(shape)) == mapped(tuple(shape)), shape
    with pytest.raises(ValueError, match="partition parts must be"):
        map_shape([2, 4], lambda maj, cells: None)


@pytest.mark.parametrize("call", [flip_c, flip_b, pair_maj_c, pair_maj_b])
@pytest.mark.parametrize(
    "pair",
    [
        (((2,), (1,)), ((3,),)),
        (((2, 1),), ()),
        (((1, 3),), ()),
        5,
        None,
        ((1,),),
        (((1.0,),), ((2,),)),
        (((True,),), ((2,),)),
        ((("a", 1),), ()),
    ],
    ids=["column", "row", "labels", "int", "none", "rows-not-fillings", "float", "bool", "mixed"],
)
def test_pair_level_functions_refuse_a_pair_that_is_not_standard(call, pair):
    """A decreasing column, a decreasing row and a missing label are each
    refused, naming the pair, and so is anything that is not a pair of
    fillings of int labels: a non-sequence, a filling given as rows, and
    a float, bool or str label, though 1.0 and True equal 1."""
    with pytest.raises(ValueError, match="not a standard tableau pair"):
        call(pair)


def test_pair_level_functions_take_every_standard_pair():
    for n in range(0, 6):
        for pair_shape in multipartitions_of(n, 2):
            for pair in enumerate_tuple_tableaux(pair_shape):
                for call in (flip_c, flip_b, pair_maj_c, pair_maj_b):
                    call(pair)


def test_pair_maj_equals_domino_maj():
    for n in range(0, 6):
        for pair_shape in multipartitions_of(n, 2):
            for t in enumerate_sdt(lusztig_rho1(pair_shape)):
                assert pair_maj_c(pi_c(t)) == maj_domino(t)
            for t in enumerate_sdt(lusztig_rho2(pair_shape)):
                assert pair_maj_b(pi_b(t)) == maj_domino(t)


def test_each_trace_has_its_own_swaps():
    first, second = Trace(), Trace()
    flip_c((((4,), (6,)), ((1, 3), (2, 5))), first)
    assert (first.swaps, second.swaps) == ([3, 5, 4], [])


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
    """A uniform random standard domino tableau of the shape: a uniform
    index into `enumerate_sdt` order, unranked by `sdt_at`."""
    return sdt_at(shape, rand.randrange(sum(sdt_maj_gf(shape).coeffs)))


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
