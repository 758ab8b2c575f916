import importlib
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from fakedegrees.fakedeg import special_partner_bc
from fakedegrees.shapes import (
    _cell_removals,
    b_multi,
    b_statistic,
    beta_set,
    check_partition,
    conjugate,
    format_multipartition,
    format_partition,
    from_beta_set,
    hooks,
    lusztig_rho1,
    lusztig_rho1_inverse,
    lusztig_rho2,
    lusztig_rho2_inverse,
    multipartitions_of,
    parse_multipartition,
    parse_partition,
    partitions_of,
    symbol_of,
    total_size,
    two_core,
)
from oracles import (
    multipartitions_by_sizes,
    partitions_by_cuts,
    supports_domino,
    supports_domino_by_core,
)

partition_lists = st.lists(st.integers(1, 6), max_size=5).map(
    lambda xs: tuple(sorted(xs, reverse=True))
)


def test_check_partition():
    assert check_partition((3, 2, 2)) == (3, 2, 2)
    with pytest.raises(ValueError):
        check_partition((2, 3))
    with pytest.raises(ValueError):
        check_partition((1, 0))
    for parts in ([2, 1.0], (2.0,), "21", ((1,),), (None,)):
        with pytest.raises(ValueError, match="partition parts must be ints"):
            check_partition(parts)


def test_parsing_and_formatting():
    assert parse_partition("2,2,1") == (2, 2, 1)
    assert parse_partition("") == ()
    assert parse_multipartition("1,1|1") == ((1, 1), (1,))
    assert parse_multipartition("|") == ((), ())
    assert parse_multipartition("2|1|") == ((2,), (1,), ())
    with pytest.raises(ValueError):
        parse_partition("1,x")
    assert format_partition((2, 1)) == "2,1"
    assert format_multipartition(((1, 1), ())) == "1,1|"


@given(partition_lists)
def test_conjugate_involution(p):
    assert conjugate(conjugate(p)) == p
    assert sum(conjugate(p)) == sum(p)


def test_hooks_and_b():
    assert sorted(hooks((2, 1))) == [1, 1, 3]
    assert b_statistic((3, 2, 1)) == 0 * 3 + 1 * 2 + 2 * 1
    assert b_multi(((1, 1), (1,))) == 1
    assert total_size(((2,), (1, 1))) == 4


def test_lusztig_known_values():
    assert lusztig_rho1(((1, 1), (1,))) == (2, 2, 2)
    assert lusztig_rho1(((1,), (1, 1))) == (2, 2, 1, 1)
    assert lusztig_rho1(((2,), (2,))) == (4, 4)
    assert lusztig_rho2(((1, 1), (1,))) == (3, 2, 2)
    assert lusztig_rho2(((), ())) == (1,)
    assert lusztig_rho1(((), ())) == ()


def test_lusztig_sizes_and_inverse_roundtrip():
    for n in range(0, 6):
        for pair in multipartitions_of(n, 2):
            r1 = lusztig_rho1(pair)
            r2 = lusztig_rho2(pair)
            assert sum(r1) == 2 * n
            assert sum(r2) == 2 * n + 1
            assert lusztig_rho1_inverse(r1) == pair
            assert lusztig_rho2_inverse(r2) == pair


def test_lusztig_image_is_domino_supporting():
    """The maps are injective with image exactly the shapes supporting a
    standard domino tableau."""
    for parity, rho_inv in ((0, lusztig_rho1_inverse), (1, lusztig_rho2_inverse)):
        images = set()
        for n in range(0, 5):
            for pair in multipartitions_of(n, 2):
                images.add(lusztig_rho1(pair) if parity == 0 else lusztig_rho2(pair))
        for m in range(parity, 9 + parity, 2):
            for shape in partitions_of(m):
                if supports_domino(shape):
                    assert shape in images
                    assert rho_inv(shape) is not None
                else:
                    assert shape not in images
                    with pytest.raises(ValueError):
                        rho_inv(shape)


@pytest.mark.parametrize(
    "call, pair",
    [
        (symbol_of, ((1, 2), ())),
        (special_partner_bc, ((1, 2), ())),
        (lusztig_rho1, ((2, 0), ())),
        (lusztig_rho1, ((1,), (0,))),
        (symbol_of, ((1,), None)),
        (lusztig_rho1, ((1,), 2)),
        (lusztig_rho2, (3, ())),
    ],
)
def test_pair_components_must_be_partitions(call, pair):
    with pytest.raises(ValueError, match="partition parts must be"):
        call(pair)


@pytest.mark.parametrize(
    "call, shape",
    [
        (lusztig_rho1_inverse, (2, 0)),
        (lusztig_rho1_inverse, (1, 3)),
        (lusztig_rho2_inverse, (3, 0)),
        (lusztig_rho2_inverse, (1, 2)),
        (two_core, (1, 3)),
        (two_core, (2, 0)),
        (two_core, 4),
        (lusztig_rho1_inverse, None),
        (lusztig_rho2_inverse, 5),
    ],
)
def test_shape_maps_refuse_a_non_partition(call, shape):
    """The Lusztig inverses and the 2-core read their shape as a
    partition, so a zero part, an increase or a value that is not a
    sequence is refused, not answered."""
    with pytest.raises(ValueError, match="partition parts must be"):
        call(shape)


def test_inverse_parity_checks():
    with pytest.raises(ValueError):
        lusztig_rho1_inverse((1,))
    with pytest.raises(ValueError):
        lusztig_rho2_inverse((2,))


def test_two_core_criterion_matches_search():
    for n in range(0, 9):
        for shape in partitions_of(n):
            assert supports_domino(shape) == supports_domino_by_core(shape), shape


@given(partition_lists, st.integers(0, 4))
def test_beta_set_roundtrip(p, extra):
    beads = beta_set(p, len(p) + extra)
    assert len(beads) == len(p) + extra
    assert list(beads) == sorted(beads, reverse=True)
    assert from_beta_set(beads) == p
    assert from_beta_set(beads[::-1]) == p


def test_beta_set_needs_enough_rows():
    with pytest.raises(ValueError):
        beta_set((2, 1), 1)


@pytest.mark.parametrize("beads", [(3, 3), (0, 2, 2), (1, -1), (-1,)])
def test_from_beta_set_rejects_repeated_or_negative_beads(beads):
    with pytest.raises(ValueError, match="distinct and nonnegative"):
        from_beta_set(beads)


def greedy_two_core(p):
    """Reference 2-core: peel the first removable domino (top row first,
    horizontal before vertical) until none is left."""
    p = list(p)
    while True:
        for i, row in enumerate(p):
            below = p[i + 1] if i + 1 < len(p) else 0
            if row - 2 >= below:
                p[i] -= 2
                break
            deeper = p[i + 2] if i + 2 < len(p) else 0
            if row == below and row - 1 >= deeper:
                p[i] -= 1
                p[i + 1] -= 1
                break
        else:
            return tuple(p)
        p = [x for x in p if x]


def test_two_core_matches_greedy_peeling():
    for n in range(0, 15):
        for shape in partitions_of(n):
            assert two_core(shape) == greedy_two_core(shape), shape


def test_two_core_examples():
    assert two_core((2, 2, 2)) == ()
    assert two_core((2, 1)) == (2, 1)
    assert two_core((3, 2, 2)) == (1,)


def test_partition_counts():
    counts = [len(list(partitions_of(n))) for n in range(8)]
    assert counts == [1, 1, 2, 3, 5, 7, 11, 15]


def test_multipartition_counts():
    # d-tuples of partitions with total size n
    assert len(list(multipartitions_of(2, 2))) == 5
    assert len(list(multipartitions_of(0, 3))) == 1
    assert len(list(multipartitions_of(2, 3))) == 9
    with pytest.raises(ValueError):
        list(multipartitions_of(1, 0))
    for d in (1, 2, 3):
        with pytest.raises(ValueError, match="requires n >= 0"):
            list(multipartitions_of(-1, d))


def test_partitions_are_the_brute_force_partitions():
    """Every n <= 12, with no bound and each bound on the parts up to
    n + 1: the same tuples in the same order."""
    for n in range(13):
        assert list(partitions_of(n)) == partitions_by_cuts(n), n
        for max_part in range(n + 2):
            expected = partitions_by_cuts(n, max_part)
            assert list(partitions_of(n, max_part)) == expected, (n, max_part)


def test_multipartitions_are_the_brute_force_multipartitions():
    """Every n <= 12 and d <= 3: the same tuples in the same order."""
    for d in (1, 2, 3):
        for n in range(13):
            assert list(multipartitions_of(n, d)) == multipartitions_by_sizes(n, d), (n, d)


@pytest.mark.parametrize(
    "call",
    [
        lambda: partitions_of(True),
        lambda: partitions_of(2.0),
        lambda: partitions_of(3, 2.0),
        lambda: multipartitions_of(2, 2.0),
        lambda: multipartitions_of(2, True),
        lambda: multipartitions_of(2.0, 2),
        lambda: multipartitions_of(True, 1),
    ],
    ids=["partitions-bool-n", "partitions-float-n", "partitions-float-max-part",
         "multi-float-d", "multi-bool-d", "multi-float-n", "multi-bool-n"],
)
def test_a_size_or_d_that_is_not_an_int_is_refused(call):
    """A bool or float size, bound or d is refused with a ValueError, not
    read as the int it equals nor failed on deep inside."""
    with pytest.raises(ValueError, match="requires an int"):
        list(call())


def test_cell_removals_lists_each_removable_cell():
    """The table lists exactly the cells whose removal leaves a
    multipartition, in (component, row) order, each 0-based with the
    shape it leaves, for every multipartition with d <= 3 and n <= 6."""
    for d in (1, 2, 3):
        for n in range(0, 7):
            for mp in multipartitions_of(n, d):
                expected = []
                for ci, comp in enumerate(mp):
                    for ri, length in enumerate(comp):
                        parts = list(comp)
                        parts[ri] -= 1
                        if parts == sorted(parts, reverse=True):
                            smaller = mp[:ci] + (tuple(x for x in parts if x),) + mp[ci + 1:]
                            expected.append((smaller, (ci, ri, length - 1)))
                assert _cell_removals(mp) == tuple(expected), mp


def test_every_memo_of_the_package_is_private():
    """A memo keyed by a shape answers a float or bool twin of a stored
    key, so no public name is a memo: each public reader checks its input
    on every call, and only callers holding checked input read a memo,
    the removals tables included."""
    memos = []
    for name in ("shapes", "qpoly", "tableaux", "dominoes", "bijections", "fakedeg"):
        module = importlib.import_module("fakedegrees." + name)
        memos += [(name, attr) for attr, v in vars(module).items() if hasattr(v, "cache_info")]
    assert ("shapes", "_domino_removals") in memos and ("shapes", "_cell_removals") in memos
    assert all(attr.startswith("_") for _, attr in memos), memos


ROOT = Path(__file__).resolve().parent.parent
# one benchmark round, as perfbench/worker.py runs it, then each memo's counts
ROUND = """
import importlib, sys
sys.path[:0] = sys.argv[1:3]
import fakedegrees.cli, fakedegrees.verify, workloads
workload = sys.argv[3]
ops = workloads.build(workload, 1, 0, 7, 3000)
workloads.warm_up(workload)
workloads.run(ops)
for name in sys.argv[4:]:
    module, attr = name.split(".")
    info = getattr(importlib.import_module("fakedegrees." + module), attr).cache_info()
    print(name, info.hits, info.misses)
"""


def readme_memo_table() -> tuple[list[str], dict[str, list[tuple[int, int]]]]:
    """The workloads of README's memo table and each memo's (hits, misses)
    under each, the first count of a cell; a dash, never called, is 0/0."""
    lines = (ROOT / "README.md").read_text().splitlines()
    at = next(i for i, line in enumerate(lines) if line.startswith("| memo |"))
    workloads = [cell.strip() for cell in lines[at].strip("|").split("|")[1:]]
    rows = {}
    for line in lines[at + 2:]:
        if not line.startswith("|"):
            break
        name, *cells = (cell.strip() for cell in line.strip("|").split("|"))
        rows[name.strip("`")] = [
            (0, 0) if cell == "–" else tuple(
                int(x.replace(",", "")) for x in re.match(r"([\d,]+)/([\d,]+)", cell).groups()
            )
            for cell in cells
        ]
    return workloads, rows


def test_readme_memo_table_counts_one_round_of_each_workload():
    """README's memo table is recounted: in a fresh interpreter per
    workload, the warm-up and one round (seed 1, n <= 7, 3,000 lookup
    calls) leave each memo with the hits and misses its row gives."""
    workloads, rows = readme_memo_table()
    assert workloads == ["certify-routes", "certify-bijections", "lookup"]
    assert "shapes._cell_removals" in rows and "bijections._node" in rows
    for column, workload in enumerate(workloads):
        paths = str(ROOT / "src"), str(ROOT / "perfbench")
        proc = subprocess.run(
            [sys.executable, "-c", ROUND, *paths, workload, *rows],
            capture_output=True, text=True, timeout=300,
        )
        assert (proc.returncode, proc.stderr) == (0, ""), workload
        counts = {name: (int(h), int(m)) for name, h, m in map(str.split, proc.stdout.splitlines())}
        assert counts == {name: row[column] for name, row in rows.items()}, workload
