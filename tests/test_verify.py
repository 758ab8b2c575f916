import hashlib
import json
from pathlib import Path

import pytest

from fakedegrees.bijections import pi_c_prime
from fakedegrees.dominoes import DominoTableau, maj_domino
from fakedegrees.fakedeg import d_rep, fake_degree_d
from fakedegrees.shapes import lusztig_rho1
from fakedegrees.tableaux import enumerate_tuple_tableaux, maj_tuple
from fakedegrees.verify import errors, failures, route_record, run_suite, to_json_lines
from oracles import is_standard, pair_shapes

# The two type-D labels of rank 7 on which an earlier, breadth-first flip
# search was ambiguous, each with the domino tableau (the cells of
# dominoes 1..7) that its domino route sends through the even bijection.
FORMER_AMBIGUITIES_D7 = {
    ((4,), (2, 1)): [
        [[1, 1], [2, 1]], [[1, 2], [2, 2]], [[1, 3], [2, 3]], [[1, 4], [1, 5]],
        [[2, 4], [2, 5]], [[1, 6], [1, 7]], [[3, 1], [3, 2]],
    ],
    ((2, 1), (1, 1, 1, 1)): [
        [[1, 1], [1, 2]], [[2, 1], [2, 2]], [[3, 1], [3, 2]], [[4, 1], [5, 1]],
        [[4, 2], [5, 2]], [[6, 1], [7, 1]], [[1, 3], [2, 3]],
    ],
}


@pytest.mark.parametrize("pair", sorted(FORMER_AMBIGUITIES_D7))
def test_domino_route_equals_tuple_route(pair):
    rep = d_rep(pair)
    assert fake_degree_d(rep, "domino") == fake_degree_d(rep, "tuple")
    record = route_record("typeD(7)", "label", rep, ("tuple", "domino"))
    assert record["agree"] is True
    assert not errors([record])


def test_even_bijection_maps_the_former_ambiguous_tableaux():
    """The even bijection sends both domino tableaux to a tuple tableau of
    the pair shape with the same maj; the pair shapes are 2,1|4 and
    1,1,1,1|2,1, since the type-D route restricts through the swapped
    ordering."""
    for pair, cells in FORMER_AMBIGUITIES_D7.items():
        pair_shape = pair[::-1]
        t = DominoTableau(shape=lusztig_rho1(pair_shape), dominoes=tuple(
            (tuple(a), tuple(b)) for a, b in cells))
        assert is_standard(t)
        z = pi_c_prime(t)
        assert pair_shapes(z) == pair_shape
        assert z in set(enumerate_tuple_tableaux(pair_shape))
        assert maj_tuple(z) == maj_domino(t)


def test_clean_records_carry_no_error():
    records = run_suite("thm4", 4)
    assert records and not errors(records) and not failures(records)


def test_poincare_records_stay_small():
    """A Poincaré polynomial has |W| exponents, so its record lists none.
    The B/C default route enters the identity too, not only wreath(2, n)."""
    records = run_suite("poincare", 8)
    assert records and not failures(records)
    assert [r["group"] for r in records if r["group"].startswith("typeBC")] == [
        f"typeBC({n})" for n in range(9)
    ]
    for record in records:
        assert record["exponents"] == []
        assert len(json.dumps(record)) < 10_000


def test_route_records_stay_small():
    """Each route record carries its polynomials, and each cor1 record its
    special partner, so neither lists exponents (one per unit of
    dimension)."""
    records = run_suite("thm1", 8) + run_suite("cor1", 8)
    assert records and not failures(records)
    for record in records:
        assert record["exponents"] == []
        assert len(json.dumps(record)) < 10_000


# suite -> max_n -> SHA-256 of the JSON-lines report, which `verify` prints
# with one final newline.  The CI sweeps check the larger entries.
DIGESTS = json.loads(Path(__file__).with_name("digests.json").read_text())


@pytest.mark.parametrize(
    "suite, max_n",
    [("all", 6), ("thm1", 8), ("thm2", 8), ("thm5", 8), ("poincare", 8), ("cor1", 8),
     ("thm4", 7), ("bijections", 7)],
)
def test_report_matches_the_digest_ladder(suite, max_n):
    """The JSON-lines report of a sweep, byte for byte."""
    report = to_json_lines(run_suite(suite, max_n)).encode()
    assert hashlib.sha256(report).hexdigest() == DIGESTS[suite][str(max_n)]
