import json

import pytest

from fakedegrees.bijections import RuleError, pi_c_prime
from fakedegrees.dominoes import DominoTableau, is_standard
from fakedegrees.fakedeg import d_rep, fake_degree_d
from fakedegrees.shapes import lusztig_rho1
from fakedegrees.verify import errors, failures, route_record, run_suite

# The two type-D labels of rank 7 on which the even flip procedure is
# ambiguous: the intermediate pair each ambiguity names, the domino
# tableau being mapped (the cells of dominoes 1..7) and the two flip
# results that tie at the minimal length.
AMBIGUOUS_D7 = {
    ((4,), (2, 1)): (
        "(((2, 5), (7,)), ((1, 3, 4, 6),))",
        [[[1, 1], [2, 1]], [[1, 2], [2, 2]], [[1, 3], [2, 3]], [[1, 4], [1, 5]],
         [[2, 4], [2, 5]], [[1, 6], [1, 7]], [[3, 1], [3, 2]]],
        [[[[4, 6], [7]], [[1, 2, 3, 5]]], [[[3, 4], [6]], [[1, 2, 5, 7]]]],
    ),
    ((2, 1), (1, 1, 1, 1)): (
        "(((1,), (3,), (4,), (6,)), ((2, 7), (5,)))",
        [[[1, 1], [1, 2]], [[2, 1], [2, 2]], [[3, 1], [3, 2]], [[4, 1], [5, 1]],
         [[4, 2], [5, 2]], [[6, 1], [7, 1]], [[1, 3], [2, 3]]],
        [[[[1], [2], [3], [5]], [[4, 7], [6]]], [[[1], [2], [5], [7]], [[3, 6], [4]]]],
    ),
}


@pytest.mark.parametrize("pair", sorted(AMBIGUOUS_D7))
def test_rule_error_becomes_a_failing_record(pair):
    intermediate, cells, candidates = AMBIGUOUS_D7[pair]
    rep = d_rep(pair)
    with pytest.raises(RuleError) as info:
        fake_degree_d(rep, "domino")
    assert str(info.value) == f"flip procedure is ambiguous for {intermediate}"
    record = route_record("typeD(7)", "label", rep, ("domino",))
    assert record["agree"] is False
    assert record["error"] == f"domino route: flip procedure is ambiguous for {intermediate}"
    assert [d["cells"] for d in record["tableau"]] == cells
    assert [d["label"] for d in record["tableau"]] == list(range(1, 8))
    assert record["candidates"] == candidates
    assert failures([record]) == errors([record]) == [record]


def test_rule_error_names_tableau_and_candidates():
    """The even bijection raises on the same two domino tableaux, naming
    each and its competing flip results, as the bijections suite records
    them for the pair shapes 2,1|4 and 1,1,1,1|2,1 (the type-D route
    restricts through the swapped ordering)."""
    for pair, (intermediate, cells, candidates) in AMBIGUOUS_D7.items():
        t = DominoTableau(shape=lusztig_rho1(pair[::-1]), dominoes=tuple(
            (tuple(a), tuple(b)) for a, b in cells))
        assert is_standard(t)
        with pytest.raises(RuleError) as info:
            pi_c_prime(t)
        assert str(info.value) == f"flip procedure is ambiguous for {intermediate}"
        assert info.value.tableau == t
        assert json.loads(json.dumps(info.value.candidates)) == candidates


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
