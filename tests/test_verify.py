import json

import pytest

from fakedegrees.bijections import RuleError
from fakedegrees.fakedeg import d_rep, fake_degree_d
from fakedegrees.verify import errors, failures, route_record, run_suite

# The two type-D labels of rank 7 on which the even flip procedure is
# ambiguous, with the intermediate pair each ambiguity names.
AMBIGUOUS_D7 = {
    ((4,), (2, 1)): "(((2, 5), (7,)), ((1, 3, 4, 6),))",
    ((2, 1), (1, 1, 1, 1)): "(((1,), (3,), (4,), (6,)), ((2, 7), (5,)))",
}


@pytest.mark.parametrize("pair", sorted(AMBIGUOUS_D7))
def test_rule_error_becomes_a_failing_record(pair):
    rep = d_rep(pair)
    with pytest.raises(RuleError):
        fake_degree_d(rep, "domino")
    record = route_record("typeD(7)", "label", rep, ("domino",))
    assert record["agree"] is False
    assert record["error"] == (
        f"domino route: flip procedure is ambiguous for {AMBIGUOUS_D7[pair]}"
    )
    assert failures([record]) == errors([record]) == [record]


def test_clean_records_carry_no_error():
    records = run_suite("thm4", 4)
    assert records and not errors(records) and not failures(records)


def test_poincare_records_stay_small():
    """A Poincaré polynomial has |W| exponents, so its record lists none."""
    records = run_suite("poincare", 8)
    assert records and not failures(records)
    for record in records:
        assert record["exponents"] == []
        assert len(json.dumps(record)) < 10_000
