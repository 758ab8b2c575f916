import hashlib
import json
from pathlib import Path

import pytest

from fakedegrees import cli, fakedeg, verify
from fakedegrees.bijections import pi_c_prime
from fakedegrees.dominoes import DominoTableau, maj_domino
from fakedegrees.fakedeg import d_rep, fake_degree_d
from fakedegrees.qpoly import QPolynomial
from fakedegrees.shapes import lusztig_rho1
from fakedegrees.tableaux import enumerate_tuple_tableaux, maj_tuple
from fakedegrees.verify import route_record, run_suite
from oracles import is_standard, pair_shapes, regular_sum_by_accumulation

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
    assert "error" not in record


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
    records = list(run_suite("thm4", 4))
    assert records and not [r for r in records if "error" in r]
    assert not [r for r in records if not r["agree"]]


def test_poincare_records_stay_small():
    """A Poincaré polynomial has |W| exponents, so its record lists none.
    The B/C default route enters the identity too, not only wreath(2, n)."""
    records = list(run_suite("poincare", 8))
    assert records and not [r for r in records if not r["agree"]]
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
    records = list(run_suite("thm1", 8)) + list(run_suite("cor1", 8))
    assert records and not [r for r in records if not r["agree"]]
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
def test_report_matches_the_digest_ladder(suite, max_n, capsys):
    """The JSON-lines report that `verify` prints, byte for byte, as the
    CI sweeps compare it: stdout less its final newline."""
    assert cli.main(["verify", "--suite", suite, "--max-n", str(max_n)]) == 0
    report = capsys.readouterr().out
    assert report.endswith("\n")
    assert hashlib.sha256(report[:-1].encode()).hexdigest() == DIGESTS[suite][str(max_n)]


@pytest.mark.parametrize(
    "bad", [QPolynomial([2**64, 0, 1]), QPolynomial([1, -2, 0, 5])], ids=["2^64", "negative"]
)
def test_a_broken_route_fails_the_poincare_sweep(bad, monkeypatch, capsys):
    """A B/C route that gives the label (1|1) a coefficient of 2^64 or a
    negative one: `verify --suite poincare` writes a failing typeBC(2)
    record, whose sum is the schoolbook accumulation, and every other
    record agrees; nothing raises."""
    tuple_route = fakedeg.ROUTES["bc"]["tuple"]
    monkeypatch.setitem(
        fakedeg.ROUTES["bc"],
        "tuple",
        lambda rep: bad if rep.label == ((1,), (1,)) else tuple_route(rep),
    )
    assert cli.main(["verify", "--suite", "poincare", "--max-n", "3"]) == 1
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    failing = [r for r in records if not r["agree"]]
    assert [r["group"] for r in failing] == ["typeBC(2)"]
    assert failing[0]["routes"]["sum"] == regular_sum_by_accumulation("bc", 2).pretty()


@pytest.mark.parametrize("suite", [*verify.SUITES, "all"])
def test_every_suite_is_an_iterator(suite):
    """A sweep is read once, as it is computed; no suite hands back a
    list of its records."""
    records = run_suite(suite, 3)
    assert iter(records) is records
    assert all(set(r) >= {"group", "label", "routes", "agree"} for r in records)


class Unreached(Exception):
    """Raised by a check that a lazy suite has not reached yet."""


@pytest.mark.parametrize("suite", ["thm1", "all"])
def test_route_suites_are_lazy(suite, monkeypatch):
    """A suite's first record exists before its later checks run: a wreath
    route that breaks from rank 2 on leaves the rank-0 record alone."""
    formula = fakedeg.ROUTES["wreath"]["formula"]

    def formula_to_rank_1(rep):
        if rep.n >= 2:
            raise Unreached(rep)
        return formula(rep)

    monkeypatch.setitem(fakedeg.ROUTES["wreath"], "formula", formula_to_rank_1)
    records = run_suite(suite, 6)
    assert next(iter(records))["group"] == "wreath(1,0)"
    with pytest.raises(Unreached):
        list(records)


def test_bijection_suite_is_lazy(monkeypatch):
    """The bijection suite yields each pair shape's records as it maps
    the shape, not after mapping them all."""
    map_shape = verify.map_shape

    def map_to_size_2(shape, visit):
        if sum(shape) > 2:
            raise Unreached(shape)
        return map_shape(shape, visit)

    monkeypatch.setattr(verify, "map_shape", map_to_size_2)
    records = run_suite("bijections", 6)
    assert next(iter(records))["group"] == "bijection-even(0)"
    with pytest.raises(Unreached):
        list(records)
