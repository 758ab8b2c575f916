import copy
import os
import pickle
import subprocess
import sys
from collections import Counter
from itertools import permutations
from math import factorial
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings, strategies as st

from fakedegrees.fakedeg import (
    DEFAULT_ROUTE,
    ROUTES,
    Representation,
    all_representations,
    bc_rep,
    check_corollary1_bc,
    check_corollary1_d,
    d_rep,
    embeds_with_shift,
    fake_degree,
    fake_degree_bc,
    fake_degree_d,
    fake_degree_wreath,
    is_shifted_submultiset,
    poincare,
    poincare_bc,
    poincare_d,
    poincare_wreath,
    regular_representation_sum,
    representation,
    special_partner_bc,
    symbol_of,
    wreath_rep,
)
from fakedegrees import fakedeg
from fakedegrees.bijections import pi_c_prime
from fakedegrees.dominoes import enumerate_sdt, maj_domino
from fakedegrees.fakedeg import _formula_product, _restricted_sdt_gf, _scaled
from fakedegrees.qpoly import (
    QPolynomial,
    _digit_words,
    _hook_syt_gf,
    _q_multinomial,
    _word,
    hook_syt_gf,
    q_factorial,
    q_int,
    q_multinomial,
)
from fakedegrees.shapes import (
    b_multi,
    lusztig_rho1,
    lusztig_rho2,
    multipartitions_of,
    nonempty_components,
    symbol_of,
)
from fakedegrees.tableaux import (
    enumerate_tuple_tableaux,
    label_positions,
    largest_label_component,
    maj_tuple,
    tuple_maj_gf,
    tuple_maj_gf_restricted,
)

from oracles import product_by_convolution, regular_sum_by_accumulation


def test_representation_validation():
    with pytest.raises(ValueError):
        Representation(group="wreath", d=2, label=((1,),))
    with pytest.raises(ValueError):
        Representation(group="bc", d=3, label=((1,), ()))
    with pytest.raises(ValueError):
        Representation(group="d", d=2, label=((1,), (2,)))  # not canonical
    with pytest.raises(ValueError):
        Representation(group="d", d=2, label=((2,), (1,)), marker=2)
    r = d_rep(((1,), (2,)), marker=2)
    assert r.label == ((2,), (1,)) and r.marker == 1
    assert d_rep(((1,), (1,)), marker=2).marker == 2


def test_a_type_d_pair_may_mix_a_list_and_a_tuple():
    """A type-D pair's components are ordered and compared as tuples, so
    a pair mixing a list and a tuple is its tuple form: equal components
    keep marker 2, unequal ones are put in canonical order."""
    assert d_rep(([1], (1,)), marker=2) == d_rep(((1,), (1,)), marker=2)
    assert d_rep(([1, 1], (1, 1)), marker=2).marker == 2
    assert d_rep([(2,), [1]], marker=2) == d_rep(((2,), (1,)))
    assert representation("d", ([1], (2,))) == representation("d", ((2,), (1,)))
    assert representation("d", ((1,), [1]), marker=2).marker == 2


def test_representation_is_a_value():
    """A `Representation` is equal and hashes by its fields (group, d,
    label, marker), however it was built; it equals no tuple of them and
    no object of another class; its repr names each field; no field can
    be assigned or deleted; and it survives pickle, `copy.copy` and
    `copy.deepcopy`."""
    r = bc_rep(((2,), (1,)))
    for same in (
        Representation("bc", 2, [[2], [1]]),
        Representation(group="bc", d=2, label=((2,), (1,)), marker=1),
        Representation("bc", 2, label=([2], (1,)), marker=1),
        representation("bc", ((2,), (1,))),
        pickle.loads(pickle.dumps(r)),
        copy.copy(r),
        copy.deepcopy(r),
    ):
        assert r == same and not r != same
        assert hash(r) == hash(same)
    assert hash(r) == hash(("bc", 2, ((2,), (1,)), 1))
    assert len({r, bc_rep([[2], [1]]), bc_rep(((1,), (2,)))}) == 2
    for other in (
        bc_rep(((1,), (2,))),
        representation("d", ((2,), (1,))),
        wreath_rep(((2,), (1,)), 2),
        ("bc", 2, ((2,), (1,)), 1),
        SimpleNamespace(group="bc", d=2, label=((2,), (1,)), marker=1),
    ):
        assert r != other and not r == other
    assert d_rep(((1,), (1,))) != d_rep(((1,), (1,)), marker=2)
    assert repr(r) == "Representation(group='bc', d=2, label=((2,), (1,)), marker=1)"
    assert repr(d_rep([[1], [1]], 2)) == "Representation(group='d', d=2, label=((1,), (1,)), marker=2)"
    assert repr(wreath_rep(([1], [], [2]), 3)) == (
        "Representation(group='wreath', d=3, label=((1,), (), (2,)), marker=1)"
    )
    for name in ("group", "d", "label", "marker", "n", "extra"):
        with pytest.raises(AttributeError):
            setattr(r, name, 1)
    for name in ("group", "d", "label", "marker"):
        with pytest.raises(AttributeError):
            delattr(r, name)
    assert r == bc_rep(((2,), (1,))) and r.n == 3


@pytest.mark.parametrize(
    "group, d, label, marker, message",
    [
        ("wreath", 3, ((1,), (1,)), 1, "does not have 3 components"),
        ("bc", 2, ((1,),), 1, "ordered pair of partitions"),
        ("d", 2, ((1,), (1,), ()), 1, "ordered pair of partitions"),
        ("bc", 2, ((1, 2), ()), 1, "weakly decreasing"),
        ("wreath", 2, ((1,), (0,)), 1, "positive"),
        ("bc", 2, ((True,), ()), 1, "must be ints"),
        ("wreath", 1, ((2.0,),), 1, "must be ints"),
        ("d", 2, ((1,), (2,)), 1, "canonical order"),
        ("d", 2, ((1,), (1,)), 3, "marker must be 1 or 2"),
        ("d", 2, ((1,), (1,)), True, "marker must be 1 or 2"),
        ("d", 2, ((2,), (1,)), 2, "marker 2 needs equal components"),
        ("bc", 2, ((1,), (1,)), 2, "only type D takes a marker"),
        ("wreath", 2.0, ((1,), (1,)), 1, "d must be an int"),
        ("bc", True, ((1,), (1,)), 1, "d must be an int"),
        ("d", 2, ((1,), ()), 1, "type D needs n >= 2"),
        ("d", 2, ((), ()), 1, "type D needs n >= 2"),
        ("bc", 2, 5, 1, "a label must be a sequence of partitions, got 5"),
        ("wreath", 1, None, 1, "a label must be a sequence of partitions, got None"),
        ("bc", 2, ((2, 1), 3), 1, "partition parts must be a sequence of ints, got 3"),
        ("d", 2, ((1,), None), 1, "partition parts must be a sequence of ints, got None"),
    ],
)
def test_the_public_constructor_refuses_every_malformed_label(group, d, label, marker, message):
    """`Representation(...)` checks whatever it is given: a wrong
    component count, a component that is not a partition, a bool or float
    part, a type-D pair out of order, a bad marker, a d that is not an int,
    type D of rank n < 2, and a label or component that is not a sequence
    at all are each refused."""
    with pytest.raises(ValueError, match=message):
        Representation(group, d, label, marker)


GROUPS = [("wreath", 1), ("wreath", 2), ("wreath", 3), ("bc", 2), ("d", 2)]


@pytest.mark.parametrize("group, d", GROUPS)
def test_the_listed_labels_are_the_public_ones(group, d):
    """`all_representations` stores its labels unchecked; for every group
    with n <= 6 each compares, hashes and prints as the label
    `Representation` builds from the same fields, and holds tuples of int
    tuples.  Type D lists no rank below 2."""
    for n in range(2 if group == "d" else 0, 7):
        for rep in all_representations(group, n, d):
            public = Representation(rep.group, rep.d, rep.label, rep.marker)
            assert rep == public and hash(rep) == hash(public) and repr(rep) == repr(public)
            assert type(rep.label) is tuple and all(type(c) is tuple for c in rep.label)
            assert all(type(x) is int for c in rep.label for x in c)
    if group == "d":
        for n in (0, 1):
            with pytest.raises(ValueError, match="n >= 2"):
                all_representations(group, n, d)


@pytest.mark.parametrize(
    "given", [((1,), (1,)), "1|1", None, 3], ids=["pair", "text", "None", "int"]
)
@pytest.mark.parametrize("call", [fake_degree, fake_degree_d])
def test_a_non_representation_is_refused_by_name(call, given):
    """A pair, or anything else that is not a `Representation`, given to
    `fake_degree` or `fake_degree_d` is refused with a ValueError naming
    it (a pair raised AttributeError)."""
    with pytest.raises(ValueError, match="needs a") as raised:
        call(given)
    assert repr(given) in str(raised.value)


def test_fake_degree_d_refuses_a_representation_of_another_group():
    with pytest.raises(ValueError, match="needs a type-D representation, got .*'bc'"):
        fake_degree_d(bc_rep(((1,), (1,))))


@pytest.mark.parametrize("group, d", GROUPS)
def test_every_route_returns_a_canonical_polynomial(group, d):
    """Every route of the group, for every label with n <= 6, returns a
    `QPolynomial` whose coeffs is a tuple ending in a nonzero coefficient,
    equal to the polynomial of its coefficients given as a list."""
    for n in range(2 if group == "d" else 0, 7):
        for rep in all_representations(group, n, d):
            for route in ROUTES[group]:
                p = fake_degree(rep, route)
                assert type(p) is QPolynomial and type(p.coeffs) is tuple, (rep, route)
                assert p.coeffs[-1] != 0 and p == QPolynomial(list(p.coeffs)), (rep, route)


canonical_tuples = st.lists(st.integers(-3, 3), max_size=5).map(lambda cs: QPolynomial(cs).coeffs)
scaled_terms = st.lists(st.tuples(canonical_tuples, st.integers(0, 6)), min_size=1, max_size=3)


@given(scaled_terms, st.integers(1, 4))
@example([((), 0), ((1,), 0)], 2)
@example([((1,), 4), ((), 0)], 2)  # an empty later term at b < d - 1
@example([((1, 1), 0), ((-1, -1), 0)], 1)  # terms that cancel
def test_scaled_is_the_sum_of_its_terms(terms, d):
    """The one writer of the routes: sum of q^b p(q^d) over (coefficient
    tuple, b) terms, empty and cancelling terms included, against
    polynomial arithmetic, in canonical form."""
    expected = QPolynomial()
    for cs, b in terms:
        raised = [0] * (d * len(cs))
        raised[::d] = cs
        expected += QPolynomial(raised).shift(b)
    assert _scaled(terms, d) == expected


@pytest.mark.parametrize(
    "call",
    [
        lambda: Representation(group="bc", d=2, label=((1,), (1,)), marker=7),
        lambda: Representation(group="wreath", d=3, label=((1,), (1,), ()), marker=2),
        lambda: representation("bc", ((2,), (1,)), marker=2),
        lambda: representation("wreath", ((1,), (1,), ()), d=3, marker=2),
        lambda: representation("d", ((2,), (1,)), marker=2),
        lambda: representation("d", ((1,), (2,)), marker=2),
    ],
)
def test_a_marker_is_refused_outside_equal_component_type_d(call):
    """Only the two representations of an equal-component type-D pair are
    told apart by a marker; any other label given a marker other than 1
    is refused rather than answered as if it had marker 1."""
    with pytest.raises(ValueError, match="marker"):
        call()
    assert representation("d", ((1,), (1,)), marker=2).marker == 2


@pytest.mark.parametrize(
    "group, d",
    [("x", 2), ("wreath", 0), ("bc", 3), ("d", 5), ("wreath", 2.0), ("bc", 2.0), ("wreath", "3")],
)
def test_one_rule_refuses_a_group_and_d(group, d):
    """A label, a Poincaré polynomial and the list of labels all refuse an
    unknown group, a d that is not an int, a wreath product of d < 1 and
    types B/C/D of d != 2 with the same message."""
    messages = set()
    for call in (
        lambda: representation(group, ((1,), (1,)), d),
        lambda: poincare(group, 2, d),
        lambda: all_representations(group, 2, d),
        *([lambda: poincare_wreath(d, 2)] if group == "wreath" else []),
    ):
        with pytest.raises(ValueError) as raised:
            call()
        messages.add(str(raised.value))
    assert len(messages) == 1, messages


@pytest.mark.parametrize(
    "call",
    [
        lambda: fake_degree_bc(((2.0,), ())),
        lambda: fake_degree_bc("1|1"),
        lambda: fake_degree_wreath(((1,), ("1",), ()), 3),
        lambda: fake_degree_d(representation("d", ((1.0,), (1,)))),
        lambda: bc_rep([[1], [1.5]]),
    ],
)
def test_a_label_whose_parts_are_not_ints_is_refused(call):
    """`Representation` refuses a part that is not an int with a
    ValueError, before any route reads it."""
    with pytest.raises(ValueError, match="partition parts must be ints"):
        call()


@pytest.mark.parametrize(
    "call",
    [
        lambda: fake_degree_bc(((2, 1), 3)),
        lambda: fake_degree_wreath(((1,), None), 2),
        lambda: bc_rep(5),
        lambda: wreath_rep(None, 1),
        lambda: d_rep(5),
        lambda: d_rep(((2,), 4)),
        lambda: representation("d", 5),
        lambda: representation("d", ((1,), 2)),
        lambda: representation("bc", None),
        lambda: symbol_of(5),
        lambda: lusztig_rho1(None),
        lambda: lusztig_rho2(5),
        lambda: tuple_maj_gf(None),
        lambda: tuple_maj_gf_restricted(5),
        lambda: list(enumerate_tuple_tableaux(5)),
        lambda: q_multinomial(5, 5),
        lambda: q_multinomial(2, None),
        lambda: label_positions(5),
        lambda: label_positions(None),
        lambda: maj_tuple(5),
        lambda: maj_tuple(None),
    ],
)
def test_a_label_that_is_not_a_sequence_is_refused(call):
    """A label, or a component of one, that is not a sequence (an int,
    None) is refused with the ValueError of any other malformed label,
    which the CLI reports as a usage error, not a TypeError.  The
    multipartition readers of `shapes` and `tableaux` share the one check
    (`check_multipartition`), made before any reads the length.  The
    parts of a q-multinomial, the sizes of a label's components, are
    refused alike, and so is a tuple tableau given to its readers."""
    with pytest.raises(ValueError, match="must be a sequence of"):
        call()


@pytest.mark.parametrize(
    "call, message",
    [
        ("fake_degree_bc(((True,), (True,)))", "partition parts must be ints"),
        ("bc_rep(((True,), ()))", "partition parts must be ints"),
        ("tuple_maj_gf(((True, True),))", "partition parts must be ints"),
        ("fake_degree_wreath(((1,),), True)", "d must be an int"),
        ("poincare('wreath', 2, True)", "d must be an int"),
        ("d_rep(((1,), (1,)), True)", "type D marker must be 1 or 2"),
        ("representation('bc', ((1,), ()), 2, True)", "only type D takes a marker"),
        ("flip_c((((True,),), ((2,),)))", "not a standard tableau pair"),
        ("label_positions((((True,),),))", "tuple tableau labels must be ints"),
        ("label_positions((((1.0,),),))", "tuple tableau labels must be ints"),
        ("QPolynomial([1]).shift(True)", "a shift must be an int"),
        ("QPolynomial([1]).shift(1.0)", "a shift must be an int"),
        ("QPolynomial([1]).shift(None)", "a shift must be an int"),
        ("QPolynomial.from_exponents([2, True])", "exponents must be ints"),
        ("QPolynomial.from_exponents([1.5])", "exponents must be ints"),
    ],
)
def test_a_bool_is_not_an_int(call, message):
    """A bool part, d, marker, tableau label, shift or exponent is refused
    as a float one is, even though it equals an int (a shift of None too).
    Each call runs in a fresh interpreter, where no memo holds the int
    twin of its shape."""
    paths = [str(Path(__file__).resolve().parent.parent / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    code = (
        "from fakedegrees.bijections import flip_c\n"
        "from fakedegrees.fakedeg import *\n"
        "from fakedegrees.tableaux import label_positions, tuple_maj_gf\n"
        f"try:\n    print({call})\nexcept ValueError as exc:\n    print('ValueError:', exc)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.startswith(f"ValueError: {message}")


@pytest.mark.parametrize("pair", [(), ((1,),), ((1,), (1,), (1,))])
def test_d_rep_refuses_a_non_pair_as_representation_does(pair):
    with pytest.raises(ValueError) as raised:
        Representation(group="d", d=2, label=pair)
    with pytest.raises(ValueError, match="ordered pair") as by_d_rep:
        d_rep(pair)
    assert str(by_d_rep.value) == str(raised.value)


@pytest.mark.parametrize(
    "call",
    [
        lambda: Representation(group="wreath", d=0, label=()),
        lambda: Representation(group="wreath", d=-1, label=()),
        lambda: fake_degree_wreath((), 0, "formula"),
        lambda: fake_degree_wreath((), 0, "enumeration"),
        lambda: sum(fake_degree(wreath_rep((), 0)).coeffs),
    ],
)
def test_wreath_needs_a_positive_cyclic_order(call):
    """G(0,1,n) is no group: the empty label of d = 0 is refused when the
    representation is built, not by a slice with step 0 in a route."""
    with pytest.raises(ValueError, match="need d >= 1"):
        call()


@pytest.mark.parametrize(
    "call",
    [
        lambda: fake_degree_wreath(((2, 0),), 1, "formula"),
        lambda: fake_degree_wreath(((2, 0),), 1, "enumeration"),
        lambda: fake_degree_wreath(((1, 2),), 1, "formula"),
        lambda: fake_degree_wreath(((1, 2),), 1, "enumeration"),
        lambda: fake_degree_bc(((1, 2), ())),
        lambda: d_rep(((2,), (1, 2))),
        lambda: Representation(group="wreath", d=2, label=((1,), (0,))),
    ],
)
def test_label_components_must_be_partitions(call):
    """Every route refuses a component that is not a partition, instead of
    one returning 1, another 2 + q, and the formula an IndexError."""
    with pytest.raises(ValueError, match="partition parts must be"):
        call()


@pytest.mark.parametrize("group, route", [(g, r) for g in ROUTES for r in ROUTES[g]])
def test_a_label_of_lists_is_its_tuple_form(group, route):
    """A label's components may be any sequences: `Representation` stores
    them as tuples, so a label of lists hashes in the route memos and
    gives the polynomial of its tuple form, by every route, for every
    label with n = 3 (d = 3 for the wreath product)."""
    d = 3 if group == "wreath" else 2
    for rep in all_representations(group, 3, d):
        as_lists = representation(group, [list(c) for c in rep.label], d, rep.marker)
        assert as_lists == rep
        assert fake_degree(as_lists, route) == fake_degree(rep, route)
    assert fake_degree_bc(([1], [1])) == fake_degree_bc(((1,), (1,)))
    assert fake_degree(d_rep(([2], [1]))) == fake_degree(d_rep(((2,), (1,))))


def test_wreath_examples():
    assert fake_degree_wreath(((1, 1), (1,)), 2) == QPolynomial([0, 0, 0, 1, 0, 1, 0, 1])
    assert fake_degree_wreath(((4,),), 1) == QPolynomial([1])
    assert fake_degree_wreath(((2,), (2,)), 2) == QPolynomial(
        [0, 0, 1, 0, 1, 0, 2, 0, 1, 0, 1]
    )
    with pytest.raises(ValueError):
        fake_degree_wreath(((1,),), 2)
    with pytest.raises(ValueError):
        fake_degree_wreath(((1,),), 1, "bogus")


def test_wreath_route_agreement():
    for d in (1, 2, 3):
        for n in range(0, 5):
            for mp in multipartitions_of(n, d):
                assert fake_degree_wreath(mp, d, "formula") == fake_degree_wreath(
                    mp, d, "enumeration"
                )


def test_bc_examples_and_agreement():
    expected = QPolynomial([0, 0, 0, 1, 0, 1, 0, 1])
    for route in ROUTES["bc"]:
        assert fake_degree_bc(((1, 1), (1,)), route) == expected
        assert fake_degree_bc(((), ()), route) == QPolynomial([1])
    for n in range(0, 5):
        for pair in multipartitions_of(n, 2):
            ref = fake_degree_bc(pair, "tuple")
            for route in ROUTES["bc"]:
                assert fake_degree_bc(pair, route) == ref


def test_d_known_examples():
    rep = d_rep(((1, 1), (1,)))
    for route in ROUTES["d"]:
        assert fake_degree_d(rep, route) == QPolynomial([0, 0, 0, 1, 1, 1])
    for marker in (1, 2):
        rep = d_rep(((2,), (2,)), marker)
        for route in ROUTES["d"]:
            assert fake_degree_d(rep, route) == QPolynomial([0, 0, 1, 0, 1, 0, 1])


def test_d_trivial_side():
    assert fake_degree_d(d_rep(((4,), ()))) == QPolynomial([1])


def test_d_rejects_small_rank():
    with pytest.raises(ValueError):
        fake_degree_d(d_rep(((1,), ())))


def test_d_route_agreement():
    for n in range(2, 6):
        for rep in all_representations("d", n):
            ref = fake_degree_d(rep, "tuple")
            assert fake_degree_d(rep, "domino") == ref
            assert fake_degree_d(rep, "shifted") == ref


def reference_restricted_sdt_gf(pair):
    """The domino route's sum as it was before the walk: every tableau
    enumerated, mapped and tested one by one."""
    return QPolynomial.from_exponents(
        maj_domino(t)
        for t in enumerate_sdt(lusztig_rho1(pair))
        if largest_label_component(pi_c_prime(t)) == 1
    )


def test_restricted_sdt_gf_equals_the_reference():
    """The walk's sum, a coefficient tuple, is the reference's."""
    for n in range(1, 9):
        for pair in multipartitions_of(n, 2):
            assert _restricted_sdt_gf(pair) == reference_restricted_sdt_gf(pair).coeffs, pair


# Pairs of rank 8 to 10, past the exhaustive sweeps.
large_pairs = st.integers(8, 10).flatmap(
    lambda n: st.sampled_from(list(multipartitions_of(n, 2)))
)


@settings(max_examples=20, deadline=None)
@given(large_pairs)
def test_routes_agree_past_the_sweeps(pair):
    hook_formula = fake_degree_wreath(pair, 2, "formula")
    for route in ("tuple", "domino_even", "domino_odd"):
        assert fake_degree_bc(pair, route) == hook_formula
    rep = d_rep(pair)
    assert fake_degree_d(rep, "tuple") == fake_degree_d(rep, "shifted")


def test_d_marker_invariance():
    for n in range(2, 6, 2):
        for rep in all_representations("d", n):
            if rep.label[0] == rep.label[1]:
                assert fake_degree_d(d_rep(rep.label, 1)) == fake_degree_d(
                    d_rep(rep.label, 2)
                )


def test_poincare_examples():
    assert poincare_bc(1) == QPolynomial([1, 1])
    assert poincare_d(2) == QPolynomial([1, 2, 1])
    assert poincare_wreath(3, 1) == QPolynomial([1, 1, 1])
    with pytest.raises(ValueError):
        poincare_d(1)


def test_poincare_products_are_the_schoolbook_products():
    for d in range(1, 5):
        for n in range(9):
            expected = product_by_convolution(q_int(d * i) for i in range(1, n + 1))
            assert poincare_wreath(d, n) == expected, (d, n)
    for n in range(2, 11):
        expected = product_by_convolution([q_int(n), *(q_int(2 * i) for i in range(1, n))])
        assert poincare_d(n) == expected, n


def test_formula_product_is_the_schoolbook_product():
    """Every label with d <= 4 and n <= 6 (1,574 labels): the formula
    route's one kernel call against the folded factors."""
    count = 0
    for d in range(1, 5):
        for n in range(7):
            for mp in multipartitions_of(n, d):
                factors = [q_multinomial(n, [sum(c) for c in mp]), *map(hook_syt_gf, mp)]
                inner = product_by_convolution(factors).coeffs
                expected = [0] * (b_multi(mp) + d * len(inner))
                expected[b_multi(mp) :: d] = inner
                assert fake_degree_wreath(mp, d, "formula") == QPolynomial(expected), mp
                count += 1
    assert count == 1574


def test_formula_product_multiplies_memoised_words_as_the_schoolbook_product():
    """Every multiset of one to three nonempty components with n <= 9 (629
    multisets, 96 of them lone components): the product of the memoised
    words equals the schoolbook product of the closed forms, and a lone
    component, through the same words, gives its hook form.  Four
    multisets with n = 21..24, past 20! < 2^64, have words of two-word
    digits: after one cold product each such word is a key of the words
    memo (a read of it is a hit)."""
    multisets = {
        tuple(sorted(nonempty_components(mp)))
        for n in range(1, 10)
        for mp in multipartitions_of(n, 3)
    }
    assert len(multisets) == 629
    wide = [((4, 2), (4, 3, 1), (5, 2)), ((5, 3, 2), (6, 4, 1)), ((1,), (3, 3, 2, 1), (6, 5, 2)),
            ((4, 2), (7, 3), (8,))]
    for components in sorted(multisets) + wide:
        sizes = [sum(c) for c in components]
        if len(components) == 1:
            assert _formula_product(components) == _hook_syt_gf(components[0])
        factors = [q_multinomial(sum(sizes), sizes), *map(hook_syt_gf, components)]
        expected = product_by_convolution(factors).coeffs
        assert _formula_product(components) == expected, components
    for components in wide:
        sizes = tuple(sorted(map(sum, components)))
        assert 21 <= sum(sizes) <= 24 and _digit_words(factorial(sum(sizes)), False) == 2
        _word.cache_clear()
        assert _formula_product.__wrapped__(components) == _formula_product(components)
        keys = [(_q_multinomial, sizes, 2), *((_hook_syt_gf, c, 2) for c in components)]
        assert _word.cache_info().currsize == len(keys)
        for key in keys:
            _word(*key)
        assert _word.cache_info().misses == len(keys), components


def test_formula_route_computes_each_closed_form_once():
    """Over every G(3,1,n) label with n <= 8, from cold memos, the formula
    route computes each closed form once per argument: the words memo is
    the only one, and a lone component reads the same words as any other
    multiset."""
    calls = Counter()

    def counted(form):
        def wrapper(arg):
            calls[form.__name__, arg] += 1
            return form(arg)

        return wrapper

    _formula_product.cache_clear()
    _word.cache_clear()
    try:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(fakedeg, "_hook_syt_gf", counted(fakedeg._hook_syt_gf))
            patch.setattr(fakedeg, "_q_multinomial", counted(fakedeg._q_multinomial))
            for n in range(9):
                for rep in all_representations("wreath", n, 3):
                    assert fake_degree(rep, "formula") == fake_degree(rep, "enumeration"), rep
    finally:
        _formula_product.cache_clear()
        _word.cache_clear()
    assert {form for form, _ in calls} == {"_hook_syt_gf", "_q_multinomial"}
    assert set(calls.values()) == {1}


def test_formula_product_is_memoised_per_multiset_of_components():
    """Every ordering of (2,1) and (1), padded with empty components to
    d = 2, 3 and 4, reads one memo entry, and each is its own label's
    fake degree."""
    _formula_product.cache_clear()
    calls = 0
    for d in (2, 3, 4):
        for label in set(permutations(((2, 1), (1,)) + ((),) * (d - 2))):
            formula = fake_degree_wreath(label, d, "formula")
            assert formula == fake_degree_wreath(label, d, "enumeration"), label
            calls += 1
    info = _formula_product.cache_info()
    assert (info.misses, info.hits) == (1, calls - 1)


def test_formula_keeps_each_label_own_b_shift():
    """Labels that share a memo entry still take their own b-shift."""
    _formula_product.cache_clear()
    labels = [((1,), (), ()), ((), (1,), ()), ((), (), (1,))]
    formulas = [fake_degree_wreath(label, 3, "formula") for label in labels]
    assert formulas == [QPolynomial.monomial(k) for k in range(3)]
    assert formulas == [fake_degree_wreath(label, 3, "enumeration") for label in labels]
    assert _formula_product.cache_info().currsize == 1


@st.composite
def label_and_rearrangement(draw):
    """A label with d <= 4 and n <= 7, and its nonempty components
    reordered and padded with empty ones to some d' <= 4."""
    d, n = draw(st.integers(1, 4)), draw(st.integers(0, 7))
    label = draw(st.sampled_from(list(multipartitions_of(n, d))))
    nonempty = [c for c in label if c]
    other_d = draw(st.integers(max(len(nonempty), 1), 4))
    other = draw(st.permutations(nonempty + [()] * (other_d - len(nonempty))))
    return (label, d), (tuple(other), other_d)


@settings(max_examples=60, deadline=None)
@given(label_and_rearrangement(), st.booleans())
def test_formula_memo_gives_each_label_its_fake_degree(pair, other_first):
    """Whichever of a label and its rearrangement fills the memo, each
    formula equals its own enumeration route."""
    _formula_product.cache_clear()
    for label, d in pair[::-1] if other_first else pair:
        assert fake_degree_wreath(label, d, "formula") == fake_degree_wreath(
            label, d, "enumeration"
        ), (label, d)


def test_fake_degree_reads_the_route_table():
    reps = [wreath_rep(((1,), (1,), ()), 3), bc_rep(((1,), (1,))), d_rep(((1,), (1,)))]
    for rep in reps:
        assert DEFAULT_ROUTE[rep.group] in ROUTES[rep.group]
        assert fake_degree(rep) == fake_degree(rep, DEFAULT_ROUTE[rep.group])
        for route in ROUTES[rep.group]:
            assert fake_degree(rep, route) == fake_degree(rep)
        with pytest.raises(ValueError):
            fake_degree(rep, "bogus")


def test_regular_representation_identity():
    for n in range(0, 6):
        assert regular_representation_sum("wreath", n, 2) == poincare_wreath(2, n)
        assert regular_representation_sum("bc", n) == poincare_bc(n)
    for n in range(0, 5):
        assert regular_representation_sum("wreath", n, 3) == poincare_wreath(3, n)
    for n in range(2, 6):
        assert regular_representation_sum("d", n) == poincare_d(n)


@pytest.mark.parametrize("group, d", [("wreath", 2), ("wreath", 3), ("bc", 2), ("d", 2)])
def test_regular_sum_is_the_schoolbook_accumulation(group, d):
    """Each group of the poincare suite at every rank n <= 8: the packed
    sum against one coefficient at a time."""
    for n in range(2 if group == "d" else 0, 9):
        assert regular_representation_sum(group, n, d) == regular_sum_by_accumulation(
            group, n, d
        ), (group, d, n)


@pytest.mark.parametrize(
    "bad",
    [QPolynomial([2**64, 0, 1]), QPolynomial([2**130 + 7]), QPolynomial([1, -2, 0, 5]),
     QPolynomial([1, -1]), QPolynomial([-3, 1])],
    ids=["2^64", "three-words", "negative", "zero-sum", "negative-sum"],
)
def test_regular_sum_stays_exact_on_a_broken_route(bad, monkeypatch):
    """A B/C route that gives one label a coefficient of 2^64 or more, a
    negative one, or a coefficient sum of 0 or less: the sum is still the
    schoolbook accumulation, and so differs from the Poincaré polynomial."""
    tuple_route = ROUTES["bc"]["tuple"]
    monkeypatch.setitem(
        ROUTES["bc"], "tuple", lambda rep: bad if rep.label == ((1,), (1,)) else tuple_route(rep)
    )
    expected = regular_sum_by_accumulation("bc", 2)
    assert regular_representation_sum("bc", 2) == expected != poincare_bc(2)


@pytest.mark.parametrize(
    "call",
    [
        lambda: poincare("bc", True),
        lambda: poincare("d", 3.0),
        lambda: poincare("wreath", 2.0, 3),
        lambda: poincare_wreath(2, True),
        lambda: poincare_bc(1.0),
        lambda: poincare_d(True),
        lambda: regular_representation_sum("bc", 2.0),
        lambda: check_corollary1_bc(True),
        lambda: q_int(True),
        lambda: q_int(2.0),
        lambda: q_factorial(True),
        lambda: q_factorial(2.0),
    ],
    ids=["bc-bool", "d-float", "wreath-float", "poincare_wreath-bool", "poincare_bc-float",
         "poincare_d-bool", "regular-sum-float", "cor1-bool", "q_int-bool", "q_int-float",
         "q_factorial-bool", "q_factorial-float"],
)
def test_a_rank_that_is_not_an_int_is_refused(call):
    """A bool or float rank is refused with a ValueError, not read as the
    int it equals (poincare("bc", True) was 1 + q, q_int(True) was 1) nor
    failed on deep inside (q_int(2.0) raised TypeError)."""
    with pytest.raises(ValueError, match="requires an int n"):
        call()


@pytest.mark.parametrize(
    "call",
    [
        lambda: all_representations("bc", -1),
        lambda: all_representations("wreath", -1, 3),
        lambda: check_corollary1_bc(-1),
        lambda: regular_representation_sum("bc", -1),
        lambda: regular_representation_sum("wreath", -2, 3),
        lambda: poincare("bc", -1),
    ],
)
def test_a_negative_rank_is_refused(call):
    """A negative rank is no group: the list of labels, the regular sum
    and the corollary check refuse it as the Poincare polynomial does,
    rather than answer with an empty list or the zero polynomial."""
    with pytest.raises(ValueError):
        call()


def test_dimension_is_tableau_count():
    for n in range(0, 5):
        for pair in multipartitions_of(n, 2):
            assert sum(fake_degree(bc_rep(pair)).coeffs) == len(
                list(enumerate_tuple_tableaux(pair))
            )
        for mp in multipartitions_of(n, 3):
            assert sum(fake_degree(wreath_rep(mp, 3)).coeffs) == len(
                list(enumerate_tuple_tableaux(mp))
            )


def test_d_dimension_halving():
    """The two representations of an equal-component pair split the
    tableau count in half."""
    rep = d_rep(((2,), (2,)))
    assert sum(fake_degree(rep).coeffs) * 2 == len(
        list(enumerate_tuple_tableaux(rep.label))
    )


def test_symbol_shape():
    long_row, short_row = symbol_of(((1, 1), (1,)))
    assert len(long_row) == len(short_row) + 1
    assert list(long_row) == sorted(long_row)
    assert list(short_row) == sorted(short_row)


def test_special_partner_idempotent_and_interleaved_fixpoint():
    for n in range(0, 6):
        for pair in multipartitions_of(n, 2):
            sp = special_partner_bc(pair)
            assert special_partner_bc(sp) == sp
            long_row, short_row = symbol_of(sp)
            merged = sorted(long_row + short_row)
            assert tuple(merged[0::2]) == long_row
            assert tuple(merged[1::2]) == short_row


def test_special_partner_golden_values():
    # frozen after the exponent-containment sweep passed
    assert special_partner_bc(((1, 1), (1,))) == ((1, 1), (1,))  # already special
    assert special_partner_bc(((1, 1), ())) == ((1,), (1,))
    assert special_partner_bc(((), (2,))) == ((1,), (1,))
    assert special_partner_bc(((1, 1, 1), ())) == ((1,), (1, 1))


def test_is_shifted_submultiset():
    assert is_shifted_submultiset([3, 5, 7], [3, 5, 7])
    assert is_shifted_submultiset([0, 2], [5, 7, 9])
    assert is_shifted_submultiset([], [1])
    assert not is_shifted_submultiset([0, 0], [1, 2])
    assert not is_shifted_submultiset([0, 1, 2], [0, 1])


def _shifted_submultiset_by_counting(a, b):
    """Try every shift that can carry some element of a onto one of b."""
    ca, cb = Counter(a), Counter(b)
    shifts = range(-max(a, default=0), max(b, default=0) + 1)
    return any(all(cb[x + s] >= k for x, k in ca.items()) for s in shifts)


small_multisets = st.lists(st.integers(0, 6), max_size=8)


@given(small_multisets, small_multisets)
@example([], [])
@example([], [3])
@example([2], [])
def test_is_shifted_submultiset_matches_counting(a, b):
    assert is_shifted_submultiset(a, b) == _shifted_submultiset_by_counting(a, b)


def _embeds_at_some_shift(a: list[int], b: list[int]) -> bool:
    """Try every shift that leaves a coefficient of a on a coefficient of b,
    reading b as 0 outside its list."""
    def at(k):
        return b[k] if 0 <= k < len(b) else 0

    shifts = range(-len(a), len(b) + 1)
    return any(all(c <= at(k + s) for k, c in enumerate(a)) for s in shifts)


coefficient_lists = st.lists(st.integers(0, 3), max_size=8)


@given(coefficient_lists, coefficient_lists)
@example([], [])  # a = 0 = b
@example([], [0, 2])  # a = 0
@example([1], [])  # b = 0 with a a monomial: no cb[-1] of an empty tuple
@example([0, 0, 0, 1], [])
@example([1, 1, 1], [2, 2])  # a longer than b
@example([0, 0, 1, 2], [1, 2])  # leading zeros, shift below zero
@example([0, 1, 0, 1], [0, 0, 0, 1, 1, 1])
def test_embeds_with_shift_tries_the_shifts_that_fit(a, b):
    """The window of shifts from low(b) - low(a) to deg(b) - deg(a) gives
    the verdict of trying every shift, on nonnegative coefficients with
    zeros anywhere."""
    assert embeds_with_shift(QPolynomial(a), QPolynomial(b)) == _embeds_at_some_shift(a, b)


def test_corollary1_bc():
    for n in range(0, 5):
        assert all(r["ok"] for r in check_corollary1_bc(n))


def test_corollary1_d():
    for n in range(2, 5):
        assert all(r["ok"] for r in check_corollary1_d(n))
