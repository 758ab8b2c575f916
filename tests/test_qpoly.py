import copy
import itertools
import operator
import pickle
from collections import Counter
from types import SimpleNamespace

import pytest
from hypothesis import given, strategies as st

from fakedegrees import qpoly
from fakedegrees.qpoly import (
    ONE,
    InexactDivisionError,
    QPolynomial,
    _binomial_product,
    _hook_syt_gf,
    _pack,
    _q_multinomial,
    _unpack,
    add_raised,
    hook_syt_gf,
    product,
    q_factorial,
    q_int,
    q_multinomial,
    weighted_sum,
)
from fakedegrees.dominoes import _by_last_domino, enumerate_sdt, maj_domino, sdt_maj_gf
from fakedegrees.shapes import (
    _cell_removals,
    _domino_removals,
    b_statistic,
    multipartitions_of,
    nonempty_components,
    partitions_of,
)
from fakedegrees.tableaux import (
    _maj_gf_by_last_cell,
    enumerate_tuple_tableaux,
    maj_tuple,
    tuple_maj_gf,
    tuple_maj_gf_restricted,
)

from oracles import (
    hook_syt_gf_by_long_division,
    mul_by_convolution,
    product_by_convolution,
    q_factorial_by_convolution,
    q_multinomial_by_pascal,
    weighted_sum_by_accumulation,
)

polys = st.builds(QPolynomial, st.lists(st.integers(-9, 9), max_size=8))


def test_canonical_form():
    assert QPolynomial([0, 1, 0, 0]).coeffs == (0, 1)
    assert QPolynomial([]).coeffs == ()
    assert not QPolynomial([0, 0])
    assert QPolynomial([1]) == ONE


@given(st.lists(st.integers(-9, 9), max_size=8))
def test_a_canonical_tuple_is_stored_as_it_is(coeffs):
    """A tuple that ends in a nonzero coefficient (or is empty) becomes
    the polynomial's coeffs itself; a tuple ending in zeros, and any
    other iterable, is copied with its trailing zeros dropped."""
    canonical = QPolynomial(coeffs).coeffs
    assert QPolynomial(canonical).coeffs is canonical
    for other in (tuple(coeffs) + (0,), coeffs + [0], iter(coeffs)):
        assert QPolynomial(other).coeffs == canonical


@given(st.lists(st.integers(-9, 9), max_size=8), st.integers(-9, 9))
def test_equal_polynomials_hash_equal_and_no_int_is_equal(coeffs, k):
    """Equality is that of the canonical coefficients, so equal values
    hash equal and find each other in a set or dict; an int, a constant
    polynomial's value included, is never equal to a polynomial."""
    p, padded = QPolynomial(coeffs), QPolynomial(coeffs + [0, 0])
    assert p == padded and hash(p) == hash(padded)
    assert len({p, padded}) == 1 and {p: k}.get(padded) == k
    assert QPolynomial([k]) != k and k != QPolynomial([k])
    assert len({QPolynomial([k]), k}) == 2 and {k: p}.get(QPolynomial([k])) is None


@given(st.lists(st.integers(0, 12), max_size=20))
def test_from_exponents_is_the_histogram(exponents):
    p = QPolynomial.from_exponents(exponents)
    assert p.exponent_multiset() == sorted(exponents)
    assert p == QPolynomial.from_exponents(iter(exponents))


def test_from_exponents_rejects_negative():
    assert not QPolynomial.from_exponents([])
    with pytest.raises(ValueError):
        QPolynomial.from_exponents([1, -1])


def test_immutability_and_hash():
    p = QPolynomial([1, 2])
    with pytest.raises(AttributeError):
        p.coeffs = (3,)
    assert hash(p) == hash(QPolynomial([1, 2, 0]))


def test_qpolynomial_is_a_value():
    """A `QPolynomial` survives pickle, `copy.copy` and `copy.deepcopy`,
    refuses any assignment or deletion of its coefficients, hashes as its
    coefficient tuple, equals no tuple, int or other object holding the
    same coefficients, and has the repr of its coefficient list."""
    p = QPolynomial([1, 0, 2])
    for same in (pickle.loads(pickle.dumps(p)), copy.copy(p), copy.deepcopy(p)):
        assert p == same and not p != same and type(same) is QPolynomial
        assert hash(p) == hash(same)
    for name in ("coeffs", "extra"):
        with pytest.raises(AttributeError):
            setattr(p, name, (3,))
    with pytest.raises(AttributeError):
        del p.coeffs
    assert p.coeffs == (1, 0, 2) and hash(p) == hash(p.coeffs)
    for other in ((1, 0, 2), 1, SimpleNamespace(coeffs=(1, 0, 2))):
        assert p != other and not p == other
    assert ONE != 1 and not ONE == 1
    assert repr(p) == "QPolynomial([1, 0, 2])" and repr(QPolynomial()) == "QPolynomial([])"


def test_monomial_degree_low_degree():
    m = QPolynomial.monomial(3)
    assert m.coeffs == (0, 0, 0, 1)
    assert m.degree == 3
    assert m.low_degree == 3
    assert QPolynomial().degree == -1
    assert QPolynomial.monomial(0) == ONE


@pytest.mark.parametrize("k", [-1, -2, True, False, 2.0])
def test_monomial_needs_a_natural_int(k):
    """A negative exponent would give 1 and a bool would read as 0 or 1,
    so each is refused, as a float is."""
    with pytest.raises(ValueError, match=r"QPolynomial\.monomial requires"):
        QPolynomial.monomial(k)


def test_arithmetic_basics():
    a = QPolynomial([1, 1])
    b = QPolynomial([1, -1])
    assert a + b == QPolynomial([2])
    assert a - a == QPolynomial()
    assert a * b == QPolynomial([1, 0, -1])


@pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul])
@pytest.mark.parametrize("other", [1, 2.0, [1]], ids=["int", "float", "list"])
def test_arithmetic_with_a_non_polynomial_raises_type_error(op, other):
    """Python raises TypeError on either side, not AttributeError from a
    missing coefficient list."""
    a = QPolynomial([1, 1])
    with pytest.raises(TypeError):
        op(a, other)
    with pytest.raises(TypeError):
        op(other, a)


@given(polys, polys, polys)
def test_ring_axioms(a, b, c):
    assert a * b == mul_by_convolution(a, b)
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) * c == a * c + b * c
    assert (a * b) * c == a * (b * c)


# Signed factors of length 0-30 and coefficients up to 2^70 in size, with
# the zero polynomial and 1 drawn often.
kernel_factors = st.one_of(
    st.just(QPolynomial()),
    st.just(ONE),
    st.builds(QPolynomial, st.lists(st.integers(-(2**70), 2**70), max_size=30)),
)
# Factors with no negative coefficient, which read unsigned digits; their
# coefficients up to 2^200 fill four words of a digit, so every word of a
# digit is written as well as read.
natural_factors = st.one_of(
    st.just(ONE),
    st.builds(QPolynomial, st.lists(st.integers(0, 2**200), max_size=30)),
)


@given(st.one_of(st.lists(kernel_factors, max_size=5), st.lists(natural_factors, max_size=5)))
def test_product_is_the_folded_schoolbook_product(factors):
    assert product(factors) == product_by_convolution(factors)
    assert product(iter(factors)) == product(factors)


def test_product_of_no_factor_one_factor_and_a_zero_factor():
    p = QPolynomial([3, 0, -2])
    assert product([]) == ONE
    assert product([p]) is p
    assert product([ONE, p, ONE]) is p
    assert product([ONE, ONE]) == ONE
    assert product([p, QPolynomial(), p]) == QPolynomial()
    assert product([QPolynomial()]) == QPolynomial()


# Weights and coefficients of either sign up to 2^200, so a digit may
# take four words, and zero weights, zero lists and trailing zeros.
signed_terms = st.lists(
    st.tuples(
        st.integers(-(2**70), 2**70) | st.integers(0, 3),
        st.lists(st.integers(-(2**200), 2**200) | st.integers(0, 3), max_size=12),
    ),
    max_size=6,
)
natural_terms = st.lists(
    st.tuples(st.integers(0, 2**70), st.lists(st.integers(0, 2**200), max_size=12)),
    max_size=6,
)


@given(st.one_of(signed_terms, natural_terms))
def test_weighted_sum_is_the_schoolbook_accumulation(terms):
    assert weighted_sum(terms) == weighted_sum_by_accumulation(terms)
    assert weighted_sum(iter(terms)) == weighted_sum(terms)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_word_coder_round_trip_and_range(m):
    """Both readings of an m-word digit.  Unsigned, the coder packs a list
    of naturals below 2^(64m) as the integer with those digits in base
    2^(64m), reads it back, and refuses -1 and 2^(64m); signed, it does
    the same for balanced digits in [-2^(64m-1), 2^(64m-1)) and refuses
    one past each end."""
    base = 2 ** (64 * m)
    half = base // 2
    readings = {
        False: ([base - 1, 0, 1, base - 2, 2**63, half, 0], (-1, base)),
        True: ([-half, half - 1, 0, -1, 1, 1 - half, half - 2, -(2**63), 0], (-half - 1, half)),
    }
    for signed, (cs, refused) in readings.items():
        value = _pack(cs, m, signed)
        assert value == sum(c * base**k for k, c in enumerate(cs))
        assert _unpack(value, m, len(cs), signed) == cs
        for bad in refused:
            with pytest.raises(OverflowError):
                _pack([1, bad], m, signed)


@pytest.fixture
def coder_calls(monkeypatch):
    """Counts of the word coder's `_pack` and `_unpack` calls."""
    calls = Counter()
    for name in ("_pack", "_unpack"):
        def call(*args, name=name, coder=getattr(qpoly, name)):
            calls[name] += 1
            return coder(*args)

        monkeypatch.setattr(qpoly, name, call)
    return calls


def test_a_signed_product_packs_each_factor_once_and_unpacks_once(coder_calls):
    """Every sign takes one path: one pack per factor, one multiply and
    one unpack, however many factors have a negative coefficient."""
    natural = [QPolynomial([0, 4, 1]), QPolynomial([2, 0, 0, 7])]
    for signed in ([QPolynomial([1, -2, 3])], [QPolynomial([1, -2]), QPolynomial([-5, 0, 6])]):
        coder_calls.clear()
        factors = natural + signed
        assert product(factors) == product_by_convolution(factors)
        assert coder_calls == {"_pack": len(factors), "_unpack": 1}


def test_a_signed_weighted_sum_unpacks_once(coder_calls):
    """A negative coefficient, or a negative weight, makes the sum read
    balanced digits, still with one unpack."""
    for terms in ([(3, [1, -2, 3]), (2, [0, 4])], [(2, [0, 4]), (-1, [7]), (0, [-9])]):
        coder_calls.clear()
        assert weighted_sum(terms) == weighted_sum_by_accumulation(terms)
        assert coder_calls["_unpack"] == 1


@pytest.mark.parametrize(
    "bound",
    [127, 128, 255, 256, 2**63 - 1, 2**63, 2**63 + 1,
     2**64 - 1, 2**64, 2**64 + 1, 2**128 - 1, 2**128],
)
@pytest.mark.parametrize("sign", [1, -1])
def test_product_is_exact_at_a_byte_edge(bound, sign):
    """The product of the absolute coefficient sums is the bound; here some
    coefficient reaches it, or two neighbours of opposite sign share it, on
    either side of a byte edge and of a 64-bit word edge of the digit.  In
    the last case a coefficient reaches the bound between two large
    neighbours.  With sign 1 no coefficient is negative, so the digits
    are read unsigned; with sign -1 they are read balanced, whose word
    edge is at 2^63."""
    a = bound // 2
    cases = [
        [QPolynomial([0, sign * bound]), QPolynomial([0, 0, -1])],
        [QPolynomial([sign * bound]), QPolynomial([0, 1]), QPolynomial([0, -1])],
        [QPolynomial([0, sign * a, -sign * (bound - a)]), QPolynomial([0, 1])],
        [QPolynomial([sign * a, sign * (bound - a)]), QPolynomial([1, 1])],
    ]
    for factors in cases:
        assert product(factors) == product_by_convolution(factors), factors
    assert max(map(abs, product(cases[0]).coeffs)) == bound
    assert max(map(abs, product(cases[3]).coeffs)) == bound


@given(polys, polys, polys, st.integers(0, 6))
def test_add_raised_is_the_raised_sum(acc, total, below, s):
    """The in-place step of the running-sum memos: acc + total - below +
    q^s below, whatever the lengths."""
    out = list(acc.coeffs)
    add_raised(out, total.coeffs, below.coeffs, s)
    assert QPolynomial(out) == acc + total - below + below.shift(s)


# Each kind's running-sum memo (`running_sums`): the memo, its removals
# table, the route's whole sum, the sum by enumeration, the shapes swept,
# and one shape solved fresh.  The tuple memo is keyed on the nonempty
# components, so its shapes have no empty component.
RUNNING_SUM_MEMOS = {
    "tuple": (
        _maj_gf_by_last_cell,
        _cell_removals,
        tuple_maj_gf,
        lambda mp: map(maj_tuple, enumerate_tuple_tableaux(mp)),
        list(
            dict.fromkeys(
                nonempty_components(mp)
                for d in (1, 2, 3)
                for n in range(0, 6)
                for mp in multipartitions_of(n, d)
            )
        ),
        ((3, 2, 1), (2, 1), (1,)),
    ),
    "domino": (
        _by_last_domino,
        _domino_removals,
        sdt_maj_gf,
        lambda p: map(maj_domino, enumerate_sdt(p)),
        [shape for size in range(0, 12) for shape in partitions_of(size)],
        (6, 4, 2),
    ),
}


@pytest.mark.parametrize("kind", RUNNING_SUM_MEMOS)
def test_running_sum_memo_is_order_independent_and_immutable(kind):
    """The process-wide memo gives the same sums whether the small shapes
    are solved first or reached from the large ones, every cached entry
    is a tuple, so no caller can change it, and each sum is the one over
    the enumerated tableaux."""
    memo, _, whole_sum, majs, shapes, _ = RUNNING_SUM_MEMOS[kind]
    runs = []
    for order in (shapes, shapes[::-1]):
        memo.cache_clear()
        runs.append({shape: (whole_sum(shape), memo(shape)) for shape in order})
        for shape in order:
            entries = memo(shape)
            assert isinstance(entries, tuple)
            assert all(isinstance(e, tuple) and isinstance(e[1], tuple) for e in entries)
    assert runs[0] == runs[1]
    for shape, (total, _) in runs[0].items():
        assert total == QPolynomial.from_exponents(majs(shape)), shape


@pytest.mark.parametrize("kind", RUNNING_SUM_MEMOS)
def test_running_sum_memo_leaves_the_removals_table_alone(kind):
    """The memo solves each shape once, so it reads the table without
    filling its process-wide memo."""
    memo, removals, whole_sum, _, _, shape = RUNNING_SUM_MEMOS[kind]
    memo.cache_clear()
    removals.cache_clear()
    whole_sum(shape)
    assert memo.cache_info().currsize > 1
    assert removals.cache_info().currsize == 0


@pytest.mark.parametrize("kind", RUNNING_SUM_MEMOS)
def test_running_sum_entries_end_in_a_nonzero_coefficient(kind):
    """Every entry of the memo is the coefficient tuple of a polynomial in
    canonical form: none ends in a zero, though a move whose smaller shape
    adds no term ((3,) and (6,) among them) used to leave one."""
    memo, _, _, _, shapes, _ = RUNNING_SUM_MEMOS[kind]
    for shape in shapes:
        for _, coeffs in memo(shape):
            assert not coeffs or coeffs[-1] != 0, (shape, coeffs)


@given(polys, polys)
def test_exact_div_roundtrip(a, b):
    if not b:
        return
    assert (a * b).exact_div(b) == a


def test_inexact_division_raises():
    with pytest.raises(InexactDivisionError):
        QPolynomial([1, 1, 1]).exact_div(QPolynomial([1, 1]))
    with pytest.raises(ZeroDivisionError):
        ONE.exact_div(QPolynomial())


def test_shift():
    p = QPolynomial([0, 1, 1, 1])  # q + q^2 + q^3
    assert p.shift(1).coeffs == (0, 0, 1, 1, 1)
    assert p.shift(-1).coeffs == (1, 1, 1)
    with pytest.raises(ValueError):
        p.shift(-2)


def test_palindromic():
    assert QPolynomial([0, 1, 2, 1]).is_palindromic()
    assert not QPolynomial([1, 2]).is_palindromic()
    assert QPolynomial().is_palindromic()


def test_exponent_multiset():
    assert QPolynomial([0, 0, 2, 1]).exponent_multiset() == [2, 2, 3]
    with pytest.raises(ValueError):
        QPolynomial([-1]).exponent_multiset()


def test_pretty():
    assert QPolynomial([0, 0, 0, 1, 0, 1, 0, 1]).pretty() == "q^3 + q^5 + q^7"
    assert QPolynomial([1, 2]).pretty() == "1 + 2*q"
    assert QPolynomial().pretty() == "0"
    assert QPolynomial([1, 0, -1]).pretty() == "1 - q^2"
    assert QPolynomial([0, -1, 2, -3]).pretty() == "-q + 2*q^2 - 3*q^3"
    assert QPolynomial([-2, 1, -1]).pretty() == "-2 + q - q^2"
    assert QPolynomial([0, 0, -5]).pretty() == "-5*q^2"
    error = InexactDivisionError(QPolynomial([1, -1]), QPolynomial([1, 0, -1]))
    assert str(error) == "inexact division: (1 - q) / (1 - q^2)"


def test_q_analogues():
    assert q_int(0) == ONE
    assert q_int(3) == QPolynomial([1, 1, 1])
    for n in range(13):
        assert q_factorial(n) == q_factorial_by_convolution(n)
    assert q_multinomial(4, (2, 2)) == QPolynomial([1, 1, 2, 1, 1])
    assert sum(q_multinomial(3, (1, 1, 1)).coeffs) == 6
    with pytest.raises(ValueError):
        q_multinomial(3, (1, 1))


@given(st.lists(st.integers(0, 4), max_size=4))
def test_q_multinomial_times_factorials_is_the_factorial(parts):
    """Memoised on the sorted parts: any order, zeros included, gives the
    same quotient of [n]_q!."""
    n = sum(parts)
    product = q_multinomial(n, parts)
    for p in parts:
        product = product * q_factorial(p)
    assert product == q_factorial(n)
    assert q_multinomial(n, parts[::-1]) == q_multinomial(n, parts)


def test_q_binomial_pascal():
    """[n, k] = [n-1, k-1] + q^k [n-1, k] for 1 <= k <= n-1, n <= 8: each
    side reads other memo entries, so the closed form is checked against
    the recurrence."""
    def binomial(n, k):
        return q_multinomial(n, (k, n - k))

    for n in range(2, 9):
        for k in range(1, n):
            assert binomial(n, k) == binomial(n - 1, k - 1) + binomial(n - 1, k).shift(k)


def test_q_multinomial_is_the_q_pascal_product():
    """Every size tuple of at most three parts with n <= 12, zero parts
    and every order included (560 tuples), against the product of
    q-binomials built by the q-Pascal rule."""
    count = 0
    for k in range(4):
        for parts in itertools.product(range(13), repeat=k):
            n = sum(parts)
            if n <= 12:
                assert q_multinomial(n, parts) == q_multinomial_by_pascal(parts), parts
                count += 1
    assert count == 560


def test_closed_form_memos_hold_canonical_coefficient_tuples():
    """For every partition of n <= 12 (272 shapes), the hook-form memo
    holds a tuple that opens with exactly b(shape) zeros and ends in a
    nonzero coefficient, and the q-multinomial memo of the shape's parts,
    ascending, a tuple that ends in a nonzero coefficient; each public
    reader's polynomial stores that very tuple."""
    shapes = [shape for n in range(13) for shape in partitions_of(n)]
    assert len(shapes) == 272
    for shape in shapes:
        hook = _hook_syt_gf(shape)
        b = b_statistic(shape)
        assert type(hook) is tuple and hook[:b] == (0,) * b and hook[b] and hook[-1], shape
        assert hook_syt_gf(shape).coeffs is hook, shape
        parts = shape[::-1]
        multinomial = _q_multinomial(parts)
        assert type(multinomial) is tuple and multinomial[-1], shape
        assert q_multinomial(sum(shape), parts).coeffs is multinomial, shape


def test_hook_syt_gf_matches_enumeration():
    from fakedegrees.tableaux import syt_maj_gf

    for n in range(0, 7):
        for shape in partitions_of(n):
            assert hook_syt_gf(shape) == syt_maj_gf(shape), shape


def test_hook_syt_gf_matches_long_division():
    """All 915 partitions of size <= 16."""
    shapes = [shape for n in range(17) for shape in partitions_of(n)]
    assert len(shapes) == 915
    for shape in shapes:
        assert hook_syt_gf(shape) == hook_syt_gf_by_long_division(shape), shape


def test_hook_syt_gf_needs_a_partition():
    for shape in ((1, 2), (2, 0)):
        with pytest.raises(ValueError, match="partition parts must be"):
            hook_syt_gf(shape)


def test_a_float_or_bool_twin_of_a_memoised_closed_form_is_refused():
    """The closed forms read their input on every call, so a twin that
    hashes as a memoised key is refused as it would be in a fresh
    process."""
    assert hook_syt_gf((2, 1)) == QPolynomial([0, 1, 1])
    assert hook_syt_gf((1, 1)) == QPolynomial([0, 1])
    for shape in ((2.0, 1), [2, 1.0], (True, True)):
        with pytest.raises(ValueError, match="partition parts must be ints"):
            hook_syt_gf(shape)
    assert q_multinomial(3, [1, 2]) == QPolynomial([1, 1, 1])
    assert q_multinomial(2, [1, 1]) == QPolynomial([1, 1])
    for n, parts in ((3, [1.0, 2]), (3.0, [1, 2]), (2, [True, True]), (2, [True, 1])):
        with pytest.raises(ValueError, match="requires an int n"):
            q_multinomial(n, parts)
    with pytest.raises(ValueError, match="requires n >= 0"):
        q_multinomial(1, [2, -1])


# Each route memo's public reader: the memo, the reader, a shape, the
# shape given with lists, and a float or bool twin of the shape.
ROUTE_MEMO_TWINS = {
    "tuple-float": (_maj_gf_by_last_cell, tuple_maj_gf, ((2,),), [[2]], ((2.0,),)),
    "tuple-bool": (_maj_gf_by_last_cell, tuple_maj_gf, ((1, 1),), [[1, 1]], ((True, True),)),
    "restricted-float": (
        _maj_gf_by_last_cell, tuple_maj_gf_restricted, ((2,), ()), [[2], []], ((2.0,), ())
    ),
    "sdt-float": (_by_last_domino, sdt_maj_gf, (2,), [2], (2.0,)),
}


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
@pytest.mark.parametrize("case", ROUTE_MEMO_TWINS)
def test_a_float_or_bool_twin_of_a_memoised_route_shape_is_refused(case, warm):
    """The route memos' public readers check their shape on every call, so
    a twin that hashes as a memoised shape is refused whether or not its
    int twin was read first, and a shape given with lists reads its tuple
    form."""
    memo, reader, shape, listed, twin = ROUTE_MEMO_TWINS[case]
    memo.cache_clear()
    if warm:
        assert reader(shape) and memo.cache_info().currsize
    with pytest.raises(ValueError, match="partition parts must be ints"):
        reader(twin)
    assert reader(listed) == reader(shape)


def test_hook_syt_gf_reads_a_list_shape():
    for shape in ([2, 1], [3, 1, 1], []):
        assert hook_syt_gf(shape) == hook_syt_gf(tuple(shape)), shape
    with pytest.raises(ValueError, match="partition parts must be"):
        hook_syt_gf([1, 2])


@st.composite
def exact_factor_multisets(draw):
    """Numerator exponents b, and denominators a each matched to a distinct
    numerator with a | b, so that the quotient is a polynomial."""
    numerators = draw(st.lists(st.integers(1, 12), max_size=8))
    denominators = [
        draw(st.sampled_from([a for a in range(1, b + 1) if b % a == 0]))
        for b in numerators
        if draw(st.booleans())
    ]
    return numerators, denominators


@given(exact_factor_multisets())
def test_binomial_product_is_the_quotient_of_q_integers(case):
    """Since 1 - q^a = (1 - q) [a]_q, the kernel agrees with products and
    long divisions by q_int, and its list ends in a nonzero coefficient."""
    numerators, denominators = case
    expected = ONE
    for b in numerators:
        expected = expected * q_int(b) * QPolynomial([1, -1])
    for a in denominators:
        expected = expected.exact_div(q_int(a) * QPolynomial([1, -1]))
    cs = _binomial_product(numerators, denominators)
    assert tuple(cs) == expected.coeffs


def test_binomial_product_raises_on_an_inexact_quotient():
    def binomial(a):
        return ONE - QPolynomial.monomial(a)

    assert _binomial_product([], []) == [1]
    for numerators, a in (((2,), 3), ((1,), 2), ((2, 3), 4)):
        with pytest.raises(InexactDivisionError) as err:
            _binomial_product(numerators, [a])
        dividend = ONE
        for b in numerators:
            dividend = dividend * binomial(b)
        assert (err.value.num, err.value.den) == (dividend, binomial(a))
