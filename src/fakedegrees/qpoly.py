"""Exact integer polynomial arithmetic in the single variable q.

Everything here works over Z[q] with dense ascending coefficient lists and
Python's arbitrary-precision integers.  The zero polynomial is the empty
coefficient list, so equality is plain list equality.
"""

from __future__ import annotations

import sys
from array import array
from collections import Counter
from collections.abc import Iterable, Sequence
from functools import lru_cache
from itertools import accumulate, zip_longest
from operator import add, attrgetter, sub

from .shapes import b_statistic, check_partition, hooks


class Value:
    """Base of the immutable value classes.  A subclass names its fields
    in ``__slots__`` and sets each once in its ``__init__``, through
    ``object.__setattr__``.  A value then refuses assignment and deletion,
    equals only an instance of its own class with equal fields, hashes as
    its fields (the bare field when there is one), has the repr
    ``Name(field=value, ...)``, and pickles and copies through
    ``__init__``, so an unpickled value is checked again."""

    __slots__ = ()

    def __init_subclass__(cls):
        cls._fields = attrgetter(*cls.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other) -> bool:
        if other.__class__ is self.__class__:
            return self._fields(self) == self._fields(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.__slots__)


class QPolynomial(Value):
    """Univariate polynomial in q with integer coefficients.

    ``coeffs[k]`` is the coefficient of ``q**k``.  Instances are immutable
    values; all operations return new polynomials in canonical form
    (no trailing zero coefficients, zero polynomial == empty tuple).
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    @classmethod
    def monomial(cls, k: int) -> "QPolynomial":
        return cls([0] * k + [1])

    @classmethod
    def from_exponents(cls, exponents: Iterable[int]) -> "QPolynomial":
        """Sum of q^e over the exponents: the histogram of a statistic."""
        counts = Counter(exponents)
        if not counts:
            return cls()
        if min(counts) < 0:
            raise ValueError("exponents must be nonnegative")
        return cls(counts[k] for k in range(max(counts) + 1))

    @property
    def degree(self) -> int:
        """Degree, or -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def low_degree(self) -> int:
        """Smallest exponent with nonzero coefficient, or -1 for zero."""
        for k, c in enumerate(self.coeffs):
            if c != 0:
                return k
        return -1

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def _coefficientwise(self, other, op) -> "QPolynomial":
        """op of each pair of coefficients, the shorter list padded with
        zeros; NotImplemented for a non-polynomial, so Python raises
        TypeError."""
        if not isinstance(other, QPolynomial):
            return NotImplemented
        pairs = zip_longest(self.coeffs, other.coeffs, fillvalue=0)
        return QPolynomial(op(a, b) for a, b in pairs)

    def __add__(self, other: "QPolynomial") -> "QPolynomial":
        return self._coefficientwise(other, add)

    def __sub__(self, other: "QPolynomial") -> "QPolynomial":
        return self._coefficientwise(other, sub)

    def __mul__(self, other: "QPolynomial") -> "QPolynomial":
        if not isinstance(other, QPolynomial):
            return NotImplemented
        return product((self, other))

    def exact_div(self, other: "QPolynomial") -> "QPolynomial":
        """Long division, raising if the quotient is not exact.

        Every quotient arising in the generating-function formulas is
        exact, so a nonzero remainder always signals an arithmetic bug.
        """
        if not other:
            raise ZeroDivisionError("division by the zero polynomial")
        if not self:
            return QPolynomial()
        rem = list(self.coeffs)
        div = other.coeffs
        dn = len(div) - 1
        lead = div[-1]
        qn = len(rem) - 1 - dn
        if qn < 0:
            raise InexactDivisionError(self, other)
        quot = [0] * (qn + 1)
        for k in range(qn, -1, -1):
            c = rem[k + dn]
            if c % lead != 0:
                raise InexactDivisionError(self, other)
            f = c // lead
            quot[k] = f
            if f:
                for j, d in enumerate(div):
                    rem[k + j] -= f * d
        if any(rem):
            raise InexactDivisionError(self, other)
        return QPolynomial(quot)

    def shift(self, s: int) -> "QPolynomial":
        """Multiply by q^s; s may be negative down to the lowest degree."""
        if not self:
            return self
        if s >= 0:
            return QPolynomial((0,) * s + self.coeffs)
        if -s > self.low_degree:
            raise ValueError(f"shift by {s} drops below degree 0")
        return QPolynomial(self.coeffs[-s:])

    def is_palindromic(self) -> bool:
        """Whether the nonzero coefficient block reads the same reversed."""
        if not self:
            return True
        block = self.coeffs[self.low_degree:]
        return block == block[::-1]

    def exponent_multiset(self) -> list[int]:
        """Each exponent repeated by its coefficient; needs coeffs >= 0."""
        out = []
        for k, c in enumerate(self.coeffs):
            if c < 0:
                raise ValueError("exponent multiset needs nonnegative coefficients")
            out.extend([k] * c)
        return out

    def pretty(self) -> str:
        """Render like ``q^3 + q^5 + q^7`` or ``1 - 2*q^2 - q^3`` with
        ascending exponents: a negative term follows " - ", and a
        coefficient of absolute value 1 is written only on q^0."""
        if not self:
            return "0"
        out = ""
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if k == 0:
                term = str(abs(c))
            else:
                var = "q" if k == 1 else f"q^{k}"
                term = var if abs(c) == 1 else f"{abs(c)}*{var}"
            if out:
                out += (" - " if c < 0 else " + ") + term
            else:
                out = "-" + term if c < 0 else term
        return out

    def __repr__(self) -> str:
        return f"QPolynomial({list(self.coeffs)})"

    def __str__(self) -> str:
        return self.pretty()


class InexactDivisionError(ArithmeticError):
    """A polynomial quotient that should be exact left a remainder."""

    def __init__(self, num: QPolynomial, den: QPolynomial):
        super().__init__(f"inexact division: ({num.pretty()}) / ({den.pretty()})")
        self.num = num
        self.den = den


def add_raised(acc: list[int], total: Sequence[int], below: Sequence[int], s: int) -> None:
    """Add total - below + q^s below into the coefficient list acc, in
    place, growing acc as needed: a sum whose part below gains the factor
    q^s."""
    m = len(below)
    grow = max(len(total), s + m) - len(acc)
    if grow > 0:
        acc.extend([0] * grow)
    acc[: len(total)] = map(add, acc, total)
    acc[:m] = map(sub, acc, below)
    acc[s : s + m] = map(add, acc[s : s + m], below)


def running_sums(removals, rank, precedes):
    """The running-sum memo of one diagram kind, over its removals table
    (shape -> (smaller shape, move) pairs, a function read unmemoised),
    its rank (the largest label n of a shape's standard tableaux, read
    first on every miss, so a kind checks its shapes there) and its
    descent rule.

    The memo maps a shape to (move, coefficients) pairs, one per move of
    the table in its order, whose coefficients sum q^maj over the standard
    tableaux of the shape with n in that move or an earlier one.  The last
    entry is the whole sum; a shape of rank 0 has one tableau, keyed None,
    and any other shape with no move has no entry.

    Recursion on the move of n: removing it leaves a tableau of the
    smaller shape, and n-1 is a descent exactly when its move a precedes
    the move b of n, precedes(a, b).  Each kind's table lists its moves so
    that these are a prefix of the smaller shape's entries; with below the
    entry of the last of them, the move adds total - below + q^(n-1) below.
    The memo is process-wide, so each shape is solved once, and every
    shape of rank >= 1 it solves goes through the table: a kind whose
    table keeps a memo of its own passes its `__wrapped__` function,
    leaving that memo alone.  Its entries are tuples, so no caller can
    change them.
    """

    @lru_cache(maxsize=None)
    def memo(shape) -> tuple:
        n = rank(shape)
        if n == 0:
            return ((None, (1,)),)
        out = []
        acc: list[int] = []
        for smaller, move in removals(shape):
            entries = memo(smaller)
            below: tuple[int, ...] = ()
            for prev, coeffs in entries:
                if prev is None or not precedes(prev, move):
                    break
                below = coeffs
            add_raised(acc, entries[-1][1] if entries else (), below, n - 1)
            out.append((move, tuple(acc)))
        return tuple(out)

    return memo


ONE = QPolynomial([1])
_WORD_MASK = (1 << 64) - 1
_BIG_ENDIAN = sys.byteorder == "big"


def product(polys: Iterable[QPolynomial]) -> QPolynomial:
    """Product of the polynomials.  When no coefficient is negative, the
    factors go straight to the Kronecker kernel `_natural_product`.
    Otherwise each factor f with a negative coefficient is split as
    f+ - f-, both with nonnegative coefficients, and folded into the
    running product a+ - a- as (a+ f+ + a- f-) - (a+ f- + a- f+), four
    natural products.  Factors equal to 1 are dropped, a zero factor gives
    zero, and a single factor is returned as it is.
    """
    factors = [p for p in polys if p.coeffs != (1,)]
    if len(factors) < 2:
        return factors[0] if factors else ONE
    coeffs = [p.coeffs for p in factors]
    if not all(coeffs):
        return QPolynomial()
    if min(map(min, coeffs)) >= 0:
        return QPolynomial(_natural_product(coeffs))
    plus = _natural_product([cs for cs in coeffs if min(cs) >= 0])
    minus: list[int] = []
    for cs in coeffs:
        if min(cs) < 0:
            fp = [max(c, 0) for c in cs]
            fm = [max(-c, 0) for c in cs]
            plus, minus = (
                _add(_natural_product([plus, fp]), _natural_product([minus, fm])),
                _add(_natural_product([plus, fm]), _natural_product([minus, fp])),
            )
    return QPolynomial(_add(plus, [-c for c in minus]))


def _add(a: Sequence[int], b: Sequence[int]) -> list[int]:
    return [x + y for x, y in zip_longest(a, b, fillvalue=0)]


def _natural_product(factors: Sequence[Sequence[int]]) -> list[int]:
    """Coefficients of the product of coefficient lists with no negative
    entry, by Kronecker substitution: each factor is packed at
    q = 2^(64m) as one integer (`_pack`), the integers are multiplied, and
    the product's coefficients are read back (`_unpack`).

    No coefficient of the product exceeds bound, the product of the
    factors' coefficient sums, and m is the least word count with
    bound < 2^(64m) (`_digit_words`), so no digit carries into the next.
    """
    bound = 1
    for cs in factors:
        bound *= sum(cs)
    if not bound:
        return []
    m = _digit_words(bound)
    value = 1
    for cs in factors:
        value *= _pack(cs, m)
    return _unpack(value, m, sum(map(len, factors)) - len(factors) + 1)


def weighted_sum(terms: Iterable[tuple[int, Sequence[int]]]) -> QPolynomial:
    """Sum of w * cs over the (int w, coefficient list cs) terms, read off
    one integer (`_natural_sum`) when no weight or coefficient is
    negative.  Otherwise, which the packing of a negative coefficient
    reports, each term is split by sign into a natural part to add and
    one to subtract, two natural sums, so the result is exact whatever
    the signs."""
    terms = list(terms)
    if min((w for w, _ in terms), default=0) >= 0:
        try:
            return QPolynomial(_natural_sum(terms))
        except OverflowError:
            pass
    plus, minus = [], []
    for w, cs in terms:
        fp = [max(c, 0) for c in cs]
        fm = [max(-c, 0) for c in cs]
        if w < 0:
            w, fp, fm = -w, fm, fp
        plus.append((w, fp))
        minus.append((w, fm))
    return QPolynomial(_add(_natural_sum(plus), [-c for c in _natural_sum(minus)]))


def _natural_sum(terms: Sequence[tuple[int, Sequence[int]]]) -> list[int]:
    """Coefficients of the sum of w * cs over terms with no negative
    weight: each cs packed as one integer, scaled by w and added, and the
    total unpacked once.  Terms with w = 0 are skipped.  When no
    coefficient is negative, none of the sum, nor of any term with
    w >= 1, exceeds bound, the sum of w * sum(cs); the packing of a
    negative coefficient raises OverflowError."""
    terms = [(w, cs) for w, cs in terms if w]
    bound = sum(w * sum(cs) for w, cs in terms)
    m = _digit_words(max(bound, 1))
    value = 0
    for w, cs in terms:
        value += w * _pack(cs, m)
    return _unpack(value, m, max((len(cs) for _, cs in terms), default=0))


# The word coder of `_natural_product` and `_natural_sum`: a list of
# natural numbers below 2^(64m) read as the digits of one integer in base
# 2^(64m), least significant first.


def _digit_words(bound: int) -> int:
    """The least word count m with bound < 2^(64m)."""
    return -(-bound.bit_length() // 64)


def _pack(cs: Sequence[int], m: int) -> int:
    """The integer whose m-word digits are cs: cs is written into an array
    of words, word j of every digit by one extended-slice assignment, and
    read as one integer; bytes are swapped on a big-endian host, so the
    integer is always read little-endian.  The top word is written
    unmasked, so a coefficient outside [0, 2^(64m)) raises OverflowError."""
    if m == 1:
        words = array("Q", cs)
    else:
        words = array("Q", bytes(8 * m * len(cs)))
        for j in range(m - 1):
            words[j::m] = array("Q", [c >> (64 * j) & _WORD_MASK for c in cs])
        words[m - 1 :: m] = array("Q", [c >> (64 * (m - 1)) for c in cs])
    if _BIG_ENDIAN:
        words.byteswap()
    return int.from_bytes(words, "little")


def _unpack(value: int, m: int, length: int) -> list[int]:
    """The first length m-word digits of value, read through a memoryview
    of its little-endian bytes, adding word j shifted by 64j when m > 1."""
    words = memoryview(value.to_bytes(8 * m * length, "little")).cast("Q")
    if _BIG_ENDIAN:
        words = array("Q", words)
        words.byteswap()
    out = words[::m].tolist()
    for j in range(1, m):
        out = [c + (w << (64 * j)) for c, w in zip(out, words[j::m])]
    return out


def q_int(n: int) -> QPolynomial:
    """The q-analogue 1 + q + ... + q^(n-1); by convention [0]_q = 1."""
    if n < 0:
        raise ValueError("q_int requires n >= 0")
    if n == 0:
        return ONE
    return QPolynomial([1] * n)


def q_factorial(n: int) -> QPolynomial:
    """Product [n]_q [n-1]_q ... [1]_q, with the empty product equal to 1."""
    if n < 0:
        raise ValueError("q_factorial requires n >= 0")
    return product(map(q_int, range(1, n + 1)))


def q_multinomial(n: int, parts: Sequence[int]) -> QPolynomial:
    """q-multinomial coefficient [n]_q! / prod [part]_q!; memoised on the
    sorted nonzero parts, since their order does not matter."""
    if any(p < 0 for p in parts):
        raise ValueError("q_multinomial parts must be nonnegative")
    if sum(parts) != n:
        raise ValueError(f"parts {list(parts)} do not sum to {n}")
    return _q_multinomial(tuple(sorted(p for p in parts if p)))


@lru_cache(maxsize=None)
def _q_multinomial(parts: tuple[int, ...]) -> QPolynomial:
    factors = Counter(range(1, sum(parts) + 1))
    factors.subtract(i for p in parts for i in range(1, p + 1))
    return _binomial_product(factors)


def hook_syt_gf(shape) -> QPolynomial:
    """Major-index generating function over SYT of a shape, hook form.

    Computes q^b(shape) [r]_q! / prod over cells [hook]_q, which equals the
    enumeration-side sum of q^maj over standard Young tableaux.  The r
    factors 1 - q cancel, leaving binomials.  Memoised per shape; a shape
    given as a list reads its tuple form.
    """
    try:
        return _hook_syt_gf(shape)
    except TypeError:  # a list is unhashable; a memo hit pays nothing for this
        return _hook_syt_gf(check_partition(shape))


@lru_cache(maxsize=None)
def _hook_syt_gf(shape) -> QPolynomial:
    factors = Counter(range(1, sum(check_partition(shape)) + 1))
    factors.subtract(hooks(shape))
    return _binomial_product(factors).shift(b_statistic(shape))


def _binomial_product(factors: Counter[int]) -> QPolynomial:
    """prod (1 - q^a)^m over the exponents a and multiplicities m in factors
    (m < 0 divides), one O(len) pass per factor: every product first,
    p[k] -= p[k - a] walking down, then every quotient, q[k] += q[k - a]
    walking up, exact iff its top a coefficients close to zero; if they do
    not, InexactDivisionError names the dividend (multiplied back)."""
    cs = [1]
    for a in factors.elements():
        cs += [0] * a
        cs[a:] = [x - y for x, y in zip(cs[a:], cs)]
    for a in (-factors).elements():
        for r in range(a):
            cs[r::a] = accumulate(cs[r::a])
        if any(cs[-a:]):
            cs[a:] = [x - y for x, y in zip(cs[a:], cs)]
            raise InexactDivisionError(QPolynomial(cs), ONE - QPolynomial.monomial(a))
        del cs[-a:]
    return QPolynomial(cs)
