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

from .shapes import b_statistic, check_partition, check_size, hooks


class Value:
    """Base of the immutable value classes.  A subclass names its fields
    in ``__slots__`` and sets each once in its ``__init__``, through the
    slot's own setter ``Cls.field.__set__``, bound once at import to a
    module-level name (``_set_field``), since this class's ``__setattr__``
    refuses every name.  A value then refuses assignment and deletion,
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
    (no trailing zero coefficients, zero polynomial == empty tuple).  A
    tuple already in that form is stored as it is, neither copied nor
    stripped; anything else is copied and its trailing zeros dropped.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        if coeffs.__class__ is not tuple or coeffs and coeffs[-1] == 0:
            cs = list(coeffs)
            while cs and cs[-1] == 0:
                cs.pop()
            coeffs = tuple(cs)
        _set_coeffs(self, coeffs)

    @classmethod
    def monomial(cls, k: int) -> "QPolynomial":
        """q^k; k is read through `check_size` (ValueError)."""
        check_size(k, "QPolynomial.monomial")
        return cls((0,) * k + (1,))

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


_set_coeffs = QPolynomial.coeffs.__set__


class InexactDivisionError(ArithmeticError):
    """A polynomial quotient that should be exact left a remainder."""

    def __init__(self, num: QPolynomial, den: QPolynomial):
        super().__init__(f"inexact division: ({num.pretty()}) / ({den.pretty()})")
        self.num = num
        self.den = den


def add_raised(acc: list[int], total: Sequence[int], below: Sequence[int], s: int) -> None:
    """Add total - below + q^s below into the coefficient list acc, in
    place, growing acc only as far as a nonzero term reaches: a sum whose
    part below gains the factor q^s.  With total and below free of
    trailing zeros, and below a part of total (coefficientwise at most
    it, never negative), the grown acc ends in a nonzero coefficient."""
    m = len(below)
    grow = (max(len(total), s + m) if m else len(total)) - len(acc)
    if grow > 0:
        acc.extend([0] * grow)
    acc[: len(total)] = map(add, acc, total)
    acc[:m] = map(sub, acc, below)
    acc[s : s + m] = map(add, acc[s : s + m], below)


def running_sums(removals, rank, precedes):
    """The running-sum memo of one diagram kind, over its removals table
    (shape -> (smaller shape, move) pairs, a function read unmemoised),
    its rank (the largest label n of a shape's standard tableaux, read
    first on every miss) and its descent rule.  Nothing here checks a
    shape: a memo keyed by a shape answers a float or bool twin of a
    stored key, so each kind's public reader checks its shape on every
    call, and the package's own callers, which hold checked shapes, read
    the memo directly.

    The memo maps a shape to (move, coefficients) pairs, one per move of
    the table in its order, whose coefficients sum q^maj over the standard
    tableaux of the shape with n in that move or an earlier one.  The last
    entry is the whole sum; a shape of rank 0 has one tableau, keyed None,
    and any other shape with no move has no entry.  No entry ends in a
    zero coefficient (`add_raised`), so each is the coefficient tuple of a
    polynomial in canonical form, the empty tuple when no tableau of the
    shape puts n in that move or an earlier one.

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
    """Product of the polynomials, through `_product` on their coefficient
    tuples.  Factors equal to 1 are dropped, and a single remaining factor
    is returned as it is."""
    factors = [p for p in polys if p.coeffs != (1,)]
    if len(factors) < 2:
        return factors[0] if factors else ONE
    return QPolynomial(_product([p.coeffs for p in factors]))


def _product(coeffs: list[tuple[int, ...]]) -> tuple[int, ...]:
    """The coefficient tuple of the product of the coefficient tuples,
    each in canonical form, by Kronecker substitution: each factor is
    packed at q = 2^(64m) as one integer (`_pack`), the integers are
    multiplied, and the product's coefficients are read back (`_unpack`).
    The product of canonical factors is canonical (its top coefficient is
    the product of theirs), so its tuple is stored by `QPolynomial` as it
    is.  The formula route calls it on its memoised tuples directly.

    No coefficient of the product exceeds bound, the product of the
    factors' coefficient sums, or of their absolute coefficient sums when
    some coefficient is negative; m is the least word count whose digits
    hold bound (`_digit_words`), natural digits unsigned and signed ones
    balanced, so no digit carries into the next.  Factors equal to (1,)
    are dropped, a zero factor gives (), and a single factor is returned
    as it is.
    """
    coeffs = [cs for cs in coeffs if cs != (1,)]
    if len(coeffs) < 2:
        return coeffs[0] if coeffs else (1,)
    if not all(coeffs):
        return ()
    signed = min(map(min, coeffs)) < 0
    bound = 1
    for cs in coeffs:
        bound *= sum(map(abs, cs)) if signed else sum(cs)
    m = _digit_words(bound, signed)
    value = 1
    for cs in coeffs:
        value *= _pack(cs, m, signed)
    return tuple(_unpack(value, m, sum(map(len, coeffs)) - len(coeffs) + 1, signed))


def weighted_sum(terms: Iterable[tuple[int, Sequence[int]]]) -> QPolynomial:
    """Sum of w * cs over the (int w, coefficient list cs) terms: each cs
    packed as one integer, scaled by w and added, and the total unpacked
    once.  Terms with w = 0 are skipped.  The digits are read unsigned
    first, sized by bound, the sum of w * sum(cs), which holds every
    coefficient of the sum and of each term when none is negative.  A
    negative weight, or a negative coefficient, which the unsigned packing
    reports by OverflowError, makes the sum read balanced digits instead,
    sized by the sum of |w| times the absolute coefficient sums, so the
    result is exact whatever the signs."""
    terms = [(w, cs) for w, cs in terms if w]
    signed = min((w for w, _ in terms), default=0) < 0
    while True:
        if signed:
            bound = sum(abs(w) * sum(map(abs, cs)) for w, cs in terms)
        else:
            bound = sum(w * sum(cs) for w, cs in terms)
        m = _digit_words(max(bound, 1), signed)
        value = 0
        try:
            for w, cs in terms:
                value += w * _pack(cs, m, signed)
        except OverflowError:  # a negative coefficient, packed unsigned
            if signed:
                raise
            signed = True
            continue
        length = max((len(cs) for _, cs in terms), default=0)
        return QPolynomial(_unpack(value, m, length, signed))


# The word coder of `product` and `weighted_sum`: a list of integers read
# as the digits of one integer in base 2^(64m), least significant first,
# each digit natural and below 2^(64m) (unsigned), or in
# [-2^(64m-1), 2^(64m-1)) (signed, balanced).  A balanced digit is
# written and read as the natural digit it is plus 2^(64m-1): the packed
# integer is the natural one less `_offset`.


def _digit_words(bound: int, signed: bool) -> int:
    """The least word count m whose digits hold every integer of absolute
    value at most bound: bound < 2^(64m), or bound < 2^(64m-1) when
    signed."""
    return -(-(bound.bit_length() + signed) // 64)


def _offset(m: int, length: int) -> int:
    """The integer whose length m-word digits are each 2^(64m-1)."""
    return int.from_bytes((bytes(8 * m - 1) + b"\x80") * length, "little")


def _pack(cs: Sequence[int], m: int, signed: bool) -> int:
    """The integer whose m-word digits are cs: cs, raised by 2^(64m-1)
    when signed, is written into an array of words, word j of every digit
    by one extended-slice assignment, and read as one integer, less
    `_offset` when signed; bytes are swapped on a big-endian host, so the
    integer is always read little-endian.  The top word is written
    unmasked, so a coefficient outside its digit's range raises
    OverflowError."""
    if signed:
        half = 1 << (64 * m - 1)
        cs = [c + half for c in cs]
    if m == 1:
        words = array("Q", cs)
    else:
        words = array("Q", bytes(8 * m * len(cs)))
        for j in range(m - 1):
            words[j::m] = array("Q", [c >> (64 * j) & _WORD_MASK for c in cs])
        words[m - 1 :: m] = array("Q", [c >> (64 * (m - 1)) for c in cs])
    if _BIG_ENDIAN:
        words.byteswap()
    value = int.from_bytes(words, "little")
    return value - _offset(m, len(cs)) if signed else value


def _unpack(value: int, m: int, length: int, signed: bool) -> list[int]:
    """The first length m-word digits of value, read through a memoryview
    of its little-endian bytes (of value plus `_offset` when signed),
    adding word j shifted by 64j when m > 1, and lowered by 2^(64m-1) when
    signed."""
    if signed:
        value += _offset(m, length)
    words = memoryview(value.to_bytes(8 * m * length, "little")).cast("Q")
    if _BIG_ENDIAN:
        words = array("Q", words)
        words.byteswap()
    out = words[::m].tolist()
    for j in range(1, m):
        out = [c + (w << (64 * j)) for c, w in zip(out, words[j::m])]
    if signed:
        half = 1 << (64 * m - 1)
        out = [c - half for c in out]
    return out


def q_int(n: int) -> QPolynomial:
    """The q-analogue 1 + q + ... + q^(n-1); by convention [0]_q = 1.  n
    is read through `check_size` (ValueError)."""
    check_size(n, "q_int")
    if n == 0:
        return ONE
    return QPolynomial([1] * n)


def q_factorial(n: int) -> QPolynomial:
    """Product [n]_q [n-1]_q ... [1]_q, with the empty product equal to 1.
    n is read through `check_size` (ValueError)."""
    check_size(n, "q_factorial")
    return product(map(q_int, range(1, n + 1)))


def q_multinomial(n: int, parts: Sequence[int]) -> QPolynomial:
    """q-multinomial coefficient [n]_q! / prod [part]_q!; memoised on the
    sorted nonzero parts, since their order does not matter.  n and each
    part are read through `check_size` on every call (ValueError), so a
    float or bool twin of a memoised key is refused."""
    check_size(n, "q_multinomial")
    for p in parts:
        check_size(p, "q_multinomial part")
    if sum(parts) != n:
        raise ValueError(f"parts {list(parts)} do not sum to {n}")
    return QPolynomial(_q_multinomial(tuple(sorted(p for p in parts if p))))


@lru_cache(maxsize=None)
def _q_multinomial(parts: tuple[int, ...]) -> tuple[int, ...]:
    """The coefficient tuple of the q-multinomial of the ascending nonzero
    parts, as the binomial multiset [n]_q! / prod_j [p_j]_q!: 1 - q^i has
    multiplicity 1 less the number of parts at least i, written one run
    of equal multiplicities per part."""
    mult = [1] * (sum(parts) + 1)
    below = 0
    for left, p in enumerate(parts):
        mult[below + 1 : p + 1] = [left - len(parts) + 1] * (p - below)
        below = p
    return tuple(_binomial_product(*_surviving(mult)))


def hook_syt_gf(shape) -> QPolynomial:
    """Major-index generating function over SYT of a shape, hook form.

    Computes q^b(shape) [r]_q! / prod over cells [hook]_q, which equals the
    enumeration-side sum of q^maj over standard Young tableaux.  The r
    factors 1 - q cancel, leaving binomials.  Memoised per shape; the
    shape is read through `check_partition` on every call (ValueError), so
    a list reads its tuple form and a float or bool twin of a memoised
    shape is refused.
    """
    return QPolynomial(_hook_syt_gf(check_partition(shape)))


@lru_cache(maxsize=None)
def _hook_syt_gf(shape) -> tuple[int, ...]:
    """The coefficient tuple of the hook form, its b(shape) leading zeros
    written in: 1 - q^i has multiplicity 1 less the number of cells of
    hook length i."""
    mult = [1] * (sum(shape) + 1)
    for h in hooks(shape):
        mult[h] -= 1
    return (0,) * b_statistic(shape) + tuple(_binomial_product(*_surviving(mult)))


def _surviving(mult: list[int]) -> tuple[list[int], list[int]]:
    """The numerator and the denominator exponents of a binomial multiset
    given as multiplicities over 0..n (entry 0 ignored): each exponent a
    repeated by its multiplicity, ascending."""
    numerators: list[int] = []
    denominators: list[int] = []
    for a in range(1, len(mult)):
        m = mult[a]
        if m > 0:
            numerators += [a] * m
        elif m < 0:
            denominators += [a] * -m
    return numerators, denominators


def _binomial_product(numerators: Iterable[int], denominators: Iterable[int]) -> list[int]:
    """The coefficient list of prod (1 - q^b) / prod (1 - q^a) over the
    numerator exponents b and denominator exponents a, one O(len) pass
    per factor: every product first, p[k] -= p[k - b] walking down, then
    every quotient, q[k] += q[k - a] walking up, exact iff its top a
    coefficients close to zero; if they do not, InexactDivisionError
    names the dividend (multiplied back).  An exact quotient ends in a
    nonzero coefficient."""
    cs = [1]
    for b in numerators:
        cs += [0] * b
        cs[b:] = map(sub, cs[b:], cs)
    for a in denominators:
        for r in range(a):
            cs[r::a] = accumulate(cs[r::a])
        if any(cs[-a:]):
            cs[a:] = map(sub, cs[a:], cs)
            raise InexactDivisionError(QPolynomial(cs), ONE - QPolynomial.monomial(a))
        del cs[-a:]
    return cs
