"""Fake degree polynomials by independent routes, plus global checks.

Three families of groups are covered: wreath products G(d,1,n), the
hyperoctahedral groups (types B/C, the d = 2 case), and type D.  Each fake
degree is computable by several independent routes which must agree
exactly; the verification module sweeps those agreements exhaustively.
"""

from __future__ import annotations

from functools import lru_cache
from operator import add, le

from .bijections import map_shape
from .dominoes import _sdt_maj_gf
from .qpoly import (
    QPolynomial,
    Value,
    _hook_syt_gf,
    _product,
    _q_multinomial,
    product,
    q_int,
    weighted_sum,
)
from .shapes import (
    Multipartition,
    b_multi,
    check_multipartition,
    check_size,
    from_beta_set,
    lusztig_rho1,
    lusztig_rho2,
    multipartitions_of,
    nonempty_components,
    symbol_of,
    total_size,
)
from .tableaux import _tuple_maj_gf, _tuple_maj_gf_restricted


class Representation(Value):
    """An irreducible representation label.

    group is a key of ROUTES.  For wreath, d is the cyclic order and label
    has exactly d components, each a partition given as any sequence and
    stored as a tuple.  For bc, d is 2 and label is an ordered
    pair.  For type D (n >= 2), label is stored in canonical order
    (lexicographically larger component first) and marker distinguishes
    the two representations attached to an equal-component pair.  Every
    other label takes marker 1.  This is the one place a label is refused
    (ValueError; a label or component that is not a sequence, such as an
    int or None, by `check_multipartition`, as the shape readers refuse
    it); the labels of `all_representations`, valid as built, are stored
    without it (`_trusted`).  Instances are
    immutable, and equal and hashable by their fields (group, d, label,
    marker).
    """

    __slots__ = ("group", "d", "label", "marker")

    def __init__(self, group: str, d: int, label: Multipartition, marker: int = 1):
        _check_group(group, d)
        label = check_multipartition(label)
        if group == "wreath" and len(label) != d:
            raise ValueError(f"label {label} does not have {d} components")
        if group != "wreath" and len(label) != 2:
            raise ValueError(f"types B/C/D take an ordered pair of partitions, got {label}")
        if group == "d":
            lam1, lam2 = label
            if sum(lam1) + sum(lam2) < 2:
                raise ValueError("type D needs n >= 2")
            if lam1 < lam2:
                raise ValueError("type D label must be in canonical order")
            if type(marker) is not int or marker not in (1, 2):
                raise ValueError("type D marker must be 1 or 2")
            if marker != 1 and lam1 != lam2:
                raise ValueError("marker 2 needs equal components")
        elif type(marker) is not int or marker != 1:
            raise ValueError(f"only type D takes a marker, got marker {marker}")
        _set_group(self, group)
        _set_d(self, d)
        _set_label(self, label)
        _set_marker(self, marker)

    @property
    def n(self) -> int:
        return total_size(self.label)


_set_group, _set_d, _set_label, _set_marker = (
    Representation.group.__set__,
    Representation.d.__set__,
    Representation.label.__set__,
    Representation.marker.__set__,
)


def _trusted(group: str, d: int, label: Multipartition, marker: int = 1) -> Representation:
    """The representation of a label the caller built valid, as
    `Representation` would store it (a tuple of partition tuples, a type-D
    pair in canonical order), its fields set without a check."""
    rep = object.__new__(Representation)
    _set_group(rep, group)
    _set_d(rep, d)
    _set_label(rep, label)
    _set_marker(rep, marker)
    return rep


def _check_group(group: str, d: int) -> None:
    """The one rule for a (group, d): group is a key of ROUTES, d is an
    int, a wreath product G(d,1,n) has d >= 1, and types B/C and D have
    d = 2 (ValueError otherwise)."""
    if group not in ROUTES:
        raise ValueError(f"unknown group {group!r}")
    if type(d) is not int:  # a bool is not an order
        raise ValueError(f"d must be an int, got d = {d!r}")
    if group == "wreath" and d < 1:
        raise ValueError(f"wreath products G(d,1,n) need d >= 1, got d = {d}")
    if group != "wreath" and d != 2:
        raise ValueError(f"types B/C/D take d = 2, got d = {d}")


def wreath_rep(label: Multipartition, d: int) -> Representation:
    return Representation("wreath", d, label)


def bc_rep(pair: Multipartition) -> Representation:
    return Representation("bc", 2, pair)


def representation(
    group: str, label: Multipartition, d: int = 2, marker: int = 1
) -> Representation:
    """The representation of a label as given, a type-D pair put in
    canonical order first, its components turned into tuples and compared
    once; `Representation` refuses what is not a label (ValueError),
    a type-D label that is not a pair of sequences included."""
    if group == "d":
        try:
            lam1, lam2 = map(tuple, label)
        except (TypeError, ValueError):
            pass  # not a pair of sequences
        else:
            label = (lam2, lam1) if lam1 < lam2 else (lam1, lam2)
    return Representation(group, d, label, marker)


def d_rep(pair: Multipartition, marker: int = 1) -> Representation:
    """Canonicalize an unordered pair for type D; an unequal pair takes
    marker 1, whatever marker is given.  The components are turned into
    tuples once, so a list equals its tuple form; `Representation`
    refuses what is not a label (ValueError), a pair of sequences or
    not."""
    try:
        lam1, lam2 = map(tuple, pair)
    except (TypeError, ValueError):
        pass  # not a pair of sequences
    else:
        if lam1 != lam2:
            marker = 1
            if lam1 < lam2:
                lam1, lam2 = lam2, lam1
        pair = (lam1, lam2)
    return Representation("d", 2, pair, marker)


# ---------------------------------------------------------------------------
# Routes.  Each takes a Representation of its group.  They share only
# plumbing (the maj histogram; `_scaled`, the one writer of q^b p(q^d)),
# never a computation another route exists to check.  A label was checked
# by `Representation`, so the routes read the memos through their
# private readers, which check nothing and hand back the memo's
# coefficient tuples; `_scaled` builds each call's one QPolynomial.


def _scaled(terms, d: int = 2) -> QPolynomial:
    """Sum of q^b p(q^d) over the (coefficient tuple p, int b) terms in
    one list: the first term written into zeros, the list exactly as long
    as its top exponent, by one slice assignment (the whole write of the
    common one-term call); each later term added into its slice, the list
    grown as needed.  When no p ends in a zero and the terms do not cancel
    at the top, `QPolynomial` stores the list's tuple as it is; else it
    drops the trailing zeros."""
    cs, b = terms[0]
    out = [0] * (b + d * len(cs) - d + 1)
    out[b::d] = cs
    for cs, b in terms[1:]:
        stop = b + d * len(cs)
        if stop - d >= len(out):
            out += [0] * (stop - d + 1 - len(out))
        out[b:stop:d] = map(add, out[b:stop:d], cs)
    return QPolynomial(tuple(out))


def _formula(rep: Representation) -> QPolynomial:
    """The q-multinomial of the component sizes times the hook-length form
    of each component's SYT generating function, then the label's own
    b-shift and q -> q^d."""
    label = rep.label
    inner = _formula_product(tuple(sorted(nonempty_components(label))))
    return _scaled([(inner, b_multi(label))], rep.d)


@lru_cache(maxsize=None)
def _formula_product(components: Multipartition) -> tuple[int, ...]:
    """The coefficients of the formula route's product, memoised per
    multiset of nonempty components: it is symmetric in the components,
    an empty one contributes a factor of 1 to both the q-multinomial and
    the hook forms, and d enters only through `_scaled`.  The components
    come from a `Representation`, which checked them, so the memoised
    closed forms are read directly, not through their checking public
    readers, and their coefficient tuples multiplied as they are
    (`qpoly._product`), with no polynomial built."""
    sizes = tuple(sorted(sum(c) for c in components))
    return _product([_q_multinomial(sizes), *map(_hook_syt_gf, components)])


def _enumeration(rep: Representation) -> QPolynomial:
    """Sum of q^maj over standard tuple tableaux."""
    label = rep.label
    return _scaled([(_tuple_maj_gf(label), b_multi(label))], rep.d)


def _domino_even(rep: Representation) -> QPolynomial:
    """Sum of q^maj over standard domino tableaux of the size-2n shape."""
    return _scaled([(_sdt_maj_gf(lusztig_rho1(rep.label)), b_multi(rep.label))])


def _domino_odd(rep: Representation) -> QPolynomial:
    """Sum of q^maj over standard domino tableaux of the size-2n+1 shape."""
    return _scaled([(_sdt_maj_gf(lusztig_rho2(rep.label)), b_multi(rep.label))])


def _ordering_terms(rep: Representation, restricted_gf) -> list[tuple[tuple[int, ...], int]]:
    """One (p, b) term per ordering of a type-D pair (one when the
    components are equal): the coefficients of its restricted generating
    function and its b-shift, the size of its second component."""
    label = lam1, lam2 = rep.label
    terms = [(restricted_gf(label), sum(lam2))]
    if lam1 != lam2:
        terms.append((restricted_gf((lam2, lam1)), sum(lam1)))
    return terms


def _restricted_sdt_gf(pair: Multipartition) -> tuple[int, ...]:
    """The coefficients of the sum of q^maj over SDTs of the even
    associated shape whose image pair under the maj-preserving bijection
    has the largest label in the first component: one walk over the shape
    (`map_shape`), keeping the maj of each tableau whose last keyed cell
    lies in the first filling."""
    majs: list[int] = []

    def keep(maj: int, cells) -> None:
        if cells[-1][0] == 1:
            majs.append(maj)

    map_shape(lusztig_rho1(pair), keep)
    return QPolynomial.from_exponents(majs).coeffs


def _d_tuple(rep: Representation) -> QPolynomial:
    """Restricted tuple generating functions of both orderings."""
    return _scaled(_ordering_terms(rep, _tuple_maj_gf_restricted))


def _d_domino(rep: Representation) -> QPolynomial:
    """The same restriction, transported through the maj-preserving
    bijection."""
    return _scaled(_ordering_terms(rep, _restricted_sdt_gf))


def _d_shifted(rep: Representation) -> QPolynomial:
    """A single sum over tuple tableaux of the canonical ordering,
    subtracting n from the exponent whenever the largest label falls in the
    second filling; halved when the components are equal.  The sum over
    the second filling is the total less the first; both are written
    raised by q^n, which is then taken off."""
    label = lam1, lam2 = rep.label
    n, b = rep.n, sum(lam2)
    first = _tuple_maj_gf_restricted(label)
    second = QPolynomial(_tuple_maj_gf(label)) - QPolynomial(first)
    total = _scaled([(first, b + n), (second.coeffs, b)]).shift(-n)
    return total.exact_div(QPolynomial([2])) if lam1 == lam2 else total


# Every route of every group, stored once.  The library entry points, the
# CLI and the verification suites all read this table.
ROUTES = {
    "wreath": {"formula": _formula, "enumeration": _enumeration},
    "bc": {"domino_even": _domino_even, "domino_odd": _domino_odd, "tuple": _enumeration},
    "d": {"tuple": _d_tuple, "domino": _d_domino, "shifted": _d_shifted},
}
DEFAULT_ROUTE = {"wreath": "formula", "bc": "tuple", "d": "tuple"}


def _route(rep: Representation, route: str | None, refusal: str, group: str | None = None):
    """The named route of rep's group (its default route for None), the
    one check of `fake_degree` and `fake_degree_d`: ValueError, the
    refusal followed by what was given, when rep is not a Representation
    (of the group, when one is named), or naming the route when its group
    has none of that name."""
    if rep.__class__ is not Representation or group is not None and rep.group != group:
        raise ValueError(f"{refusal}, got {rep!r}")
    name = DEFAULT_ROUTE[rep.group] if route is None else route
    fn = ROUTES[rep.group].get(name)
    if fn is None:
        raise ValueError(f"unknown {rep.group} route {name!r}")
    return fn


def fake_degree(rep: Representation, route: str | None = None) -> QPolynomial:
    """Fake degree of rep by a named route of its group, or by the group's
    default route.  The marker of a type-D label does not affect it."""
    return _route(rep, route, "fake_degree needs a Representation")(rep)


def fake_degree_wreath(
    mp: Multipartition, d: int, route: str = DEFAULT_ROUTE["wreath"]
) -> QPolynomial:
    """Fake degree of the G(d,1,n) irreducible labelled by a d-multipartition."""
    return fake_degree(wreath_rep(mp, d), route)


def fake_degree_bc(pair: Multipartition, route: str = DEFAULT_ROUTE["bc"]) -> QPolynomial:
    """Fake degree of the hyperoctahedral irreducible of an ordered pair."""
    return fake_degree(bc_rep(pair), route)


def fake_degree_d(rep: Representation, route: str = DEFAULT_ROUTE["d"]) -> QPolynomial:
    """Fake degree of a type-D irreducible."""
    return _route(rep, route, "fake_degree_d needs a type-D representation", "d")(rep)


# ---------------------------------------------------------------------------
# Poincaré polynomials and the regular-representation identity


def poincare_wreath(d: int, n: int) -> QPolynomial:
    """Hilbert series of the coinvariant algebra: prod over i of [d*i]_q."""
    _check_group("wreath", d)
    check_size(n, "poincare_wreath")
    return product(q_int(d * i) for i in range(1, n + 1))


def poincare_bc(n: int) -> QPolynomial:
    return poincare_wreath(2, n)


def poincare_d(n: int) -> QPolynomial:
    """[n]_q times prod over i < n of [2i]_q (degrees 2, 4, ..., 2n-2, n)."""
    check_size(n, "poincare_d", 2)
    return product([q_int(n), *(q_int(2 * i) for i in range(1, n))])


def poincare(group: str, n: int, d: int = 2) -> QPolynomial:
    """Poincaré polynomial of the named group of rank n; d is the cyclic
    order of a wreath product, and must be 2 for types B/C and D
    (ValueError otherwise)."""
    _check_group(group, d)
    return poincare_d(n) if group == "d" else poincare_wreath(d, n)


def all_representations(group: str, n: int, d: int = 2) -> list[Representation]:
    """Every irreducible representation label of the group of rank n (n >=
    2 for type D; ValueError otherwise).  `multipartitions_of` builds each
    label as `Representation` stores it, and only the type-D pairs in
    canonical order are kept, so the labels are stored unchecked
    (`_trusted`)."""
    _check_group(group, d)
    check_size(n, "all_representations", 2 if group == "d" else 0)
    if group == "d":
        return [
            _trusted(group, d, pair, marker)
            for pair in multipartitions_of(n, 2)
            if pair[0] >= pair[1]
            for marker in ((1, 2) if pair[0] == pair[1] else (1,))
        ]
    return [_trusted(group, d, mp) for mp in multipartitions_of(n, d)]


def regular_representation_sum(group: str, n: int, d: int = 2) -> QPolynomial:
    """Sum of dim(V) * f_V over all irreducibles; equals the Poincaré
    polynomial.  Each fake degree is packed as one integer and the sum is
    unpacked once (`qpoly.weighted_sum`); the sum is exact even when a
    route gives a negative coefficient."""
    fakes = [fake_degree(rep).coeffs for rep in all_representations(group, n, d)]
    return weighted_sum([(sum(cs), cs) for cs in fakes])


# ---------------------------------------------------------------------------
# Special partners and exponent containment


def special_partner_bc(pair: Multipartition) -> Multipartition:
    """The pair labelling the special representation in the family of the
    given pair: sort all symbol entries increasingly and deal them
    alternately, odd positions to the long row."""
    long_row, short_row = symbol_of(pair)
    merged = sorted(long_row + short_row)
    return (from_beta_set(merged[0::2]), from_beta_set(merged[1::2]))


def embeds_with_shift(a: QPolynomial, b: QPolynomial) -> bool:
    """Whether some uniform shift s gives a[k] <= b[k+s] for every k: the
    exponent multiset of a, shifted, lies inside that of b (both with
    nonnegative coefficients).  Only the shifts that carry the lowest and
    highest exponents of a into the range of b can work: s from
    low(b) - low(a) to deg(b) - deg(a)."""
    if not a:
        return True
    if not b:
        return False
    ca, cb, low = a.coeffs, b.coeffs, a.low_degree
    block = ca[low:]
    return any(
        all(map(le, block, cb[low + s :]))
        for s in range(b.low_degree - low, len(cb) - len(ca) + 1)
    )


def is_shifted_submultiset(a: list[int], b: list[int]) -> bool:
    """Whether some uniform integer shift embeds multiset a into b.  The
    exponents must be nonnegative, as every fake degree's are."""
    return embeds_with_shift(QPolynomial.from_exponents(a), QPolynomial.from_exponents(b))


def check_corollary1_bc(n: int) -> list[dict]:
    """Exponent containment against the special partner, types B/C.

    Returns one record per ordered pair of total size n; "ok" is the
    shifted-submultiset verdict.  Every partner is a pair of size n, so
    each fake degree is computed once, in a local dict, from the labels
    of `all_representations`, which need no check.
    """
    fakes = {rep.label: fake_degree(rep) for rep in all_representations("bc", n)}
    out = []
    for pair, f in fakes.items():
        mu = special_partner_bc(pair)
        out.append(
            {
                "label": pair,
                "special": mu,
                "exponents": f.exponent_multiset(),
                "ok": embeds_with_shift(f, fakes[mu]),
            }
        )
    return out


def check_corollary1_d(n: int) -> list[dict]:
    """Two-part exponent containment in type D.

    The exponents of a type-D fake degree split naturally into the two
    ordering contributions of the tuple route (a single part for an
    equal-component pair); each part must embed, with its own shift, into
    the exponents of the special partner's type-D fake degree, computed
    once per partner, in a local dict.
    """
    partners: dict[Multipartition, QPolynomial] = {}
    out = []
    for rep in all_representations("d", n):
        if rep.marker == 2:
            continue  # same polynomial as marker 1
        mu = d_rep(special_partner_bc(rep.label))
        f_mu = partners.get(mu.label)
        if f_mu is None:
            f_mu = partners[mu.label] = fake_degree_d(mu)
        parts = [_scaled([term]) for term in _ordering_terms(rep, _tuple_maj_gf_restricted)]
        out.append(
            {
                "label": rep.label,
                "special": mu.label,
                "parts": [part.exponent_multiset() for part in parts],
                "ok": all(embeds_with_shift(part, f_mu) for part in parts),
            }
        )
    return out
