"""Exhaustive verification suites over all representations at desk scale.

Each suite returns an iterator of JSON-serializable records, each computed
as it is read; a record with "agree" false is a failure, and one that also
carries "error" is an input on which an internal rule (an insertion or flip
step) broke; its "tableau" names the domino tableau being mapped.
Suites are deterministic: records are emitted in a fixed enumeration
order.
"""

from __future__ import annotations

from collections.abc import Iterator
from functools import partial
from itertools import chain

from .bijections import RuleError, map_shape, pair_of
from .fakedeg import (
    ROUTES,
    Representation,
    all_representations,
    check_corollary1_bc,
    check_corollary1_d,
    fake_degree,
    poincare,
    regular_representation_sum,
)
from .qpoly import QPolynomial
from .shapes import (
    format_multipartition,
    lusztig_rho1,
    lusztig_rho2,
    multipartitions_of,
)
from .tableaux import enumerate_tuple_tableaux, maj_tuple


def _record(group, label, routes, agree, palindromic=True, exponents=(), **extra) -> dict:
    """Every record of every suite: routes maps a name to a string, and
    extra fields (an error's) follow the common ones."""
    return {
        "group": group,
        "label": label,
        "routes": routes,
        "agree": agree,
        "exponents": list(exponents),
        "palindromic": palindromic,
        **extra,
    }


def _agreement(group: str, label: str, polys: dict[str, QPolynomial]) -> dict:
    """Whether the polynomials agree.  The exponents are left empty: the
    routes already carry each polynomial, and a Poincaré polynomial has |W|
    of them."""
    first = next(iter(polys.values()))
    return _record(
        group,
        label,
        {name: p.pretty() for name, p in polys.items()},
        all(p == first for p in polys.values()),
        first.is_palindromic(),
    )


def _error_record(group: str, label: str, message: str, exc: RuleError) -> dict:
    """A failing record for an input on which an internal rule broke, with
    the domino tableau being mapped."""
    return _record(
        group, label, {}, False, False,
        error=message,
        tableau=None if exc.tableau is None else exc.tableau.to_json(),
    )


_GROUP_NAMES = {"wreath": "wreath({d},{n})", "bc": "typeBC({n})", "d": "typeD({n})"}


def _group_name(group: str, n: int, d: int = 2) -> str:
    """A record's group, the one spelling of each group's name in a report."""
    return _GROUP_NAMES[group].format(d=d, n=n)


def _ranks(group: str, max_n: int) -> range:
    """The ranks a suite sweeps for a group: type D starts at n = 2, the
    least rank `Representation` takes for it."""
    return range(2 if group == "d" else 0, max_n + 1)


def _label(rep: Representation) -> str:
    """A route record's label; a type-D one names its marker."""
    label = format_multipartition(rep.label)
    return f"{label};c={rep.marker}" if rep.group == "d" else label


def route_record(group: str, label: str, rep: Representation, names=None) -> dict:
    """Compute the named routes of rep (every route of its group by
    default) and record whether they agree."""
    routes = {}
    for name in ROUTES[rep.group] if names is None else names:
        try:
            routes[name] = fake_degree(rep, name)
        except RuleError as exc:
            return _error_record(group, label, f"{name} route: {exc}", exc)
    return _agreement(group, label, routes)


def _route_suite(groups, names, max_n: int) -> Iterator[dict]:
    """The named routes (every route of the group when names is None)
    agree on every representation of each (group, d), rank by rank."""
    return (
        route_record(_group_name(group, n, d), _label(rep), rep, names)
        for group, d in groups
        for n in _ranks(group, max_n)
        for rep in all_representations(group, n, d)
    )


def suite_bijections(max_n: int) -> Iterator[dict]:
    """Certify both maj-preserving bijections shape by shape.

    For each pair shape: every domino tableau maps to a valid tuple
    tableau of that shape with equal major index, images are pairwise
    distinct, and their number equals the number of standard tuple
    tableaux (hence surjectivity).  Each shape is mapped in one walk
    (`map_shape`), and each pair shape's tableaux are listed once for
    both maps."""
    for n in range(0, max_n + 1):
        for pair_shape in multipartitions_of(n, 2):
            label = format_multipartition(pair_shape)
            universe = set(enumerate_tuple_tableaux(pair_shape))
            for kind, rho in (("even", lusztig_rho1), ("odd", lusztig_rho2)):
                group = f"bijection-{kind}({n})"
                images, majs = [], []

                def keep(maj, cells):
                    images.append(pair_of(cells))
                    majs.append(maj)

                try:
                    map_shape(rho(pair_shape), keep)
                except RuleError as exc:
                    yield _error_record(group, label, str(exc), exc)
                    continue
                distinct = set(images)
                ok = (
                    all(maj_tuple(z) == m for z, m in zip(images, majs))
                    and len(distinct) == len(images)
                    and distinct == universe
                )
                counts = {"tableaux": str(len(images)), "targets": str(len(universe))}
                yield _record(group, label, counts, ok, exponents=sorted(majs))


def suite_poincare(max_n: int) -> Iterator[dict]:
    """Regular-representation identity: sum of dim * fake degree equals the
    Poincaré polynomial, for the wreath products with d = 2 and 3, types
    B/C and D."""
    return (
        _agreement(
            _group_name(group, n, d),
            "regular",
            {
                "sum": regular_representation_sum(group, n, d),
                "poincare": poincare(group, n, d),
            },
        )
        for group, d in (("wreath", 2), ("wreath", 3), ("bc", 2), ("d", 2))
        for n in _ranks(group, max_n)
    )


def suite_cor1(max_n: int) -> Iterator[dict]:
    """Exponent containment against the special partner (B/C), and the
    two-part relaxation (type D)."""
    return (
        _record(
            _group_name(group, n),
            format_multipartition(r["label"]),
            {"special": format_multipartition(r["special"])},
            r["ok"],
        )
        for group, check in (("bc", check_corollary1_bc), ("d", check_corollary1_d))
        for n in _ranks(group, max_n)
        for r in check(n)
    )


# name -> function of max_n.  A route suite is its (group, d) list and the
# routes it compares (None: every route of the group): thm1 and thm2 every
# wreath (d <= 3) and B/C route, thm4 the type-D tuple route against the
# domino-restricted one, thm5 against the shifted single sum.
SUITES = {
    "thm1": partial(_route_suite, (("wreath", 1), ("wreath", 2), ("wreath", 3)), None),
    "thm2": partial(_route_suite, (("bc", 2),), None),
    "thm4": partial(_route_suite, (("d", 2),), ("tuple", "domino")),
    "thm5": partial(_route_suite, (("d", 2),), ("tuple", "shifted")),
    "bijections": suite_bijections,
    "poincare": suite_poincare,
    "cor1": suite_cor1,
}


def run_suite(name: str, max_n: int) -> Iterator[dict]:
    """The named suite's records, or every suite's for "all", as an iterator."""
    if name == "all":
        return chain.from_iterable(suite(max_n) for suite in SUITES.values())
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}")
    return SUITES[name](max_n)
