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
from itertools import chain

from .bijections import RuleError, map_shape, pair_of
from .fakedeg import (
    ROUTES,
    Representation,
    all_representations,
    bc_rep,
    check_corollary1_bc,
    check_corollary1_d,
    fake_degree,
    poincare,
    regular_representation_sum,
    wreath_rep,
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


def suite_thm1(max_n: int) -> Iterator[dict]:
    """Every wreath-product route agrees, d <= 3."""
    return (
        route_record(f"wreath({d},{n})", format_multipartition(mp), wreath_rep(mp, d))
        for d in (1, 2, 3)
        for n in range(0, max_n + 1)
        for mp in multipartitions_of(n, d)
    )


def suite_thm2(max_n: int) -> Iterator[dict]:
    """Every B/C route agrees."""
    return (
        route_record(f"typeBC({n})", format_multipartition(pair), bc_rep(pair))
        for n in range(0, max_n + 1)
        for pair in multipartitions_of(n, 2)
    )


def _d_suite(max_n: int, names: tuple[str, str]) -> Iterator[dict]:
    return (
        route_record(f"typeD({n})", f"{format_multipartition(r.label)};c={r.marker}", r, names)
        for n in range(2, max_n + 1)
        for r in all_representations("d", n)
    )


def suite_thm4(max_n: int) -> Iterator[dict]:
    """Type D: tuple route vs domino-restricted route."""
    return _d_suite(max_n, ("tuple", "domino"))


def suite_thm5(max_n: int) -> Iterator[dict]:
    """Type D: tuple route vs the shifted single-sum formula."""
    return _d_suite(max_n, ("tuple", "shifted"))


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
    Poincaré polynomial, for wreath(2,n), wreath(3,n), types B/C and D."""
    cases = [(f"wreath({d},{n})", "wreath", n, d) for d in (2, 3) for n in range(max_n + 1)]
    cases += [(f"typeBC({n})", "bc", n, 2) for n in range(max_n + 1)]
    cases += [(f"typeD({n})", "d", n, 2) for n in range(2, max_n + 1)]
    return (
        _agreement(
            name,
            "regular",
            {
                "sum": regular_representation_sum(group, n, d),
                "poincare": poincare(group, n, d),
            },
        )
        for name, group, n, d in cases
    )


def suite_cor1(max_n: int) -> Iterator[dict]:
    """Exponent containment against the special partner (B/C), and the
    two-part relaxation (type D)."""
    cases = [(f"typeBC({n})", check_corollary1_bc, n) for n in range(max_n + 1)]
    cases += [(f"typeD({n})", check_corollary1_d, n) for n in range(2, max_n + 1)]
    return (
        _record(
            name,
            format_multipartition(r["label"]),
            {"special": format_multipartition(r["special"])},
            r["ok"],
        )
        for name, check, n in cases
        for r in check(n)
    )


SUITES = {
    "thm1": suite_thm1,
    "thm2": suite_thm2,
    "thm4": suite_thm4,
    "thm5": suite_thm5,
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
