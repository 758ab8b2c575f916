"""Acceptance gate: ten checks, one printed pass/fail line each.

Every check is exact integer-polynomial equality; run with -s to see the
lines as they pass.
"""

import pytest

from fakedegrees.bijections import Trace, flip_c, pi_b_prime, pi_c_prime
from fakedegrees.dominoes import enumerate_sdt, maj_domino, sdt_maj_gf
from fakedegrees.fakedeg import (
    ROUTES,
    all_representations,
    check_corollary1_bc,
    check_corollary1_d,
    d_rep,
    fake_degree_bc,
    fake_degree_d,
    fake_degree_wreath,
    poincare_d,
    poincare_wreath,
    regular_representation_sum,
)
from fakedegrees.qpoly import QPolynomial
from fakedegrees.shapes import lusztig_rho1, lusztig_rho2, multipartitions_of
from fakedegrees.tableaux import enumerate_tuple_tableaux, maj_tuple


def report(number, name, ok):
    print(f"ACCEPTANCE {number:2d} [{name}]: {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {number} ({name}) failed"


def test_01_lusztig_map_values():
    ok = (
        lusztig_rho1(((1, 1), (1,))) == (2, 2, 2)
        and lusztig_rho1(((1,), (1, 1))) == (2, 2, 1, 1)
        and lusztig_rho1(((2,), (2,))) == (4, 4)
    )
    report(1, "lusztig map values", ok)


def test_02_sdt_census():
    ts = list(enumerate_sdt((2, 2, 2)))
    ok = len(ts) == 3 and sorted(maj_domino(t) for t in ts) == [1, 2, 3]
    ok = ok and len(list(enumerate_sdt((2, 2, 1, 1)))) == 3
    ok = ok and len(list(enumerate_sdt((4, 4)))) == 6
    report(2, "sdt census", ok)


def test_03_type_d_fake_degrees():
    ok = True
    for route in ROUTES["d"]:
        ok = ok and fake_degree_d(d_rep(((1, 1), (1,))), route) == QPolynomial(
            [0, 0, 0, 1, 1, 1]
        )
        for marker in (1, 2):
            ok = ok and fake_degree_d(d_rep(((2,), (2,)), marker), route) == QPolynomial(
                [0, 0, 1, 0, 1, 0, 1]
            )
    report(3, "type D fake degrees", ok)


def test_04_flip_examples():
    z1 = flip_c((((4,), (6,)), ((1, 3), (2, 5))))
    z2 = flip_c((((1,), (3,), (4,)), ((2,),)))
    ok = z1 == (((3,), (4,)), ((1, 5), (2, 6))) and z2 == (
        ((1,), (2,), (3,)),
        ((4,),),
    )
    report(4, "flip worked examples", ok)


def test_05_wreath_route_agreement():
    ok = True
    for d in (1, 2, 3):
        for n in range(0, 6):
            for mp in multipartitions_of(n, d):
                if fake_degree_wreath(mp, d, "formula") != fake_degree_wreath(
                    mp, d, "enumeration"
                ):
                    ok = False
    report(5, "wreath route agreement", ok)


def test_06_bc_triple_agreement():
    ok = True
    for n in range(0, 6):
        for pair in multipartitions_of(n, 2):
            f = fake_degree_bc(pair, "tuple")
            if (
                fake_degree_bc(pair, "domino_even") != f
                or fake_degree_bc(pair, "domino_odd") != f
            ):
                ok = False
    report(6, "B/C triple agreement", ok)


def test_07_bijection_certification():
    ok = True
    for n in range(0, 6):
        for pair_shape in multipartitions_of(n, 2):
            for rho, prime in (
                (lusztig_rho1, pi_c_prime),
                (lusztig_rho2, pi_b_prime),
            ):
                images = []
                for t in enumerate_sdt(rho(pair_shape)):
                    z = prime(t)
                    if maj_tuple(z) != maj_domino(t):
                        ok = False
                    images.append(z)
                if len(set(images)) != len(images):
                    ok = False  # injectivity
                if sorted(images) != sorted(enumerate_tuple_tableaux(pair_shape)):
                    ok = False  # shape-correctness and surjectivity
    report(7, "bijection certification", ok)


def test_08_type_d_route_agreement():
    ok = True
    for n in range(2, 6):
        for rep in all_representations("d", n):
            f = fake_degree_d(rep, "tuple")
            if fake_degree_d(rep, "domino") != f or fake_degree_d(rep, "shifted") != f:
                ok = False
    report(8, "type D route agreement", ok)


def test_09_regular_representation_identity():
    ok = True
    for n in range(0, 6):
        if regular_representation_sum("wreath", n, 2) != poincare_wreath(2, n):
            ok = False
    for n in range(0, 5):
        if regular_representation_sum("wreath", n, 3) != poincare_wreath(3, n):
            ok = False
    for n in range(2, 6):
        if regular_representation_sum("d", n) != poincare_d(n):
            ok = False
    report(9, "regular representation identity", ok)


def test_10_corollary1_containment():
    ok = True
    for n in range(0, 5):
        if not all(r["ok"] for r in check_corollary1_bc(n)):
            ok = False
    for n in range(2, 5):
        if not all(r["ok"] for r in check_corollary1_d(n)):
            ok = False
    report(10, "exponent containment", ok)
