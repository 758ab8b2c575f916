"""Fake degree polynomials of classical Weyl groups and wreath products.

Computes the graded multiplicities of irreducible representations in the
coinvariant algebra for G(d,1,n), types B/C, and type D, by independent
routes (closed q-series, tuple-tableau enumeration, domino-tableau
enumeration) that are cross-validated exhaustively at small rank.
"""

from .fakedeg import (
    DEFAULT_ROUTE,
    ROUTES,
    Representation,
    bc_rep,
    d_rep,
    fake_degree,
    fake_degree_bc,
    fake_degree_d,
    fake_degree_wreath,
    poincare_bc,
    poincare_d,
    poincare_wreath,
    special_partner_bc,
    wreath_rep,
)
from .qpoly import QPolynomial

__all__ = [
    "DEFAULT_ROUTE",
    "QPolynomial",
    "ROUTES",
    "Representation",
    "bc_rep",
    "d_rep",
    "fake_degree",
    "fake_degree_bc",
    "fake_degree_d",
    "fake_degree_wreath",
    "poincare_bc",
    "poincare_d",
    "poincare_wreath",
    "special_partner_bc",
    "wreath_rep",
]
