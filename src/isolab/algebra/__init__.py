"""Exact arithmetic kernel: rationals, sparse polynomials, rational functions."""

from .scalars import binom, binomials, to_rational
from .multipoly import (MultiPoly, grade, parse_poly, poly_gcd, prove_zero,
                        truncated_product)
from .ratfunc import RatFunc, parse_fraction, parse_ratfunc
from .factored import FactoredFrac

__all__ = [
    "binom", "binomials", "to_rational",
    "MultiPoly", "grade", "parse_poly", "poly_gcd", "prove_zero",
    "truncated_product", "RatFunc", "parse_fraction",
    "parse_ratfunc",
    "FactoredFrac",
]
