"""Exact-arithmetic verification of binomial-sum identities,
integer-valued polynomials, and congruences.

The package works over arbitrary-precision integers and rationals --
there is no floating point anywhere.  It decides each polynomial
identity on the deg+1 integer values that fix the polynomial,
integer-valuedness by the binomial-basis criterion on their forward
differences, and congruences by exact divisibility.
"""

__version__ = "0.1.0"
