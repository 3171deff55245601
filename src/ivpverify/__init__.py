"""Exact-arithmetic verification of binomial-sum identities,
integer-valued polynomials, and congruences.

The package builds every object symbolically over arbitrary-precision
integers and rationals -- there is no floating point anywhere -- and
checks identities coefficient by coefficient, integer-valuedness via
the binomial-basis criterion, and congruences by exact divisibility.
"""

__version__ = "0.1.0"
