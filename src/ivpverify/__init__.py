"""Exact-arithmetic verification of binomial-sum identities,
integer-valued polynomials, and congruences.

Every verdict runs on arbitrary-precision integers -- there is no
floating point anywhere, and `fractions.Fraction` only writes the
witness text of a failing case.  The package decides each polynomial
identity on the deg+1 integer values that fix the polynomial,
integer-valuedness by the binomial-basis criterion on their forward
differences, the rational-value identities by clearing their
denominators, and congruences by exact divisibility.
"""

__version__ = "0.1.0"
