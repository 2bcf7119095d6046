"""Evaluate the library's polynomials at a point.  An ``MPoly`` has no
product but by a scalar and no substitution, so the tests that check a
marked series against scalar series read its terms at points, here."""

from math import prod

from cudlab.series import MPoly, Series


def evaluate(poly, point):
    """The sum over monomials of coeff * prod value^exp, each marker's value
    taken from the mapping ``point``; a scalar has no markers and stays."""
    if not isinstance(poly, MPoly):
        return poly
    return sum(
        coeff * prod(point[name] ** exp for name, exp in mono) for mono, coeff in poly.items()
    )


def evaluate_series(ser: Series, point) -> Series:
    """The series with each term evaluated at ``point``."""
    return Series.from_egf(evaluate(term, point) for term in ser.terms)
