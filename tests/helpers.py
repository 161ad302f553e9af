"""Small constructors and reference values shared by the tests."""

import math
from fractions import Fraction


def weight_from_coords(datum, coords):
    """The weight of ``datum`` with plain (possibly half-integer) coordinates."""
    doubled = []
    for c in coords:
        d = Fraction(c) * 2
        if d.denominator != 1:
            raise ValueError(f"coordinate {c} is not a half-integer")
        doubled.append(int(d))
    return datum.weight(doubled)


def weyl_group_order(datum):
    """|W|, the product of the degrees e + 1 over the exponents e."""
    return math.prod(e + 1 for e in datum.exponents)
