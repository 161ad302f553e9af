"""Small constructors and reference values shared by the tests."""

import itertools
import math
from fractions import Fraction
from operator import sub

from extalg.exterior_oracle import _unpack
from extalg.rootdata import Weight

# every family at ranks 1-8 (D at 3-8) and G2
DATUM_GRID = ([(f, r) for f in "ABC" for r in range(1, 9)] + [("D", r) for r in range(3, 9)]
              + [("G2", 2)])


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


def weyl_alternation(datum):
    """The pairs ``(rho - w rho, sgn w)`` over the Weyl group, in doubled coordinates.

    rho is regular, so :meth:`RootDatum.regular_orbit2` at shift 0 lists each
    point w rho once, with det(w) = sgn w.  Sorted by shift.
    """
    rho2 = datum.rho.coords2
    pairs = []
    datum.regular_orbit2({rho2: 1}, datum.zero.coords2,
                         lambda v, lam2, det: pairs.append((tuple(map(sub, rho2, v)), det)))
    return tuple(sorted(pairs))


def polynomials(gc):
    """The Weight -> PolyT table of a packed graded character, its B-D orthant
    unfolded over every sign change."""
    signed = gc.family in ("B", "C", "D")
    out = {}
    for x, p in gc.table.items():
        poly = _unpack(p, gc.slot)
        for y in itertools.product(*({c, -c} for c in x)) if signed else [x]:
            out[Weight(gc.family, gc.rank, y)] = poly
    return out
