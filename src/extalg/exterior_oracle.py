"""Graded decomposition of exterior algebras at tiny rank, plus reference formulas.

The graded character of Lambda(M) for a module M with weight system
``{mu: mult}`` is the product over weight lines of ``(1 + t e^mu)**mult``.
:func:`graded_exterior_character` keeps it packed by Kronecker substitution
(Harvey, J. Symbolic Comput. 44, 2009): a weight is one mixed-radix int and
its t-polynomial one int with a fixed bit slot per degree, so each factor is
one pass of int additions over a dict.  :func:`graded_decompose` checks that
the character is Weyl-invariant and reads every graded multiplicity
polynomial ``P(V_lam, Lambda M, t)`` off the Weyl character formula,
m_lam = sum_w sgn(w) chi[lam + rho - w rho] (Humphreys, Introduction to Lie
Algebras and Representation Theory, Section 24), as sums of packed ints.  The
signed shifts rho - w rho are read off the Weyl orbit of rho, which lists each
Weyl element once because rho is regular; W acts by signed permutations, so
no entry of a shift exceeds 2 max |rho_i|, the pad of the packed layout.  The
closed reference formulas these are checked against live in
:func:`reference_polynomials`.
"""

from dataclasses import dataclass
from itertools import repeat
from operator import mul, sub
from typing import NamedTuple

from .core import PolyT, ResourceCapError
from .orders import two_rho_minus_delta
from .weyl_oracle import freudenthal

__all__ = [
    "GradedCharacter",
    "PackedLayout",
    "graded_exterior_character",
    "graded_decompose",
    "weyl_alternation",
    "reference_polynomials",
    "DEFAULT_DIM_CAP",
]

DEFAULT_DIM_CAP = 24


def weyl_alternation(datum):
    """The pairs ``(rho - w rho, sgn w)`` over the Weyl group, in doubled coordinates.

    rho is regular, so :meth:`RootDatum.regular_orbit2` at shift 0 lists each
    point w rho once, with det(w) = sgn w.  W acts by signed permutations, so
    no entry of a shift exceeds 2 max |rho_i| in absolute value
    (:func:`graded_exterior_character` pads its layout by that bound).
    Sorted by shift.
    """
    rho2 = datum.rho.coords2
    pairs = []
    datum.regular_orbit2(rho2, datum.zero.coords2,
                         lambda v, lam2, det: pairs.append((tuple(map(sub, rho2, v)), det)))
    return tuple(sorted(pairs))


class PackedLayout(NamedTuple):
    """Kronecker substitution of a graded character.

    Support weights have every doubled coordinate in [-reach, reach], and
    keys cover the wider interval [-bound, bound], bound = reach + pad, so
    that a support weight translated by at most ``pad`` on each axis still
    packs: the weight x packs to ``sum_i (x_i + bound) * radix**i``.  The
    interval is the same on every axis, so it is closed under the Weyl group
    (signed permutations of the coordinates in every family here).  A
    t-polynomial packs to ``sum_k c_k << (k * slot)``.
    """

    dim: int
    reach: int
    pad: int
    slot: int

    @property
    def bound(self):
        return self.reach + self.pad

    @property
    def radix(self):
        return 2 * self.bound + 1

    @property
    def places(self):
        return tuple(self.radix ** i for i in range(self.dim))

    @property
    def origin(self):
        """The key of the zero weight."""
        return self.bound * sum(self.places)

    def shift(self, x2):
        """The amount a translation by x2 adds to a key (for a translate in the box)."""
        return sum(map(mul, x2, self.places))

    def key(self, x2):
        """Packed key of a vector of doubled coordinates in the box."""
        return self.shift(x2) + self.origin

    def coords2(self, key):
        """The doubled coordinates packed in ``key``."""
        out = []
        for _ in range(self.dim):
            key, d = divmod(key, self.radix)
            out.append(d - self.bound)
        return tuple(out)

    def unpack(self, n):
        """The polynomial packed in ``n`` >= 0."""
        mask = (1 << self.slot) - 1
        out = {}
        k = 0
        while n:
            if n & mask:
                out[k] = n & mask
            n >>= self.slot
            k += 1
        return PolyT(out)


@dataclass(frozen=True)
class GradedCharacter:
    """A graded character packed by ``layout``.

    ``table`` maps the packed key of every support weight to its packed
    t-polynomial, whose t^k coefficient counts that weight in degree k.
    """

    family: str
    rank: int
    total_dim: int
    layout: PackedLayout
    table: dict


def graded_exterior_character(datum, module_mult, cap=DEFAULT_DIM_CAP):
    """Exact graded character of the exterior algebra over a weight system, packed.

    ``module_mult`` maps Weight -> multiplicity (e.g. ``freudenthal(...).mult``).
    """
    d = sum(module_mult.values())
    if d > cap:
        raise ResourceCapError(f"module dimension {d} exceeds cap {cap}")
    # the support lies in the box of the sums of the module's weights, and
    # graded_decompose looks up support weights translated by rho - w rho,
    # whose entries are at most 2 max |rho_i| (W acts by signed permutations)
    reach = max(sum(m * abs(w.coords2[i]) for w, m in module_mult.items())
                for i in range(datum.dim))
    rho2 = datum.rho.coords2
    # every coefficient is below 2**d (at most binom(d, k)), and an alternation
    # sum adds at most |W|/2 of them, so d + bit_length(|W|) bits never carry
    # (d + bit_length(d) would not do once |W| > d); |W| = |W rho|
    layout = PackedLayout(datum.dim, reach, 2 * max(map(abs, rho2)),
                          d + datum.orbit_size(rho2).bit_length())
    slot = layout.slot
    table = {layout.origin: 1}
    # lines ordered by their last nonzero coordinate: every prefix then spans
    # as few axes as it can, which keeps the intermediate supports small
    lines = sorted((w.coords2, m) for w, m in module_mult.items())
    lines.sort(key=lambda line: max((i for i, c in enumerate(line[0]) if c), default=-1))
    for w2, mult in lines:
        dk = layout.shift(w2)
        for _ in range(mult):
            # times (1 + t e^w)
            new = table.copy()
            get = new.get
            for k, p in table.items():
                new[k + dk] = get(k + dk, 0) + (p << slot)
            table = new
    return GradedCharacter(datum.family, datum.rank, d, layout, table)


def graded_decompose(datum, gc):
    """Decompose a packed graded character into irreducible multiplicity polynomials.

    The character must be Weyl-invariant: every point of the orbit of each
    dominant support weight carries that weight's packed polynomial, and the
    orbits cover the support exactly.  Every coefficient must lie in
    [0, 2**total_dim), as in any exterior algebra of a module of that
    dimension, so that no alternation sum carries between slots.  The
    multiplicity polynomial of V_lam, lam dominant, is then
    sum_w sgn(w) chi[lam + rho - w rho]; the positive and the negative terms
    are summed apart, on packed ints, and only the two sums are unpacked.

    Raises ArithmeticError if the character is not Weyl-invariant, has a
    coefficient out of range, or gives a negative multiplicity; either way
    the input was not a genuine character.
    """
    layout, table = gc.layout, gc.table
    # the empty module's one coefficient, 1, is not below 2**0
    span = (1 << max(gc.total_dim, 1)) - 1
    allowed = sum(span << (k * layout.slot) for k in range(gc.total_dim + 1))
    places, origin = layout.places, layout.origin
    # each pass takes an unseen support weight, checks the whole orbit of its
    # dominant representative v against v's int and marks it seen, so the
    # orbit sizes add up to the support size exactly when no check fails
    unseen = set(table)
    dominant = []
    while unseen:
        v = datum.chamber_rep2(layout.coords2(unseen.pop()))
        p = table.get(layout.key(v))
        if p is not None and (p < 0 or p & ~allowed):
            raise ArithmeticError(f"coefficient out of range at {datum.weight(v)}")
        for u in datum.orbit2(v):
            k = sum(map(mul, u, places)) + origin
            if table.get(k) != p:
                raise ArithmeticError(f"character is not Weyl-invariant at {datum.weight(u)}")
            unseen.discard(k)
        dominant.append(v)
    plus, minus = [], []
    for s, sign in weyl_alternation(datum):
        (plus if sign > 0 else minus).append(layout.shift(s))
    rho2 = datum.rho.coords2
    dominant.sort(key=lambda x: (datum.dot2(x, rho2), x), reverse=True)
    get = table.get
    out = {}
    for x in dominant:
        k = layout.key(x)
        pos = sum(map(get, [k + s for s in plus], repeat(0)))
        neg = sum(map(get, [k + s for s in minus], repeat(0)))
        if pos == neg:
            continue
        poly = layout.unpack(pos) - layout.unpack(neg)
        if any(c < 0 for c in poly.c.values()):
            raise ArithmeticError(f"negative multiplicity polynomial at {datum.weight(x)}: {poly}")
        out[datum.weight(x)] = poly
    return out


def exterior_decomposition(datum, highest, cap=DEFAULT_DIM_CAP):
    """Convenience: decompose Lambda(V_highest) in one call."""
    module = freudenthal(datum, highest)
    gc = graded_exterior_character(datum, module.mult, cap=cap)
    return graded_decompose(datum, gc)


def reference_polynomials(datum, which, subset=None):
    """Closed reference polynomials for the exterior-algebra checks.

    ``which`` is one of:

    * ``"hks_invariants"``: prod_i (1 + t^(2 e_i + 1)), the invariants of
      Lambda g,
    * ``"bazlov_adjoint"``: the closed graded-multiplicity formula for the
      adjoint representation in Lambda g (a Laurent polynomial in one
      variable),
    * ``"reeder_deltaI"``: the graded multiplicity of V_{2 rho - delta_I}
      in Lambda g; pass the simple-root index subset via ``subset``.
    """
    exps = datum.exponents
    n = datum.rank
    if which == "hks_invariants":
        out = PolyT.one()
        for e in exps:
            out = out * PolyT({0: 1, 2 * e + 1: 1})
        return out
    if which == "bazlov_adjoint":
        out = PolyT({0: 1, -1: 1})
        for e in exps[:-1]:
            out = out * PolyT({2 * e + 1: 1, 0: 1})
        tail = PolyT.zero()
        for e in exps:
            tail = tail + PolyT.t(2 * e)
        return out * tail
    if which == "reeder_deltaI":
        if subset is None:
            raise ValueError("reeder_deltaI needs the subset of simple-root indices")
        _, c = two_rho_minus_delta(datum, subset)
        k = len(set(subset))
        out = PolyT.t(len(datum.positive_roots) - k)
        out = out * PolyT({0: 1, 1: 1}) ** (n - c)
        out = out * PolyT({0: 1, 2: 1}) ** (k - c)
        out = out * PolyT({0: 1, 3: 1}) ** c
        return out
    raise ValueError(f"unknown reference polynomial {which!r}")
