"""Graded decomposition of exterior algebras at tiny rank.

The graded character of Lambda(M) for a module M with weight system
``{mu: mult}`` is the product over weight lines of ``(1 + t e^mu)**mult``.
Its t-polynomials are packed by Kronecker substitution (Harvey, J. Symbolic
Comput. 44, 2009), one int with a fixed bit slot per degree, so a product
step is int arithmetic.  In B, C and D the Weyl group is the signed
permutations or, in D, its subgroup of even sign changes (Humphreys,
Introduction to Lie Algebras and Representation Theory, Section 12.1); the
weights of g and of V_theta_s are invariant under every single sign change,
so :func:`graded_exterior_character` keeps only the orthant of weights with
every doubled coordinate >= 0 and chi(x) = table[|x|].  While it builds, it
packs each weight too, one bit field per coordinate, so a product by a
weight line is one int add per stored weight, and it decodes the keys to
coordinate tuples once, at the end.
:func:`graded_decompose` checks that the character is Weyl-invariant and
reads every graded multiplicity polynomial ``P(V_lam, Lambda M, t)`` off
Brauer's rule: the character is sum_v p_v M_v over its dominant weights v,
M_v the orbit sum, and M_v = sum_lam N[v][lam] chi_lam, so m_lam =
sum_v p_v N[v][lam], summed on packed ints.  The rows N[v], the reductions
of W v at rho, are :func:`weyl_oracle.orbit_sum_row`, memoised and shared
with the zero-weight column.  The closed formulas these are checked
against live on the combinatorial path, in ``genexp``.
"""

from collections import Counter
from math import comb, factorial

from .core import DEFAULT_CELL_CAP, PolyT, Record, ResourceCapError
from .weyl_oracle import freudenthal, orbit_sum_row

__all__ = [
    "GradedCharacter",
    "graded_exterior_character",
    "graded_decompose",
    "DEFAULT_DIM_CAP",
]

DEFAULT_DIM_CAP = 24


class GradedCharacter(Record):
    """A graded character with t-polynomials packed ``slot`` bits per degree.

    ``table`` maps a support weight's doubled coordinates to its packed
    t-polynomial, whose t^k coefficient counts that weight in degree k.  In
    B, C and D it holds only the weights with every coordinate >= 0, and the
    character is invariant under sign changes; in A and G2 it holds them all.
    """

    __slots__ = ("family", "rank", "total_dim", "slot", "table")


def _signed(datum):
    return datum.family in ("B", "C", "D")


def _unpack(n, slot):
    """The polynomial packed in ``n`` >= 0."""
    mask = (1 << slot) - 1
    out = {}
    k = 0
    while n:
        if n & mask:
            out[k] = n & mask
        n >>= slot
        k += 1
    return PolyT(out)


def graded_exterior_character(datum, module_mult, dim_cap=DEFAULT_DIM_CAP,
                              stored_cap=DEFAULT_CELL_CAP):
    """Exact graded character of the exterior algebra over a weight system, packed.

    ``module_mult`` maps Weight -> multiplicity (e.g. ``freudenthal(...).mult``).
    The weight lines are grouped by |u| in B-D (by u in A and G2); in B-D a
    group must hold all 2**k sign images of |u|, k its nonzero entries, with
    one multiplicity, or ArithmeticError is raised.  Each group unfolds the
    stored weights on its axes, multiplies by its lines and keeps the
    products that are >= 0 on those axes.

    While it builds, the table keys a weight x by one packed int, sum_i
    (x_i + bound) << (i * bits), with bound the sum over the lines of their
    largest |coordinate|, plus 1: no partial sum leaves (-bound, bound), so
    every field stays in [0, 2**bits).  A product by a line is then one int
    add per weight, and a sign change or a sign test reads one field by shift
    and mask.  The keys are decoded to coordinate tuples once, at the end, in
    the table's order.  ``dim_cap`` bounds the module dimension, the number
    of weight lines, and ``stored_cap`` the weights the table holds,
    counted after each unfold and each product step, so that a blow-up is a
    ResourceCapError, not a MemoryError.
    """
    d = sum(module_mult.values())
    if d > dim_cap:
        raise ResourceCapError(f"module dimension {d} exceeds cap {dim_cap}")
    # every coefficient is below 2**d (at most binom(d, k)); N[v][lam] nets
    # the terms sgn(w) chi(lam + rho - w rho) that fall in the orbit of v, so
    # either sign's part of m_lam = sum_v p_v N[v][lam] adds at most |W|/2 of
    # them, and d + bit_length(|W|) bits never carry (d + bit_length(d)
    # would not do once |W| > d); |W| = |W rho|
    slot = d + datum.orbit_size(datum.rho.coords2).bit_length()
    signed = _signed(datum)
    zero = datum.zero.coords2
    bound = 1 + sum(m * max(map(abs, w.coords2)) for w, m in module_mult.items())
    bits = (2 * bound).bit_length()
    mask = (1 << bits) - 1
    shifts = [i * bits for i in range(len(zero))]
    groups = {}
    for w, m in module_mult.items():
        if w.coords2 != zero:
            groups.setdefault(tuple(map(abs, w.coords2)) if signed else w.coords2, []).append(
                (sum(c << s for c, s in zip(w.coords2, shifts)), m))

    def stored(table):
        if len(table) > stored_cap:
            raise ResourceCapError(f"exterior character stores more than {stored_cap} weights")

    # the zero weight's lines give (1 + t)**m0 in one step
    m0 = module_mult.get(datum.zero, 0)
    table = {sum(bound << s for s in shifts): sum(comb(m0, k) << (k * slot)
                                                 for k in range(m0 + 1))}
    # the groups with the most axes go first, which keeps the unfolded tables small
    for u in sorted(groups, key=lambda u: (-sum(map(bool, u)), u)):
        lines = groups[u]
        axes = [i for i, c in enumerate(u) if c] if signed else []
        if len(lines) != 1 << len(axes) or len({m for _, m in lines}) != 1:
            raise ArithmeticError(f"the weights of |x| = {list(u)} are not closed under "
                                  "sign changes with one multiplicity")
        # half the lines, m times each, move axis i by +u_i: an image below that stays < 0
        reach = lines[0][1] * len(lines) // 2
        for i in axes:
            s, top = shifts[i], bound + reach * u[i]
            # field f = x_i + bound goes to bound - x_i
            table.update({k - ((f - bound) << (s + 1)): p for k, p in table.items()
                          if bound < (f := (k >> s) & mask) <= top})
        stored(table)
        for step, m in lines:
            for _ in range(m):
                # times (1 + t e^w)
                new = table.copy()
                get = new.get
                for k, p in table.items():
                    y = k + step
                    new[y] = get(y, 0) + (p << slot)
                table = new
                stored(table)
        for i in axes:
            s = shifts[i]
            table = {k: p for k, p in table.items() if (k >> s) & mask >= bound}
    table = {tuple(((k >> s) & mask) - bound for s in shifts): p for k, p in table.items()}
    return GradedCharacter(datum.family, datum.rank, d, slot, table)


def _stored_orbit_size(datum, v):
    """The number of stored weights in the Weyl orbit of the stored dominant ``v``."""
    if not _signed(datum):
        return datum.orbit_size(v)
    # the distinct permutations of |v|
    size = factorial(len(v))
    for m in Counter(v).values():
        size //= factorial(m)
    return size


def graded_decompose(datum, gc):
    """Decompose a packed graded character into irreducible multiplicity polynomials.

    The character must be Weyl-invariant: every stored x carries the packed
    polynomial of ``chamber_rep2(x)``, and the stored orbit sizes of those
    representatives add up to the stored support (in B-D every stored
    coordinate must be >= 0, and an orbit stores the distinct permutations of
    |v|).  Every coefficient must lie in [0, 2**total_dim), as in any exterior
    algebra of a module of that dimension, so that no reduced sum carries
    between slots.  The character is then sum_v p_v M_v over its dominant
    weights v (in D also the twin of a stored v with its last entry negated),
    and the multiplicity polynomial of V_lam is sum_v p_v N[v][lam], N[v] the
    row :func:`weyl_oracle.orbit_sum_row`.  Under u = w^-1(lam + rho) - rho
    these are the terms of the Weyl character formula sum_w sgn(w)
    chi[lam + rho - w rho] (Humphreys, Section 24) that can be nonzero.  The
    positive and the negative terms are summed apart, on packed ints, read at
    the dominant weights of the support, and only the two sums are unpacked.

    Raises ArithmeticError if the character is not Weyl-invariant, has a
    coefficient out of range, or gives a negative multiplicity; either way
    the input was not a genuine character.
    """
    slot, table = gc.slot, gc.table
    signed = _signed(datum)
    # the empty module's one coefficient, 1, is not below 2**0
    span = (1 << max(gc.total_dim, 1)) - 1
    allowed = sum(span << (k * slot) for k in range(gc.total_dim + 1))
    dominant = []
    stored = 0
    for x, p in table.items():
        if signed and min(x) < 0:
            raise ArithmeticError(f"stored weight {datum.weight(x)} has a negative coordinate")
        v = datum.chamber_rep2(x)
        if table.get(v) != p:
            raise ArithmeticError(f"character is not Weyl-invariant at {datum.weight(x)}")
        if v == x:
            if p < 0 or p & ~allowed:
                raise ArithmeticError(f"coefficient out of range at {datum.weight(v)}")
            stored += _stored_orbit_size(datum, v)
            dominant.append((v, p))
            if datum.family == "D" and v[-1]:
                dominant.append((v[:-1] + (-v[-1],), p))
    # every stored x lies in the orbit of a stored representative, so the
    # support is their union exactly when the sizes add up
    if stored != len(table):
        raise ArithmeticError("character support is not a union of Weyl orbits")
    plus, minus = {}, {}
    for v, p in dominant:
        for lam, n in orbit_sum_row(datum, v).items():
            if n > 0:
                plus[lam] = plus.get(lam, 0) + n * p
            else:
                minus[lam] = minus.get(lam, 0) - n * p
    rho2 = datum.rho.coords2
    out = {}
    for x, _ in sorted(dominant, key=lambda vp: (datum.dot2(vp[0], rho2), vp[0]), reverse=True):
        plus_sum, minus_sum = plus.get(x, 0), minus.get(x, 0)
        if plus_sum == minus_sum:
            continue
        poly = _unpack(plus_sum, slot) - _unpack(minus_sum, slot)
        if any(c < 0 for c in poly.c.values()):
            raise ArithmeticError(f"negative multiplicity polynomial at {datum.weight(x)}: {poly}")
        out[datum.weight(x)] = poly
    return out


def exterior_decomposition(datum, highest, dim_cap=DEFAULT_DIM_CAP,
                           stored_cap=DEFAULT_CELL_CAP):
    """Convenience: decompose Lambda(V_highest) in one call."""
    module = freudenthal(datum, highest)
    gc = graded_exterior_character(datum, module.mult, dim_cap=dim_cap, stored_cap=stored_cap)
    return graded_decompose(datum, gc)
