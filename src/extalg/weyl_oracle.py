"""Brute-force representation-theoretic oracles.

Everything here is deliberately independent of the polytope machinery in
``gpartitions``: weight multiplicities come from the Freudenthal recursion
(from the root data alone), tensor products from the Brauer-Klimyk rho-shift rule, and the
generalized-exponent oracle from the signed Weyl-group sum over the graded
partition function (skipping the terms whose argument leaves the positive
root cone, where the partition function vanishes).  These are the reference
implementations that the combinatorial constructions are checked against.

Brauer-Klimyk sums m_mu(nu) det(w') over the weights nu of V_mu, where w'
carries lam + rho + nu to lam' + rho with lam' dominant.  It does not expand
V_mu's weight system: for each dominant nu of the Freudenthal table it
walks only the points of W nu with lam + rho + w(nu) regular, by
:meth:`RootDatum.regular_orbit2`, the root data's walk that the recurrence
rows share.  It places one coordinate of x = lam + rho + w(nu) at a time and
cuts a branch whose completions all lie on a wall, are fixed by a reflection
and so contribute nothing; the leaves are the regular terms (21,352 of the
51,936 cells of V_rho on B5).  Lusztig's signed sum walks W(lam + rho) on
the same walk at shift 0, where every point is regular, with its own prefix
test cutting the branches that leave the positive root cone.

The same reduction at rho decomposes the orbit sum M_kappa of each dominant
kappa into irreducible characters, sum_lam N[kappa][lam] chi_lam
(:func:`orbit_sum_row`, memoised).  The zero-weight column m_lam(0), for
every dominant lam below a bound, is one unitriangular solve in N, the
inverse of the matrix of the multiplicities m_lam(kappa), and builds no
Freudenthal table; the exterior decomposition reads the same rows, so a
battery that runs both walks each orbit once.  In D, negating the last
coordinate fixes rho and keeps det, so the row of a kappa with a negative
last entry is the row of its twin with every key's last entry negated, and
each twin pair is walked once.
"""

from dataclasses import dataclass
from functools import lru_cache
from operator import add, sub

from .core import DEFAULT_CELL_CAP, PolyT, ResourceCapError
from .orders import enumerate_dominant_below
from .rootdata import Weight, build_root_datum

__all__ = [
    "WeightMultMap",
    "dominant_multiplicities",
    "freudenthal",
    "weyl_dim",
    "klimyk_tensor",
    "orbit_sum_row",
    "zero_weight_column",
    "q_kostant",
    "lusztig_E",
]


@dataclass(frozen=True)
class WeightMultMap:
    """Finite weight system of one irreducible, weights mapped to multiplicities."""

    family: str
    rank: int
    highest: object
    mult: dict  # Weight -> positive int, full Weyl-orbit expansion


_dominant_cache = {}
_orbit_rows = {}


def dominant_multiplicities(datum, lam):
    """Multiplicities of the dominant weights of V_lam, by the Freudenthal recursion.

    Returns a ``{Weight: multiplicity}`` table over the dominant weights
    below ``lam``, in order of height below ``lam``; every other weight of
    V_lam is a Weyl image of one of them with the same multiplicity.  The
    table is memoised and must not be mutated.  Each mu sums over every
    positive root, as in Humphreys, *Introduction to Lie Algebras and
    Representation Theory*, section 22.3.
    """
    datum.require_dominant(lam)
    key = (datum.family, datum.rank, lam.coords2)
    if key in _dominant_cache:
        return _dominant_cache[key]

    doms = enumerate_dominant_below(datum, lam)
    lam2 = lam.coords2
    order = sorted((w.coords2 for w in doms), key=lambda v: datum.height2(
        tuple(a - b for a, b in zip(lam2, v))))
    rho2 = datum.rho.coords2
    shifted = tuple(a + b for a, b in zip(lam2, rho2))
    lam_norm = datum.dot2(shifted, shifted)
    chamber = datum.chamber_rep2
    roots = [(alpha.coords2, datum.dot2(alpha.coords2, alpha.coords2))
             for alpha in datum.positive_roots]
    table = {}
    reps = {}  # the dominant representative of every string point met
    for mu in order:
        if mu == lam2:
            table[mu] = 1
            continue
        acc = 0
        for alpha, norm in roots:
            # the string mu + k alpha, k >= 1, adds m_k (mu + k alpha, alpha)
            # = m_k ((mu, alpha) + k (alpha, alpha)) for as long as m_k > 0
            v = mu
            k = total = weighted = 0
            while True:
                v = tuple(map(add, v, alpha))
                rep = reps.get(v)
                if rep is None:
                    rep = reps[v] = chamber(v)
                m = table.get(rep, 0)
                if m == 0:
                    break
                k += 1
                total += m
                weighted += k * m
            if total:
                acc += total * datum.dot2(mu, alpha) + weighted * norm
        shifted = tuple(a + b for a, b in zip(mu, rho2))
        denom = lam_norm - datum.dot2(shifted, shifted)
        num = 2 * acc
        if denom <= 0 or num % denom:
            raise ArithmeticError(f"Freudenthal recursion failed at {datum.weight(mu)}")
        table[mu] = num // denom
    table = {Weight(datum.family, datum.rank, v): m for v, m in table.items()}
    _dominant_cache[key] = table
    return table


def freudenthal(datum, lam, cap=DEFAULT_CELL_CAP):
    """Full weight system of V_lam with multiplicities (all Weyl images).

    ``cap`` bounds its cells, counted from the orbit sizes of the dominant
    weights before any orbit is listed.
    """
    table = dominant_multiplicities(datum, lam)
    if sum(datum.orbit_size(mu.coords2) for mu in table) > cap:
        raise ResourceCapError(f"weight system of {lam} exceeds cap {cap}")
    full = {}
    for mu, m in table.items():
        for v in datum.orbit2(mu.coords2):
            full[Weight(datum.family, datum.rank, v)] = m
    return WeightMultMap(datum.family, datum.rank, lam, full)


def weyl_dim(datum, lam):
    """Weyl dimension formula, exact integer arithmetic."""
    datum.check_weight(lam)
    shifted = tuple(a + b for a, b in zip(lam.coords2, datum.rho.coords2))
    num = den = 1
    for alpha in datum.positive_roots:
        num *= datum.dot2(shifted, alpha.coords2)
        den *= datum.dot2(datum.rho.coords2, alpha.coords2)
    if num % den:
        raise ArithmeticError("Weyl dimension did not come out integral")
    return num // den


def _klimyk_walk(datum, shifted, table):
    """The signed sum of ``table``'s orbits reduced at ``shifted``, ``{coords2: int}``.

    The walk of the module docstring, :meth:`RootDatum.regular_orbit2`: each
    leaf adds det(w') * m(nu) at lam' = w'(shifted + v) - rho.
    """
    out = {}
    for nu, m in table.items():
        def leaf(v, lam2, det):
            out[lam2] = out.get(lam2, 0) + det * m

        datum.regular_orbit2(nu.coords2, shifted, leaf)
    return out


def klimyk_tensor(datum, lam, mu, cap=DEFAULT_CELL_CAP):
    """Decomposition of V_lam (x) V_mu by the rho-shifted reduction rule.

    ``cap`` bounds the cells of V_mu's weight system, counted from the
    orbit sizes of its dominant weights before :func:`_klimyk_walk`
    walks them.
    """
    datum.require_dominant(lam)
    datum.check_weight(mu)
    table = dominant_multiplicities(datum, mu)
    cells = sum(datum.orbit_size(nu.coords2) for nu in table)
    if cells > cap:
        raise ResourceCapError(f"weight system of {mu} exceeds cap {cap}")
    shifted = tuple(a + b for a, b in zip(lam.coords2, datum.rho.coords2))
    out = _klimyk_walk(datum, shifted, table)
    result = {}
    for v, m in out.items():
        w = Weight(datum.family, datum.rank, v)
        if m < 0:
            raise ArithmeticError(f"negative multiplicity {m} at {w} in Klimyk rule")
        if m:
            result[w] = m
    return result


def orbit_sum_row(datum, kappa2):
    """Row kappa of N, ``{coords2: int}``: M_kappa = sum_lam N[kappa][lam] chi_lam.

    ``kappa2`` is a dominant weight's doubled coordinates, and N[kappa][lam]
    the signed count of the nu in W kappa with nu + rho reducing to lam + rho:
    the row is :func:`_klimyk_walk` of ``{kappa: 1}`` at rho.  Only the
    lam <= kappa with a nonzero count are keys.  The row is memoised and
    must not be mutated.

    In D, rho's last coordinate is 0, so the map sigma that negates the last
    coordinate fixes rho; it normalises W and keeps det, so N[sigma kappa]
    [sigma lam] = N[kappa][lam], and a kappa with a negative last entry reads
    its row off the row of sigma kappa instead of walking its orbit.
    """
    key = (datum.family, datum.rank, kappa2)
    row = _orbit_rows.get(key)
    if row is None:
        if datum.family == "D" and kappa2[-1] < 0:
            twin = orbit_sum_row(datum, _negate_last(kappa2))
            row = {_negate_last(lam2): n for lam2, n in twin.items()}
        else:
            row = _klimyk_walk(datum, datum.rho.coords2, {datum.weight(kappa2): 1})
        _orbit_rows[key] = row
    return row


def _negate_last(v):
    return v[:-1] + (-v[-1],)


def zero_weight_column(datum, top, cap=DEFAULT_CELL_CAP):
    """``{lam: m_lam(0)}`` for every dominant lam below ``top``, by one triangular solve.

    The orbit sum M_kappa of a dominant kappa is sum_lam N[kappa][lam] chi_lam,
    row kappa being :func:`orbit_sum_row`, which
    :func:`exterior_oracle.graded_decompose` reads too.  N is unitriangular
    in the dominance order and inverts the matrix of multiplicities
    m_lam(kappa), so N x = e_0 for x_lam = m_lam(0), solved in increasing
    height.  ``cap`` bounds the orbit
    cells sum |W kappa|, counted before any walk.  The column is listed in the
    order of :func:`enumerate_dominant_below`.
    """
    below = enumerate_dominant_below(datum, top)
    cells = sum(datum.orbit_size(kappa.coords2) for kappa in below)
    if cells > cap:
        raise ResourceCapError(f"orbits of the weights below {top} exceed cap {cap}")
    top2, zero2 = top.coords2, datum.zero.coords2
    x = {}
    for kappa in sorted(below, key=lambda w: -datum.height2(tuple(map(sub, top2, w.coords2)))):
        k2 = kappa.coords2
        row = dict(orbit_sum_row(datum, k2))    # a copy: the memoised row stays whole
        if row.pop(k2, 0) != 1 or not row.keys() <= x.keys():
            raise ArithmeticError(f"orbit sum of {kappa} is not unitriangular")
        x[k2] = (k2 == zero2) - sum(n * x[lam] for lam, n in row.items())
        if x[k2] < 0:
            raise ArithmeticError(f"negative zero-weight multiplicity {x[k2]} at {kappa}")
    return {kappa: x[kappa.coords2] for kappa in below}


_kostant_memo = {}


@lru_cache(maxsize=None)
def _kostant_roots(family, rank):
    """Simple-root coefficient vectors of the positive roots, in peeling order.

    The recursion of :func:`q_kostant` peels the roots from the end of the
    list, so the roots are listed by descending index of their first nonzero
    coefficient, the simple root first within each block.  Then the roots
    left at any step have no support below the first coefficient of the last
    of them, and a remainder with support there vanishes at once.  Returns
    the vectors and, per vector, the index of its first nonzero coefficient.
    """
    datum = build_root_datum(family, rank)
    vectors = [datum.root_coefficients2(alpha.coords2) for alpha in datum.positive_roots]
    first = [next(j for j, c in enumerate(v) if c) for v in vectors]
    order = sorted(range(len(vectors)), key=lambda r: (-first[r], sum(vectors[r])))
    return tuple(vectors[r] for r in order), tuple(first[r] for r in order)


def q_kostant(datum, beta):
    """Graded Kostant partition function: sum over k of (#ways as k positive roots) t^k.

    Works on simple-root coefficients: ``beta`` is converted once, and the
    recursion peels multiples of one positive root at a time off the
    coefficient tuple, which stays in the positive cone by construction.
    """
    datum.check_weight(beta)
    coeffs = datum.root_coefficients2(beta.coords2)
    if coeffs is None or any(c < 0 for c in coeffs):
        return PolyT.zero()
    roots, first = _kostant_roots(datum.family, datum.rank)
    memo_key_base = (datum.family, datum.rank)
    zero = PolyT.zero()

    def rec(i, c):
        if i == 0:
            return zero if any(c) else PolyT.one()
        if any(c[:first[i - 1]]):
            return zero
        key = (memo_key_base, i, c)
        hit = _kostant_memo.get(key)
        if hit is not None:
            return hit
        alpha = roots[i - 1]
        acc = {}
        k = 0
        while True:
            for e, v in rec(i - 1, c).c.items():
                acc[e + k] = acc.get(e + k, 0) + v
            c = tuple(a - b for a, b in zip(c, alpha))
            if any(a < 0 for a in c):
                break
            k += 1
        out = PolyT()
        out.c = acc
        _kostant_memo[key] = out
        return out

    return rec(len(roots), coeffs)


def lusztig_E(datum, lam, cap=DEFAULT_CELL_CAP):
    """Generalized-exponent oracle: signed Weyl sum of the graded partition function.

    Computes sum over w in W of (-1)^length(w) * q_kostant(w(lam+rho) - rho),
    which for lam in the root lattice is the generalized-exponent polynomial.
    Only the terms with w(lam+rho) - rho in the positive root cone are
    visited; every other term is zero.  lam + rho is regular, so
    :meth:`RootDatum.regular_orbit2` at shift 0 lists each w(lam+rho) once
    with det(w), and its prefix test cuts a branch as soon as a prefix sum of
    the coordinates of beta = w(lam+rho) - rho is negative: each is a
    simple-root coefficient of beta (A, B, C), the sum a + b of the last two
    (D), twice the last one (the full sum in C and D), or 0 (the full sum in
    A).  beta = (w(lam+rho) - (lam+rho)) + lam lies in the root lattice with
    lam, so no coordinate test is needed; survivors still need the full test
    of :meth:`RootDatum.root_coefficients2`.
    """
    datum.require_dominant(lam)
    if not datum.in_root_lattice(lam):
        raise ValueError(f"{lam} is not in the root lattice")
    if datum.family == "G2":
        raise ValueError("the Weyl-sum oracle is wired for the classical families only")
    rho2 = datum.rho.coords2
    order = datum.orbit_size(rho2)    # |W|: rho is regular
    if order > cap:
        raise ResourceCapError(f"|W| = {order} exceeds cap {cap}")
    prefix = [0] * (datum.dim + 1)    # prefix[pos]: the sum of beta's first pos coordinates

    def keep(pos, y):
        prefix[pos + 1] = p = prefix[pos] + y - rho2[pos]
        return p >= 0

    terms = []

    def leaf(v, lam2, det):
        beta2 = tuple(map(sub, v, rho2))
        coeffs = datum.root_coefficients2(beta2)
        if coeffs is not None and all(c >= 0 for c in coeffs):
            terms.append(det * q_kostant(datum, datum.weight(beta2)))

    datum.regular_orbit2(tuple(map(add, lam.coords2, rho2)), datum.zero.coords2, leaf, keep)
    out = sum(terms, PolyT.zero())
    if any(v < 0 for v in out.c.values()):
        raise ArithmeticError(f"negative coefficient in E-polynomial for {lam}")
    return out
