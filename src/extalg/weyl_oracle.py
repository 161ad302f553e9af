"""Brute-force representation-theoretic oracles.

Everything here is deliberately independent of the polytope machinery in
``gpartitions``: weight multiplicities come from the Freudenthal recursion
(in its orbit-weighted form, from the root data alone),
tensor products from the Brauer-Klimyk rho-shift rule, and the
generalized-exponent oracle from the signed Weyl-group sum over the graded
partition function (skipping the terms whose argument leaves the positive
root cone, where the partition function vanishes).  These are the reference
implementations that the combinatorial constructions are checked against.

Brauer-Klimyk sums m_mu(nu) det(w') over the weights nu of V_mu, where w'
carries lam + rho + nu to lam' + rho with lam' dominant.  It does not expand
V_mu's weight system: it walks each orbit W nu of a dominant nu of the
Freudenthal table, placing one coordinate of x = lam + rho + w(nu) at a
time, and cuts a branch as soon as two placed |x_i| coincide (x_i in A and
G2) or, in B and C, one is 0.  Every completion of such a prefix lies on a
wall, is fixed by a reflection and so contributes nothing; the leaves are
the regular terms (21,352 of the 51,936 cells of V_rho on B5).  In G2, W nu
is the arrangements of nu and of -nu, and a leaf whose sorted middle entry
is 0 lies on a long-root wall and is dropped.

The zero-weight column m_lam(0), for every dominant lam below a bound, is
one unitriangular solve: the same reduction at rho decomposes the orbit sum
of each dominant kappa into irreducible characters, and that matrix is the
inverse of the one of the multiplicities m_lam(kappa).  It builds no
Freudenthal table, and shares no code with the exterior decomposition.
"""

import math
from bisect import bisect_left
from collections import Counter
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

    def zero_multiplicity(self):
        datum = build_root_datum(self.family, self.rank)
        return self.mult.get(datum.zero, 0)

    def dimension(self):
        return sum(self.mult.values())


_dominant_cache = {}
#: per (family, rank), the dominant representative of every string point met
_chamber_reps = {}


@lru_cache(maxsize=None)
def _root_orbits(family, rank, fixed):
    """The orbits of the parabolic subgroup W_J on the roots that meet the positive roots.

    ``fixed`` is J, the tuple of simple-root indices whose reflections
    generate W_J.  Each orbit O is searched breadth-first over those
    reflections, acting on the whole root system (a reflection may turn a
    positive root negative), and is returned as ``(rep, |O ∩ Φ⁺|, (rep, rep))``
    with ``rep`` a positive root of O, in doubled coordinates.  The counts sum
    to the number of positive roots.
    """
    datum = build_root_datum(family, rank)
    positive = [alpha.coords2 for alpha in datum.positive_roots]
    positive_set = set(positive)
    seen = set()
    orbits = []
    for rep in positive:
        if rep in seen:
            continue
        seen.add(rep)
        frontier = [rep]
        count = 0
        while frontier:
            v = frontier.pop()
            count += v in positive_set
            for i in fixed:
                w = datum.apply_simple(i, v)
                if w not in seen:
                    seen.add(w)
                    frontier.append(w)
        orbits.append((rep, count, datum.dot2(rep, rep)))
    return tuple(orbits)


def dominant_multiplicities(datum, lam):
    """Multiplicities of the dominant weights of V_lam, by the Freudenthal recursion.

    Returns a ``{Weight: multiplicity}`` table over the dominant weights
    below ``lam``, in order of height below ``lam``; every other weight of
    V_lam is a Weyl image of one of them with the same multiplicity.  The
    table is memoised and must not be mutated.

    The sum over the positive roots is orbit-weighted (Moody-Patera, "Fast
    recursion formula for weight multiplicities", Bull. AMS 7, 1982): the
    subgroup W_J generated by the simple reflections fixing mu permutes the
    terms f(alpha) = sum_k m(mu + k alpha) (mu + k alpha, alpha), and
    f(-alpha) = f(alpha) when alpha is orthogonal to mu, so f is constant on
    every W_J-orbit of roots and each orbit is evaluated once, weighted by
    its number of positive roots (:func:`_root_orbits`).
    """
    datum.require_dominant(lam)
    key = (datum.family, datum.rank, lam.coords2)
    if key in _dominant_cache:
        return _dominant_cache[key]

    doms = enumerate_dominant_below(datum, lam, "dominance")
    lam2 = lam.coords2
    order = sorted((w.coords2 for w in doms), key=lambda v: datum.height2(
        tuple(a - b for a, b in zip(lam2, v))))
    rho2 = datum.rho.coords2
    shifted = tuple(a + b for a, b in zip(lam2, rho2))
    lam_norm = datum.dot2(shifted, shifted)
    chamber = datum._chamber2
    simples = range(1, datum.rank + 1)
    table = {}
    reps = _chamber_reps.setdefault((datum.family, datum.rank), {})
    for mu in order:
        if mu == lam2:
            table[mu] = 1
            continue
        fixed = tuple(i for i in simples if datum.pairing2(i, mu) == 0)
        acc = 0
        for alpha, count, norm in _root_orbits(datum.family, datum.rank, fixed):
            # the string mu + k alpha, k >= 1, adds m_k (mu + k alpha, alpha)
            # = m_k ((mu, alpha) + k (alpha, alpha)) for as long as m_k > 0
            v = mu
            k = total = weighted = 0
            while True:
                v = tuple(map(add, v, alpha))
                rep = reps.get(v)
                if rep is None:
                    rep = reps[v] = chamber(v)[0]
                m = table.get(rep, 0)
                if m == 0:
                    break
                k += 1
                total += m
                weighted += k * m
            if total:
                acc += count * (total * datum.dot2(mu, alpha) + weighted * norm)
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

    The walk of the module docstring.  Each placed |x_pos| (x_pos in A and
    G2) goes into a sorted list; the number of smaller values already there
    is the number of inversions it adds to the descending sort, so their
    parity and, in B and C, that of the negative entries of x give det(w')
    for the w' that sorts x.  Each leaf adds det(w') * m(nu) at the sorted x
    (its last entry negated in D after an odd number of negative entries;
    in G2 taken through the last step of :meth:`RootDatum._chamber2`) minus
    rho.  In G2 the orbit of nu is the arrangements of nu and of -nu, so -nu
    is walked too unless it is an arrangement of nu.
    """
    f = datum.family
    dim = datum.dim
    rho2 = datum.rho.coords2
    chamber = datum._chamber2
    signed = f in ("B", "C", "D")
    flip_det = f in ("B", "C")
    out = {}
    placed = []
    starts = []
    for nu, m in table.items():
        starts.append((nu.coords2, m))
        neg = tuple(-c for c in nu.coords2)
        if f == "G2" and sorted(neg) != sorted(nu.coords2):
            starts.append((neg, m))

    for nu2, m in starts:
        entries = Counter(map(abs, nu2) if signed else nu2)
        values = list(entries)
        left = [entries[a] for a in values]
        choices = [(k, (a, -a) if signed and a else (a,)) for k, a in enumerate(values)]
        # in D without a zero entry, the negative entries of w(nu) keep nu's parity
        parity = nu2[-1] < 0 if f == "D" and nu2[-1] else None

        def walk(pos, det, neg_x, neg_nu):
            if pos == dim:
                rep = placed[::-1]
                if f == "D" and neg_x & 1:
                    rep[-1] = -rep[-1]
                elif f == "G2":
                    rep, sign = chamber(rep)
                    if not rep[0]:
                        return  # the sorted middle entry is 0: a long-root wall
                    det *= sign
                key = tuple(map(sub, rep, rho2))
                out[key] = out.get(key, 0) + det * m
                return
            base = shifted[pos]
            last = parity is not None and pos == dim - 1
            for k, signs in choices:
                if not left[k]:
                    continue
                left[k] -= 1
                for y in signs:
                    if last and (neg_nu + (y < 0)) & 1 != parity:
                        continue
                    x = base + y
                    if flip_det and not x:
                        continue
                    a = -x if signed and x < 0 else x
                    i = bisect_left(placed, a)
                    if i < len(placed) and placed[i] == a:
                        continue
                    placed.insert(i, a)
                    d = -det if i & 1 else det
                    if flip_det and x < 0:
                        d = -d
                    walk(pos + 1, d, neg_x + (x < 0), neg_nu + (y < 0))
                    del placed[i]
                left[k] += 1

        walk(0, 1, 0, 0)
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


def zero_weight_column(datum, top, cap=DEFAULT_CELL_CAP):
    """``{lam: m_lam(0)}`` for every dominant lam below ``top``, by one triangular solve.

    The orbit sum M_kappa of a dominant kappa is sum_lam N[kappa][lam] chi_lam,
    N[kappa][lam] being the signed count of the nu in W kappa with nu + rho
    reducing to lam + rho: row kappa is :func:`_klimyk_walk` of
    ``{kappa: 1}`` at rho.  N is unitriangular in the dominance order and
    inverts the matrix of multiplicities m_lam(kappa), so N x = e_0 for
    x_lam = m_lam(0), solved in increasing height.  ``cap`` bounds the orbit
    cells sum |W kappa|, counted before any walk.  The column is listed in the
    order of :func:`enumerate_dominant_below`.
    """
    below = enumerate_dominant_below(datum, top, "dominance")
    cells = sum(datum.orbit_size(kappa.coords2) for kappa in below)
    if cells > cap:
        raise ResourceCapError(f"orbits of the weights below {top} exceed cap {cap}")
    top2, rho2, zero2 = top.coords2, datum.rho.coords2, datum.zero.coords2
    x = {}
    for kappa in sorted(below, key=lambda w: -datum.height2(tuple(map(sub, top2, w.coords2)))):
        row = _klimyk_walk(datum, rho2, {kappa: 1})
        k2 = kappa.coords2
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


def _weyl_group_order(datum):
    """|W|, the product of the degrees e + 1 over the exponents e."""
    return math.prod(e + 1 for e in datum.exponents)


def _cone_images(datum, shifted):
    """The pairs ``(w(shifted) - rho, det(w))``, w in W (A-D), that may lie in the positive cone.

    W acts by permutations, with sign changes outside A (an even number of
    them in D).  The walk places one coordinate of ``w(shifted)`` at a time
    and carries ``det(w)``: placing index ``j`` passes over the unused indices
    below it, one transposition each, and in B and C each sign change is a
    reflection.  A branch is cut as soon as a coordinate of ``beta = w(shifted)
    - rho`` is odd (off the root lattice, in doubled units) or a prefix sum of
    its coordinates is negative: each prefix sum is a simple-root coefficient
    of beta (A, B, C), the sum a + b of the last two (D), twice the last one
    (the full sum in C and D), or 0 (the full sum in A).  Survivors still need
    the full test of :meth:`RootDatum.root_coefficients2`.
    """
    rho2 = datum.rho.coords2
    dim = datum.dim
    signs = (1,) if datum.family == "A" else (1, -1)
    flip_det = -1 if datum.family in ("B", "C") else 1
    even_flips = datum.family == "D"
    found = []

    def walk(pos, unused, prefix, beta, det, flips):
        if pos == dim:
            if not (even_flips and flips & 1):
                found.append((tuple(beta), det))
            return
        for below, j in enumerate(unused):
            rest = unused[:below] + unused[below + 1:]
            d = -det if below & 1 else det
            for s in signs:
                b = s * shifted[j] - rho2[pos]
                if b & 1:
                    continue
                p = prefix + b
                if p < 0:
                    continue
                beta.append(b)
                flip = s < 0
                walk(pos + 1, rest, p, beta, d * flip_det if flip else d, flips + flip)
                beta.pop()

    walk(0, tuple(range(dim)), 0, [], 1, 0)
    return found


def lusztig_E(datum, lam, cap=DEFAULT_CELL_CAP):
    """Generalized-exponent oracle: signed Weyl sum of the graded partition function.

    Computes sum over w in W of (-1)^length(w) * q_kostant(w(lam+rho) - rho),
    which for lam in the root lattice is the generalized-exponent polynomial.
    Only the terms with w(lam+rho) - rho in the positive root cone are
    visited (see :func:`_cone_images`); every other term is zero.
    """
    datum.require_dominant(lam)
    if not datum.in_root_lattice(lam):
        raise ValueError(f"{lam} is not in the root lattice")
    if datum.family == "G2":
        raise ValueError("the Weyl-sum oracle is wired for the classical families only")
    order = _weyl_group_order(datum)
    if order > cap:
        raise ResourceCapError(f"|W| = {order} exceeds cap {cap}")
    shifted = tuple(a + b for a, b in zip(lam.coords2, datum.rho.coords2))
    out = PolyT.zero()
    for beta2, det in _cone_images(datum, shifted):
        coeffs = datum.root_coefficients2(beta2)
        if coeffs is None or any(c < 0 for c in coeffs):
            continue
        out = out + det * q_kostant(datum, datum.weight(beta2))
    if any(v < 0 for v in out.c.values()):
        raise ArithmeticError(f"negative coefficient in E-polynomial for {lam}")
    return out
