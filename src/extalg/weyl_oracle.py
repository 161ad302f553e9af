"""Brute-force representation-theoretic oracles.

Everything here is deliberately independent of the polytope machinery in
``gpartitions``: weight multiplicities come from the Freudenthal recursion,
tensor products from the Brauer-Klimyk rho-shift rule, and the
generalized-exponent oracle from the signed Weyl-group sum over the graded
partition function (skipping the terms whose argument leaves the positive
root cone, where the partition function vanishes).  These are the reference
implementations that the combinatorial constructions are checked against.
"""

import math
import os
import pickle
from dataclasses import dataclass
from functools import lru_cache

from .genexp import PolyT
from .orders import enumerate_dominant_below
from .rootdata import Weight, build_root_datum

__all__ = [
    "ResourceCapError",
    "WeightMultMap",
    "dominant_multiplicities",
    "freudenthal",
    "weyl_dim",
    "klimyk_tensor",
    "q_kostant",
    "lusztig_E",
    "dimension_of_decomposition",
]

#: default guard on the number of (weight, multiplicity) cells a single
#: oracle call may produce; generous enough for every desk-scale sweep
DEFAULT_CELL_CAP = 5_000_000


class ResourceCapError(RuntimeError):
    pass


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


def _cache_path(datum, lam):
    root = os.environ.get("GEXP_CACHE_DIR")
    if not root:
        return None
    tag = "_".join(str(c) for c in lam.coords2)
    return os.path.join(root, f"freud_{datum.family}{datum.rank}_{tag}.pkl")


def dominant_multiplicities(datum, lam):
    """Multiplicities of the dominant weights of V_lam, by the Freudenthal recursion.

    Returns a ``{Weight: multiplicity}`` table over the dominant weights
    below ``lam``; every other weight of V_lam is a Weyl image of one of them
    with the same multiplicity.  The table is memoised and must not be mutated.
    """
    datum.check_weight(lam)
    if not datum.is_dominant(lam):
        raise ValueError(f"{lam} is not dominant")
    key = (datum.family, datum.rank, lam.coords2)
    if key in _dominant_cache:
        return _dominant_cache[key]
    path = _cache_path(datum, lam)
    if path and os.path.exists(path):
        with open(path, "rb") as fh:
            table = {datum.weight(c): m for c, m in pickle.load(fh).items()}
        _dominant_cache[key] = table
        return table

    doms = enumerate_dominant_below(datum, lam, "dominance")
    order = sorted(doms, key=lambda w: datum.height2(
        tuple(a - b for a, b in zip(lam.coords2, w.coords2))))
    rho2 = datum.rho.coords2
    lam_norm = datum.dot2(tuple(a + b for a, b in zip(lam.coords2, rho2)),
                          tuple(a + b for a, b in zip(lam.coords2, rho2)))
    table = {}
    for mu in order:
        if mu == lam:
            table[mu] = 1
            continue
        acc = 0
        for alpha in datum.positive_roots:
            k = 1
            while True:
                v2 = tuple(a + k * b for a, b in zip(mu.coords2, alpha.coords2))
                rep = Weight(datum.family, datum.rank, datum.chamber_rep2(v2))
                m = table.get(rep, 0)
                if m == 0:
                    break
                acc += m * datum.dot2(v2, alpha.coords2)
                k += 1
        shifted = tuple(a + b for a, b in zip(mu.coords2, rho2))
        denom = lam_norm - datum.dot2(shifted, shifted)
        num = 2 * acc
        if denom <= 0 or num % denom:
            raise ArithmeticError(f"Freudenthal recursion failed at {mu}")
        table[mu] = num // denom
    _dominant_cache[key] = table
    if path:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "wb") as fh:
            pickle.dump({w.coords2: m for w, m in table.items()}, fh)
    return table


def freudenthal(datum, lam, cap=DEFAULT_CELL_CAP):
    """Full weight system of V_lam with multiplicities (all Weyl images)."""
    table = dominant_multiplicities(datum, lam)
    full = {}
    cells = 0
    for mu, m in table.items():
        orbit = datum.orbit2(mu.coords2)
        cells += len(orbit)
        if cells > cap:
            raise ResourceCapError(f"weight system of {lam} exceeds cap {cap}")
        for v in orbit:
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


def klimyk_tensor(datum, lam, mu, cap=DEFAULT_CELL_CAP):
    """Decomposition of V_lam (x) V_mu by the rho-shifted reduction rule."""
    datum.check_weight(lam)
    datum.check_weight(mu)
    system = freudenthal(datum, mu, cap=cap)
    shifted = tuple(a + b for a, b in zip(lam.coords2, datum.rho.coords2))
    out = {}
    for nu, m in system.mult.items():
        red = datum._reduce2(tuple(a + b for a, b in zip(shifted, nu.coords2)))
        if red is None:
            continue
        target, sign = red
        out[target] = out.get(target, 0) + sign * m
    result = {}
    for v, m in out.items():
        w = Weight(datum.family, datum.rank, v)
        if m < 0:
            raise ArithmeticError(f"negative multiplicity {m} at {w} in Klimyk rule")
        if m:
            result[w] = m
    return result


def dimension_of_decomposition(datum, decomposition):
    return sum(m * weyl_dim(datum, w) for w, m in decomposition.items())


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
    """|W| for A-D: (n+1)! in A_n, n! 2^n in B_n and C_n, n! 2^(n-1) in D_n."""
    n = datum.rank
    if datum.family == "A":
        return math.factorial(n + 1)
    return math.factorial(n) * 2 ** (n - 1 if datum.family == "D" else n)


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
    datum.check_weight(lam)
    if not datum.is_dominant(lam):
        raise ValueError(f"{lam} is not dominant")
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
