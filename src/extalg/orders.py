"""Orderings on dominant weights: dominance, coordinatewise, smallness.

The dominance test reads the simple-root coefficients of the difference off
the fundamental coweights of ``rootdata``; a comparison between weights in
different lattice cosets is False.  The census of the dominant weights below
a bound names no family: it walks the simple-root coefficients c_i of
bound - mu from the last simple root down, on the Cartan matrix alone.  A
pairing <mu, alpha_j^vee> that no later step moves bounds c_i below (a
neighbour of alpha_j) or above (alpha_j itself), and c_S <= A_S^-1 p_S bounds
the roots S not yet fixed, since the inverse Cartan matrix of every Dynkin
diagram is >= 0 entrywise.
"""

from functools import lru_cache
from itertools import combinations
from math import gcd

from .core import DEFAULT_CELL_CAP, ResourceCapError
from .rootdata import DatumMismatchError, Weight, build_root_datum

__all__ = [
    "dominance_leq",
    "coordinatewise_leq",
    "enumerate_dominant_below",
    "is_small",
    "two_rho_minus_delta",
]


def dominance_leq(datum, mu, lam):
    """True iff lam - mu is a nonnegative integer sum of positive roots."""
    datum.check_weight(mu)
    datum.check_weight(lam)
    diff2 = tuple(a - b for a, b in zip(lam.coords2, mu.coords2))
    coeffs = datum.root_coefficients2(diff2)
    return coeffs is not None and all(c >= 0 for c in coeffs)


def coordinatewise_leq(mu, lam):
    """The coordinatewise order: lam_i - mu_i >= 0 and |lam_i| >= |mu_i| for all i."""
    if len(mu.coords2) != len(lam.coords2):
        raise DatumMismatchError("coordinate length mismatch")
    return all(l - m >= 0 and abs(l) >= abs(m)
               for m, l in zip(mu.coords2, lam.coords2))


def is_small(datum, lam):
    """Small weights: in the root lattice with 2*alpha not below lam for dominant roots alpha."""
    if not datum.in_root_lattice(lam):
        return False
    for alpha in datum.dominant_roots():
        if dominance_leq(datum, 2 * alpha, lam):
            return False
    return True


@lru_cache(maxsize=None)
def _census_plan(family, rank):
    """Per depth i of :func:`enumerate_dominant_below`, ``(row, den, closing, step)``.

    With S = {0, ..., i} and the state mu2 + p: ``row`` holds the nonzero
    (dim + j, den * x_j) of row i of A_S^-1 over its common denominator;
    ``closing`` the (dim + j, |A_ji|) of the j > i whose last unfixed
    neighbour is alpha_i; ``step`` the nonzero (k, x) subtracting alpha_i
    takes off the state.  Integer elimination of [A | I] below the diagonal
    keeps each row [u | l] with l A = u; row i ends with l on 0..i and u
    zero before i, so l A_S = u_i e_i and row i of A_S^-1 is l / u_i.  The
    pivots u_i stay > 0, as A's leading minors are.
    """
    datum = build_root_datum(family, rank)
    n, dim = rank, datum.dim
    simple = [alpha.coords2 for alpha in datum.simple_roots]
    cartan = [[datum.pairing2(i + 1, a2) // 2 for a2 in simple] for i in range(n)]
    rows = [cartan[r] + [int(r == c) for c in range(n)] for r in range(n)]
    for k in range(n):
        for r in range(k + 1, n):
            if rows[r][k]:
                rows[r] = [rows[k][k] * a - rows[r][k] * b for a, b in zip(rows[r], rows[k])]
    plan = []
    for i in range(n):
        g = gcd(rows[i][i], *rows[i][n:])
        plan.append((tuple((dim + j, x // g) for j, x in enumerate(rows[i][n:]) if x),
                     rows[i][i] // g,
                     tuple((dim + j, -cartan[j][i]) for j in range(i + 1, n)
                           if min(k for k in range(n) if cartan[j][k]) == i),
                     tuple((k, x) for k, x in enumerate(simple[i]) if x)
                     + tuple((dim + j, cartan[j][i]) for j in range(n) if cartan[j][i])))
    return tuple(plan)


def enumerate_dominant_below(datum, bound, cap=DEFAULT_CELL_CAP):
    """Exhaustive list of the dominant weights below a dominant bound in dominance.

    mu is below ``bound`` when bound - mu = sum c_i alpha_i with integers
    c_i >= 0, and dominant when every p_j = <mu, alpha_j^vee> = p_j(bound) -
    sum_i A_ji c_i is >= 0, A being the Cartan matrix.  The walk fixes c_i for
    i = n-1 down to 0, keeping mu's doubled coordinates and the p_j up to
    date, and bounds each c_i three ways:

    * c_i >= ceil(-p_j / |A_ji|) for each p_j (j != i) whose last unfixed
      neighbour is alpha_i, and c_i <= floor(p_i / 2) when alpha_i has no
      unfixed neighbour left: no later step moves that pairing;
    * c_i <= floor((row i of A_S^-1) . p_S) for S the roots not yet fixed:
      the pairings y_S >= 0 the walk ends with give c_S = A_S^-1 (p_S - y_S),
      and A_S^-1 >= 0 entrywise, as the inverse Cartan matrix of every Dynkin
      diagram is (Humphreys, Introduction to Lie Algebras, 13.2, Table 1).
      Where alpha_i stands alone in S, this is floor(p_i / 2).

    Each leaf is met once, since c determines mu.  The result is sorted by
    doubled coordinates; callers that want a finer order (coordinatewise,
    small) filter it with :func:`coordinatewise_leq` or :func:`is_small`.
    ``cap`` bounds the dominant weights listed, counted as they are listed.
    """
    if not datum.is_dominant(bound):
        raise ValueError(f"bound {bound} is not dominant")
    family, rank, dim = datum.family, datum.rank, datum.dim
    plan = _census_plan(family, rank)
    state = list(bound.coords2) + list(datum.fundamental_coefficients(bound))
    out = []

    def walk(i):
        row, den, closing, step = plan[i]
        hi = sum(x * state[j] for j, x in row) // den
        lo = 0
        for j, a in closing:
            lo = max(lo, -(state[j] // a))
        if lo > hi:
            return
        for k, x in step:
            state[k] -= lo * x
        for _ in range(lo, hi + 1):
            if i:
                walk(i - 1)
            else:
                out.append(Weight(family, rank, tuple(state[:dim])))
                if len(out) > cap:
                    raise ResourceCapError(f"dominant weights below {bound} exceed cap {cap}")
            for k, x in step:
                state[k] -= x
        for k, x in step:
            state[k] += (hi + 1) * x

    walk(rank - 1)
    out.sort(key=lambda w: w.coords2)
    return out


def two_rho_minus_delta(datum, subset):
    """The weight 2*rho - delta_I and the component count of the subdiagram on I.

    delta_I is the sum of the simple roots alpha_i, i in I.  Nodes i and j of
    the Dynkin diagram are joined when (alpha_i, alpha_j) != 0; the diagram
    is a tree, so the subdiagram on I has |I| minus its edges as components.
    """
    subset = sorted(set(subset))
    for i in subset:
        if not 1 <= i <= datum.rank:
            raise ValueError(f"simple-root index {i} out of range")
    simple = [datum.simple_roots[i - 1].coords2 for i in subset]
    acc = list((2 * datum.rho).coords2)
    for root in simple:
        for k, c in enumerate(root):
            acc[k] -= c
    edges = sum(datum.dot2(a, b) != 0 for a, b in combinations(simple, 2))
    return datum.weight(acc), len(subset) - edges
