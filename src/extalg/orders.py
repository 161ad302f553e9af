"""Orderings on dominant weights: dominance, coordinatewise, smallness.

The dominance test reads the simple-root coefficients of the difference off
the fundamental coweights of ``rootdata``: in the epsilon realizations, the
partial sums with an even-total condition in C and D and two spin conditions
in D.  A comparison between weights in different lattice cosets is False.
"""

from itertools import combinations

from .core import DEFAULT_CELL_CAP, ResourceCapError
from .rootdata import DatumMismatchError, weight_from_fundamental

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


def _parity_floor(hi, parity):
    """Largest value <= hi with the given doubled-coordinate parity."""
    return hi if (hi - parity) % 2 == 0 else hi - 1


def _keep(out, mu, cap, bound):
    """Append ``mu`` to ``out``, raising once ``out`` holds more than ``cap`` weights."""
    out.append(mu)
    if len(out) > cap:
        raise ResourceCapError(f"dominant weights below {bound} exceed cap {cap}")


def _enumerate_classical(datum, bound, cap):
    """All dominant weights <= bound (dominance) for families A, B, C, D."""
    f, n = datum.family, datum.rank
    b2 = bound.coords2
    out = []
    coords = [0] * datum.dim

    if f == "A":
        total = sum(b2)

        def rec_a(k, prev2, used):
            if k == datum.dim:
                if used == total:
                    _keep(out, datum.weight(coords), cap, bound)
                return
            remaining = datum.dim - k - 1
            hi = _parity_floor(min(prev2, sum(b2[:k + 1]) - used), b2[k] % 2)
            # the tail is bounded above by c, so c*(remaining+1) >= total-used
            need = total - used
            lo = -(-need // (remaining + 1))
            for c in range(hi, lo - 1, -2):
                coords[k] = c
                rec_a(k + 1, c, used + c)
            coords[k] = 0

        rec_a(0, 2 * sum(abs(x) for x in b2) + 2, 0)
        return out

    def rec(k, prev2, slack2):
        # slack2 = doubled partial sum of (bound - mu) over coordinates < k
        if f == "D" and k == n - 2:
            # choose the last two coordinates together; the cone conditions
            # there are (p_{n-1} - x_n)/2 >= 0 and (p_{n-1} + x_n)/2 >= 0,
            # both integral, rather than plain prefix positivity
            hi = _parity_floor(min(prev2, b2[k] + slack2), b2[k] % 2)
            for c in range(hi, -1, -2):
                coords[k] = c
                p2 = slack2 + (b2[k] - c)
                dhi = _parity_floor(c, b2[n - 1] % 2)
                for d in range(dhi, -c - 1, -2):
                    xn2 = b2[n - 1] - d
                    a, b = p2 - xn2, p2 + xn2
                    if a >= 0 and b >= 0 and a % 4 == 0 and b % 4 == 0:
                        coords[n - 1] = d
                        _keep(out, datum.weight(coords), cap, bound)
                coords[n - 1] = 0
            coords[k] = 0
            return
        if k == n:
            if f == "B" or slack2 % 4 == 0:
                _keep(out, datum.weight(coords), cap, bound)
            return
        hi = _parity_floor(min(prev2, b2[k] + slack2), b2[k] % 2)
        for c in range(hi, -1, -2):
            coords[k] = c
            rec(k + 1, c, slack2 + (b2[k] - c))
        coords[k] = 0

    rec(0, 2 * sum(abs(x) for x in b2) + 2, 0)
    return out


def _enumerate_g2(datum, bound, cap):
    # the third coordinate of a*w1 + b*w2 is a + 2b, and the second simple-root
    # coefficient of (bound - mu) is exactly its third-coordinate difference
    top = max(bound.coords2[2] // 2, 0)
    out = []
    for a in range(top + 1):
        for b in range(top // 2 + 1):
            mu = weight_from_fundamental(datum, (a, b))
            if dominance_leq(datum, mu, bound):
                _keep(out, mu, cap, bound)
    return out


def enumerate_dominant_below(datum, bound, cap=DEFAULT_CELL_CAP):
    """Exhaustive list of the dominant weights below a dominant bound in dominance.

    The result is duplicate-free and sorted lexicographically by doubled
    coordinates; callers that want a finer order (coordinatewise, small)
    filter it with :func:`coordinatewise_leq` or :func:`is_small`.  ``cap``
    bounds the dominant weights listed, counted as they are listed.
    """
    datum.check_weight(bound)
    if not datum.is_dominant(bound):
        raise ValueError(f"bound {bound} is not dominant")
    if datum.family == "G2":
        cands = _enumerate_g2(datum, bound, cap)
    else:
        cands = _enumerate_classical(datum, bound, cap)
    return sorted(set(cands), key=lambda w: w.coords2)


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
