"""Generalized-exponent polynomials: closed formulas and recurrences.

The E-polynomials of the small weights come two ways on the combinatorial
side: ``closed_E`` from the closed formulas, and ``recur_E`` from the
recurrences, which in types B and D are the q = 0 form of the minuscule
coefficient table in ``recurrence``.  The closed formulas divide exactly in
``PolyT`` arithmetic, so a misapplied formula raises rather than rounds.
"""

from functools import lru_cache

from .core import PolyT
from .recurrence import chain_count, chain_weight, coefficient_table

__all__ = [
    "UnsupportedWeightError",
    "t_analog",
    "t_binomial",
    "closed_E",
    "recur_E",
    "symmetric_series",
    "covered_small_weights",
]


class UnsupportedWeightError(ValueError):
    """No closed generalized-exponent formula covers this weight."""


def t_analog(n, var_power=1):
    """(n)_t = 1 + t + ... + t^(n-1), optionally in t**var_power."""
    if n < 0:
        raise ValueError("negative t-analog")
    return PolyT({var_power * k: 1 for k in range(n)})


@lru_cache(maxsize=None)
def _t_binomial_cached(n, k):
    if not 0 <= k <= n:
        raise ValueError(f"binomial index ({n},{k}) out of range")
    if k == 0 or k == n:
        return PolyT.one()
    # Pascal recurrence: C(n,k)_t = C(n-1,k)_t + t^(n-k) C(n-1,k-1)_t
    return _t_binomial_cached(n - 1, k) + _t_binomial_cached(n - 1, k - 1).shift(n - k)


def t_binomial(n, k, var_power=1):
    p = _t_binomial_cached(n, k)
    return p.subs_power(var_power) if var_power != 1 else p


def _chain_index(datum, lam):
    """Index k when lam has coordinates (1,...,1,0,...,0) with k ones, else None."""
    half = []
    for c in lam.coords2:
        if c not in (0, 2):
            return None
        half.append(c // 2)
    k = sum(half)
    if half != [1] * k + [0] * (datum.rank - k):
        return None
    return k


def covered_small_weights(datum):
    """The small weights whose E-polynomial has a closed formula here, in order:
    the chain weights of ``recurrence``."""
    if datum.family not in ("B", "C", "D"):
        raise UnsupportedWeightError(f"no covered weights for family {datum.family}")
    return [chain_weight(datum, k) for k in range(1, chain_count(datum) + 1)]


def closed_E(datum, lam):
    """Closed-form generalized-exponent polynomial for the covered small weights.

    Covered: type B (1,..,1,0,..,0) chains including 2*w_n; type C the weights
    w_{2k}; type D the w_{2k} chain together with w_{n-1}+w_n (n odd) and
    2*w_{n-1}, 2*w_n (n even).  Everything else raises UnsupportedWeightError.
    """
    datum.check_weight(lam)
    n = datum.rank
    f = datum.family
    if f == "B":
        k = _chain_index(datum, lam)
        if k is None or k == 0:
            raise UnsupportedWeightError(f"{lam} not covered in type B")
        if k % 2 == 0:
            return t_binomial(n, k // 2, 2).shift(k // 2)
        return t_binomial(n, (k - 1) // 2, 2).shift(n - (k - 1) // 2)
    if f == "C":
        k = _chain_index(datum, lam)
        if k is None or k == 0 or k % 2:
            raise UnsupportedWeightError(f"{lam} not covered in type C")
        k //= 2
        num = t_analog(n - 2 * k + 1, 2) * t_binomial(n, k, 2)
        return num.exact_div(t_analog(n - k + 1, 2)).shift(2 * k)
    if f == "D":
        k = _chain_index(datum, lam)
        if k is None and n % 2 == 0 and lam.coords2 == tuple([2] * (n - 1) + [-2]):
            k = n  # 2*w_{n-1} has the same E-polynomial as 2*w_n
        if k is None or k == 0 or k % 2:
            raise UnsupportedWeightError(f"{lam} not covered in type D")
        k //= 2
        if 2 * k <= n - 2:
            num = (PolyT({n - 2 * k: 1, 0: 1})) * t_binomial(n, k, 2)
            return num.exact_div(PolyT({n: 1, 0: 1})).shift(k)
        if n % 2 == 1:
            num = PolyT({1: 1, 0: 1}) * t_binomial(n, n // 2, 2)
            return num.exact_div(PolyT({n: 1, 0: 1})).shift(n // 2)
        num = t_binomial(n, n // 2, 2)
        return num.exact_div(PolyT({n: 1, 0: 1})).shift(n // 2)
    raise UnsupportedWeightError(f"family {f} has no closed formulas here")


def _recur_C(datum):
    n = datum.rank
    E = {1: t_analog(n - 1, 2).shift(2)}  # little adjoint seed, E_{w_2}
    for k in range(1, n // 2):
        num = PolyT({2 * (n - 2 * k - 1): 1, 0: -1}) * PolyT({2 * (n - k + 1): 1, 0: -1})
        den = PolyT({2 * (n - 2 * k + 1): 1, 0: -1}) * PolyT({2 * (k + 1): 1, 0: -1})
        E[k + 1] = (num * E[k]).shift(2).exact_div(den)
    return E


def recur_E(datum):
    """Table of E-polynomials computed purely by the q = 0 recurrences.

    In types B and D, E_0 = 1 and E_k solves sum_{h<=k} C_h(0, t) E_h = 0,
    where C_h(q, t) is the k-th row of ``recurrence.coefficient_table``, the
    same coefficients that ``recurrence.verify_aggregate`` checks against
    the minuscule rows.  Type C, where e_1 is not a minuscule coweight, steps
    from the little adjoint by a ratio recurrence.  Keys are the covered
    small weights of :func:`covered_small_weights`; the values must agree
    exactly with :func:`closed_E` and with the Weyl-group oracle.
    """
    if datum.family not in ("B", "C", "D"):
        raise UnsupportedWeightError(f"no recurrence for family {datum.family}")
    covered = covered_small_weights(datum)
    if datum.family == "C":
        E = _recur_C(datum)
    else:
        E = {0: PolyT.one()}
        for k in range(1, len(covered) + 1):
            table = {h: c.q_at_zero().to_t_poly() for h, c in coefficient_table(datum, k).items()}
            rhs = sum((c * E[h] for h, c in table.items() if h < k), PolyT())
            E[k] = (-rhs).exact_div(table[k])
    return {lam: E[k] for k, lam in enumerate(covered, 1)}


def symmetric_series(datum, e_poly, upto):
    """Truncated graded multiplicity series of a V_lam in the symmetric algebra.

    Returns the first coefficients (through degree ``upto``) of
    ``e_poly * prod_i (1 - t^(e_i+1))**-1``, where ``e_poly`` is the
    generalized-exponent polynomial E_lam, taken from either path.
    """
    series = PolyT.one()
    for e in datum.exponents:
        geom = PolyT({j * (e + 1): 1 for j in range(0, upto // (e + 1) + 1)})
        series = (series * geom).truncate(upto)
    return (series * e_poly).truncate(upto)
