"""Generalized-exponent polynomials and exact one-variable arithmetic.

``PolyT`` is a sparse integer Laurent polynomial in a single variable ``t``.
All divisions are exact polynomial divisions that fail loudly on a nonzero
remainder: the closed formulas implemented here are required to divide
exactly, and a failed division signals a misapplied formula rather than a
rounding question.

The E-polynomials of the small weights come two ways on the combinatorial
side: ``closed_E`` from the closed formulas, and ``recur_E`` from the
recurrences, which in types B and D are the q = 0 form of the minuscule
coefficient table in ``recurrence``.
"""

from fractions import Fraction
from functools import lru_cache

__all__ = [
    "PolyT",
    "ExactDivisionError",
    "UnsupportedWeightError",
    "t_analog",
    "t_binomial",
    "closed_E",
    "recur_E",
    "symmetric_series",
    "covered_small_weights",
]


class ExactDivisionError(ArithmeticError):
    """A polynomial division left a nonzero remainder."""


class UnsupportedWeightError(ValueError):
    """No closed generalized-exponent formula covers this weight."""


class PolyT:
    """Sparse integer Laurent polynomial in t, stored as {exponent: coefficient}.

    Every result has the class of ``self``, and only polynomials of the same
    class compare equal, so a subclass that encodes more variables in the one
    exponent (``recurrence.LaurentQS``) reuses this arithmetic unchanged.
    """

    __slots__ = ("c",)

    def __init__(self, coeffs=None):
        self.c = {}
        if coeffs:
            for e, v in coeffs.items():
                if v:
                    self.c[int(e)] = int(v)

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def one(cls):
        return cls({0: 1})

    @classmethod
    def t(cls, e=1, coeff=1):
        return cls({e: coeff})

    def _new(self, c):
        """A polynomial of this class whose coefficient dict is ``c``."""
        r = type(self)()
        r.c = c
        return r

    def _coerce(self, other):
        """An int operand stands for the constant polynomial."""
        if isinstance(other, int):
            return self._new({0: other} if other else {})
        return other

    def is_zero(self):
        return not self.c

    def __bool__(self):
        return bool(self.c)

    def __eq__(self, other):
        other = self._coerce(other)
        return type(other) is type(self) and self.c == other.c

    def __hash__(self):
        return hash(frozenset(self.c.items()))

    def __add__(self, other):
        out = dict(self.c)
        for e, v in self._coerce(other).c.items():
            w = out.get(e, 0) + v
            if w:
                out[e] = w
            elif e in out:
                del out[e]
        return self._new(out)

    __radd__ = __add__

    def __neg__(self):
        return self._new({e: -v for e, v in self.c.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            return self._new({e: v * other for e, v in self.c.items()} if other else {})
        out = {}
        for e1, v1 in self.c.items():
            for e2, v2 in other.c.items():
                e = e1 + e2
                w = out.get(e, 0) + v1 * v2
                if w:
                    out[e] = w
                elif e in out:
                    del out[e]
        return self._new(out)

    __rmul__ = __mul__

    def __pow__(self, k):
        if k < 0:
            raise ValueError("negative power")
        out = self._new({0: 1})
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def degree(self):
        if not self.c:
            return None
        return max(self.c)

    def low(self):
        if not self.c:
            return None
        return min(self.c)

    def shift(self, k):
        """Multiply by t**k."""
        return self._new({e + k: v for e, v in self.c.items()})

    def subs_power(self, m):
        """Substitute t -> t**m."""
        return self._new({e * m: v for e, v in self.c.items()})

    def __call__(self, value):
        """Evaluate exactly: an int, or a Fraction when a negative power occurs."""
        if self.c and min(self.c) < 0:
            value = Fraction(value)
        return sum(v * value ** e for e, v in self.c.items())

    def exact_div(self, other):
        """Exact Laurent division; raises ExactDivisionError on any remainder."""
        if other.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        if self.is_zero():
            return self._new({})
        # normalize both to honest polynomials with nonzero constant terms
        a, b = self.shift(-self.low()), other.shift(-other.low())
        shift = self.low() - other.low()
        quot = {}
        rem = dict(a.c)
        db = b.degree()
        lead = b.c[db]
        while rem:
            dr = max(rem)
            if dr < db:
                raise ExactDivisionError(f"nonzero remainder dividing {self!r} by {other!r}")
            head, r = divmod(rem[dr], lead)
            if r:
                raise ExactDivisionError(f"non-integer quotient dividing {self!r} by {other!r}")
            quot[dr - db] = head
            for e, v in b.c.items():
                w = rem.get(e + dr - db, 0) - head * v
                if w:
                    rem[e + dr - db] = w
                elif e + dr - db in rem:
                    del rem[e + dr - db]
        return self._new(quot).shift(shift)

    def truncate(self, deg):
        return self._new({e: v for e, v in self.c.items() if e <= deg})

    def coeff(self, e):
        return self.c.get(e, 0)

    def items_sorted(self):
        return sorted(self.c.items())

    def __repr__(self):
        if not self.c:
            return "0"
        parts = []
        for e, v in self.items_sorted():
            if e == 0:
                parts.append(str(v))
            else:
                head = "" if v == 1 else "-" if v == -1 else f"{v}*"
                parts.append(f"{head}t^{e}" if e != 1 else f"{head}t")
        return " + ".join(parts).replace("+ -", "- ")


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
    """The small weights whose E-polynomial has a closed formula here, in order."""
    n = datum.rank
    mk = lambda k: datum.weight(tuple([2] * k + [0] * (n - k)))
    if datum.family == "B":
        return [mk(k) for k in range(1, n + 1)]
    if datum.family == "C":
        return [mk(2 * k) for k in range(1, n // 2 + 1)]
    if datum.family == "D":
        return [mk(2 * k) for k in range(1, n // 2 + 1)]
    raise UnsupportedWeightError(f"no covered weights for family {datum.family}")


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
        from .recurrence import coefficient_table  # recurrence imports this module
        E = {0: PolyT.one()}
        for k in range(1, len(covered) + 1):
            table = {h: c.q_at_zero().to_t_poly() for h, c in coefficient_table(datum, k).items()}
            rhs = sum((c * E[h] for h, c in table.items() if h < k), PolyT())
            E[k] = (-rhs).exact_div(table[k])
    return {lam: E[k] for k, lam in enumerate(covered, 1)}


def symmetric_series(datum, lam, upto):
    """Truncated graded multiplicity series of V_lam in the symmetric algebra.

    Returns the first coefficients (through degree ``upto``) of
    ``E_lam(t) * prod_i (1 - t^(e_i+1))**-1``.
    """
    try:
        e_poly = closed_E(datum, lam)
    except UnsupportedWeightError:
        from .weyl_oracle import lusztig_E
        e_poly = lusztig_E(datum, lam)
    series = PolyT.one()
    for e in datum.exponents:
        geom = PolyT({j * (e + 1): 1 for j in range(0, upto // (e + 1) + 1)})
        series = (series * geom).truncate(upto)
    return (series * e_poly).truncate(upto)
