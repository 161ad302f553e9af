"""Minuscule-recurrence engine over two-variable Laurent polynomials.

Rows are computed from first principles: the points v of the Weyl orbit of
a dominant weight ``lam`` with v + rho regular are walked together with the
images of the stabilizer orbit of the minuscule coweight ``e_1``, each
conjugated back into the dominant chamber with its sign, and the
contributions aggregate into a map {dominant weight -> Laurent polynomial in
q and s}, where s**2 = t carries the half-integer t-powers needed in type B.

The engine supports types B and D, the two families in which e_1 pairs to
{0, +-1} with every positive root.  (In type C the pairing with the long
roots 2 e_i is 2, so e_1 is not a minuscule coweight there.)

The closed (q, t) coefficients of the aggregated identities are written once,
in :func:`coefficient_table`: ``verify_aggregate`` checks them against the
rows, and ``genexp.recur_E`` solves their q = 0 form for the generalized
exponents of the small chain weights.
"""

from dataclasses import dataclass
from functools import lru_cache
from math import comb

from .core import (DEFAULT_CELL_CAP, PolyT, ResourceCapError, _first_unequal, _record,
                   _unequal, check)
from .orders import dominance_leq
from .rootdata import Weight, build_root_datum

__all__ = [
    "LaurentQS",
    "RecurrenceRow",
    "minuscule_row",
    "omega0_count",
    "a_integers",
    "verify_aggregate",
    "coefficient_table",
    "chain_count",
    "chain_weight",
    "exterior_specialization",
]


#: q is stored as s**_Q, so the monomial q**a s**b sits at exponent a*_Q + b
_Q = 1 << 64
#: bound on the s-exponents a LaurentQS is built from; a product of at most
#: 2**31 such factors keeps every s-exponent below _Q/2, where decoding is exact
_S_LIMIT = 1 << 32


def _split(e):
    """The (q, s) exponents of the Kronecker exponent ``e``."""
    qe, se = divmod(e + _Q // 2, _Q)
    return qe, se - _Q // 2


class LaurentQS(PolyT):
    """Sparse integer Laurent polynomial in q and s (with s*s = t).

    The arithmetic is PolyT's, in the one variable s with q = s**(2**64)
    (Kronecker substitution); the constructor, ``items_sorted`` and ``repr``
    speak in (q-exponent, s-exponent) pairs.
    """

    __slots__ = ()

    def __init__(self, coeffs=None):
        self.c = {}
        if coeffs:
            for (qe, se), v in coeffs.items():
                qe, se = int(qe), int(se)
                if not -_S_LIMIT < se < _S_LIMIT:
                    raise ValueError(f"s-exponent {se} out of range")
                if v:
                    self.c[qe * _Q + se] = int(v)

    @classmethod
    def from_t_poly(cls, p, q_exp=0):
        return cls({(q_exp, 2 * e): v for e, v in p.c.items()})

    #: multiply by s**k
    scale_s = PolyT.shift

    def q_at_zero(self):
        """Keep the q-degree-zero part, as a Laurent polynomial in s."""
        return self._new({e: v for e, v in self.c.items() if -_Q // 2 <= e < _Q // 2})

    def to_t_poly(self):
        """Convert to a PolyT in t; requires q-free content and even s-powers."""
        out = {}
        for (qe, se), v in self.items_sorted():
            if qe != 0:
                raise ValueError("polynomial still involves q")
            if se % 2:
                raise ValueError("odd s-power cannot be expressed in t")
            out[se // 2] = v
        return PolyT(out)

    def items_sorted(self):
        return [(_split(e), v) for e, v in sorted(self.c.items())]

    def __repr__(self):
        if not self.c:
            return "0"
        bits = []
        for (qe, se), v in self.items_sorted():
            piece = str(v)
            if qe:
                piece += f"*q^{qe}"
            if se:
                piece += f"*s^{se}"
            bits.append(piece)
        return " + ".join(bits)


def exterior_specialization(lq):
    """Specialize (q, t) -> (-q, q**2); returns a PolyT in the single variable q."""
    out = {}
    for (qe, se), v in lq.items_sorted():
        out[qe + se] = out.get(qe + se, 0) + (-v if qe % 2 else v)
    return PolyT(out)


@dataclass(frozen=True)
class RecurrenceRow:
    lam: object
    entries: dict  # dominant Weight -> LaurentQS
    zero_points: int  # orbit points v with v + rho conjugated to rho (|Omega_0|)


def chain_count(datum):
    """The number of small chain weights: n in type B, n // 2 in types C and D."""
    if datum.family == "B":
        return datum.rank
    if datum.family in ("C", "D"):
        return datum.rank // 2
    raise ValueError(f"no chain weights for family {datum.family}")


def chain_weight(datum, k):
    """The k-th small chain weight: (1^k, 0^*) in type B, (1^(2k), 0^*) in types C and D."""
    n = datum.rank
    ones = k if datum.family == "B" else 2 * k
    if not 0 <= ones <= n:
        raise ValueError(f"chain index {k} out of range for {datum.family}{n}")
    return datum.weight((2,) * ones + (0,) * (n - ones))


def minuscule_row(datum, lam, cap=DEFAULT_CELL_CAP):
    """One reduced recurrence row for a dominant weight, from first principles.

    Walk the images v = w(lam) with v + rho regular, each with its dominant
    reduction and sign (:meth:`RootDatum.regular_orbit2`; the others reduce
    to nothing), and aggregate the inner Laurent sums over the transported
    stabilizer orbit of e_1.  The stabilizer of lam moves e_1 to the e_j
    with lam_j = +-lam_1, and any w with w(lam) = v sends such an e_j to
    +-e_i with |v_i| = lam_1 and the sign of v_i, so the transported images
    at v are {sign(v_i) e_i : |v_i| = lam_1}.  Supported families: B, D.  An
    orbit of more than cap + 1 points raises ResourceCapError before the walk.
    """
    if datum.family not in ("B", "D"):
        raise ValueError(
            f"e_1 is a minuscule coweight for families B and D only, not {datum.family}")
    datum.require_dominant(lam)
    if lam.is_zero():
        raise ValueError("the recurrence row for the zero weight is vacuous")
    if lam.coords2[0] % 2:
        raise ValueError("the q-exponent (lam, e_1) must be an integer")
    if datum.orbit_size(lam.coords2) > cap + 1:
        raise ResourceCapError(f"orbit of {lam} exceeds cap {cap}")
    top = lam.coords2[0]
    q_exp = top // 2

    rho2 = datum.rho.coords2
    sums = {}  # reduced doubled coordinates -> {(q, s) exponent: coefficient}
    zero_points = 0

    def leaf(vec, target, sign):
        nonlocal zero_points
        if not any(target):
            zero_points += 1
        acc = sums.setdefault(target, {})
        for c, r in zip(vec, rho2):
            if c == top or c == -top:
                # psi = sign(c) e_i contributes s^-(rho, psi) - q s^(rho, psi)
                s_exp = r if c > 0 else -r
                acc[(0, -s_exp)] = acc.get((0, -s_exp), 0) + sign
                acc[(q_exp, s_exp)] = acc.get((q_exp, s_exp), 0) - sign

    datum.regular_orbit2(lam.coords2, rho2, leaf)
    entries = {}
    for target, acc in sums.items():
        entry = LaurentQS(acc)
        if entry:
            entries[Weight(datum.family, datum.rank, target)] = entry

    for key in entries:
        if key != lam and not dominance_leq(datum, key, lam):
            raise ArithmeticError(f"row entry {key} is not below {lam}")
    return RecurrenceRow(lam, entries, zero_points)


@lru_cache(maxsize=None)
def _row_cached(family, rank, k, cap):
    # the cap is part of the key, so a cached row never bypasses a smaller cap
    datum = build_root_datum(family, rank)
    return minuscule_row(datum, chain_weight(datum, k), cap=cap)


# -- counting the weights conjugated to zero ----------------------------------


def _domino_vectors(positions, pairs):
    """All 0/±1 vectors with `pairs` disjoint consecutive (-1, 1) blocks."""
    out = []

    def rec(start, left, acc):
        if left == 0:
            out.append(tuple(acc + [0] * (positions - len(acc))))
            return
        for pos in range(start, positions - 2 * left + 1):
            prefix = acc + [0] * (pos - len(acc)) + [-1, 1]
            rec(pos + 2, left - 1, prefix)

    rec(0, pairs, [])
    return out


def _shape_vectors(datum, k):
    """Zero-conjugated orbit shapes, straight from the classification lemmas."""
    n = datum.rank
    if datum.family == "B":
        if k % 2 == 0:
            return _domino_vectors(n, k // 2)
        return [v + (-1,) for v in _domino_vectors(n - 1, (k - 1) // 2)]
    # type D, chain weight with 2k ones; for n = 2k only the full domino
    # tiling lies in the orbit (the paired-tail shape has odd sign count)
    shapes = list(_domino_vectors(n, k))
    if n > 2 * k:
        shapes += [v + (-1, -1) for v in _domino_vectors(n - 2, k - 1)]
    return shapes


def _omega0_closed(datum, k):
    n = datum.rank
    if datum.family == "D":
        return _omega0_closed_for(n, k)
    if k == 0:
        return 1
    if k % 2 == 0:
        return comb(n - k // 2, k // 2)
    return comb(n - (k - 1) // 2 - 1, (k - 1) // 2)


def omega0_count(datum, k, cap=DEFAULT_CELL_CAP):
    """|Omega_0|: orbit points of the k-th chain weight conjugated to zero.

    Counted three ways, which must agree: the orbit scan of the k-th
    recurrence row (its ``zero_points``, read through ``_row_cached``, so one
    scan serves the row and the count), the classification shapes, and the
    closed binomial form.  For k = 0 the orbit is the single point 0, itself
    conjugated to zero.  The row raises ResourceCapError on an orbit of more
    than cap + 1 points.
    """
    if datum.family not in ("B", "D"):
        raise ValueError("zero-conjugation counts cover families B and D")
    brute = _row_cached(datum.family, datum.rank, k, cap).zero_points if k else 1
    shapes = 0
    for v in _shape_vectors(datum, k) if k > 0 else [tuple([0] * datum.rank)]:
        red = datum.reduce_to_dominant(datum.weight(tuple(2 * c for c in v)))
        if red is None or not red[0].is_zero():
            raise ArithmeticError(f"classified shape {v} is not conjugated to zero")
        shapes += 1
    closed = _omega0_closed(datum, k)
    if not brute == shapes == closed:
        raise ArithmeticError(
            f"zero-conjugation counts disagree at k={k}: brute {brute}, "
            f"shapes {shapes}, closed {closed}")
    return closed


# -- aggregation coefficients --------------------------------------------------


def _comb0(n, k):
    if k < 0 or n < 0 or k > n:
        return 0
    return comb(n, k)


@lru_cache(maxsize=None)
def _a_int_b(k, n, h):
    """Type-B aggregation integers from the alternating-binomial recursion."""
    if h > k or h <= 0:
        return 0
    if h == k:
        return 1
    acc = 0
    for j in range(h + 1, k + 1):
        acc += ((-1) ** ((j - h + 1) // 2)) * _comb0(n - j + (j - h) // 2, (j - h) // 2) \
            * _a_int_b(k, n, j)
    return -acc


@lru_cache(maxsize=None)
def _a_int_d(k, n, h):
    """Type-D aggregation integers built from the zero-orbit cardinalities."""
    if h > k or h <= 0:
        return 0
    if h == k:
        return 1
    acc = 0
    for i in range(h + 1, k + 1):
        card = _omega0_closed_for(n - 2 * h, i - h)
        acc += ((-1) ** (i - h)) * card * _a_int_d(k, n, i)
    return -acc


def _omega0_closed_for(m, j):
    if j == 0:
        return 1
    if m == 2 * j:
        return 1
    num = m * comb(m - j - 1, j - 1)
    if num % j:
        raise ArithmeticError(f"omega_0 count {num}/{j} is not an integer")
    return num // j


def a_integers(datum, k):
    """The aggregation integer table {h: A^{k,n}_h} for h = 1..k."""
    n = datum.rank
    if datum.family == "B":
        return {h: _a_int_b(k, n, h) for h in range(1, k + 1)}
    if datum.family == "D":
        return {h: _a_int_d(k, n, h) for h in range(1, k + 1)}
    raise ValueError("aggregation integers cover families B and D")


# -- closed coefficient forms (numerators over the cleared denominator) -------


def _p_qt(n):
    """p(n; q, t) = (t - q)(1 + t^(2n-2)) / t^((2n-1)/2), as a Laurent polynomial."""
    return LaurentQS({(0, 2 * n - 1): 1, (1, -(2 * n - 1)): -1,
                      (0, -(2 * n - 3)): 1, (1, 2 * n - 3): -1})


def _clear(datum, entry):
    """Multiply by t^((rho, e_1)) (t - 1), the common denominator of the coefficients."""
    return entry.scale_s(datum.rho.coords2[0]) * LaurentQS({(0, 2): 1, (0, 0): -1})


def _diag_cleared_b(n, k):
    # (1 - q t^(2n-k)) (t^k - 1)
    return LaurentQS({(0, 0): 1, (1, 2 * (2 * n - k)): -1}) \
        * LaurentQS({(0, 2 * k): 1, (0, 0): -1})


def _gamma2_cleared_b(n, m):
    # -(t - q)(t^(2m-1) - 1) t^(n-m)
    tq = LaurentQS({(0, 2): 1, (1, 0): -1})
    body = LaurentQS({(0, 2 * (2 * m - 1)): 1, (0, 0): -1})
    return -(tq * body).scale_s(2 * (n - m))


def _diag_cleared_d(n, k):
    # (t^(2k) - 1)(1 - q t^(2(n-k)-1)); for n = 2k this is the published
    # coefficient without its factor 2, which the rows force here and which
    # genexp.recur_E, solving the q = 0 form, needs to meet Lusztig's oracle
    return LaurentQS({(0, 4 * k): 1, (0, 0): -1}) \
        * LaurentQS({(0, 0): 1, (1, 2 * (2 * (n - k) - 1)): -1})


def _b_cleared_d(n, i, m):
    tq = LaurentQS({(0, 2): 1, (1, 0): -1})
    if m == 2 * i:
        # (t - q)(t^(2i) - 1) t^(n-1-i)
        body = LaurentQS({(0, 4 * i): 1, (0, 0): -1})
        return (tq * body).scale_s(2 * (n - 1 - i))
    body = LaurentQS({(0, 2 * m): 1, (0, 0): -1}) \
        * LaurentQS({(0, 2 * (m - 2 * i)): 1, (0, 0): 1})
    return (tq * body).scale_s(2 * (n - 1 - m + i))


def coefficient_table(datum, k):
    """The cleared coefficients {h: C_h(q, t)} of the k-th aggregated identity.

    The combination of rows sum_i A_i row_i (``a_integers``) has, after
    clearing by t^((rho, e_1)) (t - 1), the coefficient C_h at the chain
    weight ``chain_weight(datum, h)`` for h = 0..k and nothing else.  Pairing
    with the E-polynomials kills every row at q = 0, so
    sum_h C_h(0, t) E_h = 0, the recurrence of ``genexp.recur_E``.
    Families B and D.
    """
    n = datum.rank
    if datum.family == "B":
        table = {k: _diag_cleared_b(n, k)}
        for i in range(1, (k + 1) // 2 + 1):
            table[k - 2 * i + 1] = _gamma2_cleared_b(n, i)
        for i in range(1, k // 2 + 1):
            table[k - 2 * i] = _gamma2_cleared_b(n, n - k + i + 1)
        return table
    if datum.family == "D":
        table = {k: _diag_cleared_d(n, k)}
        for i in range(1, k + 1):
            table[k - i] = -_b_cleared_d(n, i, n - 2 * (k - i))
        return table
    raise ValueError("coefficient tables cover families B and D")


# -- the verification sweep ----------------------------------------------------


def _aggregate(datum, k, cap=DEFAULT_CELL_CAP):
    n = datum.rank
    table = a_integers(datum, k)
    acc = {}
    for i in range(1, k + 1):
        coeff = table[i]
        if coeff == 0:
            continue
        row = _row_cached(datum.family, n, i, cap)
        for key, val in row.entries.items():
            cur = acc.get(key, LaurentQS()) + coeff * val
            if cur.is_zero():
                acc.pop(key, None)
            else:
                acc[key] = cur
    return acc


def _omega0_checks(datum, k, cap, name, records=None):
    """One record per j <= k, kept in ``records``: do the three zero-conjugation counts agree?"""
    records = {} if records is None else records
    checks = []
    for j in range(1, k + 1):
        if j not in records:
            # the count reads this row; a fault of the row itself (such as an
            # entry not below the chain weight) is the row's mismatch, raised
            # here rather than recorded as a failed count
            _row_cached(datum.family, datum.rank, j, cap)
            record = []
            try:
                omega0_count(datum, j, cap=cap)
                check(record, f"{name}_k{j}", True)
            except (ZeroDivisionError, OverflowError):
                raise  # Python's own arithmetic faults are bugs, not failed counts
            except ArithmeticError as exc:
                check(record, f"{name}_k{j}", False, str(exc))
            records[j] = record
        checks += records[j]
    return checks


def _aggregate_checks(datum, k, cap, checks):
    """One record per C_h of the coefficient table, ascending in h, then one for stray keys."""
    table = coefficient_table(datum, k)
    agg = _aggregate(datum, k, cap)
    for h in sorted(table):
        got = _clear(datum, agg.get(chain_weight(datum, h), LaurentQS()))
        _record(checks, f"aggregate_coeff_C{h}", _unequal(got, table[h]))
    residual = set(agg) - {chain_weight(datum, h) for h in table}
    check(checks, "aggregate_no_residual_terms", not residual,
          f"unexpected keys {sorted(w.coords2 for w in residual)}" if residual else "")


def _lemma_checks_b(datum, k, cap, checks):
    """The type-B integer-table identities and raw-row expansion relations."""
    n = datum.rank
    at = "at (k, n, h) = {}: ".format
    _record(checks, "lem_relA_shift", _first_unequal(
        (at((k, n, h)), _a_int_b(k, n, h + 1), _a_int_b(k - 1, n - 1, h))
        for h in range(1, k + 1)))
    _record(checks, "lem_relA_diagonal", _first_unequal(
        (at((kk, kk, h)), _a_int_b(kk, kk, h),
         _a_int_b(kk - 1, kk - 1, h) + _a_int_b(kk - 2, kk - 1, h))
        for kk in range(2, k + 1) for h in range(1, kk)))
    _record(checks, "lem_relA_rank_drop", _first_unequal(
        (at((kk, n, h)), _a_int_b(kk, n, h), _a_int_b(kk, n - 1, h) + _a_int_b(kk - 2, n - 1, h))
        for kk in range(2, min(k, n - 1) + 1) for h in range(1, kk)))

    def lam_coeff(kk, nn, hh):
        if kk == 0:
            return LaurentQS() if hh == 0 else None
        d = build_root_datum("B", nn)
        row = _row_cached("B", nn, kk, cap)
        return row.entries.get(chain_weight(d, hh), LaurentQS())

    for h in range(1, k):
        s2, rem = divmod(k - h, 2)
        rhs = (-1) ** (s2 + rem) * _comb0(n - k + s2, s2) * _diag_cleared_b(n, h)
        rhs = rhs + _clear(datum, lam_coeff(k - h, n - h, 0))
        _record(checks, f"lem_expansion_h{h}", _unequal(_clear(datum, lam_coeff(k, n, h)), rhs))
    if k <= n - 1:
        s, odd = divmod(k, 2)
        rhs = (-1) ** (s + odd) * _comb0(n - s - 1 - odd, s - 1) * _p_qt(n)
        rhs = rhs - (lam_coeff(k - 2, n - 2, 0) if k - 2 > 0 else LaurentQS())
        rhs = rhs + lam_coeff(k, n - 1, 0)
        _record(checks, "lem_expansion_h0", _unequal(lam_coeff(k, n, 0), rhs))


def verify_aggregate(datum, k, cap=DEFAULT_CELL_CAP, zero_records=None):
    """Check every covered coefficient identity for the k-th chain weight.

    Returns a report dict with one pass/fail entry per identity; the engine
    rows are computed from first principles and compared against the closed
    forms of :func:`coefficient_table` after clearing the common denominator.
    ``cap`` bounds every Weyl orbit the rows and zero counts walk
    (ResourceCapError beyond it).  The reports sharing a ``zero_records``
    dict keep each j's zero-count record there, and count each j once.
    """
    n = datum.rank
    if datum.family not in ("B", "D"):
        raise ValueError("verification covers families B and D")
    type_b = datum.family == "B"
    top = chain_count(datum)
    if not 1 <= k <= top:
        raise ValueError(f"k must lie in 1..{top}")
    checks = _omega0_checks(datum, k, cap,
                            "omega0_closed_form" if type_b else "cardG0_closed_form",
                            zero_records)
    diag = _clear(datum, _row_cached(datum.family, n, k, cap).entries[chain_weight(datum, k)])
    _record(checks, "rem_lambdak_diag" if type_b else "lambda_diag",
            _unequal(diag, coefficient_table(datum, k)[k]))
    _aggregate_checks(datum, k, cap, checks)
    if type_b:
        _lemma_checks_b(datum, k, cap, checks)
    return {
        "family": datum.family,
        "rank": n,
        "k": k,
        "checks": checks,
        "all_pass": all(c["pass"] for c in checks),
    }
