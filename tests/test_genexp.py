from fractions import Fraction

import pytest

from extalg.core import ExactDivisionError, PolyT
from extalg.genexp import (UnsupportedWeightError, closed_E, covered_small_weights, recur_E,
                           symmetric_series, t_analog, t_binomial)
from extalg.rootdata import build_root_datum, weight_from_fundamental
from extalg.weyl_oracle import freudenthal, lusztig_E


def test_polyt_arithmetic():
    p = PolyT({0: 1, 2: 3})
    q = PolyT({2: -3, 1: 1})
    assert (p + q) == PolyT({0: 1, 1: 1})
    assert (p - p).is_zero()
    assert p * PolyT.zero() == PolyT.zero()
    assert (PolyT.t(2) * PolyT.t(-2)) == PolyT.one()
    assert PolyT({0: 1, 1: 1}) ** 2 == PolyT({0: 1, 1: 2, 2: 1})
    assert p(1) == 4 and p(2) == 13
    assert repr(PolyT.zero()) == "0"


def test_polyt_evaluation_is_exact():
    # an int without negative powers, a Fraction with them; never a float
    assert PolyT({-1: 1})(2) == Fraction(1, 2)
    assert PolyT({0: 1, -1: 1})(1) == 2
    assert type(PolyT({0: 1, -1: 1})(1)) is Fraction
    assert type(PolyT({0: 1, 2: 3})(2)) is int
    assert PolyT({-2: 3, 1: 1})(-2) == Fraction(-5, 4)
    assert PolyT.zero()(5) == 0


def test_polyt_exact_division():
    num = PolyT({0: -1, 4: 1})
    assert num.exact_div(PolyT({0: -1, 2: 1})) == PolyT({0: 1, 2: 1})
    with pytest.raises(ExactDivisionError):
        PolyT({0: 1, 1: 1}).exact_div(PolyT({0: 1, 2: 1}))
    with pytest.raises(ExactDivisionError):
        PolyT({0: 2, 1: 2}).exact_div(PolyT({0: 1, 1: 4}))
    # Laurent shifts divide exactly
    assert PolyT({-1: 1, 1: 1}).exact_div(PolyT({-1: 1})) == PolyT({0: 1, 2: 1})


def test_t_analog_and_binomial():
    assert t_analog(1) == PolyT.one()
    assert t_analog(3) == PolyT({0: 1, 1: 1, 2: 1})
    assert t_binomial(3, 0) == PolyT.one()
    assert t_binomial(3, 1) == PolyT({0: 1, 1: 1, 2: 1})
    assert t_binomial(4, 2) == PolyT({0: 1, 1: 1, 2: 2, 3: 1, 4: 1})
    for n in range(8):
        for k in range(n + 1):
            assert t_binomial(n, k) == t_binomial(n, n - k)
            assert t_binomial(n, k)(1) == __import__("math").comb(n, k)
    with pytest.raises(ValueError):
        t_binomial(3, 4)


def test_binomial_identity_small():
    # (t^s - 1) C(n,s)_t = sum_j t^j (t^(n-2j) - 1) C(n,j)_t
    for n in range(1, 6):
        for s in range(1, n + 1):
            lhs = (PolyT.t(s) - PolyT.one()) * t_binomial(n, s)
            rhs = PolyT.zero()
            for j in range(s):
                rhs = rhs + ((PolyT.t(n - 2 * j) - PolyT.one()) * t_binomial(n, j)).shift(j)
            assert lhs == rhs


def test_closed_E_examples():
    b3 = build_root_datum("B", 3)
    assert closed_E(b3, weight_from_fundamental(b3, [0, 1, 0])) == PolyT({1: 1, 3: 1, 5: 1})
    assert closed_E(b3, weight_from_fundamental(b3, [1, 0, 0])) == PolyT.t(3)
    assert closed_E(b3, weight_from_fundamental(b3, [0, 0, 2])) == PolyT({2: 1, 4: 1, 6: 1})
    c3 = build_root_datum("C", 3)
    assert closed_E(c3, c3.theta_short) == PolyT({2: 1, 4: 1})
    c4 = build_root_datum("C", 4)
    assert closed_E(c4, weight_from_fundamental(c4, [0, 0, 0, 1])) == PolyT({4: 1, 8: 1})
    d4 = build_root_datum("D", 4)
    assert closed_E(d4, weight_from_fundamental(d4, [0, 0, 0, 2])) == PolyT({2: 1, 4: 1, 6: 1})
    assert closed_E(d4, weight_from_fundamental(d4, [0, 0, 2, 0])) == PolyT({2: 1, 4: 1, 6: 1})
    d5 = build_root_datum("D", 5)
    assert closed_E(d5, weight_from_fundamental(d5, [0, 0, 0, 1, 1])) \
        == lusztig_E(d5, weight_from_fundamental(d5, [0, 0, 0, 1, 1]))


def test_closed_E_unsupported():
    c3 = build_root_datum("C", 3)
    with pytest.raises(UnsupportedWeightError):
        closed_E(c3, c3.theta)                                   # 2w1: type C deferred
    with pytest.raises(UnsupportedWeightError):
        closed_E(c3, weight_from_fundamental(c3, [1, 0, 1]))     # w1 + w3
    d4 = build_root_datum("D", 4)
    with pytest.raises(UnsupportedWeightError):
        closed_E(d4, weight_from_fundamental(d4, [1, 1, 0, 0]))  # w1 + w3 family
    with pytest.raises(UnsupportedWeightError):
        closed_E(build_root_datum("A", 2), build_root_datum("A", 2).zero)


@pytest.mark.parametrize("family,rank", [
    ("B", 2), ("B", 3), ("B", 4), ("C", 2), ("C", 3), ("C", 4), ("D", 4), ("D", 5),
])
def test_recurrence_matches_closed(family, rank):
    datum = build_root_datum(family, rank)
    table = recur_E(datum)
    assert set(table) == set(covered_small_weights(datum))
    for lam, poly in table.items():
        assert poly == closed_E(datum, lam)


@pytest.mark.parametrize("family,rank,coords2", [
    ("B", 3, [(2, 0, 0), (2, 2, 0), (2, 2, 2)]),
    ("C", 5, [(2, 2, 0, 0, 0), (2, 2, 2, 2, 0)]),
    ("D", 5, [(2, 2, 0, 0, 0), (2, 2, 2, 2, 0)]),
    ("D", 6, [(2, 2, 0, 0, 0, 0), (2, 2, 2, 2, 0, 0), (2, 2, 2, 2, 2, 2)]),
])
def test_covered_small_weights_are_pinned(family, rank, coords2):
    datum = build_root_datum(family, rank)
    assert [w.coords2 for w in covered_small_weights(datum)] == coords2


def test_covered_small_weights_need_a_classical_bcd_family():
    for family, rank in [("A", 3), ("G2", 2)]:
        with pytest.raises(UnsupportedWeightError):
            covered_small_weights(build_root_datum(family, rank))


def _recur_B(datum):
    # the type-B q = 0 recurrence written out: b_i = -t^(n-i+1) (t^(2i-1) - 1),
    # c_k = t^k - 1
    n = datum.rank

    def b(i):
        return PolyT({n - i + 1 + 2 * i - 1: -1, n - i + 1: 1})

    E = {0: PolyT.one()}
    for k in range(1, n + 1):
        rhs = PolyT()
        for i in range(1, k // 2 + 1):
            rhs = rhs + b(n - k + i + 1) * E[k - 2 * i]
        for i in range(1, (k + 1) // 2 + 1):
            rhs = rhs + b(i) * E[k - 2 * i + 1]
        E[k] = (-rhs).exact_div(PolyT({k: 1, 0: -1}))
    return E


def _recur_D(datum):
    # the type-D q = 0 recurrence written out, over the cleared denominator
    # t^(n-1) (t - 1)
    n = datum.rank

    def b_cleared(i, m):
        if m == 2 * i:
            return PolyT({2 * i: 1, 0: -1}).shift(n - i)
        return (PolyT({m: 1, 0: -1}) * PolyT({m - 2 * i: 1, 0: 1})).shift(n - m + i)

    E = {0: PolyT.one()}
    for k in range(1, n // 2 + 1):
        rhs = PolyT()
        for i in range(1, k + 1):
            rhs = rhs + b_cleared(i, n - 2 * (k - i)) * E[k - i]
        E[k] = rhs.exact_div(PolyT({2 * k: 1, 0: -1}))
    return E


@pytest.mark.parametrize("family,rank", [("B", n) for n in range(1, 11)]
                         + [("D", n) for n in range(3, 13)])
def test_recurrence_is_the_written_out_q0_recurrence(family, rank):
    # recur_E reads its coefficients from recurrence.coefficient_table at q = 0
    datum = build_root_datum(family, rank)
    reference = (_recur_B if family == "B" else _recur_D)(datum)
    table = recur_E(datum)
    assert list(table) == covered_small_weights(datum)
    assert list(table.values()) == [reference[k] for k in range(1, len(table) + 1)]


def test_recurrence_base_cases_match_remark():
    # the k = 1, 2 rows reproduce E_theta_s = t^n and E_theta = t (n)_{t^2}
    for n in (2, 3, 4):
        b = build_root_datum("B", n)
        table = recur_E(b)
        assert table[b.theta_short] == PolyT.t(n)
        if n >= 2:
            theta_key = b.weight((2, 2) + (0,) * (n - 2))
            assert table[theta_key] == t_analog(n, 2).shift(1)


def test_E_at_one_is_zero_weight_dimension():
    for family, rank in [("B", 3), ("C", 3), ("D", 4)]:
        datum = build_root_datum(family, rank)
        for lam in covered_small_weights(datum):
            assert closed_E(datum, lam)(1) == freudenthal(datum, lam).mult.get(datum.zero, 0)


def test_symmetric_series():
    # degree-1 coefficient of the adjoint series is 1 (S^1 g = g)
    b2 = build_root_datum("B", 2)
    series = symmetric_series(b2, closed_E(b2, b2.theta), 3)
    assert series.c.get(1, 0) == 1
    # invariants: coefficients of prod (1 - t^(e_i+1))^-1
    inv = symmetric_series(b2, PolyT.one(), 8)
    assert [inv.c.get(k, 0) for k in range(9)] == [1, 0, 1, 0, 2, 0, 2, 0, 3]
    c2 = build_root_datum("C", 2)
    assert symmetric_series(c2, closed_E(c2, c2.theta_short), 2) == PolyT.t(2)
    # an uncovered weight takes its E-polynomial from the Weyl-group oracle
    c3 = build_root_datum("C", 3)
    s = symmetric_series(c3, lusztig_E(c3, c3.theta), 1)
    assert s.c.get(1, 0) == 1
