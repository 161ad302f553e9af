import pytest

from extalg import recurrence
from extalg.core import DEFAULT_CELL_CAP
from extalg.genexp import PolyT, closed_E
from extalg.orders import dominance_leq, enumerate_dominant_below
from extalg.recurrence import (LaurentQS, a_integers, chain_weight, coefficient_table,
                               exterior_specialization, minuscule_row,
                               omega0_count, verify_aggregate)
from extalg.rootdata import build_root_datum
from extalg.weyl_oracle import ResourceCapError
from helpers import weight_from_coords
from reflections import apply_simple, reduce2


def reference_minuscule_row_entries(datum, lam):
    """Row entries by breadth-first search over the simple reflections.

    Walks the orbit of e_1 under the stabilizer of lam, then the orbit of lam,
    carrying every e_1 image through each reflection.
    """
    q_exp = lam.coords2[0] // 2
    e1 = (2,) + (0,) * (datum.dim - 1)
    stab = [i for i in range(1, datum.rank + 1) if datum.pairing2(i, lam.coords2) == 0]
    orbit = {e1}
    frontier = [e1]
    while frontier:
        nxt = []
        for v in frontier:
            for i in stab:
                w = apply_simple(datum, i, v)
                if w not in orbit:
                    orbit.add(w)
                    nxt.append(w)
        frontier = nxt
    seen = {lam.coords2: tuple(sorted(orbit))}
    frontier = [lam.coords2]
    while frontier:
        nxt = []
        for vec in frontier:
            for i in range(1, datum.rank + 1):
                w = apply_simple(datum, i, vec)
                if w not in seen:
                    seen[w] = tuple(apply_simple(datum, i, p) for p in seen[vec])
                    nxt.append(w)
        frontier = nxt

    rho2 = datum.rho.coords2
    entries = {}
    for vec, imgs in seen.items():
        red = datum.reduce_to_dominant(datum.weight(vec))
        if red is None:
            continue
        target, sign = red
        inner = LaurentQS()
        for psi in imgs:
            s_exp = datum.dot2(rho2, psi) // 2
            inner = inner + LaurentQS({(0, -s_exp): 1, (q_exp, s_exp): -1})
        entry = entries.get(target, LaurentQS()) + sign * inner
        if entry.is_zero():
            entries.pop(target, None)
        else:
            entries[target] = entry
    return entries


def reference_zero_points(datum, lam):
    """Orbit points v of lam with v + rho conjugated to rho, by a scan of their own."""
    rho2 = datum.rho.coords2
    count = 0
    for vec in datum.orbit2(lam.coords2):
        red = reduce2(datum, tuple(a + b for a, b in zip(vec, rho2)))
        if red is not None and not any(red[0]):
            count += 1
    return count


@pytest.fixture(scope="module")
def b3():
    return build_root_datum("B", 3)


def test_laurent_arithmetic():
    a = LaurentQS({(0, 1): 1, (1, -1): -1})
    b = LaurentQS({(0, -1): 2})
    assert (a + (-a)).is_zero()
    assert a * b == LaurentQS({(0, 0): 2, (1, -2): -2})
    assert a.scale_s(2) == LaurentQS({(0, 3): 1, (1, 1): -1})
    assert a.q_at_zero() == LaurentQS({(0, 1): 1})
    assert LaurentQS({(0, 4): 3}).to_t_poly() == PolyT({2: 3})
    with pytest.raises(ValueError):
        LaurentQS({(0, 3): 1}).to_t_poly()
    with pytest.raises(ValueError):
        LaurentQS({(1, 2): 1}).to_t_poly()


def test_row_diagonal_b3_k2(b3):
    # (1 - q t^4)(t^2 - 1) / (t^(5/2) (t - 1)) = s^-5 + s^-3 - q s^3 - q s^5
    row = minuscule_row(b3, chain_weight(b3, 2))
    diag = row.entries[chain_weight(b3, 2)]
    assert diag == LaurentQS({(0, -5): 1, (0, -3): 1, (1, 3): -1, (1, 5): -1})


def test_row_b3_k1_two_terms(b3):
    row = minuscule_row(b3, chain_weight(b3, 1))
    assert set(row.entries) == {chain_weight(b3, 1), b3.zero}
    # Gamma^{1,3}_0 = -(t - q)/t^(1/2)
    assert row.entries[b3.zero] == LaurentQS({(0, 1): -1, (1, -1): 1})
    assert row.entries[chain_weight(b3, 1)] == LaurentQS({(0, -5): 1, (1, 5): -1})


def test_row_preconditions(b3):
    with pytest.raises(ValueError):
        minuscule_row(b3, b3.zero)
    with pytest.raises(ValueError):
        minuscule_row(build_root_datum("C", 3), build_root_datum("C", 3).theta_short)
    with pytest.raises(ValueError):
        minuscule_row(b3, weight_from_coords(b3, [0, 1, 0]))


def test_row_orbit_cap(b3):
    lam = chain_weight(b3, 2)   # orbit of (1,1,0): 12 points
    with pytest.raises(ResourceCapError):
        minuscule_row(b3, lam, cap=5)
    assert minuscule_row(b3, lam, cap=12).entries


@pytest.mark.parametrize("family,rank,coords", [
    ("B", 3, (2, 2, 0)), ("B", 4, (2, 2, 2, 2)), ("B", 4, (4, 2, 2, 0)),
    ("D", 4, (2, 2, 2, 2)), ("D", 4, (2, 2, 2, -2)), ("D", 5, (2, 2, 0, 0, 0)),
    ("D", 6, (4, 2, 2, 2, 2, 0)),
])
def test_orbit_cap_counts_the_orbit(family, rank, coords):
    # the cap needs the orbit size before listing it; it raises from cap + 1
    # points on, exactly when the orbit has more than cap + 1 points
    datum = build_root_datum(family, rank)
    lam = datum.weight(coords)
    size = len(datum.orbit2(coords))
    assert minuscule_row(datum, lam, cap=size - 1).entries
    with pytest.raises(ResourceCapError):
        minuscule_row(datum, lam, cap=size - 2)


def test_zero_counts_and_verification_honour_the_cap(b3):
    assert omega0_count(b3, 2, cap=11) == 2
    with pytest.raises(ResourceCapError, match=r"^orbit of W\[B3\]\(1,1,0\) exceeds cap 10$"):
        omega0_count(b3, 2, cap=10)
    assert verify_aggregate(b3, 2, cap=11)["all_pass"]
    with pytest.raises(ResourceCapError):
        verify_aggregate(b3, 2, cap=10)    # row and zero count of (1,1,0)
    # a row cached under the default cap is not reused under a smaller one
    assert verify_aggregate(b3, 1)["all_pass"]
    with pytest.raises(ResourceCapError):
        verify_aggregate(b3, 1, cap=4)     # orbit of (1,0,0): 6 points


@pytest.mark.parametrize("family,ranks", [("B", range(2, 10)), ("D", range(4, 13))])
def test_row_matches_reflection_search_on_chain_weights(family, ranks):
    for rank in ranks:
        datum = build_root_datum(family, rank)
        for k in range(1, (rank if family == "B" else rank // 2) + 1):
            lam = chain_weight(datum, k)
            row = minuscule_row(datum, lam)
            assert row.entries == reference_minuscule_row_entries(datum, lam), (rank, k)
            assert row.zero_points == reference_zero_points(datum, lam), (rank, k)


@pytest.mark.parametrize("family,rank", [("B", 2), ("B", 3), ("B", 4), ("D", 4)])
def test_row_matches_reflection_search_below_two_rho(family, rank):
    # includes weights such as (1,1,1,-1) in D4, whose stabilizer holds s_n
    datum = build_root_datum(family, rank)
    weights = [lam for lam in enumerate_dominant_below(datum, 2 * datum.rho)
               if not lam.is_zero() and lam.coords2[0] % 2 == 0]
    assert weights
    if family == "D":
        assert datum.weight((2, 2, 2, -2)) in weights
    for lam in weights:
        row = minuscule_row(datum, lam)
        assert row.entries == reference_minuscule_row_entries(datum, lam), lam
        assert row.zero_points == reference_zero_points(datum, lam), lam


def test_failing_zero_count_reports_on_every_k(monkeypatch):
    # a zero-conjugation count that fails at k = 1 fails again for every later k
    from extalg import recurrence
    closed = recurrence._omega0_closed
    monkeypatch.setattr(recurrence, "_omega0_closed",
                        lambda datum, k: closed(datum, k) + (k == 1))
    d6 = build_root_datum("D", 6)
    for k in (1, 2, 3):
        checks = {c["name"]: c for c in verify_aggregate(d6, k)["checks"]}
        assert not checks["cardG0_closed_form_k1"]["pass"]
        assert "closed 7" in checks["cardG0_closed_form_k1"]["detail"]
        assert all(checks[f"cardG0_closed_form_k{j}"]["pass"] for j in range(2, k + 1))


def _shift_s(orig):
    return lambda *args: orig(*args).scale_s(1)


def _shift_by_h(orig):
    return lambda k, n, h: orig(k, n, h) + h


@pytest.mark.parametrize("name, shifted, family, rank", [
    ("_diag_cleared_b", _shift_s, "B", 4),
    ("_gamma2_cleared_b", _shift_s, "B", 4),
    ("_b_cleared_d", _shift_s, "D", 6),
    ("_a_int_b", _shift_by_h, "B", 4),
])
def test_failed_coefficient_checks_name_a_counterexample(monkeypatch, name, shifted,
                                                         family, rank):
    from extalg import recurrence
    a_int_b = recurrence._a_int_b   # a shifted recursion would write into its cache
    monkeypatch.setattr(recurrence, name, shifted(getattr(recurrence, name)))
    recurrence._row_cached.cache_clear()
    try:
        datum = build_root_datum(family, rank)
        kmax = rank if family == "B" else rank // 2
        records = [c for k in range(1, kmax + 1) for c in verify_aggregate(datum, k)["checks"]]
    finally:
        recurrence._row_cached.cache_clear()
        a_int_b.cache_clear()
    failed = [c for c in records if not c["pass"]]
    assert failed
    for c in failed:
        assert c["detail"], c["name"]
        if c["name"].startswith("lem_relA_"):
            assert c["detail"].startswith("at (k, n, h) = ("), c
        elif not c["name"].startswith("aggregate_no_residual"):
            assert "got " in c["detail"] and ", want " in c["detail"], c
    assert all(c["detail"] == "" for c in records if c["pass"])


def test_row_entries_strictly_below(b3):
    d5 = build_root_datum("D", 5)
    for datum, k in [(b3, 2), (b3, 3), (d5, 2)]:
        lam = chain_weight(datum, k)
        row = minuscule_row(datum, lam)
        for key in row.entries:
            if key != lam:
                assert dominance_leq(datum, key, lam) and key != lam


def test_omega0_counts(b3):
    assert omega0_count(b3, 2) == 2            # binom(n-1, 1) at n = 3
    assert omega0_count(b3, 0) == 1
    assert omega0_count(b3, 1) == 1
    assert omega0_count(b3, 3) == 1
    b5 = build_root_datum("B", 5)
    assert omega0_count(b5, 4) == 3            # binom(5-2, 2)
    d5 = build_root_datum("D", 5)
    assert omega0_count(d5, 2) == 5            # (5/2) binom(2,1)
    d4 = build_root_datum("D", 4)
    assert omega0_count(d4, 1) == 4
    assert omega0_count(d4, 2) == 1            # lam = 2 w_n


@pytest.mark.parametrize("family,ranks", [("B", range(1, 10)), ("D", range(3, 13))])
def test_row_counts_the_zero_points_of_its_orbit(family, ranks):
    # the row's one orbit scan also yields |Omega_0|, which omega0_count reads
    for rank in ranks:
        datum = build_root_datum(family, rank)
        for k in range(1, (rank if family == "B" else rank // 2) + 1):
            row = recurrence._row_cached(family, rank, k, DEFAULT_CELL_CAP)
            assert row.zero_points == reference_zero_points(datum, row.lam) \
                == recurrence._omega0_closed(datum, k), (rank, k)


def test_row_fault_is_a_mismatch_not_a_failed_count(monkeypatch):
    # the zero-count checks record a failed count as a check, but a fault of
    # the row they read raises as the row's own ArithmeticError
    monkeypatch.setattr(recurrence, "dominance_leq", lambda *args: False)
    recurrence._row_cached.cache_clear()
    try:
        d6 = build_root_datum("D", 6)
        with pytest.raises(ArithmeticError, match=r"^row entry .* is not below W\[D6\]"):
            recurrence._omega0_checks(d6, 1, DEFAULT_CELL_CAP, "cardG0_closed_form")
    finally:
        recurrence._row_cached.cache_clear()


def test_a_integers(b3):
    b4 = build_root_datum("B", 4)
    for n, datum in [(3, b3), (4, b4)]:
        for k in range(1, n + 1):
            table = a_integers(datum, k)
            assert table[k] == 1
            if k >= 2:
                assert table[1] == a_integers(datum, 2)[1] if k == 2 else True
    assert a_integers(b4, 2)[1] == 1           # A^{2,n}_1 = 1 for all n
    assert a_integers(b3, 2)[1] == 1
    # shift relation A^{k,n}_{h+1} = A^{k-1,n-1}_h
    b5 = build_root_datum("B", 5)
    for k in range(2, 5):
        upper = a_integers(b5, k)
        lower = a_integers(b4, k - 1)
        for h in range(1, k):
            assert upper[h + 1] == lower[h]


@pytest.mark.parametrize("family,rank,kmax", [
    ("B", 3, 3), ("B", 4, 4), ("D", 4, 2), ("D", 5, 2),
])
def test_verify_aggregate(family, rank, kmax):
    datum = build_root_datum(family, rank)
    for k in range(1, kmax + 1):
        rep = verify_aggregate(datum, k)
        failed = [c["name"] for c in rep["checks"] if not c["pass"]]
        assert rep["all_pass"], failed


@pytest.mark.parametrize("family,rank,kmax", [
    ("B", 3, 3), ("B", 4, 4), ("D", 4, 2), ("D", 5, 2),
])
def test_rows_annihilate_exponent_vector_at_q0(family, rank, kmax):
    # substituting the true E-polynomials at q = 0 kills every reduced row
    datum = build_root_datum(family, rank)
    for k in range(1, kmax + 1):
        row = minuscule_row(datum, chain_weight(datum, k))
        acc = LaurentQS()
        for key, entry in row.entries.items():
            if key.is_zero():
                e_poly = PolyT.one()
            else:
                e_poly = closed_E(datum, key)
            acc = acc + entry.q_at_zero() * LaurentQS.from_t_poly(e_poly)
        assert acc.is_zero()


def test_gamma_shift_relation(b3):
    # on aggregated output: Gamma_h^{k,n} = Gamma_0^{k-h, n-h} for 0 < h < k,
    # realized as equality of the aggregate coefficient with the closed form
    # of the lower-rank zero-coefficient after clearing denominators
    from extalg.recurrence import _aggregate, _clear, _gamma2_cleared_b
    n, k = 3, 3
    agg = _aggregate(b3, k)
    got = _clear(b3, agg[chain_weight(b3, 1)])   # h = 1, k - h = 2
    assert got == _gamma2_cleared_b(n, 2)
    got = _clear(b3, agg[chain_weight(b3, 2)])   # h = 2, k - h = 1
    assert got == _gamma2_cleared_b(n, 1)


def test_exterior_specialization_column():
    lq = LaurentQS({(0, 2): 1, (1, -1): -1})      # t - q/s
    assert exterior_specialization(lq) == PolyT({2: 1, 0: 1})
    row = minuscule_row(build_root_datum("B", 2), chain_weight(build_root_datum("B", 2), 1))
    for entry in row.entries.values():
        exterior_specialization(entry)  # smoke: defined on every entry


def test_verify_ranges():
    b3 = build_root_datum("B", 3)
    with pytest.raises(ValueError):
        verify_aggregate(b3, 4)
    d4 = build_root_datum("D", 4)
    with pytest.raises(ValueError):
        verify_aggregate(d4, 3)
    with pytest.raises(ValueError):
        verify_aggregate(build_root_datum("C", 3), 1)
    with pytest.raises(ValueError):
        coefficient_table(build_root_datum("C", 3), 1)
