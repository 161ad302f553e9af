import itertools
import random
import re

import pytest

from extalg import weyl_oracle
from extalg.genexp import PolyT, covered_small_weights, t_analog
from extalg.orders import enumerate_dominant_below
from extalg.rootdata import RootDatum, Weight, build_root_datum, weight_from_fundamental
from extalg.weyl_oracle import (ResourceCapError, dominant_multiplicities, freudenthal,
                                klimyk_tensor, lusztig_E, q_kostant, weyl_dim,
                                zero_weight_column)
from helpers import weight_from_coords, weyl_alternation, weyl_group_order
from reflections import apply_simple, plain_orbit2, reduce2


def _perm_sign(perm):
    sign = 1
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        j, ln = i, 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            ln += 1
        if ln % 2 == 0:
            sign = -sign
    return sign


def _weyl_elements(datum):
    """Iterate (coordinate action, determinant) over the full Weyl group (A/B/C/D)."""
    n = datum.dim
    f = datum.family
    for perm in itertools.permutations(range(n)):
        base_sign = _perm_sign(perm)
        if f == "A":
            yield perm, (1,) * n, base_sign
            continue
        for signs in itertools.product((1, -1), repeat=n):
            neg = signs.count(-1)
            if f == "D" and neg % 2:
                continue
            yield perm, signs, base_sign * (1 if neg % 2 == 0 else -1)


def reference_lusztig_E(datum, lam):
    """The signed sum over every element of W, with no term skipped."""
    shifted = tuple(a + b for a, b in zip(lam.coords2, datum.rho.coords2))
    rho2 = datum.rho.coords2
    out = PolyT.zero()
    for perm, signs, det in _weyl_elements(datum):
        img = tuple(signs[i] * shifted[perm[i]] for i in range(datum.dim))
        beta2 = tuple(a - b for a, b in zip(img, rho2))
        part = q_kostant(datum, datum.weight(beta2))
        if part:
            out = out + det * part
    return out


def reference_klimyk(datum, lam, mu):
    """The rho-shifted reduction of every cell of V_mu's weight system, each
    orbit of its dominant weights listed by the plain walk."""
    shifted = tuple(a + b for a, b in zip(lam.coords2, datum.rho.coords2))
    out = {}
    for nu, m in dominant_multiplicities(datum, mu).items():
        for v in plain_orbit2(datum, nu.coords2):
            red = reduce2(datum, tuple(a + b for a, b in zip(shifted, v)))
            if red is None:
                continue
            target, sign = red
            out[target] = out.get(target, 0) + sign * m
    return {Weight(datum.family, datum.rank, v): m for v, m in out.items() if m}


def reference_weight_system(datum, lam):
    """V_lam's weights with multiplicities in coordinate order, each orbit of
    its dominant weights listed by the plain walk."""
    cells = {v: m for nu, m in dominant_multiplicities(datum, lam).items()
             for v in plain_orbit2(datum, nu.coords2)}
    return [(Weight(datum.family, datum.rank, v), cells[v]) for v in sorted(cells)]


def reference_zero_column(datum, top):
    """m_lam(0) read off the Freudenthal table of every dominant lam below top."""
    return {lam: dominant_multiplicities(datum, lam).get(datum.zero, 0)
            for lam in enumerate_dominant_below(datum, top)}


def reference_dominant_multiplicities(datum, lam):
    """The Freudenthal recursion with every positive root walked for every weight."""
    doms = enumerate_dominant_below(datum, lam)
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
    return table


@pytest.fixture(scope="module")
def c2():
    return build_root_datum("C", 2)


@pytest.fixture(scope="module")
def b3():
    return build_root_datum("B", 3)


def test_freudenthal_examples(c2, b3):
    fr = freudenthal(c2, weight_from_fundamental(c2, [1, 0]))
    assert sum(fr.mult.values()) == 4 and all(m == 1 for m in fr.mult.values())
    assert freudenthal(c2, c2.zero).mult == {c2.zero: 1}
    b2 = build_root_datum("B", 2)
    adj = freudenthal(b2, b2.theta)
    assert adj.mult.get(b2.zero, 0) == 2 and sum(adj.mult.values()) == 10


def test_freudenthal_weyl_invariance(b3):
    fr = freudenthal(b3, b3.rho)
    for w, m in fr.mult.items():
        image = apply_simple(b3, 1, w.coords2)
        assert fr.mult[b3.weight(image)] == m


def test_freudenthal_reads_the_stable_range_sum():
    # the keys of one sum walk at (c + 1) rho, shifted back by c rho, are the
    # weight system: every dominant weight below 2 rho of A1-A3, B1-B3,
    # C1-C3, D3, D4 and G2, and theta and theta_s up to rank 6
    cases = []
    for family, ranks in [("A", range(1, 7)), ("B", range(1, 7)), ("C", range(1, 7)),
                          ("D", range(3, 7)), ("G2", (2,))]:
        for rank in ranks:
            datum = build_root_datum(family, rank)
            if rank <= 3 or (family, rank) == ("D", 4):
                cases += [(datum, lam) for lam in enumerate_dominant_below(datum, 2 * datum.rho)]
            cases += [(datum, lam) for lam in (datum.theta, datum.theta_short) if lam]
    for datum, lam in cases:
        assert list(freudenthal(datum, lam).mult.items()) == \
            reference_weight_system(datum, lam), lam


@pytest.mark.parametrize("family,rank", [("B", 3), ("D", 4)])
def test_dominant_zero_multiplicity_matches_full_system(family, rank):
    datum = build_root_datum(family, rank)
    column = zero_weight_column(datum, 2 * datum.rho)
    for lam in enumerate_dominant_below(datum, 2 * datum.rho):
        assert dominant_multiplicities(datum, lam)[datum.zero] == column[lam] == \
            freudenthal(datum, lam).mult.get(datum.zero, 0)


@pytest.mark.parametrize("family,rank", [
    ("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3), ("B", 4),
    ("C", 2), ("C", 3), ("C", 4), ("D", 4), ("G2", 2),
])
def test_zero_weight_column_matches_freudenthal(family, rank):
    datum = build_root_datum(family, rank)
    for top in (datum.rho, 2 * datum.rho):
        got = zero_weight_column(datum, top)
        want = reference_zero_column(datum, top)
        assert list(got.items()) == list(want.items()), top


@pytest.mark.parametrize("family,rank", [("A", 3), ("B", 3), ("D", 4), ("G2", 2)])
def test_zero_weight_column_cap_counts_orbit_cells(family, rank):
    datum = build_root_datum(family, rank)
    top = 2 * datum.rho
    cells = sum(len(plain_orbit2(datum, v.coords2))
                for v in enumerate_dominant_below(datum, top))
    assert zero_weight_column(datum, top, cap=cells) == reference_zero_column(datum, top)
    with pytest.raises(ResourceCapError, match=f"below .* exceed cap {cells - 1}$"):
        zero_weight_column(datum, top, cap=cells - 1)


@pytest.mark.parametrize("bump,message", [
    (lambda kappa: {kappa.coords2: 1}, "is not unitriangular"),
    (lambda kappa: {(0, 0, 0): 0 if kappa.is_zero() else 2}, "negative zero-weight multiplicity"),
])
def test_zero_weight_column_checks_its_solve(monkeypatch, bump, message):
    # a doubled diagonal entry, or an orbit sum with too much of V_0 in it
    b3 = build_root_datum("B", 3)
    real = RootDatum.regular_orbit2

    def corrupted(datum, table, shifted2):
        row = dict(real(datum, table, shifted2))
        for v, n in bump(datum.weight(next(iter(table)))).items():
            row[v] = row.get(v, 0) + n
        return row

    monkeypatch.setattr(RootDatum, "regular_orbit2", corrupted)
    # an empty memo, so that every row is walked again by the corrupted walk
    monkeypatch.setattr(weyl_oracle, "_orbit_rows", {})
    with pytest.raises(ArithmeticError, match=message):
        zero_weight_column(b3, 2 * b3.rho)


@pytest.mark.parametrize("rank", [3, 4, 5])
def test_d_twin_rows_match_their_own_walks(monkeypatch, rank):
    # a kappa with kappa_n < 0 reads the row of its twin, the last entry
    # negated, and walks no orbit of its own
    datum = build_root_datum("D", rank)
    rho2 = datum.rho.coords2
    below = enumerate_dominant_below(datum, 2 * datum.rho)
    real = RootDatum.regular_orbit2
    want = {kappa.coords2: real(datum, {kappa.coords2: 1}, rho2) for kappa in below}
    walks = []
    monkeypatch.setattr(RootDatum, "regular_orbit2",
                        lambda *args: walks.append(args) or real(*args))
    monkeypatch.setattr(weyl_oracle, "_orbit_rows", {})
    for kappa2, row in want.items():
        assert weyl_oracle.orbit_sum_row(datum, kappa2) == row, kappa2
    twins = sum(kappa2[-1] < 0 for kappa2 in want)
    assert twins > 0 and len(walks) == len(want) - twins


def test_dominant_multiplicities_preconditions(c2, b3):
    with pytest.raises(ValueError):
        dominant_multiplicities(b3, weight_from_coords(b3, [0, 1, 0]))
    with pytest.raises(ValueError):
        dominant_multiplicities(b3, c2.theta)  # DatumMismatchError


def test_weyl_dim_examples(c2, b3):
    assert weyl_dim(c2, c2.zero) == 1
    assert weyl_dim(c2, weight_from_fundamental(c2, [1, 0])) == 4
    lam = weight_from_fundamental(b3, [0, 0, 2])
    assert weyl_dim(b3, lam) == 35
    assert sum(freudenthal(b3, lam).mult.values()) == 35
    # spot values: spin(7) spinor and sp(6) little adjoint
    assert weyl_dim(b3, weight_from_fundamental(b3, [0, 0, 1])) == 8
    c3 = build_root_datum("C", 3)
    assert weyl_dim(c3, c3.theta_short) == 14
    assert weyl_dim(c3, c3.rho_short) == 64


def test_klimyk_examples(c2):
    w1 = weight_from_fundamental(c2, [1, 0])
    dec = klimyk_tensor(c2, w1, w1)
    assert {k.coords2: v for k, v in dec.items()} == {
        (4, 0): 1, (2, 2): 1, (0, 0): 1}
    lam = weight_from_fundamental(c2, [1, 1])
    assert klimyk_tensor(c2, lam, c2.zero) == {lam: 1}


def test_klimyk_rejects_non_dominant_weights():
    # -w1 + 2w2 (x) w1 + w2 used to give {} without an error
    b2 = build_root_datum("B", 2)
    lam = weight_from_fundamental(b2, [-1, 2])
    mu = weight_from_fundamental(b2, [1, 1])
    for args in ((lam, mu), (mu, lam)):
        with pytest.raises(ValueError, match="is not dominant"):
            klimyk_tensor(b2, *args)


def test_klimyk_symmetry_and_dimensions(c2):
    b3 = build_root_datum("B", 3)
    for datum, a, b in [
        (c2, [1, 0], [0, 1]),
        (b3, [1, 0, 0], [0, 0, 1]),
        (b3, [0, 1, 0], [0, 0, 1]),
    ]:
        lam = weight_from_fundamental(datum, a)
        mu = weight_from_fundamental(datum, b)
        d1 = klimyk_tensor(datum, lam, mu)
        d2 = klimyk_tensor(datum, mu, lam)
        assert d1 == d2
        total = sum(m * weyl_dim(datum, w) for w, m in d1.items())
        assert total == weyl_dim(datum, lam) * weyl_dim(datum, mu)


@pytest.mark.parametrize("family,rank", [
    ("A", 2), ("A", 3), ("B", 2), ("B", 3), ("C", 2), ("C", 3), ("D", 4), ("G2", 2),
])
def test_klimyk_matches_cell_reduction_on_small_pairs(family, rank):
    # every (lam, mu) with fundamental-coefficient sums at most 2, and 3 in
    # G2, where some leaves of the walk lie on a long-root wall
    top = 3 if family == "G2" else 2
    datum = build_root_datum(family, rank)
    weights = [weight_from_fundamental(datum, c)
               for c in itertools.product(range(top + 1), repeat=rank) if sum(c) <= top]
    for lam in weights:
        for mu in weights:
            assert klimyk_tensor(datum, lam, mu) == reference_klimyk(datum, lam, mu), (lam, mu)


@pytest.mark.parametrize("family", ["A", "B", "C", "D"])
def test_klimyk_matches_cell_reduction_on_rho_squares(family):
    for rank in range(3 if family == "D" else 1, 6):
        datum = build_root_datum(family, rank)
        for x in {datum.rho, datum.rho_short}:
            assert klimyk_tensor(datum, x, x) == reference_klimyk(datum, x, x), x


@pytest.mark.parametrize("family,rank", [("A", 4), ("B", 4), ("C", 4), ("D", 5), ("G2", 2)])
def test_klimyk_order_does_not_follow_the_multiplicity_table(family, rank, monkeypatch):
    # the walk merges the orbits of V_mu's table in the table's order; the
    # components come back in coordinate order, whatever that order is
    datum = build_root_datum(family, rank)
    for lam, mu in [(datum.rho, datum.rho), (datum.rho_short, datum.theta),
                    (datum.theta, datum.rho)]:
        want = list(klimyk_tensor(datum, lam, mu).items())
        assert [w.coords2 for w, _ in want] == sorted(w.coords2 for w, _ in want)
        table = dominant_multiplicities(datum, mu)
        key = (datum.family, datum.rank, mu.coords2)
        for seed in range(3):
            items = list(table.items())
            random.Random(seed).shuffle(items)
            monkeypatch.setitem(weyl_oracle._dominant_cache, key, dict(items))
            assert list(klimyk_tensor(datum, lam, mu).items()) == want, seed
        monkeypatch.setitem(weyl_oracle._dominant_cache, key, table)


@pytest.mark.parametrize("family,rank", [("A", 3), ("B", 3), ("C", 3), ("D", 4), ("G2", 2)])
def test_orbit_size_counts_the_orbit(family, rank):
    datum = build_root_datum(family, rank)
    below = enumerate_dominant_below(datum, 2 * datum.rho)
    for v in below:
        assert datum.orbit_size(v.coords2) == len(plain_orbit2(datum, v.coords2)), v
    if family == "D":
        # a zero entry, no zero entry, and a negative last entry all occur
        lasts = {(v.coords2[-1] > 0) - (v.coords2[-1] < 0) for v in below}
        assert lasts == {-1, 0, 1}
    if family == "G2":
        # -x is an arrangement of x (theta_s), or it is not (theta, rho)
        sizes = {v: datum.orbit_size(v.coords2)
                 for v in (datum.theta_short, datum.theta, datum.rho)}
        assert all(v in below for v in sizes)
        assert sizes == {datum.theta_short: 6, datum.theta: 6, datum.rho: 12}
        assert sorted(-c for c in datum.theta_short.coords2) == sorted(datum.theta_short.coords2)
        assert sorted(-c for c in datum.theta.coords2) != sorted(datum.theta.coords2)


def test_orbit_size_of_rho_is_the_weyl_group_order():
    # rho is regular, so W acts simply transitively on its orbit
    for family, ranks in [("A", range(1, 7)), ("B", range(1, 8)), ("C", range(1, 8)),
                          ("D", range(3, 8)), ("G2", (2,))]:
        for rank in ranks:
            datum = build_root_datum(family, rank)
            assert datum.orbit_size(datum.rho.coords2) == weyl_group_order(datum), datum


@pytest.mark.parametrize("family,rank,coeffs", [
    ("A", 3, (1, 0, 1)), ("B", 3, (1, 1, 1)), ("C", 3, (0, 1, 1)),
    ("D", 4, (0, 0, 1, 0)), ("D", 4, (1, 0, 0, 1)), ("D", 4, (0, 1, 0, 0)), ("G2", 2, (1, 1)),
])
def test_klimyk_cap_counts_weight_system_cells(family, rank, coeffs):
    datum = build_root_datum(family, rank)
    mu = weight_from_fundamental(datum, coeffs)
    cells = len(freudenthal(datum, mu).mult)
    assert klimyk_tensor(datum, mu, mu, cap=cells) == reference_klimyk(datum, mu, mu)
    with pytest.raises(ResourceCapError, match=f"weight system of .* exceeds cap {cells - 1}"):
        klimyk_tensor(datum, mu, mu, cap=cells - 1)


def test_klimyk_g2_short_tensor_square():
    g2 = build_root_datum("G2", 2)
    dec = klimyk_tensor(g2, g2.rho_short, g2.rho_short)
    below = enumerate_dominant_below(g2, 2 * g2.rho_short)
    assert set(dec) == set(below)
    assert sum(m * weyl_dim(g2, w) for w, m in dec.items()) == 49


def test_q_kostant_examples(c2):
    assert q_kostant(c2, c2.zero) == PolyT.one()
    assert q_kostant(c2, weight_from_coords(c2, [1, -1])) == PolyT.t(1)
    # 2e1 = {2e1} = {e1-e2, e1+e2} = {e1-e2, e1-e2, 2e2}: t + t^2 + t^3
    assert q_kostant(c2, weight_from_coords(c2, [2, 0])) == PolyT({1: 1, 2: 1, 3: 1})
    # off the root lattice
    assert q_kostant(c2, weight_from_coords(c2, [1, 0])).is_zero()
    assert q_kostant(c2, weight_from_coords(c2, [-1, 1])).is_zero()


def _kostant_by_multisets(datum, beta):
    """Count multisets of positive roots summing to beta directly, graded by size."""
    roots = [r.coords2 for r in datum.positive_roots]
    counts = {}

    def in_cone(w):
        cs = datum.root_coefficients2(w)
        return cs is not None and all(c >= 0 for c in cs)

    def rec(idx, v, k):
        if all(c == 0 for c in v):
            counts[k] = counts.get(k, 0) + 1
            if k == 0:
                return
        if idx == len(roots) or all(c == 0 for c in v):
            return
        r = roots[idx]
        w = v
        j = 0
        while True:
            rec(idx + 1, w, k + j)
            w = tuple(a - b for a, b in zip(w, r))
            j += 1
            if not in_cone(w):
                return

    if in_cone(beta.coords2):
        rec(0, beta.coords2, 0)
    counts.pop(0, None)
    return PolyT(counts)


def test_q_kostant_counts_by_brute_force():
    # independent check: enumerate multisets of positive roots directly
    for family, rank, coords in [
        ("B", 2, [2, 1]), ("B", 2, [3, 2]),
        ("C", 3, [2, 0, 0]), ("C", 3, [2, 2, 0]), ("C", 3, [3, 2, 1]), ("C", 3, [4, 1, -1]),
        ("D", 4, [1, 1, 0, 0]), ("D", 4, [2, 1, 1, 0]), ("D", 4, [3, 2, 1, 0]),
        ("D", 4, [2, 2, 0, 0]), ("D", 4, [1, 1, 1, -1]), ("D", 4, [2, 1, 0, -1]),
    ]:
        datum = build_root_datum(family, rank)
        beta = weight_from_coords(datum, coords)
        expected = _kostant_by_multisets(datum, beta)
        assert expected and q_kostant(datum, beta) == expected, (family, rank, coords)


def test_lusztig_examples(b3):
    assert lusztig_E(b3, b3.zero) == PolyT.one()
    assert lusztig_E(b3, b3.theta) == PolyT({1: 1, 3: 1, 5: 1})     # t (3)_{t^2}
    assert lusztig_E(b3, b3.theta_short) == PolyT.t(3)              # t^n
    c3 = build_root_datum("C", 3)
    assert lusztig_E(c3, c3.theta) == t_analog(3, 2).shift(1)
    assert lusztig_E(c3, c3.theta_short) == t_analog(2, 2).shift(2)


def test_lusztig_value_at_one_is_zero_weight_multiplicity():
    for family, rank in [("B", 2), ("C", 2), ("B", 3), ("D", 4)]:
        datum = build_root_datum(family, rank)
        for lam in (datum.theta, 2 * datum.theta_short if datum.theta_short else datum.theta):
            if not datum.in_root_lattice(lam):
                continue
            ep = lusztig_E(datum, lam)
            assert ep(1) == freudenthal(datum, lam).mult.get(datum.zero, 0)
            assert all(v > 0 for v in ep.c.values())


def test_lusztig_preconditions(b3):
    with pytest.raises(ValueError):
        lusztig_E(b3, weight_from_fundamental(b3, [0, 0, 1]))   # spin: not in root lattice
    with pytest.raises(ValueError):
        lusztig_E(b3, weight_from_coords(b3, [0, 1, 0]))         # not dominant
    with pytest.raises(ResourceCapError):
        lusztig_E(b3, b3.theta, cap=5)


def test_weyl_group_order_and_lusztig_cap():
    for family, rank in [("A", 1), ("A", 3), ("B", 2), ("B", 3), ("B", 4), ("C", 3), ("C", 4),
                         ("D", 3), ("D", 4), ("D", 5)]:
        datum = build_root_datum(family, rank)
        assert weyl_group_order(datum) == sum(1 for _ in _weyl_elements(datum))
    g2 = build_root_datum("G2", 2)
    assert weyl_group_order(g2) == len(weyl_alternation(g2)) == 12
    d4 = build_root_datum("D", 4)           # |W(D4)| = 4! 2^3 = 192
    assert lusztig_E(d4, d4.theta, cap=192) == lusztig_E(d4, d4.theta)
    with pytest.raises(ResourceCapError):
        lusztig_E(d4, d4.theta, cap=191)


@pytest.mark.parametrize("family,rank", [
    ("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3), ("B", 4),
    ("C", 2), ("C", 3), ("C", 4), ("D", 4),
])
def test_lusztig_matches_full_weyl_sum_below_two_rho(family, rank):
    # the pruned walk skips only terms whose partition function vanishes
    datum = build_root_datum(family, rank)
    weights = [lam for lam in enumerate_dominant_below(datum, 2 * datum.rho)
               if datum.in_root_lattice(lam)]
    assert weights
    for lam in weights:
        assert lusztig_E(datum, lam) == reference_lusztig_E(datum, lam), lam


@pytest.mark.parametrize("family,rank", [("B", 5), ("C", 5), ("D", 5), ("D", 6)])
def test_lusztig_matches_full_weyl_sum_on_covered_weights(family, rank):
    datum = build_root_datum(family, rank)
    for lam in covered_small_weights(datum):
        assert lusztig_E(datum, lam) == reference_lusztig_E(datum, lam), lam


@pytest.mark.parametrize("family,rank", [("A", 4), ("B", 4), ("C", 4), ("D", 5)])
def test_lusztig_walk_cuts_every_negative_prefix_sum(family, rank, monkeypatch):
    # the prefix test prunes the walk: no beta with a negative prefix sum
    # reaches the full cone test, while the tests above show that every
    # nonzero term is still reached
    datum = build_root_datum(family, rank)
    weights = [lam for lam in enumerate_dominant_below(datum, 2 * datum.rho)
               if datum.in_root_lattice(lam)]
    asked = []
    real = RootDatum.root_coefficients2

    def recording(self, x2):
        asked.append(x2)
        return real(self, x2)

    monkeypatch.setattr(RootDatum, "root_coefficients2", recording)
    for lam in weights:
        lusztig_E(datum, lam)
    assert len(asked) > len(weights)
    assert all(min(itertools.accumulate(x2)) >= 0 for x2 in asked)


def test_freudenthal_cap(b3):
    with pytest.raises(ResourceCapError):
        freudenthal(b3, 2 * b3.rho, cap=10)
    # the cap counts the cells of the weight system before listing any orbit
    for datum in (b3, build_root_datum("D", 4), build_root_datum("G2", 2)):
        lam = datum.rho
        cells = len(freudenthal(datum, lam).mult)
        assert freudenthal(datum, lam, cap=cells) == freudenthal(datum, lam)
        message = f"weight system of {lam!r} exceeds cap {cells - 1}"
        with pytest.raises(ResourceCapError, match=f"^{re.escape(message)}$"):
            freudenthal(datum, lam, cap=cells - 1)


@pytest.mark.parametrize("family,rank", [
    ("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3), ("C", 2), ("C", 3),
    ("D", 3), ("D", 4), ("G2", 2),
])
def test_dominant_multiplicities_match_root_walk_below_two_rho(family, rank):
    # same keys, values and insertion order (the height order) as the
    # recursion over every positive root
    datum = build_root_datum(family, rank)
    for lam in enumerate_dominant_below(datum, 2 * datum.rho):
        got = list(dominant_multiplicities(datum, lam).items())
        assert got == list(reference_dominant_multiplicities(datum, lam).items()), lam


@pytest.mark.parametrize("family,rank", [
    ("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3), ("B", 4),
    ("C", 2), ("C", 3), ("C", 4), ("D", 4), ("G2", 2),
])
def test_dominant_multiplicities_sum_to_the_weyl_dimension(family, rank):
    # a check that shares no step with the recursion: the orbits of the
    # dominant weights, each counted with its multiplicity, fill dim V_lam
    datum = build_root_datum(family, rank)
    for lam in enumerate_dominant_below(datum, 2 * datum.rho):
        table = dominant_multiplicities(datum, lam)
        assert sum(m * datum.orbit_size(mu.coords2) for mu, m in table.items()) == \
            weyl_dim(datum, lam), lam


@pytest.mark.parametrize("family", ["B", "C"])
def test_dominant_multiplicities_match_root_walk_rank_four(family):
    datum = build_root_datum(family, 4)
    below_rho = enumerate_dominant_below(datum, datum.rho)
    below_two_rho = enumerate_dominant_below(datum, 2 * datum.rho)
    for lam in below_rho + random.Random(9).sample(below_two_rho, 10):
        got = list(dominant_multiplicities(datum, lam).items())
        assert got == list(reference_dominant_multiplicities(datum, lam).items()), lam
