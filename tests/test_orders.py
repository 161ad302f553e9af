import itertools

import pytest

from extalg.core import ResourceCapError
from extalg.orders import (coordinatewise_leq, dominance_leq, enumerate_dominant_below,
                           is_small, two_rho_minus_delta)
from extalg.rootdata import build_root_datum, weight_from_fundamental
from helpers import DATUM_GRID, weight_from_coords


@pytest.fixture(scope="module")
def c3():
    return build_root_datum("C", 3)


def test_dominance_examples(c3):
    w2 = weight_from_fundamental(c3, [0, 1, 0])
    two_w1 = weight_from_fundamental(c3, [2, 0, 0])
    assert dominance_leq(c3, w2, two_w1)
    assert dominance_leq(c3, w2, w2)
    # odd total coordinate difference violates the type-C parity
    w1 = weight_from_fundamental(c3, [1, 0, 0])
    assert not dominance_leq(c3, w1, two_w1)


def test_coordinatewise_examples(c3):
    w1 = weight_from_fundamental(c3, [1, 0, 0])
    w2 = weight_from_fundamental(c3, [0, 1, 0])
    two_w1 = weight_from_fundamental(c3, [2, 0, 0])
    assert not coordinatewise_leq(w2, two_w1)
    assert coordinatewise_leq(w1, w2)
    assert coordinatewise_leq(w2, w2)
    # the two orders disagree in both directions on these pairs
    assert dominance_leq(c3, w2, two_w1) and not coordinatewise_leq(w2, two_w1)
    assert coordinatewise_leq(w1, w2) and not dominance_leq(c3, w1, w2)


def test_dominance_requires_lattice_compatibility():
    b3 = build_root_datum("B", 3)
    spin = weight_from_fundamental(b3, [0, 0, 1])
    two_w1 = weight_from_fundamental(b3, [2, 0, 0])
    # half-integer difference: incomparable even though partial sums are fine
    assert not dominance_leq(b3, spin, two_w1)
    assert dominance_leq(b3, spin, weight_from_fundamental(b3, [1, 0, 1]))


def test_dominance_type_d_spin_condition():
    # (6,4,2,-2) passes the naive partial-sum test against 2*rho = (6,4,2,0)
    # but 2*rho - lam = 2 e_4 is not a sum of positive roots in D_4
    d4 = build_root_datum("D", 4)
    lam = weight_from_coords(d4, [6, 4, 2, -2])
    assert d4.is_dominant(lam)
    diff = (2 * d4.rho) - lam
    run, sums = 0, []
    for c in diff.coords2:
        run += c
        sums.append(run)
    assert all(s >= 0 for s in sums) and sums[-1] % 4 == 0
    assert not dominance_leq(d4, lam, 2 * d4.rho)


def test_c3_census(c3):
    # the 35 / small-4 / delta-failure-4 counts of the rank-3 symplectic example
    two_rho = 2 * c3.rho
    dom = enumerate_dominant_below(c3, two_rho)
    assert len(dom) == 35
    cw = [w for w in dom if coordinatewise_leq(w, two_rho)]
    # the printed example says 30, but exactly six of the 35 violate the
    # coordinatewise definition: (4,3,3), (4,4,4), (5,4,3), (5,5,0), (5,5,2),
    # (6,3,3) all exceed a coordinate of (6,4,2); see notes/decisions.md
    assert len(cw) == 29
    excluded = sorted(w.coords2 for w in set(dom) - set(cw))
    assert excluded == [(8, 6, 6), (8, 8, 8), (10, 8, 6), (10, 10, 0),
                        (10, 10, 4), (12, 6, 6)]
    small = [w for w in dom if is_small(c3, w)]
    assert len(small) == 4
    assert {w.coords2 for w in small} == {(0, 0, 0), (4, 0, 0), (2, 2, 0), (4, 2, 2)}


def test_enumerate_zero_bound(c3):
    assert enumerate_dominant_below(c3, c3.zero) == [c3.zero]


def test_enumerate_rejects_bad_input(c3):
    with pytest.raises(ValueError):
        enumerate_dominant_below(c3, weight_from_coords(c3, [0, 1, 0]))


def test_enumerate_downward_closed(c3):
    below = enumerate_dominant_below(c3, 2 * c3.rho)
    index = set(below)
    for mu in below:
        for nu in enumerate_dominant_below(c3, mu):
            assert nu in index


def test_poset_laws(c3):
    below = enumerate_dominant_below(c3, weight_from_fundamental(c3, [2, 1, 0]))
    for a in below:
        assert dominance_leq(c3, a, a)
        for b in below:
            if dominance_leq(c3, a, b) and dominance_leq(c3, b, a):
                assert a == b
            for c in below:
                if dominance_leq(c3, a, b) and dominance_leq(c3, b, c):
                    assert dominance_leq(c3, a, c)


def test_spin_weights_enumerated_when_lattice_allows():
    b2 = build_root_datum("B", 2)
    spin_bound = weight_from_fundamental(b2, [0, 2])  # (1,1), integral
    got = enumerate_dominant_below(b2, spin_bound)
    assert {w.coords2 for w in got} == {(0, 0), (2, 0), (2, 2)}
    # a genuinely spin bound admits only spin weights below it
    spin = weight_from_fundamental(b2, [0, 1])
    got = enumerate_dominant_below(b2, spin)
    assert {w.coords2 for w in got} == {(1, 1)}


def test_d4_enumeration_includes_mirror_weights():
    d4 = build_root_datum("D", 4)
    below = enumerate_dominant_below(d4, 2 * d4.rho)
    assert len(below) == 89
    assert any(w.coords2[-1] < 0 for w in below)
    # tau-symmetry: the set is stable under flipping the last coordinate
    index = {w.coords2 for w in below}
    assert all(v[:-1] + (-v[-1],) in index for v in index)


def test_is_small_examples(c3):
    b3 = build_root_datum("B", 3)
    assert is_small(b3, b3.zero)
    assert is_small(b3, b3.theta)            # adjoint
    assert is_small(b3, b3.theta_short)      # little adjoint
    assert is_small(c3, weight_from_fundamental(c3, [1, 0, 1]))
    assert not is_small(c3, weight_from_fundamental(c3, [1, 0, 0]))   # not in root lattice
    assert not is_small(c3, 2 * c3.theta)


def reference_is_small(datum, lam):
    """The smallness test before it read lam's simple-root coefficients once:
    the root-lattice test, then one dominance test per dominant root."""
    if not datum.in_root_lattice(lam):
        return False
    for alpha in datum.dominant_roots():
        if dominance_leq(datum, 2 * alpha, lam):
            return False
    return True


@pytest.mark.parametrize("family,rank", DATUM_GRID)
def test_is_small_matches_the_dominance_tests(family, rank):
    # every dominant weight below 2 rho (256,079 in B8), and in A, whose
    # gl-style weights may leave the sum-zero plane, the same shifted by e_1
    datum = build_root_datum(family, rank)
    below = enumerate_dominant_below(datum, 2 * datum.rho)
    if family == "A":
        shift = datum.weight((2 * (rank + 1),) + (0,) * rank)
        below += [w + shift for w in below[:200]]
    assert [is_small(datum, w) for w in below] == [reference_is_small(datum, w) for w in below]


def test_small_weights_are_coordinatewise_below(c3):
    # holds in types B and C; in type D the chain tops 2*w_{n-1}, 2*w_n are
    # small yet have a nonzero last coordinate, which 2*rho cannot bound
    for datum in (build_root_datum("B", 3), c3, build_root_datum("B", 4),
                  build_root_datum("C", 4)):
        two_rho = 2 * datum.rho
        dom = enumerate_dominant_below(datum, two_rho)
        small = [w for w in dom if is_small(datum, w)]
        cw = {w for w in dom if coordinatewise_leq(w, two_rho)}
        assert set(small) <= cw
    d4 = build_root_datum("D", 4)
    dom = enumerate_dominant_below(d4, 2 * d4.rho)
    small = {w for w in dom if is_small(d4, w)}
    cw = {w for w in dom if coordinatewise_leq(w, 2 * d4.rho)}
    assert {w.coords2 for w in small - cw} == {(2, 2, 2, 2), (2, 2, 2, -2)}


def test_two_rho_minus_delta(c3):
    w, comps = two_rho_minus_delta(c3, [])
    assert w == 2 * c3.rho and comps == 0
    w, comps = two_rho_minus_delta(c3, [3])
    assert w.coords2 == (12, 8, 0) and comps == 1     # (6,4,0)
    _, comps = two_rho_minus_delta(c3, [1, 3])
    assert comps == 2
    _, comps = two_rho_minus_delta(c3, [1, 2, 3])
    assert comps == 1
    fails = sum(
        1
        for r in range(1, 4)
        for subset in itertools.combinations([1, 2, 3], r)
        if not coordinatewise_leq(two_rho_minus_delta(c3, subset)[0], 2 * c3.rho))
    assert fails == 4
    with pytest.raises(ValueError):
        two_rho_minus_delta(c3, [4])


def test_two_rho_minus_delta_d_fork():
    # nodes n-2 and n are adjacent in the fork, n-1 and n are not
    d4 = build_root_datum("D", 4)
    assert two_rho_minus_delta(d4, [2, 4])[1] == 1
    assert two_rho_minus_delta(d4, [3, 4])[1] == 2


def reference_components(datum, subset):
    """Components of the subdiagram on ``subset``, by union-find over the diagram's edges."""
    n = datum.rank
    if datum.family == "D":
        edges = [(i, i + 1) for i in range(1, n - 1)] + [(n - 2, n)]
    else:
        edges = [(i, i + 1) for i in range(1, n)]
    parent = {i: i for i in subset}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in edges:
        if a in parent and b in parent:
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[ra] = rb
    return len({find(i) for i in subset})


def test_two_rho_minus_delta_components_match_union_find():
    # the Dynkin diagram read off the root data: every subset, empty included
    grid = ([("A", r) for r in range(1, 7)] + [("B", r) for r in range(2, 7)]
            + [("C", r) for r in range(2, 7)] + [("D", r) for r in range(3, 8)]
            + [("G2", 2)])
    checked = 0
    for family, rank in grid:
        datum = build_root_datum(family, rank)
        for size in range(rank + 1):
            for subset in itertools.combinations(range(1, rank + 1), size):
                got = two_rho_minus_delta(datum, subset)[1]
                assert got == reference_components(datum, subset), (family, rank, subset)
                checked += 1
    assert checked == 626


def test_g2_enumeration():
    g2 = build_root_datum("G2", 2)
    below = enumerate_dominant_below(g2, 2 * g2.rho_short)
    coeffs = sorted(g2.fundamental_coefficients(w) for w in below)
    assert coeffs == [(0, 0), (0, 1), (1, 0), (2, 0)]


@pytest.mark.parametrize("family,rank", [("A", 3), ("B", 3), ("C", 3), ("D", 4), ("G2", 2)])
def test_enumerate_cap_counts_the_listed_weights(family, rank):
    datum = build_root_datum(family, rank)
    bound = 2 * datum.rho
    listed = enumerate_dominant_below(datum, bound)
    count = len(listed)
    assert enumerate_dominant_below(datum, bound, cap=count) == listed
    with pytest.raises(ResourceCapError, match=f"^dominant weights .* cap {count - 1}$"):
        enumerate_dominant_below(datum, bound, cap=count - 1)


def _parity_floor(hi, parity):
    """Largest value <= hi with the given doubled-coordinate parity."""
    return hi if (hi - parity) % 2 == 0 else hi - 1


def reference_enumerate_dominant_below(datum, bound):
    """The dominant weights <= bound by the per-family walkers, sorted by coords2.

    A walks the coordinates in descending order with a fixed total; B, C and D
    walk descending nonnegative coordinates whose partial sums of bound - mu
    stay >= 0, with an even total in C and D, and D chooses its last two
    coordinates together; G2 scans the box its third coordinate allows and
    keeps what :func:`dominance_leq` accepts.
    """
    f, n = datum.family, datum.rank
    b2 = bound.coords2
    out = []
    coords = [0] * datum.dim

    if f == "G2":
        # the third coordinate of a*w1 + b*w2 is a + 2b, and the second
        # simple-root coefficient of (bound - mu) is its third-coordinate difference
        top = max(b2[2] // 2, 0)
        for a in range(top + 1):
            for b in range(top // 2 + 1):
                mu = weight_from_fundamental(datum, (a, b))
                if dominance_leq(datum, mu, bound):
                    out.append(mu)

    elif f == "A":
        total = sum(b2)

        def rec_a(k, prev2, used):
            if k == datum.dim:
                if used == total:
                    out.append(datum.weight(coords))
                return
            remaining = datum.dim - k - 1
            hi = _parity_floor(min(prev2, sum(b2[:k + 1]) - used), b2[k] % 2)
            # the tail is bounded above by c, so c*(remaining+1) >= total-used
            lo = -(-(total - used) // (remaining + 1))
            for c in range(hi, lo - 1, -2):
                coords[k] = c
                rec_a(k + 1, c, used + c)
            coords[k] = 0

        rec_a(0, 2 * sum(abs(x) for x in b2) + 2, 0)

    else:
        def rec(k, prev2, slack2):
            # slack2 = doubled partial sum of (bound - mu) over coordinates < k
            if f == "D" and k == n - 2:
                # the cone conditions on the last two coordinates are
                # (p_{n-1} - x_n)/2 >= 0 and (p_{n-1} + x_n)/2 >= 0, both integral
                hi = _parity_floor(min(prev2, b2[k] + slack2), b2[k] % 2)
                for c in range(hi, -1, -2):
                    coords[k] = c
                    p2 = slack2 + (b2[k] - c)
                    for d in range(_parity_floor(c, b2[n - 1] % 2), -c - 1, -2):
                        xn2 = b2[n - 1] - d
                        a, b = p2 - xn2, p2 + xn2
                        if a >= 0 and b >= 0 and a % 4 == 0 and b % 4 == 0:
                            coords[n - 1] = d
                            out.append(datum.weight(coords))
                    coords[n - 1] = 0
                coords[k] = 0
                return
            if k == n:
                if f == "B" or slack2 % 4 == 0:
                    out.append(datum.weight(coords))
                return
            hi = _parity_floor(min(prev2, b2[k] + slack2), b2[k] % 2)
            for c in range(hi, -1, -2):
                coords[k] = c
                rec(k + 1, c, slack2 + (b2[k] - c))
            coords[k] = 0

        rec(0, 2 * sum(abs(x) for x in b2) + 2, 0)

    return sorted(set(out), key=lambda w: w.coords2)


def _census_bounds():
    """Every dominant bound with fundamental-coefficient sum <= 5 at rank <= 3 and
    <= 3 at rank 4-5, then 2 rho, 2 rho_s and theta at rank 6."""
    grid = ([(f, r) for f in "ABC" for r in range(1, 6)]
            + [("D", r) for r in range(3, 6)] + [("G2", 2)])
    for family, rank in grid:
        datum = build_root_datum(family, rank)
        top = 5 if rank <= 3 else 3
        for coeffs in itertools.product(range(top + 1), repeat=rank):
            if sum(coeffs) <= top:
                yield datum, weight_from_fundamental(datum, coeffs)
    for family in "ABCD":
        datum = build_root_datum(family, 6)
        for bound in (2 * datum.rho, 2 * datum.rho_short, datum.theta):
            yield datum, bound


def test_census_matches_the_family_walkers():
    checked = 0
    for datum, bound in _census_bounds():
        got = enumerate_dominant_below(datum, bound)
        assert got == reference_enumerate_dominant_below(datum, bound), (datum.family,
                                                                           datum.rank, bound)
        checked += 1
    assert checked == 702
