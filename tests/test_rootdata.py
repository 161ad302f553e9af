import random
from collections import Counter
from itertools import accumulate

import pytest

from extalg.gpartitions import GPartition
from extalg.orders import enumerate_dominant_below
from extalg.rootdata import (ConfigurationError, DatumMismatchError,
                             build_root_datum, weight_from_fundamental)
from extalg.weyl_oracle import dominant_multiplicities
from helpers import DATUM_GRID, weight_from_coords
from reflections import apply_simple, chamber2, dfs_regular_orbit2, plain_orbit2, reduce2


def test_rho_realizations():
    assert build_root_datum("C", 3).rho.coords2 == (6, 4, 2)        # (3,2,1)
    assert build_root_datum("B", 3).rho.coords2 == (5, 3, 1)        # (5/2,3/2,1/2)
    assert build_root_datum("D", 4).rho.coords2 == (6, 4, 2, 0)     # (3,2,1,0)


@pytest.mark.parametrize("family,rank,count", [
    ("B", 2, 4), ("B", 3, 9), ("B", 4, 16),
    ("C", 2, 4), ("C", 3, 9), ("C", 4, 16),
    ("D", 3, 6), ("D", 4, 12), ("D", 5, 20),
    ("G2", 2, 6), ("A", 3, 6),
])
def test_positive_root_counts(family, rank, count):
    assert len(build_root_datum(family, rank).positive_roots) == count


@pytest.mark.parametrize("family,rank", [
    ("B", 2), ("B", 4), ("C", 3), ("D", 4), ("D", 5), ("G2", 2),
])
def test_rho_is_half_sum(family, rank):
    datum = build_root_datum(family, rank)
    acc = [0] * datum.dim
    for r in datum.positive_roots:
        for i, c in enumerate(r.coords2):
            acc[i] += c
    assert tuple(acc) == tuple(2 * c for c in datum.rho.coords2)
    acc = [0] * datum.dim
    short = {r.coords2 for r in datum.positive_roots
             if datum.dot2(r.coords2, r.coords2)
             == min(datum.dot2(s.coords2, s.coords2) for s in datum.positive_roots)}
    for r in short:
        for i, c in enumerate(r):
            acc[i] += c
    assert tuple(acc) == tuple(2 * c for c in datum.rho_short.coords2)


def test_rho_is_half_sum_type_a_mod_center():
    # gl-style realization: the half-sum statement holds exactly with the
    # symmetric rho chosen here
    datum = build_root_datum("A", 3)
    acc = [0] * datum.dim
    for r in datum.positive_roots:
        for i, c in enumerate(r.coords2):
            acc[i] += c
    assert tuple(acc) == tuple(2 * c for c in datum.rho.coords2)


@pytest.mark.parametrize("family,rank", [
    ("B", 3), ("C", 3), ("D", 4), ("G2", 2), ("A", 2),
])
def test_theta_is_unique_maximal_root(family, rank):
    from extalg.orders import dominance_leq
    datum = build_root_datum(family, rank)
    theta = datum.theta
    assert theta in datum.positive_roots
    for alpha in datum.positive_roots:
        assert dominance_leq(datum, alpha, theta)
    # short dominant root where present
    if datum.theta_short is not None:
        assert datum.is_dominant(datum.theta_short)


@pytest.mark.parametrize("family,rank,exps,h", [
    ("B", 3, (1, 3, 5), 6), ("C", 4, (1, 3, 5, 7), 8),
    ("D", 4, (1, 3, 3, 5), 6), ("D", 5, (1, 3, 4, 5, 7), 8),
    ("G2", 2, (1, 5), 6), ("A", 3, (1, 2, 3), 4),
])
def test_exponents_and_coxeter(family, rank, exps, h):
    datum = build_root_datum(family, rank)
    assert datum.exponents == exps
    assert datum.coxeter_number == h
    # sum of exponents equals the number of positive roots
    assert sum(exps) == len(datum.positive_roots)


# -- the derived fields against the per-family formulas ---------------------
#
# The library declares the roots and reads rho, rho_s, theta, theta_s, the
# exponents, the Coxeter number and the short-simple count off them; the
# closed formulas per family are the reference, so a wrong declared root
# shows here.


def reference_fields(family, n):
    """(dim, rho2, rho_s2, theta2, theta_s2, h, short-simple count) by hand."""
    def e(i, val=2):
        return tuple(val if k == i else 0 for k in range(1, n + 1))

    def e_plus(i, j):
        return tuple(a + b for a, b in zip(e(i), e(j)))

    if family == "G2":
        return 3, (-2, -4, 6), (0, -2, 2), (-2, -2, 4), (0, -2, 2), 6, 1
    if family == "A":
        rho2 = tuple(n - 2 * (i - 1) for i in range(1, n + 2))
        theta2 = (2,) + (0,) * (n - 1) + (-2,)
        return n + 1, rho2, rho2, theta2, None, n + 1, n
    if family == "B":
        return (n, tuple(2 * (n - i) + 1 for i in range(1, n + 1)), (1,) * n,
                e_plus(1, 2) if n >= 2 else e(1), e(1), 2 * n, 1)
    if family == "C":
        return (n, tuple(2 * (n - i + 1) for i in range(1, n + 1)),
                tuple(2 * (n - i) for i in range(1, n + 1)), e(1, 4),
                e_plus(1, 2) if n >= 2 else None, 2 * n, n - 1)
    rho2 = tuple(2 * (n - i) for i in range(1, n + 1))
    return n, rho2, rho2, e_plus(1, 2), None, 2 * n - 2, n


def reference_exponents(family, n):
    """The exponents of each family, as tabulated (Bourbaki, Ch. VI, Planches)."""
    if family == "G2":
        return (1, 5)
    if family == "A":
        return tuple(range(1, n + 1))
    odd = tuple(range(1, 2 * n, 2))
    return odd if family in "BC" else tuple(sorted(odd[:-1] + (n - 1,)))


@pytest.mark.parametrize("family,rank", DATUM_GRID)
def test_derived_fields_match_the_hand_formulas(family, rank):
    datum = build_root_datum(family, rank)
    theta_s = datum.theta_short.coords2 if datum.theta_short is not None else None
    assert (datum.dim, datum.rho.coords2, datum.rho_short.coords2, datum.theta.coords2,
            theta_s, datum.coxeter_number, datum.num_short_simple) \
        == reference_fields(family, rank)
    # the exponents are read off the root heights (Kostant's dual partition)
    assert datum.exponents == reference_exponents(family, rank)


# -- the coroot pairing and the simple-root coordinates against the hand
# formulas ------------------------------------------------------------------
#
# The library reads both off the declared simple roots and fundamental
# weights; these are the per-family formulas they replaced.


def reference_pairing2(datum, i, x2):
    f, n = datum.family, datum.rank
    if f == "A":
        return x2[i - 1] - x2[i]
    if f in ("B", "C", "D"):
        if i < n:
            return x2[i - 1] - x2[i]
        if f == "B":
            return 2 * x2[n - 1]
        if f == "C":
            return x2[n - 1]
        return x2[n - 2] + x2[n - 1]
    # G2: alpha_1 = e1 - e2 (short), alpha_2 = -2e1 + e2 + e3 (long)
    if i == 1:
        return x2[0] - x2[1]
    return -x2[0]


def reference_root_coefficients2(datum, x2):
    f, n = datum.family, datum.rank
    if any(c % 2 for c in x2):
        return None
    x = [c // 2 for c in x2]
    if f == "A":
        if sum(x) != 0:
            return None
        out, run = [], 0
        for k in range(n):
            run += x[k]
            out.append(run)
        return tuple(out)
    if f == "G2":
        return (x[0] + 2 * x[2], x[2])
    prefix = []
    run = 0
    for c in x:
        run += c
        prefix.append(run)
    if f == "B":
        return tuple(prefix)
    if f == "C":
        if prefix[-1] % 2:
            return None
        return tuple(prefix[:-1]) + (prefix[-1] // 2,)
    # D
    a = prefix[-2] - x[-1]
    b = prefix[-2] + x[-1]
    if a % 2 or b % 2:
        return None
    return tuple(prefix[:-2]) + (a // 2, b // 2)


def assert_pairing_and_coefficients_match(datum, x2):
    for i in range(1, datum.rank + 1):
        assert datum.pairing2(i, x2) == reference_pairing2(datum, i, x2), (i, x2)
    assert datum.root_coefficients2(x2) == reference_root_coefficients2(datum, x2), x2


def weight_from_roots(datum, coeffs):
    return tuple(sum(c * a.coords2[k] for c, a in zip(coeffs, datum.simple_roots))
                 for k in range(datum.dim))


@pytest.mark.parametrize("family,rank", DATUM_GRID)
def test_pairing_and_coefficients_match_the_hand_formulas(family, rank):
    datum = build_root_datum(family, rank)
    named = [*datum.simple_roots, *datum.positive_roots, *datum.fundamental_weights]
    if rank <= 4:
        top = 2 * datum.rho
        for w in enumerate_dominant_below(datum, top):
            named += [w, top - w]
    for w in named:
        assert_pairing_and_coefficients_match(datum, w.coords2)
    # odd entries, and for A and G2 vectors off the sum-zero span of the roots
    rng = random.Random(f"coroots {family}{rank}")
    for _ in range(200):
        x2 = [rng.randint(-9, 9) for _ in range(datum.dim)]
        if datum.dim > rank:
            x2[-1] = -sum(x2[:-1])
        assert_pairing_and_coefficients_match(datum, tuple(x2))
        if datum.dim > rank:
            x2[rng.randrange(datum.dim)] += rng.choice((-3, -2, -1, 1, 2, 3))
            x2 = tuple(x2)
            for i in range(1, rank + 1):
                assert datum.pairing2(i, x2) == reference_pairing2(datum, i, x2), (i, x2)
            # off the span no simple-root coordinates exist; the G2 formula
            # returned some anyway, of a vector other than x2
            assert datum.root_coefficients2(x2) is None, x2
            ref = reference_root_coefficients2(datum, x2)
            if ref is not None:
                assert family == "G2"
                assert weight_from_roots(datum, ref) != x2


@pytest.mark.parametrize("family,rank", DATUM_GRID)
def test_fundamental_weights_and_simple_roots_are_dual(family, rank):
    # the pairing is read off the simple roots and the coordinates off the
    # fundamental weights, so a wrong declared weight shows here
    datum = build_root_datum(family, rank)
    for j in range(rank):
        unit = tuple(int(k == j) for k in range(rank))
        assert datum.fundamental_coefficients(datum.fundamental_weights[j]) == unit
        assert datum.root_coefficients2(datum.simple_roots[j].coords2) == unit


def test_weight_from_fundamental_examples():
    c3 = build_root_datum("C", 3)
    assert weight_from_fundamental(c3, [0, 0, 2]).coords2 == (4, 4, 4)
    b3 = build_root_datum("B", 3)
    assert weight_from_fundamental(b3, [4, 0, 2]).coords2 == (10, 2, 2)   # (5,1,1)
    assert weight_from_fundamental(b3, [0, 0, 2]).coords2 == (2, 2, 2)    # (1,1,1)
    with pytest.raises(ValueError):
        weight_from_fundamental(b3, [1, 0])


def test_non_integral_weights_are_refused():
    # int() would truncate these to W[B3](1,1/2,0) and W[B3](1/2,0,0), the
    # latter no weight of B3
    b3 = build_root_datum("B", 3)
    with pytest.raises(ValueError, match="non-integral doubled coordinates"):
        b3.weight((2.7, 1.2, 0.5))
    with pytest.raises(ValueError, match="non-integral fundamental coefficients"):
        weight_from_fundamental(b3, [0.5, 0, 0])
    # nor may a g-partition entry be truncated to the zero partition
    with pytest.raises(ValueError, match="non-integral g-partition entries"):
        GPartition.from_flat("B", 2, [0.5, 0, 0, 0])
    assert GPartition.from_flat("B", 2, [1.0, 0, 0, 2.0]) == GPartition.from_flat("B", 2, [1, 0, 0, 2])
    # integral values of another type still name their weight
    assert b3.weight((2.0, 1.0, 0.0)) == b3.weight((2, 1, 0))
    assert weight_from_fundamental(b3, [1.0, 0, 2.0]) == weight_from_fundamental(b3, [1, 0, 2])


def test_fundamental_coefficients_roundtrip():
    for family, rank in [("B", 3), ("C", 3), ("D", 4), ("G2", 2)]:
        datum = build_root_datum(family, rank)
        for coeffs in [(1, 0) + (0,) * (rank - 2), (2,) * rank, (0, 1) + (0,) * (rank - 2)]:
            w = weight_from_fundamental(datum, coeffs)
            assert datum.fundamental_coefficients(w) == tuple(coeffs)


def test_reduce_examples():
    b6 = build_root_datum("B", 6)
    mu = weight_from_coords(b6, [0, 0, -1, 1, 0, 0])
    red = b6.reduce_to_dominant(mu)
    assert red is not None and red[0].is_zero() and red[1] == -1

    b3 = build_root_datum("B", 3)
    lam = weight_from_fundamental(b3, [1, 1, 0])
    assert b3.reduce_to_dominant(lam) == (lam, 1)

    b2 = build_root_datum("B", 2)
    assert b2.reduce_to_dominant(weight_from_coords(b2, [-1, 0])) is None


@pytest.mark.parametrize("family,rank", [("B", 2), ("B", 3), ("C", 3), ("D", 3), ("G2", 2)])
def test_reduce_recovers_shifted_orbit(family, rank):
    # for every Weyl image of lam + rho, reduction recovers lam with the
    # parity of the conjugating element
    datum = build_root_datum(family, rank)
    lam = weight_from_fundamental(datum, (1,) * rank)
    shifted = tuple(a + b for a, b in zip(lam.coords2, datum.rho.coords2))
    for image in plain_orbit2(datum, shifted):
        mu = datum.weight(tuple(a - b for a, b in zip(image, datum.rho.coords2)))
        red = datum.reduce_to_dominant(mu)
        assert red is not None
        assert red[0] == lam


def test_reduce_sign_is_determinant():
    # a single sign flip on the last coordinate of B2 has length 1
    b2 = build_root_datum("B", 2)
    v = weight_from_coords(b2, [2, -1])   # (2,-1)+rho = (7/2,-1/2) -> flip last
    red = b2.reduce_to_dominant(v)
    assert red == (weight_from_coords(b2, [2, 0]), -1)


def test_configuration_errors():
    with pytest.raises(ConfigurationError):
        build_root_datum("D", 2)
    with pytest.raises(ConfigurationError):
        build_root_datum("G2", 3)
    with pytest.raises(ConfigurationError):
        build_root_datum("E", 6)


@pytest.mark.parametrize("family", "ABCD")
def test_rank_guard_refuses_before_listing_roots(family):
    # the roots of rank n hold about n**3 coordinates: 171**3 passes the
    # default cell cap, 170**3 does not
    for rank in (171, 10 ** 6):
        with pytest.raises(ConfigurationError, match=f"rank {rank} too large"):
            build_root_datum(family, rank)


def test_weight_algebra_and_mismatch():
    b3 = build_root_datum("B", 3)
    c3 = build_root_datum("C", 3)
    w = b3.rho
    assert (w + w).coords2 == (2 * w).coords2
    assert (w - w).is_zero()
    with pytest.raises(DatumMismatchError):
        _ = b3.rho + c3.rho
    assert w.pretty() == "(5/2,3/2,1/2)"


def test_root_lattice_membership():
    b3 = build_root_datum("B", 3)
    assert b3.in_root_lattice(weight_from_coords(b3, [1, 1, 0]))
    assert not b3.in_root_lattice(weight_from_fundamental(b3, [0, 0, 1]))  # spin
    c3 = build_root_datum("C", 3)
    assert not c3.in_root_lattice(weight_from_fundamental(c3, [1, 0, 0]))  # odd sum
    assert c3.in_root_lattice(weight_from_fundamental(c3, [2, 0, 0]))
    a2 = build_root_datum("A", 2)
    assert a2.in_root_lattice(a2.theta)
    assert not a2.in_root_lattice(weight_from_fundamental(a2, [1, 0]))


def test_g2_realization():
    g2 = build_root_datum("G2", 2)
    # sum-zero coordinates, theta_s = omega_1 = rho_short
    assert all(sum(r.coords2) == 0 for r in g2.positive_roots)
    assert g2.theta_short == g2.fundamental_weights[0] == g2.rho_short
    assert g2.theta == g2.fundamental_weights[1]
    assert g2.num_short_simple == 1


# -- the closed-form Weyl-group kernel against the reflection references ----
#
# The library finds the dominant representative by a plain sort, det(w) on
# the walk of a Weyl orbit (reduce_to_dominant walks the orbit {0}), and
# lists orbits directly, in G2 as in A-D; these are the simple-reflection
# loop and the breadth-first orbit search it replaced.  The simple
# reflection itself and the signed insertion sort the walk replaced live
# only in the tests, in tests/reflections.py, with the other reflection
# references (tests/test_recurrence.py, tests/test_weyl_oracle.py).


def reference_chamber2(datum, x2):
    """Walk down by simple reflections; the sign flips at every step."""
    v, sign = tuple(x2), 1
    while True:
        for i in range(1, datum.rank + 1):
            if datum.pairing2(i, v) < 0:
                v, sign = apply_simple(datum, i, v), -sign
                break
        else:
            return v, sign


def reference_reduce(datum, mu):
    rho2 = datum.rho.coords2
    v, sign = reference_chamber2(datum, tuple(a + b for a, b in zip(mu.coords2, rho2)))
    if any(datum.pairing2(i, v) == 0 for i in range(1, datum.rank + 1)):
        return None
    return datum.weight(tuple(a - b for a, b in zip(v, rho2))), sign


def reference_orbit2(datum, x2):
    seen = {tuple(x2)}
    frontier = [tuple(x2)]
    while frontier:
        nxt = []
        for v in frontier:
            for i in range(1, datum.rank + 1):
                w = apply_simple(datum, i, v)
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    return sorted(seen)


KERNEL_GRID = ([("A", r) for r in range(1, 5)] + [("B", r) for r in range(2, 6)]
               + [("C", r) for r in range(2, 6)] + [("D", r) for r in range(3, 7)]
               + [("G2", 2)])


def assert_kernel_matches(datum, x2):
    rep, sign = chamber2(datum, x2)
    ref_rep, ref_sign = reference_chamber2(datum, x2)
    assert rep == ref_rep == datum.chamber_rep2(x2), x2
    # on a wall the stabilizer of rep holds reflections: only a regular
    # representative fixes the sign
    if all(datum.pairing2(i, rep) for i in range(1, datum.rank + 1)):
        assert sign == ref_sign, x2
    mu = datum.weight(x2)
    red = datum.reduce_to_dominant(mu)
    assert red == reference_reduce(datum, mu), x2
    sorted_red = reduce2(datum, tuple(a + b for a, b in zip(x2, datum.rho.coords2)))
    assert red == (None if sorted_red is None
                   else (datum.weight(sorted_red[0]), sorted_red[1])), x2


def random_weyl_image(datum, x2, rng):
    """x2 under a random (signed) permutation of the Weyl group of A-D."""
    v = list(x2)
    rng.shuffle(v)
    if datum.family == "A":
        return tuple(v)
    signs = [rng.choice((1, -1)) for _ in v]
    if datum.family == "D" and signs.count(-1) % 2:
        signs[0] = -signs[0]
    return tuple(s * c for s, c in zip(signs, v))


def random_vector(datum, rng):
    """Small entries, so ties, zeros and walls are common."""
    if datum.family == "G2":
        a, b = rng.randint(-6, 6), rng.randint(-6, 6)
        return (a, b, -a - b)
    return tuple(rng.randint(-4, 4) for _ in range(datum.dim))


def stable_orbit(datum, x2):
    """W x2 read off the sum walk in the Brauer-Klimyk stable range, as
    ``weyl_oracle.freudenthal`` reads a weight system: the keys of
    ``regular_orbit2({x2: 1}, (c + 1) rho)``, c = max|x2|, shifted back by
    c rho, sorted; ``ValueError`` if a key's sum is not 1."""
    c = max(map(abs, x2))
    rho2 = datum.rho.coords2
    sums = datum.regular_orbit2({tuple(x2): 1}, tuple((c + 1) * r for r in rho2))
    if set(sums.values()) - {1}:
        raise ValueError(f"a stable-range key of {x2} sums to other than 1")
    return sorted(tuple(k - c * r for k, r in zip(key, rho2)) for key in sums)


def edge_vectors(datum, rng):
    """The zero vector and vectors whose every entry is +-max|x2|, the entries
    x = (c + 1) rho + v nearest a wall in the stable range of
    :func:`stable_orbit`; in G2 a sum-zero vector has no such entries, so
    (2m, -m, -m) and (m, -m, 0) stand in."""
    if datum.family == "G2":
        return [(0, 0, 0), (6, -3, -3), (3, -3, 0)]
    signs = [tuple(rng.choice((1, -1)) * 3 for _ in range(datum.dim)) for _ in range(3)]
    return [(0,) * datum.dim, (3,) * datum.dim, (-3,) * datum.dim, *signs]


@pytest.mark.parametrize("family,rank", KERNEL_GRID)
def test_kernel_matches_reflection_references(family, rank):
    # up to rank 4 every Weyl image of every dominant weight below 2 rho (at
    # most 30,249 points, in B4); above, the images below 2 rho number 0.3M
    # to 19M, so those weights are reduced on sampled images, and orbits are
    # compared below rho (D6: 0, the fundamental weights and rho)
    datum = build_root_datum(family, rank)
    below = enumerate_dominant_below(datum, 2 * datum.rho)
    rng = random.Random(f"{family}{rank}")
    if rank <= 4:
        for w in below:
            orbit = plain_orbit2(datum, w.coords2)
            assert orbit == reference_orbit2(datum, w.coords2), w
            for x2 in orbit:
                assert_kernel_matches(datum, x2)
    else:
        for w in below:
            for _ in range(8):
                assert_kernel_matches(datum, random_weyl_image(datum, w.coords2, rng))
        if rank == 5:
            orbit_weights = enumerate_dominant_below(datum, datum.rho)
        else:
            orbit_weights = [datum.zero, *datum.fundamental_weights, datum.rho]
        for w in orbit_weights:
            assert plain_orbit2(datum, w.coords2) == reference_orbit2(datum, w.coords2), w
    for _ in range(300):
        x2 = random_vector(datum, rng)
        assert_kernel_matches(datum, x2)
        # a point the sum walk cut or merged in the stable range would show here
        orbit = plain_orbit2(datum, x2)
        assert stable_orbit(datum, x2) == orbit and len(orbit) == datum.orbit_size(x2), x2
        if rank <= 4:
            assert orbit == reference_orbit2(datum, x2), x2
    for x2 in edge_vectors(datum, rng):
        assert stable_orbit(datum, x2) == plain_orbit2(datum, x2), x2


def test_kernel_matches_reflection_references_random():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @st.composite
    def vectors(draw):
        family, rank = draw(st.sampled_from(KERNEL_GRID))
        datum = build_root_datum(family, rank)
        x2 = draw(st.lists(st.integers(-7, 7), min_size=datum.dim, max_size=datum.dim))
        if family == "G2":
            x2[2] = -x2[0] - x2[1]
        return datum, tuple(x2)

    @hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @hypothesis.given(vectors())
    def check(case):
        datum, x2 = case
        assert_kernel_matches(datum, x2)
        if datum.rank <= 4:
            assert stable_orbit(datum, x2) == plain_orbit2(datum, x2) == \
                reference_orbit2(datum, x2)

    check()


def reference_regular_leaves(datum, nu2, shift2, ok=None):
    """The full scan: (v, lam2, det) for every v in W nu2 with shift2 + v regular,
    and, given a prefix test ``ok``, every prefix of v passing it."""
    leaves = Counter()
    for v in plain_orbit2(datum, nu2):
        if ok is not None and not all(ok(v[:i]) for i in range(1, len(v) + 1)):
            continue
        red = reduce2(datum, tuple(a + b for a, b in zip(v, shift2)))
        if red is not None:
            leaves[(v, *red)] += 1
    return leaves


def walked_leaves(datum, nu2, shift2, ok=None):
    """The leaves (v, lam2, det) of the walk of W nu2, in its order."""
    leaves = []
    datum.regular_orbit2({nu2: 1}, shift2,
                         lambda v, lam2, det: leaves.append((v, lam2, det)), ok)
    return leaves


def dfs_leaves(datum, nu2, shift2, ok=None):
    """The leaves of the depth-first reference walk of W nu2, in its order."""
    leaves = []
    path = [None] * datum.dim

    def keep(pos, y):
        # the depth-first walk asks about coordinate pos only below the
        # placements that passed at 0..pos-1, so path holds its branch
        path[pos] = y
        return ok(tuple(path[:pos + 1]))

    dfs_regular_orbit2(datum, nu2, shift2,
                       lambda v, lam2, det: leaves.append((tuple(v), lam2, det)),
                       None if ok is None else keep)
    return leaves


def dfs_sums(datum, table, shift2):
    """``{lam2: sum of m det}`` over the orbits of ``table``, one depth-first walk each."""
    sums = {}
    for nu2, m in table.items():
        for _, lam2, det in dfs_leaves(datum, nu2, shift2):
            sums[lam2] = sums.get(lam2, 0) + m * det
    return {lam2: n for lam2, n in sums.items() if n}


def cone_test(datum):
    """The prefix test of lusztig_E: beta = v - rho has no negative prefix sum."""
    rho2 = datum.rho.coords2

    def ok(prefix):
        return min(accumulate(y - r for y, r in zip(prefix, rho2))) >= 0

    return ok


@pytest.mark.parametrize("family,rank", DATUM_GRID)
def test_regular_orbit_walk_matches_the_full_scan(family, rank):
    # nu = rho and 2 rho at shift rho while |W| <= 50,000 (through rank 6,
    # and A7); above, |W| is 322,560 to 10.3M points, so the fundamental
    # weights stand in.  Up to rank 4 every dominant nu <= 2 rho at shifts
    # rho and nu + rho, each also walked from a non-dominant point of W nu,
    # and W(nu + rho) at shift 0 as lusztig_E walks it.  Each walk runs
    # without a prefix test and with the cone test of lusztig_E.
    datum = build_root_datum(family, rank)
    rho2 = datum.rho.coords2
    tests = (None, cone_test(datum))
    if datum.orbit_size(rho2) <= 50_000:
        weights = [datum.rho, 2 * datum.rho]
    else:
        weights = list(datum.fundamental_weights)
    for w in weights:
        for ok in tests:
            assert Counter(walked_leaves(datum, w.coords2, rho2, ok)) == \
                reference_regular_leaves(datum, w.coords2, rho2, ok), (w, ok)
    if rank > 4:
        return
    zero2 = datum.zero.coords2
    for w in enumerate_dominant_below(datum, 2 * datum.rho):
        nu2 = w.coords2
        shifted2 = tuple(a + b for a, b in zip(nu2, rho2))
        for ok in tests:
            want = {shift2: reference_regular_leaves(datum, nu2, shift2, ok)
                    for shift2 in (rho2, shifted2)}
            for start in (nu2, plain_orbit2(datum, nu2)[0]):
                for shift2, leaves in want.items():
                    assert Counter(walked_leaves(datum, start, shift2, ok)) == leaves, \
                        (start, shift2)
            assert Counter(walked_leaves(datum, shifted2, zero2, ok)) == \
                reference_regular_leaves(datum, shifted2, zero2, ok), w


@pytest.mark.parametrize("family,rank", DATUM_GRID)
def test_merged_walk_sums_match_the_depth_first_walk(family, rank):
    # the Klimyk walk of V_x (x) V_x, all of V_x's orbits in one walk, for x =
    # rho and rho_s while |W| <= 50,000 (through rank 6, and A7; B6 rho has
    # 1,459,456 weights); above, the fundamental weights stand in for them
    datum = build_root_datum(family, rank)
    rho2 = datum.rho.coords2
    if datum.orbit_size(rho2) <= 50_000:
        xs = dict.fromkeys([datum.rho, datum.rho_short])
    else:
        xs = datum.fundamental_weights
    for x in xs:
        table = {nu.coords2: m for nu, m in dominant_multiplicities(datum, x).items()}
        shift2 = tuple(a + b for a, b in zip(x.coords2, rho2))
        assert datum.regular_orbit2(table, shift2) == dfs_sums(datum, table, shift2), x


@pytest.mark.parametrize("family,rank", [(f, r) for f, r in DATUM_GRID if r <= 4])
def test_level_walk_matches_the_depth_first_walk(family, rank):
    # every dominant nu <= 2 rho, also walked from a non-dominant point of W
    # nu, at shifts rho and nu + rho: the sums of the one orbit, and its
    # points in the depth-first order, without a prefix test and with the
    # cone test of lusztig_E
    datum = build_root_datum(family, rank)
    rho2 = datum.rho.coords2
    for w in enumerate_dominant_below(datum, 2 * datum.rho):
        nu2 = w.coords2
        for start in (nu2, plain_orbit2(datum, nu2)[0]):
            for shift2 in (rho2, tuple(a + b for a, b in zip(nu2, rho2))):
                assert datum.regular_orbit2({start: 1}, shift2) == \
                    dfs_sums(datum, {start: 1}, shift2), (start, shift2)
                for ok in (None, cone_test(datum)):
                    assert walked_leaves(datum, start, shift2, ok) == \
                        dfs_leaves(datum, start, shift2, ok), (start, shift2, ok)
