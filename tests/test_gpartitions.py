import itertools
import random
from dataclasses import dataclass

import pytest

from extalg.constructor import construct
from extalg.gpartitions import (GPartition, _check_partition, _compiled, _L_value, _N0,
                                _N1_value, _pair_index, _row_end, _start_residual,
                                _suffix_feasible, count_lr, form_keys, is_admissible, weight_of)
from extalg.orders import coordinatewise_leq, enumerate_dominant_below
from extalg.rootdata import build_root_datum, weight_from_fundamental
from extalg.weyl_oracle import ResourceCapError, klimyk_tensor, weyl_dim


def pair_slots(n):
    """The (i, j) pairs with i < j in the canonical lexicographic layout."""
    return [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]


def reference_weight_of(datum, p):
    """``weight_of`` through the ``GPartition`` accessors, pair by pair."""
    _check_partition(datum, p)
    n = datum.rank
    acc = [0] * n
    for i, j in pair_slots(n):
        acc[i - 1] += p.m(i, j) + p.mp(i, j)
        acc[j - 1] += p.mp(i, j) - p.m(i, j)
    for i in range(1, n + 1):
        acc[i - 1] += p.mi(i)
    return datum.weight(tuple(2 * a for a in acc))


# -- reference evaluators: the forms uncompiled, and their original definitions


@dataclass(frozen=True)
class FormValues:
    """Evaluated linear forms of one g-partition, keyed per Table of indices."""

    L: dict
    N0: dict
    N1: dict

    def all_items(self):
        for kind, table in (("L", self.L), ("N0", self.N0), ("N1", self.N1)):
            for key, val in table.items():
                yield kind, key, val


def form_values(datum, p):
    """(kind, key, value) of every admitted form on p, uncompiled, lazily."""
    _check_partition(datum, p)
    keys = form_keys(datum)
    for kind, value in (("L", _L_value), ("N0", _N0), ("N1", _N1_value)):
        for j, (t, barred) in keys[kind]:
            yield kind, (j, (t, barred)), value(datum, p, j, t, barred)


def evaluate_forms(datum, p):
    """Evaluate every admitted linear form on p (rearranged expressions)."""
    tables = {"L": {}, "N0": {}, "N1": {}}
    for kind, key, v in form_values(datum, p):
        tables[kind][key] = v
    return FormValues(**tables)


def reference_admissible(items, a, b):
    """Every (kind, key, value) form item against its bound: L <= a_j, N0/N1 <= b_j."""
    bounds = {"L": a, "N0": b, "N1": b}
    return all(v <= bounds[kind][key[0] - 1] for kind, key, v in items)


def reference_is_admissible(datum, p, a, b):
    """``is_admissible`` scoring every compiled row densely over the whole flat layout."""
    bounds = (tuple(a), tuple(b))
    comp = _compiled(datum)
    return all(sum(c * x for c, x in zip(row, p.flat)) <= 2 * bounds[side][idx]
               for row, (side, idx) in zip(comp.rows, comp.bound_of))


def _delta(p, n, a, a_bar, b, b_bar):
    """Delta with possibly barred indices, following the interleaved definition.

    Returns None for the index pairs the published case split leaves
    unassigned (second index n with a bar involved, first index below n).
    """
    if not a_bar and not b_bar:
        return p.M(a, b) if a < b else 0
    if a_bar and b_bar:
        return _delta(p, n, a + 1, False, b + 1, False)
    if b < n:
        return p.mp(a, b + 1) - p.m(a + 1, b + 1)
    if a == n:
        return p.mi(a)
    return None


def forms_original_L(datum, p, j, t, barred):
    """Original interleaved L-form for j < n: minus the sum of Delta_{s j} over s <= t."""
    n = datum.rank
    if j >= n:
        raise ValueError("the original L-form cross-check covers j < n only")
    total = _delta(p, n, 0, True, j, False)
    for s in range(1, t + 1):
        total += _delta(p, n, s, False, j, False)
        if s < t or barred:
            total += _delta(p, n, s, True, j, False)
    return -total


def forms_original_N0(datum, p, j, t, barred):
    """Original interleaved N0-form; None when it touches an unassigned Delta."""
    n = datum.rank
    total = _delta(p, n, j, True, j, False)
    for s in range(j + 1, t + 1):
        v = _delta(p, n, j, True, s, False)
        if v is None:
            return None
        total += v
        if s < t or barred:
            v = _delta(p, n, j, True, s, True)
            if v is None:
                return None
            total += v
    return total


def enumerate_associated(datum, target):
    """All g-partitions associated to the weight ``target`` (no admissibility filter).

    The unpruned walk over the slots in ``count_lr``'s order, row i's pairs
    ``(m_ij, mp_ij)`` and then ``m_i``, row by row, so the partitions come in
    lexicographic order of that walk.
    """
    datum.check_weight(target)
    n = datum.rank
    fam = datum.family
    res = _start_residual(fam, target)
    if res is None:
        return

    slots = pair_slots(n)
    values = {}

    def rec_row(i):
        if i > n:
            yield _build()
            return
        row_pairs = [(i, j) for j in range(i + 1, n + 1)]
        yield from rec_pair(i, row_pairs, 0)

    def rec_pair(i, row_pairs, idx):
        if idx == len(row_pairs):
            mi = _row_end(fam, res[i - 1])
            if mi is None:
                return
            values[("s", i)] = mi
            res[i - 1] = 0
            if _suffix_feasible(fam, res[i:]):
                yield from rec_row(i + 1)
            res[i - 1] = mi
            del values[("s", i)]
            return
        _, j = row_pairs[idx]
        budget = res[i - 1]
        if budget < 0:
            return
        # m_ij raises coordinate i and lowers j; mp_ij raises both
        for mij in range(0, budget + 1):
            for mpij in range(0, budget - mij + 1):
                values[(i, j)] = (mij, mpij)
                res[i - 1] -= mij + mpij
                res[j - 1] += mij - mpij
                yield from rec_pair(i, row_pairs, idx + 1)
                res[i - 1] += mij + mpij
                res[j - 1] -= mij - mpij
        del values[(i, j)]

    def _build():
        flat = []
        for (i, j) in slots:
            mij, mpij = values.get((i, j), (0, 0))
            flat.append(mij)
            flat.append(mpij)
        for i in range(1, n + 1):
            flat.append(values.get(("s", i), 0))
        return GPartition.from_flat(fam, n, tuple(flat))

    yield from rec_row(1)


def reference_count_lr(datum, lam, mu, nu):
    """The polytope count as one admissibility test per associated partition.

    The unpruned enumeration that ``count_lr`` replaced, scored with the
    uncompiled forms; the pruned walk must give the same count and the same
    witnesses in the same order.
    """
    a = datum.fundamental_coefficients(lam)
    b = datum.fundamental_coefficients(mu)
    witnesses = [p for p in enumerate_associated(datum, lam + mu - nu)
                 if reference_admissible(form_values(datum, p), a, b)]
    witnesses.sort(key=lambda q: q.flat)
    return len(witnesses), witnesses


def grid(datum, total=2):
    """Dominant weights with fundamental coefficients summing to at most ``total``."""
    return [weight_from_fundamental(datum, c)
            for c in itertools.product(range(total + 1), repeat=datum.rank)
            if sum(c) <= total]


@pytest.fixture(scope="module")
def c3():
    return build_root_datum("C", 3)


def test_layout_and_validation():
    p = GPartition.from_flat("C", 3, (1, 1, 1, 1, 1, 1, 0, 0, 0))
    assert p.m(1, 2) == p.mp(1, 2) == p.m(2, 3) == 1
    assert p.m(2, 1) == 0 and p.mi(2) == 0
    with pytest.raises(ValueError):
        GPartition.from_flat("C", 3, (0,) * 8 + (1,))       # odd m_i in type C
    with pytest.raises(ValueError):
        GPartition.from_flat("D", 4, (0,) * 12 + (1, 0, 0, 0))
    with pytest.raises(ValueError):
        GPartition.from_flat("B", 3, (0,) * 8)               # wrong length
    with pytest.raises(ValueError):
        GPartition.from_flat("B", 3, (-1,) + (0,) * 8)


@pytest.mark.parametrize("n", range(1, 9))
def test_pair_index_follows_the_pair_slots(n):
    assert [_pair_index(n, i, j) for i, j in pair_slots(n)] == list(range(0, n * (n - 1), 2))


def test_from_slots_round_trips():
    rng = random.Random(11)
    for family, n in [("B", 3), ("C", 4), ("D", 5)]:
        pairs = pair_slots(n)
        m = {pair: rng.randrange(3) for pair in rng.sample(pairs, len(pairs) // 2)}
        mp = {pair: rng.randrange(3) for pair in rng.sample(pairs, len(pairs) // 2)}
        mi = {} if family == "D" else {1: 2, n: 4}
        p = GPartition.from_slots(family, n, m, mp, mi)
        assert all(p.m(i, j) == m.get((i, j), 0) and p.mp(i, j) == mp.get((i, j), 0)
                   for i, j in pairs)
        assert all(p.mi(i) == mi.get(i, 0) for i in range(1, n + 1))
    with pytest.raises(ValueError, match="no slot"):
        GPartition.from_slots("B", 3, {(2, 1): 1}, {}, {})
    with pytest.raises(ValueError, match="no slot"):
        GPartition.from_slots("B", 3, {}, {}, {4: 1})


def test_weight_of_examples(c3):
    p = GPartition.from_flat("C", 3, (1, 1, 1, 1, 1, 1, 0, 0, 0))
    assert weight_of(c3, p).coords2 == (8, 4, 0)   # (4,2,0) = 2rho - 2w3
    assert weight_of(c3, GPartition.from_flat("C", 3, (0,) * 9)).is_zero()
    p = GPartition.from_flat("C", 3, (0, 0, 0, 0, 1, 1, 2, 2, 2))
    assert weight_of(c3, p).coords2 == (4, 8, 4)   # (2,4,2) = 2rho - 4w1


def test_forms_examples(c3):
    p = GPartition.from_flat("C", 3, (0, 0, 0, 0, 1, 1, 2, 2, 2))
    fv = evaluate_forms(c3, p)
    assert fv.N1[(3, (3, False))] == 1             # m_n / 2 in type C
    zero = GPartition.from_flat("C", 3, (0,) * 9)
    fvz = evaluate_forms(c3, zero)
    assert all(v == 0 for _, _, v in fvz.all_items())
    p = GPartition.from_flat("C", 3, (1, 1, 1, 1, 1, 1, 0, 0, 0))
    assert all(p.M(i, j) == 0 for i, j in pair_slots(3))
    assert all(p.N(i) == 0 for i in range(1, 4))
    fv = evaluate_forms(c3, p)
    assert all(v <= 1 for k, v in fv.L.items())


def test_admissibility_examples(c3):
    ones = (1, 1, 1)
    zero = GPartition.from_flat("C", 3, (0,) * 9)
    assert is_admissible(c3, zero, (0, 0, 0), (0, 0, 0))
    bad = GPartition.from_flat("C", 3, (0, 0, 0, 0, 0, 0, 0, 0, 4))
    assert not is_admissible(c3, bad, ones, ones)   # N^{n,1}_n = 2 > 1
    good = GPartition.from_flat("C", 3, (1, 1, 1, 1, 1, 1, 0, 0, 0))
    assert is_admissible(c3, good, ones, ones)
    assert is_admissible(c3, GPartition.from_flat("C", 3, (0, 0, 0, 0, 1, 1, 2, 2, 2)),
                         ones, ones)


def _random_partition(family, n, rng, bound=3):
    slots = 2 * len(pair_slots(n)) + n
    while True:
        flat = [rng.randrange(bound) for _ in range(slots)]
        for i in range(n):
            if family == "C":
                flat[2 * len(pair_slots(n)) + i] *= 2
            elif family == "D":
                flat[2 * len(pair_slots(n)) + i] = 0
        try:
            return GPartition.from_flat(family, n, tuple(flat))
        except ValueError:
            continue


@pytest.mark.parametrize("family,rank", [("B", 3), ("C", 3), ("D", 4), ("B", 4)])
def test_rearranged_forms_match_original_definitions(family, rank):
    # the interleaved originals are partial (their case split leaves index
    # pairs unassigned), so they serve as a cross-check where defined
    datum = build_root_datum(family, rank)
    rng = random.Random(20240811)
    keys = form_keys(datum)
    for _ in range(25):
        p = _random_partition(family, rank, rng)
        fv = evaluate_forms(datum, p)
        for j, (t, barred) in keys["L"]:
            if j >= rank:
                continue
            assert fv.L[(j, (t, barred))] == forms_original_L(datum, p, j, t, barred)
        for i, (t, barred) in keys["N0"]:
            orig = forms_original_N0(datum, p, i, t, barred)
            if orig is not None:
                assert fv.N0[(i, (t, barred))] == orig


@pytest.mark.parametrize("family,rank", [("B", 3), ("C", 3), ("D", 4)])
def test_forms_are_linear(family, rank):
    datum = build_root_datum(family, rank)
    rng = random.Random(7)
    for _ in range(10):
        p = _random_partition(family, rank, rng)
        q = _random_partition(family, rank, rng)
        s = GPartition.from_flat(family, rank,
                                 tuple(a + b for a, b in zip(p.flat, q.flat)))
        fp, fq, fs = (evaluate_forms(datum, x) for x in (p, q, s))
        for kind in ("L", "N0", "N1"):
            tp, tq, ts = getattr(fp, kind), getattr(fq, kind), getattr(fs, kind)
            assert all(ts[k] == tp[k] + tq[k] for k in ts)


def test_count_lr_highest_component(c3):
    assert count_lr(c3, c3.rho, c3.rho, 2 * c3.rho)[0] == 1
    b3 = build_root_datum("B", 3)
    assert count_lr(b3, b3.rho, b3.rho, 2 * b3.rho)[0] == 1


def test_count_lr_defining_c2():
    c2 = build_root_datum("C", 2)
    w1 = weight_from_fundamental(c2, [1, 0])
    w2 = weight_from_fundamental(c2, [0, 1])
    assert count_lr(c2, w1, w1, w2)[0] == 1


def test_count_lr_wrong_lattice_is_zero(c3):
    w1 = weight_from_fundamental(c3, [1, 0, 0])
    count, wits = count_lr(c3, w1, c3.zero, c3.zero)
    assert count == 0 and wits == []


def test_count_lr_witnesses_sorted(c3):
    # the paper's worked example produces a witness for (rho, rho, 2w3)
    nu = weight_from_fundamental(c3, [0, 0, 2])
    count, wits = count_lr(c3, c3.rho, c3.rho, nu, want_witnesses=True)
    assert count == len(wits) >= 1
    assert (1, 1, 1, 1, 1, 1, 0, 0, 0) in {p.flat for p in wits}
    assert wits == sorted(wits, key=lambda p: p.flat)
    assert all(weight_of(c3, p) == 2 * c3.rho - nu for p in wits)


def test_enumerate_associated_is_exhaustive(c3):
    target = weight_from_fundamental(c3, [0, 1, 0])
    got = list(enumerate_associated(c3, target))
    assert len(got) == len({p.flat for p in got})
    assert all(weight_of(c3, p) == target for p in got)


@pytest.mark.parametrize("family,rank", [("B", 2), ("C", 2)])
def test_oracle_equivalence_rank_two(family, rank):
    # exact agreement with the Brauer-Klimyk rule on every pair with
    # coefficient sum <= 2 (the full sweep runs in the acceptance suite)
    datum = build_root_datum(family, rank)
    weights = grid(datum)
    for lam in weights:
        for mu in weights:
            dec = klimyk_tensor(datum, lam, mu)
            for nu in enumerate_dominant_below(datum, lam + mu):
                assert count_lr(datum, lam, mu, nu)[0] == dec.get(nu, 0)


def test_dimension_identity(c3):
    lam = weight_from_fundamental(c3, [1, 0, 1])
    mu = weight_from_fundamental(c3, [0, 1, 0])
    total = 0
    for nu in enumerate_dominant_below(c3, lam + mu):
        total += count_lr(c3, lam, mu, nu)[0] * weyl_dim(c3, nu)
    assert total == weyl_dim(c3, lam) * weyl_dim(c3, mu)


def test_family_guard():
    a2 = build_root_datum("A", 2)
    with pytest.raises(ValueError):
        form_keys(a2)


@pytest.mark.parametrize("family,rank", [("B", 2), ("B", 3), ("B", 4), ("C", 2),
                                         ("C", 3), ("C", 4), ("D", 4)])
def test_compiled_rows_match_evaluate_forms(family, rank):
    datum = build_root_datum(family, rank)
    table = _compiled(datum)
    rng = random.Random(1729)
    bound_vectors = list(itertools.product(range(3), repeat=rank))
    for _ in range(40):
        p = _random_partition(family, rank, rng, bound=4)
        fv = evaluate_forms(datum, p)
        expected = [2 * getattr(fv, kind)[key] for kind, key in table.forms]
        got = [sum(c * x for c, x in zip(row, p.flat)) for row in table.rows]
        assert got == expected, p
        assert weight_of(datum, p) == reference_weight_of(datum, p), p
        # admissibility on the compiled rows, with a = b and with b = 2 - a
        for a in bound_vectors:
            for b in (a, tuple(2 - x for x in a)):
                assert is_admissible(datum, p, a, b) == reference_is_admissible(datum, p, a, b) \
                    == reference_admissible(fv.all_items(), a, b), (p, a, b)
    assert len(table.forms) == sum(len(v) for v in form_keys(datum).values())


@pytest.mark.parametrize("family,rank", [("B", 2), ("B", 3), ("B", 4), ("B", 5), ("C", 2),
                                         ("C", 3), ("C", 4), ("C", 5), ("D", 4), ("D", 5)])
def test_sparse_scoring_matches_dense_on_certificates(family, rank):
    # every certificate of certify_theorem, under the theorem's bounds (1, ..., 1)
    # and under alternating 0/1 bounds that some of its forms exceed; over this
    # grid, dropping the terms of any one slot changes some verdict
    datum = build_root_datum(family, rank)
    two_rho = 2 * datum.rho
    eligible = [lam for lam in enumerate_dominant_below(datum, two_rho)
                if coordinatewise_leq(lam, two_rho)]
    partitions = [construct(datum, lam).partition for lam in eligible]
    ones = (1,) * rank
    alt = tuple(i % 2 for i in range(rank))
    flip = tuple(1 - x for x in alt)
    for a, b in [(ones, ones), (alt, flip), (flip, alt)]:
        got = [is_admissible(datum, p, a, b) for p in partitions]
        assert got == [reference_is_admissible(datum, p, a, b) for p in partitions], (a, b)
        assert all(got) if a == b == ones else not all(got), (a, b)


@pytest.mark.parametrize("family,rank", [("B", 2), ("B", 3), ("B", 4), ("B", 5), ("C", 2),
                                         ("C", 3), ("C", 4), ("C", 5), ("D", 4), ("D", 5)])
def test_weight_of_matches_reference_on_certificates(family, rank):
    datum = build_root_datum(family, rank)
    two_rho = 2 * datum.rho
    eligible = [lam for lam in enumerate_dominant_below(datum, two_rho)
                if coordinatewise_leq(lam, two_rho)]
    for lam in eligible:
        p = construct(datum, lam).partition
        assert weight_of(datum, p) == reference_weight_of(datum, p) == two_rho - lam, lam


@pytest.mark.parametrize("family,rank", [("B", 2), ("C", 2), ("B", 3), ("C", 3), ("D", 4)])
def test_count_lr_matches_reference_enumeration(family, rank):
    datum = build_root_datum(family, rank)
    weights = grid(datum)
    for lam in weights:
        for mu in weights:
            for nu in enumerate_dominant_below(datum, lam + mu):
                count, wits = count_lr(datum, lam, mu, nu, want_witnesses=True)
                ref_count, ref_wits = reference_count_lr(datum, lam, mu, nu)
                assert count == ref_count, (lam, mu, nu)
                assert [p.flat for p in wits] == [p.flat for p in ref_wits], (lam, mu, nu)
                # admissible points, which the random partitions of
                # test_compiled_rows_match_evaluate_forms almost never are
                a, b = datum.fundamental_coefficients(lam), datum.fundamental_coefficients(mu)
                assert all(is_admissible(datum, p, a, b) for p in wits), (lam, mu, nu)


@pytest.mark.parametrize("family,rank", [("B", 4), ("C", 4)])
def test_count_lr_matches_klimyk_rank_four(family, rank):
    datum = build_root_datum(family, rank)
    weights = grid(datum)
    for lam in weights:
        for mu in weights:
            dec = klimyk_tensor(datum, lam, mu)
            for nu in enumerate_dominant_below(datum, lam + mu):
                assert count_lr(datum, lam, mu, nu)[0] == dec.get(nu, 0), (lam, mu, nu)


def test_count_lr_resource_cap():
    b3 = build_root_datum("B", 3)
    with pytest.raises(ResourceCapError):
        count_lr(b3, b3.rho, b3.rho, b3.zero, cap=5)
    assert count_lr(b3, b3.rho, b3.rho, b3.zero)[0] == klimyk_tensor(b3, b3.rho, b3.rho)[b3.zero]


def test_count_lr_matches_klimyk_random():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @st.composite
    def triples(draw):
        family, rank = draw(st.sampled_from([("B", 2), ("C", 2), ("B", 3), ("C", 3),
                                             ("D", 3), ("B", 4), ("C", 4), ("D", 4)]))
        datum = build_root_datum(family, rank)
        coeffs = st.lists(st.integers(0, 2), min_size=rank, max_size=rank)
        lam, mu = (weight_from_fundamental(datum, draw(coeffs)) for _ in range(2))
        below = enumerate_dominant_below(datum, lam + mu)
        return datum, lam, mu, draw(st.sampled_from(below))

    @hypothesis.settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @hypothesis.given(triples())
    def check(case):
        datum, lam, mu, nu = case
        assert count_lr(datum, lam, mu, nu)[0] == klimyk_tensor(datum, lam, mu).get(nu, 0)

    check()
