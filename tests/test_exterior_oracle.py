import itertools
from dataclasses import replace
from math import comb
from operator import add, pos

import pytest

from extalg import exterior_oracle, genexp, orders, weyl_oracle
from extalg.checks import exterior_checks
from extalg.exterior_oracle import (GradedCharacter, _unpack, exterior_decomposition,
                                    graded_decompose, graded_exterior_character,
                                    reference_polynomials)
from extalg.genexp import PolyT, closed_E
from extalg.orders import enumerate_dominant_below, is_small, two_rho_minus_delta
from extalg.rootdata import build_root_datum
from extalg.weyl_oracle import (ResourceCapError, dominant_multiplicities, freudenthal,
                                klimyk_tensor, weyl_dim)
from helpers import polynomials, weyl_alternation, weyl_group_order


def with_polynomials(gc, polys):
    """``gc`` with its table replaced by a Weight -> PolyT table, packed in the
    same slot and, in B-D, folded onto the orthant (weights with a negative
    coordinate are left out, as are zero polynomials); builds the broken
    characters that the decompositions must reject."""
    table = {}
    for w, p in polys.items():
        if (w.family, w.rank) != (gc.family, gc.rank):
            raise ValueError(f"{w} does not belong to {gc.family}{gc.rank}")
        if gc.family in ("B", "C", "D") and min(w.coords2) < 0:
            continue
        if not p.is_zero():
            # a negative power of t is a negative shift, which raises ValueError
            table[w.coords2] = sum(c << (k * gc.slot) for k, c in p.c.items())
    return replace(gc, table=table)


def _dominance_key(datum, coords2):
    return (datum.dot2(coords2, datum.rho.coords2), coords2)


def reference_dominant_peel(datum, gc):
    """Dominant peel: after an invariance check, subtract each component's dominant table."""
    support = {w.coords2: p for w, p in polynomials(gc).items() if not p.is_zero()}
    work = {v: p for v, p in support.items() if datum.is_dominant2(v)}
    for v, p in support.items():
        if work.get(datum.chamber_rep2(v)) != p:
            raise ArithmeticError(f"character is not Weyl-invariant at {datum.weight(v)}")
    if len(support) != sum(len(datum.orbit2(v)) for v in work):
        raise ArithmeticError("character support is not a union of Weyl orbits")
    out = {}
    while work:
        top = max(work, key=lambda v: _dominance_key(datum, v))
        poly = work[top]
        if any(c < 0 for c in poly.c.values()):
            raise ArithmeticError(f"negative multiplicity polynomial at {top}")
        highest = datum.weight(top)
        for w, m in dominant_multiplicities(datum, highest).items():
            cur = work.get(w.coords2, PolyT.zero()) - poly * m
            if cur.is_zero():
                work.pop(w.coords2, None)
            else:
                work[w.coords2] = cur
        out[highest] = poly
    return out


def reference_graded_decompose(datum, gc):
    """Full-orbit peel: subtract the whole Freudenthal weight system per component."""
    work = {w.coords2: p for w, p in polynomials(gc).items() if not p.is_zero()}
    out = {}
    while work:
        dominant = [v for v in work if datum.is_dominant2(v)]
        if not dominant:
            raise ArithmeticError("nonzero character with no dominant support")
        top = max(dominant, key=lambda v: _dominance_key(datum, v))
        poly = work[top]
        if any(c < 0 for c in poly.c.values()):
            raise ArithmeticError(f"negative multiplicity polynomial at {top}")
        system = freudenthal(datum, datum.weight(top))
        for w, m in system.mult.items():
            cur = work.get(w.coords2, PolyT.zero()) - poly * m
            if cur.is_zero():
                work.pop(w.coords2, None)
            else:
                work[w.coords2] = cur
        out[datum.weight(top)] = poly
    return out


def reference_alternation_decompose(datum, gc):
    """The Weyl character formula on a genuine packed character: m_lam =
    sum_w sgn(w) chi[lam + rho - w rho], one lookup per Weyl element and
    dominant weight of the support, the positive and the negative terms summed
    apart on packed ints, listed in :func:`graded_decompose`'s order."""
    slot, table = gc.slot, gc.table
    signed = gc.family in ("B", "C", "D")
    dominant = [v for v in table if datum.chamber_rep2(v) == v]
    if datum.family == "D":
        dominant += [v[:-1] + (-v[-1],) for v in dominant if v[-1]]
    plus, minus = [], []
    for s, sign in weyl_alternation(datum):
        (plus if sign > 0 else minus).append(s)
    rho2 = datum.rho.coords2
    dominant.sort(key=lambda x: (datum.dot2(x, rho2), x), reverse=True)
    get = table.get
    # chi(y) = table[|y|] in B-D
    fold = abs if signed else pos
    zeros = itertools.repeat(0)
    out = {}
    for x in dominant:
        plus_sum = sum(map(get, [tuple(map(fold, map(add, x, s))) for s in plus], zeros))
        minus_sum = sum(map(get, [tuple(map(fold, map(add, x, s))) for s in minus], zeros))
        if plus_sum != minus_sum:
            out[datum.weight(x)] = _unpack(plus_sum, slot) - _unpack(minus_sum, slot)
    return out


def reference_graded_exterior_character(datum, module_mult):
    """The weight-line product with a ``PolyT`` at every weight (no dimension cap)."""
    table = {datum.zero.coords2: PolyT.one()}
    for w, mult in sorted(module_mult.items(), key=lambda kv: kv[0].coords2):
        for _ in range(mult):
            new = {}
            for supp, poly in table.items():
                acc = new.get(supp)
                new[supp] = poly if acc is None else acc + poly
                shifted = tuple(a + b for a, b in zip(supp, w.coords2))
                bumped = poly.shift(1)
                acc = new.get(shifted)
                new[shifted] = bumped if acc is None else acc + bumped
            table = {k: v for k, v in new.items() if not v.is_zero()}
    return {datum.weight(k): v for k, v in table.items()}


def reference_orthant_build(datum, module_mult, sizes=None):
    """The same build as :func:`graded_exterior_character` on coordinate-tuple
    keys (no caps), appending its table sizes to ``sizes`` wherever the
    packed build counts them against its stored-weight cap."""
    d = sum(module_mult.values())
    slot = d + weyl_group_order(datum).bit_length()
    signed = datum.family in ("B", "C", "D")
    zero = datum.zero.coords2
    sizes = [] if sizes is None else sizes
    groups = {}
    for w, m in module_mult.items():
        if w.coords2 != zero:
            groups.setdefault(tuple(map(abs, w.coords2)) if signed else w.coords2, []).append(
                (w.coords2, m))
    m0 = module_mult.get(datum.zero, 0)
    table = {zero: sum(comb(m0, k) << (k * slot) for k in range(m0 + 1))}
    for u in sorted(groups, key=lambda u: (-sum(map(bool, u)), u)):
        lines = groups[u]
        axes = [i for i, c in enumerate(u) if c] if signed else []
        reach = lines[0][1] * len(lines) // 2
        for i in axes:
            table.update({x[:i] + (-x[i],) + x[i + 1:]: p for x, p in table.items()
                          if 0 < x[i] <= reach * u[i]})
        sizes.append(len(table))
        for w2, m in lines:
            for _ in range(m):
                new = table.copy()
                get = new.get
                for x, p in table.items():
                    y = tuple(map(add, x, w2))
                    new[y] = get(y, 0) + (p << slot)
                table = new
                sizes.append(len(table))
        for i in axes:
            table = {x: p for x, p in table.items() if x[i] >= 0}
    return GradedCharacter(datum.family, datum.rank, d, slot, table)


def reference_weyl_alternation(datum):
    """The pairs ``(rho - w rho, sgn w)`` over the Weyl group, in doubled coordinates.

    By the Weyl denominator formula prod_{alpha > 0} (1 - e^-alpha) =
    sum_w sgn(w) e^(w rho - rho), so expanding the product over
    ``datum.positive_roots`` cancels every other term and leaves one shift
    ``rho - w rho`` (a sum of positive roots) per Weyl element, with its
    sign.  Sorted by shift.
    """
    terms = {datum.zero.coords2: 1}
    for alpha in datum.positive_roots:
        new = dict(terms)
        for v, c in terms.items():
            u = tuple(map(add, v, alpha.coords2))
            s = new.get(u, 0) - c
            if s:
                new[u] = s
            else:
                del new[u]
        terms = new
    return tuple(sorted(terms.items()))


@pytest.fixture(scope="module")
def b2():
    return build_root_datum("B", 2)


@pytest.fixture(scope="module")
def b2_adjoint(b2):
    return exterior_decomposition(b2, b2.theta)


@pytest.fixture(scope="module")
def b2_checks(b2):
    # the shared battery's records, asserted beside each direct comparison
    return {c["name"]: c for c in exterior_checks(b2, "adjoint")}


def test_single_zero_line():
    b2 = build_root_datum("B", 2)
    gc = graded_exterior_character(b2, {b2.zero: 1})
    assert polynomials(gc) == {b2.zero: PolyT({0: 1, 1: 1})}
    assert len(gc.table) == 1
    assert graded_decompose(b2, graded_exterior_character(b2, {})) == {b2.zero: PolyT.one()}


def test_graded_character_binomial_sums(b2):
    module = freudenthal(b2, b2.theta)
    gc = graded_exterior_character(b2, module.mult)
    assert gc.total_dim == 10
    polys = polynomials(gc)
    # the table stores the orthant of the support, every coordinate >= 0
    assert len(gc.table) == sum(min(w.coords2) >= 0 for w in polys) < len(polys)
    for k in range(11):
        assert sum(p.c.get(k, 0) for p in polys.values()) == comb(10, k)
    # top degree sits at weight zero with coefficient 1; degree 1 is the module
    assert polys[b2.zero].c.get(10, 0) == 1
    assert polys[b2.theta].c.get(1, 0) == 1
    # folding the unfolded table back gives it again
    assert with_polynomials(gc, polys) == gc


def test_dimension_cap(b2):
    with pytest.raises(ResourceCapError):
        graded_exterior_character(b2, freudenthal(b2, b2.theta).mult, cap=9)


def test_decompose_rejects_non_character(b2):
    # 1 + t e^theta, Lambda of the one line theta, with 2t taken off at theta:
    # the negative coefficient is out of range (packed into a genuine
    # character of the same dimension and slot)
    gc = graded_exterior_character(b2, {b2.zero: 1})
    broken = {b2.zero: PolyT.one(), b2.theta: PolyT({1: 1}) - PolyT({1: 2})}
    with pytest.raises(ArithmeticError, match="out of range"):
        graded_decompose(b2, with_polynomials(gc, broken))


def test_build_rejects_module_not_closed_under_sign_changes(b2):
    # the line theta alone, theta and -theta, the D4 half-spin weights (closed
    # only under even sign changes) and unequal multiplicities on one |u|
    d4 = build_root_datum("D", 4)
    for datum, module in [(b2, {b2.theta: 1}), (b2, {b2.theta: 1, -1 * b2.theta: 1}),
                          (d4, freudenthal(d4, d4.weight((1, 1, 1, 1))).mult),
                          (b2, {b2.weight((2, 0)): 1, b2.weight((-2, 0)): 2})]:
        with pytest.raises(ArithmeticError, match="sign changes"):
            graded_exterior_character(datum, module)


def test_decompose_rejects_stored_negative_coordinate(b2):
    # the genuine value at (0, -2), stored under the wrong sign
    gc = graded_exterior_character(b2, freudenthal(b2, b2.theta).mult)
    table = dict(gc.table)
    table[(0, -2)] = table.pop((0, 2))
    with pytest.raises(ArithmeticError, match="negative coordinate"):
        graded_decompose(b2, replace(gc, table=table))


@pytest.mark.parametrize("decompose", [graded_decompose, reference_dominant_peel,
                                       reference_graded_decompose])
@pytest.mark.parametrize("breakage", ["drop", "add_t3"])
def test_decompose_rejects_non_invariant_character(b2, decompose, breakage):
    gc = graded_exterior_character(b2, freudenthal(b2, b2.theta).mult)
    broken = polynomials(gc)
    # the least stored weight off the dominant chamber, kept by the fold
    victim = min((w for w in broken if min(w.coords2) >= 0 and not b2.is_dominant(w)),
                 key=lambda w: w.coords2)
    assert victim.coords2 == (0, 2)
    if breakage == "drop":
        del broken[victim]
    else:
        broken[victim] = broken[victim] + PolyT.t(3)
    with pytest.raises(ArithmeticError):
        decompose(b2, with_polynomials(gc, broken))


@pytest.mark.parametrize("decompose", [graded_decompose, reference_dominant_peel])
def test_decompose_rejects_negative_middle_degree(b2, decompose):
    # removing one trivial summand from Lambda^1 keeps the character invariant
    # and nonnegative, but the alternation sum at 0 becomes (1 + t^3)(1 + t^7) - t:
    # negative in degree 1 below positive degrees, so summing the signed terms
    # into one packed int would borrow from degree 2 and misread both
    gc = graded_exterior_character(b2, freudenthal(b2, b2.theta).mult)
    broken = polynomials(gc)
    broken[b2.zero] = broken[b2.zero] - PolyT.t(1)
    with pytest.raises(ArithmeticError, match="negative multiplicity polynomial") as err:
        decompose(b2, with_polynomials(gc, broken))
    if decompose is graded_decompose:
        assert str(err.value).endswith(f"at {b2.zero}: 1 - t + t^3 + t^7 + t^10")


def test_decompose_rejects_coefficients_out_of_range(b2):
    # a coefficient of 2**total_dim would carry into the next slot of a sum
    gc = graded_exterior_character(b2, {b2.zero: 1})
    with pytest.raises(ArithmeticError, match="out of range"):
        graded_decompose(b2, with_polynomials(gc, {b2.zero: PolyT({0: 1, 1: 2})}))
    assert graded_decompose(b2, gc) == {b2.zero: PolyT({0: 1, 1: 1})}


@pytest.mark.parametrize("family,rank", [("A", r) for r in range(1, 5)]
                         + [(f, r) for f in "BC" for r in range(2, 6)]
                         + [("D", r) for r in range(3, 7)] + [("G2", 2)])
def test_weyl_alternation_is_the_signed_rho_orbit(family, rank):
    # the signed rho-orbit is the expansion of the Weyl denominator, in order
    datum = build_root_datum(family, rank)
    alternation = weyl_alternation(datum)
    assert len(alternation) == weyl_group_order(datum)
    assert alternation == reference_weyl_alternation(datum)
    # the slot of an empty module is bit_length(|W|)
    assert graded_exterior_character(datum, {}).slot == len(alternation).bit_length()


def _modules():
    for family, rank in [("A", 2), ("A", 3), ("A", 4), ("B", 2), ("C", 2), ("G2", 2),
                         ("B", 3), ("C", 3), ("D", 3)]:
        yield family, rank, "adjoint"
        if family not in ("A", "D"):
            yield family, rank, "little_adjoint"
    yield "D", 4, "adjoint"
    yield "B", 4, "little_adjoint"
    yield "C", 4, "little_adjoint"


@pytest.mark.parametrize("family,rank,module", list(_modules()))
def test_character_matches_polynomial_product(family, rank, module):
    datum = build_root_datum(family, rank)
    highest = datum.theta if module == "adjoint" else datum.theta_short
    mult = freudenthal(datum, highest).mult
    gc = graded_exterior_character(datum, mult, cap=28)
    assert (gc.family, gc.rank, gc.total_dim, polynomials(gc)) == \
        (family, rank, sum(mult.values()), reference_graded_exterior_character(datum, mult))


@pytest.mark.parametrize("family,rank,module", list(_modules()) + [
    ("B", 5, "adjoint"), ("C", 5, "adjoint"), ("D", 5, "adjoint"),
    ("B", 5, "little_adjoint"), ("C", 5, "little_adjoint")])
def test_packed_build_matches_tuple_build(family, rank, module):
    # the packed keys decode to the tuple build's table, in its order
    datum = build_root_datum(family, rank)
    highest = datum.theta if module == "adjoint" else datum.theta_short
    mult = freudenthal(datum, highest).mult
    gc, want = graded_exterior_character(datum, mult, cap=55), reference_orthant_build(datum, mult)
    assert list(gc.table.items()) == list(want.table.items())
    assert (gc.slot, gc.total_dim) == (want.slot, want.total_dim)


def test_stored_cap_counts_the_build_table():
    # the B3 adjoint's build table peaks at 217 weights, 154 of them kept
    b3 = build_root_datum("B", 3)
    mult = freudenthal(b3, b3.theta).mult
    sizes = []
    want = reference_orthant_build(b3, mult, sizes)
    assert (max(sizes), len(want.table)) == (217, 154)
    assert graded_exterior_character(b3, mult, stored_cap=217) == want
    with pytest.raises(ResourceCapError, match="stores more than 216 weights"):
        graded_exterior_character(b3, mult, stored_cap=216)


@pytest.mark.parametrize("family,rank,module", list(_modules()))
def test_dominant_peel_matches_full_orbit_peel(family, rank, module):
    # the orbit-sum reduction equals both peels, and the alternation item by item
    datum = build_root_datum(family, rank)
    highest = datum.theta if module == "adjoint" else datum.theta_short
    gc = graded_exterior_character(datum, freudenthal(datum, highest).mult, cap=28)
    dec = graded_decompose(datum, gc)
    assert list(dec.items()) == list(reference_alternation_decompose(datum, gc).items())
    assert dec == reference_dominant_peel(datum, gc) == reference_graded_decompose(datum, gc)


@pytest.mark.parametrize("family,rank,module", [("D", 5, "adjoint"), ("C", 5, "little_adjoint")])
def test_reduction_matches_alternation_rank_five(family, rank, module):
    datum = build_root_datum(family, rank)
    highest = datum.theta if module == "adjoint" else datum.theta_short
    gc = graded_exterior_character(datum, freudenthal(datum, highest).mult, cap=45)
    assert list(graded_decompose(datum, gc).items()) == \
        list(reference_alternation_decompose(datum, gc).items())


def test_batteries_leave_the_orbit_rows_whole(monkeypatch):
    # the decomposition and the zero-weight column share the memoised rows;
    # neither may change one it reads
    rows = {}
    monkeypatch.setattr(weyl_oracle, "_orbit_rows", rows)
    for family, rank in [("B", 3), ("D", 4)]:
        datum = build_root_datum(family, rank)
        assert all(c["pass"] for c in exterior_checks(datum, "adjoint", dim_cap=28))
    assert {key[:2] for key in rows} == {("B", 3), ("D", 4)}
    for (family, rank, kappa2), row in rows.items():
        datum = build_root_datum(family, rank)
        assert row == weyl_oracle._klimyk_walk(datum, datum.rho.coords2,
                                               {datum.weight(kappa2): 1})


@pytest.mark.parametrize("family", ["B", "C"])
def test_alternation_matches_dominant_peel_rank_four(family):
    datum = build_root_datum(family, 4)
    gc = graded_exterior_character(datum, freudenthal(datum, datum.theta).mult, cap=36)
    assert graded_decompose(datum, gc) == reference_dominant_peel(datum, gc)


def test_invariants_product(b2, b2_adjoint, b2_checks):
    assert b2_adjoint[b2.zero] == reference_polynomials(b2, "hks_invariants")
    assert b2_checks["hks_invariants"]["pass"]
    assert reference_polynomials(b2, "hks_invariants") == \
        PolyT({0: 1, 3: 1, 7: 1, 10: 1})


def test_bazlov_adjoint(b2, b2_adjoint, b2_checks):
    assert b2_adjoint[b2.theta] == reference_polynomials(b2, "bazlov_adjoint")
    assert b2_checks["bazlov_adjoint"]["pass"]


def test_reeder_delta_subsets(b2, b2_adjoint, b2_checks):
    assert reference_polynomials(b2, "reeder_deltaI", subset=()) == \
        (PolyT({0: 1, 1: 1}) ** 2).shift(4)
    assert reference_polynomials(b2, "reeder_deltaI", subset=(1, 2)) == \
        PolyT({0: 1, 1: 1}) * PolyT({0: 1, 2: 1}) * PolyT({0: 1, 3: 1}) * PolyT.t(2)
    for r in range(0, 3):
        for subset in itertools.combinations((1, 2), r):
            w, _ = two_rho_minus_delta(b2, subset)
            assert b2_adjoint[w] == reference_polynomials(b2, "reeder_deltaI", subset=subset)
    assert b2_checks["reeder_delta_I_all_subsets"]["pass"]


def test_kostant_scaled_tensor_square(b2, b2_adjoint, b2_checks):
    totals = {w: p(1) for w, p in b2_adjoint.items()}
    kl = klimyk_tensor(b2, b2.rho, b2.rho)
    assert totals == {w: 4 * m for w, m in kl.items()}
    assert b2_checks["kostant_scaled_tensor_square"]["pass"]


def test_reeder_small_equality_iff(b2, b2_adjoint, b2_checks):
    totals = {w: p(1) for w, p in b2_adjoint.items()}
    for lam in enumerate_dominant_below(b2, 2 * b2.rho):
        bound = 4 * freudenthal(b2, lam).mult.get(b2.zero, 0)
        if is_small(b2, lam):
            assert totals.get(lam, 0) == bound
        else:
            assert totals.get(lam, 0) < bound
    assert b2_checks["reeder_small_equality_iff"]["pass"]


@pytest.mark.parametrize("family,rank", [("B", 2), ("C", 2), ("B", 3), ("C", 3)])
def test_panyushev_little_adjoint(family, rank):
    datum = build_root_datum(family, rank)
    dec = exterior_decomposition(datum, datum.theta_short)
    totals = {w: p(1) for w, p in dec.items()}
    kl = klimyk_tensor(datum, datum.rho_short, datum.rho_short)
    assert totals == {w: (2 ** datum.num_short_simple) * m for w, m in kl.items()}
    below = enumerate_dominant_below(datum, 2 * datum.rho_short)
    assert set(totals) == set(below)
    records = exterior_checks(datum, "little-adjoint")
    assert len(records) == 2 and all(c["pass"] for c in records)


def test_g2_little_adjoint_conjecture():
    # the scaled-tensor-square identity is a B/C/F4 theorem and provably fails
    # for G2 (dimension 128 vs 98); the support iff still holds
    g2 = build_root_datum("G2", 2)
    dec = exterior_decomposition(g2, g2.theta_short)
    below = enumerate_dominant_below(g2, 2 * g2.rho_short)
    assert set(dec) == set(below)
    assert [c["pass"] for c in exterior_checks(g2, "little-adjoint")] == [True]
    total_dim = sum(p(1) * weyl_dim(g2, w) for w, p in dec.items())
    assert total_dim == 2 ** 7
    kl = klimyk_tensor(g2, g2.rho_short, g2.rho_short)
    assert 2 * sum(m * weyl_dim(g2, w) for w, m in kl.items()) == 98 != total_dim


def test_exterior_checks_rejects_unknown_module(b2):
    with pytest.raises(ValueError, match="unknown module"):
        exterior_checks(b2, "little_adjoint")


def test_b3_adjoint_factorization():
    # P(V_{w2}, Lambda g, q) = (1+q^-1)(1+q^3)(1+q^7) E_{w2}(q^2) at rank 3
    b3 = build_root_datum("B", 3)
    dec = exterior_decomposition(b3, b3.theta)
    w2 = b3.weight((2, 2, 0))
    rhs = PolyT({0: 1, -1: 1}) * PolyT({0: 1, 3: 1}) * PolyT({0: 1, 7: 1})
    rhs = rhs * closed_E(b3, w2).subs_power(2)
    assert dec[w2] == rhs


def _bump_at(monkeypatch, module, name, key):
    # wrap module.name so that its table gains 1 at weight key(datum)
    real = getattr(module, name)

    def corrupted(datum, *args, **kwargs):
        out = dict(real(datum, *args, **kwargs))
        out[key(datum)] = out.get(key(datum), 0) + 1
        return out

    monkeypatch.setattr(module, name, corrupted)


def _corrupt_delta(monkeypatch):
    real = exterior_oracle.reference_polynomials

    def corrupted(datum, name, subset=None):
        if name != "reeder_deltaI":
            return real(datum, name)
        return real(datum, name, subset=subset) + PolyT.one() * (subset == (1,))

    monkeypatch.setattr(exterior_oracle, "reference_polynomials", corrupted)


def _corrupt_small(monkeypatch):
    real = orders.is_small
    monkeypatch.setattr(orders, "is_small", lambda datum, lam: real(datum, lam) != lam.is_zero())


def _corrupt_factorization(monkeypatch):
    real = genexp.closed_E
    monkeypatch.setattr(genexp, "closed_E", lambda datum, lam: real(datum, lam) + PolyT.one())


def _corrupt_support(monkeypatch):
    real = orders.enumerate_dominant_below
    monkeypatch.setattr(orders, "enumerate_dominant_below",
                        lambda datum, bound, *cap: real(datum, bound, *cap)[:-1])


@pytest.mark.parametrize("family,rank,module,corrupt,name,where", [
    ("B", 2, "adjoint",
     lambda mp: _bump_at(mp, weyl_oracle, "klimyk_tensor", lambda d: d.theta),
     "kostant_scaled_tensor_square", lambda d: f"at {list(d.theta.coords2)}: got "),
    ("B", 2, "adjoint", _corrupt_delta,
     "reeder_delta_I_all_subsets", lambda d: "I = [1]: got "),
    ("C", 2, "adjoint", _corrupt_small,
     "reeder_small_equality_iff", lambda d: f"at {list(d.zero.coords2)}: total "),
    ("B", 3, "adjoint", _corrupt_factorization,
     "graded_multiplicity_factorization", lambda d: "at [2, 2, 0]: got "),
    ("G2", 2, "little-adjoint", _corrupt_support,
     "support_iff_below_2rho_short (verified-case-check)",
     lambda d: f"at {list(d.zero.coords2)}: got 1, want 0"),
    ("C", 3, "little-adjoint",
     lambda mp: _bump_at(mp, weyl_oracle, "klimyk_tensor", lambda d: d.zero),
     "panyushev_scaled_tensor_square", lambda d: f"at {list(d.zero.coords2)}: got "),
    ("B", 2, "adjoint",
     lambda mp: _bump_at(mp, weyl_oracle, "zero_weight_column", lambda d: d.zero),
     "reeder_small_equality_iff", lambda d: f"at {list(d.zero.coords2)}: total "),
])
def test_failed_check_names_first_counterexample(monkeypatch, family, rank, module, corrupt,
                                                 name, where):
    # one corrupted collaborator fails exactly one record of the battery, whose
    # detail names the counterexample; every other record still passes
    datum = build_root_datum(family, rank)
    corrupt(monkeypatch)
    records = exterior_checks(datum, module)
    assert [c["name"] for c in records if not c["pass"]] == [name]
    assert [c["detail"].startswith(where(datum)) for c in records if not c["pass"]] == [True]
    assert all(c["detail"] == "" for c in records if c["pass"])
