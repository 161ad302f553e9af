import pytest

from extalg.checks import kostant_verify
from extalg.constructor import certify_theorem, construct
from extalg.orders import coordinatewise_leq, enumerate_dominant_below
from extalg.rootdata import build_root_datum, weight_from_fundamental
from helpers import weight_from_coords


def eligible(datum):
    """The dominant weights below 2*rho that are also coordinatewise below it."""
    two_rho = 2 * datum.rho
    return [lam for lam in enumerate_dominant_below(datum, two_rho)
            if coordinatewise_leq(lam, two_rho)]


def pair_slots(n):
    """The (i, j) pairs with i < j in the canonical lexicographic layout."""
    return [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]


@pytest.fixture(scope="module")
def c3():
    return build_root_datum("C", 3)


@pytest.fixture(scope="module")
def b3():
    return build_root_datum("B", 3)


GOLDEN = [
    ("C", 3, [0, 0, 2], (1, 1, 1, 1, 1, 1, 0, 0, 0)),
    ("C", 3, [4, 0, 0], (0, 0, 0, 0, 1, 1, 2, 2, 2)),
    ("B", 3, [4, 0, 2], (0, 0, 0, 0, 1, 1, 0, 0, 0)),
    ("B", 3, [4, 0, 0], (0, 0, 0, 0, 1, 1, 1, 1, 1)),
]


@pytest.mark.parametrize("family,rank,coeffs,flat", GOLDEN)
def test_golden_constructions(family, rank, coeffs, flat):
    datum = build_root_datum(family, rank)
    cert = construct(datum, weight_from_fundamental(datum, coeffs))
    assert cert.partition.flat == flat
    assert cert.associated_ok and cert.admissible_ok


def test_golden_c4_omega4():
    c4 = build_root_datum("C", 4)
    cert = construct(c4, weight_from_fundamental(c4, [0, 0, 0, 1]))
    p = cert.partition
    assert cert.case_used == "B"
    assert cert.pairing == ((1, 3), (2, 4))
    nonzero = {}
    for i, j in pair_slots(4):
        if p.m(i, j):
            nonzero[("m", i, j)] = p.m(i, j)
        if p.mp(i, j):
            nonzero[("mp", i, j)] = p.mp(i, j)
    assert nonzero == {("m", 3, 4): 1, ("mp", 3, 4): 1,
                       ("m", 2, 4): 2, ("mp", 2, 4): 1,
                       ("m", 1, 2): 1, ("mp", 1, 2): 1,
                       ("m", 1, 3): 1, ("m", 1, 4): 1, ("mp", 1, 4): 1}
    assert tuple(p.mi(i) for i in range(1, 5)) == (2, 2, 2, 2)
    assert cert.associated_ok and cert.admissible_ok


def test_case_a_invariants(c3):
    # every Case-A output has paired slots and monotone singles
    for lam in eligible(c3):
        cert = construct(c3, lam)
        p = cert.partition
        if cert.case_used != "A":
            continue
        for i, j in pair_slots(3):
            assert p.M(i, j) == 0
        for i in range(1, 3):
            assert p.N(i) <= 0


def test_case_b_invariants():
    c4 = build_root_datum("C", 4)
    for lam in eligible(c4):
        cert = construct(c4, lam)
        if cert.case_used != "B":
            continue
        p = cert.partition
        pairs = set(cert.pairing)
        for i, j in pair_slots(4):
            assert p.m(i, j) <= 2 and p.mp(i, j) <= 1
            if p.m(i, j) > p.mp(i, j):
                assert (i, j) in pairs
            if p.m(i, j) > 1:
                assert (i, j) in pairs


def test_case_c_invariants(b3):
    for lam in eligible(b3):
        cert = construct(b3, lam, force_case="C")
        if cert.case_used != "C":
            continue
        p = cert.partition
        assert all(p.mi(i) <= 1 for i in range(1, 4))
        assert all(p.M(i, j) == 0 for i, j in pair_slots(3))
        assert cert.associated_ok and cert.admissible_ok


def test_case_c_also_covers_case_b(b3):
    # the type-B remark: the Case-C procedure works wherever Case B applies
    for lam in eligible(b3):
        default = construct(b3, lam)
        forced = construct(b3, lam, force_case="C")
        assert default.associated_ok and default.admissible_ok
        assert forced.associated_ok and forced.admissible_ok
        if default.case_used == "B":
            assert forced.case_used == "C"


def test_case_c_outside_type_b_is_rejected(c3):
    with pytest.raises(ValueError, match="type B only"):
        construct(c3, c3.zero, force_case="C")


def test_certify_totals(c3):
    rep = certify_theorem(c3)
    assert rep["total"] == 29 and rep["passed"] == 29 and not rep["failures"]


def test_certify_with_oracle_b2():
    b2 = build_root_datum("B", 2)
    rep, ok = kostant_verify(b2, oracle=True)
    assert ok
    assert rep["passed"] == rep["total"] == 7
    assert rep["oracle"]["iff_holds"]
    assert rep["oracle"]["dominant_below_2rho"] == 8


def test_precondition_errors(c3):
    with pytest.raises(ValueError):
        construct(c3, weight_from_fundamental(c3, [9, 0, 0]))   # not below 2rho
    with pytest.raises(ValueError):
        construct(c3, weight_from_coords(c3, [0, 1, 0]))         # not dominant
    big = weight_from_fundamental(c3, [0, 0, 4])                 # (4,4,4): <=, not coordinatewise
    with pytest.raises(ValueError, match="coordinatewise"):
        construct(c3, big)
    g2 = build_root_datum("G2", 2)
    with pytest.raises(ValueError):
        construct(g2, g2.zero)


def test_sweep_rank_two_families():
    for family in ("B", "C"):
        datum = build_root_datum(family, 2)
        rep = certify_theorem(datum)
        assert not rep["failures"]
