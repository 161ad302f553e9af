"""Iterative construction of admissible g-partitions associated to 2*rho - lam.

Given a dominant weight lam below 2*rho in both the dominance and the
coordinatewise order, these routines build an explicit admissible g-partition
certifying that V_lam occurs inside the exterior algebra of the adjoint
representation (equivalently inside V_rho (x) V_rho).  Case dispatch follows
the parities of c_i = 2|rho_i| - |lam_i|:

* Case A: all c_i even,
* Case B: an even number of odd c_i (with a side condition on c_n),
* Case C: the remaining situations, which occur in type B only.
"""

from .core import DEFAULT_CELL_CAP, Record
from .gpartitions import GPartition, is_admissible, weight_of
from .orders import coordinatewise_leq, dominance_leq, enumerate_dominant_below

__all__ = ["Certificate", "construct", "certify_theorem"]


class Certificate(Record):
    __slots__ = (
        "lam",
        "c2",              # doubled gap vector 2*(2|rho_i| - |lam_i|)
        "case_used",       # "A", "B" or "C"
        "pairing",         # Case B index pairs, () otherwise
        "odd_set",         # Case C odd-index set, () otherwise
        "partition",       # GPartition
        "associated_ok",
        "admissible_ok",
    )


def _case_a(datum, c):
    """Case A: every c_i even; build rows from index n down to 1.

    Returns the slot dicts ``(m, mp, mi)`` of :meth:`GPartition.from_slots`.
    """
    n = datum.rank
    m, mp, mi = {}, {}, {}
    if not all(x % 2 == 0 for x in c):
        raise ArithmeticError(f"Case A needs every gap even, got {c}")
    mi[n] = 0 if c[n - 1] == 0 else 2
    for i in range(n, 1, -1):
        # build row i-1 from row i
        ci, cim1 = c[i - 1], c[i - 2]
        nonzero = sorted((j for j in range(i + 1, n + 1) if m.get((i, j), 0)),
                         reverse=True)  # j_1 > j_2 > ... > j_k
        if cim1 == 0:
            continue
        if ci >= cim1 > 0:
            mi[i - 1] = mi.get(i, 0)
            s = cim1 // 2 if mi.get(i, 0) == 0 else cim1 // 2 - 1
            cutoff = n + 1 if s == 0 else nonzero[s - 1]
            for j in range(cutoff, n + 1):
                if m.get((i, j), 0):
                    m[(i - 1, j)] = m[(i, j)]
                    mp[(i - 1, j)] = mp[(i, j)]
        elif cim1 == ci + 2:
            mi[i - 1] = mi.get(i, 0)
            for j in range(i + 1, n + 1):
                if m.get((i, j), 0):
                    m[(i - 1, j)] = m[(i, j)]
                    mp[(i - 1, j)] = mp[(i, j)]
            m[(i - 1, i)] = 1
            mp[(i - 1, i)] = 1
        else:
            raise ValueError(
                f"Case A cannot proceed: c_{i - 1} = {cim1} vs c_{i} = {ci}")
    return m, mp, mi


def _gaps(datum, lam):
    rho2 = datum.rho.coords2
    c2 = tuple(2 * abs(r) - abs(l) for r, l in zip(rho2, lam.coords2))
    if any(x % 2 for x in c2):
        raise ValueError(f"{lam} is not an integral weight below 2*rho")
    return c2


def construct(datum, lam, force_case=None):
    """Admissible g-partition associated to 2*rho - lam, with self-checks.

    Preconditions: lam dominant, lam <= 2*rho in dominance and lam
    coordinatewise below 2*rho; family B, C or D.  ``force_case="C"``
    switches type-B inputs eligible for Case B to the Case-C construction
    for cross-validation; outside type B it raises ``ValueError``.
    """
    if datum.family not in ("B", "C", "D"):
        raise ValueError(f"construction covers families B, C, D, not {datum.family}")
    if force_case == "C" and datum.family != "B":
        raise ValueError(f"Case C applies to type B only, not {datum.family}")
    datum.require_dominant(lam)
    two_rho = 2 * datum.rho
    if not dominance_leq(datum, lam, two_rho):
        raise ValueError(f"order test failed: {lam} is not below 2*rho in dominance")
    if not coordinatewise_leq(lam, two_rho):
        raise ValueError(f"order test failed: {lam} is not coordinatewise below 2*rho")
    c2 = _gaps(datum, lam)
    c = [x // 2 for x in c2]
    n = datum.rank
    lam_half = [x // 2 for x in lam.coords2]

    odd = [i for i in range(1, n + 1) if c[i - 1] % 2]
    pairing = ()
    odd_set = ()
    if not odd:
        case = "A"
        m, mp, mi = _case_a(datum, c)
    else:
        case_b_ok = (len(odd) % 2 == 0) and (c[n - 1] % 2 == 0 or lam_half[n - 1] != 0)
        if case_b_ok and force_case != "C":
            case = "B"
            k = len(odd) // 2
            pairing = tuple((odd[j], odd[j + k]) for j in range(k))
            lam_prime = list(lam_half)
            for a, b in pairing:
                lam_prime[a - 1] += 1
                lam_prime[b - 1] -= 1
            c_prime = [abs(r2) - abs(x) for r2, x in zip(datum.rho.coords2, lam_prime)]
            m, mp, mi = _case_a(datum, c_prime)
            for a, b in pairing:
                m[(a, b)] = m.get((a, b), 0) + 1
        else:
            if datum.family != "B":
                raise ValueError("Case C applies to type B only")
            case = "C"
            odd_set = tuple(odd)
            lam_prime = [x + (1 if i in odd else 0) for i, x in enumerate(lam_half, start=1)]
            c_prime = [abs(r2) - abs(x) for r2, x in zip(datum.rho.coords2, lam_prime)]
            m, mp, mi = _case_a(datum, c_prime)
            if not all(mi.get(i, 0) == 0 for i in range(1, n + 1)):
                raise ArithmeticError("Case C base rows have a nonzero barred entry")
            for i in odd:
                mi[i] = 1

    partition = GPartition.from_slots(datum.family, n, m, mp, mi)
    ones = (1,) * n
    associated = weight_of(datum, partition) == two_rho - lam
    admissible = is_admissible(datum, partition, ones, ones)
    return Certificate(lam, c2, case, pairing, odd_set, partition,
                       associated, admissible)


def certify_theorem(datum, force_case=None, cap=DEFAULT_CELL_CAP):
    """Run the construction over every lam <= 2*rho with lam coordinatewise below.

    Returns a report dict; ``failures`` lists any weight whose certificate
    failed a self-check (the covered theorem predicts none).  ``cap`` bounds
    the dominant weights listed below 2*rho.
    """
    two_rho = 2 * datum.rho
    eligible = [lam for lam in enumerate_dominant_below(datum, two_rho, cap)
                if coordinatewise_leq(lam, two_rho)]
    failures = []
    cases = {"A": 0, "B": 0, "C": 0}
    for lam in eligible:
        cert = construct(datum, lam, force_case=force_case)
        cases[cert.case_used] += 1
        if not cert.associated_ok:
            failures.append({"lambda": list(lam.coords2), "stage": "associated"})
        elif not cert.admissible_ok:
            failures.append({"lambda": list(lam.coords2), "stage": "admissible"})
    return {
        "family": datum.family,
        "rank": datum.rank,
        "total": len(eligible),
        "passed": len(eligible) - len(failures),
        "failures": failures,
        "cases": cases,
    }
