"""Check batteries shared by the CLI, the acceptance tests and the demos.

A battery only compares the outputs of the two computation paths, calling
them through their modules, and returns one record {"name", "pass", "detail"}
per claim; a failed record's detail names the first counterexample.
"""

import itertools

from . import exterior_oracle, genexp, orders, weyl_oracle
from .genexp import PolyT
from .rootdata import ConfigurationError, build_root_datum


def check(checks, name, ok, detail=""):
    """Append one check record to ``checks``."""
    checks.append({"name": name, "pass": bool(ok), "detail": detail})


def _record(checks, name, failure):
    # a check fails exactly when it names a counterexample (the failure
    # helpers return None or "" when there is none)
    check(checks, name, not failure, failure or "")


def _unequal(got, want, where=""):
    return f"{where}got {got}, want {want}" if got != want else ""


def _table_diff(got, want):
    # the first weight in coords2 order where two weight tables differ; the
    # tables hold no zero values, so a missing key reads as 0
    for w in sorted(got.keys() | want.keys(), key=lambda w: w.coords2):
        if failure := _unequal(got.get(w, 0), want.get(w, 0), f"at {list(w.coords2)}: "):
            return failure


def _delta_failure(datum, dec):
    for r in range(0, datum.rank + 1):
        for subset in itertools.combinations(range(1, datum.rank + 1), r):
            w, _ = orders.two_rho_minus_delta(datum, subset)
            want = exterior_oracle.reference_polynomials(datum, "reeder_deltaI", subset=subset)
            if failure := _unequal(dec.get(w, PolyT.zero()), want, f"I = {list(subset)}: "):
                return failure


def _small_failure(datum, totals, scale):
    for lam in orders.enumerate_dominant_below(datum, 2 * datum.rho, "dominance"):
        bound = scale * weyl_oracle.dominant_multiplicities(datum, lam).get(datum.zero, 0)
        total, small = totals.get(lam, 0), orders.is_small(datum, lam)
        if (total != bound) if small else (total >= bound):
            return f"at {list(lam.coords2)}: total {total}, bound {bound}, small {small}"


def _factorization_failure(datum, dec):
    for lam in genexp.covered_small_weights(datum):
        ones = sum(1 for c in lam.coords2 if c)
        if ones % 2 or ones == datum.rank:
            continue  # factorization checked for the w_{2s} columns
        s = ones // 2
        rhs = PolyT({0: 1, -1: 1})
        for e in datum.exponents[:datum.rank - s]:
            rhs = rhs * PolyT({0: 1, 2 * e + 1: 1})
        for e in datum.exponents[:s - 1]:
            rhs = rhs * PolyT({0: 1, 2 * e + 1: 1})
        rhs = rhs * genexp.closed_E(datum, lam).subs_power(2)
        if failure := _unequal(dec.get(lam, PolyT.zero()), rhs, f"at {list(lam.coords2)}: "):
            return failure


def exterior_checks(datum, module, dim_cap=exterior_oracle.DEFAULT_DIM_CAP):
    """The reference checks on Lambda(V) for V = g (``module="adjoint"``) or
    V = V_theta_s (``"little-adjoint"``), with dim V at most ``dim_cap``."""
    checks = []
    if module == "adjoint":
        dec = exterior_oracle.exterior_decomposition(datum, datum.theta, cap=dim_cap)
        for name, w in (("hks_invariants", datum.zero), ("bazlov_adjoint", datum.theta)):
            want = exterior_oracle.reference_polynomials(datum, name)
            _record(checks, name, _unequal(dec[w], want))
        _record(checks, "reeder_delta_I_all_subsets", _delta_failure(datum, dec))
        totals = {w: p(1) for w, p in dec.items()}
        kl = weyl_oracle.klimyk_tensor(datum, datum.rho, datum.rho)
        scale = 2 ** datum.rank
        _record(checks, "kostant_scaled_tensor_square",
                _table_diff(totals, {w: scale * m for w, m in kl.items()}))
        _record(checks, "reeder_small_equality_iff", _small_failure(datum, totals, scale))
        if datum.family == "B":
            _record(checks, "graded_multiplicity_factorization",
                    _factorization_failure(datum, dec))
    else:
        if datum.theta_short is None:
            raise ConfigurationError("little adjoint needs a non-simply-laced family")
        dec = exterior_oracle.exterior_decomposition(datum, datum.theta_short, cap=dim_cap)
        totals = {w: p(1) for w, p in dec.items()}
        below = orders.enumerate_dominant_below(datum, 2 * datum.rho_short, "dominance")
        label = "conjecture-check" if datum.family == "C" else "verified-case-check"
        # support indicators: "got 1, want 0" is a support weight above 2 rho_s
        _record(checks, f"support_iff_below_2rho_short ({label})",
                _table_diff(dict.fromkeys(totals, 1), dict.fromkeys(below, 1)))
        # the scaled tensor square on its published scope: for G2 the identity
        # provably fails (dim 128 vs 98), and the support iff is the claim
        if datum.family in ("B", "C"):
            kl = weyl_oracle.klimyk_tensor(datum, datum.rho_short, datum.rho_short)
            scale = 2 ** datum.num_short_simple
            _record(checks, "panyushev_scaled_tensor_square",
                    _table_diff(totals, {w: scale * m for w, m in kl.items()}))
    return checks


def short_kostant_verify(family, rank):
    """Decompose V_rho_s (x) V_rho_s and test the support against 2*rho_s.

    For type B the little-adjoint exterior algebra is additionally compared
    (at tiny rank) against the scaled tensor square.  Returns (report, ok):
    the type-C iff is reported as conjecture status, never required.
    """
    if family not in ("B", "C", "G2"):
        raise ConfigurationError("short-root check needs a non-simply-laced family (B, C, G2)")
    datum = build_root_datum(family, rank)
    two_rho_s = 2 * datum.rho_short
    decomposition = weyl_oracle.klimyk_tensor(datum, datum.rho_short, datum.rho_short)
    below = orders.enumerate_dominant_below(datum, two_rho_s, "dominance")
    iff = set(decomposition) == set(below)
    status = {"B": "proved-case-check", "G2": "computed-case-check",
              "C": "conjecture-check"}[family]
    report = {
        "family": family,
        "rank": rank,
        "status": status,
        "count_below_2rho_short": len(below),
        "tensor_support": len(decomposition),
        "iff_holds": iff,
        "missing": sorted(list(w.coords2) for w in set(below) - set(decomposition)),
        "extra": sorted(list(w.coords2) for w in set(decomposition) - set(below)),
    }
    if family == "B" and rank <= 3:
        dec = exterior_oracle.exterior_decomposition(datum, datum.theta_short)
        scale = 2 ** datum.num_short_simple
        report["panyushev_identity"] = {w: p(1) for w, p in dec.items()} == \
            {w: scale * m for w, m in decomposition.items()}
    ok = (family == "C" or iff) and report.get("panyushev_identity", True)
    return report, ok
