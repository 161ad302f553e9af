"""Check batteries shared by the CLI, the acceptance tests and the demos.

A battery only compares the outputs of the two computation paths, calling
them through their modules.  ``exterior_checks`` returns one record
{"name", "pass", "detail"} per claim, and a failed record's detail names the
first counterexample; every ``*_verify`` battery returns ``(report, ok)``,
the report being what ``gexp`` prints without its schema number.
"""

import itertools

from . import constructor, exterior_oracle, genexp, gpartitions, orders, recurrence, weyl_oracle
from .core import DEFAULT_CELL_CAP, PolyT, _first_unequal, _record, _unequal
from .rootdata import ConfigurationError


def _table_diff(got, want):
    # the first weight in coords2 order where two weight tables differ; the
    # tables hold no zero values, so a missing key reads as 0
    return _first_unequal((f"at {list(w.coords2)}: ", got.get(w, 0), want.get(w, 0))
                          for w in sorted(got.keys() | want.keys(), key=lambda w: w.coords2))


def _delta_cases(datum, dec):
    for r in range(0, datum.rank + 1):
        for subset in itertools.combinations(range(1, datum.rank + 1), r):
            w, _ = orders.two_rho_minus_delta(datum, subset)
            want = exterior_oracle.reference_polynomials(datum, "reeder_deltaI", subset=subset)
            yield f"I = {list(subset)}: ", dec.get(w, PolyT.zero()), want


def _small_failure(datum, totals, scale, cap):
    for lam, zero in weyl_oracle.zero_weight_column(datum, 2 * datum.rho, cap).items():
        bound = scale * zero
        total, small = totals.get(lam, 0), orders.is_small(datum, lam)
        if (total != bound) if small else (total >= bound):
            return f"at {list(lam.coords2)}: total {total}, bound {bound}, small {small}"


def _factorization_cases(datum, dec):
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
        yield f"at {list(lam.coords2)}: ", dec.get(lam, PolyT.zero()), rhs


def _scaled_diff(totals, tensor, scale):
    return _table_diff(totals, {w: scale * m for w, m in tensor.items()})


def _weight_json(datum, w):
    return {"coords2": list(w.coords2), "fund": datum.fund_string(w)}


def _square_support(datum, x, cap):
    """Klimyk V_x (x) V_x, the dominant weights below 2x, and the report
    fields comparing the support of the one with the other."""
    decomposition = weyl_oracle.klimyk_tensor(datum, x, x, cap=cap)
    below = orders.enumerate_dominant_below(datum, 2 * x, cap)
    support, expected = set(decomposition), set(below)
    return decomposition, below, {
        "tensor_support": len(support),
        "iff_holds": support == expected,
        "missing": sorted(list(w.coords2) for w in expected - support),
        "extra": sorted(list(w.coords2) for w in support - expected),
    }


def exterior_checks(datum, module, dim_cap=exterior_oracle.DEFAULT_DIM_CAP,
                    cap=DEFAULT_CELL_CAP):
    """The reference checks on Lambda(V) for V = g (``module="adjoint"``) or
    V = V_theta_s (``"little-adjoint"``), with dim V at most ``dim_cap``;
    ``cap`` bounds the Klimyk cells, the orbit cells of the zero-weight
    column, the dominant weights listed below 2*rho_s and the weights the
    exterior character stores while it is built, each on its own."""
    if module not in ("adjoint", "little-adjoint"):
        raise ValueError(f"unknown module {module!r}: want 'adjoint' or 'little-adjoint'")
    checks = []
    if module == "adjoint":
        dec = exterior_oracle.exterior_decomposition(datum, datum.theta, cap=dim_cap,
                                                   stored_cap=cap)
        for name, w in (("hks_invariants", datum.zero), ("bazlov_adjoint", datum.theta)):
            want = exterior_oracle.reference_polynomials(datum, name)
            _record(checks, name, _unequal(dec[w], want))
        _record(checks, "reeder_delta_I_all_subsets", _first_unequal(_delta_cases(datum, dec)))
        totals = {w: p(1) for w, p in dec.items()}
        kl = weyl_oracle.klimyk_tensor(datum, datum.rho, datum.rho, cap=cap)
        scale = 2 ** datum.rank
        _record(checks, "kostant_scaled_tensor_square", _scaled_diff(totals, kl, scale))
        _record(checks, "reeder_small_equality_iff", _small_failure(datum, totals, scale, cap))
        if datum.family == "B":
            _record(checks, "graded_multiplicity_factorization",
                    _first_unequal(_factorization_cases(datum, dec)))
    else:
        if datum.theta_short is None:
            raise ConfigurationError("little adjoint needs a non-simply-laced family")
        dec = exterior_oracle.exterior_decomposition(datum, datum.theta_short, cap=dim_cap,
                                                   stored_cap=cap)
        totals = {w: p(1) for w, p in dec.items()}
        below = orders.enumerate_dominant_below(datum, 2 * datum.rho_short, cap)
        label = "conjecture-check" if datum.family == "C" else "verified-case-check"
        # support indicators: "got 1, want 0" is a support weight above 2 rho_s
        _record(checks, f"support_iff_below_2rho_short ({label})",
                _table_diff(dict.fromkeys(totals, 1), dict.fromkeys(below, 1)))
        # the scaled tensor square on its published scope: for G2 the identity
        # provably fails (dim 128 vs 98), and the support iff is the claim
        if datum.family in ("B", "C"):
            kl = weyl_oracle.klimyk_tensor(datum, datum.rho_short, datum.rho_short, cap=cap)
            _record(checks, "panyushev_scaled_tensor_square",
                    _scaled_diff(totals, kl, 2 ** datum.num_short_simple))
    return checks


def short_kostant_verify(datum, cap=DEFAULT_CELL_CAP):
    """Decompose V_rho_s (x) V_rho_s and test the support against 2*rho_s.

    For type B the little-adjoint exterior algebra is additionally compared
    (at tiny rank) against the scaled tensor square.  Returns (report, ok):
    the type-C iff is reported as conjecture status, never required.
    """
    if datum.family not in ("B", "C", "G2"):
        raise ConfigurationError("short-root check needs a non-simply-laced family (B, C, G2)")
    decomposition, below, fields = _square_support(datum, datum.rho_short, cap)
    status = {"B": "proved-case-check", "G2": "computed-case-check",
              "C": "conjecture-check"}[datum.family]
    report = {"family": datum.family, "rank": datum.rank, "status": status,
              "count_below_2rho_short": len(below), **fields}
    if datum.family == "B" and datum.rank <= 3:
        dec = exterior_oracle.exterior_decomposition(datum, datum.theta_short)
        report["panyushev_identity"] = not _scaled_diff(
            {w: p(1) for w, p in dec.items()}, decomposition, 2 ** datum.num_short_simple)
    ok = (datum.family == "C" or fields["iff_holds"]) and report.get("panyushev_identity", True)
    return report, ok


def kostant_verify(datum, oracle=False, force_case=None, cap=DEFAULT_CELL_CAP):
    """Certify every lam below 2*rho in both orders (``constructor``) and,
    with ``oracle``, test that V_rho (x) V_rho has exactly the dominant
    weights below 2*rho as its support (Brauer-Klimyk).  ``cap`` bounds
    each census of the dominant weights below 2*rho and the Klimyk cells."""
    report = constructor.certify_theorem(datum, force_case=force_case, cap=cap)
    ok = not report["failures"]
    if oracle:
        _, below, fields = _square_support(datum, datum.rho, cap)
        report["oracle"] = {"dominant_below_2rho": len(below), **fields}
        ok = ok and fields["iff_holds"]
    return report, ok


def lr_verify(datum, lam, mu, nu=None, witnesses=False, oracle=False, cap=DEFAULT_CELL_CAP):
    """Polytope counts of V_nu in V_lam (x) V_mu, for the one ``nu`` given or
    for every nu with a nonzero count, compared with Brauer-Klimyk when
    ``oracle`` is set (``match`` is None otherwise)."""
    for w in (lam, mu) if nu is None else (lam, mu, nu):
        datum.require_dominant(w)
    report = {"family": datum.family, "rank": datum.rank,
              "lambda": _weight_json(datum, lam), "mu": _weight_json(datum, mu)}
    kl = weyl_oracle.klimyk_tensor(datum, lam, mu, cap=cap) if oracle else None
    if nu is not None:
        count, wits = gpartitions.count_lr(datum, lam, mu, nu,
                                           want_witnesses=witnesses, cap=cap)
        report.update(nu=_weight_json(datum, nu), count=count)
        if witnesses:
            report["witnesses"] = [list(p.flat) for p in wits]
        entries = [(nu, report)]
    else:
        entries = []
        for w in orders.enumerate_dominant_below(datum, lam + mu, cap):
            count, _ = gpartitions.count_lr(datum, lam, mu, w, cap=cap)
            if count:
                entries.append((w, {"nu": _weight_json(datum, w), "count": count}))
        report["components"] = [entry for _, entry in entries]
    report["match"] = None
    if oracle:
        for w, entry in entries:
            entry["oracle_count"] = kl.get(w, 0)
        missing = []
        if nu is None:
            # every oracle component must be matched by a nonzero polytope count
            found = {w for w, _ in entries}
            missing = report["oracle_missing"] = sorted(
                list(w.coords2) for w in kl if w not in found)
        report["match"] = not missing and all(
            entry["oracle_count"] == entry["count"] for _, entry in entries)
    return report, not oracle or report["match"]


def genexp_verify(datum, cap=DEFAULT_CELL_CAP):
    """E_lam for every covered small lam three ways: the closed formula, the
    recurrence and Lusztig's q-analogue of the zero-weight multiplicity."""
    covered = genexp.covered_small_weights(datum)
    closed = {w: genexp.closed_E(datum, w) for w in covered}
    recur = genexp.recur_E(datum)
    rows = []
    for lam in covered:
        polys = {"closed": closed[lam], "recurrence": recur[lam],
                 "oracle": weyl_oracle.lusztig_E(datum, lam, cap=cap)}
        agree = polys["closed"] == polys["recurrence"] == polys["oracle"]
        rows += [{"family": datum.family, "rank": datum.rank,
                  "lambda": datum.fund_string(lam),
                  "E_coeffs": ";".join(f"{e}:{c}" for e, c in poly.items_sorted()),
                  "source": source, "agree": agree}
                 for source, poly in polys.items()]
    ok = all(row["agree"] for row in rows)
    return {"family": datum.family, "rank": datum.rank,
            "columns": ["family", "rank", "lambda", "E_coeffs", "source", "agree"],
            "rows": rows, "all_agree": ok}, ok


def recurrence_verify(datum, k=None, exterior_specialization=False, cap=DEFAULT_CELL_CAP):
    """The coefficient identities of ``recurrence.verify_aggregate`` for the
    k-th chain weight, or for every covered k under one family report, each
    with the (q, t) -> (-q, q^2) specialization of its row when
    ``exterior_specialization`` is set (informational, never checked)."""
    if datum.family not in ("B", "D"):
        raise ConfigurationError("recurrence verification covers families B and D")
    reports = []
    zero_records = {}
    for kk in [k] if k is not None else range(1, recurrence.chain_count(datum) + 1):
        report = recurrence.verify_aggregate(datum, kk, cap=cap, zero_records=zero_records)
        if exterior_specialization:
            # the row verify_aggregate has just built
            row = recurrence._row_cached(datum.family, datum.rank, kk, cap)
            report["exterior_specialization"] = {
                datum.fund_string(w): repr(recurrence.exterior_specialization(entry))
                for w, entry in sorted(row.entries.items(), key=lambda kv: kv[0].coords2)
            }
        reports.append(report)
    ok = all(report["all_pass"] for report in reports)
    if k is not None:
        return reports[0], ok
    return {"family": datum.family, "rank": datum.rank,
            "reports": reports, "all_pass": ok}, ok
