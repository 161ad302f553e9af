"""Batch command-line frontend: deterministic JSON/CSV verification sweeps.

Exit codes: 0 = all checks passed, 1 = a mathematical mismatch (a failed
cross-check, with the report still written, or a library invariant raising
``ArithmeticError``, with one ``mismatch:`` line on stderr), 2 = usage or
configuration error or an exceeded resource cap, 3 = an I/O error (for
example an unwritable ``--output`` path, one ``error:`` line) or any other
exception, ``ZeroDivisionError`` and ``OverflowError`` included (one
``internal error:`` line).  Reports are byte-stable across
runs for a fixed configuration.  The check batteries live in ``checks``.
"""

import argparse
import io
import itertools
import json
import sys

from . import checks, exterior_oracle, gpartitions, genexp, orders, recurrence, weyl_oracle
from .constructor import certify_theorem
from .rootdata import ConfigurationError, build_root_datum, weight_from_fundamental

SCHEMA = 1


def _weight_json(datum, w):
    return {"coords2": list(w.coords2), "fund": datum.fund_string(w)}


def _emit(report, args):
    if getattr(args, "format", "json") == "csv" and "rows" in report:
        buf = io.StringIO()
        cols = report["columns"]
        buf.write(",".join(cols) + "\n")
        for row in report["rows"]:
            buf.write(",".join(str(row[c]) for c in cols) + "\n")
        text = buf.getvalue()
    else:
        text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    if getattr(args, "output", None):
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _datum(args):
    return build_root_datum(args.family, args.rank)


def _parse_coeffs(text, rank):
    parts = [p for p in text.replace(" ", "").split(",") if p != ""]
    if len(parts) != rank:
        raise ValueError(f"expected {rank} comma-separated coefficients, got {len(parts)}")
    return [int(p) for p in parts]


def cmd_roots(args):
    datum = _datum(args)
    report = {
        "schema": SCHEMA,
        "family": datum.family,
        "rank": datum.rank,
        "num_positive_roots": len(datum.positive_roots),
        "positive_roots": [list(r.coords2) for r in datum.positive_roots],
        "simple_roots": [list(r.coords2) for r in datum.simple_roots],
        "fundamental_weights": [list(w.coords2) for w in datum.fundamental_weights],
        "rho": _weight_json(datum, datum.rho),
        "rho_short": _weight_json(datum, datum.rho_short),
        "theta": _weight_json(datum, datum.theta),
        "theta_short": _weight_json(datum, datum.theta_short) if datum.theta_short else None,
        "exponents": list(datum.exponents),
        "coxeter_number": datum.coxeter_number,
        "num_short_simple": datum.num_short_simple,
    }
    _emit(report, args)
    return 0


def cmd_orders(args):
    datum = _datum(args)
    bound = (weight_from_fundamental(datum, _parse_coeffs(args.bound, datum.rank))
             if args.bound else 2 * datum.rho)
    dom = orders.enumerate_dominant_below(datum, bound, "dominance")
    cw = orders.enumerate_dominant_below(datum, bound, "dominance_and_coordinatewise")
    small = orders.enumerate_dominant_below(datum, bound, "small")
    delta_fail = 0
    subsets = 0
    for r in range(1, datum.rank + 1):
        for subset in itertools.combinations(range(1, datum.rank + 1), r):
            subsets += 1
            w, _ = orders.two_rho_minus_delta(datum, subset)
            if not orders.coordinatewise_leq(w, 2 * datum.rho):
                delta_fail += 1
    report = {
        "schema": SCHEMA,
        "family": datum.family,
        "rank": datum.rank,
        "bound": _weight_json(datum, bound),
        "count_dominance": len(dom),
        "count_dominance_and_coordinatewise": len(cw),
        "count_small": len(small),
        "two_rho_minus_delta": {"nonempty_subsets": subsets,
                                "fail_coordinatewise": delta_fail},
        "weights_dominance": [_weight_json(datum, w) for w in dom],
    }
    _emit(report, args)
    return 0


def cmd_lr(args):
    datum = _datum(args)
    lam = weight_from_fundamental(datum, _parse_coeffs(args.lam, datum.rank))
    mu = weight_from_fundamental(datum, _parse_coeffs(args.mu, datum.rank))
    report = {
        "schema": SCHEMA,
        "family": datum.family,
        "rank": datum.rank,
        "lambda": _weight_json(datum, lam),
        "mu": _weight_json(datum, mu),
    }
    mismatch = False
    oracle = weyl_oracle.klimyk_tensor(datum, lam, mu, cap=args.cap) if args.oracle else None
    if args.nu:
        nu = weight_from_fundamental(datum, _parse_coeffs(args.nu, datum.rank))
        count, wits = gpartitions.count_lr(datum, lam, mu, nu,
                                           want_witnesses=args.witnesses, cap=args.cap)
        report["nu"] = _weight_json(datum, nu)
        report["count"] = count
        if args.witnesses:
            report["witnesses"] = [list(p.flat) for p in wits]
        if oracle is not None:
            want = oracle.get(nu, 0)
            report["oracle_count"] = want
            mismatch = want != count
    else:
        comps = []
        for nu in orders.enumerate_dominant_below(datum, lam + mu, "dominance"):
            count, _ = gpartitions.count_lr(datum, lam, mu, nu, cap=args.cap)
            if count:
                entry = {"nu": _weight_json(datum, nu), "count": count}
                if oracle is not None:
                    entry["oracle_count"] = oracle.get(nu, 0)
                    mismatch = mismatch or entry["oracle_count"] != count
                comps.append(entry)
        report["components"] = comps
        if oracle is not None:
            # every oracle component must be matched by a nonzero polytope count
            seen = {tuple(c["nu"]["coords2"]) for c in comps}
            missing = sorted(list(w.coords2) for w in oracle if w.coords2 not in seen)
            report["oracle_missing"] = missing
            mismatch = mismatch or bool(missing)
    report["match"] = not mismatch if oracle is not None else None
    _emit(report, args)
    return 1 if mismatch else 0


def cmd_kostant_verify(args):
    datum = _datum(args)
    report = certify_theorem(datum, oracle=args.oracle,
                             force_case="C" if args.case_c else None, cap=args.cap)
    report["schema"] = SCHEMA
    bad = bool(report["failures"])
    if args.oracle and not report["oracle"]["iff_holds"]:
        bad = True
    _emit(report, args)
    return 1 if bad else 0


def cmd_short_kostant(args):
    report, ok = checks.short_kostant_verify(args.family, args.rank)
    report["schema"] = SCHEMA
    _emit(report, args)
    return 0 if ok else 1


def cmd_genexp(args):
    datum = _datum(args)
    closed_table = {w: genexp.closed_E(datum, w) for w in genexp.covered_small_weights(datum)}
    recur_table = genexp.recur_E(datum)
    rows = []
    all_agree = True
    for lam in genexp.covered_small_weights(datum):
        oracle = weyl_oracle.lusztig_E(datum, lam, cap=args.cap)
        agree = closed_table[lam] == recur_table[lam] == oracle
        all_agree = all_agree and agree
        for source, poly in (("closed", closed_table[lam]),
                             ("recurrence", recur_table[lam]),
                             ("oracle", oracle)):
            rows.append({
                "family": datum.family,
                "rank": datum.rank,
                "lambda": datum.fund_string(lam),
                "E_coeffs": ";".join(f"{e}:{c}" for e, c in poly.items_sorted()),
                "source": source,
                "agree": agree,
            })
    report = {
        "schema": SCHEMA,
        "family": datum.family,
        "rank": datum.rank,
        "columns": ["family", "rank", "lambda", "E_coeffs", "source", "agree"],
        "rows": rows,
        "all_agree": all_agree,
    }
    _emit(report, args)
    return 0 if all_agree else 1


def cmd_recurrence_verify(args):
    datum = _datum(args)
    if datum.family == "B":
        ks = [args.k] if args.k else list(range(1, datum.rank + 1))
    elif datum.family == "D":
        ks = [args.k] if args.k else list(range(1, datum.rank // 2 + 1))
    else:
        raise ConfigurationError("recurrence verification covers families B and D")
    reports = []
    ok = True
    for k in ks:
        rep = recurrence.verify_aggregate(datum, k, cap=args.cap)
        if args.exterior_specialization:
            # the row verify_aggregate has just built
            row = recurrence._row_cached(datum.family, datum.rank, k, args.cap)
            rep["exterior_specialization"] = {
                datum.fund_string(w): repr(recurrence.exterior_specialization(entry))
                for w, entry in sorted(row.entries.items(), key=lambda kv: kv[0].coords2)
            }
        reports.append(rep)
        ok = ok and rep["all_pass"]
    if args.k:
        report = dict(reports[0])
        report["schema"] = SCHEMA
    else:
        report = {"schema": SCHEMA, "family": datum.family, "rank": datum.rank,
                  "reports": reports, "all_pass": ok}
    _emit(report, args)
    return 0 if ok else 1


def cmd_exterior_verify(args):
    datum = _datum(args)
    records = checks.exterior_checks(datum, args.module, args.dim_cap)
    ok = all(c["pass"] for c in records)
    report = {"schema": SCHEMA, "family": datum.family, "rank": datum.rank,
              "module": args.module, "checks": records, "all_pass": ok}
    _emit(report, args)
    return 0 if ok else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="gexp",
        description="Exact verification sweeps for exterior-algebra combinatorics "
                    "of the classical simple Lie algebras.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, families=("A", "B", "C", "D", "G2")):
        p.add_argument("--family", required=True, choices=list(families))
        p.add_argument("--rank", required=True, type=int)
        p.add_argument("--output", help="write the report to this path instead of stdout")
        p.add_argument("--cap", type=int, default=weyl_oracle.DEFAULT_CELL_CAP,
                       help="resource cap on oracle cells, lr enumeration steps "
                            "and recurrence orbit points")
        p.add_argument("--force-cap", action="store_true",
                       help="acknowledge a cap larger than the default")

    p = sub.add_parser("roots", help="dump the root datum")
    common(p)
    p.set_defaults(func=cmd_roots)

    p = sub.add_parser("orders", help="census of dominant weights below a bound")
    common(p)
    p.add_argument("--bound", help="fundamental coefficients of the bound (default 2*rho)")
    p.set_defaults(func=cmd_orders)

    p = sub.add_parser("lr", help="tensor multiplicities from polytope counts")
    common(p, families=("B", "C", "D"))
    p.add_argument("--lam", "--lambda", dest="lam", required=True,
                   help="fundamental coefficients, e.g. 1,0,0")
    p.add_argument("--mu", required=True)
    p.add_argument("--nu", help="restrict to one component")
    p.add_argument("--witnesses", action="store_true")
    p.add_argument("--oracle", action="store_true",
                   help="cross-check against the Brauer-Klimyk rule")
    p.set_defaults(func=cmd_lr)

    p = sub.add_parser("kostant-verify", help="certify the coordinatewise-order theorem")
    common(p, families=("B", "C", "D"))
    p.add_argument("--oracle", action="store_true",
                   help="also decompose V_rho (x) V_rho and test the full iff")
    p.add_argument("--case-c", action="store_true",
                   help="type B: force the Case-C construction where Case B applies")
    p.set_defaults(func=cmd_kostant_verify)

    p = sub.add_parser("short-kostant-verify",
                       help="short-root analogue: support of V_rho_s (x) V_rho_s")
    common(p, families=("B", "C", "G2"))
    p.set_defaults(func=cmd_short_kostant)

    p = sub.add_parser("genexp", help="generalized-exponent tables, three ways")
    common(p, families=("B", "C", "D"))
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=cmd_genexp)

    p = sub.add_parser("recurrence-verify", help="minuscule-recurrence coefficient identities")
    common(p, families=("B", "D"))
    p.add_argument("--k", type=int, help="single chain index (default: all covered)")
    p.add_argument("--exterior-specialization", action="store_true",
                   help="include the (q,t)->(-q,q^2) specialization column (informational)")
    p.set_defaults(func=cmd_recurrence_verify)

    p = sub.add_parser("exterior-verify", help="graded exterior-algebra reference checks")
    common(p, families=("B", "C", "D", "G2"))
    p.add_argument("--module", choices=("adjoint", "little-adjoint"), required=True)
    p.add_argument("--dim-cap", type=int, default=exterior_oracle.DEFAULT_DIM_CAP)
    p.set_defaults(func=cmd_exterior_verify)

    return parser


_parser = None


def run(argv=None):
    global _parser
    if _parser is None:
        # built on first use, not at import, and reused: parse_args starts
        # every call from a fresh namespace, so no option carries over
        _parser = build_parser()
    parser = _parser
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    if args.cap > weyl_oracle.DEFAULT_CELL_CAP and not args.force_cap:
        sys.stderr.write("a cap above the default needs --force-cap\n")
        return 2
    try:
        return args.func(args)
    except (ConfigurationError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except weyl_oracle.ResourceCapError as exc:
        sys.stderr.write(f"resource cap: {exc}\n")
        return 2
    except OSError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3
    except Exception as exc:  # noqa: BLE001
        # the library's invariant failures are verdicts; Python's own
        # arithmetic faults and every other exception are bugs
        if isinstance(exc, ArithmeticError) and \
                not isinstance(exc, (ZeroDivisionError, OverflowError)):
            sys.stderr.write(f"mismatch: {_one_line(exc)}\n")
            return 1
        sys.stderr.write(f"internal error: {type(exc).__name__}: {_one_line(exc)}\n")
        return 3


def _one_line(exc):
    return " ".join(str(exc).split())


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
