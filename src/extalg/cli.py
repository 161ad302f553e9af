"""Batch command-line frontend: deterministic JSON/CSV verification sweeps.

Exit codes: 0 = all checks passed, 1 = a mathematical mismatch (a failed
cross-check, with the report still written, or a library invariant raising
``ArithmeticError``, with one ``mismatch:`` line on stderr), 2 = usage or
configuration error or an exceeded resource cap, 3 = an I/O error (for
example an unwritable ``--output`` path, one ``error:`` line) or any other
exception, ``ZeroDivisionError`` and ``OverflowError`` included (one
``internal error:`` line).  Reports are byte-stable across
runs for a fixed configuration.  Every cross-check is a battery in
``checks``: a check command parses its weights, calls the battery and
prints the report it returns.
"""

import argparse
import io
import itertools
import json
import re
import sys

from . import checks, exterior_oracle, orders
from .checks import _weight_json
from .core import DEFAULT_CELL_CAP, ResourceCapError
from .rootdata import ConfigurationError, build_root_datum, weight_from_fundamental

SCHEMA = 1


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


def _finish(args, report, ok):
    report["schema"] = SCHEMA
    _emit(report, args)
    return 0 if ok else 1


def _datum(args):
    return build_root_datum(args.family, args.rank)


def _parse_weight(datum, text):
    """The weight with the comma-separated fundamental coefficients ``text``."""
    parts = [p.strip() for p in text.split(",")]
    for p in parts:
        if not re.fullmatch(r"[+-]?[0-9]+", p):
            raise ValueError(f"malformed coefficient {p!r} in {text!r}")
    if len(parts) != datum.rank:
        raise ValueError(f"expected {datum.rank} comma-separated coefficients, got {len(parts)}")
    return weight_from_fundamental(datum, [int(p) for p in parts])


def cmd_roots(args):
    datum = _datum(args)
    return _finish(args, {
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
    }, True)


def cmd_orders(args):
    datum = _datum(args)
    bound = _parse_weight(datum, args.bound) if args.bound is not None else 2 * datum.rho
    dom = orders.enumerate_dominant_below(datum, bound, args.cap)
    cw = [w for w in dom if orders.coordinatewise_leq(w, bound)]
    small = [w for w in dom if orders.is_small(datum, w)]
    subsets = 2 ** datum.rank - 1
    if subsets > args.cap:
        raise ResourceCapError(f"{subsets} nonempty subsets of the simple roots exceed "
                               f"cap {args.cap}")
    delta_fail = 0
    for r in range(1, datum.rank + 1):
        for subset in itertools.combinations(range(1, datum.rank + 1), r):
            w, _ = orders.two_rho_minus_delta(datum, subset)
            if not orders.coordinatewise_leq(w, 2 * datum.rho):
                delta_fail += 1
    return _finish(args, {
        "family": datum.family,
        "rank": datum.rank,
        "bound": _weight_json(datum, bound),
        "count_dominance": len(dom),
        "count_dominance_and_coordinatewise": len(cw),
        "count_small": len(small),
        "two_rho_minus_delta": {"nonempty_subsets": subsets,
                                "fail_coordinatewise": delta_fail},
        "weights_dominance": [_weight_json(datum, w) for w in dom],
    }, True)


def cmd_lr(args):
    datum = _datum(args)
    lam, mu = _parse_weight(datum, args.lam), _parse_weight(datum, args.mu)
    nu = _parse_weight(datum, args.nu) if args.nu is not None else None
    return _finish(args, *checks.lr_verify(datum, lam, mu, nu, witnesses=args.witnesses,
                                           oracle=args.oracle, cap=args.cap))


def cmd_kostant_verify(args):
    return _finish(args, *checks.kostant_verify(_datum(args), oracle=args.oracle,
                                                force_case="C" if args.case_c else None,
                                                cap=args.cap))


def cmd_short_kostant(args):
    return _finish(args, *checks.short_kostant_verify(_datum(args), cap=args.cap))


def cmd_genexp(args):
    return _finish(args, *checks.genexp_verify(_datum(args), cap=args.cap))


def cmd_recurrence_verify(args):
    return _finish(args, *checks.recurrence_verify(
        _datum(args), args.k, args.exterior_specialization, cap=args.cap))


def cmd_exterior_verify(args):
    datum = _datum(args)
    records = checks.exterior_checks(datum, args.module, args.dim_cap, args.cap)
    ok = all(c["pass"] for c in records)
    return _finish(args, {"family": datum.family, "rank": datum.rank, "module": args.module,
                          "checks": records, "all_pass": ok}, ok)


def _nonnegative_int(text):
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


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
        p.add_argument("--cap", type=_nonnegative_int, default=DEFAULT_CELL_CAP,
                       help="resource cap on oracle cells, lr enumeration steps, "
                            "recurrence orbit points, listed dominant weights, the "
                            "weights the exterior character stores while it is built "
                            "and the subsets orders summarises")
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
    p.add_argument("--dim-cap", type=_nonnegative_int,
                   default=exterior_oracle.DEFAULT_DIM_CAP)
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
    if args.cap > DEFAULT_CELL_CAP and not args.force_cap:
        sys.stderr.write("a cap above the default needs --force-cap\n")
        return 2
    try:
        return args.func(args)
    except (ConfigurationError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except ResourceCapError as exc:
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
