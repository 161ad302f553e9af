"""Generalized-exponent polynomials three ways: closed form, recurrence, oracle.

The closed formulas cover the small fundamental chains in types B, C, D; the
recurrences derive the same polynomials from the base cases alone; and the
Weyl-group oracle computes them from the graded partition function with no
combinatorial shortcuts.  Exits 1 if the three disagree.
"""

from extalg import (PolyT, build_root_datum, closed_E, covered_small_weights, freudenthal,
                    symmetric_series)
from extalg.checks import genexp_verify

failed = 0
for family, rank in [("B", 3), ("C", 4), ("D", 4)]:
    datum = build_root_datum(family, rank)
    report, ok = genexp_verify(datum)
    failed += not ok
    agree = {row["lambda"]: row["agree"] for row in report["rows"]}
    print(f"{family}{rank}:")
    for lam in covered_small_weights(datum):
        name = datum.fund_string(lam)
        zero_dim = freudenthal(datum, lam).mult.get(datum.zero, 0)
        print(f"  E_{name:7s} = {closed_E(datum, lam)}   "
              f"[three-way agree: {agree[name]}, E(1) = dim zero space = {zero_dim}]")

b2 = build_root_datum("B", 2)
print("\ngraded multiplicities of the adjoint in the symmetric algebra of so(5):")
print("  ", symmetric_series(b2, closed_E(b2, b2.theta), 9))
print("invariants of S(g) start in the exponent degrees + 1:")
print("  ", symmetric_series(b2, PolyT.one(), 9))
raise SystemExit(1 if failed else 0)
