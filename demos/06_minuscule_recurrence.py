"""The minuscule-recurrence engine over two-variable Laurent polynomials.

Builds reduced recurrence rows from first principles, aggregates them with
the integer tables A^{k,n}, verifies every closed coefficient identity, and
shows the q = 0 specialization annihilating the generalized-exponent vector.
Exits 1 if an identity fails or the q = 0 sum is not zero.
"""

from extalg import (LaurentQS, build_root_datum, closed_E, minuscule_row,
                    omega0_count, verify_aggregate)
from extalg.genexp import PolyT
from extalg.recurrence import a_integers, chain_weight

b3 = build_root_datum("B", 3)

print("reduced recurrence rows for so(7), chain weights (1^k, 0^*):")
for k in (1, 2, 3):
    row = minuscule_row(b3, chain_weight(b3, k))
    print(f"  k = {k}:")
    for key, entry in sorted(row.entries.items(), key=lambda kv: kv[0].coords2):
        print(f"    C[{b3.fund_string(key):5s}] * ({entry})")

print("\nzero-conjugated orbit counts (brute force == shapes == closed form):")
for k in (1, 2, 3):
    print(f"  |Omega_0^({k},3)| = {omega0_count(b3, k)}")
print(f"  aggregation integers A^(3,3): {a_integers(b3, 3)}")

print("\ncoefficient identities, per-coefficient symbolic equality:")
failed = 0
for family, rank, kmax in [("B", 3, 3), ("B", 4, 4), ("D", 4, 2), ("D", 5, 2)]:
    datum = build_root_datum(family, rank)
    for k in range(1, kmax + 1):
        report = verify_aggregate(datum, k)
        failed += not report["all_pass"]
        names = ", ".join(c["name"] for c in report["checks"] if not c["pass"]) or "none"
        print(f"  {family}{rank} k={k}: all pass = {report['all_pass']} (failures: {names})")

print("\nq = 0 annihilation of the exponent vector, D5 top chain:")
d5 = build_root_datum("D", 5)
row = minuscule_row(d5, chain_weight(d5, 2))
acc = LaurentQS()
for key, entry in row.entries.items():
    e_poly = PolyT.one() if key.is_zero() else closed_E(d5, key)
    acc = acc + entry.q_at_zero() * LaurentQS.from_t_poly(e_poly)
print(f"  sum over the row of coeff(q=0) * E = {acc}")
raise SystemExit(1 if failed or not acc.is_zero() else 0)
