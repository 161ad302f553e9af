"""Explicit certificates that V_lam occurs in the exterior algebra of g.

For every dominant lam below 2*rho in both orders, an admissible g-partition
associated to 2*rho - lam is constructed by the iterative Case A/B/C
procedure; each certificate is checked for being associated and admissible,
and the full support of V_rho (x) V_rho is compared against the dominance
interval (the desk-scale form of the exterior-algebra conjecture).  Exits 1
if a sweep fails.
"""

from extalg import build_root_datum, construct, weight_from_fundamental
from extalg.checks import kostant_verify

c3 = build_root_datum("C", 3)

print("the four worked constructions:")
for family, rank, coeffs in [("C", 3, [0, 0, 2]), ("C", 3, [4, 0, 0]),
                             ("B", 3, [4, 0, 2]), ("B", 3, [4, 0, 0])]:
    datum = build_root_datum(family, rank)
    lam = weight_from_fundamental(datum, coeffs)
    cert = construct(datum, lam)
    print(f"  {family}{rank}, lam = {datum.fund_string(lam):9s} case {cert.case_used}: "
          f"{cert.partition.flat}  associated={cert.associated_ok} "
          f"admissible={cert.admissible_ok}")

c4 = build_root_datum("C", 4)
cert = construct(c4, weight_from_fundamental(c4, [0, 0, 0, 1]))
print(f"  C4, lam = w4, case {cert.case_used}, pairing {cert.pairing}: "
      f"{cert.partition.flat}")

print("\nfull sweeps (constructed certificates / eligible weights):")
failed = 0
for family, rank in [("B", 3), ("C", 3), ("D", 4)]:
    report, ok = kostant_verify(build_root_datum(family, rank), oracle=True)
    failed += not ok
    o = report["oracle"]
    print(f"  {family}{rank}: {report['passed']}/{report['total']} certificates pass "
          f"(cases {report['cases']}); tensor-square support has "
          f"{o['tensor_support']} weights, iff vs <=2*rho: {o['iff_holds']}")
raise SystemExit(1 if failed else 0)
