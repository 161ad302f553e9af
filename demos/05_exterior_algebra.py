"""Graded decomposition of exterior algebras at tiny rank.

Decomposes Lambda(g) for so(5), then prints the records of the shared check
battery (``extalg.checks``) on the adjoint of B2 and the little adjoints of
the non-simply-laced ranks: the invariants product, the adjoint multiplicity
polynomial, the 2*rho - delta_I family, the scaled tensor-square identities,
the small-representation bound and the support iff below 2*rho_s.  Exits 1
if a check fails.
"""

from extalg import build_root_datum, exterior_decomposition, is_small
from extalg.checks import exterior_checks

b2 = build_root_datum("B", 2)
dec = exterior_decomposition(b2, b2.theta)
print("Lambda g for so(5), graded multiplicity polynomials:")
for w, poly in sorted(dec.items(), key=lambda kv: kv[0].coords2):
    tag = " small" if is_small(b2, w) else ""
    print(f"  P(V_{b2.fund_string(w):6s}) = {poly}{tag}")

print("\nreference checks (the scaled-tensor-square identity does not extend to G2):")
failed = 0
for family, rank, module in [("B", 2, "adjoint"), ("B", 2, "little-adjoint"),
                             ("B", 3, "little-adjoint"), ("C", 2, "little-adjoint"),
                             ("C", 3, "little-adjoint"), ("G2", 2, "little-adjoint")]:
    label = family if family == "G2" else f"{family}{rank}"
    for c in exterior_checks(build_root_datum(family, rank), module):
        failed += not c["pass"]
        print(f"  {label} {module}: {c['name']}: {'pass' if c['pass'] else 'FAIL'}"
              f"{' ' + c['detail'] if c['detail'] else ''}")
raise SystemExit(1 if failed else 0)
