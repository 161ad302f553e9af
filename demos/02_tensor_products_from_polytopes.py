"""Tensor multiplicities as lattice-point counts of multiplicity polytopes.

Counts the admissible g-partitions associated to lam + mu - nu and compares
every multiplicity with the independent Brauer-Klimyk oracle; exits 1 on a
mismatch.
"""

from extalg import (build_root_datum, count_lr, weight_from_fundamental, weight_of,
                    weyl_dim)
from extalg.checks import lr_verify

c2 = build_root_datum("C", 2)
w1 = weight_from_fundamental(c2, [1, 0])

print("V_w1 (x) V_w1 for sp(4), three ways per component:")
report, ok = lr_verify(c2, w1, w1, oracle=True)
total = 0
for c in report["components"]:
    dim = weyl_dim(c2, c2.weight(tuple(c["nu"]["coords2"])))
    total += c["oracle_count"] * dim
    print(f"  V_{c['nu']['fund']:6s} polytope count {c['count']}, "
          f"oracle {c['oracle_count']}, dim {dim}")
print(f"  dimension check: {total} == {weyl_dim(c2, w1)}**2")

# a multiplicity bigger than one, with its explicit witnesses
c3 = build_root_datum("C", 3)
nu = weight_from_fundamental(c3, [0, 0, 2])
count, witnesses = count_lr(c3, c3.rho, c3.rho, nu, want_witnesses=True)
print(f"\nmultiplicity of V_2w3 in V_rho (x) V_rho for sp(6): {count}")
for p in witnesses:
    print(f"  witness {p.flat} -> associated weight {weight_of(c3, p).pretty()}")
raise SystemExit(0 if ok else 1)
