"""Root systems, the dominance order, and the coordinatewise order.

Walks through the rank-3 symplectic census: the 35 dominant weights below
2*rho, the coordinatewise-bounded subset, the small ones, and the weights of
the form 2*rho - delta_I.
"""

import itertools

from extalg import (build_root_datum, coordinatewise_leq, dominance_leq,
                    enumerate_dominant_below, is_small, two_rho_minus_delta,
                    weight_from_fundamental)

c3 = build_root_datum("C", 3)
print(f"C3: rho = {c3.rho.pretty()}, positive roots: {len(c3.positive_roots)}, "
      f"exponents {c3.exponents}, Coxeter number {c3.coxeter_number}")

two_rho = 2 * c3.rho
below = enumerate_dominant_below(c3, two_rho)
print(f"\ndominant weights <= 2*rho (dominance): {len(below)}")

cw = [w for w in below if coordinatewise_leq(w, two_rho)]
print(f"of these, coordinatewise below 2*rho:   {len(cw)}")
print("excluded:", ", ".join(w.pretty() for w in below if w not in set(cw)))

small = [w for w in below if is_small(c3, w)]
print(f"small weights: {[c3.fund_string(w) for w in small]}")

# the two orders genuinely disagree in both directions
w1 = weight_from_fundamental(c3, [1, 0, 0])
w2 = weight_from_fundamental(c3, [0, 1, 0])
two_w1 = weight_from_fundamental(c3, [2, 0, 0])
print(f"\nw2 <= 2w1 in dominance: {dominance_leq(c3, w2, two_w1)}, "
      f"coordinatewise: {coordinatewise_leq(w2, two_w1)}")
print(f"w1 <= w2 in dominance: {dominance_leq(c3, w1, w2)}, "
      f"coordinatewise: {coordinatewise_leq(w1, w2)}")

print("\nweights 2*rho - delta_I:")
for r in range(1, 4):
    for subset in itertools.combinations([1, 2, 3], r):
        w, comps = two_rho_minus_delta(c3, subset)
        mark = "  (coordinatewise below)" if coordinatewise_leq(w, two_rho) else ""
        print(f"  I={subset}: {w.pretty()}, components {comps}, "
              f"small: {is_small(c3, w)}{mark}")
