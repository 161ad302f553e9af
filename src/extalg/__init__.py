"""extalg: exact combinatorics of exterior algebras of classical Lie algebras.

The package provides, in pure exact integer arithmetic:

* exact one-variable polynomials, the resource guard and the check records,
  shared by every layer (``core``),
* explicit root data for the families A, B, C, D and G2 (``rootdata``),
* the dominance and coordinatewise orders with exhaustive enumeration
  (``orders``),
* tensor multiplicities counted as lattice points of multiplicity polytopes
  (``gpartitions``),
* explicit admissible-partition constructions certifying which irreducibles
  occur in the exterior algebra of the adjoint representation
  (``constructor``),
* independent brute-force oracles: Freudenthal multiplicities, Weyl
  dimensions, Brauer-Klimyk tensor products, the graded partition function
  and the generalized-exponent polynomial (``weyl_oracle``),
* graded decompositions of exterior algebras with their closed reference
  formulas (``exterior_oracle``),
* closed formulas and recurrences for generalized exponents (``genexp``),
* the minuscule-recurrence engine and its coefficient identities
  (``recurrence``),
* the check batteries shared by the CLI, the tests and the demos
  (``checks``),
* a deterministic verification CLI (``cli``, installed as ``gexp``).
"""

from .core import PolyT
from .rootdata import (ConfigurationError, DatumMismatchError, RootDatum, Weight,
                       build_root_datum, weight_from_fundamental)
from .orders import (coordinatewise_leq, dominance_leq, enumerate_dominant_below,
                     is_small, two_rho_minus_delta)
from .gpartitions import GPartition, count_lr, is_admissible, weight_of
from .constructor import Certificate, certify_theorem, construct
from .weyl_oracle import (freudenthal, klimyk_tensor, lusztig_E, q_kostant, weyl_dim)
from .exterior_oracle import (exterior_decomposition, graded_decompose,
                              graded_exterior_character, reference_polynomials)
from .genexp import (closed_E, covered_small_weights, recur_E, symmetric_series, t_analog,
                     t_binomial)
from .recurrence import (LaurentQS, a_integers, minuscule_row, omega0_count,
                         verify_aggregate)

__version__ = "0.1.0"

__all__ = [
    "ConfigurationError", "DatumMismatchError", "RootDatum", "Weight",
    "build_root_datum", "weight_from_fundamental",
    "coordinatewise_leq", "dominance_leq", "enumerate_dominant_below",
    "is_small", "two_rho_minus_delta",
    "GPartition", "count_lr", "is_admissible", "weight_of",
    "Certificate", "certify_theorem", "construct",
    "freudenthal", "klimyk_tensor", "lusztig_E", "q_kostant", "weyl_dim",
    "exterior_decomposition", "graded_decompose", "graded_exterior_character",
    "reference_polynomials",
    "PolyT", "closed_E", "covered_small_weights", "recur_E",
    "symmetric_series", "t_analog", "t_binomial",
    "LaurentQS", "a_integers", "minuscule_row", "omega0_count",
    "verify_aggregate",
]
