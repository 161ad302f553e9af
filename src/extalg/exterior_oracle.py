"""Graded decomposition of exterior algebras at tiny rank, plus reference formulas.

The graded character of Lambda(M) for a module M with weight system
``{mu: mult}`` is the product over weight lines of ``(1 + t e^mu)**mult``.
That character is Weyl-invariant, so its dominant entries determine it.
:func:`graded_decompose` checks the invariance once and then peels highest
weights in the dominant chamber alone, subtracting the dominant Freudenthal
table of each component; this gives every graded multiplicity polynomial
``P(V_nu, Lambda M, t)`` exactly.  The closed reference formulas these are
checked against live in :func:`reference_polynomials`.
"""

from dataclasses import dataclass
from operator import add

from .genexp import PolyT
from .weyl_oracle import ResourceCapError, dominant_multiplicities, freudenthal

__all__ = [
    "GradedCharacter",
    "graded_exterior_character",
    "graded_decompose",
    "reference_polynomials",
    "DEFAULT_DIM_CAP",
]

DEFAULT_DIM_CAP = 24


@dataclass(frozen=True)
class GradedCharacter:
    """Weight -> PolyT table; the t^k coefficient counts that weight in degree k."""

    family: str
    rank: int
    total_dim: int
    table: dict


def graded_exterior_character(datum, module_mult, cap=DEFAULT_DIM_CAP):
    """Exact graded character of the exterior algebra over a weight system.

    ``module_mult`` maps Weight -> multiplicity (e.g. ``freudenthal(...).mult``).
    """
    d = sum(module_mult.values())
    if d > cap:
        raise ResourceCapError(f"module dimension {d} exceeds cap {cap}")
    # {weight coords2: {degree: coefficient}}; every coefficient stays positive
    table = {datum.zero.coords2: {0: 1}}
    lines = sorted(module_mult.items(), key=lambda kv: kv[0].coords2)
    for w, mult in lines:
        w2 = w.coords2
        for _ in range(mult):
            # times 1
            new = {supp: dict(poly) for supp, poly in table.items()}
            # times t * e^w
            for supp, poly in table.items():
                shifted = tuple(map(add, supp, w2))
                acc = new.get(shifted)
                if acc is None:
                    new[shifted] = {e + 1: c for e, c in poly.items()}
                else:
                    for e, c in poly.items():
                        acc[e + 1] = acc.get(e + 1, 0) + c
            table = new
    out = {}
    for k, v in table.items():
        poly = PolyT()
        poly.c = v
        out[datum.weight(k)] = poly
    return GradedCharacter(datum.family, datum.rank, d, out)


def _dominance_key(datum, coords2):
    return (datum.dot2(coords2, datum.rho.coords2), coords2)


def graded_decompose(datum, gc):
    """Peel a graded character into irreducible multiplicity polynomials.

    The character must be Weyl-invariant: every weight of its support carries
    the polynomial of its dominant chamber representative, and the support is
    exactly the union of the Weyl orbits of its dominant weights.  Both are
    checked once, up front.  The peel then works on the dominant entries
    only: it takes the highest remaining dominant weight and subtracts its
    polynomial times the dominant Freudenthal table of that weight.

    Raises ArithmeticError if the character is not Weyl-invariant, or if
    peeling reaches a negative coefficient; either way the input was not a
    genuine character.
    """
    support = {w.coords2: p for w, p in gc.table.items() if not p.is_zero()}
    work = {v: p for v, p in support.items() if datum.is_dominant2(v)}
    for v, p in support.items():
        if work.get(datum.chamber_rep2(v)) != p:
            raise ArithmeticError(f"character is not Weyl-invariant at {datum.weight(v)}")
    if len(support) != sum(len(datum.orbit2(v)) for v in work):
        raise ArithmeticError("character support is not a union of Weyl orbits")
    out = {}
    while work:
        top = max(work, key=lambda v: _dominance_key(datum, v))
        poly = work[top]
        if any(c < 0 for c in poly.c.values()):
            raise ArithmeticError(f"negative multiplicity polynomial at {top}")
        highest = datum.weight(top)
        for w, m in dominant_multiplicities(datum, highest).items():
            cur = work.get(w.coords2, PolyT.zero()) - poly * m
            if cur.is_zero():
                work.pop(w.coords2, None)
            else:
                work[w.coords2] = cur
        out[highest] = poly
    return out


def exterior_decomposition(datum, highest, cap=DEFAULT_DIM_CAP):
    """Convenience: decompose Lambda(V_highest) in one call."""
    module = freudenthal(datum, highest)
    gc = graded_exterior_character(datum, module.mult, cap=cap)
    return graded_decompose(datum, gc)


def reference_polynomials(datum, which, subset=None):
    """Closed reference polynomials for the exterior-algebra checks.

    ``which`` is one of:

    * ``"hks_invariants"``: prod_i (1 + t^(2 e_i + 1)), the invariants of
      Lambda g,
    * ``"bazlov_adjoint"``: the closed graded-multiplicity formula for the
      adjoint representation in Lambda g (a Laurent polynomial in one
      variable),
    * ``"reeder_deltaI"``: the graded multiplicity of V_{2 rho - delta_I}
      in Lambda g; pass the simple-root index subset via ``subset``.
    """
    exps = datum.exponents
    n = datum.rank
    if which == "hks_invariants":
        out = PolyT.one()
        for e in exps:
            out = out * PolyT({0: 1, 2 * e + 1: 1})
        return out
    if which == "bazlov_adjoint":
        out = PolyT({0: 1, -1: 1})
        for e in exps[:-1]:
            out = out * PolyT({2 * e + 1: 1, 0: 1})
        tail = PolyT.zero()
        for e in exps:
            tail = tail + PolyT.t(2 * e)
        return out * tail
    if which == "reeder_deltaI":
        if subset is None:
            raise ValueError("reeder_deltaI needs the subset of simple-root indices")
        from .orders import two_rho_minus_delta
        _, c = two_rho_minus_delta(datum, subset)
        k = len(set(subset))
        out = PolyT.t(len(datum.positive_roots) - k)
        out = out * PolyT({0: 1, 1: 1}) ** (n - c)
        out = out * PolyT({0: 1, 2: 1}) ** (k - c)
        out = out * PolyT({0: 1, 3: 1}) ** c
        return out
    raise ValueError(f"unknown reference polynomial {which!r}")
