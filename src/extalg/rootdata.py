"""Explicit root data for the classical families A, B, C, D and for G2.

Every family is realized in an explicit orthonormal coordinate system:

* ``B_n``, ``C_n``, ``D_n`` live in ``n`` coordinates (``D`` needs rank >= 3),
* ``A_n`` lives in ``n+1`` coordinates with gl-style fundamental weights,
* ``G2`` lives in 3 coordinates summing to zero (auxiliary, used by the
  brute-force oracles only).

Weights are stored with *doubled* coordinates so that spin weights and the
Weyl vector of ``B_n`` stay integral; every public API speaks doubled units
internally and halves only on display.

Each family declares only its realization: the positive roots (in the order
``gexp roots`` prints them), the simple roots, the short roots (none when
simply laced) and the fundamental weights.  rho, rho_short, theta,
theta_short, the exponents, the Coxeter number, the number of short simple
roots, the dimension, the simple coroots and the fundamental coweights are
derived from these, by one rule each; past the declarations only the Weyl-group
kernel and the A root-lattice coset rule know the realization.
"""

from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial, lcm
from operator import add, mul, sub

from .core import DEFAULT_CELL_CAP

__all__ = [
    "ConfigurationError",
    "DatumMismatchError",
    "Weight",
    "RootDatum",
    "build_root_datum",
    "weight_from_fundamental",
]

FAMILIES = ("A", "B", "C", "D", "G2")


class ConfigurationError(ValueError):
    """Unsupported (family, rank) combination."""


class DatumMismatchError(ValueError):
    """Weights from different root data were mixed in one operation."""


@dataclass(frozen=True)
class Weight:
    """A weight in doubled epsilon-coordinates, tagged by (family, rank)."""

    family: str
    rank: int
    coords2: tuple

    def is_zero(self):
        return all(c == 0 for c in self.coords2)

    def _check(self, other):
        if (self.family, self.rank) != (other.family, other.rank):
            raise DatumMismatchError(f"{self} vs {other}")

    def __add__(self, other):
        self._check(other)
        return Weight(self.family, self.rank,
                      tuple(a + b for a, b in zip(self.coords2, other.coords2)))

    def __sub__(self, other):
        self._check(other)
        return Weight(self.family, self.rank,
                      tuple(a - b for a, b in zip(self.coords2, other.coords2)))

    def __rmul__(self, k):
        return Weight(self.family, self.rank, tuple(k * a for a in self.coords2))

    def pretty(self):
        parts = []
        for c in self.coords2:
            parts.append(str(c // 2) if c % 2 == 0 else f"{c}/2")
        return "(" + ",".join(parts) + ")"

    def __repr__(self):
        return f"W[{self.family}{self.rank}]{self.pretty()}"


@dataclass(frozen=True)
class RootDatum:
    """Root-system data of one simple Lie algebra in its epsilon realization."""

    family: str
    rank: int
    dim: int
    positive_roots: tuple          # of Weight
    simple_roots: tuple            # of Weight
    fundamental_weights: tuple     # of Weight
    rho: Weight
    rho_short: Weight              # equals rho when simply laced
    theta: Weight
    theta_short: Weight            # None when simply laced
    exponents: tuple
    coxeter_number: int
    num_short_simple: int
    _coroots: tuple                # per simple root, its coroot (see pairing2)
    _coweights: tuple              # per simple root, (omega2_i, (alpha2_i, alpha2_i) / 2)

    # -- basic constructors -------------------------------------------------

    def weight(self, coords2):
        coords2 = tuple(int(c) for c in coords2)
        if len(coords2) != self.dim:
            raise ValueError(f"expected {self.dim} coordinates, got {len(coords2)}")
        return Weight(self.family, self.rank, coords2)

    @property
    def zero(self):
        return self.weight((0,) * self.dim)

    def check_weight(self, w):
        if (w.family, w.rank) != (self.family, self.rank):
            raise DatumMismatchError(f"{w} does not belong to {self.family}{self.rank}")

    def require_dominant(self, w):
        """Raise ``ValueError`` unless ``w`` is a dominant weight of this datum."""
        if not self.is_dominant(w):
            raise ValueError(f"{w} is not dominant")

    # -- Weyl group action --------------------------------------------------

    def pairing2(self, i, x2):
        """Twice the pairing <x, alpha_i_vee> evaluated on doubled coords.

        It is the dot product of x2 with the coroot :func:`_derive` stores.
        Only signs and zero-tests of this quantity are meaningful to callers
        that do not divide by 2; exact values are even for lattice weights.
        """
        return sum(map(mul, self._coroots[i - 1], x2))

    def is_dominant2(self, x2):
        return all(sum(map(mul, coroot, x2)) >= 0 for coroot in self._coroots)

    def is_dominant(self, w):
        self.check_weight(w)
        return self.is_dominant2(w.coords2)

    def chamber_rep2(self, x2):
        """Dominant Weyl-chamber representative of x2 (no rho shift, no sign).

        W acts by signed permutations in B-D and by permutations in A, so
        the representative is the descending sort of the entries (of their
        absolute values in B-D); in D the sign changes come in pairs, so an
        odd number of negative entries leaves the smallest entry negative.
        In G2, on the sum-zero plane, W = S_3 x {+-1}: -1 takes a sorted
        (a, b, c) with b > 0 to the sorted (-c, -b, -a), and the sorted
        entries are read as (b, c, a), in the chamber x_1 <= x_0 <= 0 <= x_2.
        det(w) is read only on the walk of :meth:`regular_orbit2`.
        """
        f = self.family
        if f == "A":
            return tuple(sorted(x2, reverse=True))
        if f == "G2":
            a, b, c = sorted(x2, reverse=True)
            return (-b, -a, -c) if b > 0 else (b, c, a)
        v = sorted(map(abs, x2), reverse=True)
        if f == "D" and sum(c < 0 for c in x2) & 1:
            v[-1] = -v[-1]
        return tuple(v)

    def reduce_to_dominant(self, mu):
        """Chamber reduction with sign after the rho shift.

        Returns ``None`` when ``mu + rho`` is not regular, otherwise the unique
        pair ``(lam, sign)`` with ``sigma(mu + rho) = lam + rho`` for some Weyl
        element ``sigma`` and ``sign = (-1)**length(sigma)``: the one leaf, if
        any, of the walk of the orbit W 0 = {0} at the shift ``mu + rho``.
        """
        self.check_weight(mu)
        leaves = []
        self.regular_orbit2((0,) * self.dim, tuple(map(add, mu.coords2, self.rho.coords2)),
                            lambda v, lam2, det: leaves.append((lam2, det)))
        if not leaves:
            return None
        lam2, det = leaves[0]
        return Weight(self.family, self.rank, lam2), det

    def _cosets2(self, nu2):
        """The tables every walk of W nu2 places its entries from, one per coset start.

        W acts by signed permutations in B-D and by permutations in A; in G2,
        on the sum-zero plane, W = S_3 x {+-1}, so W nu2 is the arrangements
        of nu2 and, when it is not one of them, of -nu2.  Each start gives
        ``(choices, left, parity)``: ``choices`` pairs the index k of each
        distinct entry (absolute value in B-D) with the values it may take at
        a coordinate, both signs of a nonzero absolute value; ``left[k]`` is
        how many coordinates take entry k, a fresh list for the caller to
        count down; ``parity`` is, in D without a zero entry, the parity of
        the number of negative entries that every point keeps, else None.
        """
        f = self.family
        signed = f in ("B", "C", "D")
        neg = [-c for c in nu2]
        tables = []
        for start in [nu2, neg] if f == "G2" and sorted(neg) != sorted(nu2) else [nu2]:
            entries = Counter(map(abs, start) if signed else start)
            choices = [(k, (a, -a) if signed and a else (a,)) for k, a in enumerate(entries)]
            parity = sum(c < 0 for c in start) & 1 if f == "D" and all(start) else None
            tables.append((choices, list(entries.values()), parity))
        return tables

    def orbit2(self, x2):
        """Full Weyl orbit of a doubled-coordinate vector, sorted for determinism.

        A plain walk of the tables of :meth:`_cosets2`: one coordinate at a
        time takes each value of an entry with a coordinate left, and in D
        without a zero entry the last coordinate completes only the sign
        patterns of the kept parity.
        """
        dim = self.dim
        v = [0] * dim
        orbit = []
        for choices, left, parity in self._cosets2(x2):
            def walk(pos, neg):
                if pos == dim:
                    orbit.append(tuple(v))
                    return
                last = parity is not None and pos == dim - 1
                for k, signs in choices:
                    if left[k]:
                        left[k] -= 1
                        for y in signs:
                            if not (last and (neg + (y < 0)) & 1 != parity):
                                v[pos] = y
                                walk(pos + 1, neg + (y < 0))
                        left[k] += 1

            walk(0, 0)
        return sorted(orbit)

    def regular_orbit2(self, nu2, shifted2, leaf, keep=None):
        """Call ``leaf(v, lam2, det)`` for every v in W nu2 with shifted2 + v regular.

        ``lam2`` is the dominant representative of x = shifted2 + v minus rho
        and ``det`` is det(w) for the w carrying x there; ``v`` is a live list,
        valid only during the call.  The walk places one coordinate of v, and
        so of x, at a time from the tables of :meth:`_cosets2`, and cuts a
        branch as soon as two placed |x_i| coincide (x_i in A and G2) or, in B
        and C, one is 0: every completion lies on a wall.  Each placed |x_i|
        goes into a sorted list; the number of smaller values already there is
        the number of inversions it adds to the descending sort, so their
        parity and, in B and C, that of the negative entries of x give det(w).
        In D the sorted x has its last entry negated after an odd number of
        negative entries.  In G2 a sorted middle entry 0 lies on a long-root
        wall; one > 0 is flipped as in :meth:`chamber_rep2`, by -1
        (determinant 1 on the plane) and the reversal of the order, one more
        transposition, so det changes sign; the rotation (a, b, c) ->
        (b, c, a) is even.  This walk is the only code that computes det(w);
        :meth:`reduce_to_dominant` is its walk of the orbit {0}.

        ``keep(pos, y)``, if given, is the caller's prefix test: it is asked
        about each placement of y at coordinate pos that passes the walk's
        own cuts, after the placements at 0..pos-1 of the current branch, and
        the walk descends exactly when it returns true, so it may record
        per-coordinate state.  A leaf is then a v whose every prefix passed.
        """
        f = self.family
        dim = self.dim
        rho2 = self.rho.coords2
        signed = f in ("B", "C", "D")
        flip_det = f in ("B", "C")
        placed = []
        v = [0] * dim
        for choices, left, parity in self._cosets2(nu2):
            def walk(pos, det, neg_x, neg_nu):
                if pos == dim:
                    rep = placed[::-1]
                    if f == "D" and neg_x & 1:
                        rep[-1] = -rep[-1]
                    elif f == "G2":
                        a, b, c = rep
                        if not b:
                            return
                        if b > 0:
                            rep, det = (-b, -a, -c), -det
                        else:
                            rep = (b, c, a)
                    leaf(v, tuple(map(sub, rep, rho2)), det)
                    return
                base = shifted2[pos]
                last = parity is not None and pos == dim - 1
                for k, signs in choices:
                    if not left[k]:
                        continue
                    left[k] -= 1
                    for y in signs:
                        if last and (neg_nu + (y < 0)) & 1 != parity:
                            continue
                        x = base + y
                        if flip_det and not x:
                            continue
                        a = -x if signed and x < 0 else x
                        i = bisect_left(placed, a)
                        if i < len(placed) and placed[i] == a:
                            continue
                        if keep is not None and not keep(pos, y):
                            continue
                        placed.insert(i, a)
                        v[pos] = y
                        d = -det if i & 1 else det
                        if flip_det and x < 0:
                            d = -d
                        walk(pos + 1, d, neg_x + (x < 0), neg_nu + (y < 0))
                        del placed[i]
                    left[k] += 1

            walk(0, 1, 0, 0)

    def orbit_size(self, x2):
        """|W x2|, the number of points :meth:`orbit2` lists, counted without listing them.

        Per table of :meth:`_cosets2`, the arrangements of the entries times
        the values each coordinate of an entry may take, halved when a
        parity is kept.
        """
        size = 0
        for choices, left, parity in self._cosets2(x2):
            count = factorial(sum(left))
            for (_, signs), m in zip(choices, left):
                count = count // factorial(m) * len(signs) ** m
            size += count >> (parity is not None)
        return size

    # -- lattice geometry ----------------------------------------------------

    def dot2(self, x2, y2):
        return sum(a * b for a, b in zip(x2, y2))

    def root_coefficients2(self, x2):
        """Coefficients of x in the simple-root basis, or None off the lattice.

        The coefficient of alpha_i is 2 (x, omega_i) / (alpha_i, alpha_i).  A
        vector lies in the root lattice exactly when it lies in the span of the
        roots and all coefficients are integers; membership in the positive
        cone is the additional condition that they are all >= 0.
        """
        if self.dim > self.rank and sum(x2):
            return None
        out = []
        for omega2, half_norm in self._coweights:
            c, r = divmod(sum(map(mul, omega2, x2)), half_norm)
            if r:
                return None
            out.append(c)
        return tuple(out)

    def in_root_lattice(self, w):
        self.check_weight(w)
        if self.family == "A":
            if any(c % 2 for c in w.coords2):
                return False
            return sum(c // 2 for c in w.coords2) % (self.rank + 1) == 0
        return self.root_coefficients2(w.coords2) is not None

    def fundamental_coefficients(self, w):
        """Expansion of a weight over the fundamental weights (integer tuple)."""
        self.check_weight(w)
        out = []
        for coroot in self._coroots:
            p2 = sum(map(mul, coroot, w.coords2))
            if p2 % 2:
                raise ValueError(f"{w} is not in the weight lattice")
            out.append(p2 // 2)
        return tuple(out)

    def height2(self, x2):
        """Sum of simple-root coefficients (the height), assuming x2 is in the lattice."""
        coeffs = self.root_coefficients2(x2)
        if coeffs is None:
            raise ValueError("vector is not in the root lattice")
        return sum(coeffs)

    def dominant_roots(self):
        if self.theta_short is None:
            return (self.theta,)
        return (self.theta, self.theta_short)

    def fund_string(self, w):
        """Human-readable fundamental-coefficient string, e.g. '2w1+w3'."""
        coeffs = self.fundamental_coefficients(w)
        parts = []
        for i, c in enumerate(coeffs, start=1):
            if c == 0:
                continue
            parts.append(f"w{i}" if c == 1 else f"{c}*w{i}")
        return "+".join(parts) if parts else "0"


def _eps(dim, *terms):
    """Doubled coordinates of the sum of c * e_i over the ``(i, c)`` terms."""
    v = [0] * dim
    for i, c in terms:
        v[i - 1] += 2 * c
    return tuple(v)


@lru_cache(maxsize=None)
def build_root_datum(family, rank):
    """Construct the root datum of a classical family (or G2) at a given rank.

    Supported: A (rank >= 1), B and C (rank >= 1, degenerate below 2), D
    (rank >= 3), G2 (rank exactly 2).  Anything else raises
    :class:`ConfigurationError`, as does rank**3 (about the number of root
    coordinates) above ``DEFAULT_CELL_CAP``.  Each family declares its
    realization (positive roots in display order, simple roots, short roots,
    fundamental weights); :func:`_derive` reads the rest off it.
    """
    n = rank
    if n ** 3 > DEFAULT_CELL_CAP:
        raise ConfigurationError(f"rank {n} too large: rank**3 > {DEFAULT_CELL_CAP}")
    if family == "A":
        if n < 1:
            raise ConfigurationError("A needs rank >= 1")
        dim = n + 1
        pos = [_eps(dim, (i, 1), (j, -1))
               for i in range(1, dim + 1) for j in range(i + 1, dim + 1)]
        simple = [_eps(dim, (i, 1), (i + 1, -1)) for i in range(1, n + 1)]
        fund = [tuple(2 if k <= i else 0 for k in range(1, dim + 1)) for i in range(1, n + 1)]
        return _derive(family, n, pos, simple, None, fund)

    if family in ("B", "C", "D"):
        least = 3 if family == "D" else 1
        if n < least:
            raise ConfigurationError(f"{family} needs rank >= {least}")
        pairs = [_eps(n, (i, 1), (j, s))
                 for i in range(1, n + 1) for j in range(i + 1, n + 1) for s in (-1, 1)]
        simple = [_eps(n, (i, 1), (i + 1, -1)) for i in range(1, n)]
        fund = [tuple(2 if k <= i else 0 for k in range(1, n + 1)) for i in range(1, n + 1)]
        if family == "B":
            short = [_eps(n, (i, 1)) for i in range(1, n + 1)]
            pos = pairs + short
            simple.append(short[-1])
            fund[-1] = (1,) * n
        elif family == "C":
            short = pairs
            pos = pairs + [_eps(n, (i, 2)) for i in range(1, n + 1)]
            simple.append(pos[-1])
        else:
            short, pos = None, pairs
            simple.append(_eps(n, (n - 1, 1), (n, 1)))
            fund[-2:] = [(1,) * (n - 1) + (-1,), (1,) * n]
        return _derive(family, n, pos, simple, short, fund)

    if family == "G2":
        if n != 2:
            raise ConfigurationError("G2 has rank 2")
        a1 = (2, -2, 0)       # short
        a2 = (-4, 2, 2)       # long
        pos = [a1, a2,
               (-2, 0, 2),    # a1 + a2
               (0, -2, 2),    # 2a1 + a2 (= theta_s = omega_1)
               (2, -4, 2),    # 3a1 + a2
               (-2, -2, 4)]   # 3a1 + 2a2 (= theta = omega_2)
        return _derive(family, 2, pos, [a1, a2], [a1, pos[2], pos[3]],
                       [(0, -2, 2), (-2, -2, 4)])

    raise ConfigurationError(f"unknown family {family!r}")


def _derive(family, rank, pos, simple, short, fund):
    """The :class:`RootDatum` of a realization given in doubled coordinates.

    ``short`` lists the short positive roots, or is None when the family is
    simply laced.  rho (rho_s) is the half sum of the positive (short)
    roots, rho_s = rho when simply laced; theta (theta_s) is the positive
    (short) root with the largest pairing with rho, unique since every simple
    root pairs positively with rho, and theta_s is None without short roots;
    as many exponents equal k as there are positive roots of height k minus
    those of height k + 1 (Kostant), a root's height being its pairing with
    rho^vee, the sum of the fundamental coweights; the Coxeter number is the
    largest exponent plus 1; the short simple roots are counted, all of them
    when simply laced; ``dim`` is a root's length.

    A simple root a2 gets the coroot 4 a2 / (a2, a2), moved along the
    normal (1, ..., 1) to the nearest integral vector where the roots span
    only the sum-zero hyperplane (A, G2), and the coweight omega2 over
    (a2, a2) / 2.
    """
    dim = len(pos[0])

    def weight(x2):
        return Weight(family, rank, x2)

    def dot(x, y):
        return sum(map(mul, x, y))

    def coroot(a2):
        v = [Fraction(4 * c, dot(a2, a2)) for c in a2]
        shift = round(v[0]) - v[0] if dim > rank else 0
        return tuple(int(c + shift) for c in v)

    def half_sum(roots):
        return tuple(sum(r[k] for r in roots) // 2 for k in range(dim))

    def highest(roots):
        return max(roots, key=lambda r: dot(r, rho2))

    rho2 = half_sum(pos)
    laced = short is None
    coweights = tuple((omega2, dot(a2, a2) // 2) for a2, omega2 in zip(simple, fund))
    scale = lcm(*(half_norm for _, half_norm in coweights))
    rho_vee = [sum(scale // half_norm * omega2[k] for omega2, half_norm in coweights)
               for k in range(dim)]
    per_height = Counter(dot(r, rho_vee) // scale for r in pos)
    exponents = tuple(k for k in sorted(per_height)
                      for _ in range(per_height[k] - per_height[k + 1]))
    return RootDatum(
        family, rank, dim,
        tuple(map(weight, pos)), tuple(map(weight, simple)), tuple(map(weight, fund)),
        weight(rho2), weight(rho2 if laced else half_sum(short)),
        weight(highest(pos)), weight(highest(short)) if short else None,
        exponents, exponents[-1] + 1,
        rank if laced else sum(s in short for s in simple),
        tuple(map(coroot, simple)), coweights)


def weight_from_fundamental(datum, coeffs):
    """Sum of ``coeffs[i] * omega_{i+1}`` as a Weight (negatives allowed)."""
    coeffs = list(coeffs)
    if len(coeffs) != datum.rank:
        raise ValueError(f"expected {datum.rank} coefficients, got {len(coeffs)}")
    acc = [0] * datum.dim
    for c, omega in zip(coeffs, datum.fundamental_weights):
        for k, x in enumerate(omega.coords2):
            acc[k] += c * x
    return datum.weight(acc)
