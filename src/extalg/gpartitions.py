"""g-partitions and the linear forms cutting out tensor-multiplicity polytopes.

A g-partition expands a root-lattice weight over the positive-root slots
``m[i][j]`` (for e_i - e_j), ``mp[i][j]`` (for e_i + e_j) and ``mi[i]`` (for
e_i; even in type C, zero in type D).  The linear forms below are the
rearranged ones; the interleaved original definitions are kept only as a
randomized cross-check because their index bookkeeping leaves cases
unassigned.  Counting admissible partitions associated to
``lam + mu - nu`` computes the tensor multiplicity of V_nu in V_lam (x) V_mu.
"""

from dataclasses import dataclass

__all__ = [
    "GPartition",
    "FormValues",
    "pair_slots",
    "weight_of",
    "evaluate_forms",
    "is_admissible",
    "count_lr",
    "enumerate_associated",
    "form_keys",
]


def pair_slots(n):
    """The (i, j) pairs with i < j in the canonical lexicographic layout."""
    return [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]


@dataclass(frozen=True)
class GPartition:
    """Nonnegative integer tuple indexed by positive-root slots, flat layout.

    The flat layout for rank 3 is ``(m12, mp12, m13, mp13, m23, mp23, m1, m2,
    m3)``; higher ranks extend the pair block lexicographically in (i, j).
    """

    family: str
    n: int
    flat: tuple

    @classmethod
    def from_flat(cls, family, n, values):
        values = tuple(int(v) for v in values)
        slots = len(pair_slots(n))
        if len(values) != 2 * slots + n:
            raise ValueError(f"expected {2 * slots + n} entries, got {len(values)}")
        if any(v < 0 for v in values):
            raise ValueError("g-partition entries must be nonnegative")
        p = cls(family, n, values)
        for i in range(1, n + 1):
            if family == "C" and p.mi(i) % 2:
                raise ValueError(f"type C requires even m_{i}")
            if family == "D" and p.mi(i) != 0:
                raise ValueError(f"type D requires m_{i} = 0")
        return p

    def _pair_base(self, i, j):
        # index of (i, j) in the lex list: pairs before row i, then offset
        n = self.n
        before = (i - 1) * (2 * n - i) // 2
        return 2 * (before + (j - i - 1))

    def m(self, i, j):
        if not 1 <= i < j <= self.n:
            return 0
        return self.flat[self._pair_base(i, j)]

    def mp(self, i, j):
        if not 1 <= i < j <= self.n:
            return 0
        return self.flat[self._pair_base(i, j) + 1]

    def mi(self, i):
        if not 1 <= i <= self.n:
            return 0
        return self.flat[2 * len(pair_slots(self.n)) + i - 1]

    def M(self, i, j):
        return self.m(i, j) - self.mp(i, j)

    def N(self, i):
        return self.mi(i) - self.mi(i + 1)

    def R(self, i, j):
        return self.mp(i, j) - self.mp(i + 1, j)

    def S(self, i, j):
        return self.m(i, j) + self.mp(i, j) - self.m(i + 1, j) - self.mp(i + 1, j)

    def __repr__(self):
        return f"GPartition[{self.family}{self.n}]{self.flat}"


def weight_of(datum, p):
    """The weight sum(m_ij (e_i - e_j)) + sum(mp_ij (e_i + e_j)) + sum(m_i e_i)."""
    _check_partition(datum, p)
    n = datum.rank
    acc = [0] * n
    for i, j in pair_slots(n):
        acc[i - 1] += p.m(i, j) + p.mp(i, j)
        acc[j - 1] += p.mp(i, j) - p.m(i, j)
    for i in range(1, n + 1):
        acc[i - 1] += p.mi(i)
    return datum.weight(tuple(2 * a for a in acc))


# -- Table of admitted form indices ------------------------------------------
#
# t-indices live in the ordered set 0bar < 1 < 1bar < 2 < ... < n < nbar and
# are encoded as (value, barred).  The admitted ranges per family:
#
#   L^t_j   : B,C: 1<=j<=n, t<j.       D: 1<=j<=n-1 t<j;  j=n with t<n-1.
#   N^t,0_j : B,C: 1<=j<=n-1, jbar<=t<=n.   D: 1<=j<=n-2, jbar<=t<=n-1.
#   N^t,1_j : B,C: 1<=j<=n-1, jbar<t<=n, plus j=t=n.
#             D: 1<=j<=n-2 jbar<t<=n, plus j=t=n and (j,t)=(n-1,n).


def _require_bcd(datum):
    if datum.family not in ("B", "C", "D"):
        raise ValueError(f"g-partitions are defined for families B, C, D only, not {datum.family}")


def _check_partition(datum, p):
    _require_bcd(datum)
    if (p.family, p.n) != (datum.family, datum.rank):
        raise ValueError(f"{p!r} does not belong to {datum.family}{datum.rank}")


def form_keys(datum):
    _require_bcd(datum)
    n = datum.rank
    fam = datum.family
    L, N0, N1 = [], [], []
    for j in range(1, n + 1):
        t_cap = j if (fam != "D" or j < n) else n - 1
        # t < t_cap in the interleaved order: 0bar, then 1, 1bar, 2, ...
        L.append((j, (0, True)))
        for t in range(1, t_cap):
            L.append((j, (t, False)))
            L.append((j, (t, True)))
    top0 = n if fam != "D" else n - 1
    for j in range(1, (n - 1 if fam != "D" else n - 2) + 1):
        for t in range(j, top0):
            N0.append((j, (t, True)))
        for t in range(j + 1, top0 + 1):
            N0.append((j, (t, False)))
    for j in range(1, (n - 1 if fam != "D" else n - 2) + 1):
        for t in range(j + 1, n):
            N1.append((j, (t, True)))
        for t in range(j + 1, n + 1):
            N1.append((j, (t, False)))
    N1.append((n, (n, False)))
    if fam == "D":
        N1.append((n - 1, (n, False)))
    return {"L": L, "N0": N0, "N1": N1}


def _L_generic(p, j, t, barred):
    if barred:
        s = sum(p.M(i, j + 1) - p.M(i, j) for i in range(1, t + 1))
        return s + p.m(t + 1, j + 1)
    s = sum(p.M(i, j + 1) - p.M(i, j) for i in range(1, t))
    return s - p.M(t, j) + p.m(t, j + 1)


def _L_last(datum, p, t, barred):
    n = datum.rank
    fam = datum.family
    if fam == "B":
        s = -2 * sum(p.M(i, n) for i in range(1, t + 1))
        return s + (p.mi(t + 1) if barred else p.mi(t))
    if fam == "C":
        s = -sum(p.M(i, n) for i in range(1, t + 1))
        half = p.mi(t + 1) if barred else p.mi(t)
        if half % 2:
            raise ArithmeticError(f"type-C barred entry {half} is odd")
        return s + half // 2
    # D: hat-involution image of L_{n-1}, swapping m and mp in column n
    if barred:
        s = -sum(p.M(i, n) + p.M(i, n - 1) for i in range(1, t + 1))
        return s + p.mp(t + 1, n)
    s = -sum(p.M(i, n) for i in range(1, t)) - sum(p.M(i, n - 1) for i in range(1, t + 1))
    return s + p.mp(t, n)


def _N0(datum, p, i, t, barred):
    n = datum.rank
    if barred:
        return p.mp(i, i + 1) + sum(p.R(i, j + 1) for j in range(i + 1, t + 1))
    if t == n and datum.family != "D":
        return p.mp(i, i + 1) + sum(p.R(i, j + 1) for j in range(i + 1, n)) + p.N(i)
    return (p.mp(i, i + 1) + sum(p.R(i, j + 1) for j in range(i + 1, t))
            + p.mp(i, t + 1) - p.m(i + 1, t + 1))


def _N1(datum, p, i, t, barred):
    n = datum.rank
    base = p.mp(i, i + 1) + p.N(i) + sum(p.R(i, j + 1) for j in range(i + 1, t))
    tail = sum(p.S(i, j + 1) for j in range(t, n))
    if barred:
        return base + tail
    return base + p.M(i, t) + tail


def _L_value(datum, p, j, t, barred):
    if j < datum.rank:
        return _L_generic(p, j, t, barred)
    return _L_last(datum, p, t, barred)


def _N1_value(datum, p, i, t, barred):
    n = datum.rank
    if i == n and t == n:
        if datum.family == "B":
            return p.mi(n)
        if datum.family == "C":
            return p.mi(n) // 2
        return p.mp(n - 1, n)
    return _N1(datum, p, i, t, barred)


@dataclass(frozen=True)
class FormValues:
    """Evaluated linear forms of one g-partition, keyed per Table of indices."""

    L: dict
    N0: dict
    N1: dict

    def all_items(self):
        for kind, table in (("L", self.L), ("N0", self.N0), ("N1", self.N1)):
            for key, val in table.items():
                yield kind, key, val


def evaluate_forms(datum, p):
    """Evaluate every admitted linear form on p (rearranged expressions)."""
    _check_partition(datum, p)
    keys = form_keys(datum)
    return FormValues(
        {(j, ts): _L_value(datum, p, j, ts[0], ts[1]) for j, ts in keys["L"]},
        {(i, ts): _N0(datum, p, i, ts[0], ts[1]) for i, ts in keys["N0"]},
        {(i, ts): _N1_value(datum, p, i, ts[0], ts[1]) for i, ts in keys["N1"]},
    )


def is_admissible(datum, p, a, b):
    """True iff every admitted form obeys its bound: L <= a_j, N0/N1 <= b_j."""
    _check_partition(datum, p)
    a = tuple(a)
    b = tuple(b)
    if len(a) != datum.rank or len(b) != datum.rank:
        raise ValueError("fundamental-coefficient vectors have wrong length")
    keys = form_keys(datum)
    for j, (t, barred) in keys["L"]:
        if _L_value(datum, p, j, t, barred) > a[j - 1]:
            return False
    for i, (t, barred) in keys["N0"]:
        if _N0(datum, p, i, t, barred) > b[i - 1]:
            return False
    for i, (t, barred) in keys["N1"]:
        if _N1_value(datum, p, i, t, barred) > b[i - 1]:
            return False
    return True


def _suffix_feasible(family, res):
    """Necessary condition for a residual suffix to be a sum of suffix-supported roots."""
    run = 0
    m = len(res)
    for k, c in enumerate(res):
        run += c
        if family == "D" and k == m - 2:
            if run < abs(res[-1]) or (run + res[-1]) % 2:
                return False
            return True
        if run < 0:
            return False
    if family == "C" and run % 2:
        return False
    if family == "D":
        # reached only for m <= 1
        return all(c == 0 for c in res)
    return True


def enumerate_associated(datum, target):
    """All g-partitions associated to the weight ``target`` (no admissibility filter).

    Deterministic lexicographic order in the canonical flat layout.
    """
    datum.check_weight(target)
    n = datum.rank
    fam = datum.family
    if any(c % 2 for c in target.coords2):
        return
    res = [c // 2 for c in target.coords2]
    if fam in ("C", "D") and sum(res) % 2:
        return
    if not _suffix_feasible(fam, res):
        return

    slots = pair_slots(n)
    values = {}

    def close_row(i):
        # after row i's pair slots, coordinate i only receives m_i
        r = res[i - 1]
        if fam == "B":
            return r if r >= 0 else None
        if fam == "C":
            return r if r >= 0 and r % 2 == 0 else None
        return r if r == 0 else None

    def rec_row(i):
        if i > n:
            yield _build()
            return
        row_pairs = [(i, j) for j in range(i + 1, n + 1)]
        yield from rec_pair(i, row_pairs, 0)

    def rec_pair(i, row_pairs, idx):
        if idx == len(row_pairs):
            mi = close_row(i)
            if mi is None:
                return
            values[("s", i)] = mi
            res[i - 1] = 0
            if _suffix_feasible(fam, res[i:]):
                yield from rec_row(i + 1)
            res[i - 1] = mi
            del values[("s", i)]
            return
        _, j = row_pairs[idx]
        budget = res[i - 1]
        if budget < 0:
            return
        # m_ij raises coordinate i and lowers j; mp_ij raises both
        for mij in range(0, budget + 1):
            for mpij in range(0, budget - mij + 1):
                values[(i, j)] = (mij, mpij)
                res[i - 1] -= mij + mpij
                res[j - 1] += mij - mpij
                yield from rec_pair(i, row_pairs, idx + 1)
                res[i - 1] += mij + mpij
                res[j - 1] -= mij - mpij
        del values[(i, j)]

    def _build():
        flat = []
        for (i, j) in slots:
            mij, mpij = values.get((i, j), (0, 0))
            flat.append(mij)
            flat.append(mpij)
        for i in range(1, n + 1):
            flat.append(values.get(("s", i), 0))
        return GPartition.from_flat(fam, n, tuple(flat))

    yield from rec_row(1)


def count_lr(datum, lam, mu, nu, want_witnesses=False):
    """Number of admissible g-partitions for (lam, mu) associated to lam+mu-nu.

    This equals the multiplicity of V_nu inside V_lam (x) V_mu.  Witnesses are
    returned in lexicographic flat order when requested.
    """
    for w in (lam, mu, nu):
        datum.check_weight(w)
        if not datum.is_dominant(w):
            raise ValueError(f"{w} is not dominant")
    a = datum.fundamental_coefficients(lam)
    b = datum.fundamental_coefficients(mu)
    target = lam + mu - nu
    count = 0
    witnesses = []
    for p in enumerate_associated(datum, target):
        if is_admissible(datum, p, a, b):
            count += 1
            if want_witnesses:
                witnesses.append(p)
    witnesses.sort(key=lambda q: q.flat)
    return count, witnesses


# -- original interleaved definitions, used only as a randomized cross-check --


def _delta(p, n, a, a_bar, b, b_bar):
    """Delta with possibly barred indices, following the interleaved definition.

    Returns None for the index pairs the published case split leaves
    unassigned (second index n with a bar involved, first index below n).
    """
    if not a_bar and not b_bar:
        return p.M(a, b) if a < b else 0
    if a_bar and b_bar:
        return _delta(p, n, a + 1, False, b + 1, False)
    if b < n:
        return p.mp(a, b + 1) - p.m(a + 1, b + 1)
    if a == n:
        return p.mi(a)
    return None


def forms_original_L(datum, p, j, t, barred):
    """Original interleaved L-form for j < n: minus the sum of Delta_{s j} over s <= t."""
    n = datum.rank
    if j >= n:
        raise ValueError("the original L-form cross-check covers j < n only")
    total = _delta(p, n, 0, True, j, False)
    for s in range(1, t + 1):
        total += _delta(p, n, s, False, j, False)
        if s < t or barred:
            total += _delta(p, n, s, True, j, False)
    return -total


def forms_original_N0(datum, p, j, t, barred):
    """Original interleaved N0-form; None when it touches an unassigned Delta."""
    n = datum.rank
    total = _delta(p, n, j, True, j, False)
    for s in range(j + 1, t + 1):
        v = _delta(p, n, j, True, s, False)
        if v is None:
            return None
        total += v
        if s < t or barred:
            v = _delta(p, n, j, True, s, True)
            if v is None:
                return None
            total += v
    return total
