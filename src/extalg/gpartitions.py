"""g-partitions and the linear forms cutting out tensor-multiplicity polytopes.

A g-partition expands a root-lattice weight over the positive-root slots
``m[i][j]`` (for e_i - e_j), ``mp[i][j]`` (for e_i + e_j) and ``mi[i]`` (for
e_i; even in type C, zero in type D).  The linear forms below are the
rearranged ones (the interleaved original definitions leave index pairs
unassigned); they are compiled once per type into integer rows, on which
both ``is_admissible`` and ``count_lr`` score partitions.  Counting
admissible partitions associated to ``lam + mu - nu`` computes the tensor
multiplicity of V_nu in V_lam (x) V_mu.
"""

from collections import namedtuple

from .core import DEFAULT_CELL_CAP, Record, ResourceCapError

__all__ = [
    "GPartition",
    "weight_of",
    "is_admissible",
    "count_lr",
    "form_keys",
]


def _pair_index(n, i, j):
    """Flat index of m_ij, 1 <= i < j <= n (mp_ij follows it): the pairs before
    row i, then the offset of j in row i, two slots per pair."""
    return 2 * ((i - 1) * (2 * n - i) // 2 + j - i - 1)


def _row_index(n, i):
    """Flat index of m_i, 1 <= i <= n: the n * (n - 1) pair slots, then one per row."""
    return n * (n - 1) + i - 1


class GPartition(Record):
    """Nonnegative integer tuple indexed by positive-root slots, flat layout.

    The flat layout for rank 3 is ``(m12, mp12, m13, mp13, m23, mp23, m1, m2,
    m3)``; higher ranks extend the pair block lexicographically in (i, j).
    """

    __slots__ = ("family", "n", "flat")

    @classmethod
    def from_flat(cls, family, n, values):
        """The partition with these flat entries; ``ValueError`` unless each is
        a nonnegative integer and the rows fit the family."""
        given = tuple(values)
        values = tuple(map(int, given))
        if values != given:
            raise ValueError(f"non-integral g-partition entries {given}")
        # two slots per pair (i, j), n * (n - 1) // 2 pairs, and one m_i per row
        if len(values) != n * n:
            raise ValueError(f"expected {n * n} entries, got {len(values)}")
        if any(v < 0 for v in values):
            raise ValueError("g-partition entries must be nonnegative")
        p = cls(family, n, values)
        for i in range(1, n + 1):
            if family == "C" and p.mi(i) % 2:
                raise ValueError(f"type C requires even m_{i}")
            if family == "D" and p.mi(i) != 0:
                raise ValueError(f"type D requires m_{i} = 0")
        return p

    @classmethod
    def from_slots(cls, family, n, m, mp, mi):
        """The partition with the values ``m[(i, j)]``, ``mp[(i, j)]`` and
        ``mi[i]`` in their slots, every slot not named being 0."""
        flat = [0] * (n * n)
        for offset, values in ((0, m), (1, mp)):
            for (i, j), v in values.items():
                if not 1 <= i < j <= n:
                    raise ValueError(f"no slot ({i}, {j}) in rank {n}")
                flat[_pair_index(n, i, j) + offset] = v
        for i, v in mi.items():
            if not 1 <= i <= n:
                raise ValueError(f"no slot m_{i} in rank {n}")
            flat[_row_index(n, i)] = v
        return cls.from_flat(family, n, flat)

    def m(self, i, j):
        if not 1 <= i < j <= self.n:
            return 0
        return self.flat[_pair_index(self.n, i, j)]

    def mp(self, i, j):
        if not 1 <= i < j <= self.n:
            return 0
        return self.flat[_pair_index(self.n, i, j) + 1]

    def mi(self, i):
        if not 1 <= i <= self.n:
            return 0
        return self.flat[_row_index(self.n, i)]

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
    acc = [0] * datum.rank
    flat = p.flat
    for k, kind, i, j in _compiled(datum).slots:
        v = flat[k]
        if v:
            acc[i] += v
            if kind == _M:
                acc[j] -= v
            elif kind == _MP:
                acc[j] += v
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


def _start_residual(family, target):
    """Halved coordinates of ``target``, or None when no g-partition is associated to it."""
    if any(c % 2 for c in target.coords2):
        return None
    res = [c // 2 for c in target.coords2]
    if family in ("C", "D") and sum(res) % 2:
        return None
    if not _suffix_feasible(family, res):
        return None
    return res


def _row_end(family, r):
    """The m_i that closes row i with residual r (only m_i still feeds coordinate i), or None."""
    if family == "B":
        return r if r >= 0 else None
    if family == "C":
        return r if r >= 0 and r % 2 == 0 else None
    return r if r == 0 else None


# -- compiled forms: the polytope count without per-candidate partitions -----

#: slot kinds in the walk order: m_ij, mp_ij, and the m_i closing row i
_M, _MP, _ROW_END = 0, 1, 2


class _Compiled(namedtuple("_Compiled", "forms bound_of rows slots steps")):
    """The admitted forms of one (family, rank) as integer rows, and the walk order.

    ``forms[f]`` names form f as ``(kind, (j, (t, barred)))``, kind "L", "N0"
    or "N1", with the keys of ``form_keys``.
    ``rows[f][k]`` is form f evaluated on ``2 * e_k`` over the flat layout, so
    ``sum(rows[f][k] * flat[k])`` is twice the form's value (type C halves
    ``m_i``) and is compared with twice the bound ``bound_of[f]``: ``(0, j)``
    for ``a[j]``, ``(1, i)`` for ``b[i]``.  ``slots[d]`` is the slot fixed at
    depth d, as ``(flat index, kind, i, j)`` with 0-based row indices, row by
    row: row i's pairs ``(m_ij, mp_ij)``, then ``m_i``.  ``steps[d]`` holds
    ``(terms, upper, lower)``: the ``(form, coefficient)`` pairs of that slot,
    and those among them, positive and negative, whose coefficients on every
    later slot are >= 0.  Such a form can only grow once the slot is fixed, so its partial
    sum bounds the slot's value from above (positive coefficient) or below
    (negative).  A form whose last nonzero slot is at depth d is in
    ``upper``/``lower`` at depth d, so every form is checked on the way down.
    """

    __slots__ = ()


_COMPILED = {}


def _compiled(datum):
    key = (datum.family, datum.rank)
    table = _COMPILED.get(key)
    if table is None:
        table = _COMPILED[key] = _compile(datum)
    return table


def _compile(datum):
    fam = datum.family
    n = datum.rank
    keys = form_keys(datum)
    # (kind, bound vector: 0 for a, 1 for b, evaluator of the rearranged form)
    kinds = (("L", 0, _L_value), ("N0", 1, _N0), ("N1", 1, _N1_value))
    forms, bound_of, evaluators = [], [], []
    for kind, side, value in kinds:
        for j, (t, barred) in keys[kind]:
            forms.append((kind, (j, (t, barred))))
            bound_of.append((side, j - 1))
            evaluators.append((value, j, t, barred))

    pairs = n * (n - 1) // 2
    size = 2 * pairs + n
    # type D has m_i = 0 throughout, so those slots carry no coefficient
    live = range(2 * pairs) if fam == "D" else range(size)
    rows = [[0] * size for _ in forms]
    for k in live:
        unit = GPartition(fam, n, tuple(2 if x == k else 0 for x in range(size)))
        for f, (value, j, t, barred) in enumerate(evaluators):
            rows[f][k] = value(datum, unit, j, t, barred)

    slots = []
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            slots.append((_pair_index(n, i, j), _M, i - 1, j - 1))
            slots.append((_pair_index(n, i, j) + 1, _MP, i - 1, j - 1))
        slots.append((_row_index(n, i), _ROW_END, i - 1, None))

    steps = []
    for d, (k, _, _, _) in enumerate(slots):
        later = [k2 for k2, _, _, _ in slots[d + 1:]]
        terms = tuple((f, row[k]) for f, row in enumerate(rows) if row[k])
        grows = [all(rows[f][k2] >= 0 for k2 in later) for f in range(len(rows))]
        upper = tuple((f, c) for f, c in terms if c > 0 and grows[f])
        lower = tuple((f, c) for f, c in terms if c < 0 and grows[f])
        steps.append((terms, upper, lower))
    return _Compiled(tuple(forms), tuple(bound_of), tuple(tuple(r) for r in rows),
                     tuple(slots), tuple(steps))


def is_admissible(datum, p, a, b):
    """True iff every admitted form obeys its bound: L <= a_j, N0/N1 <= b_j.

    Scores ``p.flat`` on its nonzero slots only: each form starts at minus
    twice its bound and gains, for every slot with a nonzero value, that
    value times the slot's ``(form, coefficient)`` terms of
    ``_Compiled.steps``.  So twice each form is compared with twice its
    bound, as ``count_lr`` does, and p is admissible iff no form ends above 0.
    """
    _check_partition(datum, p)
    bounds = (tuple(a), tuple(b))
    if len(bounds[0]) != datum.rank or len(bounds[1]) != datum.rank:
        raise ValueError("fundamental-coefficient vectors have wrong length")
    comp = _compiled(datum)
    acc = [-2 * bounds[side][idx] for side, idx in comp.bound_of]
    flat = p.flat
    for (k, _, _, _), (terms, _, _) in zip(comp.slots, comp.steps):
        v = flat[k]
        if v:
            for f, c in terms:
                acc[f] += c * v
    return max(acc) <= 0


def count_lr(datum, lam, mu, nu, want_witnesses=False, cap=DEFAULT_CELL_CAP):
    """Number of admissible g-partitions for (lam, mu) associated to lam+mu-nu.

    This equals the multiplicity of V_nu inside V_lam (x) V_mu.  Witnesses are
    returned in lexicographic flat order when requested.  The walk fixes the
    slots row by row, row i's pairs ``(m_ij, mp_ij)`` and then ``m_i``, and
    cuts a branch as soon as a form that can only grow exceeds its bound;
    ``cap`` bounds the number of slot values it tries (``ResourceCapError``
    beyond it).
    """
    for w in (lam, mu, nu):
        datum.require_dominant(w)
    a = datum.fundamental_coefficients(lam)
    b = datum.fundamental_coefficients(mu)
    target = lam + mu - nu
    datum.check_weight(target)
    fam = datum.family
    res = _start_residual(fam, target)
    if res is None:
        return 0, []
    comp = _compiled(datum)
    bounds = (a, b)
    limit = [2 * bounds[side][idx] for side, idx in comp.bound_of]
    acc = [0] * len(limit)
    n = datum.rank
    flat = [0] * (n * n)
    slots, steps = comp.slots, comp.steps
    depth = len(slots)
    found = []
    count = 0
    tried = 0

    def walk(d):
        nonlocal count, tried
        if d == depth:
            if all(x <= y for x, y in zip(acc, limit)):
                count += 1
                if want_witnesses:
                    found.append(tuple(flat))
            return
        k, kind, i, j = slots[d]
        terms, upper, lower = steps[d]
        if kind == _ROW_END:
            lo = hi = _row_end(fam, res[i])
            if lo is None:
                return
        else:
            lo, hi = 0, res[i]
        for f, c in upper:
            q = (limit[f] - acc[f]) // c
            if q < hi:
                hi = q
        for f, c in lower:
            q = -((limit[f] - acc[f]) // -c)
            if q > lo:
                lo = q
        if lo > hi:
            return
        tried += hi - lo + 1
        if tried > cap:
            raise ResourceCapError(f"lr enumeration tried more than {cap} slot values")
        for v in range(lo, hi + 1):
            for f, c in terms:
                acc[f] += c * v
            flat[k] = v
            if kind == _M:
                res[i] -= v
                res[j] += v
                walk(d + 1)
                res[i] += v
                res[j] -= v
            elif kind == _MP:
                res[i] -= v
                res[j] -= v
                walk(d + 1)
                res[i] += v
                res[j] += v
            else:
                res[i] = 0
                if _suffix_feasible(fam, res[i + 1:]):
                    walk(d + 1)
                res[i] = v
            for f, c in terms:
                acc[f] -= c * v
        flat[k] = 0

    # the walk meets witnesses in flat order already: each m_i is fixed by the
    # pairs before it, so two witnesses first differ in a pair slot
    walk(0)
    return count, [GPartition.from_flat(fam, n, values) for values in found]
