"""Reference Weyl-group kernels for the tests: the simple reflections, the signed sort,
the plain orbit walk and the depth-first regular-orbit walk.

The library finds a dominant representative by a plain sort, and det(w) and
every orbit on its one walk of the coset tables, so no module of ``extalg``
reflects one simple root at a time; the references that check it do.
``chamber2``, ``regular2`` and ``reduce2`` are the signed insertion sort,
its wall test and the rho-shifted reduction the library ran before its walk
computed the sign.  ``plain_orbit2`` is the walk that listed orbits before
``RootDatum.orbit2`` became the uncut walk of ``regular_orbit2``: it reads
the same tables but none of that walk's cuts, so the references of
``regular_orbit2`` and its callers list their points through it.
``dfs_regular_orbit2`` is the depth-first walk of one orbit that
``RootDatum.regular_orbit2`` was before it went level by level and merged
the prefixes that reach the same state; the level walk is checked against it.
"""

from bisect import bisect_left
from operator import sub


def apply_simple(datum, i, x2):
    """The simple reflection s_i applied to the doubled coordinates ``x2``."""
    f, n = datum.family, datum.rank
    y = list(x2)
    if f == "G2":
        if i == 1:
            y[0], y[1] = y[1], y[0]
        else:
            # s_alpha2(x) = x + x1 * alpha2 on sum-zero vectors
            a = y[0]
            y[0] -= 2 * a
            y[1] += a
            y[2] += a
        return tuple(y)
    if f == "A" or i < n:
        y[i - 1], y[i] = y[i], y[i - 1]
    elif f == "B" or f == "C":
        y[n - 1] = -y[n - 1]
    else:  # D
        y[n - 2], y[n - 1] = -y[n - 1], -y[n - 2]
    return tuple(y)


def chamber2(datum, x2):
    """Dominant representative of x2 and the sign of a Weyl element reaching it.

    Returns ``(rep, sign)`` with ``w(x2) = rep`` dominant and
    ``sign = det(w) = (-1)**length(w)``.  The sign depends on x2 alone only
    when ``rep`` is regular: on a wall the stabilizer of ``rep`` holds
    reflections, so callers read it only for regular ``rep``.

    Every family's Weyl group acts by signed permutations, and every
    reflection has determinant -1, so a descending insertion sort of the
    entries (of their absolute values in B-D) finds ``rep``, and the sign
    is the parity of the swaps and, in B and C, of the sign changes.  In D
    the sign changes come in pairs, of determinant 1, and an odd number of
    negative entries leaves the smallest entry negative.  In G2, on the
    sum-zero plane, W = S_3 x {+-1}: if the sorted middle entry is > 0,
    -1 (determinant 1 on the plane) makes the order ascending, one more
    transposition; the sorted (a, b, c) is then read as (b, c, a), an
    even permutation, in the chamber x_1 <= x_0 <= 0 <= x_2.
    """
    f = datum.family
    v = list(x2)
    neg = 0
    if f in ("B", "C", "D"):
        for i, c in enumerate(v):
            if c < 0:
                v[i] = -c
                neg += 1
    swaps = 0
    for i in range(1, len(v)):
        c = v[i]
        j = i
        while j and v[j - 1] < c:
            v[j] = v[j - 1]
            j -= 1
        v[j] = c
        swaps += i - j
    sign = -1 if swaps & 1 else 1
    if f == "G2":
        if v[1] > 0:
            v = [-c for c in reversed(v)]
            sign = -sign
        return (v[1], v[2], v[0]), sign
    if f == "D":
        if neg & 1:
            v[-1] = -v[-1]
    elif neg & 1:
        sign = -sign
    return tuple(v), sign


def regular2(datum, v):
    """Whether a dominant vector lies on no wall (every simple pairing > 0)."""
    f = datum.family
    if f == "G2":
        return bool(datum.pairing2(1, v) and datum.pairing2(2, v))
    # sorted by absolute value, so only a last entry of D can tie with
    # the negative of its neighbour
    if len(set(v)) < len(v):
        return False
    return f == "A" or (v[-2] + v[-1] if f == "D" else v[-1]) != 0


def reduce2(datum, shifted2):
    """The rho-shifted chamber reduction on doubled coordinates, given ``mu + rho``.

    Returns ``None`` or ``(lam2, sign)``.
    """
    rep, sign = chamber2(datum, shifted2)
    if not regular2(datum, rep):
        return None
    return tuple(a - b for a, b in zip(rep, datum.rho.coords2)), sign


def plain_orbit2(datum, x2):
    """Full Weyl orbit of a doubled-coordinate vector, sorted for determinism.

    A plain walk of the tables of ``RootDatum._cosets2``: one coordinate at
    a time takes each value of an entry with a coordinate left, and in D
    without a zero entry the last coordinate completes only the sign
    patterns of the kept parity.
    """
    dim = datum.dim
    v = [0] * dim
    orbit = []
    for choices, left, parity in datum._cosets2(x2):
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


def dfs_regular_orbit2(datum, nu2, shifted2, leaf, keep=None):
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
    (b, c, a) is even.  The body is the library's walk before it went
    level by level, with ``self`` read as ``datum``.

    ``keep(pos, y)``, if given, is the caller's prefix test: it is asked
    about each placement of y at coordinate pos that passes the walk's
    own cuts, after the placements at 0..pos-1 of the current branch, and
    the walk descends exactly when it returns true, so it may record
    per-coordinate state.  A leaf is then a v whose every prefix passed.
    """
    f = datum.family
    dim = datum.dim
    rho2 = datum.rho.coords2
    signed = f in ("B", "C", "D")
    flip_det = f in ("B", "C")
    placed = []
    v = [0] * dim
    for choices, left, parity in datum._cosets2(nu2):
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
