"""Reference Weyl-group kernels for the tests: the simple reflections and the signed sort.

The library finds a dominant representative by a plain sort and det(w) on
the walk of a Weyl orbit, and lists orbits in closed form, so no module of
``extalg`` reflects one simple root at a time; the references that check it
do.  ``chamber2``, ``regular2`` and ``reduce2`` are the signed insertion
sort, its wall test and the rho-shifted reduction the library ran before
its walk computed the sign.
"""


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
