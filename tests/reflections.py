"""The simple reflections of the root data, for the reflection references in the tests.

The library reduces to the dominant chamber by a signed sort and lists
orbits in closed form, so no module of ``extalg`` reflects one simple root
at a time; the references that check it do.
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
