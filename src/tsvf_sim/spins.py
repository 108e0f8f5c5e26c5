"""Averaged spin components of N spin-1/2 copies, checked in exact integers.

The averaged components S_avg = (1/N) sum_i sigma_i / 2 commute only up to a
1/N-suppressed remainder: [Sx_avg, Sy_avg] = i Sz_avg / N. With the integer
site sums X' = sum_i sigma_x,i, Y'' = sum_i 2Y_i and Z' = sum_i sigma_z,i,
where 2Y = [[0, -1], [1, 0]] = -i sigma_y, the identity holds exactly when
X'Y'' - Y''X' = 2Z'. Every one-site operator here maps a basis bit to one
flipped-or-not bit with a +-1 sign, so the oracle is integer bit arithmetic
and needs no numpy.
"""

from __future__ import annotations

from .errors import SPIN_ORACLE_MAX, InvariantError, TooLargeForOracle

# One-site operators as (flip, signs): |bit> -> signs[bit] |bit ^ flip>.
X_SITE = (1, (1, 1))  # sigma_x
Y2_SITE = (1, (1, -1))  # 2Y = -i sigma_y
Z_SITE = (0, (1, -1))  # sigma_z


def average_spin_commutator(n: int) -> float:
    """Scale of [Sx_avg, Sy_avg] = i Sz_avg / N for N spin-1/2 copies.

    The commutator of the averaged spin components equals the averaged Sz with
    one extra 1/N suppression; its largest eigenvalue magnitude is 1/(2N).
    Closed form, any N >= 1.
    """
    if n < 1:
        raise InvariantError("need at least one spin")
    return 1.0 / (2.0 * n)


def _site_terms(site, n: int) -> list[tuple[int, int, int, int]]:
    """The site sum of a one-site operator: (flip mask, bit mask, sign0, sign1) per site."""
    flip, (sign0, sign1) = site
    return [(flip << i, 1 << i, sign0, sign1) for i in range(n)]


def brute_force_spin_commutator(n: int) -> tuple[float, float]:
    """Exact brute-force oracle for the averaged-spin commutator identity.

    For every basis state b of the full 2^N space, applies the site sums term
    by term, as signed bit flips, and accumulates the column
    (X'Y'' - Y''X' - 2Z')|b> in one dict of ints. A state the dict does not
    hold has an exactly zero entry, so every one of the 4^N entries is
    checked. Returns the scale max|Z'| / (2N) / N, which is
    max|eig(Sz_avg)| / N because Z' is diagonal (Z_SITE flips no bit),
    together with the worst entrywise deviation of [Sx_avg, Sy_avg] from
    i Sz_avg / N, which is max|entry| / (4 N^2).
    """
    if n < 1:
        raise InvariantError("need at least one spin")
    if n > SPIN_ORACLE_MAX:
        raise TooLargeForOracle(f"spin oracle is limited to {SPIN_ORACLE_MAX} spins")
    x_sum, y_sum, z_sum = (_site_terms(site, n) for site in (X_SITE, Y2_SITE, Z_SITE))
    z_max = worst = 0
    for state in range(2 ** n):
        column = {}
        get = column.get
        # X'Y''|b> applies Y'' first; Y''X'|b> applies X' first and is subtracted.
        for first, second, scale in ((y_sum, x_sum, 1), (x_sum, y_sum, -1)):
            for flip, bit, sign0, sign1 in first:
                middle = state ^ flip
                amp = scale * (sign1 if state & bit else sign0)
                for flip2, bit2, sign2_0, sign2_1 in second:
                    key = middle ^ flip2
                    column[key] = get(key, 0) + (sign2_1 if middle & bit2 else sign2_0) * amp
        z = 0
        for flip, bit, sign0, sign1 in z_sum:
            sign = sign1 if state & bit else sign0
            key = state ^ flip
            column[key] = get(key, 0) - 2 * sign
            z += sign
        z_max = max(z_max, abs(z))
        worst = max(worst, max(map(abs, column.values())))
    return z_max / (2 * n) / n, worst / (4 * n * n)
