"""#E(F_ell) for an elliptic curve E over Q with good reduction at ell.

Above MESTRE_BOUND the count is Shanks-Mestre baby-step giant-step over the
Hasse interval, on E and its quadratic twist, in O(ell^(1/4)) group
operations per point; at and below it, enumeration of F_ell.  Points are
affine pairs over F_ell, or None for the point at infinity.
"""

from __future__ import annotations

from math import gcd, isqrt
from typing import TYPE_CHECKING, Optional

from .localarith import prime_factors

if TYPE_CHECKING:
    from .curves import WeierstrassCurve

# Above this prime one point of E or of its quadratic twist pins #E(F_ell)
# down to one value of the Hasse interval (Cremona and Sutherland, "On a
# theorem of Mestre and Schoof", JTNB 2010); at and below it points are
# counted by enumeration.
MESTRE_BOUND = 229


def count_points(E: WeierstrassCurve, ell: int) -> int:
    """#E~(F_ell) for a model with good reduction at ell: by Shanks-Mestre
    baby-step giant-step above MESTRE_BOUND, in O(ell^(1/4)) group
    operations per point, and by enumeration of F_ell at and below it."""
    if ell > MESTRE_BOUND:
        c4, c6 = E.c_invariants()
        return _mestre_count(-27 * c4 % ell, -54 * c6 % ell, ell)
    a1, a2, a3, a4, a6 = (a % ell for a in E.ainvs())
    if ell == 2:
        n = 1
        for x in range(2):
            for y in range(2):
                if (y * y + a1 * x * y + a3 * y
                        - (x ** 3 + a2 * x * x + a4 * x + a6)) % 2 == 0:
                    n += 1
        return n
    # complete the square: (2y + a1 x + a3)^2 = 4x^3 + b2 x^2 + 2 b4 x + b6
    b2, b4, b6, _ = E.b_invariants()
    n = 1
    half = (ell - 1) // 2
    for x in range(ell):
        rhs = (4 * x ** 3 + b2 * x * x + 2 * b4 * x + b6) % ell
        if rhs == 0:
            n += 1
        else:
            n += 1 + (1 if pow(rhs, half, ell) == 1 else -1)
    return n


def _mestre_count(A: int, B: int, ell: int) -> int:
    """#E(F_ell) for E: y^2 = x^3 + A x + B, ell > MESTRE_BOUND (Cohen, A
    Course in Computational Algebraic Number Theory, 7.4.3).

    For r = f(x0) != 0 the point (x0 r, r^2) lies on y^2 = x^3 + A r^2 x +
    B r^3, which is E when r is a square and its twist E' otherwise, with
    #E' = 2 ell + 2 - #E.  The order of each such point gives a congruence
    on N = #E, and the congruences are merged by the Chinese remainder
    theorem into N = n0 (mod m), until one N of the Hasse interval is left.
    """
    width = isqrt(4 * ell)
    lo, hi = ell + 1 - width, ell + 1 + width
    n0, m = 0, 1
    half = (ell - 1) // 2
    for x0 in range(ell):
        r = (x0 * x0 * x0 + A * x0 + B) % ell
        if r == 0:
            continue
        a = A * r * r % ell
        order = _point_order((x0 * r % ell, r * r % ell), a, ell, lo, hi)
        # a point of E' of this order: 2 ell + 2 - N = 0 (mod order)
        residue = 0 if pow(r, half, ell) == 1 else (2 * ell + 2) % order
        g = gcd(m, order)
        assert (residue - n0) % g == 0, "point orders disagree: counting bug"
        step = (residue - n0) // g * pow(m // g, -1, order // g) % (order // g)
        n0, m = n0 + m * step, m * order // g
        first = lo + (n0 - lo) % m
        if first + m > hi:
            return first
    raise AssertionError(f"no point fixes #E(F_{ell}): counting bug")


Point = Optional[tuple[int, int]]  # an affine point, or None at infinity


def _ec_add(P: Point, Q: Point, a: int, ell: int) -> Point:
    """P + Q on y^2 = x^3 + a x + b over F_ell (b is not needed)."""
    if P is None:
        return Q
    if Q is None:
        return P
    x1, y1 = P
    x2, y2 = Q
    if x1 == x2:
        if (y1 + y2) % ell == 0:
            return None
        lam = (3 * x1 * x1 + a) * pow(2 * y1, -1, ell) % ell
    else:
        lam = (y2 - y1) * pow(x2 - x1, -1, ell) % ell
    x3 = (lam * lam - x1 - x2) % ell
    return x3, (lam * (x1 - x3) - y1) % ell


def _ec_mul(k: int, P: Point, a: int, ell: int) -> Point:
    """[k] P for k >= 0, by double-and-add."""
    R = None
    for bit in bin(k)[2:]:
        R = _ec_add(R, R, a, ell)
        if bit == "1":
            R = _ec_add(R, P, a, ell)
    return R


def _point_order(P: Point, a: int, ell: int, lo: int, hi: int) -> int:
    """The order of P, from a multiple of it found by baby-step giant-step
    in the Hasse interval [lo, hi], which holds the group's order."""
    s = isqrt((hi - lo) // 2) + 1
    baby: dict[int, tuple[int, int]] = {}  # x(jP) -> (j, y(jP)), 1 <= j <= s
    R, multiple = P, None
    for j in range(1, s + 1):
        if R is None:  # jP = O
            multiple = j
            break
        baby.setdefault(R[0], (j, R[1]))
        R = _ec_add(R, P, a, ell)
    if multiple is None:
        # giant steps: c P for c = lo + s, lo + 3s, ..., so that c +- j
        # with 0 <= j <= s covers [lo, hi]
        step = _ec_mul(2 * s, P, a, ell)
        c, R = lo + s, _ec_mul(lo + s, P, a, ell)
        while multiple is None:
            if c - s > hi:
                raise AssertionError("no multiple of the order in the Hasse interval")
            if R is None:
                multiple = c
            elif R[0] in baby:
                j, y = baby[R[0]]
                multiple = c - j if y == R[1] else c + j  # c P = +-j P
            else:
                c, R = c + 2 * s, _ec_add(R, step, a, ell)
    order = multiple
    for q in prime_factors(multiple):
        while order % q == 0 and _ec_mul(order // q, P, a, ell) is None:
            order //= q
    return order
