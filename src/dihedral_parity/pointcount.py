"""#E(F_ell) for an elliptic curve E over Q with good reduction at ell.

Above MESTRE_BOUND the count is Shanks-Mestre baby-step giant-step over the
Hasse interval, on E and its quadratic twist, in O(ell^(1/4)) group
operations per point; at and below it, enumeration of F_ell.  Points are
affine pairs over F_ell, or None for the point at infinity.
"""

from __future__ import annotations

from math import isqrt
from typing import TYPE_CHECKING, Optional, Union

if TYPE_CHECKING:
    from .curves import WeierstrassCurve

# Above this prime one point of E or of its quadratic twist pins #E(F_ell)
# down to one value of the Hasse interval (Cremona and Sutherland, "On a
# theorem of Mestre and Schoof", JTNB 2010); at and below it points are
# counted by enumeration.
MESTRE_BOUND = 229


def count_points(E: WeierstrassCurve, ell: int) -> int:
    """#E~(F_ell) for a model with good reduction at ell: by Shanks-Mestre
    above MESTRE_BOUND, and by enumeration of F_ell at and below it."""
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
    #E' = 2 ell + 2 - #E.  Each such point allows the N of the Hasse
    interval that kill it, and the sets are intersected until one N is left.
    """
    lo, hi = ell + 1 - isqrt(4 * ell), ell + 1 + isqrt(4 * ell)
    kept: Optional[set[int]] = None  # the N every point so far allows
    for x0 in range(ell):
        r = (x0 * x0 * x0 + A * x0 + B) % ell
        if r == 0:
            continue
        kills = _annihilators((x0 * r % ell, r * r % ell), A * r * r % ell, ell, lo, hi)
        twist = pow(r, (ell - 1) // 2, ell) != 1  # a point of E' is killed by 2 ell + 2 - N
        if kept is None:
            if isinstance(kills, range):
                continue  # a point of small order allows too many N to list
            kept = {2 * ell + 2 - n for n in kills} if twist else kills
        else:
            kept = {n for n in kept if (2 * ell + 2 - n if twist else n) in kills}
        if len(kept) < 2:
            break
    if kept is not None and len(kept) == 1:
        return kept.pop()
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
    """[k] P for k >= 1, by double-and-add."""
    R = P
    for bit in bin(k)[3:]:
        R = _ec_add(R, R, a, ell)
        if bit == "1":
            R = _ec_add(R, P, a, ell)
    return R


def _annihilators(P: Point, a: int, ell: int, lo: int, hi: int) -> Union[range, set[int]]:
    """Every N in [lo, hi] with N P = O, for an affine point P, by one
    baby-step giant-step sweep: a point of order m < 2s shows m among the
    baby steps and gives the range of m's multiples, any other point the set
    the giant steps find, of at most (hi - lo) / 2s + 1 values."""
    s = isqrt((hi - lo) // 2) + 1
    baby: dict[int, tuple[int, int]] = {}  # x(jP) -> (j, y(jP)), 1 <= j <= s
    R: Point = P
    for j in range(1, s + 1):
        if j > 1:
            R = _ec_add(R, P, a, ell)
        if R is None or R[0] in baby:  # the order: j, or j + j' < 2j for jP = -j'P
            m = j if R is None else j + baby[R[0]][0]
            return range(lo + -lo % m, hi + 1, m)
        baby[R[0]] = (j, R[1])
    # The order is at least 2s, so an x names at most one baby point.  Giant
    # points cP, c = 2sk, sweep the windows [c - s, c + s] that meet [lo, hi]:
    # cP = jP gives N = c - j, and cP = -jP gives N = c + j.
    step = _ec_add(R, R, a, ell)  # 2s P
    k = (lo + s) // (2 * s)
    c, G = 2 * s * k, _ec_mul(k, step, a, ell)
    found = set()
    while True:
        if G is None:
            found.add(c)
        elif G[0] in baby:
            j, y = baby[G[0]]
            if y == G[1]:
                found.add(c - j)
            if (y + G[1]) % ell == 0:
                found.add(c + j)
        c += 2 * s
        if c - s > hi:
            return {n for n in found if lo <= n <= hi}
        G = _ec_add(G, step, a, ell)
