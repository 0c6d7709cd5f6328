"""Independent reference implementations used only to check the package.

These deliberately avoid the library's algorithms, and take nothing from it
but ``WeierstrassCurve`` and the invariants it computes: realizability of
(c4, c6) is decided by a 12-candidate reduced-model enumeration, and the
model itself by a search for b2 over a full residue system mod 1728, reduction
types by discriminant/c4 valuations of the oracle minimal model, split
multiplicative type by brute-force point counting, quadratic-extension point
counts by explicit finite-field arithmetic, and local squares and the type of
a quadratic character by exhaustive residue enumeration.  Primality and
factoring are by trial division up to sqrt(n), the package's method before it
moved to Miller-Rabin and Pollard-Brent rho.  Reduction over a ramified
quadratic K_v is read off the reduction type of a quadratic twist over Q_ell.
"""

from __future__ import annotations

from typing import Optional

from dihedral_parity.curves import WeierstrassCurve


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def factorization(n: int) -> dict[int, int]:
    """{prime: exponent} of |n| for a nonzero integer n."""
    n = abs(n)
    out = {}
    f = 2
    while f * f <= n:
        while n % f == 0:
            n //= f
            out[f] = out.get(f, 0) + 1
        f += 1 if f == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def prime_factors(n: int) -> list[int]:
    return sorted(factorization(n))


def valuation(n: int, ell: int) -> int:
    if n == 0:
        raise ValueError("valuation of zero")
    v = 0
    while n % ell == 0:
        n //= ell
        v += 1
    return v


def reduced_model(c4: int, c6: int) -> Optional[WeierstrassCurve]:
    """The unique reduced integral model with these invariants, if any.

    Every integral model transforms (by integral r, s, t) to one with
    a1, a3 in {0, 1} and a2 in {-1, 0, 1}, so checking those 12 candidates
    decides realizability.
    """
    for a1 in (0, 1):
        for a2 in (-1, 0, 1):
            for a3 in (0, 1):
                b2 = a1 * a1 + 4 * a2
                num4 = b2 * b2 - c4
                if num4 % 24:
                    continue
                b4 = num4 // 24
                num6 = -c6 - b2 ** 3 + 36 * b2 * b4
                if num6 % 216:
                    continue
                b6 = num6 // 216
                if (b4 - a1 * a3) % 2 or (b6 - a3 * a3) % 4:
                    continue
                a4 = (b4 - a1 * a3) // 2
                a6 = (b6 - a3 * a3) // 4
                try:
                    E = WeierstrassCurve(a1, a2, a3, a4, a6)
                except ValueError:
                    continue
                if E.c_invariants() == (c4, c6):
                    return E
    return None


def search_model(c4: int, c6: int) -> Optional[WeierstrassCurve]:
    """The model with these c-invariants, a1, a3 in {0, 1} and the least b2
    in [0, 1728), if any: every admissibility condition (Kraus's conditions
    at 2 and 3 included) is a congruence on b2 mod 1728, so the search is
    exhaustive.  This was the package's method before the closed form."""
    if (c4 ** 3 - c6 ** 2) % 1728 != 0:
        return None
    if c4 ** 3 == c6 ** 2:
        return None
    for b2 in range(1728):
        if (b2 * b2 - c4) % 24:
            continue
        b4 = (b2 * b2 - c4) // 24
        f = b2 ** 3 - 3 * c4 * b2 - 2 * c6
        if f % 432:
            continue
        b6 = f // 432
        a1 = b2 % 2
        if (b2 - a1) % 4:
            continue
        a2 = (b2 - a1) // 4
        a3 = b6 % 2
        if (b6 - a3) % 4:
            continue
        a6 = (b6 - a3) // 4
        if (b4 - a1 * a3) % 2:
            continue
        a4 = (b4 - a1 * a3) // 2
        E = WeierstrassCurve(a1, a2, a3, a4, a6)
        assert E.c_invariants() == (c4, c6)
        return E
    return None


def minimal_disc_valuation(E: WeierstrassCurve, ell: int) -> int:
    """v_ell of the minimal discriminant by exhaustive u-substitution:
    u = ell^k scaling is available exactly when the divided (c4, c6) pair is
    realizable by an integral model."""
    c4, c6 = E.c_invariants()
    v = valuation(E.discriminant(), ell)
    k = 0
    while True:
        j = k + 1
        if v - 12 * j < 0:
            break
        if c4 != 0 and c4 % ell ** (4 * j):
            break
        if c6 != 0 and c6 % ell ** (6 * j):
            break
        if reduced_model(c4 // ell ** (4 * j), c6 // ell ** (6 * j)) is None:
            break
        k = j
    return v - 12 * k


def minimal_model(E: WeierstrassCurve, ell: int) -> WeierstrassCurve:
    c4, c6 = E.c_invariants()
    k = (valuation(E.discriminant(), ell) - minimal_disc_valuation(E, ell)) // 12
    if k == 0:
        return E
    model = reduced_model(c4 // ell ** (4 * k), c6 // ell ** (6 * k))
    assert model is not None
    return model


def count_affine_points_mod(E: WeierstrassCurve, ell: int) -> int:
    a1, a2, a3, a4, a6 = E.ainvs()
    n = 0
    for x in range(ell):
        for y in range(ell):
            lhs = y * y + a1 * x * y + a3 * y
            rhs = x ** 3 + a2 * x * x + a4 * x + a6
            if (lhs - rhs) % ell == 0:
                n += 1
    return n


def reduction_type(E: WeierstrassCurve, ell: int):
    """(type, split, v_disc_min) from the oracle minimal model; split decided
    by point counting on the nodal cubic (#smooth points = ell - a with
    a = +1 split, -1 nonsplit)."""
    Emin = minimal_model(E, ell)
    v = valuation(Emin.discriminant(), ell)
    if v == 0:
        return "good", None, 0
    if Emin.c_invariants()[0] % ell:
        total = count_affine_points_mod(Emin, ell) + 1
        a = ell + 1 - total
        assert a in (1, -1)
        return "multiplicative", a == 1, v
    return "additive", None, v


def twist_reduction_type(E: WeierstrassCurve, d: int, ell: int) -> str:
    """Reduction type over Q_ell of the quadratic twist of E by d.

    The twist has c-invariants (d^2 c4, d^3 c6), or (2^4 d^2 c4, 2^6 d^3 c6)
    when only the model scaled by u = 2 is integral; the model is found by
    reduced_model.  For E bad at ell and K_v = Q_ell(sqrt d) ramified, E is
    good over K_v iff this twist is good over Q_ell: over K_v the twist is E
    itself, and if E is good over K_v then inertia acts through the quadratic
    character of d, which the twist removes.
    """
    c4, c6 = E.c_invariants()
    for u in (1, 2):
        model = reduced_model(u ** 4 * d * d * c4, u ** 6 * d ** 3 * c6)
        if model is not None:
            return reduction_type(model, ell)[0]
    raise AssertionError("the twist scaled by u = 2 has an integral model")


# ---------------------------------------------------------------------------
# finite fields F_{ell^2}


class GF2:
    """F_{ell^2} as F_ell[x]/(x^2 - w), w a nonresidue (ell odd), or
    F_2[x]/(x^2 + x + 1)."""

    def __init__(self, ell: int):
        self.ell = ell
        if ell == 2:
            self.w = None
        else:
            self.w = next(w for w in range(2, ell)
                          if all((x * x - w) % ell for x in range(ell)))

    def elements(self):
        return [(a, b) for a in range(self.ell) for b in range(self.ell)]

    def add(self, u, v):
        return ((u[0] + v[0]) % self.ell, (u[1] + v[1]) % self.ell)

    def mul(self, u, v):
        ell = self.ell
        if ell == 2:
            # (a + b t)(c + d t), t^2 = t + 1
            a, b = u
            c, d = v
            return ((a * c + b * d) % 2, (a * d + b * c + b * d) % 2)
        a, b = u
        c, d = v
        return ((a * c + b * d * self.w) % ell, (a * d + b * c) % ell)

    def scalar(self, n: int):
        return (n % self.ell, 0)


def count_points_ext(E: WeierstrassCurve, ell: int) -> int:
    """#E(F_{ell^2}) including the point at infinity, by exhaustion."""
    F = GF2(ell)
    a1, a2, a3, a4, a6 = (F.scalar(a) for a in E.ainvs())
    n = 1
    for x in F.elements():
        x2 = F.mul(x, x)
        x3 = F.mul(x2, x)
        rhs = F.add(F.add(x3, F.mul(a2, x2)), F.add(F.mul(a4, x), a6))
        for y in F.elements():
            lhs = F.add(F.mul(y, y), F.mul(y, F.add(F.mul(a1, x), a3)))
            if lhs == rhs:
                n += 1
    return n


# ---------------------------------------------------------------------------
# local squares


_SQUARES_MOD: dict[int, frozenset] = {}


def is_square_mod(z: int, m: int) -> bool:
    if m not in _SQUARES_MOD:
        _SQUARES_MOD[m] = frozenset((x * x) % m for x in range(m))
    return z % m in _SQUARES_MOD[m]


def odd_local_square(z: int, ell: int) -> bool:
    """z a nonzero integer with v_ell(z) <= 2: squareness in Q_ell decided by
    exhaustive enumeration modulo ell^3 (valid since v(z) < 3)."""
    return is_square_mod(z % ell ** 3, ell ** 3)


def local_square(z: int, ell: int) -> bool:
    """Is the nonzero integer z = ell^v u a square in Q_ell?  v is even, and
    u is a square mod 8 (ell = 2) or mod ell (Hensel's lemma)."""
    v = valuation(z, ell)
    return v % 2 == 0 and is_square_mod(z // ell ** v, 8 if ell == 2 else ell)


def character_type(z: int, ell: int, ext_kind: Optional[str],
                   d: int = 0) -> Optional[str]:
    """Type of K_v(sqrt z)/K_v for a nonzero integer z: 'trivial',
    'unramified' or 'ramified'.  K_v is Q_ell (ext_kind None), the
    unramified quadratic extension Q_ell(sqrt w) ('unramified'), or
    Q_ell(sqrt d) ('ramified'); None when that d defines no ramified
    extension.  w is 5 at 2 and the least nonresidue mod an odd ell, and z
    is a square in F(sqrt t) iff z or z*t is a square in F."""
    w = 5 if ell == 2 else next(r for r in range(2, ell) if not is_square_mod(r, ell))
    if ext_kind is None:
        return ("trivial" if local_square(z, ell) else
                "unramified" if local_square(z * w, ell) else "ramified")
    if ext_kind == "unramified":
        return "trivial" if local_square(z, ell) or local_square(z * w, ell) else "ramified"
    if d == 0:
        return None
    v = valuation(d, ell)
    if not (v % 2 or (ell == 2 and d // ell ** v % 4 == 3)):
        return None
    if local_square(z, ell) or local_square(z * d, ell):
        return "trivial"
    if local_square(z * w, ell) or local_square(z * w * d, ell):
        return "unramified"
    return "ramified"


def gf_squares(ell: int):
    F = GF2(ell)
    return {F.mul(u, u) for u in F.elements()}
