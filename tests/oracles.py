"""Independent reference implementations used only to check the package.

These deliberately avoid the library's algorithms, and take nothing from it
but ``WeierstrassCurve`` and the invariants it computes: realizability of
(c4, c6) is decided by a 12-candidate reduced-model enumeration, and the
model itself by a search for b2 over a full residue system mod 1728, reduction
types by discriminant/c4 valuations of the oracle minimal model, split
multiplicative type by brute-force point counting, point counts over F_ell
by enumeration of x and over F_(ell^2) by explicit finite-field arithmetic,
large counts by a certificate on points of E and its twist in a model and
group law of their own, and local squares and the type of a quadratic
character by exhaustive residue enumeration.  A change of model is the
textbook substitution x = u^2 x' + r, y = u^3 y' + u^2 s x' + t.  Primality and
factoring are by trial division up to sqrt(n), the package's method before it
moved to Miller-Rabin and Pollard-Brent rho.  Reduction over a ramified
quadratic K_v is read off the reduction type of a quadratic twist over Q_ell.
The schema-1 report dict is built the way the package built it before it
wrote reports straight from their records: each record as a copy of its
fields; and the text table is rendered from that dict, as the package did
before it read the report itself.
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


def transform(E: WeierstrassCurve, u: int, r: int, s: int, t: int) -> WeierstrassCurve:
    """Change of model x = u^2 x' + r, y = u^3 y' + u^2 s x' + t.

    Raises ValueError if the transformed model is not integral.
    """
    a1, a2, a3, a4, a6 = E.ainvs()
    nums = (
        a1 + 2 * s,
        a2 - s * a1 + 3 * r - s * s,
        a3 + r * a1 + 2 * t,
        a4 - s * a3 + 2 * r * a2 - (t + r * s) * a1 + 3 * r * r - 2 * s * t,
        a6 + r * a4 + r * r * a2 + r ** 3 - t * a3 - t * t - r * t * a1,
    )
    out = []
    for num, i in zip(nums, (1, 2, 3, 4, 6)):
        q, rem = divmod(num, u ** i)
        if rem:
            raise ValueError("transformation does not preserve integrality")
        out.append(q)
    return WeierstrassCurve(*out)


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


def count_points(E: WeierstrassCurve, ell: int) -> int:
    """#E(F_ell) for an odd prime ell of good reduction, by enumerating x:
    after completing the square, (2y + a1 x + a3)^2 = 4x^3 + b2 x^2 +
    2 b4 x + b6, and each x gives 1 + (rhs | ell) points (Euler's criterion).
    This was the package's method at every ell before Shanks-Mestre."""
    b2, b4, b6, _ = E.b_invariants()
    n = 1
    half = (ell - 1) // 2
    for x in range(ell):
        rhs = (4 * x ** 3 + b2 * x * x + 2 * b4 * x + b6) % ell
        n += 1 if rhs == 0 else 1 + (1 if pow(rhs, half, ell) == 1 else -1)
    return n


def sqrt_mod(z: int, ell: int) -> int:
    """A square root of the nonzero square z modulo the odd prime ell, by
    Tonelli-Shanks."""
    q, e = ell - 1, 0
    while q % 2 == 0:
        q, e = q // 2, e + 1
    w = next(w for w in range(2, ell) if pow(w, (ell - 1) // 2, ell) == ell - 1)
    c, x, t = pow(w, q, ell), pow(z, (q + 1) // 2, ell), pow(z, q, ell)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            i, t2 = i + 1, t2 * t2 % ell
        b = pow(c, 1 << (e - i - 1), ell)
        x, c, t, e = x * b % ell, b * b % ell, t * b * b % ell, i
    assert x * x % ell == z % ell
    return x


def twist_model(E: WeierstrassCurve, ell: int, u: int) -> tuple[int, int, int]:
    """(A2, A4, A6) of y^2 = x^3 + A2 x^2 + A4 x + A6 over F_ell, the twist
    of E by u (E itself for u = 1): E is (2y + a1 x + a3)^2 = g(x) = 4x^3 +
    b2 x^2 + 2 b4 x + b6, its twist u Y^2 = g(x), and X = 4u x, y = 4u^2 Y."""
    b2, b4, b6, _ = E.b_invariants()
    return u * b2 % ell, 8 * u * u * b4 % ell, 16 * u ** 3 * b6 % ell


def multiple(n: int, P, model, ell: int):
    """n P on y^2 = x^3 + A2 x^2 + A4 x + A6 (affine chord and tangent, None
    at infinity), by double-and-add."""
    A2, A4, _ = model

    def add(P, Q):
        if P is None or Q is None:
            return Q if P is None else P
        if P[0] == Q[0] and (P[1] + Q[1]) % ell == 0:
            return None
        if P == Q:
            lam = (3 * P[0] ** 2 + 2 * A2 * P[0] + A4) * pow(2 * P[1], -1, ell)
        else:
            lam = (Q[1] - P[1]) * pow(Q[0] - P[0], -1, ell)
        x = (lam * lam - A2 - P[0] - Q[0]) % ell
        return x, (lam * (P[0] - x) - P[1]) % ell

    R = None
    for bit in bin(n)[2:]:
        R = add(R, R)
        if bit == "1":
            R = add(R, P)
    return R


def count_is_certified(E: WeierstrassCurve, ell: int, N: int, points: int = 6) -> bool:
    """Whether N = #E(F_ell) passes the checks a count must pass, at any odd
    ell of good reduction: the Hasse bound, N P = O for the first points P of
    E by x, and (2 ell + 2 - N) Q = O for the first points Q of its
    quadratic twist.  A wrong N passes only if the order of every point
    checked, of E and of its twist alike, divides its distance from the true
    count, which is less than 4 sqrt(ell)."""
    if (ell + 1 - N) ** 2 > 4 * ell:
        return False
    u = next(u for u in range(2, ell) if pow(u, (ell - 1) // 2, ell) == ell - 1)
    for twist, order in ((1, N), (u, 2 * ell + 2 - N)):
        model = A2, A4, A6 = twist_model(E, ell, twist)
        found = 0
        for x in range(ell):
            rhs = (x ** 3 + A2 * x * x + A4 * x + A6) % ell
            if rhs and pow(rhs, (ell - 1) // 2, ell) == 1:
                if multiple(order, (x, sqrt_mod(rhs, ell)), model, ell) is not None:
                    return False
                found += 1
                if found == points:
                    break
    return True


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


def _fields(record) -> dict:
    """A record's fields and their values, in field order: its instance dict
    may also keep values derived from them."""
    return {name: getattr(record, name) for name in record._fields}


def tower_dict(T) -> dict:
    """A tower as a config: d, p, n, its ramified sites in order, and each
    override's fields suffixed ``_override``."""
    return {
        "d": T.K.d,
        "p": T.p,
        "n": T.n,
        "ramified_sites": [_fields(s) for s in sorted(
            T.ramified_sites, key=lambda s: (s.ell, s.which))],
        "overrides": {str(ell): {f"{name}_override": value
                                 for name, value in _fields(o).items()}
                      for ell, o in sorted(T.overrides.items())},
    }


def report_dict(rep) -> dict:
    """Schema 1 of a ParityReport: each record as a copy of its named-tuple
    fields, in field order, a delta entry as its site then the verdict's
    fields, the curve as its a-invariants and the tower as a config."""
    sb = rep.selmer_bound
    return {
        "schema_version": 1,
        "curve": list(rep.curve.ainvs()),
        "tower": tower_dict(rep.tower),
        "rows": [{**_fields(r),
                  "gamma": None if r.gamma is None else _fields(r.gamma),
                  "deltas": [{"site": _fields(s), **_fields(v)} for s, v in r.deltas]}
                 for r in rep.rows],
        "S": [_fields(s) for s in rep.S],
        "mr64_sum": rep.mr64_sum,
        "S_frak": [_fields(s) for s in rep.S_frak],
        "S_m": [_fields(s) for s in rep.S_m],
        "hypothesis_audit": [{**_fields(a), "site": _fields(a.site)}
                             for a in rep.hypothesis_audit],
        "selmer_bound": (None if sb is None
                         else {**_fields(sb), "reasons": list(sb.reasons)}),
        "relative_parity": (None if rep.relative_parity is None
                            else dict(rep.relative_parity)),
        "failure": rep.failure,
        "has_undetermined": rep.has_undetermined,
        "notes": list(rep.notes),
    }


def _fmt_value(v: Optional[int]) -> str:
    return "?" if v is None else str(v)


def render_text(d: dict) -> str:
    """The text table of a schema-1 report dict, as the package rendered it
    when ``--format text`` read the report back from its JSON."""
    lines = []
    a = d["curve"]
    tw = d["tower"]
    lines.append(f"curve [{','.join(map(str, a))}]  "
                 f"K = Q(sqrt {tw['d']}), p = {tw['p']}, n = {tw['n']}")
    lines.append(f"{'place':>8}  {'gamma':>5}  {'sum delta':>9}  status")
    for r in d["rows"]:
        g = r["gamma"]
        gval = "-" if g is None else _fmt_value(g["value"])
        lines.append(f"{str(r['place']):>8}  {gval:>5}  "
                     f"{_fmt_value(r['delta_sum']):>9}  {r['status']}")
    lines.append(f"mr64_sum = {_fmt_value(d['mr64_sum'])}   "
                 f"|S_frak| = {len(d['S_frak'])}   |S_m| = {len(d['S_m'])}")
    sb = d["selmer_bound"]
    if sb is not None:
        if sb["applicable"]:
            lines.append(f"Selmer growth bound: dim S_p(E/F) >= {sb['bound']}")
        else:
            lines.append("Selmer growth bound: not applicable ("
                         + "; ".join(sb["reasons"]) + ")")
    if d["failure"]:
        lines.append("FAILURE: parity mismatch at a determined row "
                     "(implementation bug, not arithmetic)")
    return "\n".join(lines) + "\n"
