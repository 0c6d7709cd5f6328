"""Integral Weierstrass models over Q and their local reduction data.

Minimal models are produced per prime by the Laska--Kraus--Connell strategy:
divide (c4, c6) by the largest ell-power pair (ell^4k, ell^6k) that is still
realizable by an integral model.  Realizability is decided in closed form:
b2 = -c6 mod 12 is the only candidate, and the pair is realizable exactly
when the b- and a-invariants it forces are integers (Kraus's conditions).  The
reduction trichotomy, split flag and valuations are then read off the
minimal model; Kodaira symbols are never needed downstream.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import gcd
from typing import Optional, Union

from .localarith import (
    QuadraticExtension,
    RamifiedQuadratic,
    UnramifiedQuadratic,
    check_extension,
    is_local_square,
    is_prime,
    is_squarefree,
    padic_valuation,
    quadratic_character_type,
)
from .pointcount import count_points

# The bound above which no Frobenius trace is computed.
POINT_COUNT_BOUND = 10**12


class SingularCurveError(ValueError):
    pass


@dataclass(frozen=True)
class WeierstrassCurve:
    """An integral Weierstrass model.  Its invariants are computed once, at
    construction, and its valuations at a prime on first request; both live
    in the instance dict, outside the dataclass fields, so they take no part
    in equality, hashing or a written report."""

    a1: int
    a2: int
    a3: int
    a4: int
    a6: int

    def __post_init__(self):
        a1, a2, a3, a4, a6 = self.ainvs()
        b2 = a1 * a1 + 4 * a2
        b4 = 2 * a4 + a1 * a3
        b6 = a3 * a3 + 4 * a6
        b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
        disc = -b2 * b2 * b8 - 8 * b4 ** 3 - 27 * b6 * b6 + 9 * b2 * b4 * b6
        if disc == 0:
            raise SingularCurveError(f"singular model {self.ainvs()}")
        vars(self).update(
            _b=(b2, b4, b6, b8),
            _c=(b2 * b2 - 24 * b4, -b2 ** 3 + 36 * b2 * b4 - 216 * b6),
            _disc=disc,
            _valuations={},
        )

    def ainvs(self) -> tuple[int, int, int, int, int]:
        return (self.a1, self.a2, self.a3, self.a4, self.a6)

    def b_invariants(self) -> tuple[int, int, int, int]:
        return self._b

    def c_invariants(self) -> tuple[int, int]:
        return self._c

    def discriminant(self) -> int:
        return self._disc

    def valuations_at(self, ell: int) -> tuple[int, Optional[int], Optional[int]]:
        """(v(Delta), v(c4), v(c6)) at the prime ell, None for a zero c4 or
        c6; taken once per prime and model."""
        vals = self._valuations.get(ell)
        if vals is None:
            c4, c6 = self._c
            vals = self._valuations[ell] = (
                padic_valuation(self._disc, ell),
                padic_valuation(c4, ell) if c4 else None,
                padic_valuation(c6, ell) if c6 else None,
            )
        return vals


def model_from_invariants(c4: int, c6: int) -> Optional[WeierstrassCurve]:
    """The integral model with exactly these c-invariants and a1, a3 in
    {0, 1}, b2 in [0, 11], if any integral model has them.

    Every integral model has b2 = a1^2 (mod 4), so c6 = -b2^3 = -b2
    (mod 12); x -> x + r moves b2 by 12r and s, t move no b-invariant.  So
    b2 = -c6 mod 12 is the only candidate, and b4, b6 and the a-invariants
    follow from it (Kraus, Acta Arith. 1989; Cremona, Algorithms, 3.2).
    """
    if (c4 ** 3 - c6 ** 2) % 1728 != 0:
        return None
    if c4 ** 3 == c6 ** 2:
        return None
    b2 = -c6 % 12
    b4, r4 = divmod(b2 * b2 - c4, 24)
    b6, r6 = divmod(b2 ** 3 - 3 * c4 * b2 - 2 * c6, 432)
    a1, a3 = b2 % 2, b6 % 2
    if r4 or r6 or (b2 - a1) % 4 or (b6 - a3) % 4 or (b4 - a1 * a3) % 2:
        return None
    E = WeierstrassCurve(a1, (b2 - a1) // 4, a3, (b4 - a1 * a3) // 2, (b6 - a3) // 4)
    assert E.c_invariants() == (c4, c6)
    return E


def minimal_model_at(E: WeierstrassCurve, ell: int) -> WeierstrassCurve:
    """An ell-minimal integral model isomorphic to E over Q.

    Returns E itself when it is already ell-minimal.
    """
    if not is_prime(ell):
        raise ValueError(f"{ell} is not prime")
    c4, c6 = E.c_invariants()
    v_disc, v_c4, v_c6 = E.valuations_at(ell)
    k = min(v // w for v, w in ((v_disc, 12), (v_c4, 4), (v_c6, 6)) if v is not None)
    while k > 0:
        M = model_from_invariants(c4 // ell ** (4 * k), c6 // ell ** (6 * k))
        if M is not None:
            return M
        if ell > 3:  # at ell >= 5 every integral pair is realizable
            raise AssertionError("unreachable: scaled pair must be realizable")
        k -= 1
    return E


ReductionType = str  # "good" | "multiplicative" | "additive"


@dataclass(frozen=True)
class LocalReductionData:
    ell: int
    reduction_type: ReductionType
    split: Optional[bool]  # meaningful only for multiplicative reduction
    v_disc_min: int
    potentially_multiplicative: bool
    minimal_model: WeierstrassCurve


def local_reduction(E: WeierstrassCurve, ell: int) -> LocalReductionData:
    """Reduction trichotomy of E over Q_ell, from an ell-minimal model."""
    Em = minimal_model_at(E, ell)
    c6 = Em.c_invariants()[1]
    v_disc, v_c4, _ = Em.valuations_at(ell)
    if v_disc == 0:
        rtype, split = "good", None
    elif v_c4 == 0:
        rtype = "multiplicative"
        split = is_local_square(-c6, ell)
    else:
        rtype, split = "additive", None
    return LocalReductionData(
        ell=ell,
        reduction_type=rtype,
        split=split,
        v_disc_min=v_disc,
        # v(j) = 3 v(c4) - v(Delta_min) < 0
        potentially_multiplicative=v_c4 is not None and 3 * v_c4 < v_disc,
        minimal_model=Em,
    )


def quadratic_twist(E: WeierstrassCurve, d: int) -> WeierstrassCurve:
    """The quadratic twist of E by a squarefree integer d.

    The twist has c-invariants (d^2 c4, d^3 c6) whenever that pair is
    realizable by an integral model; otherwise the model scaled by u = 2
    (always realizable) is returned.
    """
    if d == 0 or not is_squarefree(d):
        raise ValueError(f"twist parameter must be a nonzero squarefree integer, got {d}")
    c4, c6 = E.c_invariants()
    M = model_from_invariants(d * d * c4, d ** 3 * c6)
    if M is None:
        M = model_from_invariants(16 * d * d * c4, 64 * d ** 3 * c6)
    assert M is not None
    return M


# A semistability defect is the order e of the inertia image controlling
# potential good reduction: one of DEFECTS (NONCYCLIC, a quaternion-or-larger
# inertia image, only by override) or UNKNOWN where the implemented criteria
# at ell = 2, 3 are inconclusive.
NONCYCLIC = "noncyclic"
UNKNOWN = "unknown"
DEFECTS = (1, 2, 3, 4, 6, NONCYCLIC)

# The reduction of E over K_v: one of KV_REDUCTIONS, or UNKNOWN.
KV_REDUCTIONS = ("good", "multiplicative_split", "multiplicative_nonsplit", "additive")


def good_twist_at(E: WeierstrassCurve,
                  ell: int) -> Optional[tuple[int, LocalReductionData]]:
    """For E additive at ell: a squarefree d with quadratic_twist(E, d) good at
    ell, if one exists, and the twist's reduction data.

    A twist by an unramified class keeps the reduction type, so only one
    representative of each ramified square class of Q_ell^x modulo the
    unramified one is tried.
    """
    for d in ([-1, 2, -2] if ell == 2 else [ell]):
        red = local_reduction(quadratic_twist(E, d), ell)
        if red.reduction_type == "good":
            return d, red
    return None


def semistability_defect(E: WeierstrassCurve, ell: int) -> Union[int, str]:
    """Defect e at a prime of potentially good reduction.

    For ell >= 5 this is 12/gcd(v(Delta_min), 12).  For ell in {2, 3} the only
    implemented criterion is quadratic-twist search: if some quadratic twist
    of E has good reduction at ell the defect is 2 (or 1); otherwise UNKNOWN
    is returned rather than guessing among the wild possibilities.
    """
    return LocalData(E, ell).defect


def reduction_over_Kv(E: WeierstrassCurve, ell: int,
                      ext: Optional[QuadraticExtension]) -> str:
    """Reduction of E over the local field K_v, which is Q_ell (ext None) or
    the quadratic extension ext of Q_ell: one of KV_REDUCTIONS, or UNKNOWN.

    Good reduction persists under any base change; potentially multiplicative
    types are resolved by the square class of -c6 over K_v; potentially good
    types at ell >= 5 (and tame cases at 2, 3) by comparing the defect e with
    the ramification of K_v.
    """
    return LocalData(E, ell, ext).kv


@dataclass(frozen=True)
class FrobeniusData:
    ell: int
    p: int
    a_ell: int
    a_ell2: int
    ordinary: bool

    def point_count(self, q: int) -> int:
        if q == self.ell:
            return q + 1 - self.a_ell
        if q == self.ell ** 2:
            return q + 1 - self.a_ell2
        raise ValueError(f"q must be {self.ell} or {self.ell ** 2}")

    def anomalous_over(self, q: int) -> bool:
        return self.point_count(q) % self.p == 0


def frobenius_data(E: WeierstrassCurve, ell: int, p: int) -> FrobeniusData:
    """Trace of Frobenius and ordinariness data at a good prime ell."""
    return _frobenius(local_reduction(E, ell), p)


def _frobenius(red: LocalReductionData, p: int) -> FrobeniusData:
    ell = red.ell
    if ell > POINT_COUNT_BOUND:
        raise ValueError(f"ell = {ell} exceeds the counting bound {POINT_COUNT_BOUND}")
    if red.reduction_type != "good":
        raise ValueError(f"E has bad reduction at {ell}")
    a = ell + 1 - count_points(red.minimal_model, ell)
    assert a * a <= 4 * ell, "Hasse bound violated: counting bug"
    return FrobeniusData(
        ell=ell,
        p=p,
        a_ell=a,
        a_ell2=a * a - 2 * ell,
        ordinary=(a % ell != 0),
    )


@dataclass(frozen=True)
class ResidueFrobenius:
    """Frobenius data of the reduction of E over a local field above p."""

    q: int  # residue field size
    a_q: int
    ordinary: bool


@dataclass(frozen=True)
class SiteOverrides:
    """Optional per-prime data the implemented criteria cannot certify."""

    defect: Union[int, str, None] = None  # one of DEFECTS
    anomalous: Optional[bool] = None
    reduction_over_Kv: Optional[str] = None  # one of KV_REDUCTIONS


@dataclass(frozen=True)
class LocalData:
    """Every local fact the case engines read about E at one prime ell, with
    K_v above ell (Q_ell when ext is None, else the quadratic extension ext)
    and the user's overrides at ell.  Each fact is computed lazily, at most
    once per record; a record lives for one analysis only."""

    E: WeierstrassCurve
    ell: int
    ext: Optional[QuadraticExtension] = None
    overrides: SiteOverrides = SiteOverrides()

    @cached_property
    def red(self) -> LocalReductionData:
        """The reduction of E over Q_ell, with its ell-minimal model."""
        return local_reduction(self.E, self.ell)

    @cached_property
    def good_twist(self) -> Optional[tuple[int, LocalReductionData]]:
        return good_twist_at(self.E, self.ell)

    @cached_property
    def defect(self) -> Union[int, str]:
        """The semistability defect: the override, or computed."""
        if self.overrides.defect is not None:
            return self.overrides.defect
        red = self.red
        if red.potentially_multiplicative:
            raise ValueError(f"E has potentially multiplicative reduction at {self.ell}")
        if red.reduction_type == "good":
            return 1
        if self.ell >= 5:
            return 12 // gcd(red.v_disc_min, 12)
        return UNKNOWN if self.good_twist is None else 2

    @cached_property
    def kv(self) -> str:
        """The reduction of E over K_v: the override, or computed."""
        if self.overrides.reduction_over_Kv is not None:
            return self.overrides.reduction_over_Kv
        red, ell, ext = self.red, self.ell, self.ext
        if ext is None:
            if red.reduction_type == "multiplicative":
                return "multiplicative_split" if red.split else "multiplicative_nonsplit"
            return red.reduction_type
        check_extension(ell, ext)
        if red.reduction_type == "good":
            return "good"
        if red.potentially_multiplicative:
            c6 = red.minimal_model.c_invariants()[1]
            ctype = quadratic_character_type(-c6, ell, ext)
            if ctype == "trivial":
                return "multiplicative_split"
            if ctype == "unramified":
                return "multiplicative_nonsplit"
            return "additive"
        # potentially good, additive over Q_ell
        e = self.defect
        if not isinstance(e, int):
            return UNKNOWN
        if isinstance(ext, UnramifiedQuadratic):
            # K_v^ur = Q_ell^ur, so good reduction over K_v would force e = 1,
            # contradicting additive reduction over Q_ell.
            return "additive"
        if e % ell != 0:
            # tame: the totally ramified cyclic degree-e extension of Q_ell^ur is
            # unique, so good reduction over K_v is exactly e | e(K_v) = 2.
            return "good" if 2 % e == 0 else "additive"
        # wild ramified case (ell in {2, 3} with ell | e): not decided here
        return UNKNOWN

    @cached_property
    def twist_frobenius(self) -> Optional[tuple[int, FrobeniusData]]:
        """The good twist class t and the twist's Frobenius data at ell."""
        if self.good_twist is None:
            return None
        t, red = self.good_twist
        return t, _frobenius(red, self.ell)

    @cached_property
    def residue_frobenius(self) -> Optional[ResidueFrobenius]:
        """Frobenius data of E's reduction over K_v, with ell in the role of p:
        read from E when E is good over Q_ell, from the good twist when K_v is
        ramified, and None otherwise."""
        ell, ext = self.ell, self.ext
        if self.red.reduction_type == "good":
            fd = _frobenius(self.red, ell)
            q = ell * ell if isinstance(ext, UnramifiedQuadratic) else ell
            return ResidueFrobenius(q, q + 1 - fd.point_count(q), fd.ordinary)
        if not isinstance(ext, RamifiedQuadratic) or self.twist_frobenius is None:
            return None
        t, fd = self.twist_frobenius
        # E over K_v is the twist of E^t by the unit class d/t; a nonsquare
        # unit twist negates the trace of Frobenius on the residue curve.
        a = fd.a_ell if is_local_square(ext.d * t, ell) else -fd.a_ell
        return ResidueFrobenius(ell, a, a % ell != 0)
