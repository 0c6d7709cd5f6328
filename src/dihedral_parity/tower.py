"""Quadratic fields K = Q(sqrt(d)), prime sites, and dihedral tower data.

The cyclic layer L/K of degree p^n is described only by the set of prime
sites of K that ramify in it; existence of an actual extension with that
ramification is asserted by the user (a ray class group condition the
constants never depend on).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from math import prod
from typing import Optional

from .curves import LocalData, SiteOverrides, WeierstrassCurve
from .localarith import (
    QuadraticExtension,
    RamifiedQuadratic,
    UnramifiedQuadratic,
    is_prime,
    kronecker_symbol,
    prime_factors,
)

SPLIT = "split"
INERT = "inert"
RAMIFIED = "ramified"

FIRST = "first"
SECOND = "second"


@dataclass(frozen=True)
class QuadraticFieldSpec:
    """K = Q(sqrt(d)); d should be squarefree and not 0 or 1.

    Construction is lenient so that validate_tower can report bad d as a
    violation instead of an exception.
    """

    d: int

    @cached_property
    def d_primes(self) -> tuple[int, ...]:
        """The primes dividing d: d is factored once per field, here.  The
        value lives in the instance dict, outside the dataclass fields, so
        it takes no part in equality, hashing or a written report."""
        return tuple(prime_factors(self.d))

    def is_valid(self) -> bool:
        return self.d not in (0, 1) and prod(self.d_primes) == abs(self.d)


def split_type(ell: int, K: QuadraticFieldSpec) -> str:
    """Splitting behaviour of a rational prime in K."""
    if not is_prime(ell):
        raise ValueError(f"{ell} is not prime")
    d = K.d
    if ell == 2:
        if d % 4 in (2, 3):
            return RAMIFIED
        return SPLIT if d % 8 == 1 else INERT
    if d % ell == 0:
        return RAMIFIED
    return SPLIT if kronecker_symbol(d, ell) == 1 else INERT


@dataclass(frozen=True)
class PrimeSite:
    """A prime v of K, named by the rational prime below it."""

    ell: int
    split_type: str
    which: Optional[str] = None  # FIRST or SECOND, only for split primes

    def __post_init__(self):
        if self.split_type == SPLIT and self.which not in (FIRST, SECOND):
            raise ValueError("split sites need which=first|second")
        if self.split_type != SPLIT and self.which is not None:
            raise ValueError("which is only meaningful for split sites")

    @property
    def self_conjugate(self) -> bool:
        return self.split_type != SPLIT

    def conjugate(self) -> "PrimeSite":
        if self.self_conjugate:
            return self
        other = SECOND if self.which == FIRST else FIRST
        return PrimeSite(self.ell, self.split_type, other)

    def local_extension(self, K: QuadraticFieldSpec) -> Optional[QuadraticExtension]:
        """K_v as an extension of Q_ell: None when K_v = Q_ell."""
        if self.split_type == SPLIT:
            return None
        if self.split_type == INERT:
            return UnramifiedQuadratic()
        return RamifiedQuadratic(K.d)


def sites_above(ell: int, K: QuadraticFieldSpec) -> list[PrimeSite]:
    st = split_type(ell, K)
    if st == SPLIT:
        return [PrimeSite(ell, st, FIRST), PrimeSite(ell, st, SECOND)]
    return [PrimeSite(ell, st)]


@dataclass(frozen=True)
class Violation:
    code: str
    message: str
    citation: str = ""

    def __str__(self) -> str:
        cite = f" [{self.citation}]" if self.citation else ""
        return f"{self.code}: {self.message}{cite}"


@dataclass(frozen=True)
class TowerSpec:
    """K = Q(sqrt(d)) together with the cyclic p^n layer's ramified sites."""

    K: QuadraticFieldSpec
    p: int
    n: int
    ramified_sites: frozenset[PrimeSite] = field(default_factory=frozenset)
    overrides: dict[int, SiteOverrides] = field(default_factory=dict)

    def __hash__(self):
        return hash((self.K, self.p, self.n, self.ramified_sites))

    def degree_over_K(self) -> int:
        return self.p ** self.n

    def is_ramified_in_L(self, site: PrimeSite) -> bool:
        return site in self.ramified_sites

    def override_for(self, ell: int) -> SiteOverrides:
        return self.overrides.get(ell, SiteOverrides())


CITE_P_GT_3 = "standing hypothesis: the tower degree prime p exceeds 3"
CITE_RAMIFIED_ABOVE_P = (
    "Mazur-Rubin Lemma 6.5: at a site not above p that ramifies in the cyclic "
    "layer, K_v/Q_ell is unramified; a site ramified in both layers must lie above p"
)


def validate_tower(T: TowerSpec, E: Optional[WeierstrassCurve] = None) -> list[Violation]:
    """All standing-hypothesis violations of the tower (empty means valid).

    E is accepted and not read: a WeierstrassCurve is never singular."""
    out: list[Violation] = []
    if not (is_prime(T.p) and T.p > 3):
        out.append(Violation("p_gt_3", f"p = {T.p}: p > 3 required and p must be prime",
                             CITE_P_GT_3))
    K_valid = T.K.is_valid()
    if not K_valid:
        out.append(Violation("d_squarefree",
                             f"d = {T.K.d} must be squarefree and not 0 or 1"))
    if T.n < 1:
        out.append(Violation("n_positive", f"n = {T.n} must be >= 1"))
    for site in sorted(T.ramified_sites, key=lambda s: (s.ell, s.which or "")):
        if K_valid and site.split_type != split_type(site.ell, T.K):
            out.append(Violation(
                "site_consistency",
                f"site above {site.ell} declared {site.split_type} but {site.ell} is "
                f"{split_type(site.ell, T.K)} in Q(sqrt({T.K.d}))"))
            continue
        if site.conjugate() not in T.ramified_sites:
            out.append(Violation(
                "conjugation_closure",
                f"ramified site set not closed under conjugation at {site.ell}"))
        if site.split_type == RAMIFIED and site.ell != T.p:
            out.append(Violation(
                "ramified_site_above_p",
                f"site above {site.ell} is ramified in K/Q and in L/K but does not "
                f"lie above p = {T.p}", CITE_RAMIFIED_ABOVE_P))
    return out


def check_tower(T: TowerSpec) -> None:
    """Raise ValueError naming every violation of an invalid tower."""
    violations = validate_tower(T)
    if violations:
        raise ValueError("invalid tower: " + "; ".join(map(str, violations)))


def local_data(E: WeierstrassCurve, T: TowerSpec, site: PrimeSite) -> LocalData:
    """The local record of E at the prime below site, in the tower T."""
    return LocalData(E, site.ell, site.local_extension(T.K), T.override_for(site.ell))


def support_primes(T: TowerSpec, E: WeierstrassCurve) -> list[int]:
    """Finite set of rational primes that can carry a nonzero local constant."""
    primes = set(prime_factors(E.discriminant()))
    primes.add(T.p)
    primes.update(T.K.d_primes)  # with 2 below, the primes of disc(K)
    if T.K.d % 4 != 1:
        primes.add(2)
    primes.update(s.ell for s in T.ramified_sites)
    return sorted(primes)
