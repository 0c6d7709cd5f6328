"""Quadratic fields K = Q(sqrt(d)), prime sites, and dihedral tower data.

The cyclic layer L/K of degree p^n is described only by the set of prime
sites of K that ramify in it; existence of an actual extension with that
ramification is asserted by the user (a ray class group condition the
constants never depend on).
"""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property
from math import prod
from types import MappingProxyType
from typing import Optional

from .curves import LocalData, SiteOverrides, WeierstrassCurve
from .localarith import (
    QuadraticExtension,
    RamifiedQuadratic,
    UnramifiedQuadratic,
    int_text,
    is_prime,
    kronecker_symbol,
    prime_factors,
)
from .verdicts import CheckedRecord

SPLIT = "split"
INERT = "inert"
RAMIFIED = "ramified"

FIRST = "first"
SECOND = "second"


class QuadraticFieldSpec(namedtuple("QuadraticFieldSpec", "d")):
    """K = Q(sqrt(d)); d should be a squarefree int and not 0 or 1.

    Construction is lenient so that validate_tower can report bad d as a
    violation instead of an exception.
    """

    @cached_property
    def d_primes(self) -> tuple[int, ...]:
        """The primes dividing d: d is factored once per field, here.  The
        value lives in the instance dict, outside the record's fields, so
        it takes no part in equality, hashing or a written report."""
        return tuple(prime_factors(self.d))

    def is_valid(self) -> bool:
        return type(self.d) is int and self.d not in (0, 1) and prod(self.d_primes) == abs(self.d)


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


class PrimeSite(CheckedRecord, namedtuple("PrimeSite", "ell split_type which", defaults=(None,))):
    """A prime v of K above the int prime ell; which is FIRST or SECOND for a
    split prime, None otherwise.  Any other value is a ValueError naming its field."""

    def __new__(cls, ell, split_type, which=None):
        if not (type(ell) is int and is_prime(ell)):
            raise ValueError(f"ell: {ell!r} is not prime")
        if split_type not in (SPLIT, INERT, RAMIFIED):
            raise ValueError('split_type: expected "split", "inert" or "ramified"')
        if which not in (None, FIRST, SECOND):
            raise ValueError('which: expected "first" or "second"')
        if (split_type == SPLIT) != (which is not None):
            raise ValueError("which is given exactly for a split site")
        return tuple.__new__(cls, (ell, split_type, which))

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


class Violation(namedtuple("Violation", "code message citation", defaults=("",))):
    """A standing hypothesis a tower breaks, and its citation if any."""

    def __str__(self) -> str:
        cite = f" [{self.citation}]" if self.citation else ""
        return f"{self.code}: {self.message}{cite}"


NO_OVERRIDES = SiteOverrides()


def check_override(ell, value=NO_OVERRIDES) -> SiteOverrides:
    """value, if ell is an int prime and value a SiteOverrides; else a ValueError naming ell."""
    if not (type(ell) is int and is_prime(ell)):
        raise ValueError(f"overrides.{ell!r}: key must be a prime")
    if not isinstance(value, SiteOverrides):
        raise ValueError(f"overrides.{ell!r}: expected a SiteOverrides, not {value!r}")
    return value


class TowerSpec(CheckedRecord, namedtuple("TowerSpec", "K p n ramified_sites overrides")):
    """K = Q(sqrt(d)) together with the cyclic p^n layer's ramified sites (a
    frozenset of PrimeSite) and the overrides, a read-only mapping over a dict
    of its own from primes to SiteOverrides; any other K, site or item is a
    ValueError.  No field changes, so each tower keeps what its analyses share."""

    def __new__(cls, K, p, n, ramified_sites=frozenset(), overrides=None):
        if not isinstance(K, QuadraticFieldSpec):
            raise ValueError(f"K: expected a QuadraticFieldSpec, not {K!r}")
        sites = frozenset(ramified_sites)
        if not all(isinstance(site, PrimeSite) for site in sites):
            raise ValueError(f"ramified_sites: expected PrimeSite entries, not {set(sites)!r}")
        return tuple.__new__(cls, (K, p, n, sites, MappingProxyType(
            {ell: check_override(ell, o) for ell, o in dict(overrides or {}).items()})))

    def __getnewargs__(self):  # overrides as a dict, which pickles where a mappingproxy does not
        return (*self[:4], dict(self.overrides or {}))

    def __hash__(self):
        return hash((self.K, self.p, self.n, self.ramified_sites))

    def degree_over_K(self) -> int:
        return self.p ** self.n

    def override_for(self, ell: int) -> SiteOverrides:
        return self.overrides.get(ell, NO_OVERRIDES)

    # Each is taken once per tower and lives in the instance dict, like
    # K.d_primes: none reads the overrides, and every other field is immutable.
    @cached_property
    def violations(self) -> tuple[Violation, ...]:
        """validate_tower's verdict on this tower."""
        return tuple(validate_tower(self))

    @cached_property
    def sites_at(self) -> dict[int, tuple[PrimeSite, ...]]:
        """The sites above each prime every support set holds: p, the primes
        of disc(K) and the ramified ones, in a valid tower."""
        primes = {self.p, *self.K.d_primes, *self.ramified_primes}
        if self.K.d % 4 != 1:
            primes.add(2)
        return {ell: tuple(sites_above(ell, self.K)) for ell in primes}

    @cached_property
    def ramified_primes(self) -> frozenset[int]:
        """The primes below the sites ramified in L/K."""
        return frozenset(s.ell for s in self.ramified_sites)

    @cached_property
    def self_conjugate_ramified(self) -> tuple[PrimeSite, ...]:
        """The self-conjugate sites ramified in L/K, by the prime below."""
        return tuple(s for s in sorted(self.ramified_sites, key=lambda s: s.ell)
                     if s.self_conjugate)


CITE_P_GT_3 = "standing hypothesis: the tower degree prime p exceeds 3"
CITE_RAMIFIED_ABOVE_P = (
    "Mazur-Rubin Lemma 6.5: at a site not above p that ramifies in the cyclic "
    "layer, K_v/Q_ell is unramified; a site ramified in both layers must lie above p"
)


def validate_tower(T: TowerSpec) -> list[Violation]:
    """All standing-hypothesis violations of the tower (empty means valid); p, n
    and d are ints, not True or 5.0.  An int too long to print is named by its
    bit length."""
    out: list[Violation] = []
    p, n, d = int_text(T.p), int_text(T.n), int_text(T.K.d)
    if not (type(T.p) is int and is_prime(T.p) and T.p > 3):
        out.append(Violation("p_gt_3", f"p = {p}: p > 3 required and p must be prime",
                             CITE_P_GT_3))
    try:
        K_valid, d_message = T.K.is_valid(), f"d = {d} must be squarefree and not 0 or 1"
    except ValueError as exc:  # d is beyond the factoring budget
        K_valid, d_message = False, f"d: {exc}"
    if not K_valid:
        out.append(Violation("d_squarefree", d_message))
    if type(T.n) is not int or T.n < 1:
        out.append(Violation("n_positive", f"n = {n} must be >= 1"))
    for site in sorted(T.ramified_sites, key=lambda s: (s.ell, s.which or "")):
        ell = int_text(site.ell)
        if K_valid and site.split_type != split_type(site.ell, T.K):
            out.append(Violation(
                "site_consistency",
                f"site above {ell} declared {site.split_type} but {ell} is "
                f"{split_type(site.ell, T.K)} in Q(sqrt({d}))"))
            continue
        if site.conjugate() not in T.ramified_sites:
            out.append(Violation(
                "conjugation_closure",
                f"ramified site set not closed under conjugation at {ell}"))
        if site.split_type == RAMIFIED and site.ell != T.p:
            out.append(Violation(
                "ramified_site_above_p",
                f"site above {ell} is ramified in K/Q and in L/K but does not "
                f"lie above p = {p}", CITE_RAMIFIED_ABOVE_P))
    return out


def check_tower(T: TowerSpec) -> None:
    """Raise ValueError naming every violation of an invalid tower."""
    if T.violations:
        raise ValueError("invalid tower: " + "; ".join(map(str, T.violations)))


def local_data(E: WeierstrassCurve, T: TowerSpec, site: PrimeSite) -> LocalData:
    """The local record of E at the prime below site, in the tower T."""
    return LocalData(E, site.ell, site.local_extension(T.K), T.override_for(site.ell))


def support_primes(T: TowerSpec, E: WeierstrassCurve) -> list[int]:
    """Finite set of rational primes that can carry a nonzero local constant."""
    return sorted({*prime_factors(E.discriminant()), *T.sites_at})
