"""Shared curve corpus and tower-building helpers for the test suite."""

from __future__ import annotations

from functools import lru_cache

from hypothesis import strategies as st

from dihedral_parity import QuadraticFieldSpec, TowerSpec, WeierstrassCurve, sites_above
from dihedral_parity.curves import SingularCurveError, quadratic_twist
from dihedral_parity.localarith import is_prime
from dihedral_parity.tower import INERT, SPLIT, split_type

CURVES = {
    "11a1": WeierstrassCurve(0, -1, 1, -10, -20),
    "11a3": WeierstrassCurve(0, -1, 1, 0, 0),
    "14a1": WeierstrassCurve(1, 0, 1, 4, -6),
    "15a1": WeierstrassCurve(1, 1, 1, -10, -10),
    "17a1": WeierstrassCurve(1, -1, 1, -1, -14),
    "19a1": WeierstrassCurve(0, 1, 1, -9, -15),
    "37a1": WeierstrassCurve(0, 0, 1, -1, 0),
    "49a1": WeierstrassCurve(1, -1, 0, -2, -1),
    "x3+x": WeierstrassCurve(0, 0, 0, 1, 0),
    "x3+1": WeierstrassCurve(0, 0, 0, 0, 1),
}

TWIST_11A1_7 = quadratic_twist(CURVES["11a1"], 7)
TWIST_37A1_5 = quadratic_twist(CURVES["37a1"], 5)  # additive at 5, defect 2


def make_tower(d: int, p: int, n: int, ramified: list, overrides=None) -> TowerSpec:
    """ramified entries: a prime ell (both sites) or a (ell, which) pair."""
    K = QuadraticFieldSpec(d)
    sites = []
    for entry in ramified:
        if isinstance(entry, tuple):
            ell, which = entry
            sites.extend(s for s in sites_above(ell, K) if s.which == which)
        else:
            sites.extend(sites_above(entry, K))
    return TowerSpec(K=K, p=p, n=n, ramified_sites=frozenset(sites),
                     overrides=overrides or {})


# (label, curve, d, p, n, ramified primes) — every parity row must be Match.
PARITY_CORPUS = [
    ("11a1/d-1/p5", CURVES["11a1"], -1, 5, 1, [11]),
    ("11a1/d7/p5", CURVES["11a1"], 7, 5, 1, [11]),
    ("11a1/d7/p5/ram5", CURVES["11a1"], 7, 5, 1, [5, 11]),
    ("11a1/d-1/p7", CURVES["11a1"], -1, 7, 1, [11]),
    ("11a1/d-1/p5/n2", CURVES["11a1"], -1, 5, 2, [11]),
    ("11a3/d-1/p5", CURVES["11a3"], -1, 5, 1, [11]),
    ("11a3/d2/p5", CURVES["11a3"], 2, 5, 1, [11]),
    ("14a1/d-1/p5", CURVES["14a1"], -1, 5, 1, [7]),
    ("15a1/d-1/p7", CURVES["15a1"], -1, 7, 1, [3]),
    ("15a1/d2/p5", CURVES["15a1"], 2, 5, 1, [5]),
    ("tw11a1.7/d-1/p5", TWIST_11A1_7, -1, 5, 1, [7]),
    ("tw11a1.7/d-1/p5/ram11", TWIST_11A1_7, -1, 5, 1, [7, 11]),
    ("17a1/d-1/p5", CURVES["17a1"], -1, 5, 1, [17]),
    ("17a1/d3/p7", CURVES["17a1"], 3, 7, 1, [17]),
    ("19a1/d-1/p5", CURVES["19a1"], -1, 5, 1, [19]),
    ("37a1/d-1/p5", CURVES["37a1"], -1, 5, 1, [37]),
    ("37a1/d2/p5", CURVES["37a1"], 2, 5, 1, [37]),
    ("49a1/d-1/p5", CURVES["49a1"], -1, 5, 1, [7]),
    ("x3+x/d-1/p5", CURVES["x3+x"], -1, 5, 1, [3]),
    ("x3+1/d-1/p5", CURVES["x3+1"], -1, 5, 1, [7]),
    ("x3+x/d5/p7", CURVES["x3+x"], 5, 7, 1, [7]),
    ("tw37a1.5/d7/p5", TWIST_37A1_5, 7, 5, 1, [5]),
    ("tw37a1.5/d5/p5", TWIST_37A1_5, 5, 5, 1, [5]),
]

# The towers of the benchmark's batch and large_disc rounds, as
# (d, p, ramified primes), n = 1: between them, sites at 2, 3, 11, 13 and at
# p inert, ramified and split in K.
SMALL_TOWERS = [(5, 7, [2, 3, 7, 13]), (-7, 7, [3, 7]), (-1, 5, [3, 5]), (-3, 5, [2, 5, 11])]


def _curve(ainvs):
    try:
        return WeierstrassCurve(*ainvs)
    except SingularCurveError:
        return None


SMALL_CURVES = st.tuples(st.integers(0, 1), st.integers(-1, 1), st.integers(0, 1),
                         st.integers(-50, 50), st.integers(-50, 50)).map(_curve).filter(bool)


def _tower(d: int, p: int, n: int, primes: set) -> TowerSpec:
    K = QuadraticFieldSpec(d)
    return TowerSpec(K=K, p=p, n=n,
                     ramified_sites=frozenset(s for ell in primes for s in sites_above(ell, K)))


_SQUAREFREE_D = [d for d in range(-30, 31) if QuadraticFieldSpec(d).is_valid()]
_TOWER_P = [5, 7, 11, 13]

# Valid towers: squarefree d in [-30, 30], p in {5, 7, 11, 13}, n in {1, 2},
# and every site above one to three primes up to 23 ramified in L/K (so the
# set is closed under conjugation); a tower that breaks a standing hypothesis
# (a site ramified in K/Q but not above p) is dropped.
VALID_TOWERS = st.builds(
    _tower,
    st.sampled_from(_SQUAREFREE_D),
    st.sampled_from(_TOWER_P),
    st.integers(1, 2),
    st.sets(st.sampled_from([2, 3, 5, 7, 11, 13, 17, 19, 23]), min_size=1, max_size=3),
).filter(lambda T: not T.violations)


@lru_cache(maxsize=None)
def _ramifiable(d: int, p: int, n: int) -> list[int]:
    """The primes below 400 whose sites may ramify in a dihedral L/K of degree
    p^n: p itself, or a prime unramified in K whose tame inertia of order p^n
    the reflection inverts, so that p^n | ell + 1 when ell is inert in K and
    p^n | ell - 1 when it splits (Serre, Local Fields, ch. IV)."""
    K, q = QuadraticFieldSpec(d), p ** n
    return [ell for ell in range(2, 400) if is_prime(ell) and (
        ell == p or {INERT: ell + 1, SPLIT: ell - 1}.get(split_type(ell, K), 1) % q == 0)]


def _realizable_tower(d: int, p: int, n: int, picks: set) -> TowerSpec:
    primes = _ramifiable(d, p, n)
    return _tower(d, p, n, {primes[i % len(primes)] for i in picks})


# Realizable towers: the d, p and n of VALID_TOWERS, and every site above one
# to three primes of _ramifiable ramified in L/K, picked by index.  Built,
# not filtered: about 2% of the towers VALID_TOWERS draws from pass the rule.
REALIZABLE_TOWERS = st.builds(
    _realizable_tower,
    st.sampled_from(_SQUAREFREE_D),
    st.sampled_from(_TOWER_P),
    st.integers(1, 2),
    st.sets(st.integers(0, 63), min_size=1, max_size=3),
)
