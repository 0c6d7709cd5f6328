"""Shared curve corpus and tower-building helpers for the test suite."""

from __future__ import annotations

from dihedral_parity import QuadraticFieldSpec, TowerSpec, WeierstrassCurve, sites_above
from dihedral_parity.curves import quadratic_twist

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
