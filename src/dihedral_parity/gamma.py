"""Analytic local constants gamma_u = log ratio of twisted local root numbers.

gamma_u is defined by (-1)^gamma_u = W(E/Q_u, tau_rho) / W(E/Q_u, tau_1) for
the two induced representations of the dihedral tower.  The engine never
evaluates a root number: it dispatches over the evaluated cases (Rohrlich's
root-number formulae combined with the dihedral character decompositions)
and reports Undetermined outside them.
"""

from __future__ import annotations

from typing import Optional, Union

from . import verdicts as V
from .curves import UNKNOWN, LocalData, WeierstrassCurve
from .localarith import UnramifiedQuadratic
from .tower import SPLIT, PrimeSite, TowerSpec, check_tower, local_data, sites_above
from .verdicts import ConstantVerdict

INFINITE_PLACE = "infinity"
Place = Union[int, str]

# The cases, each a verdict of its value and citation, built once: gamma_at
# returns one of them, or, where the detail names a number (a defect, a
# prime), a copy with that detail.
SPLIT_PAIR = ConstantVerdict(0, V.SPLIT_PAIR, (
    "u splits in K: both induced local representations decompose as sums of "
    "conjugate characters and each root number is 1"))
SELF_CONJ_UNRAMIFIED = ConstantVerdict(0, V.SELF_CONJ_UNRAMIFIED, (
    "v = v^c unramified in the cyclic layer: the two induced local "
    "representations are isomorphic, so the ratio is 1"))
GOOD_OVER_KV = ConstantVerdict(0, V.GOOD_OVER_KV, (
    "good reduction over K_v: by Rohrlich's good-reduction formula both root "
    "numbers equal det tau(-1), which agrees for the two twists"))
GOOD_ACQUIRED_OVER_KV = GOOD_OVER_KV._replace(
    detail="good reduction acquired over the ramified K_v")
POT_MULT_SPLIT = ConstantVerdict(1, V.POT_MULT_SPLIT, (
    "potentially multiplicative with split multiplicative reduction over K_v: "
    "Rohrlich's v(j)<0 formula gives ratio -1"))
POT_MULT_NONSPLIT_OR_ADDITIVE = ConstantVerdict(0, V.POT_MULT_NONSPLIT_OR_ADDITIVE, (
    "potentially multiplicative, not split multiplicative over K_v: "
    "Rohrlich's v(j)<0 formula gives ratio 1"))
POT_GOOD_UNRAMIFIED_TAME = ConstantVerdict(0, V.POT_GOOD_UNRAMIFIED_TAME, (
    "potentially good, residue characteristic at least 5, K_v/Q_ell "
    "unramified: the dihedral inner products cancel and the ratio is 1"))
POT_GOOD_RAMIFIED_ABELIAN = ConstantVerdict(0, V.POT_GOOD_RAMIFIED_ABELIAN, (
    "potentially good above p with K_v/Q_p ramified: good reduction is "
    "acquired over an abelian extension of K_v, so both root numbers equal "
    "det tau(-1)"))
POT_GOOD_WILD_CYCLIC_DEFECT = ConstantVerdict(0, V.POT_GOOD_WILD_CYCLIC_DEFECT, (
    "potentially good at residue characteristic 2 or 3 with cyclic inertia "
    "image of order dividing 6 (Kraus-type criterion): ratio is 1"))
ARCHIMEDEAN_GAMMA = ConstantVerdict(0, V.ARCHIMEDEAN, (
    "archimedean place: gamma = 0; documented extension, the finite-place "
    "case analysis does not cover infinity (p > 3 makes the local layer "
    "trivial there)"))
UNCOVERED = ConstantVerdict(None, V.UNCOVERED, "no evaluated case applies; no value is asserted")
ABELIAN_CRITERION_FAILS = UNCOVERED._replace(detail="ramified above p and the abelian "
                                             "criterion fails or the defect is unknown")
VOCABULARY = tuple(v for v in globals().values() if isinstance(v, ConstantVerdict))


def gamma(E: WeierstrassCurve, T: TowerSpec, u: Place) -> ConstantVerdict:
    """gamma_u for a rational prime u (or the infinite place)."""
    check_tower(T)
    if u == INFINITE_PLACE:
        return ARCHIMEDEAN_GAMMA
    site = sites_above(u, T.K)[0]
    return gamma_at(T, site, local_data(E, T, site))


def gamma_at(T: TowerSpec, site: PrimeSite, loc: Optional[LocalData]) -> ConstantVerdict:
    """gamma_u at the prime below site (the first above it), in a valid tower."""
    if site.split_type == SPLIT:
        return SPLIT_PAIR
    if site.ell not in T.ramified_primes:
        return SELF_CONJ_UNRAMIFIED

    # v = v^c, ramified in L/K.
    kv, red = loc.kv, loc.red
    if kv == "good":
        return GOOD_OVER_KV if red.reduction_type == "good" else GOOD_ACQUIRED_OVER_KV
    if red.potentially_multiplicative:
        return POT_MULT_SPLIT if kv == "multiplicative_split" else POT_MULT_NONSPLIT_OR_ADDITIVE
    # potentially good, additive over K_v
    ell = site.ell
    if ell % 2 and ell % 3 and ell != T.p:
        return POT_GOOD_UNRAMIFIED_TAME
    if ell == T.p:
        if isinstance(loc.ext, UnramifiedQuadratic):
            return POT_GOOD_UNRAMIFIED_TAME
        # ramified above p: abelian criterion q = p congruent to 1 mod e
        defect = loc.defect
        if isinstance(defect, int) and (T.p - 1) % defect == 0:
            return POT_GOOD_RAMIFIED_ABELIAN._replace(detail=(
                f"tame abelian criterion used: residue size {T.p} is 1 mod "
                f"e = {defect}, so the defect extension of K_v is abelian"))
        return ABELIAN_CRITERION_FAILS
    # ell in {2, 3}
    defect = loc.defect
    if isinstance(defect, int):
        return POT_GOOD_WILD_CYCLIC_DEFECT._replace(
            detail=f"inertia image certified cyclic of order {defect}")
    if kv == UNKNOWN:
        return UNCOVERED._replace(detail=f"reduction over K_v at {ell} undetermined")
    return UNCOVERED._replace(detail=f"semistability defect at {ell} is {defect}")
