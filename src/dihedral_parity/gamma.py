"""Analytic local constants gamma_u = log ratio of twisted local root numbers.

gamma_u is defined by (-1)^gamma_u = W(E/Q_u, tau_rho) / W(E/Q_u, tau_1) for
the two induced representations of the dihedral tower.  The engine never
evaluates a root number: it dispatches over the evaluated cases (Rohrlich's
root-number formulae combined with the dihedral character decompositions)
and reports Undetermined outside them.
"""

from __future__ import annotations

from typing import Union

from . import verdicts as V
from .curves import UNKNOWN, LocalData, WeierstrassCurve
from .localarith import UnramifiedQuadratic
from .tower import SPLIT, PrimeSite, TowerSpec, check_tower, local_data, sites_above
from .verdicts import ConstantVerdict

INFINITE_PLACE = "infinity"
Place = Union[int, str]

CITATIONS = {
    V.SPLIT_PAIR: (
        "u splits in K: both induced local representations decompose as sums of "
        "conjugate characters and each root number is 1"),
    V.SELF_CONJ_UNRAMIFIED: (
        "v = v^c unramified in the cyclic layer: the two induced local "
        "representations are isomorphic, so the ratio is 1"),
    V.GOOD_OVER_KV: (
        "good reduction over K_v: by Rohrlich's good-reduction formula both root "
        "numbers equal det tau(-1), which agrees for the two twists"),
    V.POT_MULT_SPLIT: (
        "potentially multiplicative with split multiplicative reduction over K_v: "
        "Rohrlich's v(j)<0 formula gives ratio -1"),
    V.POT_MULT_NONSPLIT_OR_ADDITIVE: (
        "potentially multiplicative, not split multiplicative over K_v: "
        "Rohrlich's v(j)<0 formula gives ratio 1"),
    V.POT_GOOD_UNRAMIFIED_TAME: (
        "potentially good, residue characteristic at least 5, K_v/Q_ell "
        "unramified: the dihedral inner products cancel and the ratio is 1"),
    V.POT_GOOD_RAMIFIED_ABELIAN: (
        "potentially good above p with K_v/Q_p ramified: good reduction is "
        "acquired over an abelian extension of K_v, so both root numbers equal "
        "det tau(-1)"),
    V.POT_GOOD_WILD_CYCLIC_DEFECT: (
        "potentially good at residue characteristic 2 or 3 with cyclic inertia "
        "image of order dividing 6 (Kraus-type criterion): ratio is 1"),
    V.ARCHIMEDEAN: (
        "archimedean place: gamma = 0; documented extension, the finite-place "
        "case analysis does not cover infinity (p > 3 makes the local layer "
        "trivial there)"),
    V.UNCOVERED: "no evaluated case applies; no value is asserted",
}


def _verdict(value, tag, detail="") -> ConstantVerdict:
    return ConstantVerdict(value=value, case_tag=tag, citation=CITATIONS[tag],
                           detail=detail)


ARCHIMEDEAN_GAMMA = _verdict(0, V.ARCHIMEDEAN)


def gamma(E: WeierstrassCurve, T: TowerSpec, u: Place) -> ConstantVerdict:
    """gamma_u for a rational prime u (or the infinite place)."""
    check_tower(T)
    if u == INFINITE_PLACE:
        return ARCHIMEDEAN_GAMMA
    site = sites_above(u, T.K)[0]
    return gamma_at(T, site, local_data(E, T, site))


def gamma_at(T: TowerSpec, site: PrimeSite, loc: LocalData) -> ConstantVerdict:
    """gamma_u at the prime below site (the first above it), in a valid tower."""
    if site.split_type == SPLIT:
        return _verdict(0, V.SPLIT_PAIR)
    if not T.is_ramified_in_L(site):
        return _verdict(0, V.SELF_CONJ_UNRAMIFIED)

    # v = v^c, ramified in L/K.
    kv, red = loc.kv, loc.red
    if kv == "good":
        detail = ""
        if red.reduction_type != "good":
            detail = "good reduction acquired over the ramified K_v"
        return _verdict(0, V.GOOD_OVER_KV, detail)
    if red.potentially_multiplicative:
        if kv == "multiplicative_split":
            return _verdict(1, V.POT_MULT_SPLIT)
        return _verdict(0, V.POT_MULT_NONSPLIT_OR_ADDITIVE)
    # potentially good, additive over K_v
    ell = site.ell
    if ell % 2 and ell % 3 and ell != T.p:
        return _verdict(0, V.POT_GOOD_UNRAMIFIED_TAME)
    if ell == T.p:
        if isinstance(loc.ext, UnramifiedQuadratic):
            return _verdict(0, V.POT_GOOD_UNRAMIFIED_TAME)
        # ramified above p: abelian criterion q = p congruent to 1 mod e
        defect = loc.defect
        if isinstance(defect, int) and (T.p - 1) % defect == 0:
            return _verdict(
                0, V.POT_GOOD_RAMIFIED_ABELIAN,
                detail=(f"tame abelian criterion used: residue size {T.p} is 1 mod "
                        f"e = {defect}, so the defect extension of K_v is abelian"))
        return _verdict(None, V.UNCOVERED,
                        detail="ramified above p and the abelian criterion fails "
                               "or the defect is unknown")
    # ell in {2, 3}
    defect = loc.defect
    if isinstance(defect, int):
        return _verdict(0, V.POT_GOOD_WILD_CYCLIC_DEFECT,
                        detail=f"inertia image certified cyclic of order {defect}")
    if kv == UNKNOWN:
        return _verdict(None, V.UNCOVERED,
                        detail=f"reduction over K_v at {ell} undetermined")
    return _verdict(None, V.UNCOVERED,
                    detail=f"semistability defect at {ell} is {defect}")
