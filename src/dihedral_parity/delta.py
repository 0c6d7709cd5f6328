"""Arithmetic local constants delta_v (Mazur-Rubin norm-index parities).

delta_v is the F_p-dimension mod 2 of E(K_v)/(E(K_v) cap N E(L_w)).  The
norm index itself is never computed; the engine dispatches over the cases
where the value is known (Mazur-Rubin's good-reduction theorems, the
potential-multiplicative criterion, and the additive cases) and returns
Undetermined elsewhere, notably for supersingular reduction outside the
one known theorem.
"""

from __future__ import annotations

from typing import Optional

from . import verdicts as V
from .curves import UNKNOWN, FrobeniusData, LocalData, WeierstrassCurve
from .localarith import UnramifiedQuadratic
from .tower import SPLIT, PrimeSite, TowerSpec, check_tower, local_data
from .verdicts import DeltaVerdict

# The cases, each a verdict of its value and citation, built once: delta_at
# returns one of them, or, where the detail names a number (a_q, a defect, a
# prime), a copy with that detail.
PAIR_CANCELS = DeltaVerdict(None, V.PAIR_CANCELS, (
    "v and v^c are swapped by conjugation: delta_v = delta_{v^c} "
    "(Mazur-Rubin Lemma 5.1), so the pair sum is 0"), pair_sum=0)
SPLITS_COMPLETELY = DeltaVerdict(0, V.SPLITS_COMPLETELY, (
    "v = v^c unramified in the cyclic layer splits completely there "
    "(Mazur-Rubin Lemma 6.5), the local norm map is surjective and delta_v = 0"))
GOOD_NOT_P = DeltaVerdict(0, V.GOOD_NOT_P, (
    "good reduction over K_v away from p: delta_v = 0 "
    "(Mazur-Rubin Theorems 5.6 and 6.6)"))
GOOD_ORDINARY_P = DeltaVerdict(0, V.GOOD_ORDINARY_P, (
    "good ordinary reduction at a site above p: delta_v = 0 "
    "(Mazur-Rubin Theorem 6.7)"))
GOOD_SUPERSINGULAR_MR57 = DeltaVerdict(0, V.GOOD_SUPERSINGULAR_MR57, (
    "good supersingular reduction with the curve defined over Q_p and K_v "
    "containing the unramified quadratic extension: delta_v = 0 "
    "(Mazur-Rubin Theorem 5.7)"))
POT_MULT_SPLIT = DeltaVerdict(1, V.POT_MULT_SPLIT, (
    "potentially multiplicative, split multiplicative over K_v: delta_v = 1 "
    "(norm-index computation via the Tate parametrization)"))
POT_MULT_NONSPLIT_OR_ADDITIVE = DeltaVerdict(0, V.POT_MULT_NONSPLIT_OR_ADDITIVE, (
    "potentially multiplicative but not split multiplicative over K_v: "
    "delta_v = 0"))
ADDITIVE_NOT_P = DeltaVerdict(0, V.ADDITIVE_NOT_P, (
    "additive reduction over K_v away from p: E(K_v) has no p-part, "
    "delta_v = 0"))
ADDITIVE_P_ORD_NONANOM = DeltaVerdict(0, V.ADDITIVE_P_ORD_NONANOM, (
    "additive above p acquiring good ordinary non-anomalous reduction over a "
    "Galois extension of K_v of degree prime to p: delta_v = 0"))
ORDINARY_BY_OVERRIDE = ADDITIVE_P_ORD_NONANOM._replace(
    detail="ordinary non-anomalous reduction supplied by override")
UNCOVERED = DeltaVerdict(None, V.UNCOVERED, "no evaluated case applies; no value is asserted")
ANOMALOUS_BY_OVERRIDE = UNCOVERED._replace(detail="override reports anomalous reduction "
                                           "over the defect extension; no value is known")
NO_GOOD_TWIST = UNCOVERED._replace(detail="no good quadratic twist found despite defect 2")
NO_RESIDUE_TWIST = UNCOVERED._replace(detail="good over K_v above p but the residue curve "
                                      "is not reachable by a quadratic twist")
SUPERSINGULAR_OUTSIDE_MR57 = UNCOVERED._replace(detail="supersingular at p outside the known "
                                                "case (p must be inert with E good over Q_p)")
SUPERSINGULAR_OVER_M = UNCOVERED._replace(
    detail="reduction over the defect extension is supersingular")
ANOMALOUS_OVER_M = UNCOVERED._replace(detail="reduction over the defect extension is anomalous")


def residue_frobenius_over_Kv(E: WeierstrassCurve, T: TowerSpec,
                              site: PrimeSite) -> Optional[FrobeniusData]:
    """Frobenius data of E's reduction over K_v at a good-over-K_v site above p.

    When E is additive over Q_p the good model over the ramified K_v is reached
    by the quadratic twist matching K_v's square class; None when no such
    twist is available (the defect exceeds 2).
    """
    return local_data(E, T, site).residue_frobenius


def _additive_above_p(loc: LocalData) -> DeltaVerdict:
    """Additive over K_v at a site above p: the degree-prime-to-p descent case.

    Automated when the defect extension M/K_v is quadratic (defect e = 2 with
    K_v inert); otherwise the anomalous override decides, or Undetermined.
    """
    ov = loc.overrides
    if ov.anomalous is not None:
        return ANOMALOUS_BY_OVERRIDE if ov.anomalous else ORDINARY_BY_OVERRIDE
    defect = loc.defect
    if not (defect == 2 and isinstance(loc.ext, UnramifiedQuadratic)):
        return UNCOVERED._replace(detail=f"defect {defect} over K_v not reachable by a "
                                         "quadratic twist; supply an override")
    if loc.twist_frobenius is None:
        return NO_GOOD_TWIST
    t, fd = loc.twist_frobenius
    # M = K_v(sqrt(t)) has residue field F_{p^2}.
    anomalous = fd.anomalous_over(loc.ell ** 2)
    if fd.ordinary and not anomalous:
        return ADDITIVE_P_ORD_NONANOM._replace(
            detail=f"good ordinary non-anomalous over M = K_v(sqrt({t}))")
    return ANOMALOUS_OVER_M if fd.ordinary else SUPERSINGULAR_OVER_M


def delta(E: WeierstrassCurve, T: TowerSpec, v: PrimeSite) -> DeltaVerdict:
    """delta_v for a prime site v of K (pair sum only when v is split)."""
    check_tower(T)
    return delta_at(T, v, local_data(E, T, v))


def delta_at(T: TowerSpec, v: PrimeSite, loc: Optional[LocalData]) -> DeltaVerdict:
    """delta_v read off the local record of the prime below v, in a valid tower."""
    if v.split_type == SPLIT:
        return PAIR_CANCELS
    if v.ell not in T.ramified_primes:
        return SPLITS_COMPLETELY

    kv, red = loc.kv, loc.red
    p = T.p
    if kv == "good":
        if v.ell != p:
            return GOOD_NOT_P
        rf = loc.residue_frobenius
        if rf is None:
            return NO_RESIDUE_TWIST
        inert = isinstance(loc.ext, UnramifiedQuadratic)
        if rf.ordinary:
            q, a_q = (p * p, rf.a_ell2) if inert else (p, rf.a_ell)
            return GOOD_ORDINARY_P._replace(detail=f"a_q = {a_q} over F_{q} is prime to p")
        # supersingular: only the inert case is known (rf there means E good over Q_p)
        if inert:
            return GOOD_SUPERSINGULAR_MR57
        return SUPERSINGULAR_OUTSIDE_MR57
    if red.potentially_multiplicative:
        return POT_MULT_SPLIT if kv == "multiplicative_split" else POT_MULT_NONSPLIT_OR_ADDITIVE
    if kv == UNKNOWN:
        return UNCOVERED._replace(detail=f"reduction over K_v at {v.ell} undetermined")
    # additive over K_v, potentially good
    if v.ell != p:
        return ADDITIVE_NOT_P
    return _additive_above_p(loc)
