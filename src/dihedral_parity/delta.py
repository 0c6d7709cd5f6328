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
from .curves import UNKNOWN, LocalData, ResidueFrobenius, WeierstrassCurve
from .localarith import UnramifiedQuadratic
from .tower import SPLIT, PrimeSite, TowerSpec, check_tower, local_data
from .verdicts import DeltaVerdict

CITATIONS = {
    V.PAIR_CANCELS: (
        "v and v^c are swapped by conjugation: delta_v = delta_{v^c} "
        "(Mazur-Rubin Lemma 5.1), so the pair sum is 0"),
    V.SPLITS_COMPLETELY: (
        "v = v^c unramified in the cyclic layer splits completely there "
        "(Mazur-Rubin Lemma 6.5), the local norm map is surjective and delta_v = 0"),
    V.GOOD_NOT_P: (
        "good reduction over K_v away from p: delta_v = 0 "
        "(Mazur-Rubin Theorems 5.6 and 6.6)"),
    V.GOOD_ORDINARY_P: (
        "good ordinary reduction at a site above p: delta_v = 0 "
        "(Mazur-Rubin Theorem 6.7)"),
    V.GOOD_SUPERSINGULAR_MR57: (
        "good supersingular reduction with the curve defined over Q_p and K_v "
        "containing the unramified quadratic extension: delta_v = 0 "
        "(Mazur-Rubin Theorem 5.7)"),
    V.POT_MULT_SPLIT: (
        "potentially multiplicative, split multiplicative over K_v: delta_v = 1 "
        "(norm-index computation via the Tate parametrization)"),
    V.POT_MULT_NONSPLIT_OR_ADDITIVE: (
        "potentially multiplicative but not split multiplicative over K_v: "
        "delta_v = 0"),
    V.ADDITIVE_NOT_P: (
        "additive reduction over K_v away from p: E(K_v) has no p-part, "
        "delta_v = 0"),
    V.ADDITIVE_P_ORD_NONANOM: (
        "additive above p acquiring good ordinary non-anomalous reduction over a "
        "Galois extension of K_v of degree prime to p: delta_v = 0"),
    V.UNCOVERED: "no evaluated case applies; no value is asserted",
}


def _verdict(value, tag, detail="", pair_sum=None) -> DeltaVerdict:
    return DeltaVerdict(value=value, case_tag=tag, citation=CITATIONS[tag],
                        detail=detail, pair_sum=pair_sum)


def residue_frobenius_over_Kv(E: WeierstrassCurve, T: TowerSpec,
                              site: PrimeSite) -> Optional[ResidueFrobenius]:
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
        if ov.anomalous:
            return _verdict(None, V.UNCOVERED,
                            detail="override reports anomalous reduction over the "
                                   "defect extension; no value is known")
        return _verdict(0, V.ADDITIVE_P_ORD_NONANOM,
                        detail="ordinary non-anomalous reduction supplied by override")
    defect = loc.defect
    if not (defect == 2 and isinstance(loc.ext, UnramifiedQuadratic)):
        return _verdict(None, V.UNCOVERED,
                        detail=f"defect {defect} over K_v not reachable by a "
                               "quadratic twist; supply an override")
    if loc.twist_frobenius is None:
        return _verdict(None, V.UNCOVERED,
                        detail="no good quadratic twist found despite defect 2")
    t, fd = loc.twist_frobenius
    # M = K_v(sqrt(t)) has residue field F_{p^2}.
    anomalous = fd.anomalous_over(loc.ell ** 2)
    if fd.ordinary and not anomalous:
        return _verdict(0, V.ADDITIVE_P_ORD_NONANOM,
                        detail=f"good ordinary non-anomalous over M = K_v(sqrt({t}))")
    reason = "supersingular" if not fd.ordinary else "anomalous"
    return _verdict(None, V.UNCOVERED,
                    detail=f"reduction over the defect extension is {reason}")


def delta(E: WeierstrassCurve, T: TowerSpec, v: PrimeSite) -> DeltaVerdict:
    """delta_v for a prime site v of K (pair sum only when v is split)."""
    check_tower(T)
    return delta_at(T, v, local_data(E, T, v))


def delta_at(T: TowerSpec, v: PrimeSite, loc: LocalData) -> DeltaVerdict:
    """delta_v read off the local record of the prime below v, in a valid tower."""
    if v.split_type == SPLIT:
        return _verdict(None, V.PAIR_CANCELS, pair_sum=0)
    if not T.is_ramified_in_L(v):
        return _verdict(0, V.SPLITS_COMPLETELY)

    kv, red = loc.kv, loc.red
    p = T.p
    if kv == "good":
        if v.ell != p:
            return _verdict(0, V.GOOD_NOT_P)
        rf = loc.residue_frobenius
        if rf is None:
            return _verdict(None, V.UNCOVERED,
                            detail="good over K_v above p but the residue curve is "
                                   "not reachable by a quadratic twist")
        if rf.ordinary:
            return _verdict(0, V.GOOD_ORDINARY_P,
                            detail=f"a_q = {rf.a_q} over F_{rf.q} is prime to p")
        # supersingular: only the inert, defined-over-Q_p case is known
        if isinstance(loc.ext, UnramifiedQuadratic) and red.reduction_type == "good":
            return _verdict(0, V.GOOD_SUPERSINGULAR_MR57)
        return _verdict(None, V.UNCOVERED,
                        detail="supersingular at p outside the known case "
                               "(p must be inert with E good over Q_p)")
    if red.potentially_multiplicative:
        if kv == "multiplicative_split":
            return _verdict(1, V.POT_MULT_SPLIT)
        return _verdict(0, V.POT_MULT_NONSPLIT_OR_ADDITIVE)
    if kv == UNKNOWN:
        return _verdict(None, V.UNCOVERED,
                        detail=f"reduction over K_v at {v.ell} undetermined")
    # additive over K_v, potentially good
    if v.ell != p:
        return _verdict(0, V.ADDITIVE_NOT_P)
    return _additive_above_p(loc)
