"""Aggregation: per-prime parity table, the global parity sum, and the
p-Selmer growth bound.

The central check is the prime-by-prime congruence gamma_u = sum_{v|u}
delta_v (mod 2).  It is a theorem under the audited hypotheses, so a Mismatch
row never reflects arithmetic: it flags an implementation bug and is
reported as FAILURE.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

from . import verdicts as V
from .curves import LocalData, WeierstrassCurve, minimal_model_at
from .delta import delta_at
from .gamma import ARCHIMEDEAN_GAMMA, INFINITE_PLACE, gamma_at
from .tower import (
    PrimeSite,
    TowerSpec,
    check_tower,
    local_data,
    sites_above,
    support_primes,
)
from .verdicts import ConstantVerdict, DeltaVerdict

# A serialized report's keys are the field names of the records below (and of
# PrimeSite and the verdicts), in field order; see report.report_json.
SCHEMA_VERSION = 1

MATCH = "Match"
MISMATCH = "Mismatch"
UNDETERMINED = "Undetermined"

BLANKET_CITATION = (
    "all remaining primes: good reduction, unramified everywhere in the tower; "
    "both constants vanish (good-reduction and unramified cases)")

# Hypothesis labels of the parity theorem, keyed by delta case tag.
_CONDITION_BY_TAG = {
    V.GOOD_NOT_P: "a",
    V.GOOD_ORDINARY_P: "a",
    V.GOOD_SUPERSINGULAR_MR57: "b",
    V.POT_MULT_SPLIT: "c",
    V.POT_MULT_NONSPLIT_OR_ADDITIVE: "c",
    V.ADDITIVE_NOT_P: "d",
    V.ADDITIVE_P_ORD_NONANOM: "d",
}


@dataclass(frozen=True)
class SiteAudit:
    site: PrimeSite
    condition: Optional[str]  # "a" | "b" | "c" | "d" | None
    passes: bool
    reason: str = ""


@dataclass(frozen=True)
class ParityRow:
    place: Union[int, str]
    gamma: Optional[ConstantVerdict]
    deltas: tuple[tuple[PrimeSite, DeltaVerdict], ...]
    delta_sum: Optional[int]
    status: str
    note: str = ""


ARCHIMEDEAN_ROW = ParityRow(INFINITE_PLACE, ARCHIMEDEAN_GAMMA, (), 0, MATCH,
                            note="documented extension: archimedean row")
BLANKET_ROW = ParityRow("other", None, (), 0, MATCH, note=BLANKET_CITATION)


@dataclass(frozen=True)
class SelmerBound:
    applicable: bool
    bound: Optional[int]
    dim_Sp_E_K: int
    s_m_size: int
    reasons: tuple[str, ...] = ()


@dataclass
class ParityReport:
    curve: WeierstrassCurve
    tower: TowerSpec
    rows: list[ParityRow]
    S: list[PrimeSite]                 # aggregation prime set
    mr64_sum: Optional[int]
    S_frak: list[PrimeSite]            # self-conjugate sites ramified in L/K
    S_m: list[PrimeSite]               # split multiplicative subset of S_frak
    hypothesis_audit: list[SiteAudit]
    selmer_bound: Optional[SelmerBound]
    relative_parity: Optional[dict]
    notes: list[str] = field(default_factory=list)

    @property
    def failure(self) -> bool:
        return any(r.status == MISMATCH for r in self.rows)

    @property
    def has_undetermined(self) -> bool:
        return (any(r.status == UNDETERMINED for r in self.rows)
                or self.mr64_sum is None)


def _row_for_prime(T: TowerSpec, site: PrimeSite, loc: Optional[LocalData]) -> ParityRow:
    """The row of the prime below site; its one delta entry stands for the
    conjugate pair when the prime splits in K."""
    g = gamma_at(T, site, loc)
    dv = delta_at(T, site, loc)
    dsum = dv.contribution()
    if g.value is None or dsum is None:
        status = UNDETERMINED
    else:
        status = MATCH if g.value % 2 == dsum else MISMATCH
    return ParityRow(place=site.ell, gamma=g, deltas=((site, dv),), delta_sum=dsum,
                     status=status)


def _audit(site: PrimeSite, dv: DeltaVerdict) -> SiteAudit:
    """Which parity-theorem condition a self-conjugate ramified site meets.

    A site passes when the delta engine's governing theorem applies (tags map
    onto conditions (a)-(d)); an Uncovered verdict fails the audit.
    """
    cond = _CONDITION_BY_TAG.get(dv.case_tag)
    return SiteAudit(site=site, condition=cond, passes=cond is not None,
                     reason=dv.detail if cond is None else "")


def _selmer_bound(T: TowerSpec, audit: list[SiteAudit], s_m: list[PrimeSite],
                  dim_Sp_E_K: int) -> SelmerBound:
    reasons = [f"site above {a.site.ell}: {a.reason or 'no known case applies'}"
               for a in audit if not a.passes]
    if (dim_Sp_E_K + len(s_m)) % 2 == 0:
        reasons.append(f"dim S_p(E/K) + |S_m| = {dim_Sp_E_K} + {len(s_m)} is even")
    applicable = not reasons
    return SelmerBound(
        applicable=applicable,
        bound=dim_Sp_E_K + T.degree_over_K() - 1 if applicable else None,
        dim_Sp_E_K=dim_Sp_E_K,
        s_m_size=len(s_m),
        reasons=tuple(reasons),
    )


def analyze(E: WeierstrassCurve, T: TowerSpec,
            dim_Sp_E_K: Optional[int] = None) -> ParityReport:
    """Full report: parity table, aggregation, audit and optional bound.

    The tower is validated once per TowerSpec; each support prime gets one row,
    and a LocalData record only where L/K ramifies.  Aggregates read the rows.
    """
    if dim_Sp_E_K is not None and dim_Sp_E_K < 0:
        raise ValueError("dim_Sp_E_K must be nonnegative")
    check_tower(T)
    disc = E.discriminant()
    # The aggregation set S: sites above p, sites ramified in L/K, and sites
    # of bad reduction, where the minimal discriminant is not a unit.
    s_primes = T.ramified_primes | {T.p}
    rows, S, sums = [], [], []
    for ell in support_primes(T, E):
        above = T.sites_at.get(ell) or sites_above(ell, T.K)
        loc = local_data(E, T, above[0]) if ell in T.ramified_primes else None
        rows.append(_row_for_prime(T, above[0], loc))
        if ell in s_primes or disc % ell == 0 and minimal_model_at(E, ell).valuations_at(ell)[0]:
            S.extend(above)
            sums.append(rows[-1].delta_sum)
    delta_at_ell = {r.place: r.deltas[0][1] for r in rows}
    total = None if None in sums else sum(sums) % 2
    s_frak = sorted((s for s in T.ramified_sites if s.self_conjugate),
                    key=lambda s: s.ell)
    s_m = [s for s in s_frak if delta_at_ell[s.ell].case_tag == V.POT_MULT_SPLIT]
    audit = [_audit(s, delta_at_ell[s.ell]) for s in s_frak]
    # The relative parity fragment needs the audit to pass at every site
    # above 6p and the aggregated sum to be determined.
    relative = None
    if total is not None and all(a.passes for a in audit
                                 if a.site.ell in (2, 3) or a.site.ell == T.p):
        relative = {
            "statement": (
                "r_p^arith(E, tau_rho) - r_p^arith(E, tau_1) and "
                "r^an(E, tau_rho) - r^an(E, tau_1) share the parity below (mod 2)"),
            "parity": total,
        }
    bound = None if dim_Sp_E_K is None else _selmer_bound(T, audit, s_m, dim_Sp_E_K)
    notes = [
        "archimedean places contribute 0 to both sides by a documented "
        "extension of the finite-place case analysis",
    ]
    if any(r.gamma.case_tag == V.POT_GOOD_RAMIFIED_ABELIAN for r in rows):
        notes.append(
            "the tame abelian criterion (residue size congruent to 1 mod e) was "
            "used to certify good reduction over an abelian extension of K_v")
    rows += ARCHIMEDEAN_ROW, BLANKET_ROW
    return ParityReport(
        curve=E,
        tower=T,
        rows=rows,
        S=S,
        mr64_sum=total,
        S_frak=s_frak,
        S_m=s_m,
        hypothesis_audit=audit,
        selmer_bound=bound,
        relative_parity=relative,
        notes=notes,
    )


# The entry points below each run one analysis and read one part of it.

def parity_table(E: WeierstrassCurve, T: TowerSpec) -> list[ParityRow]:
    """Rows for every prime in the finite support set, the archimedean place,
    and one blanket row covering all omitted primes."""
    return analyze(E, T).rows


def hypothesis_audit(E: WeierstrassCurve, T: TowerSpec) -> list[SiteAudit]:
    """Which parity-theorem condition each self-conjugate ramified site meets."""
    return analyze(E, T).hypothesis_audit


def mr64_sum(E: WeierstrassCurve, T: TowerSpec) -> tuple[Optional[int], list[PrimeSite]]:
    """Parity of sum of delta_v over the aggregation set S (None if any
    contributing verdict is undetermined)."""
    rep = analyze(E, T)
    return rep.mr64_sum, rep.S


def selmer_growth_bound(E: WeierstrassCurve, T: TowerSpec,
                        dim_Sp_E_K: int) -> SelmerBound:
    """Lower bound dim S_p(E/F) >= dim S_p(E/K) + p^n - 1, applicable when
    every self-conjugate ramified site meets a known case and
    dim S_p(E/K) + |S_m| is odd."""
    return analyze(E, T, dim_Sp_E_K).selmer_bound
