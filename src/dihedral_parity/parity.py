"""Aggregation: per-prime parity table, the global parity sum, and the
p-Selmer growth bound.

The central check is the prime-by-prime congruence gamma_u = sum_{v|u}
delta_v (mod 2).  It is a theorem under the audited hypotheses, so a Mismatch
row never reflects arithmetic: it flags an implementation bug and is
reported as FAILURE.
"""

from __future__ import annotations

import sys
from collections import namedtuple
from typing import Optional

from . import verdicts as V
from .curves import WeierstrassCurve, minimal_model_at
from .delta import delta_at
from .gamma import ARCHIMEDEAN_GAMMA, INFINITE_PLACE, gamma_at
from .localarith import padic_valuation
from .tower import PrimeSite, TowerSpec, check_tower, local_data, sites_above, support_primes
from .verdicts import CheckedRecord, DeltaVerdict

# A serialized report's keys are the field names of the records below (and of
# PrimeSite and the verdicts), in field order; see report.report_json.
SCHEMA_VERSION = 1

MATCH = "Match"
MISMATCH = "Mismatch"
UNDETERMINED = "Undetermined"

RELATIVE_STATEMENT = (
    "r_p^arith(E, tau_rho) - r_p^arith(E, tau_1) and "
    "r^an(E, tau_rho) - r^an(E, tau_1) share the parity below (mod 2)")
ARCHIMEDEAN_NOTE = ("archimedean places contribute 0 to both sides by a documented "
                    "extension of the finite-place case analysis")
TAME_NOTE = ("the tame abelian criterion (residue size congruent to 1 mod e) was "
             "used to certify good reduction over an abelian extension of K_v")
NOTES = ((ARCHIMEDEAN_NOTE,), (ARCHIMEDEAN_NOTE, TAME_NOTE))  # the notes a report may hold
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


class SiteAudit(namedtuple("SiteAudit", "site condition passes reason", defaults=("",))):
    """The parity-theorem condition ("a" to "d", or None) a site meets."""


class ParityRow(namedtuple("ParityRow", "place gamma deltas delta_sum status note",
                           defaults=("",))):
    """A place's gamma (None for the blanket row) and its (site, delta) pairs."""


ARCHIMEDEAN_ROW = ParityRow(INFINITE_PLACE, ARCHIMEDEAN_GAMMA, (), 0, MATCH,
                            note="documented extension: archimedean row")
BLANKET_ROW = ParityRow("other", None, (), 0, MATCH, note=BLANKET_CITATION)


class SelmerBound(namedtuple("SelmerBound", "applicable bound dim_Sp_E_K s_m_size reasons",
                             defaults=((),))):
    """The p-Selmer growth bound, or None with the reasons it does not apply."""


class ParityReport(CheckedRecord, namedtuple("ParityReport", "curve tower rows S mr64_sum "
                                             "S_frak S_m hypothesis_audit selmer_bound "
                                             "relative_parity failure has_undetermined notes")):
    """One analysis.  S is the aggregation set, S_frak the self-conjugate sites
    ramified in L/K and S_m its split multiplicative part.  The flags failure
    and has_undetermined are read off the rows once, as the report is built."""

    def __new__(cls, curve, tower, rows, S, mr64_sum, S_frak, S_m, hypothesis_audit,
                selmer_bound, relative_parity, notes=None):
        statuses = {r.status for r in rows}
        return tuple.__new__(cls, (
            curve, tower, rows, S, mr64_sum, S_frak, S_m, hypothesis_audit, selmer_bound,
            relative_parity, MISMATCH in statuses, UNDETERMINED in statuses or mr64_sum is None,
            [] if notes is None else notes))

    def __getnewargs__(self):  # __new__ takes no flags: it reads them off the rows
        return (*self[:10], self.notes)


def _row_for_prime(T: TowerSpec, site: PrimeSite, E: WeierstrassCurve,
                   shared: dict) -> ParityRow:
    """The row of the prime below site; its one delta entry stands for the
    conjugate pair when the prime splits in K.  Only at a self-conjugate
    site ramified in L/K do the verdicts read E, through its LocalData, and
    not where the prime is not p and E's model is good there: both constants
    then vanish whatever the curve (Rohrlich's good-reduction formula;
    Mazur-Rubin Theorems 5.6 and 6.6), so the verdicts read only T's
    overrides, and the row T keeps for the site is taken.  T keeps each row
    at one of its own primes by value."""
    ell = site.ell
    ramified = site.self_conjugate and ell in T.ramified_primes
    good = ramified and ell != T.p and E.discriminant() % ell != 0
    if good and (row := shared.get(site)) is not None:
        return row
    loc = local_data(E, T, site) if ramified else None
    g, dv = gamma_at(T, site, loc), delta_at(T, site, loc)
    # Equal verdicts write equal texts: True == 1 == 1.0, but the engines'
    # verdicts hold only 0, 1 or None, and their details are str.
    key = (site, g, dv)
    row = shared.get(key)
    if row is None:
        dsum = dv.contribution()
        status = (UNDETERMINED if g.value is None or dsum is None
                  else MATCH if g.value % 2 == dsum else MISMATCH)
        row = ParityRow(ell, g, ((site, dv),), dsum, status)
        if ell in T.sites_at:
            shared[key] = row
    if good:
        shared[site] = row
    return row


def _audit(site: PrimeSite, dv: DeltaVerdict, shared: dict) -> SiteAudit:
    """Which parity-theorem condition a self-conjugate ramified site meets: it
    passes when the delta engine's governing theorem applies (tags map onto
    conditions (a)-(d)); an Uncovered verdict fails, for its detail's reason."""
    cond = _CONDITION_BY_TAG.get(dv.case_tag)
    if cond is None:
        return SiteAudit(site, None, False, dv.detail)
    return shared.get((site.ell, cond)) or shared.setdefault((site.ell, cond),
                                                             SiteAudit(site, cond, True))


def max_digits() -> int:
    """The most digits of an int the package prints or reads: 4300, Python's
    default, or a lower limit set for this interpreter (0 is none, and Python
    before 3.10.7 has none)."""
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    return min(4300, limit) if limit else 4300


def bound_error(p: int, n: int, dim_Sp_E_K: Optional[int]) -> Optional[str]:
    """Why dim_Sp_E_K + p^n - 1 is too long to print, or None (always when
    dim_Sp_E_K is None, p < 2 or n < 1): n may decide first, as p^n >=
    2^((bits of p - 1) n) and 2^(10/3) > 10, and a bound of at most
    3 * digits bits is below 8^digits."""
    if dim_Sp_E_K is None or p < 2 or n < 1:
        return None
    digits = max_digits()
    if (3 * (p.bit_length() - 1) * n > 10 * digits
            or (bound := dim_Sp_E_K + p ** n).bit_length() > 3 * digits and bound > 10 ** digits):
        return f"the Selmer bound dim_Sp_E_K + p^n - 1 has more than {digits} digits"
    return None


def check_dim_Sp_E_K(dim_Sp_E_K: Optional[int]) -> None:
    """Raise TypeError unless dim_Sp_E_K is None or an int, ValueError if it is negative."""
    if dim_Sp_E_K is not None and type(dim_Sp_E_K) is not int:  # True == 1 == 1.0
        raise TypeError(f"dim_Sp_E_K = {dim_Sp_E_K!r} is not an int")
    if dim_Sp_E_K is not None and dim_Sp_E_K < 0:
        raise ValueError("dim_Sp_E_K must be nonnegative")


def _selmer_bound(T: TowerSpec, failed: list[SiteAudit], s_m_size: int, dim_Sp_E_K: int,
                  shared: dict) -> SelmerBound:
    bound = shared.get((s_m_size, dim_Sp_E_K))
    if failed or bound is None:
        reasons = [f"site above {a.site.ell}: {a.reason or 'no known case applies'}"
                   for a in failed]
        if (dim_Sp_E_K + s_m_size) % 2 == 0:
            reasons.append(f"dim S_p(E/K) + |S_m| = {dim_Sp_E_K} + {s_m_size} is even")
        bound = SelmerBound(not reasons, None if reasons else dim_Sp_E_K + T.degree_over_K() - 1,
                            dim_Sp_E_K, s_m_size, tuple(reasons))
        if not failed:
            shared[s_m_size, dim_Sp_E_K] = bound
    return bound


def analyze(E: WeierstrassCurve, T: TowerSpec,
            dim_Sp_E_K: Optional[int] = None) -> ParityReport:
    """Full report: parity table, aggregation, audit and optional bound.

    The tower is validated once, and keeps the records its reports share.
    Each support prime gets a row, and a LocalData record only at a
    self-conjugate site ramified in L/K.  Aggregates read the rows."""
    check_dim_Sp_E_K(dim_Sp_E_K)
    check_tower(T)
    if error := bound_error(T.p, T.n, dim_Sp_E_K):
        raise ValueError(error)
    disc, primes = E.discriminant(), support_primes(T, E)
    shared = vars(T).setdefault("shared", {})
    # The aggregation set S: sites above p, sites ramified in L/K, and sites
    # of bad reduction, where the minimal discriminant is not a unit.  A model
    # with v(Delta) < 12 at ell is already minimal there.
    rows, S, sums = [], [], []
    for ell in primes:
        above = T.sites_at.get(ell) or sites_above(ell, T.K)
        row = _row_for_prime(T, above[0], E, shared)
        rows.append(row)
        if ell == T.p or ell in T.ramified_primes or disc % ell == 0 and (
                padic_valuation(disc, ell) < 12
                or minimal_model_at(E, ell).valuations_at(ell)[0]):
            S.extend(above)
            sums.append(row.delta_sum)
    total = None if None in sums else sum(sums) % 2
    row_at, s_frak = dict(zip(primes, rows)), list(T.self_conjugate_ramified)
    ramified = [(s, row_at[s.ell]) for s in s_frak]
    s_m = [s for s, r in ramified if r.deltas[0][1].case_tag == V.POT_MULT_SPLIT]
    audit = [_audit(s, r.deltas[0][1], shared) for s, r in ramified]
    failed = [a for a in audit if not a.passes]
    # The relative parity fragment needs the audit to pass at every site
    # above 6p and the aggregated sum to be determined.  The sum covers the
    # audit: an audit fails only at an Uncovered delta, whose delta_sum is
    # None, at a self-conjugate site ramified in L/K, whose prime is in S.
    relative = None if total is None else {"statement": RELATIVE_STATEMENT, "parity": total}
    bound = (None if dim_Sp_E_K is None
             else _selmer_bound(T, failed, len(s_m), dim_Sp_E_K, shared))
    notes = NOTES[any(r.gamma.case_tag == V.POT_GOOD_RAMIFIED_ABELIAN for _, r in ramified)]
    rows += ARCHIMEDEAN_ROW, BLANKET_ROW
    return ParityReport(curve=E, tower=T, rows=rows, S=S, mr64_sum=total, S_frak=s_frak,
                        S_m=s_m, hypothesis_audit=audit, selmer_bound=bound,
                        relative_parity=relative, notes=list(notes))


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
