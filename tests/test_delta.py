import pytest

from corpus import CURVES, TWIST_11A1_7, TWIST_37A1_5, make_tower
from dihedral_parity import verdicts as V
from dihedral_parity.curves import WeierstrassCurve
from dihedral_parity.delta import (
    ANOMALOUS_OVER_M,
    NO_GOOD_TWIST,
    NO_RESIDUE_TWIST,
    SUPERSINGULAR_OVER_M,
    delta,
    delta_at,
    residue_frobenius_over_Kv,
)
from dihedral_parity.parity import UNDETERMINED, analyze
from dihedral_parity.tower import SiteOverrides, local_data, sites_above


def _site(T, ell, which=None):
    for s in sites_above(ell, T.K):
        if which is None or s.which == which:
            return s
    raise AssertionError


def test_flagship_delta_is_one():
    T = make_tower(-1, 5, 1, [11])
    d = delta(CURVES["11a1"], T, _site(T, 11))
    assert (d.value, d.case_tag) == (1, V.POT_MULT_SPLIT)


def test_split_pair_cancels():
    T = make_tower(-1, 5, 1, [11])
    d = delta(CURVES["11a1"], T, _site(T, 5, "first"))
    assert d.case_tag == V.PAIR_CANCELS
    assert d.value is None and d.pair_sum == 0
    assert d.contribution() == 0


def test_self_conjugate_unramified_zero():
    T = make_tower(-1, 5, 1, [11])
    d = delta(CURVES["11a1"], T, _site(T, 7))
    assert (d.value, d.case_tag) == (0, V.SPLITS_COMPLETELY)


def test_good_ordinary_at_p():
    # 5 inert in Q(sqrt 7); 11a1 good ordinary at 5 (a_5 = 1)
    T = make_tower(7, 5, 1, [5, 11])
    d = delta(CURVES["11a1"], T, _site(T, 5))
    assert (d.value, d.case_tag) == (0, V.GOOD_ORDINARY_P)


def test_good_not_p_zero():
    # ramified site away from p with good reduction: 17 in Q(sqrt 3) for 11a1?
    # use 11a1's good prime 17, inert/ramified as the tower dictates
    T = make_tower(3, 7, 1, [17])
    d = delta(CURVES["17a1"], T, _site(T, 17))
    assert d.case_tag in (V.POT_MULT_SPLIT, V.POT_MULT_NONSPLIT_OR_ADDITIVE,
                          V.GOOD_NOT_P)  # 17a1 is multiplicative at 17
    T2 = make_tower(3, 7, 1, [17])
    d2 = delta(CURVES["11a1"], T2, _site(T2, 17))
    assert (d2.value, d2.case_tag) == (0, V.GOOD_NOT_P)


def test_good_supersingular_mr57():
    # x^3 + x is good supersingular at 7 (7 = 3 mod 4); 7 inert in Q(sqrt 5)
    T = make_tower(5, 7, 1, [7])
    d = delta(CURVES["x3+x"], T, _site(T, 7))
    assert (d.value, d.case_tag) == (0, V.GOOD_SUPERSINGULAR_MR57)


def test_supersingular_ramified_is_undetermined():
    # same curve, but 7 ramifies in Q(sqrt -7): outside the known case
    T = make_tower(-7, 7, 1, [7])
    d = delta(CURVES["x3+x"], T, _site(T, 7))
    assert d.value is None and d.case_tag == V.UNCOVERED


def test_additive_not_p():
    # twist(11a1, 7) is additive at 7, inert in Q(i), away from p = 5
    T = make_tower(-1, 5, 1, [7])
    d = delta(TWIST_11A1_7, T, _site(T, 7))
    assert (d.value, d.case_tag) == (0, V.ADDITIVE_NOT_P)


def test_additive_above_p_ordinary_nonanomalous():
    # twist(37a1, 5): additive at p = 5 with defect 2, 5 inert in Q(sqrt 7);
    # residue trace -2 (a_5(37a1) = -2 twisted by the nonsquare class), so the
    # curve over F_25 is ordinary and non-anomalous
    T = make_tower(7, 5, 1, [5])
    d = delta(TWIST_37A1_5, T, _site(T, 5))
    assert (d.value, d.case_tag) == (0, V.ADDITIVE_P_ORD_NONANOM)
    assert "non-anomalous over M" in d.detail


def test_anomalous_override_forces_undetermined():
    T = make_tower(7, 5, 1, [5],
                   overrides={5: SiteOverrides(anomalous=True)})
    d = delta(TWIST_37A1_5, T, _site(T, 5))
    assert d.value is None and d.case_tag == V.UNCOVERED


def test_good_over_ramified_Kv_at_p():
    # over Q_5(sqrt 5) the twist un-twists: good ordinary with a_q = a_5 = -2
    T = make_tower(5, 5, 1, [5])
    d = delta(TWIST_37A1_5, T, _site(T, 5))
    assert (d.value, d.case_tag) == (0, V.GOOD_ORDINARY_P)
    f = residue_frobenius_over_Kv(TWIST_37A1_5, T, _site(T, 5))
    assert f.ell == 5 and f.a_ell == -2


def test_invalid_tower_rejected():
    T = make_tower(-1, 4, 1, [11])
    with pytest.raises(ValueError):
        delta(CURVES["11a1"], T, _site(T, 11))


def test_every_delta_has_citation():
    T = make_tower(-1, 5, 1, [11])
    for ell in (2, 3, 5, 7, 11, 13):
        for s in sites_above(ell, T.K):
            assert delta(CURVES["11a1"], T, s).citation


# Undetermined, never silently wrong: each branch above p = 7 that declines
# to give a value, in K = Q(sqrt 5) with 7 inert and ramified in L/K.
@pytest.mark.parametrize("ainvs, override, verdict", [
    # y^2 = x^3 + x twisted by 7: additive, defect 2, and the good twist
    # over F_49 is supersingular (a_7 = 0)
    ([0, 0, 0, 49, 0], None, SUPERSINGULAR_OVER_M),
    # y^2 = x^3 - 9x - 9 twisted by 7: the good twist has a_7 = 1, ordinary
    # but anomalous over F_49
    ([0, 0, 0, -441, -3087], None, ANOMALOUS_OVER_M),
    # y^2 = x^3 + 7 has defect 6; forced to 2, no quadratic twist is good
    ([0, 0, 0, 0, 7], SiteOverrides(defect=2), NO_GOOD_TWIST),
    # forced good over K_v, but no quadratic twist reaches the residue curve
    ([0, 0, 0, 49, 0], SiteOverrides(reduction_over_Kv="good"), NO_RESIDUE_TWIST),
], ids=["supersingular over M", "anomalous over M", "no good twist",
        "no residue twist"])
def test_undetermined_branches_above_p(ainvs, override, verdict):
    E = WeierstrassCurve(*ainvs)
    T = make_tower(5, 7, 1, [7], overrides={7: override} if override else None)
    site = _site(T, 7)
    assert delta_at(T, site, local_data(E, T, site)) is verdict
    assert verdict.value is None and verdict.case_tag == V.UNCOVERED
    row = next(r for r in analyze(E, T).rows if r.place == 7)
    assert row.status == UNDETERMINED


def test_an_inert_site_has_residue_frobenius_data_only_where_E_is_good():
    # delta_at takes residue Frobenius data at an inert site for E good over
    # Q_p; an override of good reduction over K_v opens the one other path,
    # E bad over Q_p, where there are none and the verdict is NO_RESIDUE_TWIST
    T = make_tower(5, 7, 1, [7], overrides={7: SiteOverrides(reduction_over_Kv="good")})
    site = _site(T, 7)
    bad = 0
    for E in (*CURVES.values(), TWIST_11A1_7, WeierstrassCurve(0, 0, 0, 49, 0),
              WeierstrassCurve(0, 0, 0, -441, -3087), WeierstrassCurve(0, 0, 0, 0, 7)):
        loc = local_data(E, T, site)
        assert site.split_type == "inert" and loc.kv == "good"
        if loc.red.reduction_type != "good":
            bad += 1
            assert loc.residue_frobenius is None and delta_at(T, site, loc) is NO_RESIDUE_TWIST
    assert bad >= 4
