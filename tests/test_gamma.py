import pytest

from corpus import CURVES, TWIST_11A1_7, make_tower
from dihedral_parity import verdicts as V
from dihedral_parity.curves import WeierstrassCurve
from dihedral_parity.gamma import INFINITE_PLACE, gamma
from dihedral_parity.tower import SiteOverrides


def test_flagship_values():
    T = make_tower(-1, 5, 1, [11])
    E = CURVES["11a1"]
    g11 = gamma(E, T, 11)
    assert (g11.value, g11.case_tag) == (1, V.POT_MULT_SPLIT)
    g5 = gamma(E, T, 5)
    assert (g5.value, g5.case_tag) == (0, V.SPLIT_PAIR)
    g7 = gamma(E, T, 7)
    assert (g7.value, g7.case_tag) == (0, V.SELF_CONJ_UNRAMIFIED)


def test_every_verdict_has_citation():
    T = make_tower(-1, 5, 1, [11])
    for u in (2, 3, 5, 7, 11, 13, INFINITE_PLACE):
        g = gamma(CURVES["11a1"], T, u)
        assert g.citation


def test_archimedean_is_zero():
    g = gamma(CURVES["11a1"], make_tower(-1, 5, 1, [11]), INFINITE_PLACE)
    assert g.value == 0 and g.case_tag == V.ARCHIMEDEAN


def test_invalid_tower_rejected():
    with pytest.raises(ValueError):
        gamma(CURVES["11a1"], make_tower(-1, 3, 1, [11]), 11)


def test_nonsplit_multiplicative_over_Kv():
    # twist(11a1, 7) at 11 inert in Q(i): nonsplit over Q_11 but the inert
    # quadratic extension splits it, so ramified v_11 gives gamma = 1
    T = make_tower(-1, 5, 1, [7, 11])
    g = gamma(TWIST_11A1_7, T, 11)
    assert (g.value, g.case_tag) == (1, V.POT_MULT_SPLIT)


def test_good_over_Kv():
    # 49a1 good at 5; v_5 ramified in L/K of Q(sqrt 5) would need closure; use
    # an unramified self-conjugate site instead: handled by the unramified case
    T = make_tower(-1, 5, 1, [7])
    g = gamma(CURVES["49a1"], T, 7)  # additive at 7, inert in Q(i)
    assert g.case_tag in (V.POT_MULT_NONSPLIT_OR_ADDITIVE,
                          V.POT_GOOD_UNRAMIFIED_TAME)
    assert g.value == 0


def test_pot_good_tame_not_dividing_6p():
    # 49a1 is potentially good at 7; 7 does not divide 6*5
    T = make_tower(-1, 5, 1, [7])
    g = gamma(CURVES["49a1"], T, 7)
    assert (g.value, g.case_tag) == (0, V.POT_GOOD_UNRAMIFIED_TAME)


def test_pot_good_ramified_abelian_criterion():
    # y^2 = x^3 + 49: defect 3 at 7; q = 7, 7 - 1 = 6 divisible by 3 -> 0
    E = WeierstrassCurve(0, 0, 0, 0, 49)
    T = make_tower(-7, 7, 1, [7])
    g = gamma(E, T, 7)
    assert (g.value, g.case_tag) == (0, V.POT_GOOD_RAMIFIED_ABELIAN)
    # 49a1: defect 4 does not divide 6 -> no abelian certificate
    T2 = make_tower(-7, 7, 1, [7])
    g2 = gamma(CURVES["49a1"], T2, 7)
    assert g2.value is None and g2.case_tag == V.UNCOVERED


def test_unknown_defect_at_3_is_undetermined():
    # x^3 + 1 is potentially good at 3 with defect our criteria cannot certify
    T = make_tower(-1, 5, 1, [3])
    g = gamma(CURVES["x3+1"], T, 3)
    assert g.value is None and g.case_tag == V.UNCOVERED


def test_defect_override_resolves_small_prime():
    # overriding the defect at 3 lets the wild case conclude
    T = make_tower(-1, 5, 1, [3], overrides={3: SiteOverrides(defect=2)})
    g = gamma(CURVES["x3+1"], T, 3)
    assert g.value == 0
    assert g.case_tag == V.POT_GOOD_WILD_CYCLIC_DEFECT


def test_noncyclic_override_stays_undetermined():
    for override, detail in [
            (SiteOverrides(defect="noncyclic"), "semistability defect at 3 is noncyclic"),
            (SiteOverrides(defect="noncyclic", reduction_over_Kv="additive"),
             "semistability defect at 3 is noncyclic")]:
        T = make_tower(-1, 5, 1, [3], overrides={3: override})
        g = gamma(CURVES["x3+1"], T, 3)
        assert (g.value, g.detail) == (None, detail)


def test_split_pair_always_zero():
    # 5 splits in Q(sqrt 11)? kronecker(11,5)=1 since 11=1 mod 5
    T = make_tower(11, 7, 1, [])
    g = gamma(CURVES["11a1"], T, 5)
    assert (g.value, g.case_tag) == (0, V.SPLIT_PAIR)
