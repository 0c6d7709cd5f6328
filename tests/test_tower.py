import pytest
from hypothesis import given
from hypothesis import strategies as st

from corpus import CURVES, make_tower
from dihedral_parity.localarith import is_prime, is_squarefree, kronecker_symbol
from dihedral_parity.tower import (
    INERT,
    RAMIFIED,
    SPLIT,
    PrimeSite,
    QuadraticFieldSpec,
    TowerSpec,
    sites_above,
    split_type,
    support_primes,
    validate_tower,
)

SQUAREFREE_D = st.integers(min_value=-60, max_value=60).filter(
    lambda d: d not in (0, 1) and is_squarefree(d))
SMALL_PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23]


@given(SQUAREFREE_D, st.sampled_from(SMALL_PRIMES))
def test_split_type_matches_kronecker(d, ell):
    K = QuadraticFieldSpec(d)
    t = split_type(ell, K)
    if ell == 2:
        expected = {1: SPLIT, 5: INERT}.get(d % 8, RAMIFIED)
    else:
        sym = kronecker_symbol(d, ell)
        expected = {1: SPLIT, -1: INERT, 0: RAMIFIED}[sym]
    assert t == expected


@given(SQUAREFREE_D, st.sampled_from(SMALL_PRIMES))
def test_sites_above_structure(d, ell):
    K = QuadraticFieldSpec(d)
    sites = sites_above(ell, K)
    if split_type(ell, K) == SPLIT:
        assert len(sites) == 2
        assert sites[0].conjugate() == sites[1]
        assert not sites[0].self_conjugate
    else:
        assert len(sites) == 1
        assert sites[0].self_conjugate
        assert sites[0].conjugate() == sites[0]


def test_validate_accepts_flagship():
    T = make_tower(-1, 5, 1, [11])
    assert validate_tower(T, CURVES["11a1"]) == []


def test_validate_rejects_small_p():
    for p in (2, 3):
        T = make_tower(-1, p, 1, [11])
        viols = validate_tower(T)
        assert any(v.code == "p_gt_3" for v in viols)
        assert any("p > 3" in v.message for v in viols)


def test_validate_rejects_composite_p():
    viols = validate_tower(make_tower(-1, 15, 1, [11]))
    assert any(v.code == "p_gt_3" for v in viols)


def test_validate_rejects_non_closed_ramified_set():
    # 5 splits in Q(i); taking only one of the pair breaks closure
    T = make_tower(-1, 7, 1, [(5, "first")])
    viols = validate_tower(T)
    assert any(v.code == "conjugation_closure" for v in viols)


def test_validate_rejects_ramified_in_K_not_above_p():
    # 11 ramifies in Q(sqrt 11); declaring it ramified in L/K needs ell = p
    T = make_tower(11, 5, 1, [11])
    viols = validate_tower(T)
    assert any(v.code == "ramified_site_above_p" for v in viols)
    assert any("unramified" in v.citation for v in viols)


def test_validate_rejects_sites_that_contradict_the_splitting():
    # 11 is inert in Q(i), so parse_tower never builds these two split
    # sites, but a TowerSpec built by hand can hold them
    sites = frozenset(PrimeSite(11, SPLIT, which) for which in ("first", "second"))
    T = TowerSpec(K=QuadraticFieldSpec(-1), p=5, n=1, ramified_sites=sites)
    viols = validate_tower(T)
    assert [v.code for v in viols] == ["site_consistency"] * 2
    assert all("declared split but 11 is inert" in v.message for v in viols)


def test_validate_rejects_bad_d():
    assert any(v.code == "d_squarefree"
               for v in validate_tower(make_tower(12, 5, 1, [])))
    K = QuadraticFieldSpec(1)
    T = TowerSpec(K=K, p=5, n=1, ramified_sites=frozenset(), overrides={})
    assert any(v.code == "d_squarefree" for v in validate_tower(T))


def test_validate_monotone():
    """Adding a violating site never removes a violation."""
    base = make_tower(11, 5, 1, [11])
    before = {v.code for v in validate_tower(base)}
    K = base.K
    bigger = TowerSpec(
        K=K, p=base.p, n=base.n,
        ramified_sites=base.ramified_sites | frozenset(
            s for s in sites_above(5, K) if s.which == "first"),
        overrides={})
    after = {v.code for v in validate_tower(bigger)}
    assert before <= after


def test_support_primes_cover():
    E = CURVES["11a1"]
    T = make_tower(-1, 5, 1, [11])
    sup = support_primes(T, E)
    assert 11 in sup and 5 in sup and 2 in sup  # bad, p, disc(K)
    assert sup == sorted(sup)
    assert all(is_prime(q) for q in sup)


def test_site_validation():
    with pytest.raises(ValueError):
        PrimeSite(ell=4, split_type=INERT, which="first")
