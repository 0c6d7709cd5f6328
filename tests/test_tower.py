from itertools import count

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus import CURVES, VALID_TOWERS, make_tower
from dihedral_parity.localarith import is_prime, is_squarefree, kronecker_symbol
from dihedral_parity.parity import analyze
from dihedral_parity.tower import (
    INERT,
    RAMIFIED,
    SPLIT,
    PrimeSite,
    QuadraticFieldSpec,
    SiteOverrides,
    TowerSpec,
    Violation,
    check_override,
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
    assert validate_tower(T) == []


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


# -p*q for the first primes above 10**30 and 10**31: about 0.03 s to decline
BEYOND_BUDGET_D = -next(filter(is_prime, count(10**30))) * next(filter(is_prime, count(10**31)))


def test_validate_reports_a_d_beyond_the_factoring_budget():
    # a violation that carries the factoring message, as the config's "d: ..." does
    T = TowerSpec(QuadraticFieldSpec(BEYOND_BUDGET_D), 5, 1)
    assert [tuple(v) for v in validate_tower(T)] == [
        ("d_squarefree", f"d: cannot factor {BEYOND_BUDGET_D}: beyond the factoring budget", "")]


# 10**5000 has more digits than Python prints, so a message that formats it
# as is raises; for d, inside the try meant for the factoring budget
@pytest.mark.parametrize("d, p, n, violation", [
    (-1, 10**5000, 1, "p_gt_3: p = a 16610-bit integer: p > 3 required"),
    (-1, 5, -10**5000, "n_positive: n = a 16610-bit integer must be >= 1"),
    (10**5000, 5, 1, "d_squarefree: d = a 16610-bit integer must be squarefree"),
], ids=["p", "n", "d"])
def test_validate_names_an_unprintable_value_by_its_size(d, p, n, violation):
    [only] = validate_tower(TowerSpec(QuadraticFieldSpec(d), p, n))
    assert str(only).startswith(violation)


@pytest.mark.parametrize("field, value, code", [
    ("p", 5.0, "p_gt_3"),
    ("n", True, "n_positive"),
    ("n", 1.0, "n_positive"),
    ("d", -1.0, "d_squarefree"),
], ids=["p-float", "n-true", "n-float", "d-float"])
def test_validate_rejects_tower_fields_that_are_not_ints(field, value, code):
    # each value equals the flagship's own (True == 1, 5.0 == 5), whose tower
    # is valid, so only its type is refused; a report would write "n": true
    # or fail on the float
    fields = {"d": -1, "p": 5, "n": 1, field: value}
    T = TowerSpec(QuadraticFieldSpec(fields["d"]), fields["p"], fields["n"],
                  [PrimeSite(11, INERT)])
    assert [v.code for v in validate_tower(T)] == [code]
    with pytest.raises(ValueError, match=f"^invalid tower: {code}: {field} = {value}"):
        analyze(CURVES["11a1"], T)


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


@pytest.mark.parametrize("ell", [0, 1, 4, -5, 121])
def test_split_type_asks_for_a_prime(ell):
    with pytest.raises(ValueError, match=rf"^{ell} is not prime$"):
        split_type(ell, QuadraticFieldSpec(-1))


# Every case below built a record that no config can build: a site whose
# violations raised, an override the analysis never read but the report
# wrote, or a value that made a later step raise.  Each is refused where it
# is built, by a ValueError that names its field.
K_I = QuadraticFieldSpec(-1)
SITES_11 = frozenset(sites_above(11, K_I))


@pytest.mark.parametrize("overrides, message", [
    ({"11": SiteOverrides(defect=2)}, r"overrides\.'11': key must be a prime"),
    ({4: SiteOverrides()}, r"overrides\.4: key must be a prime"),
    ({True: SiteOverrides()}, r"overrides\.True: key must be a prime"),
    ({"11": SiteOverrides(), 13: SiteOverrides()}, r"overrides\.'11': key must be a prime"),
    ({11: (None, None, None)}, r"overrides\.11: expected a SiteOverrides, not \(None"),
    ({11: {"defect": 2}}, r"overrides\.11: expected a SiteOverrides, not \{"),
], ids=["str-key", "key-4", "key-true", "mixed-keys", "tuple-value", "dict-value"])
def test_a_tower_refuses_an_override_a_config_refuses(overrides, message):
    with pytest.raises(ValueError, match=f"^{message}"):
        TowerSpec(K_I, 5, 1, SITES_11, overrides)
    with pytest.raises(ValueError, match=f"^{message}"):
        make_tower(-1, 5, 1, [11])._replace(overrides=overrides)
    with pytest.raises(ValueError, match=f"^{message}"):
        check_override(*next(iter(overrides.items())))


def test_check_override_returns_a_valid_item():
    value = SiteOverrides(defect=2)
    assert check_override(11, value) is value and check_override(11) == SiteOverrides()
    assert check_override(10**12 + 39) == SiteOverrides()


@pytest.mark.parametrize("args, message", [
    ((4, INERT), "ell: 4 is not prime"),
    ((11.0, INERT), "ell: 11.0 is not prime"),
    ((True, INERT), "ell: True is not prime"),
    (("11", INERT), "ell: '11' is not prime"),
    ((11, "bogus"), 'split_type: expected "split", "inert" or "ramified"'),
    ((5, SPLIT, "third"), 'which: expected "first" or "second"'),
    ((4, "bogus", "third"), "ell: 4 is not prime"),
    ((11, "bogus", "third"), 'split_type: expected "split", "inert" or "ramified"'),
], ids=["ell-4", "ell-float", "ell-true", "ell-str", "bogus", "which-third",
        "ell-first", "split-type-before-which"])
def test_a_site_refuses_a_value_a_config_refuses(args, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        PrimeSite(*args)
    with pytest.raises(ValueError, match=f"^{message}$"):
        PrimeSite._make(args)
    fields = dict(zip(PrimeSite._fields, args))
    site = PrimeSite(5, SPLIT, "first") if fields.get("which") else PrimeSite(11, INERT)
    with pytest.raises(ValueError, match=f"^{message}$"):
        site._replace(**fields)


# Any value a site, a tower or an override item may be given, where only an
# int prime passes as ell or key: booleans, floats, digit strings, 0,
# negatives, composites and a prime above 10**12.
ANY_VALUE = st.one_of(
    st.none(), st.booleans(), st.integers(-30, 30), st.floats(allow_nan=False),
    st.sampled_from([10**12 + 39, 10**12 + 41, "11", "inert", "split", "ramified", "first",
                     "second", 2.0, 11.0]))


def _site_or_none(ell, split_type, which):
    try:
        return PrimeSite(ell, split_type, which)
    except ValueError:
        return None


SITES = st.builds(_site_or_none, st.one_of(st.sampled_from(SMALL_PRIMES), ANY_VALUE),
                  st.sampled_from([SPLIT, INERT, RAMIFIED]),
                  st.sampled_from([None, "first", "second"])).filter(bool)
OVERRIDES = st.dictionaries(st.sampled_from(SMALL_PRIMES + [10**12 + 39]),
                            st.builds(SiteOverrides, defect=st.sampled_from([None, 2]),
                                      anomalous=st.sampled_from([None, False])),
                            max_size=2)


# Towers that construct: any d (one beyond the factoring budget too), any
# p and n (ints of any size, booleans and None among them), and any sites and
# overrides their records admit.
ANY_TOWER = st.builds(
    lambda d, *fields: TowerSpec(QuadraticFieldSpec(d), *fields),
    st.one_of(st.integers(-10**6, 10**6), ANY_VALUE, st.just(BEYOND_BUDGET_D)),
    st.one_of(st.integers(), ANY_VALUE), st.one_of(st.integers(), ANY_VALUE),
    st.frozensets(SITES, max_size=4), OVERRIDES)


@settings(max_examples=200, deadline=None)
@given(st.one_of(VALID_TOWERS, ANY_TOWER))
def test_validate_tower_never_raises_on_a_tower_that_constructs(T):
    violations = validate_tower(T)
    assert type(violations) is list and all(type(v) is Violation for v in violations)
    assert T.violations == tuple(violations)
