from fractions import Fraction
from itertools import product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from corpus import CURVES, TWIST_11A1_7
from dihedral_parity import pointcount
from dihedral_parity.curves import (
    LocalData,
    ResidueFrobenius,
    SingularCurveError,
    SiteOverrides,
    UNKNOWN,
    WeierstrassCurve,
    count_points,
    frobenius_data,
    good_twist_at,
    local_reduction,
    minimal_model_at,
    model_from_invariants,
    quadratic_twist,
    reduction_over_Kv,
    semistability_defect,
)
from dihedral_parity.localarith import (
    RamifiedQuadratic,
    UnramifiedQuadratic,
    padic_valuation,
    prime_factors,
)

small_ints = st.integers(min_value=-8, max_value=8)


def curves_strategy():
    return st.tuples(small_ints, small_ints, small_ints, small_ints, small_ints)


def _try_curve(ainvs):
    try:
        return WeierstrassCurve(*ainvs)
    except SingularCurveError:
        return None


def test_singular_rejected():
    with pytest.raises(SingularCurveError):
        WeierstrassCurve(0, 0, 0, 0, 0)


def test_known_invariants_11a1():
    E = CURVES["11a1"]
    assert E.b_invariants()[:3] == (-4, -20, -79)
    assert (*E.c_invariants(), E.discriminant()) == (496, 20008, -161051)
    assert E.discriminant() == -(11 ** 5)


@pytest.mark.parametrize("label,E", list(CURVES.items()))
def test_stored_invariants_take_no_part_in_equality(label, E):
    # the invariants and valuations live outside the record's fields: a
    # curve whose invariants have been read equals, and hashes like, a
    # fresh one
    E.b_invariants(), E.c_invariants(), E.discriminant()
    for ell in (2, 3, 5, 11):
        v_disc, v_c4, v_c6 = E.valuations_at(ell)
        c4, c6 = E.c_invariants()
        assert v_disc == padic_valuation(E.discriminant(), ell)
        # v(c4) and v(c6) are taken only where v(Delta) > 0
        assert v_c4 == (padic_valuation(c4, ell) if c4 and v_disc else None)
        assert v_c6 == (padic_valuation(c6, ell) if c6 and v_disc else None)
    fresh = WeierstrassCurve(*E.ainvs())
    assert E == fresh and hash(E) == hash(fresh) and repr(E) == repr(fresh)
    assert len({E, fresh}) == 1
    assert tuple(E) == E.ainvs()


@given(curves_strategy())
def test_c_invariant_identity(ainvs):
    E = _try_curve(ainvs)
    if E is None:
        return
    c4, c6 = E.c_invariants()
    assert c4 ** 3 - c6 ** 2 == 1728 * E.discriminant()


@given(curves_strategy(), st.integers(min_value=1, max_value=3),
       small_ints, small_ints, small_ints)
def test_transform_scales_invariants(ainvs, u, r, s, t):
    E = _try_curve(ainvs)
    if E is None:
        return
    # scale up first so the u-division is always integral
    big = oracles.transform(E, 1, r, s, t)
    if u > 1:
        big = WeierstrassCurve(big.a1 * u, big.a2 * u ** 2, big.a3 * u ** 3,
                               big.a4 * u ** 4, big.a6 * u ** 6)
    small = oracles.transform(big, u, 0, 0, 0)
    (c4, c6), (c4_small, c6_small) = big.c_invariants(), small.c_invariants()
    assert c4_small * u ** 4 == c4
    assert c6_small * u ** 6 == c6
    assert small.discriminant() * u ** 12 == big.discriminant()


@given(curves_strategy())
def test_model_from_invariants_round_trip(ainvs):
    E = _try_curve(ainvs)
    if E is None:
        return
    model = model_from_invariants(*E.c_invariants())
    assert model is not None
    assert model.c_invariants() == E.c_invariants()


@settings(max_examples=60)
@given(st.integers(min_value=-300, max_value=300),
       st.integers(min_value=-4000, max_value=4000))
def test_model_from_invariants_agrees_with_reduced_oracle(c4, c6):
    if c4 ** 3 == c6 ** 2 or (c4 ** 3 - c6 ** 2) % 1728:
        return
    mine = model_from_invariants(c4, c6)
    oracle = oracles.reduced_model(c4, c6)
    assert (mine is None) == (oracle is None)


def _crt_1728(pairs64, pairs27):
    # 513 = 27 * 19 is 1 mod 64 and 0 mod 27; 1216 = 64 * 19 is 0 mod 64 and
    # 1 mod 27
    return [((a * 513 + c * 1216) % 1728, (b * 513 + d * 1216) % 1728)
            for a, b in pairs64 for c, d in pairs27]


# The residue pairs (c4, c6) mod 1728 = 64 * 27 with c4^3 = c6^2, found mod
# 64 and mod 27 apart.
PASSING_RESIDUES = _crt_1728(
    [(a, b) for a in range(64) for b in range(64) if (a ** 3 - b * b) % 64 == 0],
    [(a, b) for a in range(27) for b in range(27) if (a ** 3 - b * b) % 27 == 0])


@st.composite
def c_pairs(draw):
    """(c4, c6) of a random curve, of that curve scaled down by a power of
    2 or 3 where the pair divides, of its twist by d or by d and u = 2, or a
    random pair that passes the test mod 1728."""
    kind = draw(st.sampled_from(["curve", "down2", "down3", "twist", "twist_u2",
                                 "residue"]))
    if kind == "residue":
        r4, r6 = draw(st.sampled_from(PASSING_RESIDUES))
        big = st.integers(min_value=-10 ** 6, max_value=10 ** 6)
        return r4 + 1728 * draw(big), r6 + 1728 * draw(big)
    ints = st.integers(min_value=-500, max_value=500)
    ainvs = draw(st.tuples(small_ints, small_ints, small_ints, ints, ints))
    E = _try_curve(ainvs)
    assume(E is not None)
    c4, c6 = E.c_invariants()
    if kind in ("down2", "down3"):
        ell = 2 if kind == "down2" else 3
        k = draw(st.integers(min_value=1, max_value=3))
        up = draw(st.integers(min_value=0, max_value=k))  # scale up first
        c4, c6 = c4 * ell ** (4 * up), c6 * ell ** (6 * up)
        if c4 % ell ** (4 * k) == 0 and c6 % ell ** (6 * k) == 0:
            return c4 // ell ** (4 * k), c6 // ell ** (6 * k)
        return c4, c6
    if kind in ("twist", "twist_u2"):
        d = draw(st.integers(min_value=-30, max_value=30).filter(bool))
        u = 2 if kind == "twist_u2" else 1
        return u ** 4 * d * d * c4, u ** 6 * d ** 3 * c6
    return c4, c6


@settings(max_examples=400, deadline=None)
@given(c_pairs())
def test_model_from_invariants_is_the_search_model(pair):
    # the same model as the 1728-step search, not only the same realizability
    assert model_from_invariants(*pair) == oracles.search_model(*pair)


ORACLE_SET = [
    ("11a1", CURVES["11a1"]),
    ("11a3", CURVES["11a3"]),
    ("x3+x", CURVES["x3+x"]),
    ("x3+1", CURVES["x3+1"]),
    ("tw11a1.7", TWIST_11A1_7),
]


@pytest.mark.parametrize("label,E", ORACLE_SET)
def test_local_reduction_matches_oracle(label, E):
    """Exact match of type, split flag, and v(disc_min) against the
    u-substitution minimality oracle at every bad prime."""
    for ell in prime_factors(E.discriminant()):
        kind, split, v = oracles.reduction_type(E, ell)
        data = local_reduction(E, ell)
        assert data.reduction_type == kind, (label, ell)
        assert data.split == split, (label, ell)
        assert data.v_disc_min == v, (label, ell)
        assert padic_valuation(minimal_model_at(E, ell).discriminant(),
                               ell) == v if v else True


def test_minimal_model_reduces_twist():
    # the twist model is non-minimal at 2 by construction
    E = TWIST_11A1_7
    for ell in (2, 7, 11):
        got = oracles.minimal_disc_valuation(E, ell)
        assert padic_valuation(minimal_model_at(E, ell).discriminant(), ell) \
            == got if got else True
        assert local_reduction(E, ell).v_disc_min == got


def test_quadratic_twist_invariants():
    E = CURVES["11a1"]
    j = Fraction(E.c_invariants()[0] ** 3, E.discriminant())
    for d in (-1, 2, 7, -15):
        Ed = quadratic_twist(E, d)
        assert Fraction(Ed.c_invariants()[0] ** 3, Ed.discriminant()) == j
    # non-squarefree twist parameters are rejected
    with pytest.raises(ValueError):
        quadratic_twist(E, 4)


def test_semistability_defect_large_ell():
    # e = 12/gcd(v(disc_min), 12) for ell >= 5
    assert semistability_defect(TWIST_11A1_7, 7) == 2  # v = 6
    d49 = semistability_defect(CURVES["49a1"], 7)
    v = oracles.minimal_disc_valuation(CURVES["49a1"], 7)
    assert d49 == 12 // __import__("math").gcd(v, 12)
    assert semistability_defect(CURVES["11a1"], 7) == 1  # good at 7
    with pytest.raises(ValueError):  # multiplicative at 11
        semistability_defect(CURVES["11a1"], 11)


@pytest.mark.parametrize("a6, v_disc", [(7 ** 2, 4), (7 ** 4, 8)], ids=["IV", "IV*"])
def test_defect_is_three_where_v_disc_is_4_or_8_mod_12(a6, v_disc):
    # y^2 = x^3 + a6 at 7: Kodaira IV (v = 4) and IV* (v = 8) have e = 3;
    # 12 // gcd(v, 6) would give 6, and no verdict at 7 would move
    E = WeierstrassCurve(0, 0, 0, 0, a6)
    assert oracles.minimal_disc_valuation(E, 7) == v_disc
    assert LocalData(E, 7).defect == semistability_defect(E, 7) == 3


def test_semistability_defect_small_ell_honesty():
    # x^3 + 1 at 3: never a silent wrong cyclic value
    d = semistability_defect(CURVES["x3+1"], 3)
    assert d == UNKNOWN
    # x^3 + x at 2: no quadratic twist is good at 2, so unknown, not wrong
    d2 = semistability_defect(CURVES["x3+x"], 2)
    assert d2 == UNKNOWN or d2 in (4,)


def test_count_points_known_values():
    assert count_points(CURVES["11a1"], 5) == 5  # a_5 = 1
    assert count_points(CURVES["x3+x"], 3) == 4  # a_3 = 0, supersingular


GOOD_PRIME_CURVES = st.tuples(st.integers(0, 1), st.integers(-1, 1), st.integers(0, 1),
                              st.integers(-10**6, 10**6), st.integers(-10**6, 10**6))
SMALL_PRIMES = [ell for ell in range(5, 3001) if oracles.is_prime(ell)]


@settings(max_examples=300, deadline=None)
@given(ainvs=GOOD_PRIME_CURVES, ell=st.sampled_from(SMALL_PRIMES))
def test_count_points_matches_enumeration(ainvs, ell):
    # below 230 both are enumeration; above, Shanks-Mestre against it
    E = _try_curve(ainvs)
    assume(E is not None and E.discriminant() % ell != 0)
    assert count_points(E, ell) == oracles.count_points(E, ell)


@settings(max_examples=12, deadline=None)
@given(ainvs=GOOD_PRIME_CURVES, ell=st.sampled_from([10007, 12487, 99991]))
def test_count_points_matches_enumeration_at_large_primes(ainvs, ell):
    E = _try_curve(ainvs)
    assume(E is not None and E.discriminant() % ell != 0)
    assert count_points(E, ell) == oracles.count_points(E, ell)


# The CM curves of the large_p workload: y^2 = x^3 + x has a_ell = 0 at
# ell = 3 mod 4, and y^2 = x^3 + 1 at ell = 2 mod 3.
CM_SUPERSINGULAR = {(0, 0, 0, 1, 0): (4, 3), (0, 0, 0, 0, 1): (3, 2)}


# A few primes on either side of 1e8 and 1e12, the counting bound.
LARGE_PRIMES = [99_999_971, 99_999_989, 100_000_007, 100_000_037, 100_000_039,
                999_999_999_959, 999_999_999_961, 999_999_999_989, 10**12 + 39, 10**12 + 63]


@pytest.mark.parametrize("ainvs,modulus,residue",
                         [(a, m, r) for a, (m, r) in CM_SUPERSINGULAR.items()])
def test_count_points_cm_curves_are_supersingular(ainvs, modulus, residue):
    E = WeierstrassCurve(*ainvs)
    primes = [ell for ell in [*range(5, 400), *range(10_000, 12_500), 99_971, 99_991]
              if ell % modulus == residue and oracles.is_prime(ell)]
    assert len(primes) > 150
    large = [ell for ell in LARGE_PRIMES if ell % modulus == residue]
    assert len(large) >= 4 and all(map(oracles.is_prime, large))
    for ell in primes + large:
        assert count_points(E, ell) == ell + 1, ell


@pytest.mark.parametrize("ell", [233, 1009, 2999])
def test_count_certificate_accepts_only_the_enumerated_count(ell):
    for ainvs in [(0, -1, 1, -10, -20), (0, 0, 1, -1, 0), (1, 0, 1, 4, -6)]:
        E = WeierstrassCurve(*ainvs)
        N = oracles.count_points(E, ell)
        assert oracles.count_is_certified(E, ell, N)
        assert not any(oracles.count_is_certified(E, ell, N + k) for k in (-2, -1, 1, 2))


@pytest.mark.parametrize("ell", LARGE_PRIMES[1:3] + LARGE_PRIMES[-3:-1])
def test_count_points_is_certified_near_the_bound(ell):
    # non-CM curves, where E(F_ell) is no fixed value: the count passes the
    # oracle's certificate (Hasse bound; N kills points of E, 2 ell + 2 - N
    # points of the twist), in its own model and group law
    for ainvs in [(0, -1, 1, -10, -20), (0, 0, 1, -1, 0), (1, 0, 1, 4, -6), (0, 1, 1, -7, 5)]:
        E = WeierstrassCurve(*ainvs)
        assert oracles.count_is_certified(E, ell, count_points(E, ell)), (ainvs, ell)


def test_count_points_takes_quarter_power_work(monkeypatch):
    # at ell = 99991 a count reads a handful of x, where enumeration reads
    # all 99991, and makes O(ell^(1/4)) group operations per point: about
    # 2 sqrt(2) ell^(1/4) baby and giant steps, and one scalar multiple of
    # size ell^(3/4)
    adds, points = [], []
    add, sweep = pointcount._ec_add, pointcount._annihilators
    monkeypatch.setattr(pointcount, "_ec_add", lambda *a: adds.append(1) or add(*a))
    monkeypatch.setattr(pointcount, "_annihilators", lambda *a: points.append(1) or sweep(*a))
    ell = 99_991
    for ainvs in [(0, -1, 1, -10, -20), (0, 0, 1, -1, 0), (0, 0, 0, 1, 0), (1, 0, 1, 4, -6)]:
        adds.clear()
        points.clear()
        E = WeierstrassCurve(*ainvs)
        assert count_points(E, ell) == oracles.count_points(E, ell)
        assert len(points) <= 4
        assert len(adds) <= 5 * len(points) * ell ** 0.25, (ainvs, len(adds))


def test_frobenius_known_values():
    f = frobenius_data(CURVES["11a1"], 5, 5)
    assert f.a_ell == 1 and f.ordinary
    assert f.anomalous_over(5)  # 5 + 1 - 1 = 5
    g = frobenius_data(CURVES["x3+x"], 3, 3)
    assert g.a_ell == 0 and not g.ordinary


def test_frobenius_data_asks_for_a_good_prime_and_its_fields():
    f = frobenius_data(CURVES["11a1"], 5, 5)
    assert (f.point_count(5), f.point_count(25)) == (5, 25 + 1 - f.a_ell2)
    for q in (1, 4, 125):
        with pytest.raises(ValueError, match=r"^q must be 5 or 25$"):
            f.point_count(q)
    with pytest.raises(ValueError, match=r"^E has bad reduction at 11$"):
        frobenius_data(CURVES["11a1"], 11, 5)


@pytest.mark.parametrize("ell", [0, 1, 4, -3, 121])
def test_minimal_model_at_asks_for_a_prime(ell):
    with pytest.raises(ValueError, match=rf"^{ell} is not prime$"):
        minimal_model_at(CURVES["11a1"], ell)


@pytest.mark.parametrize("label,E", list(CURVES.items()))
def test_hasse_and_a_ell2_against_field_oracle(label, E):
    for ell in (2, 3, 5, 7, 11, 13):
        if E.discriminant() % ell == 0 and local_reduction(E, ell).v_disc_min:
            continue
        f = frobenius_data(E, ell, 5)
        assert f.a_ell ** 2 <= 4 * ell  # Hasse
        assert f.a_ell2 == f.a_ell ** 2 - 2 * ell
        n2 = oracles.count_points_ext(minimal_model_at(E, ell), ell)
        assert n2 == ell ** 2 + 1 - f.a_ell2, (label, ell)


def test_reduction_over_Kv_multiplicative():
    E = CURVES["11a1"]
    # split over Q_11 stays split over any quadratic extension
    for ext in (UnramifiedQuadratic(), RamifiedQuadratic(11)):
        assert reduction_over_Kv(E, 11, ext) == "multiplicative_split"
    # the twist is nonsplit at 11 over Q_11 but splits over the inert ext
    t = TWIST_11A1_7
    assert local_reduction(t, 11).split is False
    assert reduction_over_Kv(t, 11, UnramifiedQuadratic()) == "multiplicative_split"


def test_reduction_over_Kv_potentially_good():
    t = TWIST_11A1_7
    # defect 2 at 7: good over the ramified quadratic, additive over inert
    assert reduction_over_Kv(t, 7, RamifiedQuadratic(7)) == "good"
    assert reduction_over_Kv(t, 7, UnramifiedQuadratic()) == "additive"
    assert good_twist_at(t, 7) is not None


def test_residue_trace_over_a_ramified_Kv_carries_the_twist_sign():
    # 11a1 twisted by 5 is additive at 5 and good over each ramified Q_5(sqrt d);
    # its residue curve there is E^d, the twist by d, reduced mod 5: a_q is
    # 6 - #E^d(F_5), whose sign the unit class of d over the good twist sets
    E = quadratic_twist(CURVES["11a1"], 5)
    c4, c6 = E.c_invariants()
    traces = []
    for d in (5, -5, 10, 15, -10, 30):
        twist = WeierstrassCurve(0, 0, 0, -27 * d ** 2 * c4, -54 * d ** 3 * c6)
        expected = 6 - oracles.count_points(oracles.minimal_model(twist, 5), 5)
        traces.append(LocalData(E, 5, RamifiedQuadratic(d)).residue_frobenius.a_q)
        assert traces[-1] == expected, d
    assert traces == [1, 1, -1, -1, -1, 1]


def test_residue_field_over_an_inert_Kv_has_ell_squared_elements():
    # K_v unramified over Q_ell has residue field F_(ell^2): a_q is the trace
    # over it, a_ell^2 - 2 ell, here read against an exhaustive count
    assert (LocalData(CURVES["11a1"], 7, UnramifiedQuadratic()).residue_frobenius
            == ResidueFrobenius(49, -10, True))
    good = [E for E in CURVES.values()
            if all(local_reduction(E, ell).reduction_type == "good" for ell in (5, 7, 11))]
    assert len(good) >= 3
    for E, ell in product(good, (5, 7, 11)):
        rf = LocalData(E, ell, UnramifiedQuadratic()).residue_frobenius
        assert rf.q == ell ** 2
        count = oracles.count_points_ext(oracles.minimal_model(E, ell), ell)
        assert rf.a_q == ell ** 2 + 1 - count


@pytest.mark.parametrize("build", [
    lambda: SiteOverrides(reduction_over_Kv="bogus"),
    lambda: SiteOverrides(defect=5),
    lambda: SiteOverrides(defect=True),
    lambda: SiteOverrides(defect=2.0),
    lambda: SiteOverrides(anomalous="no"),
    lambda: SiteOverrides(anomalous=1),
    lambda: SiteOverrides()._replace(defect=5),
    lambda: SiteOverrides._make(["noncyclic", None, "Good"]),
], ids=["kv-bogus", "defect-5", "defect-true", "defect-float", "anomalous-str",
        "anomalous-int", "replace", "make"])
def test_site_overrides_refuse_a_value_outside_their_field(build):
    # a wrong value would be read as a certified local fact, so it is refused
    # however the record is built; the message names the field
    with pytest.raises(ValueError, match=r"^(defect|anomalous|reduction_over_Kv): "):
        build()


# Every nontrivial square class of Q_ell^x, in the order of an exhaustive
# search, and the unramified class.
ALL_TWIST_CLASSES = {2: [-1, 2, -2, 5, -5, 10, -10], 3: [2, 3, 6], 5: [2, 5, 10],
                     7: [3, 7, 21]}
UNRAMIFIED_CLASS = {2: 5, 3: 2, 5: 2, 7: 3}


@settings(max_examples=60, deadline=None)
@given(curves_strategy(), st.sampled_from([1, -1, 2, -2, 3, -3, 5, 7, -7, 10]),
       st.sampled_from([2, 3, 5, 7]))
def test_good_twist_search_matches_exhaustive_search(ainvs, d, ell):
    E = _try_curve(ainvs)
    if E is None:
        return
    if d != 1:
        E = quadratic_twist(E, d)
    red = local_reduction(E, ell)
    # an unramified twist keeps the reduction type
    unram = quadratic_twist(E, UNRAMIFIED_CLASS[ell])
    assert local_reduction(unram, ell).reduction_type == red.reduction_type
    if red.reduction_type != "additive":
        return
    good = [t for t in ALL_TWIST_CLASSES[ell]
            if local_reduction(quadratic_twist(E, t), ell).reduction_type == "good"]
    found = good_twist_at(E, ell)
    assert (found[0] if found else None) == (good[0] if good else None)


# Squarefree d with Q_ell(sqrt d) ramified over Q_ell.
RAMIFIED_D = {2: [-1, 2, -2, 3, 6, -6, 7, 10], 3: [3, -3, 6, -6, 15],
              5: [5, -5, 10, -10, 15], 7: [7, -7, 14, -21]}


@settings(max_examples=250, deadline=None)
@given(curves_strategy(), st.sampled_from([1, -1, 2, 3, 5, 7, -7]),
       st.sampled_from([2, 3, 5, 7]), st.data())
def test_reduction_over_ramified_Kv_matches_twist_oracle(ainvs, t, ell, data):
    E = _try_curve(ainvs)
    if E is None:
        return
    if t != 1:  # twist so that additive reduction at 5 and 7 occurs too
        E = quadratic_twist(E, t)
    d = data.draw(st.sampled_from(RAMIFIED_D[ell]))
    kv = reduction_over_Kv(E, ell, RamifiedQuadratic(d))
    if oracles.reduction_type(E, ell)[0] == "good":
        assert kv == "good"  # good reduction persists; the twist is bad
        return
    twist_good = oracles.twist_reduction_type(E, d, ell) == "good"
    if kv == UNKNOWN:
        assert ell in (2, 3)
    elif kv in ("good", "additive"):
        assert (kv == "good") == twist_good
    else:  # multiplicative over K_v: never good
        assert not twist_good


# A potentially multiplicative E is, over K_v, the twist of a Tate curve by
# the character of K_v(sqrt(-c6)), c6 from an ell-minimal model: split,
# nonsplit or additive as that extension is trivial, unramified or ramified.
KV_BY_CLASS = {"trivial": "multiplicative_split", "unramified": "multiplicative_nonsplit",
               "ramified": "additive"}


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([2, 3, 5, 7]), small_ints, small_ints, small_ints,
       st.integers(1, 8), st.sampled_from([1, -1, 2, 3, 5, -5, 7, -7, 10]))
def test_reduction_over_Kv_follows_the_class_of_minus_c6(ell, a2, r, s, u, t):
    # y^2 + xy + ell r y = x^3 + a2 x^2 + ell s x + ell u has a node at ell
    # when ell does not divide 1 + 4 a2; the twist by t moves -c6's class
    E = _try_curve((1, a2, ell * r, ell * s, ell * u))
    assume(E is not None and (1 + 4 * a2) % ell)
    if t != 1:
        E = quadratic_twist(E, t)
    assert 3 * oracles.valuation(E.c_invariants()[0], ell) < oracles.valuation(
        E.discriminant(), ell)  # v(j) < 0
    c6 = oracles.minimal_model(E, ell).c_invariants()[1]
    exts = [(None, None, 0), ("unramified", UnramifiedQuadratic(), 0)]
    exts += [("ramified", RamifiedQuadratic(d), d) for d in RAMIFIED_D[ell]]
    for kind, ext, d in exts:
        expected = KV_BY_CLASS[oracles.character_type(-c6, ell, kind, d)]
        assert LocalData(E, ell, ext).kv == expected, (kind, d)


def test_twist_oracle_known_cases():
    # 11a1 twisted by 7 has defect 2 at 7: good over Q_7(sqrt 7) and
    # Q_7(sqrt -7), and the twist back by 7 is 11a1, good at 7
    assert oracles.twist_reduction_type(TWIST_11A1_7, 7, 7) == "good"
    assert oracles.twist_reduction_type(TWIST_11A1_7, -7, 7) == "good"
    assert reduction_over_Kv(TWIST_11A1_7, 7, RamifiedQuadratic(-7)) == "good"
    # 49a1 has defect 4 at 7: additive over every ramified quadratic K_v
    for d in (7, -7):
        assert oracles.twist_reduction_type(CURVES["49a1"], d, 7) == "additive"
        assert reduction_over_Kv(CURVES["49a1"], 7, RamifiedQuadratic(d)) == "additive"


def test_good_reduction_persists():
    assert reduction_over_Kv(CURVES["11a1"], 7, UnramifiedQuadratic()) == "good"


def test_reduction_over_Kv_rejects_an_unramified_d():
    # Q_7(sqrt 5) is not a ramified extension of Q_7
    with pytest.raises(ValueError, match="is not ramified over Q_7"):
        reduction_over_Kv(CURVES["11a1"], 7, RamifiedQuadratic(5))
