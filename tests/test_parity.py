import random
import sys
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from corpus import (CURVES, PARITY_CORPUS, REALIZABLE_TOWERS, SMALL_CURVES, SMALL_TOWERS,
                    VALID_TOWERS, make_tower)
from dihedral_parity import curves, localarith
from dihedral_parity.curves import SiteOverrides, WeierstrassCurve
from dihedral_parity import verdicts as V
from dihedral_parity.delta import delta
from dihedral_parity.gamma import gamma
from dihedral_parity.parity import (
    MATCH,
    MISMATCH,
    UNDETERMINED,
    analyze,
    hypothesis_audit,
    mr64_sum,
    parity_table,
    selmer_growth_bound,
)
from dihedral_parity.localarith import padic_valuation
from dihedral_parity.report import report_to_dict
from dihedral_parity.tower import sites_above, support_primes


def test_corpus_all_match():
    for label, E, d, p, n, rams in PARITY_CORPUS:
        T = make_tower(d, p, n, rams)
        for row in parity_table(E, T):
            assert row.status == MATCH, (label, row.place, row)


def test_flagship_report():
    E = CURVES["11a1"]
    T = make_tower(-1, 5, 1, [11])
    rep = analyze(E, T, dim_Sp_E_K=0)
    by_place = {r.place: r for r in rep.rows}
    assert by_place[11].gamma.value == 1 and by_place[11].delta_sum == 1
    assert by_place[5].gamma.value == 0 and by_place[5].delta_sum == 0
    assert rep.mr64_sum == 1
    assert len(rep.S_m) == 1 and rep.S_m[0].ell == 11
    assert rep.selmer_bound.applicable and rep.selmer_bound.bound == 4
    assert not rep.failure and not rep.has_undetermined
    assert rep.relative_parity is not None
    assert rep.relative_parity["parity"] == 1


def test_rows_cover_support_and_extras():
    E = CURVES["11a1"]
    T = make_tower(-1, 5, 1, [11])
    rows = parity_table(E, T)
    places = [r.place for r in rows]
    assert places[:-2] == support_primes(T, E)
    assert places[-2:] == ["infinity", "other"]


def test_split_pair_counted_once_in_mr64():
    # 5 splits in Q(i); both members of the pair sit in S but contribute once
    E = CURVES["11a1"]
    T = make_tower(-1, 5, 1, [11])
    total, S = mr64_sum(E, T)
    fives = [s for s in S if s.ell == 5]
    assert len(fives) == 2
    assert total == 1  # only v_11 contributes


def test_selmer_bound_parity_condition():
    E = CURVES["11a1"]
    T = make_tower(-1, 5, 1, [11])
    b1 = selmer_growth_bound(E, T, 1)  # 1 + |S_m| = 2 even: not applicable
    assert not b1.applicable and b1.bound is None
    assert any("even" in r for r in b1.reasons)
    b2 = selmer_growth_bound(E, T, 2)
    assert b2.applicable and b2.bound == 2 + 5 - 1


def test_selmer_bound_degree_pn():
    E = CURVES["11a1"]
    T = make_tower(-1, 5, 2, [11])
    b = selmer_growth_bound(E, T, 0)
    assert b.applicable and b.bound == 25 - 1


def test_audit_conditions_labelled():
    E = CURVES["11a1"]
    T = make_tower(-1, 5, 1, [11])
    audit = hypothesis_audit(E, T)
    assert [a.condition for a in audit] == ["c"]
    assert all(a.passes for a in audit)


def test_undetermined_blocks_bound_and_statement():
    # supersingular at p with p ramified: audit fails, everything degrades
    E = CURVES["x3+x"]
    T = make_tower(-7, 7, 1, [7])
    rep = analyze(E, T, dim_Sp_E_K=0)
    assert rep.has_undetermined
    assert any(r.status == UNDETERMINED for r in rep.rows)
    assert not rep.selmer_bound.applicable
    assert rep.relative_parity is None
    assert not rep.failure  # honest, not wrong


def test_negative_dim_rejected():
    with pytest.raises(ValueError):
        selmer_growth_bound(CURVES["11a1"], make_tower(-1, 5, 1, [11]), -1)


@pytest.mark.parametrize("dim", [True, 1.0])
def test_a_dim_that_is_not_an_int_is_rejected(dim):
    # True == 1 == 1.0, so a bound built for one would be shared by the tower
    # with the others, and written as "true" in each later report; no bound is
    # shared, and a freshly built equal tower's report writes the int
    E = CURVES["11a1"]
    T = make_tower(-1, 5, 1, [11])
    with pytest.raises(TypeError):
        analyze(E, T, dim)
    for tower in (T, make_tower(-1, 5, 1, [11])):
        bound = report_to_dict(analyze(E, tower, 1))["selmer_bound"]
        assert bound["dim_Sp_E_K"] == 1 and type(bound["dim_Sp_E_K"]) is int
        assert bound["reasons"] == ["dim S_p(E/K) + |S_m| = 1 + 1 is even"]


def _rows_read_off_the_tower(rep):
    """rep's rows at its tower's own primes whose verdicts read the tower alone."""
    T = rep.tower
    return {r.place: r for r in rep.rows if r.place in T.sites_at
            and not (r.deltas[0][0].self_conjugate and r.place in T.ramified_primes)}


def test_each_tower_keeps_its_own_rows():
    # analyses alternate between two towers: a later report's rows at a
    # tower's unramified (or split) primes are the objects of its first
    # report; an equal but distinct tower builds rows of its own
    towers = [make_tower(d, p, 1, rams) for d, p, rams in SMALL_TOWERS[2:]]
    first = [_rows_read_off_the_tower(analyze(CURVES["11a1"], T)) for T in towers]
    assert all(first)
    for E in CURVES.values():
        for T, kept in zip(towers, first):
            rows = _rows_read_off_the_tower(analyze(E, T))
            assert rows.keys() == kept.keys()
            assert all(rows[ell] is row for ell, row in kept.items())
    for (d, p, rams), kept in zip(SMALL_TOWERS[2:], first):
        rows = _rows_read_off_the_tower(analyze(CURVES["11a1"], make_tower(d, p, 1, rams)))
        assert rows == kept and not any(rows[ell] is row for ell, row in kept.items())


def test_analyze_rejects_invalid_tower():
    with pytest.raises(ValueError):
        analyze(CURVES["11a1"], make_tower(-1, 3, 1, [11]))


def test_relative_parity_zero_case():
    # twist(11a1, 7) with only v_7 ramified: all constants vanish
    from corpus import TWIST_11A1_7
    T = make_tower(-1, 5, 1, [7])
    stmt = analyze(TWIST_11A1_7, T).relative_parity
    assert stmt is not None and stmt["parity"] == 0


@settings(max_examples=120, deadline=None)
@given(SMALL_CURVES, st.sampled_from(SMALL_TOWERS), st.none() | st.booleans(), st.data())
def test_a_failing_audit_leaves_the_sum_and_relative_parity_undetermined(E, tower, anomalous,
                                                                          data):
    # an audit fails only at an Uncovered delta at a site ramified in L/K,
    # whose prime is in S: so the sum is undetermined, and the relative
    # parity is given exactly when the sum is
    d, p, rams = tower
    overrides = ({} if anomalous is None else
                 {data.draw(st.sampled_from(rams)): SiteOverrides(anomalous=anomalous)})
    rep = analyze(E, make_tower(d, p, 1, rams, overrides))
    if not all(a.passes for a in rep.hypothesis_audit):
        assert rep.mr64_sum is None
    assert (rep.relative_parity is None) == (rep.mr64_sum is None)


def _rebind(monkeypatch, original, wrapper):
    """Replace every package module's binding of original, as the
    benchmark's tracer does."""
    modules = [m for key, m in list(sys.modules.items())
               if key == "dihedral_parity" or key.startswith("dihedral_parity.")]
    for m in modules:
        for attr, value in list(vars(m).items()):
            if value is original:
                monkeypatch.setattr(m, attr, wrapper)


def _record_calls(monkeypatch, names):
    """Wrap each named curves function and collect the arguments of every
    call."""
    calls = {name: [] for name in names}
    for name in names:
        original = getattr(curves, name)

        def wrapper(*args, _name=name, _fn=original):
            calls[_name].append(args)
            return _fn(*args)

        _rebind(monkeypatch, original, wrapper)
    return calls


STAGES = ("local_reduction", "minimal_model_at", "count_points")


def test_each_local_stage_runs_once_per_prime(monkeypatch):
    # 11a1 in Q(sqrt 7) with 5 and 11 ramified in L: support {2, 5, 7, 11};
    # only 5 (good ordinary at p) and 11 (split multiplicative) need local data
    E = CURVES["11a1"]
    T = make_tower(7, 5, 1, [5, 11])
    calls = _record_calls(monkeypatch, STAGES)
    analyze(E, T, dim_Sp_E_K=0)
    assert sorted(calls["local_reduction"], key=lambda a: a[1]) == [(E, 5), (E, 11)]
    assert len(calls["minimal_model_at"]) == 2
    assert len(calls["count_points"]) == 1


def test_no_local_record_where_L_is_unramified(monkeypatch):
    # 11a1 in Q(sqrt 7) with only 5 ramified in L: 11 divides the
    # discriminant and is inert in K, so its row is read off the tower alone
    # and its place in S off v(Delta) of the minimal model at 11
    E = CURVES["11a1"]
    T = make_tower(7, 5, 1, [5])
    calls = _record_calls(monkeypatch, STAGES)
    rep = analyze(E, T, dim_Sp_E_K=0)
    assert [args[1] for args in calls["local_reduction"]] == [5]
    row = next(r for r in rep.rows if r.place == 11)
    assert (row.gamma.case_tag, row.deltas[0][1].case_tag, row.status) == (
        V.SELF_CONJ_UNRAMIFIED, V.SPLITS_COMPLETELY, MATCH)
    bad = [ell for ell in support_primes(T, E) if oracles.reduction_type(E, ell)[0] != "good"]
    assert bad == [11]
    assert [s.ell for s in rep.S] == [5, 11]


@pytest.mark.parametrize("case", PARITY_CORPUS, ids=lambda c: c[0])
def test_no_local_stage_repeats(monkeypatch, case):
    _, E, d, p, n, rams = case
    T = make_tower(d, p, n, rams)
    calls = _record_calls(monkeypatch, STAGES)
    analyze(E, T, dim_Sp_E_K=0)
    for name in ("local_reduction", "minimal_model_at"):
        assert len(calls[name]) == len(set(calls[name])), (name, calls[name])
    assert len(calls["count_points"]) <= 1


@pytest.mark.parametrize("case", PARITY_CORPUS, ids=lambda c: c[0])
def test_entry_points_agree_with_analyze(case):
    _, E, d, p, n, rams = case
    T = make_tower(d, p, n, rams)
    rep = analyze(E, T)
    assert mr64_sum(E, T) == (rep.mr64_sum, rep.S)
    assert hypothesis_audit(E, T) == rep.hypothesis_audit
    for dim in (0, 1):
        assert selmer_growth_bound(E, T, dim) == analyze(E, T, dim).selmer_bound
    # the per-place public gamma and delta give the table's verdicts
    for row in rep.rows[:-2]:
        assert gamma(E, T, row.place) == row.gamma
        for site in sites_above(row.place, T.K):
            assert delta(E, T, site) == row.deltas[0][1]
    pairs_once = {s.ell: delta(E, T, s).contribution() for s in rep.S}
    if None not in pairs_once.values():
        assert rep.mr64_sum == sum(pairs_once.values()) % 2
    assert rep.S_m == [s for s in rep.S_frak
                       if delta(E, T, s).case_tag == V.POT_MULT_SPLIT]


@pytest.mark.parametrize("case", PARITY_CORPUS, ids=lambda c: c[0])
def test_primality_is_tested_at_the_boundary_only(monkeypatch, case):
    # padic_valuation trusts its prime.  analyze tests p and each ramified
    # site's ell (validate_tower), each support prime twice (split_type and
    # minimal_model_at) and the prime again for the reduction of each
    # quadratic twist the good-twist search tries; factoring a corpus
    # discriminant needs no test, as every prime factor is at most 41
    _, E, d, p, n, rams = case
    T = make_tower(d, p, n, rams)
    bound = 2 * len(support_primes(T, E)) + len(T.ramified_sites) + 1
    calls = []
    valuing = []  # one entry per padic_valuation call in progress
    is_prime, padic_valuation = localarith.is_prime, localarith.padic_valuation

    def counted_is_prime(m):
        calls.append((m, bool(valuing)))
        return is_prime(m)

    def marked_padic_valuation(*args):
        valuing.append(args)
        try:
            return padic_valuation(*args)
        finally:
            valuing.pop()

    _rebind(monkeypatch, is_prime, counted_is_prime)
    _rebind(monkeypatch, padic_valuation, marked_padic_valuation)
    twists = _record_calls(monkeypatch, ("quadratic_twist",))["quadratic_twist"]
    analyze(E, T, dim_Sp_E_K=0)
    assert not [m for m, inside in calls if inside]
    assert len(calls) <= bound + len(twists), calls


# y^2 + xy + y = x^3 + x^2 + 628x + 15249: discriminant -2^2 * 13 * 2170919741,
# one prime in [1e9, 4e9] as in the benchmark's large-discriminant curves
LARGE_DISC_CURVE = curves.WeierstrassCurve(1, 1, 1, 628, 15249)


def _proofs(run) -> Counter:
    """How often the body of is_prime runs for each n while run() runs, the
    memo emptied first: a call the memo answers does not enter the body."""
    body = localarith.is_prime.__wrapped__.__code__
    counts = Counter()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is body:
            counts[frame.f_locals["n"]] += 1

    localarith.is_prime.cache_clear()
    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    return counts


@pytest.mark.parametrize("E, T", [
    pytest.param(LARGE_DISC_CURVE, make_tower(d, p, 1, rams), id=f"large-disc-d{d}-p{p}")
    for d, p, rams in SMALL_TOWERS
] + [
    pytest.param(E, make_tower(d, p, n, rams), id=label)
    for label, E, d, p, n, rams in PARITY_CORPUS
])
def test_each_prime_is_proven_at_most_once_per_analysis(E, T):
    # validate_tower, split_type and minimal_model_at all test primes that
    # factoring or the config already proved; the memo answers the repeats
    assert oracles.factorization(LARGE_DISC_CURVE.discriminant()) == {
        2: 2, 13: 1, 2170919741: 1}
    counts = _proofs(lambda: analyze(E, T, dim_Sp_E_K=0))
    assert counts and max(counts.values()) == 1, counts


def test_ramified_abelian_detail_names_the_defect():
    # y^2 = x^3 + 49 at p = 7, ramified in K = Q(sqrt -7) and in L: additive
    # with e = 3 dividing p - 1, so the tame abelian criterion applies
    rep = analyze(WeierstrassCurve(0, 0, 0, 0, 49), make_tower(-7, 7, 1, [7]))
    row = next(r for r in rep.rows if r.place == 7)
    assert row.gamma.case_tag == V.POT_GOOD_RAMIFIED_ABELIAN
    assert row.gamma.detail == ("tame abelian criterion used: residue size 7 is 1 mod "
                                "e = 3, so the defect extension of K_v is abelian")


AGGREGATES = ("S", "mr64_sum", "S_frak", "S_m", "hypothesis_audit", "selmer_bound",
              "relative_parity")


def _scaled(E, ell):
    """E's model with a_i -> ell^i a_i: v_ell(Delta) = 12 + v_ell(Delta_E)."""
    return WeierstrassCurve(*(a * ell ** i for a, i in zip(E.ainvs(), (1, 2, 3, 4, 6))))


def _assert_scaling_moves_nothing(E, T, ell):
    scaled = _scaled(E, ell)
    assert oracles.transform(scaled, ell, 0, 0, 0) == E
    assert padic_valuation(scaled.discriminant(), ell) == 12
    rep, other = analyze(E, T, dim_Sp_E_K=0), analyze(scaled, T, dim_Sp_E_K=0)
    for key in AGGREGATES:
        assert getattr(other, key) == getattr(rep, key), key
    # the one row the model adds, at ell, where the curve is good
    extra = [r for r in other.rows if r.place == ell]
    assert [r for r in other.rows if r.place != ell] == rep.rows
    assert [(r.status, r.delta_sum) for r in extra] == [(MATCH, 0)]


def test_a_non_minimal_model_at_a_good_prime_moves_nothing():
    # 11a1 in the flagship tower, scaled by 13: v_13(Delta) = 12 on a curve
    # good at 13, so 13 is not in S, though the model's discriminant says so
    _assert_scaling_moves_nothing(CURVES["11a1"], make_tower(-1, 5, 1, [11]), 13)


@pytest.mark.parametrize("tower", SMALL_TOWERS, ids=lambda t: f"d{t[0]}-p{t[1]}")
def test_non_minimal_models_move_nothing_on_generated_curves(tower):
    d, p, rams = tower
    T = make_tower(d, p, 1, rams)
    rng, checked = random.Random(f"scaled/{d}/{p}"), 0
    while checked < 8:
        try:
            E = WeierstrassCurve(*(rng.randint(-30, 30) for _ in range(5)))
        except curves.SingularCurveError:
            continue
        _assert_scaling_moves_nothing(E, T, _good_prime_off_the_tower(E, T))
        checked += 1


def _good_prime_off_the_tower(E, T):
    """The least prime from 13 on where E is good and T has no site."""
    disc = E.discriminant()
    return next(q for q in range(13, 10 ** 4) if localarith.is_prime(q)
                and disc % q and q not in T.sites_at)


@settings(max_examples=400, deadline=None)
@given(VALID_TOWERS, REALIZABLE_TOWERS, SMALL_CURVES)
def test_generated_towers_keep_the_contract(T, R, E):
    for tower in (T, R):
        rep = analyze(E, tower)
        assert not rep.failure and MISMATCH not in {r.status for r in rep.rows}
        if rep.mr64_sum is not None:
            assert rep.mr64_sum == sum(r.delta_sum for r in rep.rows
                                       if isinstance(r.place, int)) % 2
        if not all(a.passes for a in rep.hypothesis_audit):
            assert rep.mr64_sum is None
        for r in rep.rows:
            if r.status == UNDETERMINED:
                assert r.gamma.value is None or r.delta_sum is None, r
        _assert_scaling_moves_nothing(E, tower, _good_prime_off_the_tower(E, tower))
