"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
"""

import io
import json
import math
import time
from contextlib import redirect_stdout

import pytest

import oracles
from conftest import write_json
from corpus import CURVES, PARITY_CORPUS, TWIST_11A1_7, make_tower
from dihedral_parity import verdicts as V
from dihedral_parity.cli import (
    EXIT_INVALID,
    EXIT_OK,
    EXIT_STRICT_UNDETERMINED,
    run_analyze,
    run_batch,
    run_validate,
)
from dihedral_parity.curves import (
    count_points,
    frobenius_data,
    local_reduction,
    minimal_model_at,
    reduction_over_Kv,
)
from dihedral_parity.delta import delta
from dihedral_parity.dihedral import (
    CyclicGroupSpec,
    DihedralGroupSpec,
    cyclic_character,
    induce,
    inner_product,
    random_virtual_character,
    restrict,
    sign_character,
    trivial_character,
)
from dihedral_parity.gamma import gamma
from dihedral_parity.localarith import (
    local_square_class,
    quadratic_character_type,
    UnramifiedQuadratic,
    padic_valuation,
    prime_factors,
)
from dihedral_parity.parity import MATCH, analyze, parity_table
from dihedral_parity.tower import sites_above, validate_tower


def _report(num, text):
    print(f"\nACCEPTANCE {num}: PASS — {text}")


def test_criterion_1_parity_congruence_corpus():
    """>= 20 configurations meeting the parity theorem's hypotheses: every
    row Match, none Undetermined, in under 10 seconds."""
    assert len(PARITY_CORPUS) >= 20
    start = time.monotonic()
    rows_checked = 0
    for label, E, d, p, n, rams in PARITY_CORPUS:
        T = make_tower(d, p, n, rams)
        assert validate_tower(T) == []
        for row in parity_table(E, T):
            assert row.status == MATCH, (label, row.place)
            rows_checked += 1
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    _report(1, f"{len(PARITY_CORPUS)} configs, {rows_checked} parity rows all "
               f"Match in {elapsed:.2f}s")


def test_criterion_2_flagship_11a1():
    E = CURVES["11a1"]
    T = make_tower(-1, 5, 1, [11])
    g11 = gamma(E, T, 11)
    d11 = delta(E, T, sites_above(11, T.K)[0])
    assert g11.value == 1 and d11.value == 1
    g5 = gamma(E, T, 5)
    assert g5.value == 0
    assert delta(E, T, sites_above(5, T.K)[0]).contribution() == 0  # pair sum
    g7 = gamma(E, T, 7)
    d7 = delta(E, T, sites_above(7, T.K)[0])
    assert g7.value == 0 and d7.value == 0
    rep = analyze(E, T, dim_Sp_E_K=0)
    assert rep.mr64_sum == 1
    assert len(rep.S_m) == 1
    assert rep.selmer_bound.applicable and rep.selmer_bound.bound == 4
    _report(2, "gamma_11 = delta_11 = 1, gamma_5 = 0 (pair sum 0), "
               "gamma_7 = delta_7 = 0, mr64_sum = 1, |S_m| = 1, bound 4")


def test_criterion_3_reduction_oracle():
    cases = [
        ("11a1", CURVES["11a1"]),
        ("11a3", CURVES["11a3"]),
        ("x3+x", CURVES["x3+x"]),
        ("x3+1", CURVES["x3+1"]),
        ("tw11a1.7", TWIST_11A1_7),
    ]
    checked = 0
    for label, E in cases:
        for ell in prime_factors(E.discriminant()):
            kind, split, v = oracles.reduction_type(E, ell)
            data = local_reduction(E, ell)
            split_over_Q_ell = {"multiplicative_split": True,
                                "multiplicative_nonsplit": False}.get(
                reduction_over_Kv(E, ell, None))
            assert (data.reduction_type, split_over_Q_ell, data.v_disc_min) == \
                (kind, split, v), (label, ell)
            checked += 1
    _report(3, f"local_reduction matches the u-substitution oracle at "
               f"{checked} (curve, prime) pairs")


def test_criterion_4_point_count_oracle():
    assert frobenius_data(CURVES["11a1"], 5).a_ell == 1
    assert frobenius_data(CURVES["x3+x"], 3).a_ell == 0
    assert frobenius_data(CURVES["11a1"], 5).anomalous_over(5)
    pairs = 0
    for label, E in CURVES.items():
        for ell in (2, 3, 5, 7, 11, 13):
            if local_reduction(E, ell).v_disc_min:
                continue
            f = frobenius_data(E, ell)
            assert f.a_ell ** 2 <= 4 * ell
            assert f.a_ell2 == f.a_ell ** 2 - 2 * ell
            assert oracles.count_points_ext(minimal_model_at(E, ell), ell) \
                == ell ** 2 + 1 - f.a_ell2, (label, ell)
            pairs += 1
    _report(4, f"a_5(11a1) = 1, a_3(x^3+x) = 0, anomalous at (11a1, 5); Hasse "
               f"and a_l2 relation verified against F_l2 counting at {pairs} pairs")


def test_criterion_5_square_class_oracle():
    odd_primes = [ell for ell in range(3, 51) if all(ell % q for q in (2, 3, 5, 7) if q < ell)]
    checked = 0
    for ell in odd_primes:
        for unit in range(1, 201):
            if unit % ell == 0:
                continue
            for v in (0, 1, 2):
                for sign in (1, -1):
                    z = sign * unit * ell ** v
                    assert local_square_class(z, ell).is_square == \
                        oracles.odd_local_square(z, ell), (z, ell)
                    checked += 1
    for z in (1, -1, 2, -2, 5, -5, 10, -10):
        assert local_square_class(z, 2).is_square == (z == 1)
    squares49 = oracles.gf_squares(7)
    ext = UnramifiedQuadratic()
    for unit in range(1, 201):
        if unit % 7 == 0:
            continue
        assert (quadratic_character_type(unit, 7, ext) == "trivial") == \
            (((unit % 7), 0) in squares49)
    _report(5, f"{checked} odd local square classes match residue enumeration; "
               "2-adic table and F_49 extension squares verified")


def test_criterion_6_representation_suite():
    trials_total = 0
    import random
    rng = random.Random(1729)
    for m in (5, 7, 25):
        G = DihedralGroupSpec(m)
        C = CyclicGroupSpec(m)
        ind1 = induce(trivial_character(C), G)
        assert (ind1 - (trivial_character(G) + sign_character(G))).is_zero()
        for k in range(1, m):
            ind = induce(cyclic_character(m, k), G)
            assert inner_product(ind, ind) == 1
            assert inner_product(trivial_character(G), ind) == 0
            assert inner_product(sign_character(G), ind) == 0
        for _ in range(40):
            chi = cyclic_character(m, rng.randrange(m))
            psi = random_virtual_character(G, rng)
            lhs = inner_product(induce(chi, G), psi)
            rhs = inner_product(chi, restrict(psi, "rotations"))
            assert lhs == rhs and lhs.denominator == 1
            trials_total += 1
    assert trials_total >= 100
    _report(6, f"D10/D14/D50: induce(1) = 1 + sgn, induced characters "
               f"orthonormal, Frobenius reciprocity on {trials_total} random "
               "trials, all inner products exact integers")


def test_criterion_7_validation_suite(tmp_path):
    ok = write_json(tmp_path / "ok.json", {
        "curve": [0, -1, 1, -10, -20], "d": -1, "p": 5, "n": 1,
        "ramified_sites": [{"ell": 11}]})
    assert run_validate(str(ok), quiet=True) == EXIT_OK

    buf = io.StringIO()
    bad_p = write_json(tmp_path / "p3.json", {
        "curve": [0, -1, 1, -10, -20], "d": -1, "p": 3, "n": 1,
        "ramified_sites": [{"ell": 11}]})
    with redirect_stdout(buf):
        assert run_validate(str(bad_p)) == EXIT_INVALID
    assert "p > 3" in buf.getvalue()

    buf = io.StringIO()
    not_closed = write_json(tmp_path / "closure.json", {
        "d": -1, "p": 7, "n": 1,
        "ramified_sites": [{"ell": 5, "which": "first"}]})
    with redirect_stdout(buf):
        assert run_validate(str(not_closed)) == EXIT_INVALID
    assert "conjugation" in buf.getvalue()

    buf = io.StringIO()
    ram_not_p = write_json(tmp_path / "ram.json", {
        "d": 11, "p": 5, "n": 1, "ramified_sites": [{"ell": 11}]})
    with redirect_stdout(buf):
        assert run_validate(str(ram_not_p)) == EXIT_INVALID
    assert "unramified" in buf.getvalue()  # Mazur-Rubin Lemma 6.5 citation
    _report(7, "p <= 3, non-closed ramified set, and ramified-not-above-p all "
               "rejected with their citation strings; valid config accepted")


def test_criterion_8_honesty_suite(tmp_path):
    # supersingular at p with p ramified in K: never a value
    E = CURVES["x3+x"]
    T = make_tower(-7, 7, 1, [7])
    d = delta(E, T, sites_above(7, T.K)[0])
    assert d.value is None and d.case_tag == V.UNCOVERED

    # ell = 3 potentially good with unknown defect: gamma Undetermined
    T3 = make_tower(-1, 5, 1, [3])
    g = gamma(CURVES["x3+1"], T3, 3)
    assert g.value is None and g.case_tag == V.UNCOVERED

    cfg = write_json(tmp_path / "strict.json", {
        "curve": [0, 0, 0, 0, 1], "d": -1, "p": 5, "n": 1,
        "ramified_sites": [{"ell": 3}]})
    assert run_analyze(str(cfg), quiet=True) == EXIT_OK
    assert run_analyze(str(cfg), strict=True, quiet=True) == \
        EXIT_STRICT_UNDETERMINED
    _report(8, "supersingular-ramified and unknown-defect sites stay "
               "Undetermined; --strict exits 4")


def test_criterion_9_batch_determinism(tmp_path):
    curves = tmp_path / "curves.csv"
    curves.write_text("label,a1,a2,a3,a4,a6\n" + "".join(
        f"c{i},0,-1,1,-10,{-20 - 11 * i}\n" for i in range(10)),
        encoding="utf-8")
    cfg = write_json(tmp_path / "tower.json", {
        "d": -1, "p": 5, "n": 1, "ramified_sites": [{"ell": 11}]})
    outputs = []
    for jobs in (1, 1, 8):
        buf = io.StringIO()
        with redirect_stdout(buf):
            assert run_batch(str(curves), str(cfg), jobs=jobs) == EXIT_OK
        outputs.append(buf.getvalue())
    assert outputs[0] == outputs[1], "rerun not byte-identical"
    assert outputs[0] == outputs[2], "jobs=8 differs from jobs=1"
    assert json.loads(outputs[0])["summary"]["curves"] == 10
    _report(9, "10-curve batch byte-identical across reruns and across "
               "parallelism levels 1 and 8")
