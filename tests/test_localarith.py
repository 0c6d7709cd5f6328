import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import run_isolated
from dihedral_parity import localarith
from dihedral_parity.localarith import (
    RamifiedQuadratic,
    UnramifiedQuadratic,
    is_local_square,
    is_prime,
    is_square_in_quadratic_ext,
    is_squarefree,
    kronecker_symbol,
    local_square_class,
    padic_valuation,
    prime_factors,
    quadratic_character_type,
)

# Square-class representatives of Q_2^x; unit classes are distinguished by the
# unit's residue mod 8.
TWO_ADIC_SQUARE_CLASS_REPS = (1, -1, 2, -2, 5, -5, 10, -10)

ODD_PRIMES_50 = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    for n in range(-3, 50):
        assert is_prime(n) == (n in primes)


@given(st.integers(min_value=-10**6, max_value=10**6).filter(bool),
       st.sampled_from([2, 3, 5, 7, 11]))
def test_padic_valuation_multiplicative(x, ell):
    assert padic_valuation(x * x, ell) == 2 * padic_valuation(x, ell)
    assert padic_valuation(x * ell, ell) == padic_valuation(x, ell) + 1


def test_kronecker_vs_euler():
    for ell in ODD_PRIMES_50:
        residues = {(x * x) % ell for x in range(1, ell)}
        for a in range(-60, 60):
            expected = 0 if a % ell == 0 else (1 if a % ell in residues else -1)
            assert kronecker_symbol(a, ell) == expected, (a, ell)


@pytest.mark.parametrize("n", [0, -3, 2, 8])
def test_kronecker_symbol_takes_only_odd_positive_moduli(n):
    with pytest.raises(ValueError, match="only for odd n > 0"):
        kronecker_symbol(3, n)


def test_local_square_class_odd_vs_enumeration():
    """Exhaustive oracle: squares in Q_ell decided modulo ell^3 for v <= 2."""
    for ell in ODD_PRIMES_50:
        for unit in range(1, 201):
            if unit % ell == 0:
                continue
            for v in (0, 1, 2):
                for sign in (1, -1):
                    z = sign * unit * ell ** v
                    verdict = local_square_class(z, ell)
                    assert verdict.is_square == oracles.odd_local_square(z, ell)
                    assert verdict.valuation_parity == v % 2
                    assert is_local_square(z, ell) == verdict.is_square


def test_two_adic_square_classes():
    # the eight classes: units are squares iff = 1 mod 8
    for z in TWO_ADIC_SQUARE_CLASS_REPS:
        assert is_local_square(z, 2) == (z == 1)
    # every odd integer lands in the class of its residue mod 8 (sign included)
    for unit in range(-199, 200, 2):
        expected = unit % 8 == 1
        assert is_local_square(unit, 2) == expected
        assert is_local_square(4 * unit, 2) == expected
        assert not is_local_square(2 * unit, 2)


def test_non_integers_are_refused():
    # the valuation loop would value them silently wrong: 1/3 would get v_3 = 0
    for bad in (Fraction(1, 3), Fraction(9), 9.0, True, False):
        for question in (lambda: padic_valuation(bad, 3),
                         lambda: local_square_class(bad, 3),
                         lambda: is_local_square(bad, 2),
                         lambda: quadratic_character_type(bad, 7, None),
                         lambda: quadratic_character_type(bad, 7, RamifiedQuadratic(7))):
            with pytest.raises(TypeError, match="is not an int"):
                question()


def test_unramified_ext_vs_F49_squares():
    """z a unit is a square in the unramified quadratic extension of Q_7 iff
    its residue is a square in F_49; exhaustive check of field squares."""
    squares = oracles.gf_squares(7)
    ext = UnramifiedQuadratic()
    for unit in range(1, 201):
        if unit % 7 == 0:
            continue
        for sign in (1, -1):
            z = sign * unit
            assert is_square_in_quadratic_ext(z, 7, ext) == (
                ((z % 7), 0) in squares), z
    # odd valuation never becomes a square in an unramified extension
    for unit in (1, 3, -1, 10):
        if unit % 7:
            assert not is_square_in_quadratic_ext(7 * unit, 7, ext)


def test_ramified_ext_square_rule():
    # in Q_ell(sqrt(ell u)): z is a square iff z or z*(ell u) is one in Q_ell
    ext = RamifiedQuadratic(7)  # Q_7(sqrt 7)
    assert is_square_in_quadratic_ext(7, 7, ext)
    assert is_square_in_quadratic_ext(7 * 2, 7, ext)  # 2 is a square mod 7
    assert not is_square_in_quadratic_ext(7 * 3, 7, ext)  # 3 is not


@pytest.mark.parametrize("ell, d, ramified", [
    (7, 7, True), (7, 7 * 9, True), (7, 7 ** 3 * 4, True), (7, 49, False),
    (7, 5, False), (2, -1, True), (2, 3, True), (2, 12, True), (2, 8, True),
    (2, -10, True), (2, 20, False), (2, 4, False), (2, 1, False), (2, -7, False),
])
def test_check_extension_reads_the_local_square_class(ell, d, ramified):
    """Q_ell(sqrt(d)) is ramified when v_ell(d) is odd, or at 2 when the unit
    part of d is 3 mod 4; d need not be squarefree, so it is not factored."""
    ext = RamifiedQuadratic(d)
    if ramified:
        localarith.check_extension(ell, ext)
        rep = RamifiedQuadratic((1 if d > 0 else -1) * math.prod(
            q for q, e in oracles.factorization(d).items() if e % 2))
        for z in (1, -1, 2, 3, 5, ell, 3 * ell):
            assert quadratic_character_type(z, ell, ext) == \
                quadratic_character_type(z, ell, rep)
    else:
        with pytest.raises(ValueError, match="is not ramified over"):
            localarith.check_extension(ell, ext)


def test_quadratic_character_type_over_Q_ell():
    assert quadratic_character_type(2, 7, None) == "trivial"  # 2 = 3^2 mod 7
    assert quadratic_character_type(3, 7, None) == "unramified"
    assert quadratic_character_type(7, 7, None) == "ramified"
    assert quadratic_character_type(5, 2, None) == "unramified"
    assert quadratic_character_type(2, 2, None) == "ramified"


def test_quadratic_character_type_over_inert_Kv():
    # over the unramified quadratic extension, every rational nonsquare of
    # even valuation that stays nonsquare generates the ramified quadratic
    ext = UnramifiedQuadratic()
    assert quadratic_character_type(3, 7, ext) == "trivial"
    assert quadratic_character_type(7, 7, ext) == "ramified"


@settings(max_examples=400)
@given(ell=st.sampled_from([2, 3, 5, 7, 11, 13, 10007]),
       sign=st.sampled_from([1, -1]), a=st.integers(1, 10**6),
       k=st.integers(0, 3),
       ext_kind=st.sampled_from([None, "unramified", "ramified"]),
       d_sign=st.sampled_from([1, -1]), d_unit=st.integers(0, 10**6),
       j=st.integers(0, 3))
def test_quadratic_questions_match_the_oracle(ell, sign, a, k, ext_kind,
                                              d_sign, d_unit, j):
    """Every quadratic question over Q_ell against residue enumeration with an
    explicit unramified generator."""
    z = oracle_z = sign * a * ell ** k
    d = d_sign * d_unit * ell ** j
    ext = {None: None, "unramified": UnramifiedQuadratic(),
           "ramified": RamifiedQuadratic(d)}[ext_kind]
    expected = oracles.character_type(oracle_z, ell, ext_kind, d)
    assert is_local_square(z, ell) == oracles.local_square(oracle_z, ell)
    if expected is None:  # d defines no ramified extension of Q_ell
        for question in (lambda: localarith.check_extension(ell, ext),
                         lambda: quadratic_character_type(z, ell, ext),
                         lambda: is_square_in_quadratic_ext(z, ell, ext)):
            with pytest.raises(ValueError):
                question()
        return
    assert quadratic_character_type(z, ell, ext) == expected
    if ext is None:
        with pytest.raises(ValueError, match="unsupported extension descriptor"):
            is_square_in_quadratic_ext(z, ell, ext)
        return
    localarith.check_extension(ell, ext)
    assert is_square_in_quadratic_ext(z, ell, ext) == (expected == "trivial")


def test_prime_factors():
    assert prime_factors(-161051) == [11]
    assert prime_factors(432) == [2, 3]
    assert prime_factors(1) == []
    with pytest.raises(ValueError):
        prime_factors(0)
    assert not is_squarefree(0)
    # prime powers beyond 41 are split by rho, not by trial division
    n = -(43 ** 2) * 47 ** 3 * 999983 ** 2 * 2147483647 ** 2
    assert localarith._factorization(n) == {43: 2, 47: 3, 999983: 2, 2147483647: 2}
    assert not is_squarefree(n) and is_squarefree(-43 * 47)


# Primes up to 1e12, each confirmed by trial division below.
LARGE_PRIMES = (999983, 1000003, 999999937, 1000000007, 2147483647,
                4294967291, 9999999967, 99999999977, 999999999989)


def test_large_primes_by_trial_division():
    assert all(oracles.is_prime(q) for q in LARGE_PRIMES)
    assert all(is_prime(q) for q in LARGE_PRIMES)


@given(st.integers(min_value=-10, max_value=10**6))
def test_is_prime_matches_trial_division(n):
    assert is_prime(n) == oracles.is_prime(n)


def _next_prime(n):
    while not oracles.is_prime(n):
        n += 1
    return n


@given(st.lists(st.integers(min_value=2, max_value=10**6).map(_next_prime),
                max_size=5),
       st.sampled_from(LARGE_PRIMES), st.sampled_from((1, -1)))
def test_factorization_of_products_of_primes(small, large, sign):
    # rho splits off the small primes; the large one is left for primality
    chosen = small + [large]
    n = sign * math.prod(chosen)
    f = localarith._factorization(n)
    assert f == {q: chosen.count(q) for q in sorted(set(chosen))}
    assert math.prod(q ** e for q, e in f.items()) == abs(n)
    assert prime_factors(n) == sorted(set(chosen))


@given(st.integers(min_value=1, max_value=10**5),
       st.integers(min_value=1, max_value=10**3), st.sampled_from((1, -1)))
def test_squarefree_matches_trial_division(a, b, sign):
    n = sign * a * b * b
    exponents = oracles.factorization(n)
    assert is_squarefree(n) == all(e == 1 for e in exponents.values())


# The bounds of is_prime's base table, OEIS A014233: n is the least odd
# composite that is a strong probable prime to every prime base up to
# last_base, given with its prime factors.  The last is _MR_LIMIT, where
# Baillie-PSW takes over.
BASE_BOUNDS = {
    (2047, 2): (23, 89),
    (1373653, 3): (829, 1657),
    (25326001, 5): (2251, 11251),
    (3215031751, 7): (151, 751, 28351),
    (2152302898747, 11): (6763, 10627, 29947),
    (3474749660383, 13): (1303, 16927, 157543),
    (341550071728321, 17): (10670053, 32010157),
    (3825123056546413051, 23): (149491, 747451, 34233211),
    (318665857834031151167461, 37): (399165290221, 798330580441),
    (3317044064679887385961981, 41): (1287836182261, 2575672364521),
}


def test_base_table_is_the_a014233_table():
    assert [(n, localarith._SMALL_PRIMES[k - 1]) for n, k in localarith._MR_BASES] \
        == list(BASE_BOUNDS)
    assert localarith._MR_BASES[-1][0] == localarith._MR_LIMIT


@pytest.mark.parametrize("n, last_base", list(BASE_BOUNDS))
def test_strong_pseudoprimes_rejected(n, last_base):
    assert math.prod(BASE_BOUNDS[n, last_base]) == n
    bases = [a for a in localarith._SMALL_PRIMES if a <= last_base]
    assert all(localarith._strong_probable_prime(n, a) for a in bases)
    assert not is_prime(n)


# A prime just below each bound of the base table, where is_prime uses the
# fewest bases that bound allows.
PRIMES_BELOW_BOUNDS = (
    2039, 1373639, 25325981, 3215031749, 2152302898729, 3474749660329,
    341550071728289, 3825123056546412979, 318665857834031151167441,
    3317044064679887385961813,
)


@pytest.mark.parametrize("q", PRIMES_BELOW_BOUNDS)
def test_prime_just_below_each_base_bound(q):
    bound = min(n for n, _ in localarith._MR_BASES if q < n)
    assert bound - q < 200
    if q < 10**13:
        assert oracles.is_prime(q)
    else:  # all 13 bases: exact below _MR_LIMIT (Sorenson and Webster)
        assert all(localarith._strong_probable_prime(q, a)
                   for a in localarith._SMALL_PRIMES)
    assert is_prime(q)


# 561 and 41041 have a factor below 43; 211*421*631 and 271*541*811 reach
# Miller-Rabin
@pytest.mark.parametrize("n", [561, 41041, 56052361, 118901521])
def test_carmichael_numbers_rejected(n):
    assert pow(2, n - 1, n) == 1
    assert not is_prime(n)


def test_baillie_psw_matches_trial_division():
    # the test used above 3.3e24, checked where the oracle can reach
    for n in range(43 * 43, 30_000, 2):
        assert localarith._baillie_psw(n) == oracles.is_prime(n), n
    # strong Lucas pseudoprimes (OEIS A217255) pass the Lucas half only
    for n in (5459, 5777, 10877, 16109, 18971):
        assert localarith._strong_lucas_probable_prime(n)
        assert not localarith._strong_probable_prime(n, 2)


def test_primality_beyond_the_miller_rabin_range():
    for e in (89, 107, 127, 521):  # Mersenne primes
        assert is_prime(2 ** e - 1)
    assert not is_prime((2 ** 89 - 1) * (2 ** 107 - 1))
    assert not is_prime((2 ** 89 - 1) ** 2)
    assert not is_prime(2 ** 128 + 1)  # the Fermat number F_7


def test_factoring_budget_raises_instead_of_hanging(monkeypatch):
    p, q = 10**24 + 7, 10**25 + 13
    assert is_prime(p) and is_prime(q)
    monkeypatch.setattr(localarith, "RHO_BUDGET", 1 << 12)
    with pytest.raises(ValueError, match="beyond the factoring budget"):
        prime_factors(p * q)
    with pytest.raises(ValueError, match=f"cannot factor {-p * q}"):
        is_squarefree(-p * q)
    assert prime_factors(2 * 1009 * 1013) == [2, 1009, 1013]


def test_primality_tests_are_charged_to_the_factoring_budget(monkeypatch):
    # a strong test of q is bit_length(q) steps at q's step cost, once per
    # base the table asks for (13 below 3.3e24), whether or not is_prime
    # already holds q: the verdict never depends on what ran before
    q = 10**24 + 7
    cost = 13 * q.bit_length() * localarith._rho_step_cost(q)
    assert cost == 4160
    monkeypatch.setattr(localarith, "RHO_BUDGET", cost)
    assert prime_factors(q) == [q]
    monkeypatch.setattr(localarith, "RHO_BUDGET", cost - 1)
    localarith.is_prime.cache_clear()
    for _ in range(2):  # before and after the memo holds q
        with pytest.raises(ValueError, match=f"^cannot factor {q}: beyond the factoring budget$"):
            prime_factors(q)
        assert is_prime(q)


def test_rho_charges_each_step_by_operand_size():
    # a step costs 1 below 2^64 and the square of the length in 64-bit words
    # above, so the budget bounds work, not steps, whatever the digits
    costs = [localarith._rho_step_cost(n) for n in (3, 2**64 - 1, 2**64, 2**128, 10**999)]
    assert costs == [1, 1, 4, 9, 52 ** 2]
    # the same walk: y mod 43 * 47 does not depend on the cofactor, so rho
    # finds 43 after the same steps on a 51-bit and a 611-bit n
    small = 43 * 47 * (2**40 + 15)
    big = 43 * 47 * (2**600 + 187)
    assert is_prime(2**40 + 15) and is_prime(2**600 + 187)
    budget = 1 << 20
    (f_small, left_small), (f_big, left_big) = (
        localarith._rho_factor(n, budget) for n in (small, big))
    assert f_small == f_big == 43
    assert budget - left_big == 100 * (budget - left_small) == 1400
    # the walk needs 1400 on the big n: one less and rho gives up
    assert localarith._rho_factor(big, 1400) == (43, 0)
    assert localarith._rho_factor(big, 1399) == (None, 0)


def test_hard_discriminant_factors_in_a_subprocess():
    # -5 times a 20-digit prime: trial division would run to about 9.3e9
    proc = run_isolated(["-c", "from dihedral_parity.localarith import prime_factors; "
                         "print(prime_factors(-432000006264000000755))"])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[5, 86400001252800000151]\n"


@given(st.integers(min_value=-10**6, max_value=10**6).filter(bool),
       st.integers(min_value=0, max_value=8),
       st.sampled_from([2, 3, 5, 7, 11, 1000003]))
def test_a_power_of_ell_moves_only_the_valuation(u, k, ell):
    # u * ell^k strips to u's unit part: the valuation grows by k and the
    # unit class is u's
    assert padic_valuation(u * ell ** k, ell) == padic_valuation(u, ell) + k
    c, c_u = local_square_class(u * ell ** k, ell), local_square_class(u, ell)
    assert c.unit_class == c_u.unit_class
    assert c.valuation_parity == (c_u.valuation_parity + k) % 2


@pytest.mark.parametrize("bad", [0])
def test_padic_valuation_zero_rejected(bad):
    with pytest.raises(ValueError):
        padic_valuation(bad, 5)


@pytest.mark.parametrize("ell", [1, 0, -3])
def test_a_modulus_below_two_is_rejected(ell):
    # the valuation loop may not run with ell < 2 (it would never end at 1)
    with pytest.raises(ValueError, match="is not prime"):
        padic_valuation(12, ell)
    with pytest.raises(ValueError, match="is not prime"):
        local_square_class(60, ell)
