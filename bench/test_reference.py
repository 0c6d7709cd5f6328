"""Tests of the benchmark's reference arithmetic: python3 -m pytest -q bench"""

import random

import pytest

import reference as ref

CURVE_11A1 = (0, -1, 1, -10, -20)


def _sieve(n):
    flags = [True] * (n + 1)
    flags[0] = flags[1] = False
    for i in range(2, int(n ** 0.5) + 1):
        if flags[i]:
            flags[i * i::i] = [False] * len(flags[i * i::i])
    return flags


def _brute_force_a_p(a, p):
    """p + 1 - #E(F_p) by trying every (x, y) on the long Weierstrass form."""
    a1, a2, a3, a4, a6 = a
    affine = sum(1 for x in range(p) for y in range(p)
                 if (y * y + a1 * x * y + a3 * y
                     - x ** 3 - a2 * x * x - a4 * x - a6) % p == 0)
    return p - affine


def test_is_prime_matches_sieve():
    flags = _sieve(20000)
    assert [n for n in range(20001) if ref.is_prime(n)] == \
           [n for n in range(20001) if flags[n]]


@pytest.mark.parametrize("n", [561, 41041, 825265, 2047, 3215031751,
                               3825123056546413051, (10**9 + 7) * (10**9 + 9)])
def test_is_prime_rejects_pseudoprimes(n):
    assert not ref.is_prime(n)


@pytest.mark.parametrize("n", [10**9 + 7, 2**61 - 1, 4294967291, 10**18 + 9])
def test_is_prime_accepts_large_primes(n):
    assert ref.is_prime(n)


def test_prime_factors_of_products():
    rng = random.Random(0)
    primes = [p for p in range(2, 3000) if ref.is_prime(p)] + [10**9 + 7, 2**31 - 1, 999999937]
    tried = 0
    while tried < 200:
        chosen = rng.sample(primes, rng.randint(1, 4))
        n = 1
        for p in chosen:
            n *= p ** rng.randint(1, 3)
        if n < 10**24:  # the deterministic Miller-Rabin range
            tried += 1
            assert ref.prime_factors(rng.choice((1, -1)) * n) == sorted(chosen)


def test_prime_factors_of_a_hard_discriminant():
    # Trial division would run to about 9.3e9 on this discriminant.
    disc = ref.discriminant((0, 0, 1, -7, 10**9 + 7))
    assert disc == -432000006264000000755
    assert ref.prime_factors(disc) == [5, 86400001252800000151]


def test_discriminant_of_11a1():
    assert ref.discriminant(CURVE_11A1) == -161051  # -11^5


def test_trace_of_frobenius_11a1():
    known = {3: -1, 7: -2, 13: 4, 17: -2, 19: 0, 23: -1, 29: 0, 31: 7, 37: 3,
             41: -8, 43: -6, 47: 8}
    assert {p: ref.trace_of_frobenius(CURVE_11A1, p) for p in known} == known


def test_trace_of_frobenius_matches_brute_force():
    rng = random.Random(1)
    for _ in range(60):
        a = tuple(rng.randint(-9, 9) for _ in range(5))
        p = rng.choice([3, 5, 7, 11, 13, 17, 19, 23, 29, 31])
        if ref.discriminant(a) % p:
            assert ref.trace_of_frobenius(a, p) == _brute_force_a_p(a, p)


def test_cm_curves_are_supersingular_at_the_expected_primes():
    for p in range(5, 2000):
        if not ref.is_prime(p):
            continue
        a = ref.trace_of_frobenius((0, 0, 0, 1, 0), p)
        b = ref.trace_of_frobenius((0, 0, 0, 0, 1), p)
        assert (a == 0) == (p % 4 == 3)
        assert (b == 0) == (p % 3 == 2)
        assert a * a <= 4 * p and b * b <= 4 * p


def test_trace_of_frobenius_rejects_bad_primes():
    with pytest.raises(ValueError):
        ref.trace_of_frobenius(CURVE_11A1, 11)
