"""Exact local arithmetic over Q_l: valuations, Jacobi symbols, square classes.

Everything here is elementary and exact, on Python ints only.  Every
quadratic question over Q_l is read from one square class: Q_l^x / squares
has order 4, or 8 at l = 2 (Serre, A Course in Arithmetic, II.3.3), and the
class of z = l^v u is v mod 2 with u's Legendre symbol, or u mod 8 at l = 2.
z is a square when v is even and that unit class is 1, and Q_l(sqrt(z)) is
the unramified quadratic extension when v is even and the class is -1, or 5
at l = 2.  For a quadratic extension F(sqrt(t))/F of a field of
characteristic != 2, z in F is a square in F(sqrt(t)) iff z or z*t is a
square in F, so questions over a quadratic K_v reduce to the classes of z and
z*d.
"""
from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from math import gcd, isqrt
from typing import Optional, Union


# Primality and factoring.  is_prime is exact below _MR_LIMIT, where the first
# 13 prime bases make Miller-Rabin deterministic (Sorenson and Webster, 2017);
# above it, it is the Baillie-PSW test: a base-2 strong test and a strong
# Lucas test, with no known counterexample but no proof.  Factoring is trial
# division by _SMALL_PRIMES, then Pollard-Brent rho (Cohen, A Course in
# Computational Algebraic Number Theory, 8.2 and 8.5) within RHO_BUDGET.
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3_317_044_064_679_887_385_961_981

# (bound, k): Miller-Rabin with the first k prime bases is exact below bound,
# the least odd composite that is a strong probable prime to all k of them
# (OEIS A014233; Jaeschke 1993, Sorenson and Webster 2017).  A k whose bound
# equals the next one's is left out, as it proves nothing more.
_MR_BASES = (
    (2047, 1),
    (1_373_653, 2),
    (25_326_001, 3),
    (3_215_031_751, 4),
    (2_152_302_898_747, 5),
    (3_474_749_660_383, 6),
    (341_550_071_728_321, 7),
    (3_825_123_056_546_413_051, 9),
    (318_665_857_834_031_151_167_461, 12),
    (_MR_LIMIT, 13),
)

# Work allowed per factorization, over every cofactor, retry and primality
# test.  A rho step on n costs _rho_step_cost(n), the square of n's length in
# 64-bit words (1 below 2^64), as a step is a multiplication mod n, and a
# strong test bit_length(n) steps.  The budget splits off every prime factor
# below 1e10 in the trials made (100 of 100) and most below 1e11 (38 of 40).
# A number whose two largest prime factors are beyond reach, or whose largest
# has more than about 280 digits, raises ValueError: p*q and p*q^2 with p, q
# of 12 to 300 digits did so in at most 0.075 s (2-vCPU Xeon, Python 3.11.7).
RHO_BUDGET = 1 << 20


def _rho_step_cost(n: int) -> int:
    return ((n.bit_length() + 63) // 64) ** 2  # words of n, squared


def _strong_probable_prime(n: int, a: int) -> bool:
    """Does the odd n > 2 pass the strong Fermat test to base a?"""
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _strong_lucas_probable_prime(n: int) -> bool:
    """Strong Lucas test with Selfridge's parameters, for odd n > 41 that is
    not a square: D is the first of 5, -7, 9, -11, ... with (D|n) = -1,
    P = 1, Q = (1 - D)/4, and n + 1 = d 2^s with d odd.  n passes when
    U_d = 0 or V_(d 2^r) = 0 (mod n) for some 0 <= r < s."""
    D = 5
    while (k := kronecker_symbol(D, n)) != -1:
        if k == 0:  # 1 < |D| < n shares a factor with n
            return False
        D = -D - 2 if D > 0 else -D + 2
    Q = (1 - D) // 4
    d, s = n + 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1

    def half(x: int) -> int:  # x/2 mod the odd n
        return (x + n if x % 2 else x) // 2 % n

    U, V, Qk = 1, 1, Q % n  # U_1, V_1, Q^1 (P = 1)
    for bit in bin(d)[3:]:
        U, V, Qk = U * V % n, (V * V - 2 * Qk) % n, Qk * Qk % n
        if bit == "1":
            U, V, Qk = half(U + V), half(D * U + V), Qk * Q % n
    if U == 0 or V == 0:
        return True
    for _ in range(s - 1):
        V, Qk = (V * V - 2 * Qk) % n, Qk * Qk % n
        if V == 0:
            return True
    return False


def _test_rounds(n: int) -> int:
    """Strong-test rounds is_prime may take on n: the bases _MR_BASES proves
    enough, or 5 for Baillie-PSW, whose Lucas test costs about four."""
    return next((k for bound, k in _MR_BASES if n < bound), 5)


@lru_cache(maxsize=32)  # an analysis tests at most about ten numbers
def is_prime(n: int) -> bool:
    """Exact below 3.3e24 (Miller-Rabin with the fewest bases proven for n);
    Baillie-PSW above.  The last 32 answers are kept, so the primes that
    factoring or a config proved are not tested again."""
    if n < 2:
        return False
    for q in _SMALL_PRIMES:
        if n % q == 0:
            return n == q
    if n < 43 * 43:
        return True
    if n < _MR_LIMIT:
        return all(_strong_probable_prime(n, a) for a in _SMALL_PRIMES[:_test_rounds(n)])
    return _baillie_psw(n)


def _baillie_psw(n: int) -> bool:
    """The Baillie-PSW probable-prime test for odd n > 41."""
    return (_strong_probable_prime(n, 2) and isqrt(n) ** 2 != n
            and _strong_lucas_probable_prime(n))


def _rho_factor(n: int, budget: int) -> tuple[Optional[int], int]:
    """(a proper factor of the odd composite n, budget left) by Pollard-Brent
    rho, with one gcd per batch of up to 128 steps; (None, 0) when a round
    would cost more than the budget."""
    cost, c = 2 * _rho_step_cost(n), 0
    while True:
        c += 1
        y, r, q, g = 2, 1, 1, 1
        x = ys = y
        while g == 1:
            if cost * r > budget:
                return None, 0
            budget -= cost * r  # r steps to move x, at most r more to catch it
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                k += 128
            r *= 2
        if g == n:  # the batch overshot: step back one at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if g != n:
            return g, budget


def _factorization(n: int) -> dict[int, int]:
    """{prime: exponent} for a nonzero integer n (its sign is dropped).

    ValueError when rho and the primality tests run past RHO_BUDGET, never
    a hang."""
    if n == 0:
        raise ValueError("0 has no factorization")
    m = abs(n)
    out: dict[int, int] = {}
    for q in _SMALL_PRIMES:
        if m % q == 0:
            e = 0
            while m % q == 0:
                m //= q
                e += 1
            out[q] = e
    budget = RHO_BUDGET
    pending = [m] if m > 1 else []
    while pending:
        m = pending.pop()
        # a strong test of m is bit_length(m) squarings, charged like rho
        # steps whether or not is_prime remembers m; past the budget, rho
        # gives up at once
        budget -= _test_rounds(m) * m.bit_length() * _rho_step_cost(m)
        if budget >= 0 and is_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        f, budget = _rho_factor(m, budget)
        if f is None:
            raise ValueError(f"cannot factor {int_text(n)}: beyond the factoring budget")
        pending += [f, m // f]
    return dict(sorted(out.items()))


def int_text(n) -> str:
    """str(n), or "a N-bit integer" for an int of more digits than Python prints."""
    try:
        return str(n)
    except ValueError:
        return f"a {abs(n).bit_length()}-bit integer"


def prime_factors(n: int) -> list[int]:
    """Sorted distinct prime factors of a nonzero integer."""
    return list(_factorization(n))


def is_squarefree(n: int) -> bool:
    return n != 0 and all(e == 1 for e in _factorization(n).values())


def _strip(n: int, ell: int) -> tuple[int, int]:
    """(v, n / ell^v) with v = v_ell(n), for a nonzero int n.

    Anything but an exact int raises TypeError: the loop below would value
    a Fraction, a float or a bool, silently wrong (1/3 would get v_3 = 0)."""
    if type(n) is not int:
        raise TypeError(f"{n!r} is not an int")
    if n == 0:
        raise ValueError("0 has no valuation and no square class")
    if ell < 2:
        raise ValueError(f"{ell} is not prime")
    v = 0
    while n % ell == 0:
        n //= ell
        v += 1
    return v, n


def padic_valuation(x: int, ell: int) -> int:
    """v_ell(x) for a nonzero integer x and a prime ell.

    ell is not tested for primality here: callers pass primes that were
    checked where they entered (a config, a factorization, a public entry
    point)."""
    return _strip(x, ell)[0]


def kronecker_symbol(a: int, n: int) -> int:
    """Jacobi symbol (a|n) for an odd n > 0, the Legendre symbol when n is
    prime.  split_type, local_square_class and the Lucas test pass no other
    modulus, so any other n raises ValueError."""
    if n < 1 or n % 2 == 0:
        raise ValueError(f"(a|{n}) is taken only for odd n > 0")
    result = 1
    a %= n
    # Jacobi symbol by reciprocity; n stays odd and positive
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


class LocalSquareVerdict(namedtuple("LocalSquareVerdict", "valuation_parity unit_class")):
    """Class of a nonzero integer z = ell^v u in Q_ell^x / squares: v mod 2,
    and u mod 8 at ell = 2 or the Legendre symbol (u|ell) at odd ell."""

    @property
    def is_square(self) -> bool:
        return self.valuation_parity == 0 and self.unit_class == 1

    @property
    def is_unramified_class(self) -> bool:
        """Is Q_ell(sqrt(z)) the unramified quadratic extension?"""
        return self.valuation_parity == 0 and self.unit_class in (5, -1)


def local_square_class(z: int, ell: int) -> LocalSquareVerdict:
    """Square class of the nonzero integer z in Q_ell^x; an odd unit's class
    mod 8 is its residue mod 8."""
    v, u = _strip(z, ell)
    return LocalSquareVerdict(v % 2, u % 8 if ell == 2 else kronecker_symbol(u, ell))


class UnramifiedQuadratic(namedtuple("UnramifiedQuadratic", "")):
    """The unramified quadratic extension of Q_ell."""

    def __bool__(self) -> bool:  # a record, not an empty tuple
        return True


class RamifiedQuadratic(namedtuple("RamifiedQuadratic", "d")):
    """A ramified quadratic extension Q_ell(sqrt(d)): d is a nonzero integer,
    read only through its square class in Q_ell, so a squarefree d of a
    quadratic field K = Q(sqrt(d)) serves as is, unfactored."""


QuadraticExtension = Union[UnramifiedQuadratic, RamifiedQuadratic]


def check_extension(ell: int, ext: QuadraticExtension) -> None:
    """Raise ValueError unless ext is the unramified quadratic extension of
    Q_ell or a ramified one Q_ell(sqrt(d)): d is neither a square nor in the
    unramified class."""
    if isinstance(ext, RamifiedQuadratic):
        d = ext.d
        if d == 0:
            raise ValueError("d = 0 does not define a quadratic field")
        c = local_square_class(d, ell)
        if c.is_square or c.is_unramified_class:
            raise ValueError(f"Q_{ell}(sqrt({d})) is not ramified over Q_{ell}")
    elif not isinstance(ext, UnramifiedQuadratic):
        raise ValueError(f"unsupported extension descriptor {ext!r}")


def quadratic_character_type(z: int, ell: int,
                             ext: QuadraticExtension | None) -> str:
    """Type of K_v(sqrt(z))/K_v: 'trivial', 'unramified' or 'ramified'.

    K_v is Q_ell itself (ext None), its unramified quadratic extension
    Q_ell(sqrt w), or a ramified one Q_ell(sqrt d); z is a nonzero integer.
    z is a square in F(sqrt t) iff z or z*t is a square in F, so over
    Q_ell(sqrt d) the classes of z and z*d decide.  Over the unramified
    extension a rational nonsquare always generates a ramified extension
    (the compositum tower Q_ell^(4)/Q_ell is cyclic, so its only quadratic
    intermediate field over Q_ell is K_v itself), which is why no
    'unramified' answer arises there.
    """
    if ext is not None:
        check_extension(ell, ext)
    c = local_square_class(z, ell)
    if isinstance(ext, UnramifiedQuadratic):
        return "trivial" if c.is_square or c.is_unramified_class else "ramified"
    classes = (c,) if ext is None else (c, local_square_class(z * ext.d, ell))
    if any(x.is_square for x in classes):
        return "trivial"
    if any(x.is_unramified_class for x in classes):
        return "unramified"
    return "ramified"
