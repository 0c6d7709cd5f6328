"""Reference arithmetic for the benchmark, written apart from the package.

Nothing here imports ``dihedral_parity``: the benchmark uses these routines
to choose its inputs and to check the program's reports, so a fault shared
with the program cannot hide itself.

- ``is_prime``: deterministic Miller-Rabin (the first 13 prime bases are
  exact for n < 3.3e24; larger inputs are not used here).
- ``prime_factors``: Miller-Rabin plus Pollard-Brent rho, never trial
  division beyond a few small primes.
- ``trace_of_frobenius``: a_p of a Weierstrass curve at a good odd prime p,
  counted with a table of square-root multiplicities (one pass over y to
  tabulate how many y have y^2 = r, one pass over x to look up the
  right-hand side), not with Euler's criterion as the program does.
"""

from __future__ import annotations

from math import gcd

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3_317_044_064_679_887_385_961_981  # exact below this with _MR_BASES
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test for 0 <= n < 3.3e24."""
    if n < 2:
        return False
    for q in _SMALL_PRIMES:
        if n % q == 0:
            return n == q
    if n >= _MR_LIMIT:
        raise ValueError(f"{n} is beyond the deterministic Miller-Rabin range")
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _brent(n: int) -> int:
    """A nontrivial factor of an odd composite n (Pollard-Brent rho)."""
    for c in range(1, n):
        y, r, q, g = 2, 1, 1, 1
        x = ys = y
        while g == 1:
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
        if g == n:  # the batched gcd overshot: step back one at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if g != n:
            return g
    raise ArithmeticError(f"no factor found for {n}")


def prime_factors(n: int) -> list[int]:
    """Sorted distinct prime factors of a nonzero integer."""
    if n == 0:
        raise ValueError("0 has no factorization")
    n = abs(n)
    out: set[int] = set()
    for q in _SMALL_PRIMES:
        if n % q == 0:
            out.add(q)
            while n % q == 0:
                n //= q
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if is_prime(m):
            out.add(m)
            continue
        f = _brent(m)
        stack += [f, m // f]
    return sorted(out)


def discriminant(a: tuple[int, int, int, int, int]) -> int:
    """Discriminant of y^2 + a1 xy + a3 y = x^3 + a2 x^2 + a4 x + a6."""
    a1, a2, a3, a4, a6 = a
    b2 = a1 * a1 + 4 * a2
    b4 = 2 * a4 + a1 * a3
    b6 = a3 * a3 + 4 * a6
    b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
    return -b2 * b2 * b8 - 8 * b4 ** 3 - 27 * b6 * b6 + 9 * b2 * b4 * b6


def trace_of_frobenius(a: tuple[int, int, int, int, int], p: int) -> int:
    """a_p = p + 1 - #E(F_p) for an odd prime p of good reduction.

    Completing the square turns the curve into Y^2 = g(x) with
    g = 4x^3 + b2 x^2 + 2 b4 x + b6; the number of affine points is the sum
    over x of the number of square roots of g(x), read from a table.
    """
    if p == 2 or discriminant(a) % p == 0:
        raise ValueError(f"{p} must be an odd prime of good reduction")
    a1, a2, a3, a4, a6 = a
    b2, b4, b6 = (a1 * a1 + 4 * a2) % p, (2 * a4 + a1 * a3) % p, (a3 * a3 + 4 * a6) % p
    roots = [0] * p
    for y in range(p):
        roots[y * y % p] += 1
    affine = 0
    for x in range(p):
        affine += roots[(((4 * x + b2) * x + 2 * b4) * x + b6) % p]
    return p - affine  # p + 1 - (affine + 1)
