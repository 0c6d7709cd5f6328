"""Exact local arithmetic over Q_l: valuations, Kronecker symbols, square classes.

Everything here is elementary and exact (integers and fractions only).  The
one piece of theory worth recording: for a quadratic extension F(sqrt(w))/F
of a field of characteristic != 2, an element z of F is a square in
F(sqrt(w)) if and only if z or z*w is a square in F.  All quadratic-extension
square tests below reduce to square tests in Q_l through that fact.

At l = 2 the square classes of Q_2^x are represented explicitly by
{1, -1, 2, -2, 5, -5, 10, -10}: a 2-adic unit is a square iff it is 1 mod 8.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

Rational = Union[int, Fraction]


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def is_squarefree(n: int) -> bool:
    if n == 0:
        return False
    n = abs(n)
    if n % 4 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % (f * f) == 0:
            return False
        f += 2
    return True


def squarefree_part(n: int) -> int:
    """Largest squarefree divisor class: n modulo rational squares."""
    if n == 0:
        raise ValueError("0 has no squarefree part")
    sign = -1 if n < 0 else 1
    n = abs(n)
    out = 1
    f = 2
    while f * f <= n:
        e = 0
        while n % f == 0:
            n //= f
            e += 1
        if e % 2:
            out *= f
        f += 1 if f == 2 else 2
    return sign * out * n


def padic_valuation(x: Rational, ell: int) -> int:
    """v_ell(x) for a nonzero rational x."""
    if not is_prime(ell):
        raise ValueError(f"{ell} is not prime")
    x = Fraction(x)
    if x == 0:
        raise ValueError("valuation of 0 is undefined")
    v = 0
    num, den = x.numerator, x.denominator
    while num % ell == 0:
        num //= ell
        v += 1
    while den % ell == 0:
        den //= ell
        v -= 1
    return v


def prime_to_ell_part(x: Rational, ell: int) -> Fraction:
    """x / ell^v(x), the unit part of x at ell."""
    return Fraction(x) / Fraction(ell) ** padic_valuation(x, ell)


def residue(x: Rational, m: int) -> int:
    """The residue of an m-integral rational mod m (denominator prime to m)."""
    x = Fraction(x)
    return x.numerator * pow(x.denominator, -1, m) % m


def kronecker_symbol(a: int, n: int) -> int:
    """Kronecker symbol (a|n), multiplicative in both arguments."""
    if n == 0:
        raise ValueError("Kronecker symbol (a|0) is not defined here")
    result = 1
    if n < 0:
        n = -n
        if a < 0:
            result = -result
    if n % 2 == 0:
        if a % 2 == 0:
            return 0
        while n % 2 == 0:
            n //= 2
            if a % 8 in (3, 5):
                result = -result
    a %= n
    # Jacobi symbol by reciprocity; n is now odd and positive.
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


def smallest_nonresidue(ell: int) -> int:
    """Smallest positive quadratic nonresidue mod an odd prime (it is prime)."""
    r = 2
    while kronecker_symbol(r, ell) != -1:
        r += 1
    return r


@dataclass(frozen=True)
class LocalSquareVerdict:
    """Square class of a nonzero rational in Q_l.

    unit_class is a canonical representative of the unit part's class:
    1 or the smallest nonresidue for odd l, the residue mod 8 for l = 2.
    """

    is_square: bool
    valuation_parity: int
    unit_class: int

    def __post_init__(self):
        if self.is_square and self.valuation_parity != 0:
            raise ValueError("a square has even valuation")


def local_square_class(z: Rational, ell: int) -> LocalSquareVerdict:
    """Square class of z in Q_ell^x."""
    z = Fraction(z)
    if z == 0:
        raise ValueError("square class of 0 is undefined")
    v = padic_valuation(z, ell)
    u = prime_to_ell_part(z, ell)
    if ell == 2:
        uc = residue(u, 8)
        unit_square = uc == 1
    else:
        unit_square = kronecker_symbol(residue(u, ell), ell) == 1
        uc = 1 if unit_square else smallest_nonresidue(ell)
    return LocalSquareVerdict(
        is_square=(v % 2 == 0 and unit_square),
        valuation_parity=v % 2,
        unit_class=uc,
    )


def is_local_square(z: Rational, ell: int) -> bool:
    return local_square_class(z, ell).is_square


@dataclass(frozen=True)
class UnramifiedQuadratic:
    """The unramified quadratic extension of Q_ell."""


@dataclass(frozen=True)
class RamifiedQuadratic:
    """A ramified quadratic extension Q_ell(sqrt(d)), d squarefree."""

    d: int


QuadraticExtension = Union[UnramifiedQuadratic, RamifiedQuadratic]


def unramified_generator(ell: int) -> int:
    """Integer w with Q_ell(sqrt(w)) the unramified quadratic extension."""
    return 5 if ell == 2 else smallest_nonresidue(ell)


def _check_extension(ell: int, ext: QuadraticExtension) -> None:
    if isinstance(ext, RamifiedQuadratic):
        d = ext.d
        if not is_squarefree(d) or d == 1:
            raise ValueError(f"d = {d} does not define a quadratic field")
        ramified = (d % ell == 0) if ell != 2 else (d % 4 in (2, 3))
        if not ramified:
            raise ValueError(f"Q_{ell}(sqrt({d})) is not ramified over Q_{ell}")
    elif not isinstance(ext, UnramifiedQuadratic):
        raise ValueError(f"unsupported extension descriptor {ext!r}")


def is_square_in_quadratic_ext(z: Rational, ell: int, ext: QuadraticExtension) -> bool:
    """Is z a square in the given quadratic extension of Q_ell?

    Uses: sqrt(z) lies in Q_ell(sqrt(w)) iff z or z*w is a square in Q_ell.
    """
    _check_extension(ell, ext)
    w = ext.d if isinstance(ext, RamifiedQuadratic) else unramified_generator(ell)
    z = Fraction(z)
    return is_local_square(z, ell) or is_local_square(z * w, ell)


def quadratic_character_type(z: Rational, ell: int,
                             ext: QuadraticExtension | None) -> str:
    """Type of K_v(sqrt(z))/K_v: 'trivial', 'unramified' or 'ramified'.

    K_v is Q_ell itself (ext None), its unramified quadratic extension, or a
    ramified quadratic extension Q_ell(sqrt(d)).  z is a nonzero rational.
    Over the unramified quadratic extension, a rational nonsquare always
    generates a ramified extension (the compositum tower Q_ell^(4)/Q_ell is
    cyclic, so its only quadratic intermediate field over Q_ell is K_v
    itself), which is why no 'unramified' branch appears in that case.
    """
    z = Fraction(z)
    w = unramified_generator(ell)
    if ext is None:
        if is_local_square(z, ell):
            return "trivial"
        if is_local_square(z * w, ell):
            return "unramified"
        return "ramified"
    _check_extension(ell, ext)
    if isinstance(ext, UnramifiedQuadratic):
        if is_local_square(z, ell) or is_local_square(z * w, ell):
            return "trivial"
        return "ramified"
    d = ext.d
    if is_local_square(z, ell) or is_local_square(z * d, ell):
        return "trivial"
    if is_local_square(z * w, ell) or is_local_square(z * w * d, ell):
        return "unramified"
    return "ramified"


def prime_factors(n: int) -> list[int]:
    n = abs(n)
    out = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1 if f == 2 else 2
    if n > 1:
        out.append(n)
    return out
