"""Character algebra for dihedral groups D_{2m} with m odd, in exact integers.

A class function is stored by its coefficients in the orthonormal basis of
irreducible characters.  For the cyclic group C_m that basis is
chi_0, ..., chi_{m-1}, with chi_k(r^j) = zeta_m^{kj}; for D_{2m} it is
1, sgn, psi_1, ..., psi_{(m-1)/2}, where psi_k is the 2-dimensional character
with rotation weight k, so psi_k = Ind chi_k = Ind chi_{m-k}.  Virtual
characters have integer coefficients, induction and restriction are integer
maps on them, and the inner product is the dot product of coefficients.
"""

from __future__ import annotations

from collections import namedtuple
from typing import Iterable

from .verdicts import CheckedRecord


class _Group:
    """Equality of group specs that tells the kind of group: C_3 is not D_6."""

    def __eq__(self, other):
        return type(other) is type(self) and tuple.__eq__(self, other)

    def __ne__(self, other):
        return not self == other

    __hash__ = tuple.__hash__


class CyclicGroupSpec(_Group, namedtuple("CyclicGroupSpec", "m")):
    """C_m."""

    @property
    def n_irreducibles(self) -> int:
        return self.m


class DihedralGroupSpec(_Group, CheckedRecord, namedtuple("DihedralGroupSpec", "m")):
    """D_{2m} = <r, s | r^m = s^2 = 1, s r s = r^-1>, m odd >= 3."""

    def __new__(cls, m):
        if m < 3 or m % 2 == 0:
            raise ValueError("rotation order m must be odd and >= 3")
        return tuple.__new__(cls, (m,))

    @property
    def n_irreducibles(self) -> int:
        return 2 + (self.m - 1) // 2


GroupSpec = CyclicGroupSpec | DihedralGroupSpec


class ClassFunction(CheckedRecord, namedtuple("ClassFunction", "group coeffs")):
    """A virtual character: coeffs is the multiplicity of each irreducible of
    group, in basis order."""

    def __new__(cls, group, coeffs):
        if (len(coeffs) != group.n_irreducibles
                or not all(isinstance(c, int) for c in coeffs)):
            raise ValueError(f"expected {group.n_irreducibles} integer "
                             f"coefficients, got {coeffs!r}")
        return tuple.__new__(cls, (group, coeffs))

    def __add__(self, other: "ClassFunction") -> "ClassFunction":
        if self.group != other.group:
            raise ValueError("group mismatch")
        return ClassFunction(self.group,
                             tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "ClassFunction") -> "ClassFunction":
        if self.group != other.group:
            raise ValueError("group mismatch")
        return ClassFunction(self.group,
                             tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def is_zero(self) -> bool:
        return not any(self.coeffs)


def _basis_character(group: GroupSpec, i: int) -> ClassFunction:
    return ClassFunction(group, tuple(int(j == i) for j in range(group.n_irreducibles)))


def cyclic_character(m: int, k: int) -> ClassFunction:
    """The character r^j -> zeta_m^{kj} of C_m."""
    return _basis_character(CyclicGroupSpec(m), k % m)


def trivial_character(group: GroupSpec) -> ClassFunction:
    return _basis_character(group, 0)


def sign_character(G: DihedralGroupSpec) -> ClassFunction:
    """The character that is +1 on rotations and -1 on reflections."""
    return _basis_character(G, 1)


def induce(chi: ClassFunction, G: DihedralGroupSpec) -> ClassFunction:
    """Induce a character of the rotation subgroup C_m up to D_{2m}.

    Ind chi_0 = 1 + sgn, and Ind chi_k = Ind chi_{m-k} = psi_k.
    """
    if not isinstance(chi.group, CyclicGroupSpec) or chi.group.m != G.m:
        raise ValueError("chi must live on the rotation subgroup of G")
    c = chi.coeffs
    return ClassFunction(G, (c[0], c[0]) + tuple(c[k] + c[G.m - k]
                                                 for k in range(1, (G.m + 1) // 2)))


def restrict(chi: ClassFunction, H: str) -> ClassFunction:
    """Restrict a class function on D_{2m} to a subgroup.

    H = "rotations" gives the cyclic subgroup C_m, where 1 and sgn restrict to
    chi_0 and psi_k to chi_k + chi_{m-k}.  H = "reflection" gives the order-2
    subgroup <s> (the decomposition groups the local analysis uses), as C_2:
    1 restricts to chi_0, sgn to chi_1 and psi_k to chi_0 + chi_1.
    """
    if not isinstance(chi.group, DihedralGroupSpec):
        raise ValueError("restriction is implemented from dihedral groups only")
    m = chi.group.m
    c = chi.coeffs
    if H == "rotations":
        return ClassFunction(CyclicGroupSpec(m), (c[0] + c[1],) + tuple(
            c[1 + min(j, m - j)] for j in range(1, m)))
    if H == "reflection":
        two_dim = sum(c[2:])
        return ClassFunction(CyclicGroupSpec(2), (c[0] + two_dim, c[1] + two_dim))
    raise ValueError(f"unsupported subgroup {H!r}")


def inner_product(chi1: ClassFunction, chi2: ClassFunction) -> int:
    """(1/|G|) sum_g chi1(g) conj(chi2(g)): the dot product of coefficients."""
    if chi1.group != chi2.group:
        raise ValueError("group mismatch")
    return sum(a * b for a, b in zip(chi1.coeffs, chi2.coeffs))


def random_virtual_character(G: DihedralGroupSpec, rng,
                             coeff_range: Iterable[int] = range(-3, 4)) -> ClassFunction:
    """Integer combination of irreducibles, one rng.choice each in basis order."""
    choices = list(coeff_range)
    return ClassFunction(G, tuple(rng.choice(choices) for _ in range(G.n_irreducibles)))
