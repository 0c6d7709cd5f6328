import cmath
import math
import random

import pytest

from dihedral_parity.dihedral import (
    CyclicGroupSpec,
    DihedralGroupSpec,
    ClassFunction,
    cyclic_character,
    induce,
    inner_product,
    random_virtual_character,
    restrict,
    sign_character,
    trivial_character,
)

GROUPS = [DihedralGroupSpec(5), DihedralGroupSpec(7), DihedralGroupSpec(25)]


def irreducible_characters(G):
    """1, sgn, psi_1, ..., psi_{(m-1)/2}: the basis vectors of D_{2m}'s class functions."""
    n = G.n_irreducibles
    return [ClassFunction(G, tuple(int(j == i) for j in range(n))) for i in range(n)]


def two_dim_character(G, k):
    """psi_k, the 2-dimensional irreducible of rotation weight k."""
    return irreducible_characters(G)[1 + k]


@pytest.mark.parametrize("G", GROUPS, ids=lambda G: f"D{2 * G.m}")
def test_irreducibles_orthonormal(G):
    irr = irreducible_characters(G)
    assert len(irr) == 2 + (G.m - 1) // 2
    for i, chi in enumerate(irr):
        for j, psi in enumerate(irr):
            assert inner_product(chi, psi) == int(i == j)


@pytest.mark.parametrize("G", GROUPS, ids=lambda G: f"D{2 * G.m}")
def test_induce_trivial_is_one_plus_sign(G):
    ind = induce(trivial_character(CyclicGroupSpec(G.m)), G)
    target = trivial_character(G) + sign_character(G)
    assert (ind - target).is_zero()


@pytest.mark.parametrize("G", GROUPS, ids=lambda G: f"D{2 * G.m}")
def test_induced_nontrivial_is_irreducible(G):
    for k in range(1, G.m):
        ind = induce(cyclic_character(G.m, k), G)
        assert inner_product(ind, ind) == 1
        assert inner_product(trivial_character(G), ind) == 0
        assert inner_product(sign_character(G), ind) == 0
        # and it coincides with the matching 2-dimensional irreducible
        kk = min(k, G.m - k)
        assert (ind - two_dim_character(G, kk)).is_zero()


@pytest.mark.parametrize("G", GROUPS, ids=lambda G: f"D{2 * G.m}")
def test_induced_character_equals_two_dim_character_exactly(G):
    m = G.m
    for k in range(1, m):
        assert induce(cyclic_character(m, k), G) == two_dim_character(G, min(k, m - k))


@pytest.mark.parametrize("G", GROUPS, ids=lambda G: f"D{2 * G.m}")
def test_frobenius_reciprocity_random(G):
    """<ind chi, psi>_G = <chi, res psi>_C on random virtual characters."""
    rng = random.Random(20260826)
    C = CyclicGroupSpec(G.m)
    trials = 40 if G.m < 20 else 25
    for _ in range(trials):
        chi = ClassFunction(C, tuple(rng.randint(-3, 3) for _ in range(G.m)))
        psi = random_virtual_character(G, rng, coeff_range=range(-3, 4))
        lhs = inner_product(induce(chi, G), psi)
        rhs = inner_product(chi, restrict(psi, "rotations"))
        assert lhs == rhs
        assert lhs.denominator == 1  # virtual characters pair to integers


def test_restriction_to_reflection_subgroup():
    G = DihedralGroupSpec(5)
    assert restrict(sign_character(G), "reflection") == cyclic_character(2, 1)


def test_inner_product_is_an_exact_int():
    G = DihedralGroupSpec(7)
    chi = two_dim_character(G, 1)
    assert inner_product(chi, chi) == 1
    assert type(inner_product(chi, trivial_character(G))) is int


def test_class_function_holds_integer_coefficients_only():
    G = DihedralGroupSpec(5)
    with pytest.raises(ValueError):
        ClassFunction(G, (1.0, 0, 0, 0))
    with pytest.raises(ValueError):
        ClassFunction(G, (1, 0, 0))


def test_class_functions_of_other_groups_do_not_mix():
    G, H = DihedralGroupSpec(5), DihedralGroupSpec(7)
    for op in (lambda a, b: a + b, lambda a, b: a - b, inner_product):
        with pytest.raises(ValueError, match="^group mismatch$"):
            op(trivial_character(G), trivial_character(H))


def test_induce_and_restrict_refuse_the_wrong_group():
    G = DihedralGroupSpec(5)
    with pytest.raises(ValueError, match="^chi must live on the rotation subgroup of G$"):
        induce(cyclic_character(7, 1), G)
    with pytest.raises(ValueError, match="^chi must live on the rotation subgroup of G$"):
        induce(trivial_character(G), G)
    with pytest.raises(ValueError, match="^restriction is implemented from dihedral "):
        restrict(cyclic_character(5, 1), "reflection")
    with pytest.raises(ValueError, match="^unsupported subgroup 'center'$"):
        restrict(trivial_character(G), "center")


def _values(chi):
    """Values of chi from the character tables, as complex floats: at r^j for
    j = 0..m-1, then (dihedral groups only) at the reflections s r^j."""
    G, c = chi.group, chi.coeffs
    if isinstance(G, CyclicGroupSpec):
        return [sum(a * cmath.exp(2j * cmath.pi * k * j / G.m) for k, a in enumerate(c))
                for j in range(G.m)]
    rotations = [c[0] + c[1] + sum(2 * a * math.cos(2 * math.pi * k * j / G.m)
                                   for k, a in enumerate(c[2:], start=1))
                 for j in range(G.m)]
    return rotations + [c[0] - c[1]] * G.m


def _close(xs, ys):
    return len(xs) == len(ys) and all(abs(x - y) < 1e-9 for x, y in zip(xs, ys))


@pytest.mark.parametrize("G", GROUPS, ids=lambda G: f"D{2 * G.m}")
def test_integer_maps_agree_with_character_values(G):
    """Induction and restriction against their definitions on group elements."""
    rng = random.Random(7)
    m = G.m
    for _ in range(10):
        chi = ClassFunction(CyclicGroupSpec(m), tuple(rng.randint(-3, 3) for _ in range(m)))
        c = _values(chi)
        assert _close(_values(induce(chi, G)),
                      [c[j] + c[-j % m] for j in range(m)] + [0] * m)
        psi = random_virtual_character(G, rng)
        v = _values(psi)
        assert _close(_values(restrict(psi, "rotations")), v[:m])
        assert _close(_values(restrict(psi, "reflection")), [v[0], v[m]])
