import itertools
import random

import pytest

from graphtower.cyclotomic import (CyclotomicInteger, _add_monomial,
                                   det_cyclotomic, euler_phi_prime_power)
from graphtower.linalg import det_int_poly_matrix

from conftest import cyclotomic_sum, lift, root_power


def random_element(rng, p, k):
    phi = euler_phi_prime_power(p, k)
    return CyclotomicInteger(p, k, tuple(rng.randint(-5, 5) for _ in range(phi)))


def test_phi():
    assert euler_phi_prime_power(3, 0) == 1
    assert euler_phi_prime_power(3, 1) == 2
    assert euler_phi_prime_power(3, 2) == 6
    assert euler_phi_prime_power(2, 3) == 4


def test_root_of_unity_order():
    for p, k in [(2, 1), (2, 2), (3, 1), (3, 2), (5, 1)]:
        zeta = root_power(p, k, 1)
        one = CyclotomicInteger.from_int(p, k, 1)
        power = one
        order = p ** k
        for i in range(1, order):
            power = power * zeta
            assert not (power - one).is_zero() or i == order
        assert (power * zeta - one).is_zero()


def test_minimal_polynomial_relation():
    # 1 + ζ + ζ² = 0 for ζ = ζ_3
    z = root_power(3, 1, 1)
    total = cyclotomic_sum(CyclotomicInteger.from_int(3, 1, 1), z, z * z)
    assert total.is_zero()


def test_ring_axioms_random():
    rng = random.Random(31)
    for p, k in [(2, 2), (3, 1), (3, 2)]:
        for _ in range(25):
            a, b, c = (random_element(rng, p, k) for _ in range(3))
            assert a * cyclotomic_sum(b, c) == cyclotomic_sum(a * b, a * c)
            assert a * b == b * a
            assert (cyclotomic_sum(cyclotomic_sum(a, b), c) ==
                    cyclotomic_sum(a, cyclotomic_sum(b, c)))


def test_exact_division_roundtrip():
    rng = random.Random(32)
    for p, k in [(2, 2), (3, 1), (3, 2)]:
        for _ in range(25):
            a = random_element(rng, p, k)
            b = random_element(rng, p, k)
            if b.is_zero():
                continue
            product = a * b
            assert product.exact_div(b) == a


def test_inexact_division_raises():
    two = CyclotomicInteger.from_int(3, 1, 2)
    three = CyclotomicInteger.from_int(3, 1, 3)
    with pytest.raises(ArithmeticError):
        three.exact_div(two)


def test_lift_preserves_arithmetic():
    rng = random.Random(33)
    for _ in range(20):
        a = random_element(rng, 3, 1)
        b = random_element(rng, 3, 1)
        assert lift(a * b, 2) == lift(a, 2) * lift(b, 2)
        assert lift(cyclotomic_sum(a, b), 2) == cyclotomic_sum(lift(a, 2),
                                                               lift(b, 2))


def _leibniz_det(p, k, m):
    total = CyclotomicInteger.from_int(p, k, 0)
    for perm in itertools.permutations(range(len(m))):
        inversions = sum(perm[i] > perm[j] for i in range(len(perm))
                         for j in range(i + 1, len(perm)))
        term = CyclotomicInteger.from_int(p, k, (-1) ** inversions)
        for i, j in enumerate(perm):
            term = term * m[i][j]
        total = cyclotomic_sum(total, term)
    return total


def _lifted_det(p, k, m):
    """det over Z[x] of the entries' coefficient vectors, reduced mod
    Φ_{p^k}: x ↦ ζ is a ring map, so this is the determinant over Z[ζ]."""
    coeffs = [0] * euler_phi_prime_power(p, k)
    for e, c in enumerate(det_int_poly_matrix(
            [[x.coeffs for x in row] for row in m])):
        _add_monomial(coeffs, e, c, p, k)
    return CyclotomicInteger(p, k, tuple(coeffs))


def _random_square(rng, p, k, n):
    """A random n×n matrix over Z[ζ_{p^k}] with some zero entries; one case
    in four has a row that is a Z[ζ]-combination of two others, one in
    eight a zero column."""
    zero = CyclotomicInteger.from_int(p, k, 0)
    m = [[random_element(rng, p, k) if rng.random() < 0.8 else zero
          for _ in range(n)] for _ in range(n)]
    roll = rng.random()
    if n >= 3 and roll < 0.25:
        a, b, c = rng.sample(range(n), 3)
        x, y = random_element(rng, p, k), random_element(rng, p, k)
        m[c] = [cyclotomic_sum(x * u, y * v) for u, v in zip(m[a], m[b])]
    elif n >= 1 and roll < 0.375:
        j = rng.randrange(n)
        for row in m:
            row[j] = zero
    return m


def test_det_cyclotomic_matches_oracles(monkeypatch):
    divisors = []
    exact_div = CyclotomicInteger.exact_div

    def counted(a, b):
        divisors.append(b)
        return exact_div(a, b)

    monkeypatch.setattr(CyclotomicInteger, "exact_div", counted)
    rng = random.Random(34)
    singular = 0
    for p, k in [(2, 1), (2, 3), (3, 1), (3, 2), (5, 1), (7, 1), (13, 1)]:
        for n in [0, 1, 2, 3, 4, 5, 6, 3, 4, 5]:
            m = _random_square(rng, p, k, n)
            det = det_cyclotomic(p, k, m)
            assert det == _lifted_det(p, k, m)
            if n <= 4:
                assert det == _leibniz_det(p, k, m)
            singular += det.is_zero()
    assert singular >= 5
    # non-rational pivots send exact_div through its Fraction inverse
    assert sum(not d.is_rational() for d in divisors) >= 50
