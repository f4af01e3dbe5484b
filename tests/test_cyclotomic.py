import random

from graphtower.cyclotomic import (CyclotomicInteger, euler_phi_prime_power,
                                   power_coordinates)
from graphtower.linalg import det_int

from conftest import (cyclotomic_constant, cyclotomic_difference,
                      cyclotomic_product, cyclotomic_sum, leibniz_det,
                      lifted_det, lift, root_power)


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
        one = cyclotomic_constant(p, k, 1)
        power = one
        order = p ** k
        for i in range(1, order):
            power = cyclotomic_product(power, zeta)
            assert power != one or i == order
        assert cyclotomic_product(power, zeta) == one


def test_power_coordinates_are_the_reduced_powers_of_zeta():
    """Entry s is ζ^s on the power basis, nonzero coordinates only, so the
    blocks whose column t is entry (e + t) mod p^k multiply as the powers
    of ζ do, and each has determinant N(ζ^e) = ±1."""
    for p, k in [(2, 0), (2, 1), (2, 3), (3, 1), (3, 2), (5, 1), (7, 1)]:
        table = power_coordinates(p, k)
        order, phi = p ** k, euler_phi_prime_power(p, k)
        assert len(table) == order
        assert all(c for entry in table for _, c in entry)
        assert table[:phi] == [[(s, 1)] for s in range(phi)]
        for s, entry in enumerate(table):
            assert tuple(coords_of(entry, phi)) == root_power(p, k, s).coeffs

        def block(e):
            rows = [[0] * phi for _ in range(phi)]
            for t in range(phi):
                for r, c in table[(e + t) % order]:
                    rows[r][t] = c
            return rows

        for e in range(order):
            assert abs(det_int(block(e))) == 1
            for f in range(order):
                assert matrix_product(block(e), block(f)) == block(e + f)


def coords_of(entry, phi):
    coords = [0] * phi
    for r, c in entry:
        coords[r] += c
    return coords


def matrix_product(a, b):
    return [[sum(x * y for x, y in zip(row, column)) for column in zip(*b)]
            for row in a]


def test_minimal_polynomial_relation():
    # 1 + ζ + ζ² = 0 for ζ = ζ_3
    z = root_power(3, 1, 1)
    total = cyclotomic_sum(cyclotomic_constant(3, 1, 1), z,
                           cyclotomic_product(z, z))
    assert not any(total.coeffs)


def test_ring_axioms_random():
    rng = random.Random(31)
    for p, k in [(2, 2), (3, 1), (3, 2)]:
        for _ in range(25):
            a, b, c = (random_element(rng, p, k) for _ in range(3))
            assert (cyclotomic_product(a, cyclotomic_sum(b, c)) ==
                    cyclotomic_sum(cyclotomic_product(a, b),
                                   cyclotomic_product(a, c)))
            assert cyclotomic_product(a, b) == cyclotomic_product(b, a)
            assert cyclotomic_difference(cyclotomic_sum(a, b), b) == a
            assert (cyclotomic_sum(cyclotomic_sum(a, b), c) ==
                    cyclotomic_sum(a, cyclotomic_sum(b, c)))


def test_lift_preserves_arithmetic():
    rng = random.Random(33)
    for _ in range(20):
        a = random_element(rng, 3, 1)
        b = random_element(rng, 3, 1)
        assert lift(cyclotomic_product(a, b), 2) == cyclotomic_product(
            lift(a, 2), lift(b, 2))
        assert lift(cyclotomic_sum(a, b), 2) == cyclotomic_sum(lift(a, 2),
                                                               lift(b, 2))


def _random_square(rng, p, k, n):
    """A random n×n matrix over Z[ζ_{p^k}] with some zero entries; one case
    in four has a row that is a Z[ζ]-combination of two others, one in
    eight a zero column."""
    zero = cyclotomic_constant(p, k, 0)
    m = [[random_element(rng, p, k) if rng.random() < 0.8 else zero
          for _ in range(n)] for _ in range(n)]
    roll = rng.random()
    if n >= 3 and roll < 0.25:
        a, b, c = rng.sample(range(n), 3)
        x, y = random_element(rng, p, k), random_element(rng, p, k)
        m[c] = [cyclotomic_sum(cyclotomic_product(x, u),
                               cyclotomic_product(y, v))
                for u, v in zip(m[a], m[b])]
    elif n >= 1 and roll < 0.375:
        j = rng.randrange(n)
        for row in m:
            row[j] = zero
    return m


def test_det_cyclotomic_matches_oracles():
    """The package's lifted route (``lifted_det``: one integer polynomial
    determinant and ``galois_images``) equals the Leibniz expansion on
    seeded matrices over Z[ζ], singular ones and ones whose first Bareiss
    pivots are not rational among them."""
    rng = random.Random(34)
    singular = 0
    for p, k in [(2, 1), (2, 3), (3, 1), (3, 2), (5, 1), (7, 1), (13, 1)]:
        for n in [0, 1, 2, 3, 4, 5, 6, 3, 4, 5]:
            m = _random_square(rng, p, k, n)
            det = lifted_det(p, k, m)
            assert det == leibniz_det(p, k, m)
            singular += not any(det.coeffs)
    assert singular >= 5
