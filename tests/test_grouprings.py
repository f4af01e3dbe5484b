import random

import pytest

from graphtower import TowerGroupSpec
from graphtower.cyclotomic import CyclotomicInteger
from graphtower.errors import LevelMismatchError, PreconditionError
from graphtower.grouprings import (Character, GroupRingElement,
                                   GroupRingMatrix, character_evaluate,
                                   characters, galois_orbits, nrd_abelian,
                                   regular_det)

from conftest import (as_int, augmentation, cyclotomic_sum,
                      group_ring_element, group_ring_zero, lift, project,
                      root_power)


def group_ring_one(spec, level):
    return group_ring_element(spec, spec.identity(level))


def group_ring_product(x, y):
    """x·y in Z[G^(n)]: Σ c·d·(g h) over the terms c·g of x and d·h of y."""
    assert x.level == y.level
    acc = {}
    for g, c in x.terms:
        for h, d in y.terms:
            gh = x.spec.multiply(g, h)
            acc[gh] = acc.get(gh, 0) + c * d
    return GroupRingElement.from_terms(x.spec, x.level, acc)


def sigma_element(spec, n, index=0, coeff=1):
    return group_ring_element(spec, spec.generator(index, n), coeff)


def random_ring_element(rng, spec, n, size=3):
    elements = spec.enumerate_group(n)
    terms = {}
    for _ in range(size):
        g = rng.choice(elements)
        terms[g] = terms.get(g, 0) + rng.randint(-4, 4)
    return GroupRingElement.from_terms(spec, n, terms)


def random_matrix(rng, spec, n, size):
    return GroupRingMatrix(spec, n, tuple(
        tuple(random_ring_element(rng, spec, n) for _ in range(size))
        for _ in range(size)))


def test_zero_divisor_in_z2():
    spec = TowerGroupSpec("abelian", 2, rank=1)
    one = group_ring_one(spec, 1)
    sigma = sigma_element(spec, 1)
    assert not group_ring_product(one + sigma, one - sigma).terms


def test_identity_and_normal_form():
    spec = TowerGroupSpec("metacyclic", 3, action_unit=4)
    one = group_ring_one(spec, 2)
    x = random_ring_element(random.Random(0), spec, 2)
    assert group_ring_product(one, x) == x
    sigma = sigma_element(spec, 2, index=0)
    tau = sigma_element(spec, 2, index=1)
    product = group_ring_product(sigma, tau)
    assert product.terms == ((spec.word_evaluate(2, [(0, 1), (1, 1)]), 1),)


def test_level_mismatch():
    spec = TowerGroupSpec("abelian", 3, rank=1)
    with pytest.raises(LevelMismatchError):
        group_ring_one(spec, 1) + group_ring_one(spec, 2)


def test_character_trivial_is_augmentation():
    spec = TowerGroupSpec("abelian", 3, rank=2)
    rng = random.Random(41)
    trivial = Character(spec, 1, (0, 0))
    for _ in range(10):
        x = random_ring_element(rng, spec, 1)
        assert as_int(character_evaluate(trivial, x)) == augmentation(x)


def test_character_linearity_example():
    spec = TowerGroupSpec("abelian", 3, rank=1)
    chi = Character(spec, 1, (1,))
    one = group_ring_one(spec, 1)
    sigma = sigma_element(spec, 1)
    value = character_evaluate(chi, one + sigma)
    expected = cyclotomic_sum(CyclotomicInteger.from_int(3, 1, 1),
                              root_power(3, 1, 1))
    assert value == expected


def test_character_sign_example():
    spec = TowerGroupSpec("abelian", 2, rank=1)
    chi = Character(spec, 1, (1,))  # σ ↦ −1
    x = GroupRingElement.constant(spec, 1, 2) - sigma_element(spec, 1)
    assert as_int(character_evaluate(chi, x)) == 3


def test_character_evaluate_is_ring_hom():
    rng = random.Random(42)
    spec = TowerGroupSpec("abelian", 3, rank=2)
    for chi in characters(spec, 1):
        for _ in range(5):
            a = random_ring_element(rng, spec, 1)
            b = random_ring_element(rng, spec, 1)
            assert (character_evaluate(chi, group_ring_product(a, b)) ==
                    character_evaluate(chi, a) * character_evaluate(chi, b))
            assert (character_evaluate(chi, a + b) ==
                    cyclotomic_sum(character_evaluate(chi, a),
                                   character_evaluate(chi, b)))


def test_nrd_sigma_over_z2():
    spec = TowerGroupSpec("abelian", 2, rank=1)
    m = GroupRingMatrix(spec, 1, ((sigma_element(spec, 1),),))
    values = {chi.exponents: as_int(v) for chi, v in nrd_abelian(m)}
    assert values == {(0,): 1, (1,): -1}


def test_nrd_trivial_group_is_integer_det():
    spec = TowerGroupSpec("abelian", 3, rank=1)
    m = GroupRingMatrix(spec, 0, (
        (GroupRingElement.constant(spec, 0, 2),
         GroupRingElement.constant(spec, 0, 1)),
        (GroupRingElement.constant(spec, 0, 1),
         GroupRingElement.constant(spec, 0, 2))))
    [(chi, value)] = nrd_abelian(m)
    assert as_int(value) == 3


def test_regular_det_examples():
    spec = TowerGroupSpec("abelian", 2, rank=1)
    m = GroupRingMatrix(spec, 1, ((sigma_element(spec, 1),),))
    assert regular_det(m) == -1
    scalar = GroupRingMatrix(spec, 1, ((GroupRingElement.constant(spec, 1, 2),),))
    assert regular_det(scalar) == 4


def test_regular_det_is_product_of_character_dets():
    rng = random.Random(43)
    for spec, n in [(TowerGroupSpec("abelian", 2, rank=1), 2),
                    (TowerGroupSpec("abelian", 3, rank=1), 1),
                    (TowerGroupSpec("abelian", 3, rank=2), 1)]:
        for _ in range(4):
            m = random_matrix(rng, spec, n, 2)
            product = CyclotomicInteger.from_int(spec.p, n, 1)
            for _, value in nrd_abelian(m):
                product = product * value
            assert as_int(product) == regular_det(m)


def test_nrd_projection_compatibility():
    # the χ-component at the lower level matches the pulled-back character
    rng = random.Random(44)
    spec = TowerGroupSpec("abelian", 3, rank=1)
    for _ in range(5):
        m = random_matrix(rng, spec, 2, 2)
        projected = project(m, 1)
        low = {chi.exponents: v for chi, v in nrd_abelian(projected)}
        high = {chi.exponents: v for chi, v in nrd_abelian(m)}
        for exps, value in low.items():
            # χ of G^(1) pulls back to the character 3·exps of G^(2)
            pulled = tuple(3 * e for e in exps)
            assert high[pulled] == lift(value, 2)


def test_nrd_block_triangular_multiplicativity():
    rng = random.Random(45)
    spec = TowerGroupSpec("abelian", 3, rank=1)
    zero = group_ring_zero(spec, 1)
    for _ in range(6):
        c = random_matrix(rng, spec, 1, 2)
        a = random_ring_element(rng, spec, 1)
        star = [random_ring_element(rng, spec, 1) for _ in range(2)]
        block = GroupRingMatrix(spec, 1, (
            (*c.entries[0], zero),
            (*c.entries[1], zero),
            (star[0], star[1], a)))
        lhs = dict((chi.exponents, v) for chi, v in nrd_abelian(block))
        rhs_c = dict((chi.exponents, v) for chi, v in nrd_abelian(c))
        for chi in characters(spec, 1):
            expected = rhs_c[chi.exponents] * character_evaluate(chi, a)
            assert lhs[chi.exponents] == expected


def test_nrd_multiplicative_in_matrix_products():
    rng = random.Random(46)
    spec = TowerGroupSpec("abelian", 2, rank=2)

    def matmul(x, y):
        size = x.size
        entries = []
        for i in range(size):
            row = []
            for j in range(size):
                acc = group_ring_zero(spec, x.level)
                for k in range(size):
                    acc = acc + group_ring_product(x.entries[i][k],
                                                   y.entries[k][j])
                row.append(acc)
            entries.append(tuple(row))
        return GroupRingMatrix(spec, x.level, tuple(entries))

    for _ in range(4):
        a = random_matrix(rng, spec, 1, 2)
        b = random_matrix(rng, spec, 1, 2)
        prod = dict((chi.exponents, v) for chi, v in nrd_abelian(matmul(a, b)))
        na = dict((chi.exponents, v) for chi, v in nrd_abelian(a))
        nb = dict((chi.exponents, v) for chi, v in nrd_abelian(b))
        for exps, value in prod.items():
            assert value == na[exps] * nb[exps]


def test_characters_need_an_abelian_quotient():
    spec = TowerGroupSpec("metacyclic", 3)
    with pytest.raises(PreconditionError):
        characters(spec, 1)
    with pytest.raises(PreconditionError):
        Character(spec, 1, (0, 0))


@pytest.mark.parametrize("p, rank, level", [
    (2, 1, 0), (2, 1, 3), (2, 2, 2), (2, 3, 2), (3, 1, 3), (3, 2, 2),
    (3, 3, 1), (5, 1, 2), (5, 2, 1), (7, 1, 2), (3, 6, 1), (3, 1, 6),
])
def test_galois_orbits_partition_characters(p, rank, level):
    spec = TowerGroupSpec("abelian", p, rank=rank)
    chars = characters(spec, level)
    position = {chi.exponents: i for i, chi in enumerate(chars)}
    mod = p ** level
    covered = set()
    previous = -1
    orbits = galois_orbits(spec, level)
    for chi, size in orbits:
        orbit = {tuple(a * e % mod for e in chi.exponents)
                 for a in range(1, mod + 1) if a % p}
        # the representative is the first of its orbit in characters() order
        assert position[chi.exponents] == min(position[x] for x in orbit)
        assert position[chi.exponents] > previous
        previous = position[chi.exponents]
        assert not orbit & covered
        covered |= orbit
        order = next(t for t in range(1, mod + 1)
                     if all(t * e % mod == 0 for e in chi.exponents))
        assert order == p ** chi.order_level
        assert size == len(orbit) == (order - order // p if order > 1 else 1)
    assert covered == set(position)
    assert sum(size for _, size in orbits) == len(chars) == spec.order(level)


def test_galois_orbits_need_an_abelian_quotient():
    with pytest.raises(PreconditionError):
        galois_orbits(TowerGroupSpec("metacyclic", 3), 1)
