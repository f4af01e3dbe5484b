import itertools
import random

import pytest

from graphtower import TowerGroupSpec
from graphtower.cyclotomic import galois_images
from graphtower.errors import PreconditionError
from graphtower.grouprings import (Character, character_adjacency,
                                   characters, galois_orbits, nrd_abelian,
                                   orbit_h_values, orbit_nrd,
                                   regular_det_fits)
from graphtower.linalg import det_int

from conftest import (ORACLE_SHAPES, GroupRingElement, GroupRingMatrix,
                      adjacency_matrix, as_int, augmentation, reduced_norm,
                      character_evaluate, character_power,
                      cyclotomic_constant, cyclotomic_product,
                      cyclotomic_sum, generator, leibniz_det,
                      group_ring_element, group_ring_zero, identity, lift,
                      oracle_instance, orbit_units, project,
                      regular_representation, root_power, voltage_adjacency,
                      voltage_laplacian)


def group_ring_one(spec, level):
    return group_ring_element(spec, level, identity(spec))


def group_ring_product(x, y):
    """x·y in Z[G^(n)]: Σ c·d·(g h) over the terms c·g of x and d·h of y."""
    assert x.level == y.level
    acc = {}
    for g, c in x.terms:
        for h, d in y.terms:
            gh = x.spec.multiply(x.level, g, h)
            acc[gh] = acc.get(gh, 0) + c * d
    return GroupRingElement.from_terms(x.spec, x.level, acc)


def sigma_element(spec, n, index=0, coeff=1):
    return group_ring_element(spec, n, generator(spec, index, n), coeff)


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
    assert product.terms == ((spec.normal_form(2, [(0, 1), (1, 1)]), 1),)


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
    expected = cyclotomic_sum(cyclotomic_constant(3, 1, 1),
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
                    cyclotomic_product(character_evaluate(chi, a),
                                       character_evaluate(chi, b)))
            assert (character_evaluate(chi, a + b) ==
                    cyclotomic_sum(character_evaluate(chi, a),
                                   character_evaluate(chi, b)))


def test_nrd_sigma_over_z2():
    spec = TowerGroupSpec("abelian", 2, rank=1)
    m = GroupRingMatrix(spec, 1, ((sigma_element(spec, 1),),))
    values = {chi.exponents: as_int(v) for chi, v in reduced_norm(m)}
    assert values == {(0,): 1, (1,): -1}


def test_nrd_trivial_group_is_integer_det():
    spec = TowerGroupSpec("abelian", 3, rank=1)
    m = GroupRingMatrix(spec, 0, (
        (GroupRingElement.constant(spec, 0, 2),
         GroupRingElement.constant(spec, 0, 1)),
        (GroupRingElement.constant(spec, 0, 1),
         GroupRingElement.constant(spec, 0, 2))))
    [(chi, value)] = reduced_norm(m)
    assert as_int(value) == 3


def test_regular_det_examples():
    spec = TowerGroupSpec("abelian", 2, rank=1)
    m = GroupRingMatrix(spec, 1, ((sigma_element(spec, 1),),))
    assert det_int(regular_representation(m)) == -1
    scalar = GroupRingMatrix(spec, 1,
                             ((GroupRingElement.constant(spec, 1, 2),),))
    assert det_int(regular_representation(scalar)) == 4


def test_regular_det_is_product_of_character_dets():
    rng = random.Random(43)
    for spec, n in [(TowerGroupSpec("abelian", 2, rank=1), 2),
                    (TowerGroupSpec("abelian", 3, rank=1), 1),
                    (TowerGroupSpec("abelian", 3, rank=2), 1)]:
        for _ in range(4):
            m = random_matrix(rng, spec, n, 2)
            product = cyclotomic_constant(spec.p, n, 1)
            for _, value in reduced_norm(m):
                product = cyclotomic_product(product, value)
            assert as_int(product) == det_int(
                regular_representation(m))


def test_nrd_projection_compatibility():
    # the χ-component at the lower level matches the pulled-back character
    rng = random.Random(44)
    spec = TowerGroupSpec("abelian", 3, rank=1)
    for _ in range(5):
        m = random_matrix(rng, spec, 2, 2)
        projected = project(m, 1)
        low = {chi.exponents: v for chi, v in reduced_norm(projected)}
        high = {chi.exponents: v for chi, v in reduced_norm(m)}
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
        lhs = dict((chi.exponents, v) for chi, v in reduced_norm(block))
        rhs_c = dict((chi.exponents, v) for chi, v in reduced_norm(c))
        for chi in characters(spec, 1):
            expected = cyclotomic_product(rhs_c[chi.exponents],
                                          character_evaluate(chi, a))
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
        prod = dict((chi.exponents, v)
                    for chi, v in reduced_norm(matmul(a, b)))
        na = dict((chi.exponents, v) for chi, v in reduced_norm(a))
        nb = dict((chi.exponents, v) for chi, v in reduced_norm(b))
        for exps, value in prod.items():
            assert value == cyclotomic_product(na[exps], nb[exps])


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
    orbits = list(galois_orbits(chars))
    for chi, units, conjugates in orbits:
        size = len(units)
        orbit = {tuple(a * e % mod for e in chi.exponents)
                 for a in range(1, mod + 1) if a % p}
        assert len(set(conjugates)) == size and set(conjugates) == orbit
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
    assert sum(len(units) for _, units, _ in orbits) == len(chars) == \
        spec.order(level)


def test_galois_orbits_need_an_abelian_quotient():
    with pytest.raises(PreconditionError):
        list(galois_orbits(characters(TowerGroupSpec("metacyclic", 3), 1)))


# (p, rank, level): abelian p = 2, 3, 5 and 7 at rank 1-3, levels 0-3
_BUILDER_SHAPES = list(itertools.product((2, 3, 5, 7), (1, 2, 3), range(4)))


def _some_characters(rng, spec, level, count=6):
    """Every character of G^(level) when there are at most `count`, else
    the trivial one and count − 1 random ones."""
    if spec.order(level) <= count:
        return characters(spec, level)
    mod = spec.p ** level
    return [Character(spec, level, (0,) * spec.rank)] + [
        Character(spec, level,
                  tuple(rng.randrange(mod) for _ in range(spec.rank)))
        for _ in range(count - 1)]


def test_character_adjacency_matches_the_oracle():
    """χ(A_α) from the normal forms equals χ applied term by term to the
    oracle's A_α over Z[G^(n)], on seeded bases with a loop, a parallel
    edge and exponents of ±10^12."""
    rng = random.Random(47)
    for p, rank, level in _BUILDER_SHAPES:
        for _ in range(2):
            alpha = oracle_instance(rng, "abelian", p, rank)
            oracle = voltage_adjacency(alpha, level).entries
            edges = alpha.normal_form_edges(level)
            for chi in _some_characters(rng, alpha.spec, level):
                entries = character_adjacency(chi, edges)
                assert all(map(any, entries.values()))
                assert adjacency_matrix(
                    chi, alpha.base.num_vertices, entries) == [
                    [character_evaluate(chi, x) for x in row]
                    for row in oracle]


def test_nrd_abelian_matches_the_oracle():
    rng = random.Random(48)
    for p, rank, level in [(2, 1, 2), (2, 2, 1), (2, 3, 1), (3, 1, 2),
                           (3, 2, 1), (5, 1, 1), (7, 1, 1)]:
        for _ in range(2):
            alpha = oracle_instance(rng, "abelian", p, rank)
            components = nrd_abelian(alpha.spec, level,
                                     alpha.normal_form_edges(level),
                                     alpha.base.degrees())
            assert components == reduced_norm(
                voltage_laplacian(alpha, level))


def test_regular_representation_of_the_laplacian_is_singular():
    """The regular representation of D − A_α^t is the Laplacian of X_n, so
    its determinant is 0, abelian and metacyclic, with loops and parallel
    edges, up to the size bound: the 0 that fitting prints uncomputed."""
    rng = random.Random(49)
    checked = 0
    for (kind, p, rank), level in itertools.product(
            [*ORACLE_SHAPES, ("abelian", 7, 1)], range(4)):
        for _ in range(2):
            alpha = oracle_instance(rng, kind, p, rank)
            if regular_det_fits(alpha.spec, level, alpha.base.num_vertices):
                assert det_int(regular_representation(
                    voltage_laplacian(alpha, level))) == 0
                checked += 1
    assert checked >= 60


# (p, rank, level) with p = 2, 3, 5, 7, 13, rank 1-3 and level 0-3, where
# |G^(level)| is within the enumeration bound 729
_LIFT_SHAPES = [(p, rank, level) for p in (2, 3, 5, 7, 13)
                for rank in (1, 2, 3) for level in range(4)
                if p ** (rank * level) <= 729]


@pytest.mark.parametrize("p, rank, level", _LIFT_SHAPES)
def test_orbit_h_values_match_the_oracle(p, rank, level):
    """For the first character χ of each Galois orbit and each unit a,
    ``galois_images`` at a reads h(χ^a, 1) off the determinant of
    ``orbit_h_values`` and the χ^a-component off that of ``orbit_nrd``,
    which lifts ``character_adjacency`` instead.  They are det χ^−a and
    det χ^a of the oracle's D − A_α^t over Z[G^(n)], with the character
    applied term by term, and so is ``nrd_abelian``'s χ^a-component, for
    every character."""
    rng = random.Random(50 + 100 * p + 10 * rank + level)
    for _ in range(2):
        alpha = oracle_instance(rng, "abelian", p, rank)
        edges = alpha.normal_form_edges(level)
        degrees = alpha.base.degrees()
        laplacian = voltage_laplacian(alpha, level).entries
        expected = {chi.exponents: leibniz_det(p, level, [
            [character_evaluate(chi, x) for x in row] for row in laplacian])
            for chi in characters(alpha.spec, level)}
        components = {chi.exponents: value for chi, value in
                      nrd_abelian(alpha.spec, level, edges, degrees)}
        checked = set()
        for chi, listed_units, _ in galois_orbits(
                characters(alpha.spec, level)):
            size = len(listed_units)
            units = orbit_units(chi)
            j = chi.order_level
            h_values = galois_images(
                p, level, j, orbit_h_values(chi, edges, degrees), units)
            nrd = galois_images(
                p, level, j, orbit_nrd(chi, edges, degrees), units)
            assert len(units) == len(h_values) == len(nrd) == size
            for a, h_value, component in zip(units, h_values, nrd):
                power = character_power(chi, a).exponents
                inverse = character_power(chi, -a).exponents
                assert h_value == expected[inverse].coeffs
                assert component == expected[power].coeffs
                assert components[power] == expected[power]
                checked.add(power)
        assert checked == set(expected) == set(components)
