import random

import pytest

from graphtower import TowerGroupSpec
from graphtower.errors import BoundExceededError
from graphtower.groups import p_valuation

from conftest import (ORACLE_EXPONENTS, ORACLE_SHAPES, evaluate_word,
                      generator, identity, inverse, is_generating_set,
                      oracle_spec, project_element)


def test_word_evaluate_abelian():
    spec = TowerGroupSpec("abelian", 3, rank=1)
    assert spec.normal_form(2, [(0, 4), (0, 7)]) == (2,)
    assert spec.normal_form(2, [(0, -1)]) == (8,)


def test_word_evaluate_metacyclic_relation():
    # τ·σ = σ^u·τ with u = 4 at p = 3, n = 2
    spec = TowerGroupSpec("metacyclic", 3, action_unit=4)
    result = spec.normal_form(2, [(1, 1), (0, 1)])
    assert result == (4, 1)


def test_enumerate_sizes():
    assert len(TowerGroupSpec("abelian", 3, rank=2).enumerate_group(1)) == 9
    assert len(TowerGroupSpec("abelian", 2, rank=1).enumerate_group(1)) == 2
    assert len(TowerGroupSpec("metacyclic", 3).enumerate_group(1)) == 9


def test_enumerate_bound():
    spec = TowerGroupSpec("abelian", 3, rank=2)
    with pytest.raises(BoundExceededError):
        spec.enumerate_group(4)


def test_project():
    spec = TowerGroupSpec("abelian", 3, rank=1)
    g = spec.normal_form(2, [(0, 5)])
    assert project_element(spec, 2, g, 1) == (2,)
    meta = TowerGroupSpec("metacyclic", 3, action_unit=4)
    h = meta.normal_form(2, [(0, 4), (1, 7)])
    assert project_element(meta, 2, h, 1) == (1, 1)
    with pytest.raises(ValueError):
        project_element(spec, 2, g, 3)


def test_projection_is_homomorphism():
    rng = random.Random(21)
    for spec in (TowerGroupSpec("abelian", 3, rank=2),
                 TowerGroupSpec("metacyclic", 3),
                 TowerGroupSpec("metacyclic", 2, action_unit=3)):
        elements = spec.enumerate_group(2)
        for _ in range(50):
            a, b = rng.choice(elements), rng.choice(elements)
            assert (project_element(spec, 2, spec.multiply(2, a, b), 1) ==
                    spec.multiply(1, project_element(spec, 2, a, 1),
                                  project_element(spec, 2, b, 1)))


def test_group_axioms_random():
    rng = random.Random(22)
    for spec in (TowerGroupSpec("abelian", 2, rank=3),
                 TowerGroupSpec("metacyclic", 3),
                 TowerGroupSpec("metacyclic", 5, action_unit=6)):
        n = 1 if spec.p == 5 else 2
        elements = spec.enumerate_group(n)
        e = identity(spec)
        for _ in range(40):
            a, b, c = (rng.choice(elements) for _ in range(3))
            assert (spec.multiply(n, spec.multiply(n, a, b), c) ==
                    spec.multiply(n, a, spec.multiply(n, b, c)))
            assert spec.multiply(n, a, e) == a
            assert spec.multiply(n, a, inverse(spec, n, a)) == e


def test_filtration_index():
    for spec in (TowerGroupSpec("abelian", 3, rank=2),
                 TowerGroupSpec("metacyclic", 3)):
        for n in range(1, 3):
            assert spec.order(n) // spec.order(n - 1) == spec.p ** spec.dimension


def test_generating_sets():
    spec = TowerGroupSpec("abelian", 3, rank=1)
    assert is_generating_set(spec, [generator(spec, 0, 1)])
    # σ^p at level 1 projects to the identity
    deep = spec.normal_form(2, [(0, 3)])
    assert not is_generating_set(spec, [project_element(spec, 2, deep, 1)])
    meta = TowerGroupSpec("metacyclic", 3)
    assert is_generating_set(meta, [generator(meta, 0, 1),
                                    generator(meta, 1, 1)])
    assert not is_generating_set(meta, [generator(meta, 0, 1)])


@pytest.mark.parametrize("kind, p, rank", ORACLE_SHAPES)
def test_normal_forms_and_translations_match_multiply(kind, p, rank):
    """At levels 0-4, a word's normal form is the product of its generator
    powers, `enumerate_group` lists the normal forms in mixed-radix order,
    and a right translation is g ↦ g·a by `multiply`, element by element,
    wherever G^(n) is within the enumeration bound."""
    rng = random.Random(f"{kind}{p}{rank}")
    spec = oracle_spec(kind, p, rank)
    for n in range(5):
        for _ in range(20):
            word = [(rng.randrange(spec.num_generators),
                     rng.choice(ORACLE_EXPONENTS + (rng.randint(-99, 99),)))
                    for _ in range(rng.randint(0, 4))]
            assert spec.normal_form(n, word) == evaluate_word(spec, n, word)
        if spec.order_exceeds(n, 729):
            continue
        group = spec.enumerate_group(n)
        mod = p ** n
        assert [sum(x * mod ** t for t, x in enumerate(reversed(g)))
                for g in group] == list(range(len(group)))
        for a in [group[0], group[-1], *rng.sample(group, min(3, len(group)))]:
            assert [group[k] for k in spec.right_translation(n, a)] == [
                spec.multiply(n, g, a) for g in group]


def test_invalid_specs():
    with pytest.raises(ValueError):
        TowerGroupSpec("abelian", 4, rank=1)
    with pytest.raises(ValueError):
        TowerGroupSpec("metacyclic", 3, action_unit=2)
    with pytest.raises(ValueError):
        TowerGroupSpec("dihedral", 3)


def test_p_valuation():
    assert p_valuation(18, 3) == 2
    assert p_valuation(-27, 3) == 3
    assert p_valuation(7, 2) == 0
    with pytest.raises(ValueError):
        p_valuation(0, 5)


def test_word_with_an_invalid_generator_index():
    for spec in (TowerGroupSpec("abelian", 3, rank=2),
                 TowerGroupSpec("metacyclic", 3)):
        for index in (-1, 2):
            with pytest.raises(ValueError, match="generator index"):
                spec.normal_form(1, [(0, 1), (index, 1)])
