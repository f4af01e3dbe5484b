import random
from collections import Counter

import pytest

import graphtower.jacobian
from graphtower import (Multigraph, QuotientSpec, TowerGroupSpec,
                        VoltageAssignment, component_count,
                        connectivity_criterion, cover_index_pairs,
                        level_jacobian, quotient_assignment)
from graphtower.errors import BoundExceededError, DisconnectedError
from graphtower.graphs import laplacian_rows
from graphtower.voltage import edge_translations

from conftest import (ORACLE_EXPONENTS, ORACLE_SHAPES, GroupRingElement, act,
                      augmentation, components, cover_graph,
                      criterion_by_betas, dense_laplacian, derive, doubled,
                      evaluate_word, identity, inverse, oracle_instance,
                      oracle_spec, project_element,
                      random_abelian_instance, random_connected_multigraph,
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
    assert component_count(*cover_index_pairs(alpha, 1)) == 3


def test_loop_voltage_generator_gives_cycle():
    for n in (1, 2):
        g = cover_graph(z3_loop(), n)
        assert g.num_vertices == 3 ** n
        assert g.num_edges == 3 ** n
        assert components(g) == 1
        assert g.degrees() == [2] * g.num_vertices


def test_counts_and_size_guard():
    alpha, level = random_abelian_instance(random.Random(51))
    num_vertices, pairs = cover_index_pairs(alpha, level)
    order = alpha.spec.order(level)
    assert num_vertices == order * alpha.base.num_vertices
    assert len(pairs) == order * alpha.base.num_edges
    with pytest.raises(BoundExceededError):
        cover_index_pairs(z3_loop(), 9)


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
            words = dict(alpha.voltages)
            for n in range(top + 1):
                group = spec.enumerate_group(n)
                translations = edge_translations(alpha, n)
                for (e, _), translation in zip(alpha.base.edges,
                                               translations):
                    a = evaluate_word(spec, n, words[e])
                    assert spec.normal_form(n, words[e]) == a
                    assert [group[k] for k in translation] == [
                        spec.multiply(n, g, a) for g in group]
                captured.clear()
                try:
                    level_jacobian(alpha, n)
                except DisconnectedError:
                    pass
                dense = dense_laplacian(derive(alpha, n))
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
                graph = derive(alpha, n)
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
            dense = dense_laplacian(derive(alpha, n))
            translations = edge_translations(alpha, n)
            rows = laplacian_rows(base.num_vertices, base.index_pairs(),
                                  translations, alpha.spec.order(n))
            assert rows == [{j - 1: v for j, v in enumerate(row) if v and j}
                            for row in dense[1:]]


def test_galois_action_is_automorphism():
    rng = random.Random(52)
    for _ in range(8):
        alpha, level = random_abelian_instance(rng)
        cover = cover_graph(alpha, level)
        edge_multiset = Counter(
            frozenset([v, w]) for _, (v, w) in cover.edges)
        for g in alpha.spec.enumerate_group(level)[:4]:
            mapped = Counter(
                frozenset([act(alpha.spec, level, g, v),
                           act(alpha.spec, level, g, w)])
                for _, (v, w) in cover.edges)
            assert mapped == edge_multiset


def test_quotient_by_action_recovers_base():
    rng = random.Random(53)
    for _ in range(8):
        alpha, level = random_abelian_instance(rng)
        cover = cover_graph(alpha, level)
        order = alpha.spec.order(level)
        projected = Counter(e for (e, _), _ in cover.edges)
        assert projected == Counter(
            {eid: order for eid, _ in alpha.base.edges})


def test_tower_compatibility():
    rng = random.Random(54)
    for _ in range(6):
        alpha, level = random_abelian_instance(rng)
        if level < 2:
            continue
        low = cover_graph(alpha, level - 1)
        high = cover_graph(alpha, level)
        spec = alpha.spec
        pushed = Counter(
            frozenset([(v, project_element(spec, level, g, level - 1)),
                       (w, project_element(spec, level, h, level - 1))])
            for _, ((v, g), (w, h)) in high.edges)
        expected = Counter(
            frozenset([v, w]) for _, (v, w) in low.edges)
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


def test_criterion_matches_the_beta_route_on_larger_bases():
    """The same agreement on bases of 2-12 vertices with up to 10 extra
    edges, past the 1-3 vertices of `oracle_instance`, over (Z/p^n)^d for
    p = 2, 3, 5, 7 and d = 1-4 and both metacyclic shapes, with words of
    0-2 letters.  The base beside a disjoint copy of itself, carrying the
    same words, has a cycle in each component and raises DisconnectedError
    on both routes."""
    rng = random.Random(61)
    verdicts = Counter()
    shapes = [*(("abelian", p, rank) for p in (2, 3, 5, 7)
                for rank in (1, 2, 3, 4)),
              ("metacyclic", 2, 2), ("metacyclic", 3, 2)]
    for kind, p, rank in shapes:
        spec = oracle_spec(kind, p, rank)
        for _ in range(8):
            base = random_connected_multigraph(rng, max_vertices=12,
                                               max_extra_edges=10)
            words = {e: [[rng.randrange(spec.dimension),
                          rng.choice(ORACLE_EXPONENTS)]
                         for _ in range(rng.randint(0, 2))]
                     for e, _ in base.edges}
            alpha = VoltageAssignment.build(base, spec, words)
            expected = criterion_by_betas(alpha)
            assert connectivity_criterion(alpha) == expected
            verdicts[expected] += 1
            twice = Multigraph.build(
                [*base.vertices, *((v, "copy") for v in base.vertices)],
                [*base.edges, *(((e, "copy"), ((v, "copy"), (w, "copy")))
                                for e, (v, w) in base.edges)])
            split = VoltageAssignment.build(twice, spec, {
                **words, **{(e, "copy"): words[e] for e, _ in base.edges}})
            for criterion in (connectivity_criterion, criterion_by_betas):
                with pytest.raises(DisconnectedError):
                    criterion(split)
    assert verdicts[True] > 40 and verdicts[False] > 20


def test_criterion_reads_the_rank_mod_p():
    """Two loops of voltages (1, 2) and (2, 1) over (Z/p^n)^2: their
    β-values have determinant −3, so they span (Z/p)^2 for p = 5 but not
    for p = 3, though their rank over Z is 2 for both."""
    loops = Multigraph.build(["v"], [("a", ("v", "v")), ("b", ("v", "v"))])
    for p, connected in ((3, False), (5, True)):
        alpha = VoltageAssignment.build(
            loops, TowerGroupSpec("abelian", p, rank=2),
            {"a": [[0, 1], [1, 2]], "b": [[0, 2], [1, 1]]})
        assert connectivity_criterion(alpha) is criterion_by_betas(alpha)
        assert criterion_by_betas(alpha) is connected
        assert (components(derive(alpha, 1)) == 1) is connected


def test_criterion_predicts_connectedness():
    """A passing criterion gives connected X_1 and X_2, and a failing one a
    disconnected X_1, both read off the group-element `derive`."""
    rng = random.Random(57)
    failing = 0
    for _ in range(30):
        alpha, _ = random_abelian_instance(rng)
        if connectivity_criterion(alpha):
            assert [components(derive(alpha, n)) for n in (1, 2)] == [1, 1]
        else:
            assert components(derive(alpha, 1)) > 1
            failing += 1
    assert failing >= 10


def test_quotient_assignment():
    spec = TowerGroupSpec("metacyclic", 3)
    base = loop_graph()
    alpha = VoltageAssignment.build(base, spec, {"e": [[0, 1], [1, 2]]})
    quotient = quotient_assignment(alpha, QuotientSpec((0, 1)))
    assert quotient.spec.kind == "abelian" and quotient.spec.rank == 1
    assert dict(quotient.voltages)["e"] == ((0, 2),)
    with pytest.raises(ValueError):
        QuotientSpec((1, 0)).validate(spec)
    with pytest.raises(ValueError):
        QuotientSpec((0, 3)).validate(spec)


def test_missing_voltage_rejected():
    spec = TowerGroupSpec("abelian", 3, rank=1)
    with pytest.raises(ValueError):
        VoltageAssignment.build(loop_graph(), spec, {})
