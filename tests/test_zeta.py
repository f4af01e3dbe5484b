import itertools
import random
from collections import Counter

import graphtower.zeta
from graphtower import (Character, Multigraph, TowerGroupSpec,
                        VoltageAssignment, artin_l_inverse, derive,
                        factorization_check, h_at_one, ihara_zeta_inverse,
                        interpolation_check, voltage_adjacency)
from graphtower.cyclotomic import CyclotomicInteger, euler_phi_prime_power
from graphtower.grouprings import (GroupRingElement, GroupRingMatrix,
                                   character_evaluate, characters,
                                   galois_orbits)
from graphtower.graphs import graph_matrices
from graphtower.polynomials import PolynomialRing, _normalize
from graphtower.zeta import artin_l_norm

from conftest import (as_int, cyclotomic_sum, det_in_ring,
                      group_ring_element, random_abelian_instance,
                      random_connected_multigraph)


def loop_graph():
    return Multigraph.build(["v"], [("e", ("v", "v"))])


def test_zeta_triangle():
    data = ihara_zeta_inverse(Multigraph.build(
        [0, 1, 2], [(0, (0, 1)), (1, (1, 2)), (2, (2, 0))]))
    # (1 − u³)²
    assert data.chi == 0
    assert data.det_part.coeffs == (1, 0, 0, -2, 0, 0, 1)


def test_zeta_single_loop():
    data = ihara_zeta_inverse(loop_graph())
    assert data.chi == 0
    assert data.det_part.coeffs == (1, -2, 1)


def test_zeta_tree_is_trivial():
    data = ihara_zeta_inverse(Multigraph.build([0, 1], [(0, (0, 1))]))
    assert data.chi == 1
    assert data.det_part.coeffs == (1, 0, -1)  # 1 − u² cancels (1−u²)^1


def test_zeta_constant_term_is_one():
    rng = random.Random(71)
    for _ in range(10):
        alpha, _ = random_abelian_instance(rng)
        data = ihara_zeta_inverse(alpha.base)
        assert data.det_part.coeffs[0] == 1


def test_zeta_matches_bareiss_on_small_graphs():
    rng = random.Random(76)
    ring = PolynomialRing()
    for _ in range(40):
        graph = random_connected_multigraph(rng, max_vertices=7,
                                            max_extra_edges=8)
        if rng.random() < 0.3:  # a second component
            graph = Multigraph.build((*graph.vertices, "x"),
                                     (*graph.edges, ("y", ("x", "x"))))
        mats = graph_matrices(graph)
        n = graph.num_vertices
        entries = [[_normalize((int(i == j), -mats.A[i][j],
                                mats.D[i][j] - int(i == j)))
                    for j in range(n)] for i in range(n)]
        assert (ihara_zeta_inverse(graph).det_part.coeffs ==
                tuple(det_in_ring(entries, ring)))


def test_trivial_character_recovers_zeta():
    rng = random.Random(72)
    for _ in range(6):
        alpha, level = random_abelian_instance(rng)
        trivial = Character(alpha.spec, level, (0,) * alpha.spec.rank)
        data = artin_l_inverse(alpha, level, trivial,
                               voltage_adjacency(alpha, level))
        expected = ihara_zeta_inverse(alpha.base).det_part
        assert [as_int(c) for c in data.det_part] == list(expected.coeffs)


def test_sign_character_loop_over_z2():
    spec = TowerGroupSpec("abelian", 2, rank=1)
    alpha = VoltageAssignment.build(loop_graph(), spec, {"e": [[0, 1]]})
    sign = Character(spec, 1, (1,))
    adjacency = voltage_adjacency(alpha, 1)
    data = artin_l_inverse(alpha, 1, sign, adjacency)
    # det(1 + 2u + u²) = (1 + u)²
    assert [as_int(c) for c in data.det_part] == [1, 2, 1]
    assert as_int(h_at_one(alpha, 1, sign, adjacency)) == 4


def test_h_at_one_trivial_character_vanishes():
    rng = random.Random(73)
    for _ in range(6):
        alpha, level = random_abelian_instance(rng)
        trivial = Character(alpha.spec, level, (0,) * alpha.spec.rank)
        assert h_at_one(alpha, level, trivial,
                        voltage_adjacency(alpha, level)).is_zero()


def _edge_adjacency(cover):
    """Σ_σ A(σ)·σ read off the edges of X_n: A(σ)_ij counts the edges
    between (v_i, 1) and (v_j, σ), a loop at (v_i, 1) twice in A(1)."""
    spec, base, n = cover.spec, cover.alpha.base, cover.level
    index = {v: i for i, v in enumerate(base.vertices)}
    m = base.num_vertices
    identity = spec.identity(n)
    terms = [[Counter() for _ in range(m)] for _ in range(m)]
    for _, ((v, g), (w, h)) in cover.graph.edges:
        i, j = index[v], index[w]
        if (v, g) == (w, h):
            if g == identity:
                terms[i][i][identity] += 2
            continue
        if g == identity:
            terms[i][j][h] += 1
        if h == identity:
            terms[j][i][g] += 1
    return GroupRingMatrix(spec, n, tuple(
        tuple(GroupRingElement.from_terms(spec, n, t) for t in row)
        for row in terms))


def test_sigma_matrices_sum_to_lifted_adjacency():
    # Σ_σ A(σ)·σ, read off the cover's edges, is exactly A_α
    rng = random.Random(74)
    for _ in range(6):
        alpha, level = random_abelian_instance(rng)
        assert (voltage_adjacency(alpha, level) ==
                _edge_adjacency(derive(alpha, level)))


def test_interpolation_loop_over_z2():
    spec = TowerGroupSpec("abelian", 2, rank=1)
    alpha = VoltageAssignment.build(loop_graph(), spec, {"e": [[0, 1]]})
    report = interpolation_check(alpha, 1)
    assert report.all_pass
    assert len(report.results) == 2


def test_interpolation_trivial_group():
    spec = TowerGroupSpec("abelian", 3, rank=1)
    alpha = VoltageAssignment.build(loop_graph(), spec, {"e": [[0, 1]]})
    report = interpolation_check(alpha, 0)
    assert report.all_pass and len(report.results) == 1


def test_factorization_loop_over_z3():
    spec = TowerGroupSpec("abelian", 3, rank=1)
    alpha = VoltageAssignment.build(loop_graph(), spec, {"e": [[0, 1]]})
    report = factorization_check(alpha, 1)
    assert report.passed
    # and the cover really is the 3-cycle with det part (1 − u³)²
    cover = derive(alpha, 1)
    assert ihara_zeta_inverse(cover.graph).det_part.coeffs == (1, 0, 0, -2, 0, 0, 1)


def test_factorization_trivial_group_tautology():
    spec = TowerGroupSpec("abelian", 3, rank=1)
    alpha = VoltageAssignment.build(loop_graph(), spec, {"e": [[0, 1]]})
    assert factorization_check(alpha, 0).passed


def _poly_product(p, k, factors):
    """Schoolbook product of polynomials over Z[ζ_{p^k}], each a tuple of
    u-coefficients."""
    zero = CyclotomicInteger.from_int(p, k, 0)
    product = (CyclotomicInteger.from_int(p, k, 1),)
    for factor in factors:
        out = [zero] * (len(product) + len(factor) - 1)
        for i, x in enumerate(product):
            for j, y in enumerate(factor):
                out[i + j] = cyclotomic_sum(out[i + j], x * y)
        product = tuple(out)
    return product


def _leibniz_det(p, k, matrix):
    """Determinant over Z[ζ_{p^k}][u] by the Leibniz expansion, trimmed."""
    m = len(matrix)
    total = [CyclotomicInteger.from_int(p, k, 0)] * (2 * m + 1)
    for perm in itertools.permutations(range(m)):
        inversions = sum(perm[i] > perm[j]
                         for i in range(m) for j in range(i + 1, m))
        term = _poly_product(p, k, [matrix[i][perm[i]] for i in range(m)])
        for d, c in enumerate(term):
            total[d] = cyclotomic_sum(total[d],
                                      -c if inversions % 2 else c)
    while total and total[-1].is_zero():
        total.pop()
    return tuple(total)


def _dense_parallel_instance(rng):
    """2-4 vertices joined by many parallel edges and loops, so the row
    norms, and the packing width B, are large."""
    p, level = rng.choice([(2, 3), (3, 2), (5, 1), (7, 1)])
    spec = TowerGroupSpec("abelian", p, rank=1)
    nv = rng.randint(2, 4)
    edges = [(v, v - 1) for v in range(1, nv)]
    edges += [(rng.randrange(nv), rng.randrange(nv))
              for _ in range(rng.randint(6, 12))]
    graph = Multigraph.build(range(nv), list(enumerate(edges)))
    voltages = {eid: [[0, rng.randrange(p ** level)]]
                for eid, _ in graph.edges}
    return VoltageAssignment.build(graph, spec, voltages), level


def test_artin_l_inverse_matches_leibniz_expansion():
    rng = random.Random(75)
    instances = [random_abelian_instance(rng, max_vertices=4)
                 for _ in range(20)]
    instances += [_dense_parallel_instance(rng) for _ in range(10)]
    for alpha, level in instances:
        p, m = alpha.spec.p, alpha.base.num_vertices

        def const(c):
            return CyclotomicInteger.from_int(p, level, c)

        adjacency = voltage_adjacency(alpha, level)
        degrees = graph_matrices(alpha.base).D
        for chi in characters(alpha.spec, level):
            # I − A_χ u + (D − I)u², with A_χ = χ(A_α)
            matrix = [[(const(int(i == j)),
                        -character_evaluate(chi, adjacency.entries[i][j]),
                        const(degrees[i][j] - int(i == j)))
                       for j in range(m)] for i in range(m)]
            data = artin_l_inverse(alpha, level, chi, adjacency)
            assert data.det_part == _leibniz_det(p, level, matrix)


# (p, rank, level) with |G^(level)| ≤ 64, for the orbit-norm oracle
_ORBIT_SHAPES = [
    (2, 1, 1), (2, 1, 2), (2, 1, 3), (2, 2, 1), (2, 2, 2), (2, 3, 1),
    (2, 3, 2), (3, 1, 1), (3, 1, 2), (3, 1, 3), (3, 2, 1), (3, 3, 1),
    (5, 1, 1), (5, 1, 2), (5, 2, 1), (7, 1, 1), (7, 2, 1),
]


def _random_orbit_instance(rng):
    """A random abelian voltage assignment on a base of 1-4 vertices, with
    at most 36 rows in the largest orbit determinant."""
    p, rank, level = rng.choice(_ORBIT_SHAPES)
    spec = TowerGroupSpec("abelian", p, rank=rank)
    nv = rng.randint(1, min(4, 36 // euler_phi_prime_power(p, level)))
    edges = [(v, rng.randrange(v)) for v in range(1, nv)]
    edges += [(rng.randrange(nv), rng.randrange(nv))
              for _ in range(rng.randint(1, 3))]
    graph = Multigraph.build(range(nv), list(enumerate(edges)))
    mod = p ** level
    voltages = {eid: [[i, rng.randrange(mod)] for i in range(rank)
                      if rng.random() < 0.7]
                for eid, _ in graph.edges}
    return VoltageAssignment.build(graph, spec, voltages), level


def test_artin_l_norm_is_the_orbit_product_of_l_functions():
    rng = random.Random(77)
    for _ in range(40):
        alpha, level = _random_orbit_instance(rng)
        p, mod = alpha.spec.p, alpha.spec.p ** level
        adjacency = voltage_adjacency(alpha, level)
        for chi, size in galois_orbits(alpha.spec, level):
            orbit = {tuple(a * e % mod for e in chi.exponents)
                     for a in range(1, mod) if a % p}
            assert len(orbit) == size
            product = _poly_product(p, level, [
                artin_l_inverse(alpha, level,
                                Character(alpha.spec, level, exponents),
                                adjacency).det_part
                for exponents in sorted(orbit)])
            norm = artin_l_norm(alpha, level, chi, adjacency)
            assert product == tuple(CyclotomicInteger.from_int(p, level, c)
                                    for c in norm.coeffs)


def test_every_character_l_function_multiplies_to_cover_zeta():
    rng = random.Random(78)
    for _ in range(10):
        alpha, level = random_abelian_instance(rng, max_vertices=3)
        adjacency = voltage_adjacency(alpha, level)
        factors, exponent = [], 0
        for chi in characters(alpha.spec, level):
            data = artin_l_inverse(alpha, level, chi, adjacency)
            factors.append(data.det_part)
            exponent += data.chi
        product = _poly_product(alpha.spec.p, level, factors)
        zeta = ihara_zeta_inverse(derive(alpha, level).graph)
        assert [as_int(c) for c in product] == list(zeta.det_part.coeffs)
        assert exponent == zeta.chi


def test_factorization_check_catches_a_corrupted_sigma_matrix(monkeypatch):
    rng = random.Random(79)
    original = graphtower.zeta.voltage_adjacency

    def corrupted(alpha, n):
        matrix = original(alpha, n)
        spec = alpha.spec
        sigma = rng.choice(sorted((s for s in spec.enumerate_group(n)
                                   if s != spec.identity(n)),
                                  key=lambda s: s.data))
        entries = [list(row) for row in matrix.entries]
        i, j = rng.randrange(matrix.size), rng.randrange(matrix.size)
        entries[i][j] = entries[i][j] + group_ring_element(spec, sigma)
        return GroupRingMatrix(matrix.spec, matrix.level,
                               tuple(map(tuple, entries)))

    for _ in range(12):
        alpha, level = random_abelian_instance(rng)
        assert factorization_check(alpha, level).passed
        monkeypatch.setattr(graphtower.zeta, "voltage_adjacency", corrupted)
        assert not factorization_check(alpha, level).polynomial_match
        monkeypatch.setattr(graphtower.zeta, "voltage_adjacency", original)
