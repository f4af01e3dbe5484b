import itertools
import random
from collections import Counter

import pytest

import graphtower.zeta
from graphtower import (Character, Multigraph, TowerGroupSpec,
                        VoltageAssignment, artin_l_inverse,
                        cover_zeta_inverse, factorization_check,
                        ihara_zeta_inverse, interpolation_check)
from graphtower.cyclotomic import euler_phi_prime_power, galois_images
from graphtower.grouprings import (character_adjacency, characters,
                                   galois_orbits, orbit_h_values)
from graphtower.linalg import det_int_poly_matrix
from graphtower.polynomials import PolynomialRing, _normalize
from graphtower.voltage import cover_index_pairs, cover_involution
from graphtower.zeta import artin_l_norm

from conftest import (GroupRingElement, GroupRingMatrix, adjacency_matrix,
                      as_int, character_evaluate, character_power,
                      cyclotomic_constant, cyclotomic_difference,
                      cyclotomic_product, cyclotomic_sum, derive,
                      det_in_ring, graph_matrices, graph_zeta, oracle_instance,
                      orbit_units, random_abelian_instance,
                      random_connected_multigraph, reduced_norm,
                      voltage_adjacency, voltage_laplacian)


def loop_graph():
    return Multigraph.build(["v"], [("e", ("v", "v"))])


def test_zeta_triangle():
    data = ihara_zeta_inverse(3, [(0, 1), (1, 2), (2, 0)])
    # (1 − u³)²
    assert data.chi == 0
    assert data.det_part == (1, 0, 0, -2, 0, 0, 1)


def test_zeta_single_loop():
    data = graph_zeta(loop_graph())
    assert data.chi == 0
    assert data.det_part == (1, -2, 1)


def test_zeta_tree_is_trivial():
    data = graph_zeta(Multigraph.build([0, 1], [(0, (0, 1))]))
    assert data.chi == 1
    assert data.det_part == (1, 0, -1)  # 1 − u² cancels (1−u²)^1


def test_zeta_constant_term_is_one():
    rng = random.Random(71)
    for _ in range(10):
        alpha, _ = random_abelian_instance(rng)
        data = graph_zeta(alpha.base)
        assert data.det_part[0] == 1


def _unreduced_rows(num_vertices, pairs):
    """The whole matrix I − Au + (D−I)u² as sparse rows, with no Schur
    complement."""
    rows = [{i: [1, 0, -1]} for i in range(num_vertices)]
    for i, j in pairs:
        for a, b in ((i, j), (j, i)):
            rows[a][a][2] += 1
            rows[a].setdefault(b, [0, 0])[1] -= 1
    return rows


def _dense_zeta_det(graph):
    """det(I − Au + (D−I)u²) by the reference Bareiss over Z[u], on the
    dense matrices of graph_matrices."""
    mats = graph_matrices(graph)
    n = graph.num_vertices
    entries = [[_normalize((int(i == j), -mats.A[i][j],
                            mats.D[i][j] - int(i == j)))
                for j in range(n)] for i in range(n)]
    return tuple(det_in_ring(entries, PolynomialRing()))


def test_zeta_matches_bareiss_on_small_graphs():
    """ihara_zeta_inverse, with or without its Schur complement, against
    the dense matrices of graph_matrices and the reference Bareiss, and
    against the whole matrix's sparse rows, on random multigraphs with
    loops, parallel edges and leaves, some with a second component or an
    isolated vertex, on random edge lists of any shape, and on edgeless
    graphs."""
    rng = random.Random(76)
    graphs = [Multigraph.build(range(n), []) for n in range(4)]
    for _ in range(40):
        graph = random_connected_multigraph(rng, max_vertices=7,
                                            max_extra_edges=8)
        if rng.random() < 0.3:  # a second component
            graph = Multigraph.build((*graph.vertices, "x"),
                                     (*graph.edges, ("y", ("x", "x"))))
        if rng.random() < 0.3:
            graph = Multigraph.build((*graph.vertices, "isolated"),
                                     graph.edges)
        graphs.append(graph)
    for _ in range(80):
        n = rng.randint(1, 9)
        graphs.append(Multigraph.build(range(n), list(enumerate(
            (rng.randrange(n), rng.randrange(n))
            for _ in range(rng.randint(0, 2 * n))))))
    for graph in graphs:
        data = graph_zeta(graph)
        assert data.det_part == _dense_zeta_det(graph)
        assert data.det_part == det_int_poly_matrix(
            _unreduced_rows(graph.num_vertices, graph.index_pairs()))
        assert data.chi == graph_matrices(graph).chi


def test_trivial_character_recovers_zeta():
    rng = random.Random(72)
    for _ in range(6):
        alpha, level = random_abelian_instance(rng)
        trivial = Character(alpha.spec, level, (0,) * alpha.spec.rank)
        [det_part] = artin_l_inverse(trivial, [1],
                                     *_norm_inputs(alpha, level))
        expected = graph_zeta(alpha.base).det_part
        assert [as_int(c) for c in det_part] == list(expected)


def test_sign_character_loop_over_z2():
    spec = TowerGroupSpec("abelian", 2, rank=1)
    alpha = VoltageAssignment.build(loop_graph(), spec, {"e": [[0, 1]]})
    sign = Character(spec, 1, (1,))
    base_data = _norm_inputs(alpha, 1)
    [det_part] = artin_l_inverse(sign, [1], *base_data)
    # det(1 + 2u + u²) = (1 + u)²
    assert [as_int(c) for c in det_part] == [1, 2, 1]
    # h(sign, 1) = det(D − sign(A_α)) = 2 − (−2), and sign is its own
    # conjugate
    assert as_int(dict(reduced_norm(voltage_laplacian(alpha, 1)))[sign]) == 4


def test_h_at_one_trivial_character_vanishes():
    """h(1, 1) is the determinant of the base Laplacian, by the oracle and
    by the lifted orbit determinant."""
    rng = random.Random(73)
    for _ in range(6):
        alpha, level = random_abelian_instance(rng)
        trivial = Character(alpha.spec, level, (0,) * alpha.spec.rank)
        [(chi, value), *_] = reduced_norm(voltage_laplacian(alpha, level))
        assert chi == trivial and not any(value.coeffs)
        [value] = galois_images(alpha.spec.p, level, 0, orbit_h_values(
            trivial, *_norm_inputs(alpha, level)), [1])
        assert not any(value)


def _edge_adjacency(alpha, n):
    """Σ_σ A(σ)·σ read off the edges of X_n, as `derive` builds it:
    A(σ)_ij counts the edges between (v_i, 1) and (v_j, σ), a loop at
    (v_i, 1) twice in A(1)."""
    spec, base = alpha.spec, alpha.base
    index = {v: i for i, v in enumerate(base.vertices)}
    m = base.num_vertices
    identity = (0,) * spec.dimension
    terms = [[Counter() for _ in range(m)] for _ in range(m)]
    for _, ((v, g), (w, h)) in derive(alpha, n).edges:
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
                _edge_adjacency(alpha, level))


def test_character_adjacency_reads_the_cover_edges():
    """χ(A_α) from the normal forms equals χ applied to the adjacency read
    off the edges of X_n, on seeded abelian bases with a loop, a parallel
    edge and exponents of ±10^12, p = 2, 3, 5 and 7, rank 1-3, levels 0-3
    (up to |G^(n)| = 125)."""
    rng = random.Random(76)
    checked = 0
    for p, rank, level in itertools.product((2, 3, 5, 7), (1, 2, 3),
                                            range(4)):
        spec = TowerGroupSpec("abelian", p, rank=rank)
        if spec.order(level) > 125:
            continue
        alpha = oracle_instance(rng, "abelian", p, rank)
        edges = alpha.normal_form_edges(level)
        cover = _edge_adjacency(alpha, level).entries
        chars = characters(spec, level)
        for chi in rng.sample(chars, min(len(chars), 8)):
            assert adjacency_matrix(chi, alpha.base.num_vertices,
                                    character_adjacency(chi, edges)) == [
                [character_evaluate(chi, x) for x in row] for row in cover]
        checked += 1
    assert checked >= 25


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
    assert graph_zeta(derive(alpha, 1)).det_part == (
        1, 0, 0, -2, 0, 0, 1)


def test_factorization_trivial_group_tautology():
    spec = TowerGroupSpec("abelian", 3, rank=1)
    alpha = VoltageAssignment.build(loop_graph(), spec, {"e": [[0, 1]]})
    assert factorization_check(alpha, 0).passed


def _poly_product(p, k, factors):
    """Schoolbook product of polynomials over Z[ζ_{p^k}], each a tuple of
    u-coefficients."""
    zero = cyclotomic_constant(p, k, 0)
    product = (cyclotomic_constant(p, k, 1),)
    for factor in factors:
        out = [zero] * (len(product) + len(factor) - 1)
        for i, x in enumerate(product):
            for j, y in enumerate(factor):
                out[i + j] = cyclotomic_sum(out[i + j],
                                             cyclotomic_product(x, y))
        product = tuple(out)
    return product


def _leibniz_det(p, k, matrix):
    """Determinant over Z[ζ_{p^k}][u] by the Leibniz expansion, trimmed."""
    m = len(matrix)
    total = [cyclotomic_constant(p, k, 0)] * (2 * m + 1)
    for perm in itertools.permutations(range(m)):
        inversions = sum(perm[i] > perm[j]
                         for i in range(m) for j in range(i + 1, m))
        term = _poly_product(p, k, [matrix[i][perm[i]] for i in range(m)])
        for d, c in enumerate(term):
            total[d] = (cyclotomic_difference if inversions % 2 else
                        cyclotomic_sum)(total[d], c)
    while total and not any(total[-1].coeffs):
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
    """The det part of every character's L-function, read off one packed
    determinant per Galois orbit, is the Leibniz expansion of
    I − χ(A_α)u + (D − I)u² over Z[ζ][u], with the character applied term
    by term to the oracle's A_α, on seeded bases, some with many parallel
    edges and loops, so a wide packing."""
    rng = random.Random(75)
    instances = [random_abelian_instance(rng, max_vertices=4)
                 for _ in range(20)]
    instances += [_dense_parallel_instance(rng) for _ in range(10)]
    for alpha, level in instances:
        p, m = alpha.spec.p, alpha.base.num_vertices

        def const(c):
            return cyclotomic_constant(p, level, c)

        adjacency = voltage_adjacency(alpha, level)
        degrees = graph_matrices(alpha.base).D
        base_data = _norm_inputs(alpha, level)
        checked = 0
        for chi, _, _ in galois_orbits(characters(alpha.spec, level)):
            units = orbit_units(chi)
            for a, det_part in zip(units, artin_l_inverse(chi, units,
                                                          *base_data)):
                power = character_power(chi, a)
                # I − A_χ u + (D − I)u², with A_χ = χ^a(A_α)
                matrix = [[(const(int(i == j)),
                            cyclotomic_difference(const(0), character_evaluate(
                                power, adjacency.entries[i][j])),
                            const(degrees[i][j] - int(i == j)))
                           for j in range(m)] for i in range(m)]
                assert det_part == _leibniz_det(p, level, matrix)
                checked += 1
        assert checked == alpha.spec.order(level)


# (p, rank, level) with |G^(level)| ≤ 64, for the orbit-norm oracle
_ORBIT_SHAPES = [
    (2, 1, 1), (2, 1, 2), (2, 1, 3), (2, 2, 1), (2, 2, 2), (2, 3, 1),
    (2, 3, 2), (3, 1, 1), (3, 1, 2), (3, 1, 3), (3, 2, 1), (3, 3, 1),
    (5, 1, 1), (5, 1, 2), (5, 2, 1), (7, 1, 1), (7, 2, 1),
]


def _random_orbit_instance(rng, shape=None):
    """A random abelian voltage assignment on a base of 1-4 vertices, with
    at most 36 rows in the largest orbit determinant, of a random shape
    unless one is given."""
    p, rank, level = shape or rng.choice(_ORBIT_SHAPES)
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


def _norm_inputs(alpha, level):
    """artin_l_norm's base data: each edge's end indices and level-n normal
    form, and the degrees."""
    return alpha.normal_form_edges(level), alpha.base.degrees()


def test_artin_l_norm_is_the_orbit_product_of_l_functions():
    rng = random.Random(77)
    instances = [_random_orbit_instance(rng) for _ in range(40)]
    # p = 7 (φ = 6) and rank 3, whatever the random shapes
    instances += [_random_orbit_instance(rng, shape) for shape in
                  [(7, 1, 1), (7, 2, 1), (2, 3, 1), (2, 3, 2), (3, 3, 1)]]
    for alpha, level in instances:
        p = alpha.spec.p
        base_data = _norm_inputs(alpha, level)
        for chi, listed_units, _ in galois_orbits(
                characters(alpha.spec, level)):
            size = len(listed_units)
            units = orbit_units(chi)
            assert len(units) == size
            product = _poly_product(p, level, artin_l_inverse(
                chi, units, *base_data))
            norm = artin_l_norm(chi, *base_data)
            assert product == tuple(cyclotomic_constant(p, level, c)
                                    for c in norm)


def test_every_character_l_function_multiplies_to_cover_zeta():
    rng = random.Random(78)
    for _ in range(10):
        alpha, level = random_abelian_instance(rng, max_vertices=3)
        base_data = _norm_inputs(alpha, level)
        factors = []
        for chi, _, _ in galois_orbits(characters(alpha.spec, level)):
            factors += artin_l_inverse(chi, orbit_units(chi), *base_data)
        assert len(factors) == alpha.spec.order(level)
        product = _poly_product(alpha.spec.p, level, factors)
        zeta = graph_zeta(derive(alpha, level))
        assert [as_int(c) for c in product] == list(zeta.det_part)
        assert len(factors) * graph_matrices(alpha.base).chi == zeta.chi


def test_factorization_check_catches_a_corrupted_sigma_matrix(monkeypatch):
    """One extra edge of voltage σ ≠ 1 on the orbit-norm side alone, which
    adds σ at (i, j) and σ⁻¹ at (j, i) of A_α, breaks the match."""
    rng = random.Random(79)
    original = graphtower.zeta.artin_l_norm
    for _ in range(12):
        alpha, level = random_abelian_instance(rng)
        assert factorization_check(alpha, level).passed
        spec, m = alpha.spec, alpha.base.num_vertices
        sigma = rng.choice([s for s in spec.enumerate_group(level)
                            if any(s)])
        extra = (rng.randrange(m), rng.randrange(m), sigma)

        def corrupted(chi, edges, degrees):
            return original(chi, [*edges, extra], degrees)

        monkeypatch.setattr(graphtower.zeta, "artin_l_norm", corrupted)
        assert not factorization_check(alpha, level).polynomial_match
        monkeypatch.setattr(graphtower.zeta, "artin_l_norm", original)


def _record_packed(monkeypatch):
    """Record the sparse rows of every matrix ihara_zeta_inverse packs."""
    packed = []
    kernel = graphtower.zeta.det_int_poly_matrix

    def recorded(rows):
        packed.append(rows)
        return kernel(rows)

    monkeypatch.setattr(graphtower.zeta, "det_int_poly_matrix", recorded)
    return packed


def _assert_packed_form(rows, bipartite):
    """A bipartite graph's matrix is packed in w = u², each entry of at
    most 3 coefficients; any other graph's in u, each entry of 5 (u⁰..u⁴).
    """
    lengths = {len(entry) for row in rows for entry in row.values()}
    if bipartite:
        assert lengths <= {1, 2, 3}
    else:
        assert lengths == {5}


def _biregular_pairs(rng, left, right, degree):
    """A random bipartite multigraph with parts 0..left − 1 and
    left..left + right − 1, every left vertex of the given degree and every
    right vertex of degree left·degree/right."""
    stubs = [v for v in range(left, left + right)
             for _ in range(left * degree // right)]
    rng.shuffle(stubs)
    return [(i, stubs[i * degree + k]) for i in range(left)
            for k in range(degree)]


def _schur_cases(rng):
    """(vertex count, pairs, rows packed) on the shapes the reduction has to
    get right, and on shapes where it declines."""
    cases = [(n, [], 0) for n in range(4)]  # edgeless: T is empty
    for left, right, degree in [(2, 2, 1), (3, 3, 2), (4, 4, 3), (5, 5, 2),
                                (4, 2, 1), (6, 3, 2), (6, 4, 2), (8, 2, 1)]:
        # biregular: the larger part, of the smaller degree, is S
        cases.append((left + right, _biregular_pairs(rng, left, right, degree),
                      min(left, right)))
    for k in range(3, 8):  # K_{2,k}: |S| = k > |T| = 2, c = 1 + u²
        cases.append((k + 2, [(i, j) for i in range(2)
                              for j in range(2, k + 2)], 2))
    for k in (3, 4):  # K_{2,k} and an edge inside T: a triangle, and fires
        cases.append((k + 2, [(0, 1)] + [(i, j) for i in range(2)
                                         for j in range(2, k + 2)], 2))
    for n in range(3, 7):  # K_n, and a loop at every vertex: declines
        cases.append((n, list(itertools.combinations(range(n), 2)), n))
        cases.append((n, [(i, i) for i in range(n)] + [(0, 1)], n))
    # cycles, odd and even, and bipartite shapes
    for n in range(3, 11):  # cycles: an even one fires, S every other vertex
        cases.append((n, [(i, (i + 1) % n) for i in range(n)],
                      n if n % 2 else n // 2))
    for n, rows in [(2, 1), (3, 1), (4, 2), (5, 5), (6, 6), (7, 7)]:  # paths
        cases.append((n, [(i, i + 1) for i in range(n - 1)], rows))
    for k in range(1, 5):  # stars K_{1,k}: S is the leaves
        cases.append((k + 1, [(0, j) for j in range(1, k + 1)], 1))
    trees = [(n, [(v, rng.randrange(v)) for v in range(1, n)])
             for n in (6, 8, 9)]
    cycle, k23 = (4, [(0, 1), (1, 2), (2, 3), (3, 0)]), (5, [
        (i, j) for i in range(2) for j in range(2, 5)])
    for graphs, rows in [(trees[:1], 3), (trees[1:2], 2),
                         (trees[1:], 7),  # a forest
                         ([cycle, k23, (1, [])], 5)]:
        cases.append((*_disjoint_union(*graphs), rows))
    for left, right, multiplicity, rows in [
            (2, 3, 2, 2), (3, 3, 2, 3), (3, 4, 3, 3),
            (3, 4, None, 7), (4, 4, None, 8)]:
        # K_{m,n} with parallel edges, of one multiplicity, or of random
        # multiplicities, whose unequal degrees make the step decline
        pairs = [(i, j) for i in range(left)
                 for j in range(left, left + right)
                 for _ in range(multiplicity or rng.randint(1, 3))]
        cases.append((left + right, pairs, rows))
    for left, right, degree, rows in [(4, 4, 3, 8), (6, 3, 2, 4),
                                      (5, 5, 2, 10)]:
        # biregular plus one more edge between the parts: the step fires
        # on the 5 left vertices of degree 2 of (6, 3, 2) and declines on
        # the others
        pairs = _biregular_pairs(rng, left, right, degree)
        cases.append((left + right, pairs + [(0, left)], rows))
    return cases


def _disjoint_union(*graphs):
    """The disjoint union of graphs given as (vertex count, pairs)."""
    total, pairs = 0, []
    for n, edges in graphs:
        pairs += [(i + total, j + total) for i, j in edges]
        total += n
    return total, pairs


def test_schur_complement_matches_the_whole_matrix(monkeypatch):
    """Each case against both oracles, with the packed row count, and with
    its entries in w = u² exactly when the oracle's determinant is even in
    u, which it is exactly on a bipartite graph (a closed non-backtracking
    walk round an odd cycle counts in an odd coefficient of log ζ)."""
    packed = _record_packed(monkeypatch)
    rng = random.Random(80)
    kinds = Counter()
    for num_vertices, pairs, rows in _schur_cases(rng):
        packed.clear()
        data = ihara_zeta_inverse(num_vertices, pairs)
        expected = det_int_poly_matrix(_unreduced_rows(num_vertices, pairs))
        assert [len(matrix) for matrix in packed] == [rows]
        assert data.chi == num_vertices - len(pairs)
        assert data.det_part == expected
        assert data.det_part == _dense_zeta_det(
            Multigraph.build(range(num_vertices), list(enumerate(pairs))))
        bipartite = not any(expected[1::2])
        _assert_packed_form(packed[0], bipartite)
        kinds[bipartite, len(packed[0]) < num_vertices] += 1
    # fired and declined, bipartite and not
    assert len(kinds) == 4


def test_schur_complement_on_covers_of_two_vertex_bases(monkeypatch):
    """Over a 2-vertex base whose vertex 0 has no loop the fibre over it is
    S, and the packed matrix has |G| rows.  With one loop at vertex 0 and
    two at vertex 1 the fibres differ in degree and each holds at most
    |G|/2 independent loop-free vertices, so the reduction declines.  Over
    odd p a loop lifts to odd cycles, so the matrix is packed in u; over
    p = 2 the loop voltages make the cover bipartite, and packed in w = u²,
    or not, and both occur."""
    packed = _record_packed(monkeypatch)
    rng = random.Random(82)
    kinds = Counter()
    for p, rank, level in [(2, 1, 1), (2, 1, 2), (2, 1, 3), (2, 2, 1),
                           (2, 2, 2), (3, 1, 1), (3, 1, 2), (3, 2, 1),
                           (5, 1, 1)]:
        spec = TowerGroupSpec("abelian", p, rank=rank)
        size = spec.order(level)
        for loops in ((0, rng.randint(1, 2)), (1, 2)):
            edges = [(0, 1)] * rng.randint(1, 3)
            edges += [(v, v) for v in range(2) for _ in range(loops[v])]
            graph = Multigraph.build(range(2), list(enumerate(edges)))
            voltages = {eid: [[g, rng.randrange(p ** level)]
                              for g in range(rank)]
                        for eid, _ in graph.edges}
            alpha = VoltageAssignment.build(graph, spec, voltages)
            num_vertices, pairs = cover_index_pairs(alpha, level)
            packed.clear()
            data = ihara_zeta_inverse(num_vertices, pairs)
            expected = det_int_poly_matrix(_unreduced_rows(num_vertices,
                                                           pairs))
            assert [len(matrix) for matrix in packed] == [
                size if loops[0] == 0 else 2 * size]
            assert data.det_part == expected
            bipartite = not any(expected[1::2])
            _assert_packed_form(packed[0], bipartite)
            kinds[p, bipartite] += 1
            if num_vertices <= 16:
                assert data.det_part == _dense_zeta_det(
                    Multigraph.build(range(num_vertices),
                                     list(enumerate(pairs))))
    assert kinds[2, True] and kinds[2, False] and kinds[3, False]
    assert not kinds[3, True] and not kinds[5, True]


def _split_cases(rng):
    """(alpha, level) over the abelian p = 2 groups of ranks 1-3 and the
    metacyclic p = 2 group (u = 3), at levels 1-3, on 2-vertex bases: with
    a loop-free v0, where the Schur step fires on X_n/σ, or with loops at
    both vertices, where it does not, and with a loop of voltage c, the
    element that σ multiplies by, at v1 or at v0 besides the others.  The
    64-element group takes a 1-vertex base with loops."""
    groups = [(TowerGroupSpec("abelian", 2, rank=rank), level)
              for rank, levels in ((1, (1, 2, 3)), (2, (1, 2)), (3, (1,)))
              for level in levels]
    groups += [(TowerGroupSpec("metacyclic", 2), level)
               for level in (1, 2, 3)]
    cases = []
    for spec, level in groups:
        mod = 2 ** level
        c = [[0, mod // 2]]
        shapes = [(2, (0, 1), 1), (2, (1, 1), None), (2, (0, 2), None),
                  (2, (1, 2), 0)]
        if spec.order(level) == 64:
            # one base vertex: the unsplit determinant of a 128-vertex cover
            # of a 2-vertex base takes minutes
            shapes = [(1, (2,), 0), (1, (3,), None)]
        for nv, loops, c_loop in shapes:
            ends = [(0, 1)] * rng.randint(1, 2) if nv == 2 else []
            ends += [(v, v) for v in range(nv) for _ in range(loops[v])]
            words = [[[g, rng.randrange(mod)] for g in range(spec.dimension)]
                     for _ in ends]
            if c_loop is not None:
                ends.append((c_loop, c_loop))
                words.append(c)
            graph = Multigraph.build(range(nv), list(enumerate(ends)))
            cases.append((VoltageAssignment.build(
                graph, spec, dict(enumerate(words))), level))
    return cases


def test_split_by_the_involution_matches_the_unsplit_determinant(
        monkeypatch):
    """For p = 2 and n ≥ 1, ``cover_zeta_inverse`` takes the two halves of
    X_n split by its involution σ, each with at most |V|/2 rows, and
    prints the polynomial that ``ihara_zeta_inverse`` of the same pairs
    gives unsplit, in one matrix of at most |V| rows.  Bipartite covers and
    others occur, with the Schur step firing on X_n/σ and declining, and
    bipartite covers whose quotient is not, packed in u; loops of voltage
    c become loops of X_n/σ.  At level 0 and for odd p there is no
    split."""
    packed = _record_packed(monkeypatch)
    kinds = Counter()
    for alpha, level in _split_cases(random.Random(88)):
        num_vertices, pairs = cover_index_pairs(alpha, level)
        packed.clear()
        unsplit = ihara_zeta_inverse(num_vertices, pairs)
        assert len(packed) == 1 and len(packed[0]) <= num_vertices
        packed.clear()
        assert cover_zeta_inverse(alpha, level) == unsplit
        half = num_vertices // 2
        rows = [len(matrix) for matrix in packed]
        assert len(rows) == 2 and rows[0] == rows[1] <= half
        # X_n/σ is bipartite only if X_n is; at level 1 σ can swap the
        # colours of a bipartite X_n, and then X_n/σ has an odd cycle
        lengths = {len(entry) for matrix in packed for row in matrix
                   for entry in row.values()}
        in_w = lengths <= {1, 2, 3}
        assert in_w or lengths == {5}
        bipartite = not any(unsplit.det_part[1::2])
        assert bipartite or not in_w
        kinds[bipartite, in_w, rows[0] < half] += 1
    assert {(b, s) for b, _, s in kinds} == {(False, False), (False, True),
                                            (True, False), (True, True)}
    assert (True, False, True) in kinds or (True, False, False) in kinds
    for alpha, level in [(_split_cases(random.Random(89))[0][0], 0),
                         (oracle_instance(random.Random(90), "abelian", 3, 1),
                          1)]:
        packed.clear()
        assert cover_involution(alpha, level) is None
        assert cover_zeta_inverse(alpha, level) == ihara_zeta_inverse(
            *cover_index_pairs(alpha, level))
        assert len(packed) == 2


@pytest.mark.parametrize("sigma, message", [
    ([1, 0, 3, 2, 4, 5], "not a fixed-point-free involution"),
    ([1, 2, 0, 4, 5, 3], "not a fixed-point-free involution"),
    ([1, 0, 3, 2], "not a fixed-point-free involution"),
    ([2, 3, 0, 1, 5, 4], "does not map edges to edges"),
    # v ↦ 3 − v maps every edge to an edge and every loop to a loop, but
    # the doubled edge 0–1 onto the single edge 3–2
    ([3, 2, 1, 0, 5, 4], "does not map edges to edges"),
    # v ↦ 1 − v maps every edge to an edge with its multiplicity, but the
    # looped vertex 0 onto the loop-free 1
    ([1, 0, 5, 4, 3, 2], "does not map edges to edges"),
])
def test_an_involution_that_fails_its_check_raises(sigma, message):
    """σ is checked on the graph's own pairs before the split: a fixed
    point, a 3-cycle, a permutation of the wrong length, one that maps an
    edge to a non-edge, and two that map every edge to an edge but not
    with its multiplicity (a doubled edge, a loop) raise ArithmeticError.
    The graph is a 6-cycle with the edges 0–1 and 3–4 doubled and loops at
    0 and 3; the antipodal σ passes."""
    pairs = [(v, (v + 1) % 6) for v in range(6)] + [(0, 1), (3, 4),
                                                    (0, 0), (3, 3)]
    antipodal = [(v + 3) % 6 for v in range(6)]
    assert ihara_zeta_inverse(6, pairs, antipodal) == ihara_zeta_inverse(
        6, pairs)
    with pytest.raises(ArithmeticError, match=message):
        ihara_zeta_inverse(6, pairs, sigma)
