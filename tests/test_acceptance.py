"""Acceptance suite: the seven headline checks, all with zero tolerance.

Each test prints a single PASS line on success; any failure is a hard
assertion error.  Runtime budgets are enforced per criterion.
"""

import random
import time

from graphtower import (Multigraph, QuotientSpec, TowerGroupSpec,
                        VoltageAssignment, connectivity_criterion,
                        factorization_check, fit_iwasawa, interpolation_check,
                        lambda1_determinant, level_jacobian, mhg_check,
                        mu_lambda_from_poly, mu_lower_bound,
                        quotient_assignment, tower_en)
from graphtower.grouprings import characters
from graphtower.linalg import smith_invariant_factors

from conftest import (ABELIAN_SHAPES, GroupRingElement, GroupRingMatrix, act,
                      character_evaluate, components, cover_graph,
                      cyclotomic_product, derive, enumerate_spanning_trees,
                      group_ring_zero, lift, project, random_abelian_instance,
                      random_connected_multigraph, reduced_norm, sparse,
                      spanning_tree_count, trivial_cover)


def _announce(criterion, detail, started):
    elapsed = time.monotonic() - started
    print(f"ACCEPTANCE {criterion}: PASS ({detail}, {elapsed:.1f}s)")


def test_criterion_1_interpolation_identity():
    started = time.monotonic()
    rng = random.Random(1001)
    instances = 0
    while instances < 50:
        alpha, level = random_abelian_instance(rng)
        report = interpolation_check(alpha, level)
        assert report.all_pass, (
            f"interpolation failed on instance {instances}")
        instances += 1
    assert time.monotonic() - started < 60
    _announce(1, f"{instances} instances, exact per-character equality",
              started)


# shapes kept small enough that the derived graph has ≤ 45 vertices
_FACTORIZATION_SHAPES = [
    (2, 1, 1), (2, 1, 2), (2, 2, 1), (2, 3, 1),
    (3, 1, 1), (3, 1, 2), (3, 2, 1),
]


def test_criterion_2_zeta_factorization():
    started = time.monotonic()
    rng = random.Random(1002)
    instances = 0
    while instances < 20:
        alpha, level = random_abelian_instance(
            rng, shapes=_FACTORIZATION_SHAPES)
        report = factorization_check(alpha, level)
        assert report.polynomial_match, (
            f"zeta factorization failed on instance {instances}")
        assert report.exponent_match
        instances += 1
    assert time.monotonic() - started < 60
    _announce(2, f"{instances} instances, product equals cover zeta", started)


def test_criterion_3_matrix_tree_consistency():
    started = time.monotonic()
    rng = random.Random(1003)
    checked = 0
    enumerated = 0
    while checked < 30:
        graph = random_connected_multigraph(rng, max_vertices=8)
        count = spanning_tree_count(graph)
        structure, _ = level_jacobian(trivial_cover(graph), 0)
        assert structure.torsion_order == count
        if graph.num_vertices <= 6 and graph.num_edges <= 16:
            assert len(enumerate_spanning_trees(graph)) == count
            enumerated += 1
        checked += 1
    assert enumerated >= 10
    assert time.monotonic() - started < 30
    _announce(3, f"{checked} graphs, {enumerated} brute-force enumerations",
              started)


def test_criterion_4_tower_closed_form():
    started = time.monotonic()
    spec = TowerGroupSpec("abelian", 3, rank=1)
    loop = Multigraph.build(["v"], [("e", ("v", "v"))])
    alpha = VoltageAssignment.build(loop, spec, {"e": [[0, 1]]})
    report = tower_en(alpha, 3)
    assert report.e == (0, 1, 2, 3)
    fit = fit_iwasawa(report.e, 3)
    assert (fit.mu, fit.lam, fit.nu) == (0, 1, 0)
    assert fit.stable
    assert time.monotonic() - started < 10
    _announce(4, "e = (0,1,2,3), fit (0,1,0) stable", started)


def _cycle_with_parallels(spec, parallel_words, cycle_words):
    graph = Multigraph.build(
        ["x1", "x2", "x3"],
        [("e1", ("x1", "x2")), ("e2", ("x1", "x2")),
         ("e3", ("x1", "x2")), ("e4", ("x1", "x2")),
         ("c1", ("x2", "x3")), ("c2", ("x3", "x1"))])
    voltages = dict(zip(["e1", "e2", "e3", "e4"], parallel_words))
    voltages.update(dict(zip(["c1", "c2"], cycle_words)))
    return VoltageAssignment.build(graph, spec, voltages)


def test_criterion_5_cycle_with_multiedge_examples():
    started = time.monotonic()
    spec = TowerGroupSpec("abelian", 3, rank=4)
    quotient = QuotientSpec((0, 0, 0, 1))

    # branch with p ∤ c: quotient voltages (γ,1,1,1), winding γ on the cycle
    alpha5 = _cycle_with_parallels(
        spec,
        [[[3, 1]], [[0, 1]], [[1, 1]], [[2, 1]]],
        [[[3, 1]], []])
    assert connectivity_criterion(alpha5)
    reduced5 = quotient_assignment(alpha5, quotient)
    det5 = lambda1_determinant(reduced5)
    c0, c1, c2 = det5.f[:3]
    assert c0 == 0 and c1 == 0
    assert c2 % 3 != 0
    assert abs(c2) == 13
    assert mu_lambda_from_poly(det5.f, 3) == (0, 2)
    verdict5 = mhg_check(alpha5, quotient)
    assert verdict5.verdict == "HOLDS" and verdict5.mu1 == 0

    # branch with p | c: quotient voltages (γ,γ,γ,1), trivial cycle
    alpha4 = _cycle_with_parallels(
        spec,
        [[[3, 1]], [[3, 1], [0, 1]], [[3, 1], [1, 1]], [[2, 1]]],
        [[], []])
    assert connectivity_criterion(alpha4)
    reduced4 = quotient_assignment(alpha4, quotient)
    det4 = lambda1_determinant(reduced4)
    assert det4.f == (0, 0, -9)
    assert mu_lambda_from_poly(det4.f, 3) == (2, 2)
    verdict4 = mhg_check(alpha4, quotient)
    assert verdict4.verdict == "INCONCLUSIVE"
    assert verdict4.mu_lower_bound == 0

    # tower growth of the quotient cover matches λ_J = λ(f) − 1
    report = tower_en(reduced5, 3)
    fit = fit_iwasawa(report.e, 3)
    assert fit.stable
    assert fit.mu == 0
    assert fit.lam == mu_lambda_from_poly(det5.f, 3)[1] - 1 == 1
    assert time.monotonic() - started < 60
    _announce(5, "c = 13 branch HOLDS, c = 9 branch INCONCLUSIVE, slope 1",
              started)


def test_criterion_6_mu_equals_two_example():
    started = time.monotonic()
    spec = TowerGroupSpec("metacyclic", 3)
    graph = Multigraph.build(["v", "w"], [(i, ("v", "w")) for i in range(9)])
    voltages = {i: [[0, 1]] for i in range(3)}
    voltages.update({i: [[1, 1]] for i in range(3, 6)})
    voltages.update({i: [] for i in range(6, 9)})
    alpha = VoltageAssignment.build(graph, spec, voltages)
    quotient = QuotientSpec((0, 1))
    det = lambda1_determinant(quotient_assignment(alpha, quotient))
    # 18(2 − γ − γ⁻¹) exactly, cleared to −18T²
    assert det.gamma_det.low == -1
    assert det.gamma_det.coeffs == (-18, 36, -18)
    assert det.f == (0, 0, -18)
    assert mu_lambda_from_poly(det.f, 3) == (2, 2)
    assert mu_lower_bound(alpha) == 2
    verdict = mhg_check(alpha, quotient)
    assert verdict.verdict == "HOLDS"
    assert verdict.mu1 == 2 and verdict.mu_lower_bound == 2
    assert time.monotonic() - started < 10
    _announce(6, "det = 18(2−γ−γ⁻¹), μ pinched at 2, HOLDS", started)


def test_criterion_7_property_suites():
    started = time.monotonic()
    rng = random.Random(1007)

    # SNF divisibility chains
    for _ in range(20):
        size = rng.randint(1, 5)
        matrix = [[rng.randint(-9, 9) for _ in range(size)]
                  for _ in range(size)]
        factors = [d for d in smith_invariant_factors(*sparse(matrix)) if d]
        for a, b in zip(factors, factors[1:]):
            assert b % a == 0

    # reduced-norm projection compatibility
    spec = TowerGroupSpec("abelian", 3, rank=1)
    elements = spec.enumerate_group(2)
    for _ in range(5):
        entries = tuple(
            tuple(GroupRingElement.from_terms(
                spec, 2, {rng.choice(elements): rng.randint(-3, 3)})
                for _ in range(2))
            for _ in range(2))
        matrix = GroupRingMatrix(spec, 2, entries)
        low = {chi.exponents: v for chi, v in reduced_norm(project(matrix, 1))}
        high = {chi.exponents: v for chi, v in reduced_norm(matrix)}
        for exps, value in low.items():
            assert high[tuple(3 * e for e in exps)] == lift(value, 2)

    # block lower-triangular multiplicativity of the reduced norm
    zero = group_ring_zero(spec, 1)
    elements1 = spec.enumerate_group(1)
    for _ in range(5):
        def rand_elem():
            return GroupRingElement.from_terms(
                spec, 1, {rng.choice(elements1): rng.randint(-3, 3)})
        c = GroupRingMatrix(spec, 1, ((rand_elem(), rand_elem()),
                                      (rand_elem(), rand_elem())))
        a = rand_elem()
        block = GroupRingMatrix(spec, 1, (
            (*c.entries[0], zero), (*c.entries[1], zero),
            (rand_elem(), rand_elem(), a)))
        nrd_block = {chi.exponents: v for chi, v in reduced_norm(block)}
        nrd_c = {chi.exponents: v for chi, v in reduced_norm(c)}
        for chi in characters(spec, 1):
            assert (nrd_block[chi.exponents] ==
                    cyclotomic_product(nrd_c[chi.exponents],
                                       character_evaluate(chi, a)))

    # derived-graph Galois action, counting, and criterion soundness
    instances = 0
    while instances < 30:
        alpha, level = random_abelian_instance(rng)
        prediction = connectivity_criterion(alpha)
        for n in (1, min(level, 2)):
            cover = cover_graph(alpha, n)
            order = alpha.spec.order(n)
            assert cover.num_vertices == order * alpha.base.num_vertices
            assert cover.num_edges == order * alpha.base.num_edges
            if prediction:
                assert components(cover) == 1
            from collections import Counter
            multiset = Counter(frozenset([v, w])
                               for _, (v, w) in cover.edges)
            g = alpha.spec.enumerate_group(n)[-1]
            mapped = Counter(frozenset([act(alpha.spec, n, g, v),
                                        act(alpha.spec, n, g, w)])
                             for _, (v, w) in cover.edges)
            assert mapped == multiset
        if not prediction:
            # failing criterion is sound: some computed level must disconnect
            assert any(components(derive(alpha, n)) > 1 for n in (1, 2))
        instances += 1
    assert time.monotonic() - started < 120
    _announce(7, "SNF, reduced norm, Galois action and criterion suites",
              started)
