import random

import pytest

from graphtower import (IntPolynomial, Multigraph, QuotientSpec,
                        TowerGroupSpec, VoltageAssignment, fit_iwasawa,
                        fitting_generators, lambda1_determinant, mhg_check,
                        mu_lambda_from_poly, mu_lower_bound,
                        quotient_assignment, spanning_tree_count, tower_en)
from graphtower.errors import DisconnectedError, PreconditionError
from graphtower.jacobian import p_valuation
from graphtower.polynomials import LAURENT, LaurentElement
from graphtower.voltage import derive, gamma_exponent

from conftest import (as_int, det_in_ring, lift, random_abelian_instance,
                      random_connected_multigraph)


def z3_loop():
    spec = TowerGroupSpec("abelian", 3, rank=1)
    loop = Multigraph.build(["v"], [("e", ("v", "v"))])
    return VoltageAssignment.build(loop, spec, {"e": [[0, 1]]})


def two_vertex_nine_edge():
    """p = 3 metacyclic tower: parallel edges with voltages σ,σ,σ,τ,τ,τ,1,1,1."""
    spec = TowerGroupSpec("metacyclic", 3)
    graph = Multigraph.build(["v", "w"], [(i, ("v", "w")) for i in range(9)])
    voltages = {i: [[0, 1]] for i in range(3)}
    voltages.update({i: [[1, 1]] for i in range(3, 6)})
    voltages.update({i: [] for i in range(6, 9)})
    return VoltageAssignment.build(graph, spec, voltages)


def test_tower_en_loop():
    report = tower_en(z3_loop(), 3)
    assert report.e == (0, 1, 2, 3)
    assert report.group_orders == (1, 3, 9, 27)


def test_tower_en_checks_criterion():
    spec = TowerGroupSpec("abelian", 3, rank=1)
    loop = Multigraph.build(["v"], [("e", ("v", "v"))])
    trivial = VoltageAssignment.build(loop, spec, {"e": []})
    with pytest.raises(DisconnectedError):
        tower_en(trivial, 2)


def test_tower_matches_spanning_tree_count():
    report = tower_en(z3_loop(), 2)
    for n in (0, 1, 2):
        cover = derive(z3_loop(), n)
        count = spanning_tree_count(cover.graph)
        assert report.e[n] == p_valuation(count, 3) if count > 1 else True


def test_fit_exact_sequences():
    fit = fit_iwasawa((0, 1, 2, 3), 3)
    assert (fit.mu, fit.lam, fit.nu, fit.stable) == (0, 1, 0, True)
    fit = fit_iwasawa((5, 5, 5, 5), 3)
    assert (fit.mu, fit.lam, fit.nu, fit.stable) == (0, 0, 5, True)
    fit = fit_iwasawa((2, 6, 18, 54), 3)
    assert (fit.mu, fit.lam, fit.nu, fit.stable) == (2, 0, 0, True)


def test_fit_needs_three_levels():
    with pytest.raises(PreconditionError):
        fit_iwasawa((0, 1), 3)


def test_fit_instability_reported():
    fit = fit_iwasawa((0, 5, 6, 7), 3)
    assert not fit.stable


def test_lambda1_loop():
    det = lambda1_determinant(z3_loop())
    assert det.gamma_det.low == -1
    assert det.gamma_det.coeffs == (-1, 2, -1)  # −γ⁻¹(γ−1)²
    assert det.cleared_power == 1
    assert det.f.coeffs == (0, 0, -1)
    assert mu_lambda_from_poly(det.f, 3) == (0, 2)


def test_lambda1_two_vertex_example():
    alpha = two_vertex_nine_edge()
    quotient = quotient_assignment(alpha, QuotientSpec((0, 1)))
    det = lambda1_determinant(quotient)
    # 18(2 − γ − γ⁻¹), cleared to −18T²
    assert det.gamma_det.low == -1
    assert det.gamma_det.coeffs == (-18, 36, -18)
    assert det.f.coeffs == (0, 0, -18)
    assert mu_lambda_from_poly(det.f, 3) == (2, 2)


def test_lambda1_disconnected_cover_raises():
    spec = TowerGroupSpec("abelian", 3, rank=1)
    loop = Multigraph.build(["v"], [("e", ("v", "v"))])
    trivial = VoltageAssignment.build(loop, spec, {"e": []})
    with pytest.raises(DisconnectedError):
        lambda1_determinant(trivial)


def _laurent_laplacian(alpha):
    """D − A_{α'}^t over Z[γ, γ⁻¹], one edge at a time."""
    index = {v: i for i, v in enumerate(alpha.base.vertices)}
    lap = [[LAURENT.zero()] * len(index) for _ in index]
    for e, (v, w) in alpha.base.edges:
        b = gamma_exponent(alpha, e)
        i, j = index[v], index[w]
        for r, c, term in ((i, i, LaurentElement.make(0, [1])),
                           (j, j, LaurentElement.make(0, [1])),
                           (j, i, LaurentElement.make(b, [-1])),
                           (i, j, LaurentElement.make(-b, [-1]))):
            lap[r][c] = LAURENT.add(lap[r][c], term)
    return lap


def test_lambda1_matches_laurent_bareiss():
    rng = random.Random(84)
    vanishing = 0
    for _ in range(50):
        spec = TowerGroupSpec("abelian", rng.choice((2, 3, 5)), rank=1)
        graph = random_connected_multigraph(rng, max_vertices=5,
                                            max_extra_edges=4)
        alpha = VoltageAssignment.build(graph, spec, {
            e: [[0, rng.randint(-30, 30)]] if rng.random() < 0.7 else []
            for e, _ in graph.edges})
        expected = det_in_ring(_laurent_laplacian(alpha), LAURENT)
        if expected.is_zero():
            vanishing += 1
            with pytest.raises(DisconnectedError):
                lambda1_determinant(alpha)
        else:
            assert lambda1_determinant(alpha).gamma_det == expected
    assert 0 < vanishing < 25


def test_mu_lambda_from_poly():
    assert mu_lambda_from_poly(IntPolynomial((0, 0, -18)), 3) == (2, 2)
    assert mu_lambda_from_poly(IntPolynomial((0, 0, 9)), 3) == (2, 2)
    assert mu_lambda_from_poly(IntPolynomial((0, 5, 0, 1)), 5) == (0, 3)
    with pytest.raises(ValueError):
        mu_lambda_from_poly(IntPolynomial(()), 3)


def test_mu_lower_bound():
    assert mu_lower_bound(two_vertex_nine_edge()) == 2
    assert mu_lower_bound(z3_loop()) == 0


def test_mhg_pinched():
    verdict = mhg_check(two_vertex_nine_edge(), QuotientSpec((0, 1)))
    assert verdict.verdict == "HOLDS"
    assert verdict.mu1 == 2 and verdict.mu_lower_bound == 2


def test_mhg_verdict_carries_its_determinant():
    alpha, quotient = two_vertex_nine_edge(), QuotientSpec((0, 1))
    verdict = mhg_check(alpha, quotient)
    assert verdict.det == lambda1_determinant(
        quotient_assignment(alpha, quotient))
    assert verdict.det.f.coeffs == (0, 0, -18)


def test_mhg_mu1_zero():
    verdict = mhg_check(z3_loop(), QuotientSpec((1,)))
    assert verdict.verdict == "HOLDS"
    assert verdict.mu1 == 0


def test_exact_sequence_lambda_shift():
    # λ of the Picard determinant is one more than the Jacobian tower slope
    alpha = z3_loop()
    det = lambda1_determinant(alpha)
    _, lam_pic = mu_lambda_from_poly(det.f, 3)
    fit = fit_iwasawa(tower_en(alpha, 3).e, 3)
    assert fit.stable
    assert fit.lam == lam_pic - 1
    assert fit.mu == mu_lambda_from_poly(det.f, 3)[0]


def test_fitting_generators_loop_over_z2():
    spec = TowerGroupSpec("abelian", 2, rank=1)
    loop = Multigraph.build(["v"], [("e", ("v", "v"))])
    alpha = VoltageAssignment.build(loop, spec, {"e": [[0, 1]]})
    gens = fitting_generators(alpha, 1)
    values = {chi.exponents: v for chi, v in gens.components}
    assert values[(0,)].is_zero()
    assert as_int(values[(1,)]) == 4
    assert gens.regular == 0  # singular over the full ring (trivial character)


def test_fitting_components_match_h_values():
    from graphtower import h_at_one, voltage_adjacency
    rng = random.Random(81)
    for _ in range(5):
        alpha, level = random_abelian_instance(rng)
        gens = fitting_generators(alpha, level)
        values = {chi.exponents: v for chi, v in gens.components}
        adjacency = voltage_adjacency(alpha, level)
        for chi, _ in gens.components:
            assert values[chi.exponents] == h_at_one(
                alpha, level, chi.conjugate(), adjacency)


def test_fitting_projection_compatibility():
    rng = random.Random(82)
    checked = 0
    while checked < 4:
        alpha, level = random_abelian_instance(rng)
        if level < 2:
            continue
        high = fitting_generators(alpha, level)
        low = fitting_generators(alpha, level - 1)
        p = alpha.spec.p
        high_map = {chi.exponents: v for chi, v in high.components}
        for chi, value in low.components:
            pulled = tuple(p * e for e in chi.exponents)
            assert high_map[pulled] == lift(value, level)
        checked += 1
