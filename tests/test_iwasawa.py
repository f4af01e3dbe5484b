import random
from math import comb

import pytest

from graphtower import (Multigraph, QuotientSpec, TowerGroupSpec,
                        VoltageAssignment, connectivity_criterion, fit_iwasawa,
                        fitting_generators, lambda1_determinant, mhg_check,
                        mu_lambda_from_poly, mu_lower_bound,
                        quotient_assignment, tower_en)
from graphtower.errors import (BoundExceededError, DisconnectedError,
                               PreconditionError)
from graphtower.jacobian import p_valuation
from graphtower.polynomials import LAURENT, LaurentElement

from conftest import (ORACLE_SHAPES, abelian_pin_config, as_int,
                      content_p_valuation, derive,
                      det_in_ring, doubled, lift, oracle_instance,
                      random_abelian_instance, random_connected_multigraph,
                      reduced_norm, spanning_tree_count, voltage_laplacian)


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
        count = spanning_tree_count(derive(z3_loop(), n))
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
    assert det.f == (0, 0, -1)
    assert mu_lambda_from_poly(det.f, 3) == (0, 2)


def test_lambda1_two_vertex_example():
    alpha = two_vertex_nine_edge()
    quotient = quotient_assignment(alpha, QuotientSpec((0, 1)))
    det = lambda1_determinant(quotient)
    # 18(2 − γ − γ⁻¹), cleared to −18T²
    assert det.gamma_det.low == -1
    assert det.gamma_det.coeffs == (-18, 36, -18)
    assert det.f == (0, 0, -18)
    assert mu_lambda_from_poly(det.f, 3) == (2, 2)


def test_lambda1_disconnected_cover_raises():
    spec = TowerGroupSpec("abelian", 3, rank=1)
    loop = Multigraph.build(["v"], [("e", ("v", "v"))])
    trivial = VoltageAssignment.build(loop, spec, {"e": []})
    with pytest.raises(DisconnectedError):
        lambda1_determinant(trivial)


def test_lambda1_degree_bound_is_inclusive():
    """Two parallel edges v → w of γ-exponents 0 and b: the rows' γ-spans
    bound the degree by 2b.  At b = 900 the bound is 1800, the limit
    itself, and the determinant 2 − γ^900 − γ^−900 is taken; at b = 901 it
    is 1802, past the limit."""
    spec = TowerGroupSpec("abelian", 7, rank=1)
    base = Multigraph.build(["v", "w"], [("a", ("v", "w")),
                                         ("b", ("v", "w"))])

    def alpha(b):
        return VoltageAssignment.build(base, spec, {"a": [], "b": [[0, b]]})

    assert lambda1_determinant(alpha(900)).gamma_det == LaurentElement.make(
        -900, [-1] + [0] * 899 + [2] + [0] * 899 + [-1])
    with pytest.raises(BoundExceededError,
                       match="degree bound 1802 exceeds 1800"):
        lambda1_determinant(alpha(901))


def _laurent_laplacian(alpha):
    """D − A_{α'}^t over Z[γ, γ⁻¹], one edge at a time."""
    index = {v: i for i, v in enumerate(alpha.base.vertices)}
    lap = [[LAURENT.zero()] * len(index) for _ in index]
    words = dict(alpha.voltages)
    for e, (v, w) in alpha.base.edges:
        b = sum(exp for _, exp in words[e])
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
    assert mu_lambda_from_poly((0, 0, -18), 3) == (2, 2)
    assert mu_lambda_from_poly((0, 0, 9), 3) == (2, 2)
    assert mu_lambda_from_poly((0, 5, 0, 1), 5) == (0, 3)
    with pytest.raises(ValueError):
        mu_lambda_from_poly((), 3)


def test_mu_lower_bound():
    assert mu_lower_bound(two_vertex_nine_edge()) == 2
    assert mu_lower_bound(z3_loop()) == 0


def test_mu_lower_bound_is_the_level_1_laplacian_content():
    """The counted bound equals |V| times the least content valuation of
    the entries of voltage_laplacian(alpha, 1), on seeded bases with loops,
    parallel edges, empty words and exponents of ±10^12, each also with
    every edge doubled and with an isolated vertex added."""
    rng = random.Random(60)
    positive = 0
    for kind, p, rank in ORACLE_SHAPES:
        for _ in range(6):
            alpha = oracle_instance(rng, kind, p, rank)
            base = alpha.base
            isolated = VoltageAssignment(
                Multigraph(base.vertices + ("isolated",), base.edges),
                alpha.spec, alpha.voltages)
            for case in (alpha, doubled(alpha), isolated):
                valuations = [content_p_valuation(x)
                              for row in voltage_laplacian(case, 1).entries
                              for x in row]
                k = min((v for v in valuations if v is not None), default=0)
                assert mu_lower_bound(case) == k * case.base.num_vertices
                positive += k > 0
    assert positive >= 10


def test_mhg_pinched():
    verdict = mhg_check(two_vertex_nine_edge(), QuotientSpec((0, 1)))
    assert verdict.verdict == "HOLDS"
    assert verdict.mu1 == 2 and verdict.mu_lower_bound == 2


def test_mhg_verdict_carries_its_determinant():
    alpha, quotient = two_vertex_nine_edge(), QuotientSpec((0, 1))
    verdict = mhg_check(alpha, quotient)
    assert verdict.det == lambda1_determinant(
        quotient_assignment(alpha, quotient))
    assert verdict.det.f == (0, 0, -18)


def test_mhg_mu1_zero():
    verdict = mhg_check(z3_loop(), QuotientSpec((1,)))
    assert verdict.verdict == "HOLDS"
    assert verdict.mu1 == 0


def _pi_valuation(f, p, n):
    """v_π(f(π)) for an integer polynomial f of ascending coefficients and
    π = ζ_{p^n} − 1, n ≥ 1, which generates the prime over p of Z[ζ_{p^n}]:
    so v_p of the norm of f(π).

    f is reduced modulo E(T) = Φ_{p^n}(1 + T), the Eisenstein polynomial of
    π, monic of degree φ = φ(p^n); the remainder Σ_{i<φ} b_i π^i has terms
    of distinct valuations φ·v_p(b_i) + i, and its valuation is the least.
    """
    phi = (p - 1) * p ** (n - 1)
    eisenstein = [0] * (phi + 1)
    for i in range(p):
        for t in range(i * p ** (n - 1) + 1):
            eisenstein[t] += comb(i * p ** (n - 1), t)
    rest = list(f)
    for top in range(len(rest) - 1, phi - 1, -1):
        c = rest[top]
        for t, e in enumerate(eisenstein):
            rest[top - phi + t] -= c * e
    return min(phi * p_valuation(b, p) + i
               for i, b in enumerate(rest[:phi]) if b)


def test_exact_sequence_lambda_shift():
    """The main conjecture for Pic on Z_p-towers, between the Smith-form
    route (e_n = v_p|J(X_n)|, ``tower_en``) and the Λ-determinant route
    (f from ``lambda1_determinant``).  Pic(X_n) = Z ⊕ J(X_n), and
    |G^(n)|·κ(X_n) = κ(X)·∏_{χ≠1} det(D − χ(A_α)), whose factors of
    conductor p^n have the norm of f(ζ_{p^n} − 1) up to a unit, so at
    every level e_0 = v_p(κ(X)) and e_n − e_{n−1} = v_π(f(π_n)) − 1.  Once
    φ(p^n) > λ₁, that difference is μ₁·φ(p^n) + λ₁ − 1 (Iwasawa), so a fit
    on levels top − 1 and top with φ(p^(top−1)) > λ₁ gives (μ₁, λ₁ − 1).
    Below that a fit can be stable and still differ: e = (2, 5, 10, 19,
    36, 69) fits 2·2^n + n on a Z_2-tower whose λ₁ is 64.

    Seeded towers of 1-4 base vertices, p = 2, 3 and 5 up to levels 6, 4
    and 2, with the one-loop Z_3 tower first: rank-1 towers, and the
    Z_p-subtowers ``quotient_assignment`` takes of rank-2 abelian and of
    metacyclic towers, as ``mhg-check`` does.
    """
    top_level = {2: 6, 3: 4, 5: 2}
    towers = [(z3_loop(), 3)]
    rng = random.Random(85)
    for k in range(90):
        p = (2, 3, 5)[k % 3]
        rank = 1 if k < 60 else 2
        data = abelian_pin_config(rng, p, rank, 1 + k % 2,
                                  rng.randint(1, 4), 4)
        graph = Multigraph.build(data["graph"]["vertices"], [
            (e["id"], tuple(e["ends"])) for e in data["graph"]["edges"]])
        if rank == 1:
            alpha = VoltageAssignment.build(
                graph, TowerGroupSpec("abelian", p), data["voltage"])
        else:
            spec, quotient = ((TowerGroupSpec("abelian", p, rank=2), (1, 2))
                              if k % 4 < 2 else
                              (TowerGroupSpec("metacyclic", p), (0, 1)))
            alpha = quotient_assignment(
                VoltageAssignment.build(graph, spec, data["voltage"]),
                QuotientSpec(quotient))
        if connectivity_criterion(alpha):
            towers.append((alpha, top_level[p]))
    fitted = 0
    for alpha, top in towers:
        p = alpha.spec.p
        e = tower_en(alpha, top).e
        det = lambda1_determinant(alpha)
        mu1, lambda1 = mu_lambda_from_poly(det.f, p)
        assert e[0] == p_valuation(spanning_tree_count(alpha.base), p)
        for n in range(1, top + 1):
            assert e[n] - e[n - 1] == _pi_valuation(det.f, p, n) - 1
        fit = fit_iwasawa(e, p)
        if (p - 1) * p ** (top - 2) > lambda1:
            assert (fit.mu, fit.lam) == (mu1, lambda1 - 1)
            fitted += fit.stable
    assert len(towers) >= 85 and fitted >= 80


def test_fitting_generators_loop_over_z2():
    spec = TowerGroupSpec("abelian", 2, rank=1)
    loop = Multigraph.build(["v"], [("e", ("v", "v"))])
    alpha = VoltageAssignment.build(loop, spec, {"e": [[0, 1]]})
    gens = fitting_generators(alpha, 1)
    values = {chi.exponents: v for chi, v in gens.components}
    assert not any(values[(0,)].coeffs)
    assert as_int(values[(1,)]) == 4
    assert gens.regular == 0  # singular over the full ring (trivial character)


def test_fitting_components_match_h_values():
    """The χ-component is h(χ̄, 1) = det χ(D − A_α^t), by the oracle's
    characters applied term by term to D − A_α^t over Z[G^(n)]."""
    rng = random.Random(81)
    for _ in range(5):
        alpha, level = random_abelian_instance(rng)
        gens = fitting_generators(alpha, level)
        assert list(gens.components) == reduced_norm(
            voltage_laplacian(alpha, level))


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
