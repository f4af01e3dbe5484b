"""Tower analytics: growth sequences, μ/λ/ν fitting, Λ₁-determinants,
finite-level Fitting generators, and the 𝔐_H(G) decision procedure."""

from __future__ import annotations

from dataclasses import dataclass

from .cyclotomic import CyclotomicInteger
from .errors import BoundExceededError, DisconnectedError, PreconditionError
from .graphs import graph_matrices
from .grouprings import (Character, nrd_abelian, regular_det,
                         regular_det_fits)
from .groups import p_valuation
from .jacobian import level_jacobian
from .linalg import det_int_poly_matrix
from .polynomials import (IntPolynomial, LaurentElement,
                          laurent_substitute_gamma)
from .voltage import (QuotientSpec, VoltageAssignment, check_derive_bounds,
                      connectivity_criterion, gamma_exponent,
                      quotient_assignment, voltage_laplacian)

_LAMBDA1_DEGREE_BOUND = 1800  # Σ over Laplacian rows of the γ-exponent span
_MU_PROBE_LEVEL = 1  # level of the content bound in mu_lower_bound


@dataclass(frozen=True)
class TowerReport:
    """Raw per-level data of a tower computation."""

    p: int
    levels: tuple[int, ...]
    e: tuple[int, ...]
    group_orders: tuple[int, ...]
    jacobians: tuple[tuple[int, ...], ...]  # torsion invariant factors


@dataclass(frozen=True)
class IwasawaFit:
    mu: int
    lam: int
    nu: int
    stable: bool
    residuals: tuple[int, ...]  # e_n − (μp^n + λn + ν) on the checked window


@dataclass(frozen=True)
class Lambda1Det:
    """det(D − A_{α'}^t) over Z[γ, γ⁻¹], cleared and written in T = γ − 1."""

    gamma_det: LaurentElement
    cleared_power: int  # the γ^k multiplied in (a unit; μ and λ unaffected)
    f: IntPolynomial  # γ^k · det, evaluated at γ = 1 + T


@dataclass(frozen=True)
class MHGVerdict:
    mu1: int
    lambda1: int
    mu_lower_bound: int
    verdict: str  # "HOLDS" | "INCONCLUSIVE"
    justification: str
    det: Lambda1Det  # the Λ₁-determinant μ₁ and λ₁ were read from


def tower_en(alpha: VoltageAssignment, max_level: int) -> TowerReport:
    """e_n = v_p(|J(X_n)|) for n = 0..max_level.

    The bounds are checked at max_level before any level is derived, and
    connectivity once, by the criterion, for every level.
    """
    check_derive_bounds(alpha, max_level)
    if not connectivity_criterion(alpha):
        raise DisconnectedError(
            "voltage does not satisfy the connectivity criterion")
    spec = alpha.spec
    levels, e_values, orders, jacobians = [], [], [], []
    for n in range(max_level + 1):
        structure, e_n = level_jacobian(alpha, n)
        levels.append(n)
        e_values.append(e_n)
        orders.append(spec.order(n))
        jacobians.append(structure.torsion)
    return TowerReport(spec.p, tuple(levels), tuple(e_values),
                       tuple(orders), tuple(jacobians))


def fit_iwasawa(e: tuple[int, ...] | list[int], p: int) -> IwasawaFit:
    """Fit e_n = μp^n + λn + ν on the trailing levels.

    The last three entries determine (μ, λ, ν) by second differences; the
    fit is stable when it reproduces the last min(4, len(e)) entries exactly.
    """
    if len(e) < 3:
        raise PreconditionError("need at least three levels to fit")
    top = len(e) - 1
    d1 = e[top] - e[top - 1]          # μ p^{top-1}(p−1) + λ
    d0 = e[top - 1] - e[top - 2]      # μ p^{top-2}(p−1) + λ
    mu_scale = p ** (top - 2) * (p - 1) ** 2
    mu_num = d1 - d0
    window = min(4, len(e))
    if mu_num % mu_scale:
        return IwasawaFit(0, 0, 0, False,
                          tuple(e[len(e) - window:]))
    mu = mu_num // mu_scale
    lam = d1 - mu * p ** (top - 1) * (p - 1)
    nu = e[top] - mu * p ** top - lam * top
    residuals = tuple(
        e[n] - (mu * p ** n + lam * n + nu)
        for n in range(len(e) - window, len(e)))
    stable = all(r == 0 for r in residuals)
    return IwasawaFit(mu, lam, nu, stable, residuals)


def lambda1_determinant(alpha_quotient: VoltageAssignment) -> Lambda1Det:
    """Symbolic determinant of D − A_{α'}^t over the rank-1 quotient tower.

    The computation is level-free: γ is a formal unit, and the result is an
    integer Laurent polynomial subsequently written in T = γ − 1.  Clearing
    each row's negative γ-powers makes it one integer polynomial
    determinant, shifted back by the powers cleared.
    """
    spec = alpha_quotient.spec
    if spec.kind != "abelian" or spec.rank != 1:
        raise ValueError("quotient assignment must live on the rank-1 tower")
    base = alpha_quotient.base
    m = base.num_vertices
    index = {v: i for i, v in enumerate(base.vertices)}
    exponents = [(index[v], index[w], gamma_exponent(alpha_quotient, e))
                 for e, (v, w) in base.edges]
    # row i of the Laplacian holds γ^0 and γ^−b (γ^b) for each edge leaving
    # (entering) vertex i; γ^−low[i] clears the row, and the row spans
    # bound the degree of the cleared determinant
    low, high = [0] * m, [0] * m
    for i, j, b in exponents:
        low[i], high[i] = min(low[i], -b), max(high[i], -b)
        low[j], high[j] = min(low[j], b), max(high[j], b)
    degree = sum(high) - sum(low)
    if degree > _LAMBDA1_DEGREE_BOUND:
        raise BoundExceededError(
            f"Λ₁-determinant degree bound {degree} exceeds "
            f"{_LAMBDA1_DEGREE_BOUND}")
    # cleared[i][j]: coefficients of γ^low[i]..γ^high[i] in (D − A^t)[i][j];
    # an edge i → j puts −γ^−b at (i, j) and −γ^b at (j, i)
    degrees = graph_matrices(base).D
    cleared = [[[0] * (high[i] - low[i] + 1) for _ in range(m)]
               for i in range(m)]
    for i in range(m):
        cleared[i][i][-low[i]] = degrees[i][i]
    for i, j, b in exponents:
        cleared[i][j][-b - low[i]] -= 1
        cleared[j][i][b - low[j]] -= 1
    det = LaurentElement.make(sum(low), det_int_poly_matrix(cleared))
    if det.is_zero():
        raise DisconnectedError(
            "Λ₁-determinant vanishes: the Z_p-cover is disconnected")
    k, f = laurent_substitute_gamma(det)
    return Lambda1Det(det, k, f)


def mu_lambda_from_poly(f: IntPolynomial, p: int) -> tuple[int, int]:
    """Weierstrass data of a nonzero polynomial over Z_p.

    μ = min coefficient valuation, λ = first index attaining it.
    """
    if f.is_zero():
        raise ValueError("zero polynomial has no Weierstrass data")
    return min((p_valuation(c, p), i) for i, c in enumerate(f.coeffs) if c)


def mu_lower_bound(alpha: VoltageAssignment) -> int:
    """k·|V| where p^k divides every entry of D − A_α^t at the probe level.

    Justified by the surjection of Pic onto (Λ/p^k)^{|V|}.
    """
    laplacian = voltage_laplacian(alpha, _MU_PROBE_LEVEL)
    k: int | None = None
    for row in laplacian.entries:
        for x in row:
            v = x.content_p_valuation()
            if v is not None:
                k = v if k is None else min(k, v)
                if k == 0:
                    return 0
    return (k or 0) * alpha.base.num_vertices


def mhg_check(alpha: VoltageAssignment, quotient: QuotientSpec) -> MHGVerdict:
    """Decide the 𝔐_H(G)-property from the Λ₁ data and the content bound.

    HOLDS when μ₁ = 0 (control theorem), or when the tower is
    two-dimensional and the content lower bound on μ_Λ meets μ₁ (the two
    bounds pinch, and μ_Λ = μ₁).  Otherwise INCONCLUSIVE; both bounds are
    reported.
    """
    det = lambda1_determinant(quotient_assignment(alpha, quotient))
    mu1, lambda1 = mu_lambda_from_poly(det.f, alpha.spec.p)
    lower = mu_lower_bound(alpha)
    if mu1 == 0:
        return MHGVerdict(mu1, lambda1, lower, "HOLDS",
                          "mu1 = 0: finite generation over the H-subring", det)
    if alpha.spec.dimension == 2 and lower >= mu1:
        return MHGVerdict(mu1, lambda1, lower, "HOLDS",
                          f"bounds pinch: mu = mu1 = {mu1}", det)
    return MHGVerdict(mu1, lambda1, lower, "INCONCLUSIVE",
                      f"mu1 = {mu1}, content lower bound = {lower}", det)


@dataclass(frozen=True)
class FittingGenerators:
    """Level-n generators of the Fitting ideal of the Picard module."""

    level: int
    components: tuple[tuple[Character, CyclotomicInteger], ...] | None
    regular: int | None


def fitting_generators(alpha: VoltageAssignment, n: int) -> FittingGenerators:
    """Reduced-norm generators of the level-n Fitting ideal.

    Per-character components for abelian quotients; the determinant of the
    regular representation whenever it fits in its bound.  Both bounds are
    checked before any level-n arithmetic.
    """
    spec = alpha.spec
    abelian = spec.kind == "abelian"
    if abelian:
        spec.check_enumerable(n)  # the character bound, before level-n work
    regular_fits = regular_det_fits(spec, n, alpha.base.num_vertices)
    if not (abelian or regular_fits):
        return FittingGenerators(n, None, None)
    laplacian = voltage_laplacian(alpha, n)
    components = tuple(nrd_abelian(laplacian)) if abelian else None
    regular = regular_det(laplacian) if regular_fits else None
    return FittingGenerators(n, components, regular)
