"""Tower analytics: growth sequences, μ/λ/ν fitting, Λ₁-determinants,
finite-level Fitting generators, and the 𝔐_H(G) decision procedure."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .cyclotomic import CyclotomicInteger
from .errors import BoundExceededError, DisconnectedError, PreconditionError
from .grouprings import Character, nrd_abelian, regular_det_fits
from .groups import p_valuation
from .jacobian import level_jacobian
from .linalg import det_int_poly_matrix
from .polynomials import LaurentElement, laurent_substitute_gamma
from .voltage import (QuotientSpec, VoltageAssignment, check_derive_bounds,
                      connectivity_criterion, quotient_assignment)

_LAMBDA1_DEGREE_BOUND = 1800  # Σ over Laplacian rows of the γ-exponent span


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
    f: tuple[int, ...]  # γ^k · det at γ = 1 + T, ascending T-coefficients


@dataclass(frozen=True)
class MHGVerdict:
    mu1: int
    lambda1: int
    mu_lower_bound: int
    verdict: str  # "HOLDS" | "INCONCLUSIVE"
    justification: str
    det: Lambda1Det  # the Λ₁-determinant μ₁ and λ₁ were read from


def _require_criterion(alpha: VoltageAssignment) -> None:
    if not connectivity_criterion(alpha):
        raise DisconnectedError(
            "voltage does not satisfy the connectivity criterion")


def tower_en(alpha: VoltageAssignment, max_level: int) -> TowerReport:
    """e_n = v_p(|J(X_n)|) for n = 0..max_level.

    The bounds are checked at max_level before any level is computed, and
    connectivity once, by the criterion, for every level.
    """
    check_derive_bounds(alpha, max_level)
    _require_criterion(alpha)
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
    # the γ-exponent of each edge's voltage, its word's exponent sum
    words = dict(alpha_quotient.voltages)
    exponents = [(i, j, sum(exp for _, exp in words[e]))
                 for (i, j), (e, _) in zip(base.index_pairs(), base.edges)]
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
    # rows[i][j]: coefficients of γ^low[i]..γ^high[i] in (D − A^t)[i][j];
    # an edge i → j puts −γ^−b at (i, j) and −γ^b at (j, i)
    rows: list[dict[int, list[int]]] = []
    for i, d in enumerate(base.degrees()):
        diagonal = [0] * (high[i] - low[i] + 1)
        diagonal[-low[i]] = d
        rows.append({i: diagonal})
    for i, j, b in exponents:
        for row, col, power in ((i, j, -b), (j, i, b)):
            rows[row].setdefault(col, [0] * (high[row] - low[row] + 1))[
                power - low[row]] -= 1
    det = LaurentElement.make(sum(low), det_int_poly_matrix(rows))
    if det.is_zero():
        raise DisconnectedError(
            "Λ₁-determinant vanishes: the Z_p-cover is disconnected")
    k, f = laurent_substitute_gamma(det)
    return Lambda1Det(det, k, f)


def mu_lambda_from_poly(f: tuple[int, ...], p: int) -> tuple[int, int]:
    """Weierstrass data of a nonzero polynomial over Z_p, given as
    ascending coefficients.

    μ = min coefficient valuation, λ = first index attaining it.
    """
    if not any(f):
        raise ValueError("zero polynomial has no Weierstrass data")
    return min((p_valuation(c, p), i) for i, c in enumerate(f) if c)


def mu_lower_bound(alpha: VoltageAssignment) -> int:
    """k·|V| where p^k divides every entry of L = D − A_α^t over Z[G^(1)].

    Justified by the surjection of Pic onto (Λ/p^k)^{|V|}.  G^(1) = G/G^p
    is (Z/p)^d for both kinds, with the level-1 normal forms as elements
    and −a as the inverse of a.  An edge from v_i to v_j of level-1
    voltage a puts −a at (j, i) and −(−a) at (i, j) of L, and adds one to
    the identity's coefficient at (i, i) and at (j, j); k is the least
    valuation of the nonzero coefficients so counted.
    """
    p = alpha.spec.p
    identity = (0,) * alpha.spec.dimension
    counts: Counter[tuple[int, int, tuple[int, ...]]] = Counter()
    for i, j, a in alpha.normal_form_edges(1):
        counts[i, i, identity] += 1
        counts[j, j, identity] += 1
        counts[j, i, a] -= 1
        counts[i, j, tuple(-x % p for x in a)] -= 1
    k = min((p_valuation(c, p) for c in counts.values() if c), default=0)
    return k * alpha.base.num_vertices


def mhg_check(alpha: VoltageAssignment, quotient: QuotientSpec) -> MHGVerdict:
    """Decide the 𝔐_H(G)-property from the Λ₁ data and the content bound.

    HOLDS when μ₁ = 0 (control theorem), or when the tower is
    two-dimensional and the content lower bound on μ_Λ meets μ₁ (the two
    bounds pinch, and μ_Λ = μ₁).  Otherwise INCONCLUSIVE; both bounds are
    reported.  A voltage outside the connectivity criterion raises
    DisconnectedError first, as in `tower_en`.
    """
    _require_criterion(alpha)
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

    Per-character components of D − A_α^t for abelian quotients, from the
    base edges' level-n normal forms, read once; the character bound is
    checked before any level-n arithmetic.  ``regular`` is the determinant
    of the regular representation of D − A_α^t, 0 whenever the
    representation fits in its size bound and None past it.  It is 0
    without being computed: that representation is the Laplacian of X_n,
    whose rows sum to 0, so the all-ones vector lies in its kernel.
    """
    spec = alpha.spec
    regular = 0 if regular_det_fits(spec, n, alpha.base.num_vertices) else None
    if spec.kind != "abelian":
        return FittingGenerators(n, None, regular)
    spec.check_enumerable(n)  # the character bound, before level-n work
    components = tuple(nrd_abelian(spec, n, alpha.normal_form_edges(n),
                                   alpha.base.degrees()))
    return FittingGenerators(n, components, regular)
