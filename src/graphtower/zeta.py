"""Ihara zeta functions, Artin-Ihara L-functions, and their identities.

ζ_X(u)⁻¹ is one integer determinant by Kronecker substitution.  The
factorization check takes one more integer determinant per Galois orbit of
characters, the norm of the orbit's L-function.  The per-character
L-functions that ``lfun`` prints are one Z[ζ] determinant each, by the same
substitution.  Every identity check below is an exact equality — never a
float comparison.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cyclotomic import (CyclotomicInteger, det_cyclotomic,
                         det_cyclotomic_poly_matrix, euler_phi_prime_power,
                         root_power_matrix)
from .graphs import Multigraph, graph_matrices
from .grouprings import Character, characters, galois_orbits, nrd_abelian
from .groups import GroupElement
from .linalg import det_int_poly_matrix
from .polynomials import IntPolynomial
from .voltage import DerivedGraph, VoltageAssignment, derive, voltage_laplacian


@dataclass(frozen=True)
class ZetaData:
    """ζ_X(u)^{-1} = (1−u²)^{−chi} · det_part(u)."""

    chi: int
    det_part: IntPolynomial


@dataclass(frozen=True)
class ArtinLData:
    """L(χ,u)^{-1} = (1−u²)^{−d·chi} · det_part(u), d = 1 for characters."""

    character: Character
    chi: int  # Euler characteristic of the base graph
    det_part: tuple[CyclotomicInteger, ...]  # ascending coefficients


def ihara_zeta_inverse(graph: Multigraph) -> ZetaData:
    """Exact determinant of I − Au + (D−I)u² and the Euler characteristic."""
    mats = graph_matrices(graph)
    n = graph.num_vertices
    entries = []
    for i in range(n):
        row = []
        for j in range(n):
            delta = 1 if i == j else 0
            # constant, u, u² coefficients
            row.append((delta, -mats.A[i][j], mats.D[i][j] - delta))
        entries.append(row)
    return ZetaData(mats.chi, IntPolynomial(det_int_poly_matrix(entries)))


def a_sigma_matrices(
        cover: DerivedGraph) -> dict[GroupElement, list[list[int]]]:
    """The matrices A(σ): edges between (v_i, 1) and (v_j, σ) in the cover X_n.

    Built literally from the derived graph (loops at (v_i,1) count twice in
    A(1)); the identity Σ_σ A(σ)·χ(σ) = χ(A_α) cross-checks this against
    the voltage matrix and is exercised in the tests.
    """
    spec, base, n = cover.spec, cover.alpha.base, cover.level
    index = {v: i for i, v in enumerate(base.vertices)}
    m = base.num_vertices
    group = spec.enumerate_group(n)
    identity = spec.identity(n)
    out = {sigma: [[0] * m for _ in range(m)] for sigma in group}
    for _, ((v, g), (w, h)) in cover.graph.edges:
        i, j = index[v], index[w]
        if (v, g) == (w, h):
            # loop in the derived graph: contributes 2 to A(1)[i][i]
            if g == identity:
                out[identity][i][i] += 2
            continue
        # edge between (v_i, 1) and (v_j, sigma) for both orderings
        if g == identity:
            sigma = h
            out[sigma][i][j] += 1
        if h == identity:
            sigma = g
            out[sigma][j][i] += 1
    return out


def character_twisted_matrices(
        alpha: VoltageAssignment, n: int, chi: Character,
        sigma_matrices: dict[GroupElement, list[list[int]]],
) -> tuple[list[list[CyclotomicInteger]], list[list[CyclotomicInteger]]]:
    """(A_χ, D_χ): A_χ = Σ_σ A(σ)·χ(σ); D_χ is the (rational) degree matrix.

    sigma_matrices is ``a_sigma_matrices`` of the level-n cover.
    """
    spec = alpha.spec
    m = alpha.base.num_vertices
    p, k = spec.p, n
    zero = CyclotomicInteger.from_int(p, k, 0)
    a_chi = [[zero for _ in range(m)] for _ in range(m)]
    for sigma, mat in sigma_matrices.items():
        value = chi.value(sigma)
        for i in range(m):
            for j in range(m):
                if mat[i][j]:
                    a_chi[i][j] = a_chi[i][j] + value.scale(mat[i][j])
    degrees = graph_matrices(alpha.base).D
    d_chi = [[CyclotomicInteger.from_int(p, k, degrees[i][j])
              for j in range(m)] for i in range(m)]
    return a_chi, d_chi


def artin_l_inverse(alpha: VoltageAssignment, n: int, chi: Character,
                    sigma_matrices) -> ArtinLData:
    """Exact det part of the Artin-Ihara L-function for a character."""
    a_chi, d_chi = character_twisted_matrices(alpha, n, chi, sigma_matrices)
    m = alpha.base.num_vertices
    p = alpha.spec.p
    one = CyclotomicInteger.from_int(p, n, 1)
    zero = CyclotomicInteger.from_int(p, n, 0)
    entries = []
    for i in range(m):
        row = []
        for j in range(m):
            delta = one if i == j else zero
            # I − A_χ u + (D_χ − I) u², as u-coefficient triples
            row.append((delta, -a_chi[i][j], d_chi[i][j] - delta))
        entries.append(row)
    det = det_cyclotomic_poly_matrix(p, n, entries)
    return ArtinLData(chi, graph_matrices(alpha.base).chi, det)


def artin_l_norm(alpha: VoltageAssignment, n: int, chi: Character,
                 sigma_matrices) -> IntPolynomial:
    """Norm of the det part of L(χ,u)⁻¹: the product of the det parts of
    L(χ^a,u)⁻¹ over the Galois orbit of χ, as one integer determinant.

    For χ of order p^j, I − A_χ u + (D_χ − I)u² is taken over Z[ζ_{p^j}]
    (in conductor p^n the norm would count each conjugate φ(p^n)/φ(p^j)
    times), and each entry becomes its φ(p^j)-square multiplication matrix
    over Z[u].  These blocks commute, so the determinant of the
    (m·φ(p^j))-square result is the norm of the determinant.
    """
    p, j = alpha.spec.p, chi.order_level
    phi = euler_phi_prime_power(p, j)
    step = p ** (n - j)
    m = alpha.base.num_vertices
    size = m * phi
    a_chi = [[0] * size for _ in range(size)]
    for sigma, mat in sigma_matrices.items():
        nonzero = [(i, k, c) for i, row in enumerate(mat)
                   for k, c in enumerate(row) if c]
        if not nonzero:
            continue
        block = root_power_matrix(p, j, chi.exponent(sigma) // step)
        for i, k, c in nonzero:
            for r, block_row in enumerate(block):
                row = a_chi[i * phi + r]
                for t, b in enumerate(block_row):
                    row[k * phi + t] += c * b
    degrees = graph_matrices(alpha.base).D
    entries = [[(1, -a, degrees[x // phi][x // phi] - 1) if x == y else
                (0, -a, 0) for y, a in enumerate(a_chi[x])]
               for x in range(size)]
    return IntPolynomial(det_int_poly_matrix(entries))


def h_at_one(alpha: VoltageAssignment, n: int, chi: Character,
             sigma_matrices) -> CyclotomicInteger:
    """h(χ, 1) = det(D_χ − A_χ), exact."""
    a_chi, d_chi = character_twisted_matrices(alpha, n, chi, sigma_matrices)
    m = alpha.base.num_vertices
    matrix = [[d_chi[i][j] - a_chi[i][j] for j in range(m)] for i in range(m)]
    return det_cyclotomic(alpha.spec.p, n, matrix)


@dataclass(frozen=True)
class InterpolationReport:
    """Per-character outcome of h(χ,1) = (χ̄-component of Nrd(D − A_α^t))."""

    results: tuple[tuple[Character, bool], ...]

    @property
    def all_pass(self) -> bool:
        return all(ok for _, ok in self.results)


def interpolation_check(alpha: VoltageAssignment, n: int) -> InterpolationReport:
    """Check the L-value interpolation identity at every character.

    The transpose in D − A_α^t conjugates characters: the χ-component of the
    reduced norm equals h(χ̄, 1).
    """
    chars = characters(alpha.spec, n)  # the order bound, before level-n work
    laplacian = voltage_laplacian(alpha, n)
    components = {chi: value for chi, value in nrd_abelian(laplacian)}
    sigma_matrices = a_sigma_matrices(derive(alpha, n))
    results = []
    for chi in chars:
        lhs = h_at_one(alpha, n, chi, sigma_matrices)
        rhs = components[chi.conjugate()]
        results.append((chi, lhs == rhs))
    return InterpolationReport(tuple(results))


@dataclass(frozen=True)
class FactorizationReport:
    polynomial_match: bool
    exponent_match: bool

    @property
    def passed(self) -> bool:
        return self.polynomial_match and self.exponent_match


def factorization_check(alpha: VoltageAssignment, n: int) -> FactorizationReport:
    """∏_χ L(χ)^{-1} = ζ_{X_n}^{-1}, with Euler-characteristic bookkeeping.

    The product over all characters is taken as the product over Galois
    orbits of ``artin_l_norm``, all in Z[u].
    """
    orbits = galois_orbits(alpha.spec, n)
    cover = derive(alpha, n)
    sigma_matrices = a_sigma_matrices(cover)
    product = IntPolynomial((1,))
    for chi, _ in orbits:
        product = product * artin_l_norm(alpha, n, chi, sigma_matrices)
    zeta = ihara_zeta_inverse(cover.graph)
    total_exponent = (sum(size for _, size in orbits) *
                      graph_matrices(alpha.base).chi)
    return FactorizationReport(product == zeta.det_part,
                               total_exponent == zeta.chi)
