"""Ihara zeta functions, Artin-Ihara L-functions, and their identities.

ζ_X(u)⁻¹ is one integer determinant by Kronecker substitution.  The
factorization check takes one more integer determinant per Galois orbit of
characters, the norm of the orbit's L-function.  The per-character
L-functions that ``lfun`` prints are one Z[ζ] determinant each, by the same
substitution.  Every identity check below is an exact equality — never a
float comparison.

The L-functions and the interpolation check never build the cover: its
adjacency Σ_σ A(σ)·σ, where A(σ)_ij counts the edges between (v_i, 1) and
(v_j, σ) in X_n, is the voltage matrix A_α of ``voltage_adjacency``, one
``GroupRingMatrix`` over Z[G^(n)] per job (a test reads it off the edges of
X_n).  Characters reach it only through ``character_evaluate``, the one
character twist in the package.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cyclotomic import (CyclotomicInteger, det_cyclotomic,
                         det_cyclotomic_poly_matrix, euler_phi_prime_power,
                         root_power_matrix)
from .graphs import Multigraph, graph_matrices
from .grouprings import (Character, GroupRingMatrix, character_evaluate,
                         galois_orbits, nrd_abelian)
from .linalg import det_int_poly_matrix
from .polynomials import IntPolynomial
from .voltage import (VoltageAssignment, check_derive_bounds, derive,
                      voltage_adjacency, voltage_laplacian)


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


def artin_l_inverse(alpha: VoltageAssignment, n: int, chi: Character,
                    adjacency: GroupRingMatrix) -> ArtinLData:
    """Exact det part of the Artin-Ihara L-function for a character.

    adjacency is ``voltage_adjacency(alpha, n)``.
    """
    mats = graph_matrices(alpha.base)
    p = alpha.spec.p

    def const(c: int) -> CyclotomicInteger:
        return CyclotomicInteger.from_int(p, n, c)

    # I − χ(A)u + (D − I)u², as u-coefficient triples
    entries = [[(const(int(i == j)), -character_evaluate(chi, x),
                 const(mats.D[i][j] - int(i == j)))
                for j, x in enumerate(row)]
               for i, row in enumerate(adjacency.entries)]
    return ArtinLData(chi, mats.chi, det_cyclotomic_poly_matrix(p, n, entries))


def artin_l_norm(alpha: VoltageAssignment, n: int, chi: Character,
                 adjacency: GroupRingMatrix) -> IntPolynomial:
    """Norm of the det part of L(χ,u)⁻¹: the product of the det parts of
    L(χ^a,u)⁻¹ over the Galois orbit of χ, as one integer determinant.

    For χ of order p^j, I − χ(A)u + (D − I)u² is taken over Z[ζ_{p^j}]
    (in conductor p^n the norm would count each conjugate φ(p^n)/φ(p^j)
    times), and each entry becomes its φ(p^j)-square multiplication matrix
    over Z[u], one ``root_power_matrix`` block per group-ring term, built
    once per distinct exponent.  These blocks commute, so the determinant of the (m·φ(p^j))-square result is
    the norm of the determinant.
    """
    p, j = alpha.spec.p, chi.order_level
    phi = euler_phi_prime_power(p, j)
    step = p ** (n - j)
    size = adjacency.size * phi
    a_chi = [[0] * size for _ in range(size)]
    blocks = {}
    for i, row in enumerate(adjacency.entries):
        for k, x in enumerate(row):
            for sigma, c in x.terms:
                e = chi.exponent(sigma) // step
                if e not in blocks:
                    blocks[e] = root_power_matrix(p, j, e)
                block = blocks[e]
                for r, block_row in enumerate(block):
                    out = a_chi[i * phi + r]
                    for t, b in enumerate(block_row):
                        out[k * phi + t] += c * b
    degrees = graph_matrices(alpha.base).D
    entries = [[(1, -a, degrees[x // phi][x // phi] - 1) if x == y else
                (0, -a, 0) for y, a in enumerate(a_chi[x])]
               for x in range(size)]
    return IntPolynomial(det_int_poly_matrix(entries))


def h_at_one(alpha: VoltageAssignment, n: int, chi: Character,
             adjacency: GroupRingMatrix) -> CyclotomicInteger:
    """h(χ, 1) = det(D − χ(A)), exact."""
    degrees = graph_matrices(alpha.base).D
    p = alpha.spec.p
    matrix = [[CyclotomicInteger.from_int(p, n, degrees[i][j]) -
               character_evaluate(chi, x) for j, x in enumerate(row)]
              for i, row in enumerate(adjacency.entries)]
    return det_cyclotomic(p, n, matrix)


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
    reduced norm equals h(χ̄, 1).  A_α is built once, and the characters are
    listed once, by ``nrd_abelian``.
    """
    check_derive_bounds(alpha, n)  # the bounds of X_n, before level-n work
    adjacency = voltage_adjacency(alpha, n)
    components = dict(nrd_abelian(voltage_laplacian(alpha, n, adjacency)))
    return InterpolationReport(tuple(
        (chi, h_at_one(alpha, n, chi, adjacency) ==
         components[chi.conjugate()]) for chi in components))


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
    adjacency = voltage_adjacency(alpha, n)
    product = IntPolynomial((1,))
    for chi, _ in orbits:
        product = product * artin_l_norm(alpha, n, chi, adjacency)
    zeta = ihara_zeta_inverse(cover.graph)
    total_exponent = (sum(size for _, size in orbits) *
                      graph_matrices(alpha.base).chi)
    return FactorizationReport(product == zeta.det_part,
                               total_exponent == zeta.chi)
