"""Characters of abelian quotients G^(n), and the reduced norm of the
voltage Laplacian D − A_α^t over Z[G^(n)].

A voltage Laplacian is given by its base: per edge, the indices (i, j) of
its ends and the normal form a of its voltage in G^(n), and the degrees.
χ(a) is computed in one place, ``Character.exponent``, and χ(A_α) is
built in one, ``character_adjacency``; the regular representation, the
kind-agnostic route, is built from the same data.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Iterable, Sequence

from .cyclotomic import (CyclotomicInteger, _add_monomial, det_cyclotomic,
                         euler_phi_prime_power)
from .errors import BoundExceededError, PreconditionError
from .groups import GroupElement, TowerGroupSpec, p_valuation
from .linalg import det_int

_REGULAR_DET_BOUND = 300  # |G^(n)| · matrix size

Edges = Sequence[tuple[int, int, tuple[int, ...]]]  # (i, j, normal form)


@dataclass(frozen=True)
class Character:
    """Character of an abelian quotient G^(n), valued in μ_{p^n}."""

    spec: TowerGroupSpec
    level: int
    exponents: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.spec.kind != "abelian":
            raise PreconditionError(
                "characters are defined for abelian quotients only")
        if len(self.exponents) != self.spec.rank:
            raise ValueError("exponent vector length differs from rank")

    def conjugate(self) -> "Character":
        mod = self.spec.p ** self.level
        return Character(self.spec, self.level,
                         tuple((-e) % mod for e in self.exponents))

    @property
    def order_level(self) -> int:
        """j with χ of order p^j: its values lie in Z[ζ_{p^j}]."""
        mod = self.spec.p ** self.level
        return self.level - p_valuation(gcd(mod, *self.exponents), self.spec.p)

    def exponent(self, a: tuple[int, ...]) -> int:
        """e with χ(a) = ζ_{p^n}^e, reduced mod p^n, for a given by its
        normal form in G^(n): the one place where χ(a) is computed."""
        mod = self.spec.p ** self.level
        return sum(e * x for e, x in zip(self.exponents, a)) % mod


def characters(spec: TowerGroupSpec, n: int) -> list[Character]:
    """All characters of G^(n), lexicographic by exponent vector.

    One per group element, so ``enumerate_group`` lists and bounds them.
    """
    if spec.kind != "abelian":
        raise PreconditionError(
            "characters are defined for abelian quotients only")
    return [Character(spec, n, g.data) for g in spec.enumerate_group(n)]


def galois_orbits(spec: TowerGroupSpec,
                  n: int) -> list[tuple[Character, int]]:
    """One character per orbit of χ ↦ χ^a (a a unit mod p^n), with its size.

    Representatives come in ``characters()`` order.  The orbit of a
    character of order p^j has φ(p^j) elements; it is one Q(ζ_{p^j})
    component of the group algebra Q[G^(n)].
    """
    chars = characters(spec, n)
    mod = spec.p ** n
    units = [a for a in range(1, mod) if a % spec.p] or [1]
    seen: set[tuple[int, ...]] = set()
    out = []
    for chi in chars:
        if chi.exponents in seen:
            continue
        orbit = {tuple(a * e % mod for e in chi.exponents) for a in units}
        seen |= orbit
        out.append((chi, len(orbit)))
    return out


def character_adjacency(chi: Character, size: int,
                        edges: Edges) -> list[list[CyclotomicInteger]]:
    """χ(A_α) over Z[ζ_{p^n}], n = χ's level, for a base of ``size``
    vertices: an edge (i, j, a) adds ζ^χ(a) at (i, j) and ζ^−χ(a) at
    (j, i), both at (i, i) for a loop.
    """
    p, n = chi.spec.p, chi.level
    mod = p ** n
    coeffs = [[[0] * euler_phi_prime_power(p, n) for _ in range(size)]
              for _ in range(size)]
    for i, j, a in edges:
        e = chi.exponent(a)
        _add_monomial(coeffs[i][j], e, 1, p, n)
        _add_monomial(coeffs[j][i], -e % mod, 1, p, n)
    return [[CyclotomicInteger(p, n, tuple(c)) for c in row] for row in coeffs]


def nrd_abelian(spec: TowerGroupSpec, n: int, edges: Edges,
                degrees: Sequence[int]
                ) -> list[tuple[Character, CyclotomicInteger]]:
    """Per-character determinants of D − A_α^t over an abelian G^(n).

    For abelian groups the reduced norm is the componentwise determinant
    under the character decomposition of the group algebra; the
    χ-component is det(D − χ(A_α)^t).
    """
    m = len(degrees)
    return [(chi, _det_degrees_minus(spec.p, n, degrees,
                                     zip(*character_adjacency(chi, m, edges))))
            for chi in characters(spec, n)]


def _det_degrees_minus(p: int, n: int, degrees: Sequence[int],
                       matrix: Iterable[Sequence[CyclotomicInteger]]
                       ) -> CyclotomicInteger:
    """det(D − matrix) over Z[ζ_{p^n}], D = diag(degrees), taken as
    (−1)^m·det(matrix − D), which changes only the diagonal."""
    image = [list(row) for row in matrix]
    for i, d in enumerate(degrees):
        image[i][i] = image[i][i] - CyclotomicInteger.from_int(p, n, d)
    det = det_cyclotomic(p, n, image)
    return -det if len(degrees) % 2 else det


def regular_det_fits(spec: TowerGroupSpec, level: int, size: int) -> bool:
    """Whether |G^(level)|·size, the regular representation's size, fits."""
    return not (size and spec.order_exceeds(level,
                                            _REGULAR_DET_BOUND // size))


def regular_det(spec: TowerGroupSpec, n: int, edges: Edges,
                degrees: Sequence[int]) -> int:
    """Determinant of D − A_α^t acting on Z[G^(n)]^m by left
    multiplication, for any group kind.

    Row and column i·|G| + k stand for g_k in the i-th summand, in
    ``enumerate_group`` order.  D puts d_i on the diagonal of block i.  An
    edge (i, j, a) puts −a at (j, i) of D − A_α^t and −a⁻¹ at (i, j); left
    multiplication by a takes g_k to g_h = a·g_k, and by a⁻¹ takes g_h
    back to g_k, so one ``multiply`` per group element gives both.  For
    an abelian quotient the result is the product of the per-character
    determinants.
    """
    m = len(degrees)
    if not regular_det_fits(spec, n, m):
        raise BoundExceededError(
            f"regular representation size "
            f"{m}·{spec.p}^{n * spec.dimension} "
            f"exceeds bound {_REGULAR_DET_BOUND}")
    group = spec.enumerate_group(n)
    order = len(group)
    index = {g: k for k, g in enumerate(group)}
    big = [[0] * (m * order) for _ in range(m * order)]
    for i, d in enumerate(degrees):
        for k in range(i * order, (i + 1) * order):
            big[k][k] = d
    for i, j, a in edges:
        x = GroupElement(n, a)
        for k, g in enumerate(group):
            h = index[spec.multiply(x, g)]
            big[j * order + h][i * order + k] -= 1
            big[i * order + k][j * order + h] -= 1
    return det_int(big)
