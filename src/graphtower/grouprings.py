"""Exact arithmetic in the integral group rings Z[G^(n)].

Includes characters of abelian quotients, per-character determinants (the
abelian reduced norm) over cyclotomic integers, and the determinant of the
regular representation as the kind-agnostic fallback.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Mapping

from .cyclotomic import (CyclotomicInteger, _add_monomial, det_cyclotomic,
                         euler_phi_prime_power)
from .errors import BoundExceededError, LevelMismatchError, PreconditionError
from .groups import GroupElement, TowerGroupSpec, p_valuation
from .linalg import det_int

_REGULAR_DET_BOUND = 300  # |G^(n)| · matrix size


@dataclass(frozen=True)
class GroupRingElement:
    """Element of Z[G^(n)] as a pruned support map."""

    spec: TowerGroupSpec
    level: int
    terms: tuple[tuple[GroupElement, int], ...]  # sorted, zero-free

    @staticmethod
    def from_terms(spec: TowerGroupSpec, level: int,
                   terms: Mapping[GroupElement, int]) -> "GroupRingElement":
        pruned = {g: c for g, c in terms.items() if c != 0}
        for g in pruned:
            if g.level != level:
                raise LevelMismatchError(
                    f"term at level {g.level} in element at level {level}")
        ordered = tuple(sorted(pruned.items(), key=lambda item: item[0].data))
        return GroupRingElement(spec, level, ordered)

    @staticmethod
    def constant(spec: TowerGroupSpec, level: int, c: int) -> "GroupRingElement":
        return GroupRingElement.from_terms(spec, level,
                                           {spec.identity(level): c})

    def _check(self, other: "GroupRingElement") -> None:
        if self.level != other.level:
            raise LevelMismatchError(
                f"operands at levels {self.level} and {other.level}")

    def __add__(self, other: "GroupRingElement") -> "GroupRingElement":
        self._check(other)
        acc = dict(self.terms)
        for g, c in other.terms:
            acc[g] = acc.get(g, 0) + c
        return GroupRingElement.from_terms(self.spec, self.level, acc)

    def __neg__(self) -> "GroupRingElement":
        return GroupRingElement(self.spec, self.level,
                                tuple((g, -c) for g, c in self.terms))

    def __sub__(self, other: "GroupRingElement") -> "GroupRingElement":
        return self + (-other)


@dataclass(frozen=True)
class GroupRingMatrix:
    """Square matrix over Z[G^(n)]."""

    spec: TowerGroupSpec
    level: int
    entries: tuple[tuple[GroupRingElement, ...], ...]

    def __post_init__(self) -> None:
        n = len(self.entries)
        for row in self.entries:
            if len(row) != n:
                raise ValueError("matrix is not square")
            for x in row:
                if x.level != self.level:
                    raise LevelMismatchError("entry level differs from matrix level")

    @property
    def size(self) -> int:
        return len(self.entries)


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

    def exponent(self, g: GroupElement) -> int:
        """e with χ(g) = ζ_{p^n}^e, reduced mod p^n."""
        mod = self.spec.p ** self.level
        return sum(e * x for e, x in zip(self.exponents, g.data)) % mod


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


def character_evaluate(chi: Character,
                       x: GroupRingElement) -> CyclotomicInteger:
    """Linear extension of χ to the group ring: Σ c·ζ^e(g) over the terms.

    The one place where a character is applied to a group-ring element.
    """
    if x.level != chi.level:
        raise LevelMismatchError("character and element live at different levels")
    p, k = chi.spec.p, chi.level
    coeffs = [0] * euler_phi_prime_power(p, k)
    for g, c in x.terms:
        _add_monomial(coeffs, chi.exponent(g), c, p, k)
    return CyclotomicInteger(p, k, tuple(coeffs))


def nrd_abelian(
        matrix: GroupRingMatrix) -> list[tuple[Character, CyclotomicInteger]]:
    """Per-character determinants of a matrix over an abelian quotient.

    For abelian groups the reduced norm is the componentwise determinant
    under the character decomposition of the group algebra.
    """
    spec = matrix.spec
    out = []
    for chi in characters(spec, matrix.level):
        image = [[character_evaluate(chi, x) for x in row]
                 for row in matrix.entries]
        out.append((chi, det_cyclotomic(spec.p, matrix.level, image)))
    return out


def regular_det_fits(spec: TowerGroupSpec, level: int, size: int) -> bool:
    """Whether |G^(level)|·size, the regular representation's size, fits."""
    return not (size and spec.order_exceeds(level,
                                            _REGULAR_DET_BOUND // size))


def regular_det(matrix: GroupRingMatrix) -> int:
    """Determinant of left multiplication on the regular representation.

    Works for any group kind; equals the product over characters of the
    per-character determinants when the quotient is abelian.
    """
    spec = matrix.spec
    m = matrix.size
    if not regular_det_fits(spec, matrix.level, m):
        raise BoundExceededError(
            f"regular representation size "
            f"{m}·{spec.p}^{matrix.level * spec.dimension} "
            f"exceeds bound {_REGULAR_DET_BOUND}")
    group = spec.enumerate_group(matrix.level)
    order = len(group)
    index = {g: i for i, g in enumerate(group)}
    size = m * order
    big = [[0] * size for _ in range(size)]
    for bi, row in enumerate(matrix.entries):
        for bj, x in enumerate(row):
            # left multiplication by x: basis g ↦ Σ c·(h g)
            for gj, g in enumerate(group):
                for h, c in x.terms:
                    hi = index[spec.multiply(h, g)]
                    big[bi * order + hi][bj * order + gj] += c
    return det_int(big)
