"""Characters of abelian quotients G^(n), and the reduced norm of the
voltage Laplacian D − A_α^t over Z[G^(n)].

A voltage Laplacian is given by its base: per edge, the indices (i, j) of
its ends and the normal form a of its voltage in G^(n), and the degrees.
χ(a) is computed in one place, ``Character.exponent``, and χ(A_α) is
built in one, ``character_adjacency``.  Both ``nrd_abelian`` and
``orbit_h_values`` take one integer polynomial determinant per Galois
orbit of characters, of a lift to Z[x], and read the values of the whole
orbit off it with ``cyclotomic.galois_images`` (χ^a(M) = σ_a(χ(M))).
``nrd_abelian`` lifts the coordinates that the builder gives; the lift of
``orbit_h_values`` reads the exponents and not the builder.  The regular
representation of D − A_α^t is the Laplacian of the cover X_n, so its
determinant is 0, and it is never built.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Sequence

from .cyclotomic import (CyclotomicInteger, _add_monomial,
                         euler_phi_prime_power, galois_images)
from .errors import PreconditionError
from .groups import TowerGroupSpec, p_valuation
from .linalg import det_int_poly_matrix

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
    """Per-character determinants of D − A_α^t over an abelian G^(n), in
    ``characters`` order.

    For abelian groups the reduced norm is the componentwise determinant
    under the character decomposition of the group algebra; the
    χ-component is det(D − χ(A_α)^t).  It is taken once per Galois orbit.
    For the first character χ of an orbit, of order p^j, the entries of
    χ(A_α) from ``character_adjacency`` lie in Z[ζ_{p^j}], whose
    coordinates in Z[ζ_{p^n}] sit at the multiples of p^(n−j).  Those
    coordinates of D − χ(A_α)^t are lifted to Z[x], so that x ↦ ζ_{p^j}
    takes the lift back, and one ``det_int_poly_matrix`` gives Δ(x).
    Since χ^a(A_α) = σ_a(χ(A_α)), the χ^a-component is Δ(ζ_{p^j}^a), read
    off by ``_orbit``.
    """
    m = len(degrees)
    chars = characters(spec, n)
    values: dict[tuple[int, ...], CyclotomicInteger] = {}
    for chi in chars:
        if chi.exponents in values:
            continue
        step = spec.p ** (n - chi.order_level)
        rows: list[dict[int, list[int]]] = [{} for _ in degrees]
        for k, row in enumerate(character_adjacency(chi, m, edges)):
            for i, x in enumerate(row):  # entry (k, i) goes to (i, k)
                if not x.is_zero():
                    rows[i][k] = [-c for c in x.coeffs[::step]]
        for i, d in enumerate(degrees):
            rows[i].setdefault(i, [0])[0] += d
        values.update((conjugate.exponents, value) for conjugate, value in
                      _orbit(chi, det_int_poly_matrix(rows)))
    return [(chi, values[chi.exponents]) for chi in chars]


def orbit_h_values(chi: Character, edges: Edges, degrees: Sequence[int]
                   ) -> list[tuple[Character, CyclotomicInteger]]:
    """h(χ^a, 1) = det(D − χ^a(A_α)) for every unit a mod p^j, χ of order
    p^j, in order of a, from one integer polynomial determinant.

    D − χ(A_α) is lifted to Z[x]: an edge (i, k, a) subtracts x^e at
    (i, k) and x^(−e mod p^j) at (k, i), e = ``chi.exponent(a)`` / p^(n−j),
    and D sits on the diagonal.  Its determinant Δ(x) is taken by
    ``det_int_poly_matrix``; x ↦ ζ_{p^j}^a takes the lift to
    D − χ^a(A_α), so h(χ^a, 1) = Δ(ζ_{p^j}^a), read off by ``_orbit``.
    This lift reads the exponents, not ``character_adjacency``.
    """
    p, n, j = chi.spec.p, chi.level, chi.order_level
    order, step = p ** j, p ** (n - j)
    rows = [{i: [d]} for i, d in enumerate(degrees)]
    for i, k, a in edges:
        e = chi.exponent(a) // step
        for first, second, power in ((i, k, e), (k, i, -e % order)):
            entry = rows[first].setdefault(second, [0])
            entry += [0] * (power + 1 - len(entry))
            entry[power] -= 1
    return _orbit(chi, det_int_poly_matrix(rows))


def _orbit(chi: Character, delta: Sequence[int]
           ) -> list[tuple[Character, CyclotomicInteger]]:
    """(χ^a, Δ(ζ_{p^j}^a)) for each unit a mod p^j, in order of a, χ of
    order p^j, with the values in Z[ζ_{p^n}], n = χ's level."""
    p, n, j = chi.spec.p, chi.level, chi.order_level
    mod = p ** n
    units = [a for a in range(1, p ** j) if a % p] or [1]
    return [(Character(chi.spec, n, tuple(a * x % mod
                                          for x in chi.exponents)), value)
            for a, value in zip(units, galois_images(p, n, j, delta, units))]


def regular_det_fits(spec: TowerGroupSpec, level: int, size: int) -> bool:
    """Whether |G^(level)|·size, the regular representation's size, fits."""
    return not (size and spec.order_exceeds(level,
                                            _REGULAR_DET_BOUND // size))
