"""Characters of abelian quotients G^(n), and the reduced norm of the
voltage Laplacian D − A_α^t over Z[G^(n)].

A voltage Laplacian is given by its base: per edge, the indices (i, j) of
its ends and the normal form a of its voltage in G^(n), and the degrees.
χ(a) is computed in one place, ``Character.exponent``, and χ(A_α) is
built in one, ``character_adjacency``, as sparse power-basis coordinates
over Z[ζ_{p^j}], χ of order p^j.  The unit of work is the Galois orbit:
``orbit_nrd`` and ``orbit_h_values`` each take one integer polynomial
determinant Δ(x) per orbit, of a lift to Z[x], and
``cyclotomic.galois_images`` reads the value at every χ^a off it
(χ^a(M) = σ_a(χ(M))), orbit by orbit of ``galois_orbits``.  ``l_rows``
lifts the builder's coordinates, for ``orbit_nrd`` at u = 1 and
``zeta.artin_l_inverse`` at u = 2^B; ``orbit_h_values`` reads the
exponents and not the builder.  ``per_character`` spreads per-orbit
values over the characters, keyed by exponent vectors, so no character
is built per conjugate.  The regular representation of D − A_α^t is the
Laplacian of the cover X_n, so its determinant is 0, and it is never
built.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Callable, Iterable, Iterator, Sequence

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
    return [Character(spec, n, g) for g in spec.enumerate_group(n)]


def galois_orbits(chars: Sequence[Character]) -> Iterator[
        tuple[Character, list[int], list[tuple[int, ...]]]]:
    """(χ, units, conjugates) for the first character χ of each Galois
    orbit χ ↦ χ^a among ``chars``, all of one level n, in their order: the
    units a mod p^j, χ of order p^j, and the exponent vectors of χ^a in the
    same order.  χ^a depends on a mod p^j only, since p^(n−j) divides every
    exponent of χ.  The orbit has len(units) = φ(p^j) elements; it is one
    Q(ζ_{p^j}) component of the group algebra Q[G^(n)]."""
    seen: set[tuple[int, ...]] = set()
    for chi in chars:
        if chi.exponents in seen:
            continue
        p, mod = chi.spec.p, chi.spec.p ** chi.level
        units = [a for a in range(1, p ** chi.order_level) if a % p] or [1]
        conjugates = [tuple(a * e % mod for e in chi.exponents)
                      for a in units]
        seen.update(conjugates)
        yield chi, units, conjugates


def per_character(chars: Sequence[Character],
                  orbit_values: Callable[[Character, list[int]], Iterable]
                  ) -> list:
    """One value per character of ``chars``, in their order, taken one
    Galois orbit at a time: ``orbit_values(χ, units)`` for the first
    character χ of each orbit gives the values at χ^a, a in ``units``, in
    that order."""
    values: dict[tuple[int, ...], object] = {}
    for chi, units, conjugates in galois_orbits(chars):
        values.update(zip(conjugates, orbit_values(chi, units)))
    return [values[chi.exponents] for chi in chars]


def character_adjacency(chi: Character,
                        edges: Edges) -> dict[tuple[int, int], list[int]]:
    """χ(A_α) over Z[ζ_{p^j}], χ of order p^j, as the power-basis
    coordinates of its nonzero entries keyed by (row, column): an edge
    (i, k, a) adds ζ_{p^j}^e at (i, k) and ζ_{p^j}^−e at (k, i), both at
    (i, i) for a loop, e = ``chi.exponent(a)`` / p^(n−j)."""
    p, j = chi.spec.p, chi.order_level
    step = p ** (chi.level - j)
    phi = euler_phi_prime_power(p, j)
    entries: dict[tuple[int, int], list[int]] = {}
    for i, k, a in edges:
        e = chi.exponent(a) // step
        _add_monomial(entries.setdefault((i, k), [0] * phi), e, 1, p, j)
        _add_monomial(entries.setdefault((k, i), [0] * phi), -e, 1, p, j)
    return {key: coords for key, coords in entries.items() if any(coords)}


def l_rows(adjacency: dict[tuple[int, int], list[int]],
           degrees: Sequence[int], u: int) -> list[dict[int, list[int]]]:
    """Sparse rows {column: coefficients in x} of I − χ(A_α)·u + (D − I)·u²
    over Z[x], for an integer u, from the coordinates of
    ``character_adjacency``: x ↦ ζ_{p^j} takes them back.  At u = 1 they
    are the rows of D − χ(A_α)."""
    rows: list[dict[int, list[int]]] = [{} for _ in degrees]
    for (i, k), coords in adjacency.items():
        rows[i][k] = [-c * u for c in coords]
    for i, d in enumerate(degrees):
        rows[i].setdefault(i, [0])[0] += 1 + (d - 1) * u * u
    return rows


def orbit_nrd(chi: Character, edges: Edges,
              degrees: Sequence[int]) -> tuple[int, ...]:
    """Δ(x) with Δ(ζ_{p^j}^a) the χ^a-component of Nrd(D − A_α^t), χ of
    order p^j, for every unit a mod p^j.

    For abelian groups the reduced norm is the componentwise determinant
    under the character decomposition of the group algebra; the
    χ-component is det(D − χ(A_α)^t) = det(D − χ(A_α)).  Δ(x) is the
    determinant of ``l_rows`` at u = 1, the lift of D − χ(A_α) to Z[x],
    by one ``det_int_poly_matrix``.  Since χ^a(A_α) = σ_a(χ(A_α)), the
    χ^a-component is Δ(ζ_{p^j}^a).
    """
    return det_int_poly_matrix(
        l_rows(character_adjacency(chi, edges), degrees, 1))


def nrd_abelian(spec: TowerGroupSpec, n: int, edges: Edges,
                degrees: Sequence[int]
                ) -> list[tuple[Character, CyclotomicInteger]]:
    """Per-character determinants of D − A_α^t over an abelian G^(n), in
    ``characters`` order: one ``orbit_nrd`` per Galois orbit, whose
    conjugates ``galois_images`` reads off."""
    chars = characters(spec, n)

    def components(chi: Character, units: list[int]) -> list:
        return galois_images(spec.p, n, chi.order_level,
                             orbit_nrd(chi, edges, degrees), units)

    return [(chi, CyclotomicInteger(spec.p, n, value))
            for chi, value in zip(chars, per_character(chars, components))]


def orbit_h_values(chi: Character, edges: Edges,
                   degrees: Sequence[int]) -> tuple[int, ...]:
    """Δ(x) with Δ(ζ_{p^j}^a) = h(χ^a, 1) = det(D − χ^a(A_α)), χ of order
    p^j, for every unit a mod p^j.

    D − χ(A_α) is lifted to Z[x]: an edge (i, k, a) subtracts x^e at
    (i, k) and x^(−e mod p^j) at (k, i), e = ``chi.exponent(a)`` / p^(n−j),
    and D sits on the diagonal.  x ↦ ζ_{p^j}^a takes the lift to
    D − χ^a(A_α), and ``det_int_poly_matrix`` takes its determinant Δ(x).
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
    return det_int_poly_matrix(rows)


def regular_det_fits(spec: TowerGroupSpec, level: int, size: int) -> bool:
    """Whether |G^(level)|·size, the regular representation's size, fits."""
    return not (size and spec.order_exceeds(level,
                                            _REGULAR_DET_BOUND // size))
