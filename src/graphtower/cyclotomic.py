"""Exact arithmetic in Z[ζ] for prime-power roots of unity.

Elements are integer coefficient vectors of length φ(p^k) representing
polynomials in ζ = ζ_{p^k} modulo the cyclotomic polynomial
Φ_{p^k}(x) = Σ_{i<p} x^{i·p^{k-1}}.  Conductor 1 (k = 0) degenerates to the
ordinary integers, which keeps trivial characters on the same code path.

No arithmetic is done on elements and no determinant is taken here.  The
callers lift a matrix over Z[ζ_{p^j}] to Z[x] and take one integer
polynomial determinant Δ(x) per Galois orbit; ``galois_images`` reads Δ at
every Galois conjugate ζ^a by one fold modulo x^(p^j) − 1, one permutation
and one reduction modulo Φ_{p^j} each.  It is Z-linear, so it reads the
u-packed coefficients of a determinant over Z[x][u] as well.
``power_coordinates`` tabulates the powers of ζ, and the orbit norms of
``zeta.artin_l_norm`` read their multiplication blocks off it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence


def euler_phi_prime_power(p: int, k: int) -> int:
    return 1 if k == 0 else (p - 1) * p ** (k - 1)


@dataclass(frozen=True)
class CyclotomicInteger:
    """An element of Z[ζ_{p^k}] as a reduced coefficient vector."""

    p: int
    k: int
    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.coeffs) != euler_phi_prime_power(self.p, self.k):
            raise ValueError("coefficient vector has wrong length")

    @property
    def conductor(self) -> int:
        return self.p ** self.k


def _add_monomial(coeffs: list, exponent: int, value, p: int, k: int) -> None:
    """Add value·ζ^exponent to a reduced coefficient vector, in place."""
    if k == 0:
        coeffs[0] += value
        return
    exponent %= p ** k
    phi = (p - 1) * p ** (k - 1)
    if exponent < phi:
        coeffs[exponent] += value
        return
    # ζ^{(p-1)p^{k-1}+r} = -Σ_{i<p-1} ζ^{i·p^{k-1}+r}
    r = exponent - phi
    step = p ** (k - 1)
    for i in range(p - 1):
        coeffs[i * step + r] -= value


def power_coordinates(p: int, k: int) -> list[list[tuple[int, int]]]:
    """For each s < p^k, the nonzero power-basis coordinates (r, c) of
    ζ_{p^k}^s, as ``_add_monomial`` reduces it.

    Column t of the multiplication matrix of ζ^e is entry (e + t) mod p^k,
    and the determinant of that matrix is the norm N(ζ^e).
    """
    phi = euler_phi_prime_power(p, k)
    table = []
    for s in range(p ** k):
        coords = [0] * phi
        _add_monomial(coords, s, 1, p, k)
        table.append([(r, c) for r, c in enumerate(coords) if c])
    return table


def _reduce_mod_phi(p: int, k: int, coeffs: list[int]) -> list[int]:
    """Power-basis coordinates of Σ_e c_e·ζ^e, ζ = ζ_{p^k}, from one
    coefficient c_e per exponent e mod p^k: each c_(φ+r) leaves by
    ζ^(φ+r) = −Σ_{i<p−1} ζ^(i·p^(k−1)+r)."""
    if k == 0:
        return coeffs
    block = p ** (k - 1)
    phi = len(coeffs) - block
    tail = coeffs[phi:]
    return [c - tail[e % block] for e, c in enumerate(coeffs[:phi])]


def galois_images(p: int, n: int, j: int, poly: Sequence[int],
                  units: Sequence[int]) -> list[tuple[int, ...]]:
    """The coordinates of Δ(ζ^(a·p^(n−j))) in Z[ζ_{p^n}], ζ = ζ_{p^n}, for
    the integer polynomial Δ of ascending coefficients ``poly`` and each
    unit a mod p^j in ``units``, in that order.

    x ↦ ζ^(a·p^(n−j)) is a ring map Z[x] → Z[ζ_{p^n}] (Washington,
    *Introduction to Cyclotomic Fields*, §2) onto a root of order p^j, so
    Δ is folded once modulo x^(p^j) − 1.  For each a, x^t ↦ x^(a·t)
    permutes the folded coefficients, one reduction modulo Φ_{p^j} gives
    the coordinates over Z[ζ_{p^j}], and ζ_{p^j}^i = ζ^(i·p^(n−j)) places
    them in Z[ζ_{p^n}].  No determinant is taken per unit.
    """
    order = p ** j
    folded = [0] * order
    for t, c in enumerate(poly):
        folded[t % order] += c
    step = p ** (n - j)
    phi = euler_phi_prime_power(p, n)
    out = []
    for a in units:
        inverse = pow(a, -1, order)
        coeffs = [0] * phi
        coeffs[::step] = _reduce_mod_phi(
            p, j, [folded[t * inverse % order] for t in range(order)])
        out.append(tuple(coeffs))
    return out
