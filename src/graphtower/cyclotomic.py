"""Exact arithmetic in Z[ζ] for prime-power roots of unity.

Elements are integer coefficient vectors of length φ(p^k) representing
polynomials in ζ = ζ_{p^k} modulo the cyclotomic polynomial
Φ_{p^k}(x) = Σ_{i<p} x^{i·p^{k-1}}.  Conductor 1 (k = 0) degenerates to the
ordinary integers, which keeps trivial characters on the same code path.

No arithmetic is done on elements: every determinant over Z[ζ] goes
through the integer kernel.  The entries' power-basis coordinates are
lifted to Z[x], ``linalg.det_int_poly_matrix`` takes one determinant Δ(x),
and ``galois_images`` reads Δ at ζ, or at every Galois conjugate ζ^a, by
one fold modulo x^(p^k) − 1, one permutation and one reduction modulo
Φ_{p^k} each.  ``det_cyclotomic`` is that route for one matrix; matrices
over Z[ζ][u] reach it by Kronecker substitution u = 2^B.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .linalg import _eval_poly, _unpack, det_int_poly_matrix


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

    @staticmethod
    def from_int(p: int, k: int, value: int) -> "CyclotomicInteger":
        phi = euler_phi_prime_power(p, k)
        return CyclotomicInteger(p, k, (value,) + (0,) * (phi - 1))

    def __neg__(self) -> "CyclotomicInteger":
        return CyclotomicInteger(self.p, self.k,
                                 tuple(-a for a in self.coeffs))

    def is_zero(self) -> bool:
        return not any(self.coeffs)


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


def root_power_matrix(p: int, k: int, exponent: int) -> list[list[int]]:
    """The φ×φ integer matrix of multiplication by ζ_{p^k}^exponent on the
    power basis 1, ζ, …, ζ^{φ−1}.

    x ↦ (its multiplication matrix) embeds Z[ζ] in the integer matrices, and
    the determinant of that matrix is the norm N(x).
    """
    phi = euler_phi_prime_power(p, k)
    rows = [[0] * phi for _ in range(phi)]
    for t in range(phi):
        column = [0] * phi
        _add_monomial(column, exponent + t, 1, p, k)
        for r, c in enumerate(column):
            rows[r][t] = c
    return rows


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
                  units: Sequence[int]) -> list[CyclotomicInteger]:
    """Δ(ζ^(a·p^(n−j))) in Z[ζ_{p^n}], ζ = ζ_{p^n}, for the integer
    polynomial Δ of ascending coefficients ``poly`` and each unit a mod
    p^j in ``units``, in that order.

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
    out = []
    for a in units:
        inverse = pow(a, -1, order)
        coeffs = [0] * euler_phi_prime_power(p, n)
        coeffs[::step] = _reduce_mod_phi(
            p, j, [folded[t * inverse % order] for t in range(order)])
        out.append(CyclotomicInteger(p, n, tuple(coeffs)))
    return out


def det_cyclotomic(p: int, k: int,
                   matrix: Sequence[Sequence[CyclotomicInteger]]
                   ) -> CyclotomicInteger:
    """Determinant over Z[ζ_{p^k}] through the integer kernel: the entries'
    power-basis coordinates are lifted to Z[x], ``det_int_poly_matrix``
    takes the one determinant Δ(x) over Z[x], and x ↦ ζ, a ring map, gives
    det = Δ(ζ), read off by ``galois_images``."""
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise ValueError("matrix is not square")
    rows = [{j: x.coeffs for j, x in enumerate(row) if not x.is_zero()}
            for row in matrix]
    return galois_images(p, k, k, det_int_poly_matrix(rows), [1])[0]


def det_cyclotomic_poly_matrix(
        p: int, k: int,
        matrix: Sequence[Sequence[Sequence[CyclotomicInteger]]],
) -> tuple[CyclotomicInteger, ...]:
    """Determinant of a matrix over Z[ζ_{p^k}][u] whose entries list their
    ascending u-coefficients; the result has no trailing zeros.

    Kronecker substitution: one ``det_cyclotomic`` at u = 2^B, whose
    power-basis coordinates split into signed base-2^B digits.
    """
    # The determinant is the image under x ↦ ζ of the determinant of the
    # lifted matrix over Z[x][u], of ℓ1 norm at most S = ∏_i Σ_j ‖a_ij‖₁.
    # Every ζ^e has power-basis coordinates in {0, ±1}, so no coordinate of
    # a u-coefficient exceeds S, and each fits in a signed B-bit digit.
    bound = 1
    for row in matrix:
        bound *= sum(abs(c) for entry in row for x in entry for c in x.coeffs)
    bits = bound.bit_length() + 1
    phi = euler_phi_prime_power(p, k)
    packed = [[CyclotomicInteger(p, k, tuple(
        _eval_poly([x.coeffs[i] for x in entry], 1 << bits)
        for i in range(phi))) for entry in row] for row in matrix]
    digits = [_unpack(c, bits) for c in det_cyclotomic(p, k, packed).coeffs]
    return tuple(
        CyclotomicInteger(p, k, tuple(d[t] if t < len(d) else 0
                                      for d in digits))
        for t in range(max(map(len, digits))))
