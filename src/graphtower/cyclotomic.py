"""Exact arithmetic in Z[ζ] for prime-power roots of unity.

Elements are integer coefficient vectors of length φ(p^k) representing
polynomials in ζ = ζ_{p^k} modulo the cyclotomic polynomial
Φ_{p^k}(x) = Σ_{i<p} x^{i·p^{k-1}}.  Conductor 1 (k = 0) degenerates to the
ordinary integers, which keeps trivial characters on the same code path.

Determinants over Z[ζ] are taken in one place, ``det_cyclotomic``, by
Bareiss elimination written on ``CyclotomicInteger``; matrices over Z[ζ][u]
reach it by Kronecker substitution.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .linalg import _eval_poly, _unpack


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

    def _compat(self, other: "CyclotomicInteger") -> None:
        if (self.p, self.k) != (other.p, other.k):
            raise ValueError("conductor mismatch")

    def __sub__(self, other: "CyclotomicInteger") -> "CyclotomicInteger":
        self._compat(other)
        return CyclotomicInteger(
            self.p, self.k,
            tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "CyclotomicInteger":
        return CyclotomicInteger(self.p, self.k,
                                 tuple(-a for a in self.coeffs))

    def __mul__(self, other: "CyclotomicInteger") -> "CyclotomicInteger":
        self._compat(other)
        phi = len(self.coeffs)
        reduced = [0] * phi
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                if b:
                    _add_monomial(reduced, i + j, a * b, self.p, self.k)
        return CyclotomicInteger(self.p, self.k, tuple(reduced))

    def is_zero(self) -> bool:
        return all(a == 0 for a in self.coeffs)

    def is_rational(self) -> bool:
        return all(a == 0 for a in self.coeffs[1:])

    def exact_div(self, other: "CyclotomicInteger") -> "CyclotomicInteger":
        """Quotient self/other, required to lie in Z[ζ]."""
        self._compat(other)
        if other.is_zero():
            raise ZeroDivisionError("division by zero cyclotomic integer")
        if other.is_rational():
            d = other.coeffs[0]
            out = []
            for a in self.coeffs:
                q, r = divmod(a, d)
                if r:
                    raise ArithmeticError("inexact cyclotomic division")
                out.append(q)
            return CyclotomicInteger(self.p, self.k, tuple(out))
        inv = _inverse_mod_phi(other.coeffs, self.p, self.k)
        prod = _mul_fractions(self.coeffs, inv, self.p, self.k)
        out = []
        for c in prod:
            if c.denominator != 1:
                raise ArithmeticError("inexact cyclotomic division")
            out.append(int(c))
        return CyclotomicInteger(self.p, self.k, tuple(out))


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


def _cyclotomic_poly(p: int, k: int) -> list[int]:
    """Coefficients (ascending) of Φ_{p^k}."""
    phi = euler_phi_prime_power(p, k)
    coeffs = [0] * (phi + 1)
    step = p ** (k - 1)
    for i in range(p):
        coeffs[i * step] = 1
    return coeffs


def _mul_fractions(a: Sequence, b: Sequence[Fraction],
                   p: int, k: int) -> list[Fraction]:
    phi = euler_phi_prime_power(p, k)
    out = [Fraction(0)] * phi
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            if y:
                _add_monomial(out, i + j, Fraction(x) * y, p, k)
    return out


def _inverse_mod_phi(coeffs: Sequence[int], p: int, k: int) -> list[Fraction]:
    """Inverse of a nonzero element in Q(ζ) via extended Euclid mod Φ."""
    phi_poly = [Fraction(c) for c in _cyclotomic_poly(p, k)]
    a = [Fraction(c) for c in coeffs]

    def trim(poly: list[Fraction]) -> list[Fraction]:
        while poly and poly[-1] == 0:
            poly.pop()
        return poly

    def divmod_poly(num: list[Fraction],
                    den: list[Fraction]) -> tuple[list[Fraction], list[Fraction]]:
        num = list(num)
        q = [Fraction(0)] * max(len(num) - len(den) + 1, 0)
        while len(num) >= len(den) and trim(num):
            shift = len(num) - len(den)
            factor = num[-1] / den[-1]
            q[shift] = factor
            for i, d in enumerate(den):
                num[shift + i] -= factor * d
            trim(num)
        return q, num

    # extended gcd of a and Φ: s·a + t·Φ = gcd (a constant, since Φ irreducible)
    r0, r1 = trim(list(a)), trim(list(phi_poly))
    s0, s1 = [Fraction(1)], [Fraction(0)]
    while r1:
        q, r = divmod_poly(r0, r1)
        r0, r1 = r1, trim(r)
        # s_next = s0 - q·s1
        prod = [Fraction(0)] * (len(q) + len(s1))
        for i, qc in enumerate(q):
            if qc:
                for j, sc in enumerate(s1):
                    prod[i + j] += qc * sc
        s_next = [
            (s0[i] if i < len(s0) else Fraction(0)) -
            (prod[i] if i < len(prod) else Fraction(0))
            for i in range(max(len(s0), len(prod)))]
        s0, s1 = s1, trim(s_next)
    if len(r0) != 1:
        raise ArithmeticError("element not invertible modulo Φ")
    unit = r0[0]
    inv = [c / unit for c in s0]
    phi = euler_phi_prime_power(p, k)
    out = [Fraction(0)] * phi
    for i, c in enumerate(inv):
        if c:
            _add_monomial(out, i, c, p, k)
    return out


def det_cyclotomic(p: int, k: int,
                   matrix: Sequence[Sequence[CyclotomicInteger]]
                   ) -> CyclotomicInteger:
    """Determinant over Z[ζ_{p^k}] by fraction-free (Bareiss) elimination:
    step s pivots on the first nonzero entry of column s and sets each a_ij
    below and right of it to (pivot·a_ij − a_is·a_sj) / pivot_{s−1}, an
    exact division, since the result is a minor of the input."""
    n = len(matrix)
    m = [list(row) for row in matrix]
    if any(len(row) != n for row in m):
        raise ValueError("matrix is not square")
    prev = CyclotomicInteger.from_int(p, k, 1)
    if n == 0:
        return prev
    sign = 1
    for s in range(n - 1):
        pivot_row = next((r for r in range(s, n) if not m[r][s].is_zero()),
                         None)
        if pivot_row is None:
            return CyclotomicInteger.from_int(p, k, 0)
        if pivot_row != s:
            m[s], m[pivot_row] = m[pivot_row], m[s]
            sign = -sign
        row_s = m[s]
        pivot = row_s[s]
        for row in m[s + 1:]:
            head = row[s]
            for j in range(s + 1, n):
                row[j] = (pivot * row[j] - head * row_s[j]).exact_div(prev)
        prev = pivot
    last = m[n - 1][n - 1]
    return last if sign == 1 else -last


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
