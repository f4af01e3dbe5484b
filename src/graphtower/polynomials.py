"""Polynomials and Laurent polynomials over exact coefficient rings.

Elements are tuples of coefficients in ascending degree with no trailing
zeros (the zero polynomial is the empty tuple).  A :class:`PolynomialRing`
wraps any base :class:`~graphtower.linalg.Ring`, so the same code serves
Z[u], Z[ζ][u] and, via :class:`LaurentRing`, Z[γ, γ⁻¹].
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

from .linalg import Ring, ZZ, _eval_poly, _unpack

Coeffs = tuple[Any, ...]


def _normalize(coeffs: Sequence[Any], base: Ring) -> Coeffs:
    out = list(coeffs)
    while out and base.is_zero(out[-1]):
        out.pop()
    return tuple(out)


def _add(a: Coeffs, b: Coeffs, base: Ring) -> Coeffs:
    n = max(len(a), len(b))
    out = []
    for i in range(n):
        x = a[i] if i < len(a) else base.zero()
        y = b[i] if i < len(b) else base.zero()
        out.append(base.add(x, y))
    return _normalize(out, base)


def _sub(a: Coeffs, b: Coeffs, base: Ring) -> Coeffs:
    n = max(len(a), len(b))
    out = []
    for i in range(n):
        x = a[i] if i < len(a) else base.zero()
        y = b[i] if i < len(b) else base.zero()
        out.append(base.sub(x, y))
    return _normalize(out, base)


def _mul(a: Coeffs, b: Coeffs, base: Ring) -> Coeffs:
    if not a or not b:
        return ()
    out = [base.zero()] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if base.is_zero(x):
            continue
        for j, y in enumerate(b):
            out[i + j] = base.add(out[i + j], base.mul(x, y))
    return _normalize(out, base)


def _exact_div(a: Coeffs, b: Coeffs, base: Ring) -> Coeffs:
    """Long division a / b, which must be exact over the base ring."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(a)
    if len(rem) < len(b):
        if _normalize(rem, base):
            raise ArithmeticError("inexact polynomial division")
        return ()
    q = [base.zero()] * (len(rem) - len(b) + 1)
    lead = b[-1]
    for shift in range(len(q) - 1, -1, -1):
        top = rem[shift + len(b) - 1]
        if base.is_zero(top):
            continue
        factor = base.exact_div(top, lead)
        q[shift] = factor
        for i, bc in enumerate(b):
            rem[shift + i] = base.sub(rem[shift + i], base.mul(factor, bc))
    if _normalize(rem, base):
        raise ArithmeticError("inexact polynomial division")
    return _normalize(q, base)


class PolynomialRing:
    """Ring adapter for polynomials (coefficient tuples) over a base ring."""

    def __init__(self, base: Ring) -> None:
        self.base = base

    def zero(self) -> Coeffs:
        return ()

    def one(self) -> Coeffs:
        return (self.base.one(),)

    def add(self, a: Coeffs, b: Coeffs) -> Coeffs:
        return _add(a, b, self.base)

    def sub(self, a: Coeffs, b: Coeffs) -> Coeffs:
        return _sub(a, b, self.base)

    def mul(self, a: Coeffs, b: Coeffs) -> Coeffs:
        return _mul(a, b, self.base)

    def neg(self, a: Coeffs) -> Coeffs:
        return tuple(self.base.neg(c) for c in a)

    def is_zero(self, a: Coeffs) -> bool:
        return not a

    def exact_div(self, a: Coeffs, b: Coeffs) -> Coeffs:
        return _exact_div(a, b, self.base)


@dataclass(frozen=True)
class IntPolynomial:
    """Integer polynomial in ascending-coefficient form."""

    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.coeffs and self.coeffs[-1] == 0:
            object.__setattr__(self, "coeffs", _normalize(self.coeffs, ZZ))

    @staticmethod
    def of(*coeffs: int) -> "IntPolynomial":
        return IntPolynomial(tuple(coeffs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, i: int) -> int:
        return self.coeffs[i] if i < len(self.coeffs) else 0

    def __add__(self, other: "IntPolynomial") -> "IntPolynomial":
        return IntPolynomial(_add(self.coeffs, other.coeffs, ZZ))

    def __sub__(self, other: "IntPolynomial") -> "IntPolynomial":
        return IntPolynomial(_sub(self.coeffs, other.coeffs, ZZ))

    def __mul__(self, other: "IntPolynomial") -> "IntPolynomial":
        return IntPolynomial(_mul(self.coeffs, other.coeffs, ZZ))

    def __neg__(self) -> "IntPolynomial":
        return IntPolynomial(tuple(-c for c in self.coeffs))

    def evaluate(self, x: int) -> int:
        return _eval_poly(self.coeffs, x)


@dataclass(frozen=True)
class LaurentElement:
    """Integer Laurent polynomial c_low·γ^low + ... in normalized form.

    Normalization: coefficient tuple has no zero at either end; the zero
    element is (low=0, coeffs=()).
    """

    low: int
    coeffs: tuple[int, ...]

    @staticmethod
    def make(low: int, coeffs: Sequence[int]) -> "LaurentElement":
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        shift = 0
        while cs and cs[0] == 0:
            cs.pop(0)
            shift += 1
        if not cs:
            return LaurentElement(0, ())
        return LaurentElement(low + shift, tuple(cs))

    @staticmethod
    def constant(c: int) -> "LaurentElement":
        return LaurentElement.make(0, [c])

    @staticmethod
    def gamma_power(exponent: int, coefficient: int = 1) -> "LaurentElement":
        return LaurentElement.make(exponent, [coefficient])

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def high(self) -> int:
        return self.low + len(self.coeffs) - 1


class LaurentRing:
    """Ring adapter over Z[γ, γ⁻¹] for the generic determinant routine."""

    def zero(self) -> LaurentElement:
        return LaurentElement(0, ())

    def one(self) -> LaurentElement:
        return LaurentElement(0, (1,))

    def add(self, a: LaurentElement, b: LaurentElement) -> LaurentElement:
        if a.is_zero():
            return b
        if b.is_zero():
            return a
        low = min(a.low, b.low)
        high = max(a.high, b.high)
        out = [0] * (high - low + 1)
        for i, c in enumerate(a.coeffs):
            out[a.low - low + i] += c
        for i, c in enumerate(b.coeffs):
            out[b.low - low + i] += c
        return LaurentElement.make(low, out)

    def neg(self, a: LaurentElement) -> LaurentElement:
        return LaurentElement(a.low, tuple(-c for c in a.coeffs))

    def sub(self, a: LaurentElement, b: LaurentElement) -> LaurentElement:
        return self.add(a, self.neg(b))

    def mul(self, a: LaurentElement, b: LaurentElement) -> LaurentElement:
        if a.is_zero() or b.is_zero():
            return self.zero()
        return LaurentElement.make(a.low + b.low,
                                   _mul(a.coeffs, b.coeffs, ZZ))

    def is_zero(self, a: LaurentElement) -> bool:
        return a.is_zero()

    def exact_div(self, a: LaurentElement, b: LaurentElement) -> LaurentElement:
        if b.is_zero():
            raise ZeroDivisionError("Laurent division by zero")
        if a.is_zero():
            return self.zero()
        return LaurentElement.make(a.low - b.low,
                                   _exact_div(a.coeffs, b.coeffs, ZZ))


LAURENT = LaurentRing()


def laurent_substitute_gamma(value: LaurentElement) -> tuple[int, IntPolynomial]:
    """Clear negative powers and substitute γ = 1 + T.

    Returns (k, f) where k is the γ-power multiplied in to make the element
    polynomial and f(T) = γ^k·value evaluated at γ = 1 + T.  The γ^k factor
    is a unit of Z_p⟦T⟧, so it affects neither μ nor λ.
    """
    if value.is_zero():
        return 0, IntPolynomial(())
    k = max(0, -value.low)
    coeffs = (0,) * (value.low + k) + value.coeffs  # γ^k·value, from γ^0 up
    # Kronecker substitution T = 2^B: Horner at γ = 1 + 2^B is a shift-add
    # pass, and |coefficient of f| ≤ Σ|c_i|·2^i fits in a signed B-bit digit.
    bits = len(coeffs) + sum(map(abs, coeffs)).bit_length() + 1
    packed = 0
    for c in reversed(coeffs):
        packed = (packed << bits) + packed + c
    return k, IntPolynomial(_unpack(packed, bits))
