"""Integer polynomials and Laurent polynomials.

An integer polynomial is a plain tuple of its coefficients in ascending
degree with no trailing zeros (the zero polynomial is the empty tuple),
the form ``linalg.det_int_poly_matrix`` returns; ``linalg.poly_product``
multiplies them.  The package uses ``LaurentElement.make`` (the
Λ₁-determinant) and ``laurent_substitute_gamma`` (its γ = 1 + T
substitution, a single integer operation by Kronecker substitution).  The
schoolbook ``_add``, ``_mul`` and ``_exact_div`` serve only
``PolynomialRing`` and ``LaurentRing``, the Z[u] and Z[γ, γ⁻¹] ring
objects that the tests' reference Bareiss runs over; the two classes stay
here while perfbench/layertrace.py wraps them by name.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import zip_longest
from typing import Sequence

from .linalg import _unpack

Coeffs = tuple[int, ...]


def _normalize(coeffs: Sequence[int]) -> Coeffs:
    out = list(coeffs)
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def _add(a: Coeffs, b: Coeffs) -> Coeffs:
    return _normalize([x + y for x, y in zip_longest(a, b, fillvalue=0)])


def _mul(a: Coeffs, b: Coeffs) -> Coeffs:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _normalize(out)


def _exact_div(a: Coeffs, b: Coeffs) -> Coeffs:
    """Long division a / b, which must be exact over Z."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(a)
    if len(rem) < len(b):
        if _normalize(rem):
            raise ArithmeticError("inexact polynomial division")
        return ()
    q = [0] * (len(rem) - len(b) + 1)
    lead = b[-1]
    for shift in range(len(q) - 1, -1, -1):
        top = rem[shift + len(b) - 1]
        if top == 0:
            continue
        factor, r = divmod(top, lead)
        if r:
            raise ArithmeticError(f"inexact division {top} / {lead}")
        q[shift] = factor
        for i, bc in enumerate(b):
            rem[shift + i] -= factor * bc
    if _normalize(rem):
        raise ArithmeticError("inexact polynomial division")
    return _normalize(q)


class PolynomialRing:
    """Z[u] as a ring object for the tests' reference Bareiss
    (``det_in_ring`` in tests/conftest.py).

    It and :class:`LaurentRing` are the reference rings of those oracles,
    and perfbench/layertrace.py wraps both by name.
    """

    def zero(self) -> Coeffs:
        return ()

    def one(self) -> Coeffs:
        return (1,)

    def add(self, a: Coeffs, b: Coeffs) -> Coeffs:
        return _add(a, b)

    def sub(self, a: Coeffs, b: Coeffs) -> Coeffs:
        return _add(a, self.neg(b))

    def mul(self, a: Coeffs, b: Coeffs) -> Coeffs:
        return _mul(a, b)

    def neg(self, a: Coeffs) -> Coeffs:
        return tuple(-c for c in a)

    def is_zero(self, a: Coeffs) -> bool:
        return not a

    def exact_div(self, a: Coeffs, b: Coeffs) -> Coeffs:
        return _exact_div(a, b)


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
        cs = _normalize(coeffs)
        if not cs:
            return LaurentElement(0, ())
        shift = next(i for i, c in enumerate(cs) if c)
        return LaurentElement(low + shift, cs[shift:])

    def is_zero(self) -> bool:
        return not self.coeffs


class LaurentRing:
    """Z[γ, γ⁻¹] as a ring object for the tests' reference Bareiss."""

    def zero(self) -> LaurentElement:
        return LaurentElement(0, ())

    def one(self) -> LaurentElement:
        return LaurentElement(0, (1,))

    def add(self, a: LaurentElement, b: LaurentElement) -> LaurentElement:
        low = min(a.low, b.low)
        return LaurentElement.make(low, _add((0,) * (a.low - low) + a.coeffs,
                                             (0,) * (b.low - low) + b.coeffs))

    def neg(self, a: LaurentElement) -> LaurentElement:
        return LaurentElement(a.low, tuple(-c for c in a.coeffs))

    def sub(self, a: LaurentElement, b: LaurentElement) -> LaurentElement:
        return self.add(a, self.neg(b))

    def mul(self, a: LaurentElement, b: LaurentElement) -> LaurentElement:
        if a.is_zero() or b.is_zero():
            return self.zero()
        return LaurentElement.make(a.low + b.low, _mul(a.coeffs, b.coeffs))

    def is_zero(self, a: LaurentElement) -> bool:
        return a.is_zero()

    def exact_div(self, a: LaurentElement, b: LaurentElement) -> LaurentElement:
        if b.is_zero():
            raise ZeroDivisionError("Laurent division by zero")
        if a.is_zero():
            return self.zero()
        return LaurentElement.make(a.low - b.low,
                                   _exact_div(a.coeffs, b.coeffs))


LAURENT = LaurentRing()


def laurent_substitute_gamma(value: LaurentElement) -> tuple[int, Coeffs]:
    """Clear negative powers and substitute γ = 1 + T.

    Returns (k, f) where k is the γ-power multiplied in to make the element
    polynomial and f(T) = γ^k·value evaluated at γ = 1 + T, as ascending
    coefficients.  The γ^k factor is a unit of Z_p⟦T⟧, so it affects
    neither μ nor λ.
    """
    if value.is_zero():
        return 0, ()
    k = max(0, -value.low)
    coeffs = (0,) * (value.low + k) + value.coeffs  # γ^k·value, from γ^0 up
    # Kronecker substitution T = 2^B: the value at γ = 1 + 2^B packs f, and
    # |coefficient of f| ≤ Σ|c_i|·2^i fits in a signed B-bit digit.  Each
    # Horner step times 1 + 2^B is a shift and an add, not a product.
    bits = len(coeffs) + sum(map(abs, coeffs)).bit_length() + 1
    value = 0
    for c in reversed(coeffs):
        value = (value << bits) + value + c
    return k, _unpack(value, bits)
