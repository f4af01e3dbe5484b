import math
import random

import pytest

from graphtower.polynomials import (IntPolynomial, LAURENT, LaurentElement,
                                    PolynomialRing, _mul,
                                    laurent_substitute_gamma)


def test_int_polynomial_basics():
    f = IntPolynomial.of(1, 2, 0)  # trailing zero trimmed
    assert f.coeffs == (1, 2)
    assert f.degree == 1
    assert f.evaluate(3) == 7
    g = IntPolynomial.of(0, 1)
    assert (f * g).coeffs == (0, 1, 2)
    assert (f - f).is_zero()


def test_int_polynomial_product_matches_schoolbook():
    rng = random.Random(92)
    for case in range(100):
        size = 10 ** rng.randint(0, 30)
        a, b = (tuple(rng.randint(-size, size)
                      for _ in range(rng.randint(0, 8)))
                for _ in range(2))
        if case % 10 == 0:
            a = ()  # the zero polynomial, on either side
        if case % 10 == 1:
            a, b = b, ()
        if case % 10 == 2:  # every coefficient at the −‖·‖ extreme
            a, b = (-size,) * len(a), (-size,) * len(b)
        a, b = IntPolynomial(a), IntPolynomial(b)
        assert (a * b).coeffs == _mul(a.coeffs, b.coeffs)


def test_polynomial_ring_exact_division():
    rng = random.Random(91)
    ring = PolynomialRing()
    for _ in range(30):
        a = tuple(rng.randint(-5, 5) for _ in range(rng.randint(1, 4)))
        b = tuple(rng.randint(-5, 5) for _ in range(rng.randint(1, 4)))
        a = tuple(a) if any(a) else (1,)
        b = tuple(b) if any(b) else (1,)
        a = _trim(a)
        b = _trim(b)
        product = ring.mul(a, b)
        assert ring.exact_div(product, b) == a


def _trim(coeffs):
    out = list(coeffs)
    while out and out[-1] == 0:
        out.pop()
    return tuple(out) if out else (1,)


def test_inexact_division_raises():
    ring = PolynomialRing()
    with pytest.raises(ArithmeticError):
        ring.exact_div((1, 1), (2,))


def test_laurent_normalization():
    x = LaurentElement.make(-2, [0, 1, 0, 3, 0])
    assert x.low == -1 and x.coeffs == (1, 0, 3)
    assert LaurentElement.make(5, [0, 0]).is_zero()


def test_laurent_arithmetic():
    gamma = LaurentElement.gamma_power(1)
    gamma_inv = LaurentElement.gamma_power(-1)
    two = LaurentElement.constant(2)
    expr = LAURENT.sub(LAURENT.sub(two, gamma), gamma_inv)  # 2 − γ − γ⁻¹
    assert expr.low == -1 and expr.coeffs == (-1, 2, -1)
    product = LAURENT.mul(gamma, gamma_inv)
    assert product == LAURENT.one()
    assert LAURENT.exact_div(expr, gamma_inv).coeffs == (-1, 2, -1)


def test_substitute_gamma():
    # 2 − γ − γ⁻¹ → γ·(...) = −(γ−1)² → −T²
    expr = LaurentElement.make(-1, [-1, 2, -1])
    k, f = laurent_substitute_gamma(expr)
    assert k == 1
    assert f.coeffs == (0, 0, -1)
    k0, f0 = laurent_substitute_gamma(LaurentElement.constant(7))
    assert k0 == 0 and f0.coeffs == (7,)
    kz, fz = laurent_substitute_gamma(LaurentElement(0, ()))
    assert kz == 0 and fz.is_zero()
    rng = random.Random(64)
    for _ in range(100):
        value = LaurentElement.make(
            rng.randint(-12, 12),
            [rng.randint(-10 ** rng.randint(1, 20), 10 ** 6)
             for _ in range(rng.randint(1, 15))])
        k, f = laurent_substitute_gamma(value)
        assert (k, f.coeffs) == _naive_substitute(value)


def _naive_substitute(value):
    """(k, coefficients of Σ c_i (1+T)^(low+k+i)) by binomial expansion."""
    if value.is_zero():
        return 0, ()
    k = max(0, -value.low)
    out = [0] * (value.high + k + 1)
    for i, c in enumerate(value.coeffs):
        power = value.low + k + i
        for j in range(power + 1):
            out[j] += c * math.comb(power, j)
    return k, tuple(out)
