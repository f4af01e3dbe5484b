"""Exact linear algebra: fraction-free determinants and Smith normal form.

Determinants use the Bareiss algorithm, whose divisions are exact over any
integral domain.  `det_int` is the integer kernel; integer polynomial
matrices reach it by Kronecker substitution, which packs each one into a
single `det_int` call.  `det_in_ring` takes the ring through a tiny
protocol: in the package it runs only over Z[ζ], inside
`cyclotomic.det_cyclotomic`, and the tests use it over reference rings.
"""

from __future__ import annotations

from math import isqrt
from typing import Any, Protocol, Sequence


class Ring(Protocol):
    """Minimal integral-domain interface used by the determinant routine."""

    def zero(self) -> Any: ...
    def one(self) -> Any: ...
    def add(self, a: Any, b: Any) -> Any: ...
    def sub(self, a: Any, b: Any) -> Any: ...
    def mul(self, a: Any, b: Any) -> Any: ...
    def neg(self, a: Any) -> Any: ...
    def is_zero(self, a: Any) -> bool: ...
    def exact_div(self, a: Any, b: Any) -> Any: ...


def det_in_ring(matrix: Sequence[Sequence[Any]], ring: Ring) -> Any:
    """Determinant by fraction-free (Bareiss) elimination with row pivoting."""
    n = len(matrix)
    if n == 0:
        return ring.one()
    m = [list(row) for row in matrix]
    if any(len(row) != n for row in m):
        raise ValueError("matrix is not square")
    sign = 1
    prev = ring.one()
    for k in range(n - 1):
        pivot_row = next((r for r in range(k, n) if not ring.is_zero(m[r][k])), None)
        if pivot_row is None:
            return ring.zero()
        if pivot_row != k:
            m[k], m[pivot_row] = m[pivot_row], m[k]
            sign = -sign
        pivot = m[k][k]
        for i in range(k + 1, n):
            row_i = m[i]
            row_k = m[k]
            head = row_i[k]
            for j in range(k + 1, n):
                num = ring.sub(ring.mul(pivot, row_i[j]), ring.mul(head, row_k[j]))
                row_i[j] = ring.exact_div(num, prev)
            row_i[k] = ring.zero()
        prev = pivot
    result = m[n - 1][n - 1]
    return result if sign == 1 else ring.neg(result)


def det_int(matrix: Sequence[Sequence[int]]) -> int:
    """Bareiss determinant specialised to plain integers (hot path)."""
    n = len(matrix)
    if n == 0:
        return 1
    m = [list(row) for row in matrix]
    sign = 1
    prev = 1
    for k in range(n - 1):
        # smallest nonzero pivot keeps intermediate entries small
        pivot_row = None
        best = None
        for r in range(k, n):
            v = m[r][k]
            if v != 0 and (best is None or abs(v) < best):
                best = abs(v)
                pivot_row = r
        if pivot_row is None:
            return 0
        if pivot_row != k:
            m[k], m[pivot_row] = m[pivot_row], m[k]
            sign = -sign
        pivot = m[k][k]
        row_k = m[k]
        for i in range(k + 1, n):
            row_i = m[i]
            head = row_i[k]
            if head == 0:
                for j in range(k + 1, n):
                    row_i[j] = pivot * row_i[j] // prev
            else:
                for j in range(k + 1, n):
                    row_i[j] = (pivot * row_i[j] - head * row_k[j]) // prev
            row_i[k] = 0
        prev = pivot
    return sign * m[n - 1][n - 1]


def det_int_poly_matrix(
        matrix: Sequence[Sequence[Sequence[int]]]) -> tuple[int, ...]:
    """Determinant of a matrix of integer polynomials (coefficient tuples).

    Kronecker substitution: every entry is evaluated at u = 2^B, one integer
    determinant is taken, and its signed base-2^B digits are the
    coefficients.  Returns ascending coefficients with no trailing zeros.
    """
    # Goldstein-Graham: for every θ, |det A(e^{iθ})| ≤ ∏_i ‖row_i‖₂ ≤ √S with
    # S = ∏_i Σ_j ‖a_ij‖₁², so every coefficient is at most ‖det‖₂ ≤ √S and
    # fits in a signed digit of B bits.
    bound = 1
    for row in matrix:
        bound *= sum(sum(map(abs, entry)) ** 2 for entry in row)
    bits = isqrt(bound).bit_length() + 1
    x = 1 << bits
    order = _band_order(matrix)
    return _unpack(det_int([[_eval_poly(matrix[i][j], x) for j in order]
                            for i in order]), bits)


def _band_order(matrix: Sequence[Sequence[Sequence[int]]]) -> list[int]:
    """Breadth-first order over the nonzero pattern.  The same permutation
    of rows and columns keeps the determinant, and on a sparse matrix keeps
    the Bareiss fill-in of packed entries near the diagonal."""
    order: list[int] = []
    seen: set[int] = set()
    for start in range(len(matrix)):
        if start not in seen:
            seen.add(start)
            queue = [start]
            for i in queue:
                for j, entry in enumerate(matrix[i]):
                    if any(entry) and j not in seen:
                        seen.add(j)
                        queue.append(j)
            order += queue
    return order


def _eval_poly(coeffs: Sequence[int], x: int) -> int:
    value = 0
    for c in reversed(coeffs):
        value = value * x + c
    return value


def _unpack(value: int, bits: int) -> tuple[int, ...]:
    """Signed base-2^bits digits of value, ascending, each in [−2^(bits−1),
    2^(bits−1)); the last digit is nonzero."""
    mask = (1 << bits) - 1
    half = 1 << (bits - 1)
    digits = []
    while value:
        digits.append(((value & mask) ^ half) - half)
        value = (value - digits[-1]) >> bits
    return tuple(digits)


def smith_invariant_factors(matrix: Sequence[Sequence[int]]) -> list[int]:
    """Invariant factors d_1 | d_2 | ... of an integer matrix.

    Deterministic pivoting: smallest nonzero absolute value, row-major ties.
    The returned list has length min(rows, cols); trailing zeros mark rank
    deficiency.
    """
    m = [list(row) for row in matrix]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    size = min(rows, cols)
    diag: list[int] = []
    t = 0
    while t < size:
        # locate the smallest nonzero entry of the trailing block
        pivot = None
        best = None
        for i in range(t, rows):
            row = m[i]
            for j in range(t, cols):
                v = row[j]
                if v != 0 and (best is None or abs(v) < best):
                    best = abs(v)
                    pivot = (i, j)
        if pivot is None:
            break
        pi, pj = pivot
        if pi != t:
            m[t], m[pi] = m[pi], m[t]
        if pj != t:
            for row in m:
                row[t], row[pj] = row[pj], row[t]
        while True:
            p = m[t][t]
            done = True
            for i in range(t + 1, rows):
                if m[i][t]:
                    q = m[i][t] // p
                    if q:
                        row_i, row_t = m[i], m[t]
                        for j in range(t, cols):
                            row_i[j] -= q * row_t[j]
                    if m[i][t]:
                        m[t], m[i] = m[i], m[t]
                        done = False
                        break
            if not done:
                continue
            for j in range(t + 1, cols):
                if m[t][j]:
                    q = m[t][j] // p
                    if q:
                        for row in m:
                            row[j] -= q * row[t]
                    if m[t][j]:
                        for row in m:
                            row[t], row[j] = row[j], row[t]
                        done = False
                        break
            if done:
                break
        # enforce divisibility of the trailing block by the pivot
        p = m[t][t]
        offender = None
        for i in range(t + 1, rows):
            row = m[i]
            for j in range(t + 1, cols):
                if row[j] % p:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            row_o, row_t = m[offender], m[t]
            for j in range(t, cols):
                row_t[j] += row_o[j]
            continue
        diag.append(abs(p))
        t += 1
    diag.extend([0] * (size - len(diag)))
    return diag
