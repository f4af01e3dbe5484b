import itertools
import random

from graphtower.linalg import (det_in_ring, det_int, det_int_poly_matrix,
                               smith_invariant_factors)
from graphtower.polynomials import PolynomialRing, _normalize


def naive_det(m):
    n = len(m)
    total = 0
    for perm in itertools.permutations(range(n)):
        sign = 1
        seen = list(perm)
        for i in range(n):
            for j in range(i + 1, n):
                if seen[i] > seen[j]:
                    sign = -sign
        term = sign
        for i in range(n):
            term *= m[i][perm[i]]
        total += term
    return total


def test_det_int_against_permanent_expansion():
    rng = random.Random(3)
    for _ in range(40):
        n = rng.randint(1, 5)
        m = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        assert det_int(m) == naive_det(m)


def test_det_int_singular_and_trivial():
    assert det_int([]) == 1
    assert det_int([[0, 0], [0, 0]]) == 0
    assert det_int([[1, 2], [2, 4]]) == 0


def test_det_in_ring_matches_det_int():
    rng = random.Random(4)
    for _ in range(20):
        n = rng.randint(1, 4)
        m = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        # over the constant polynomials, a copy of Z
        constants = [[_normalize((c,)) for c in row] for row in m]
        assert (det_in_ring(constants, PolynomialRing()) ==
                _normalize((det_int(m),)))


def test_poly_matrix_det_interpolation_matches_bareiss():
    rng = random.Random(9)
    ring = PolynomialRing()
    for _ in range(80):
        n = rng.randint(1, 6)
        size = rng.choice((1, 4, 4, 10 ** 15))
        density = rng.choice((0.3, 1.0))
        # degree up to 4, with zero entries; sparse ones get reordered
        m = [[_trim(tuple(rng.randint(-size, size)
                          for _ in range(rng.randint(0, 5))))
              if rng.random() < density else ()
              for _ in range(n)] for _ in range(n)]
        assert det_int_poly_matrix(m) == tuple(det_in_ring(m, ring))
    assert det_int_poly_matrix([]) == (1,)
    assert det_int_poly_matrix([[(0, 3, -2)]]) == (0, 3, -2)
    assert det_int_poly_matrix([[(-10 ** 40,)]]) == (-10 ** 40,)
    assert det_int_poly_matrix([[(1, 2), (3,)], [(), ()]]) == ()
    assert det_int_poly_matrix([[(1, 1), (1, 1)], [(2, 2), (2, 2)]]) == ()


def _trim(coeffs):
    out = list(coeffs)
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def test_snf_known_cases():
    assert smith_invariant_factors([[2, 0], [0, 3]]) == [1, 6]
    assert smith_invariant_factors([[0, 0], [0, 0]]) == [0, 0]
    assert smith_invariant_factors([[2, -1], [-1, 2]]) == [1, 3]


def test_snf_divisibility_and_determinant():
    rng = random.Random(12)
    for _ in range(30):
        n = rng.randint(1, 5)
        m = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
        factors = smith_invariant_factors(m)
        nonzero = [d for d in factors if d]
        for a, b in zip(nonzero, nonzero[1:]):
            assert b % a == 0
        product = 1
        for d in nonzero:
            product *= d
        det = det_int(m)
        if len(nonzero) == n:
            assert product == abs(det)
        else:
            assert det == 0


def test_snf_rectangular():
    assert smith_invariant_factors([[2, 4, 6]]) == [2]
    assert smith_invariant_factors([[2], [4], [6]]) == [2]
