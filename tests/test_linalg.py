import itertools
import random
from fractions import Fraction

import graphtower.linalg
from conftest import det_in_ring, random_abelian_instance, sparse
from graphtower.linalg import (det_int, det_int_poly_matrix,
                               smith_invariant_factors)
from graphtower.polynomials import PolynomialRing, _normalize
from graphtower.voltage import derive
from graphtower.zeta import ihara_zeta_inverse


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


def fraction_det(m):
    """Gaussian elimination over Q: the exact reference for det_int."""
    n = len(m)
    a = [[Fraction(v) for v in row] for row in m]
    det = Fraction(1)
    for k in range(n):
        r = next((r for r in range(k, n) if a[r][k]), None)
        if r is None:
            return 0
        if r != k:
            a[k], a[r] = a[r], a[k]
            det = -det
        det *= a[k][k]
        for i in range(k + 1, n):
            f = a[i][k] / a[k][k]
            if f:
                for j in range(k, n):
                    a[i][j] -= f * a[k][j]
    assert det.denominator == 1
    return int(det)


def _entry(rng):
    return rng.choice((-1, 1)) * rng.getrandbits(rng.choice((1, 3, 30, 200)))


def _shaped_matrix(rng, n, shape):
    """A seeded n×n matrix whose zero pattern makes Bareiss defer rows."""
    if shape == "sparse":
        density = rng.choice((0.15, 0.3, 0.5))
        keep = lambda i, j: rng.random() < density
    elif shape == "banded":
        width = rng.randint(0, 3)
        keep = lambda i, j: abs(i - j) <= width
    else:  # block-diagonal
        cuts = sorted(rng.sample(range(1, n), min(n - 1, rng.randint(1, 3))))
        block = [sum(i >= c for c in cuts) for i in range(n)]
        keep = lambda i, j: block[i] == block[j]
    return [[_entry(rng) if keep(i, j) else 0 for j in range(n)]
            for i in range(n)]


def _permuted(rng, m):
    rows = rng.sample(range(len(m)), len(m))
    cols = rng.sample(range(len(m)), len(m))
    return [[m[i][j] for j in cols] for i in rows]


def test_deferred_bareiss_matches_fraction_elimination():
    rng = random.Random(21)
    for trial in range(240):
        n = rng.randint(2, 16)
        m = _shaped_matrix(rng, n, ("sparse", "banded", "block")[trial % 3])
        if rng.random() < 0.5:
            m = _permuted(rng, m)
        if rng.random() < 0.15:  # a zero column
            c = rng.randrange(n)
            for row in m:
                row[c] = 0
        elif rng.random() < 0.15:  # a row that is a combination of two others
            i, j, k = rng.sample(range(n), 3) if n > 2 else (0, 1, 1)
            m[i] = [a + 3 * b for a, b in zip(m[j], m[k])]
        assert det_int(m) == fraction_det(m), m


def test_deferred_bareiss_lagging_rows():
    rng = random.Random(22)
    for _ in range(60):
        n = rng.randint(4, 16)
        m = [[_entry(rng) for _ in range(n)] for _ in range(n)]
        # a row that is zero up to column n − 3 and then holds ±1, so it
        # lags n − 2 steps and is usually swapped in as the pivot row then
        lag = rng.randrange(n - 1)
        m[lag] = [0] * (n - 2) + [rng.choice((-1, 1)), _entry(rng)]
        # a last row that no step before the end reads
        m[n - 1] = [0] * (n - 1) + [_entry(rng) or 1]
        assert det_int(m) == fraction_det(m)
        # the same with a last row that lags until the last step
        m[n - 1][n - 2] = 2 ** 150 + 1
        assert det_int(m) == fraction_det(m)


def test_det_int_on_packed_cover_matrices(monkeypatch):
    packed = []
    kernel = graphtower.linalg.det_int
    monkeypatch.setattr(graphtower.linalg, "det_int",
                        lambda m: packed.append(m) or kernel(m))
    rng = random.Random(23)
    while len(packed) < 20:
        alpha, level = random_abelian_instance(rng, max_vertices=4)
        cover = derive(alpha, level)
        if cover.graph.num_vertices <= 32:
            ihara_zeta_inverse(cover.graph.num_vertices,
                               cover.graph.index_pairs())
    for m in packed:
        assert kernel(m) == fraction_det(m)


def test_det_in_ring_matches_det_int():
    rng = random.Random(4)
    for _ in range(20):
        n = rng.randint(1, 4)
        m = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        # over the constant polynomials, a copy of Z
        constants = [[_normalize((c,)) for c in row] for row in m]
        assert (det_in_ring(constants, PolynomialRing()) ==
                _normalize((det_int(m),)))


def _sparse_rows(rng, m):
    """A dense polynomial matrix as sparse rows {column: coefficients} in a
    shuffled column order, keeping some zero entries."""
    rows = []
    for row in m:
        columns = [j for j, entry in enumerate(row)
                   if entry or rng.random() < 0.3]
        rng.shuffle(columns)
        rows.append({j: row[j] for j in columns})
    return rows


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
        assert (det_int_poly_matrix(_sparse_rows(rng, m)) ==
                tuple(det_in_ring(m, ring)))
    assert det_int_poly_matrix([]) == (1,)
    assert det_int_poly_matrix([{0: (0, 3, -2)}]) == (0, 3, -2)
    assert det_int_poly_matrix([{0: [-10 ** 40]}]) == (-10 ** 40,)
    # a zero row, given empty and with explicit zero entries
    assert det_int_poly_matrix([{0: (1, 2), 1: (3,)}, {}]) == ()
    assert det_int_poly_matrix([{1: (3,), 0: (1, 2)}, {0: (), 1: (0, 0)}]) == ()
    # singular: the second row is twice the first
    assert det_int_poly_matrix([{0: (1, 1), 1: (1, 1)},
                                {1: (2, 2), 0: (2, 2)}]) == ()


def _trim(coeffs):
    out = list(coeffs)
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def test_snf_known_cases():
    assert smith_invariant_factors(*sparse([[2, 0], [0, 3]])) == [1, 6]
    assert smith_invariant_factors(*sparse([[0, 0], [0, 0]])) == [0, 0]
    assert smith_invariant_factors(*sparse([[2, -1], [-1, 2]])) == [1, 3]


def test_snf_divisibility_and_determinant():
    rng = random.Random(12)
    for _ in range(30):
        n = rng.randint(1, 5)
        m = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
        factors = smith_invariant_factors(*sparse(m))
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
    assert smith_invariant_factors(*sparse([[2, 4, 6]])) == [2]
    assert smith_invariant_factors(*sparse([[2], [4], [6]])) == [2]
