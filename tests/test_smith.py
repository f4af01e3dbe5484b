"""Smith normal form against two oracles: the dense divisibility-enforcing
elimination it replaced, and determinantal divisors by brute force."""

import random
from itertools import combinations
from math import gcd

from graphtower import TowerGroupSpec, VoltageAssignment
from graphtower.graphs import is_connected
from graphtower.linalg import det_int, smith_invariant_factors
from graphtower.voltage import derive

from conftest import dense_laplacian, random_connected_multigraph, sparse


def dense_smith_reference(matrix):
    """Invariant factors by dense min-pivot elimination that enforces
    d_t | (trailing block) at every step.  Exact, with unbounded entry
    growth; kept as a test oracle only."""
    m = [list(row) for row in matrix]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    size = min(rows, cols)
    diag = []
    t = 0
    while t < size:
        pivot = None
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                v = m[i][j]
                if v != 0 and (best is None or abs(v) < best):
                    best = abs(v)
                    pivot = (i, j)
        if pivot is None:
            break
        pi, pj = pivot
        m[t], m[pi] = m[pi], m[t]
        for row in m:
            row[t], row[pj] = row[pj], row[t]
        while True:
            p = m[t][t]
            done = True
            for i in range(t + 1, rows):
                if m[i][t]:
                    q = m[i][t] // p
                    for j in range(t, cols):
                        m[i][j] -= q * m[t][j]
                    if m[i][t]:
                        m[t], m[i] = m[i], m[t]
                        done = False
                        break
            if not done:
                continue
            for j in range(t + 1, cols):
                if m[t][j]:
                    q = m[t][j] // p
                    for row in m:
                        row[j] -= q * row[t]
                    if m[t][j]:
                        for row in m:
                            row[t], row[j] = row[j], row[t]
                        done = False
                        break
            if done:
                break
        p = m[t][t]
        offender = next((i for i in range(t + 1, rows)
                         if any(m[i][j] % p for j in range(t + 1, cols))),
                        None)
        if offender is not None:
            for j in range(t, cols):
                m[t][j] += m[offender][j]
            continue
        diag.append(abs(p))
        t += 1
    return diag + [0] * (size - len(diag))


def determinantal_smith(matrix):
    """Invariant factors s_k = d_k / d_(k−1), with d_k the gcd of all k×k
    minors; s_k = 0 once d_k = 0."""
    rows = len(matrix)
    cols = len(matrix[0]) if rows else 0
    factors, prev = [], 1
    for k in range(1, min(rows, cols) + 1):
        d = 0
        for rs in combinations(range(rows), k):
            for cs in combinations(range(cols), k):
                d = gcd(d, det_int([[matrix[i][j] for j in cs] for i in rs]))
        factors.append(d // prev if d else 0)
        prev = d
    return factors


# (kind, p, rank, level): covers of at most 50 vertices over 2-4 base vertices
_COVER_SHAPES = [("abelian", 2, 1, 3), ("abelian", 2, 1, 4), ("abelian", 3, 1, 2),
                 ("abelian", 5, 1, 1), ("abelian", 5, 1, 2), ("abelian", 2, 2, 2),
                 ("abelian", 3, 2, 1), ("metacyclic", 2, 2, 1),
                 ("metacyclic", 2, 2, 2)]


def _cover_laplacian(rng):
    kind, p, rank, level = rng.choice(_COVER_SHAPES)
    spec = (TowerGroupSpec("abelian", p, rank=rank) if kind == "abelian"
            else TowerGroupSpec("metacyclic", p))
    max_vertices = min(4, 50 // spec.order(level))
    while True:  # a connected cover, so the reduced Laplacian is regular
        base = random_connected_multigraph(rng, max_vertices=max_vertices,
                                           max_extra_edges=3)
        voltages = {eid: [[i, rng.randrange(p ** level)] for i in range(rank)
                          if rng.random() < 0.7]
                    for eid, _ in base.edges}
        cover = derive(VoltageAssignment.build(base, spec, voltages), level)
        if is_connected(cover.graph):
            return dense_laplacian(cover.graph)


def test_snf_matches_dense_reference_on_cover_laplacians():
    rng = random.Random(7001)
    scaled = 0
    for _ in range(60):
        lap = _cover_laplacian(rng)
        assert len(lap) <= 50
        scale = rng.choice([1, 1, 2, 3])
        scaled += scale > 1
        for m in (lap, [row[1:] for row in lap[1:]]):
            m = [[scale * v for v in row] for row in m]
            assert (smith_invariant_factors(*sparse(m)) ==
                    dense_smith_reference(m))
    assert scaled >= 15


def test_snf_matches_dense_reference_on_random_matrices():
    rng = random.Random(7002)
    for _ in range(300):
        rows, cols = rng.randint(1, 7), rng.randint(1, 7)
        scale = rng.choice([1, 2, 3, 6])
        density = rng.random()
        m = [[scale * rng.randint(-9, 9) if rng.random() < density else 0
              for _ in range(cols)] for _ in range(rows)]
        assert smith_invariant_factors(*sparse(m)) == dense_smith_reference(m)


def _random_small_matrix(rng, kind):
    rows, cols = rng.randint(1, 5), rng.randint(1, 5)
    if kind == "square":
        cols = rows
    m = [[rng.randint(-7, 7) for _ in range(cols)] for _ in range(rows)]
    if kind == "singular" and rows > 1:
        a, b = rng.randint(-2, 2), rng.randint(-2, 2)
        m[-1] = [a * x + b * y for x, y in zip(m[0], m[1])]
    if kind == "unit-free":
        f = rng.choice([2, 3])
        m = [[f * v for v in row] for row in m]
    return m


def test_snf_matches_determinantal_divisors():
    rng = random.Random(7003)
    kinds = ["rectangular", "square", "singular", "unit-free"]
    for case in range(320):
        m = _random_small_matrix(rng, kinds[case % 4])
        assert (smith_invariant_factors(*sparse(m)) ==
                determinantal_smith(m)), m


def test_snf_edge_shapes():
    assert smith_invariant_factors(*sparse([])) == []
    assert smith_invariant_factors(*sparse([[]])) == []
    assert smith_invariant_factors(*sparse([[0]])) == [0]
    assert smith_invariant_factors(*sparse([[-5]])) == [5]
    assert smith_invariant_factors(*sparse([[4, 0], [0, 6]])) == [2, 12]
    assert smith_invariant_factors(*sparse([[2, 0, 0], [0, 0, 0]])) == [2, 0]
    # a unit pivot with a core left over, singular and regular
    assert smith_invariant_factors(
        *sparse([[1, 2, 0], [3, 4, 0], [0, 0, 0]])) == [1, 2, 0]
    assert smith_invariant_factors(*sparse([[1, 2], [3, 4]])) == [1, 2]
    assert smith_invariant_factors(*sparse([[6, 4], [4, 6]])) == [2, 10]
