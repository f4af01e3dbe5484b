"""Shared helpers: seeded random graphs and voltage instances."""

from __future__ import annotations

import random

from graphtower import Multigraph, TowerGroupSpec, VoltageAssignment


def random_connected_multigraph(rng: random.Random,
                                max_vertices: int = 8,
                                max_extra_edges: int = 6,
                                allow_loops: bool = True) -> Multigraph:
    """A random connected multigraph built as a spanning tree plus extras."""
    nv = rng.randint(2, max_vertices)
    vertices = list(range(nv))
    edges = []
    eid = 0
    for v in range(1, nv):
        w = rng.randrange(v)
        edges.append((eid, (v, w)))
        eid += 1
    for _ in range(rng.randint(0, max_extra_edges)):
        v = rng.randrange(nv)
        w = rng.randrange(nv)
        if v == w and not allow_loops:
            continue
        edges.append((eid, (v, w)))
        eid += 1
    return Multigraph.build(vertices, edges)


# (p, rank, level) combinations with |G^(level)| ≤ 27 and level ≤ 2
ABELIAN_SHAPES = [
    (2, 1, 1), (2, 1, 2), (2, 2, 1), (2, 2, 2), (2, 3, 1),
    (3, 1, 1), (3, 1, 2), (3, 2, 1), (3, 3, 1),
]


def random_abelian_instance(rng: random.Random,
                            max_vertices: int = 5,
                            max_edges: int = 8,
                            shapes=ABELIAN_SHAPES):
    """(alpha, level) with a small abelian tower and random voltages."""
    p, rank, level = rng.choice(shapes)
    spec = TowerGroupSpec("abelian", p, rank=rank)
    while True:
        graph = random_connected_multigraph(rng, max_vertices=max_vertices,
                                            max_extra_edges=3)
        if graph.num_edges <= max_edges:
            break
    mod = p ** level
    voltages = {}
    for eid, _ in graph.edges:
        word = [[i, rng.randrange(mod)] for i in range(rank)
                if rng.random() < 0.7]
        voltages[eid] = word
    alpha = VoltageAssignment.build(graph, spec, voltages)
    return alpha, level


def det_in_ring(matrix, ring):
    """Reference Bareiss determinant over any ring object with zero, one,
    add, sub, mul, neg, is_zero and exact_div: first nonzero pivot in the
    column, row swaps, division by the previous pivot."""
    n = len(matrix)
    if n == 0:
        return ring.one()
    m = [list(row) for row in matrix]
    if any(len(row) != n for row in m):
        raise ValueError("matrix is not square")
    sign = 1
    prev = ring.one()
    for k in range(n - 1):
        pivot_row = next((r for r in range(k, n)
                          if not ring.is_zero(m[r][k])), None)
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
                num = ring.sub(ring.mul(pivot, row_i[j]),
                               ring.mul(head, row_k[j]))
                row_i[j] = ring.exact_div(num, prev)
            row_i[k] = ring.zero()
        prev = pivot
    result = m[n - 1][n - 1]
    return result if sign == 1 else ring.neg(result)
