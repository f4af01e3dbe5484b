"""Shared helpers: seeded random graphs, voltage instances and job configs,
and reference routines the tests compare the package against."""

from __future__ import annotations

import itertools
import random

from graphtower import (Multigraph, TowerGroupSpec, VoltageAssignment,
                        graph_matrices, is_connected)
from graphtower.cyclotomic import (CyclotomicInteger, _add_monomial,
                                   euler_phi_prime_power)
from graphtower.grouprings import GroupRingElement, GroupRingMatrix


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


# one-vertex, one-loop Z_3 tower
LOOP_CONFIG = {
    "graph": {"vertices": ["v"], "edges": [{"id": "e", "ends": ["v", "v"]}]},
    "group": {"kind": "abelian", "p": 3, "rank": 1},
    "voltage": {"e": [[0, 1]]},
    "quotient": {"exponents": [1]},
    "max_level": 3,
}

# two vertices, nine edges, metacyclic p = 3: μ₁ = 2, and the bounds pinch
MU2_CONFIG = {
    "graph": {"vertices": ["v", "w"],
              "edges": [{"id": f"e{i}", "ends": ["v", "w"]} for i in range(9)]},
    "group": {"kind": "metacyclic", "p": 3, "action_unit": "1+p"},
    "voltage": {**{f"e{i}": [[0, 1]] for i in range(3)},
                **{f"e{i}": [[1, 1]] for i in range(3, 6)},
                **{f"e{i}": [] for i in range(6, 9)}},
    "quotient": {"exponents": [0, 1]},
}


def abelian_pin_config(rng, p, rank, level, nv, max_extra):
    """A seeded abelian config on nv base vertices: a random spanning tree
    plus 2..max_extra edges, parallel edges and loops allowed."""
    ends = [[i, rng.randrange(i)] for i in range(1, nv)]
    ends += [[rng.randrange(nv), rng.randrange(nv)]
             for _ in range(rng.randint(2, max_extra))]
    mod = p ** level
    return {"graph": {"vertices": list(range(nv)),
                      "edges": [{"id": f"e{i}", "ends": e}
                                for i, e in enumerate(ends)]},
            "group": {"kind": "abelian", "p": p, "rank": rank},
            "voltage": {f"e{i}": [[g, rng.randrange(mod)] for g in range(rank)]
                        for i in range(len(ends))}}


def sparse(matrix):
    """A dense integer matrix as `smith_invariant_factors` takes it: sparse
    rows {column: value} and the column count."""
    return ([{j: v for j, v in enumerate(row) if v} for row in matrix],
            len(matrix[0]) if matrix else 0)


def dense_laplacian(graph):
    """D − A from `graph_matrices`: the dense reference Laplacian."""
    m = graph_matrices(graph)
    n = graph.num_vertices
    return [[m.D[i][j] - m.A[i][j] for j in range(n)] for i in range(n)]


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


def enumerate_spanning_trees(graph):
    """All spanning trees as edge-id sets, by exhaustive subset check: the
    brute-force oracle for ``spanning_tree_count``.  Loops are never part of
    a spanning tree."""
    n = graph.num_vertices
    if n == 0:
        return []
    non_loops = [(e, ends) for e, ends in graph.edges if ends[0] != ends[1]]
    trees = []
    for subset in itertools.combinations(non_loops, n - 1):
        if is_connected(Multigraph(graph.vertices, tuple(subset))):
            trees.append(frozenset(e for e, _ in subset))
    return trees


# -- reference arithmetic in Z[G^(n)] and Z[ζ] that the package never needs

def group_ring_element(spec, g, coefficient=1):
    """coefficient·g in Z[G^(level of g)]."""
    return GroupRingElement.from_terms(spec, g.level, {g: coefficient})


def group_ring_zero(spec, level):
    return GroupRingElement(spec, level, ())


def augmentation(x):
    """The sum of the coefficients, entrywise for a GroupRingMatrix."""
    if isinstance(x, GroupRingMatrix):
        return [[augmentation(y) for y in row] for row in x.entries]
    return sum(c for _, c in x.terms)


def project(x, m):
    """The image of x under G^(n) → G^(m), entrywise for a GroupRingMatrix."""
    if isinstance(x, GroupRingMatrix):
        return GroupRingMatrix(x.spec, m, tuple(
            tuple(project(y, m) for y in row) for row in x.entries))
    acc = {}
    for g, c in x.terms:
        h = x.spec.project(g, m)
        acc[h] = acc.get(h, 0) + c
    return GroupRingElement.from_terms(x.spec, m, acc)


def root_power(p, k, exponent):
    """ζ_{p^k}^exponent as a reduced element."""
    coeffs = [0] * euler_phi_prime_power(p, k)
    _add_monomial(coeffs, exponent, 1, p, k)
    return CyclotomicInteger(p, k, tuple(coeffs))


def cyclotomic_sum(*terms):
    """The sum of one or more elements of the same Z[ζ_{p^k}]."""
    first = terms[0]
    assert all((x.p, x.k) == (first.p, first.k) for x in terms)
    return CyclotomicInteger(first.p, first.k,
                             tuple(map(sum, zip(*(x.coeffs for x in terms)))))


def as_int(x):
    """A rational element of Z[ζ] as an int."""
    assert x.is_rational()
    return x.coeffs[0]


def lift(x, new_k):
    """The image of x under Z[ζ_{p^k}] → Z[ζ_{p^new_k}], ζ_{p^k} ↦
    ζ^{p^(new_k − k)}."""
    assert new_k >= x.k
    step = x.p ** (new_k - x.k)
    coeffs = [0] * euler_phi_prime_power(x.p, new_k)
    for i, a in enumerate(x.coeffs):
        if a:
            _add_monomial(coeffs, i * step, a, x.p, new_k)
    return CyclotomicInteger(x.p, new_k, tuple(coeffs))
