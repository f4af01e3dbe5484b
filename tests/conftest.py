"""Shared helpers: seeded random graphs, voltage instances and job configs,
and reference routines the tests compare the package against."""

from __future__ import annotations

import itertools
import random
from collections import Counter
from dataclasses import dataclass

from graphtower import (Multigraph, TowerGroupSpec, VoltageAssignment,
                        component_count, cover_index_pairs,
                        ihara_zeta_inverse)
from graphtower.cyclotomic import (CyclotomicInteger, _add_monomial,
                                   euler_phi_prime_power, galois_images)
from graphtower.errors import DisconnectedError
from graphtower.groups import p_valuation
from graphtower.grouprings import Character, characters
from graphtower.linalg import det_int, det_int_poly_matrix


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


# the cells of the perfbench cover_zeta mix, as (p, rank, base vertices,
# extra edges, level): covers of 10-32 vertices
COVER_ZETA_CELLS = [
    (5, 1, 2, 2, 1), (2, 2, 3, 2, 1), (2, 1, 2, 3, 3), (3, 2, 2, 2, 1),
    (2, 2, 2, 2, 2), (3, 1, 2, 2, 2), (2, 3, 2, 3, 1), (2, 1, 2, 2, 3),
    (2, 2, 2, 2, 2), (3, 1, 2, 3, 2), (2, 3, 2, 2, 1), (7, 1, 3, 2, 1),
    (2, 3, 3, 2, 1), (2, 1, 3, 2, 3), (3, 1, 3, 2, 2), (2, 2, 2, 2, 2),
]


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


def dense_core_reference(m):
    """Diagonal entries equivalent to a dense integer matrix, which is
    overwritten: min(rows, cols) entries, 0 where the trailing block ran
    out.  The dense min-pivot loop that `linalg` ran on the core left by
    its ±1 pivots before the core stayed sparse; kept as the reference the
    sparse core is checked against.

    Each pivot is the nonzero entry of least absolute value in the trailing
    block, the first in row-major order among equals, moved to (t, t) by
    swaps; nearest-integer row and column operations clear its row and
    column.  No divisibility test: a gcd/lcm pass turns the diagonal into
    the chain.
    """
    rows = len(m)
    cols = len(m[0]) if rows else 0
    diag = []
    for t in range(min(rows, cols)):
        block = []
        for row in m[t:]:
            block += row[t:]
        low = min(map(abs, filter(None, block)), default=0)
        if not low:
            break
        for i in range(t, rows):
            held = m[i][t:]
            if low in held or -low in held:
                break
        j = t + list(map(abs, held)).index(low)
        m[t], m[i] = m[i], m[t]
        for row in m[t:]:
            row[t], row[j] = row[j], row[t]
        while True:
            row_t = m[t]
            p = row_t[t]
            tail, twice = row_t[t:], 2 * p
            # nearest-integer quotients leave remainders of at most |p|/2
            for row in m[t + 1:]:
                q = (2 * row[t] + p) // twice
                if q:
                    row[t:] = [a - q * b for a, b in zip(row[t:], tail)]
            below = [(abs(m[i][t]), i) for i in range(t + 1, rows) if m[i][t]]
            if below:
                i = min(below)[1]
                m[t], m[i] = m[i], m[t]
                continue
            # column t is clear below the pivot, so a column operation
            # changes row t alone
            for j in range(t + 1, cols):
                row_t[j] -= (2 * row_t[j] + p) // (2 * p) * p
            right = [(abs(row_t[j]), j) for j in range(t + 1, cols) if row_t[j]]
            if not right:
                break
            j = min(right)[1]
            for row in m[t:]:
                row[t], row[j] = row[j], row[t]
        diag.append(p)
    return diag + [0] * (min(rows, cols) - len(diag))


@dataclass(frozen=True)
class GraphMatrices:
    """Adjacency matrix A, degree matrix D and Euler characteristic.

    A[i][i] is twice the loop count at vertex i, so the Laplacian D - A has
    zero row sums.
    """

    A: tuple[tuple[int, ...], ...]
    D: tuple[tuple[int, ...], ...]
    chi: int


def graph_matrices(graph: Multigraph) -> GraphMatrices:
    """Dense adjacency and degree matrices, loops counted twice on the
    diagonal: the reference the package's sparse builders are checked
    against."""
    n = graph.num_vertices
    a = [[0] * n for _ in range(n)]
    for i, j in graph.index_pairs():
        if i == j:
            a[i][i] += 2
        else:
            a[i][j] += 1
            a[j][i] += 1
    d = [[0] * n for _ in range(n)]
    for i in range(n):
        d[i][i] = sum(a[i])
    chi = graph.num_vertices - graph.num_edges
    return GraphMatrices(tuple(map(tuple, a)), tuple(map(tuple, d)), chi)


def components(graph: Multigraph) -> int:
    """The number of connected components of a Multigraph, by the
    package's `component_count` over its end-index pairs."""
    return component_count(graph.num_vertices, graph.index_pairs())


def trivial_cover(graph: Multigraph):
    """graph as level 0 of a Z_2 tower of empty voltages: the trivial cover
    X_0 = X, as `jacobian --level 0` reads it."""
    return VoltageAssignment.build(graph, TowerGroupSpec("abelian", 2),
                                   {e: [] for e, _ in graph.edges})


def graph_zeta(graph: Multigraph):
    """`ihara_zeta_inverse` of a Multigraph, by its end-index pairs."""
    return ihara_zeta_inverse(graph.num_vertices, graph.index_pairs())


def dense_laplacian(graph):
    """D − A from `graph_matrices`: the dense reference Laplacian."""
    m = graph_matrices(graph)
    n = graph.num_vertices
    return [[m.D[i][j] - m.A[i][j] for j in range(n)] for i in range(n)]


def spanning_tree_count(graph):
    """The number of spanning trees by the matrix-tree theorem: the
    determinant of `dense_laplacian` with its first row and column deleted;
    1 for a single vertex, 0 for a disconnected graph with more than one
    vertex.  The tests' reference for |J(X)|."""
    if graph.num_vertices == 0:
        return 0
    return det_int([row[1:] for row in dense_laplacian(graph)[1:]])


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
        if components(Multigraph(graph.vertices, tuple(subset))) == 1:
            trees.append(frozenset(e for e, _ in subset))
    return trees


# -- group elements as the package encodes them, normal-form tuples, and
# the arithmetic `TowerGroupSpec.multiply` leaves to the tests

def identity(spec):
    """The identity of every G^(n): the zero normal form."""
    return (0,) * spec.dimension


def inverse(spec, n, a):
    """a⁻¹ in G^(n): (σ^i τ^j)⁻¹ = σ^(−i·u^(−j)) τ^(−j), u a unit mod p^n."""
    mod = spec.p ** n
    if spec.kind == "abelian" or mod == 1:
        return tuple(-x % mod for x in a)
    i, j = a
    u_inv = pow(spec.action_unit, -1, mod)
    return (-i * pow(u_inv, j, mod) % mod, -j % mod)


def project_element(spec, n, a, m):
    """The image of a ∈ G^(n) under G^(n) → G^(m), m ≤ n."""
    if m > n:
        raise ValueError(f"cannot project level {n} up to level {m}")
    mod = spec.p ** m
    return tuple(x % mod for x in a)


def act(spec, n, h, vertex):
    """The deck transformation of h ∈ G^(n) on a vertex (v, g) of X_n:
    (v, h·g)."""
    v, g = vertex
    return (v, spec.multiply(n, h, g))


# -- the group-ring matrix layer: Z[G^(n)], A_α and D − A_α^t as matrices
# over it, characters applied term by term, and the regular representation;
# the oracle for grouprings.character_adjacency, nrd_components and
# regular_det


@dataclass(frozen=True)
class GroupRingElement:
    """Element of Z[G^(n)] as a pruned support map."""

    spec: TowerGroupSpec
    level: int
    terms: tuple[tuple[tuple[int, ...], int], ...]  # sorted, zero-free

    @staticmethod
    def from_terms(spec, level, terms):
        pruned = {g: c for g, c in terms.items() if c != 0}
        mod = spec.p ** level
        assert all(len(g) == spec.dimension and
                   all(0 <= x < mod for x in g) for g in pruned)
        return GroupRingElement(spec, level, tuple(sorted(pruned.items())))

    @staticmethod
    def constant(spec, level, c):
        return GroupRingElement.from_terms(spec, level, {identity(spec): c})

    def __add__(self, other):
        assert self.level == other.level
        acc = dict(self.terms)
        for g, c in other.terms:
            acc[g] = acc.get(g, 0) + c
        return GroupRingElement.from_terms(self.spec, self.level, acc)

    def __neg__(self):
        return GroupRingElement(self.spec, self.level,
                                tuple((g, -c) for g, c in self.terms))

    def __sub__(self, other):
        return self + (-other)


@dataclass(frozen=True)
class GroupRingMatrix:
    """Square matrix over Z[G^(n)]."""

    spec: TowerGroupSpec
    level: int
    entries: tuple[tuple[GroupRingElement, ...], ...]

    @property
    def size(self):
        return len(self.entries)


def character_evaluate(chi, x):
    """Linear extension of χ to the group ring: Σ c·ζ^e(g) over the terms."""
    assert x.level == chi.level
    p, k = chi.spec.p, chi.level
    coeffs = [0] * euler_phi_prime_power(p, k)
    for g, c in x.terms:
        _add_monomial(coeffs, chi.exponent(g), c, p, k)
    return CyclotomicInteger(p, k, tuple(coeffs))


def voltage_adjacency(alpha, n):
    """The matrix A_α over Z[G^(n)], from each edge's voltage as a normal
    form: off-diagonal (i, j), Σ α(e) over edges oriented
    v_i → v_j plus Σ α(e)⁻¹ over edges oriented v_j → v_i; diagonal,
    Σ α(e) + α(e)⁻¹ over loops at v_i."""
    spec = alpha.spec
    base = alpha.base
    m = base.num_vertices
    index = {v: i for i, v in enumerate(base.vertices)}
    terms = [[Counter() for _ in range(m)] for _ in range(m)]
    words = dict(alpha.voltages)
    for e, (v, w) in base.edges:
        g = spec.normal_form(n, words[e])
        i, j = index[v], index[w]
        terms[i][j][g] += 1
        terms[j][i][inverse(spec, n, g)] += 1
    return GroupRingMatrix(spec, n, tuple(
        tuple(GroupRingElement.from_terms(spec, n, t) for t in row)
        for row in terms))


def voltage_laplacian(alpha, n):
    """L = D − A_α^t over Z[G^(n)]."""
    spec, a_alpha = alpha.spec, voltage_adjacency(alpha, n).entries
    degrees = alpha.base.degrees()
    return GroupRingMatrix(spec, n, tuple(
        tuple(GroupRingElement.constant(spec, n, d if i == j else 0) -
              a_alpha[j][i] for j in range(len(degrees)))
        for i, d in enumerate(degrees)))


def reduced_norm(matrix):
    """det χ(matrix) for every character χ of an abelian G^(n), in
    ``characters`` order: the reduced norm of any group-ring matrix, by
    ``leibniz_det``, which shares no code with the package's determinants."""
    return [(chi, leibniz_det(matrix.spec.p, matrix.level,
                              [[character_evaluate(chi, x) for x in row]
                               for row in matrix.entries]))
            for chi in characters(matrix.spec, matrix.level)]


def regular_representation(matrix):
    """Left multiplication by a group-ring matrix on Z[G^(n)]^m, as dense
    integer rows: basis g_k of summand j, in ``enumerate_group`` order,
    goes to Σ c·(h g_k) in summand i for the terms c·h of entry (i, j)."""
    spec = matrix.spec
    group = spec.enumerate_group(matrix.level)
    order = len(group)
    index = {g: i for i, g in enumerate(group)}
    size = matrix.size * order
    big = [[0] * size for _ in range(size)]
    for bi, row in enumerate(matrix.entries):
        for bj, x in enumerate(row):
            for gj, g in enumerate(group):
                for h, c in x.terms:
                    hi = index[spec.multiply(matrix.level, h, g)]
                    big[bi * order + hi][bj * order + gj] += c
    return big


# -- reference arithmetic in Z[G^(n)] and Z[ζ] that the package never needs

def group_ring_element(spec, level, g, coefficient=1):
    """coefficient·g in Z[G^(level)]."""
    return GroupRingElement.from_terms(spec, level, {g: coefficient})


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
        h = project_element(x.spec, x.level, g, m)
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


def cyclotomic_constant(p, k, value):
    """The integer value as an element of Z[ζ_{p^k}]."""
    return CyclotomicInteger(
        p, k, (value,) + (0,) * (euler_phi_prime_power(p, k) - 1))


def cyclotomic_difference(a, b):
    """a − b in Z[ζ_{p^k}]."""
    assert (a.p, a.k) == (b.p, b.k)
    return CyclotomicInteger(a.p, a.k,
                             tuple(x - y for x, y in zip(a.coeffs, b.coeffs)))


def cyclotomic_product(a, b):
    """a·b in Z[ζ_{p^k}] by schoolbook products of the coordinates, each
    monomial reduced by ``_add_monomial``."""
    assert (a.p, a.k) == (b.p, b.k)
    reduced = [0] * len(a.coeffs)
    for i, x in enumerate(a.coeffs):
        if x:
            for j, y in enumerate(b.coeffs):
                if y:
                    _add_monomial(reduced, i + j, x * y, a.p, a.k)
    return CyclotomicInteger(a.p, a.k, tuple(reduced))


def leibniz_det(p, k, matrix):
    """Determinant over Z[ζ_{p^k}] by the Leibniz expansion: no division,
    no elimination and no lift to Z[x], so it shares no step with the
    package's determinants."""
    m = len(matrix)
    total = cyclotomic_constant(p, k, 0)
    for perm in itertools.permutations(range(m)):
        term = cyclotomic_constant(p, k, 1)
        for i, j in enumerate(perm):
            term = cyclotomic_product(term, matrix[i][j])
        inversions = sum(perm[i] > perm[j]
                         for i in range(m) for j in range(i + 1, m))
        total = (cyclotomic_difference if inversions % 2 else
                 cyclotomic_sum)(total, term)
    return total


def lifted_det(p, k, matrix):
    """Determinant over Z[ζ_{p^k}] by the package's route: the entries'
    power-basis coordinates lifted to Z[x], one ``det_int_poly_matrix``,
    and Δ(ζ) read off by ``galois_images``."""
    rows = [{j: x.coeffs for j, x in enumerate(row) if any(x.coeffs)}
            for row in matrix]
    [value] = galois_images(p, k, k, det_int_poly_matrix(rows), [1])
    return CyclotomicInteger(p, k, value)


def orbit_units(chi):
    """The units a mod p^j, χ of order p^j, ascending: χ^a runs once over
    the Galois orbit of χ."""
    p = chi.spec.p
    return [a for a in range(1, p ** chi.order_level) if a % p] or [1]


def character_power(chi, a):
    """χ^a; a = −1 gives the conjugate character χ̄."""
    mod = chi.spec.p ** chi.level
    return Character(chi.spec, chi.level,
                     tuple(a * e % mod for e in chi.exponents))


def adjacency_matrix(chi, size, entries):
    """The size×size matrix over Z[ζ_{p^n}], n = χ's level, of the sparse
    coordinates over Z[ζ_{p^j}] that ``character_adjacency`` gives for χ
    of order p^j."""
    p, j = chi.spec.p, chi.order_level
    zero = (0,) * euler_phi_prime_power(p, j)
    return [[lift(CyclotomicInteger(p, j, tuple(entries.get((i, k), zero))),
                  chi.level) for k in range(size)] for i in range(size)]


def as_int(x):
    """A rational element of Z[ζ] as an int."""
    assert not any(x.coeffs[1:])
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


# -- the group-element routes that the package's normal forms replaced:
# word values, level-1 generation, fundamental-cycle β-values and the
# content valuation of a group-ring element

def generator(spec, index, n):
    """Generator `index` of G^(n): σ or τ, or a unit vector."""
    if not 0 <= index < spec.dimension:
        raise ValueError(f"invalid generator index {index}")
    exps = [0] * spec.dimension
    exps[index] = 1 % spec.p ** n
    return tuple(exps)


def power(spec, n, a, k):
    """a^k in G^(n) by squaring with `multiply`."""
    if k < 0:
        return power(spec, n, inverse(spec, n, a), -k)
    result = identity(spec)
    base = a
    while k:
        if k & 1:
            result = spec.multiply(n, result, base)
        base = spec.multiply(n, base, base)
        k >>= 1
    return result


def evaluate_word(spec, n, word):
    """A generator word's value in G^(n) as the product of its generator
    powers: the reference for `TowerGroupSpec.normal_form`."""
    result = identity(spec)
    for index, exponent in word:
        result = spec.multiply(n, result, power(
            spec, n, generator(spec, index, n), exponent))
    return result


def derive(alpha, n):
    """The derived graph X_n of (X, α, G^(n)) as a Multigraph, built from
    group elements and sharing no code with the package's translations:
    vertices (v, g) in base-vertex then `enumerate_group` order, and edges
    (e, g) from (v, g) to (w, g·α(e)) in base-edge then group order, with
    α(e) the product of its generator powers by `multiply`."""
    spec = alpha.spec
    group = spec.enumerate_group(n)
    words = dict(alpha.voltages)
    vertices = [(v, g) for v in alpha.base.vertices for g in group]
    edges = []
    for e, (v, w) in alpha.base.edges:
        a = evaluate_word(spec, n, words[e])
        edges += [((e, g), ((v, g), (w, spec.multiply(n, g, a))))
                  for g in group]
    return Multigraph.build(vertices, edges)


def cover_graph(alpha, n):
    """The package's X_n as a Multigraph labelled as `derive` labels it:
    vertex index i·|G| + k of `cover_index_pairs` is (v_i, g_k), and cover
    edge x lies over base edge x // |G| at g_(x mod |G|)."""
    group = alpha.spec.enumerate_group(n)
    size = len(group)
    vertices = [(v, g) for v in alpha.base.vertices for g in group]
    _, pairs = cover_index_pairs(alpha, n)
    return Multigraph.build(vertices, [
        ((alpha.base.edges[x // size][0], group[x % size]),
         (vertices[i], vertices[j])) for x, (i, j) in enumerate(pairs)])


def _fp_rank(vectors, p):
    """Rank of a set of vectors over F_p, by Gaussian elimination: the
    oracle of the Smith-form rank that the package's criterion reads."""
    rows = [list(v) for v in vectors]
    rank = 0
    width = len(rows[0]) if rows else 0
    for col in range(width):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col] % p),
                     None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], -1, p)
        rows[rank] = [(x * inv) % p for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col] % p:
                factor = rows[i][col]
                rows[i] = [(x - factor * y) % p
                           for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def is_generating_set(spec, elements):
    """Whether elements of G^(1) generate ``G^(1) = G/G^p``.

    For a powerful tower group the Frattini quotient is ``G/G^p``, so
    spanning ``G^(1)`` as an F_p vector space is equivalent to
    topological generation of the whole tower.
    """
    return _fp_rank([list(g) for g in elements], spec.p) == spec.dimension


def fundamental_cycle_betas(alpha, n):
    """β-values of the fundamental cycles of a spanning tree through the root.

    The root is the first-listed vertex; tree paths are found by BFS over the
    edge list in insertion order (deterministic).
    """
    base = alpha.base
    if components(base) > 1:
        raise DisconnectedError("base graph is disconnected")
    spec = alpha.spec
    words = dict(alpha.voltages)

    def voltage(e):
        return evaluate_word(spec, n, words[e])

    root = base.vertices[0]
    # BFS spanning tree: for each vertex, the β of the root→vertex tree path
    beta_to = {root: identity(spec)}
    tree_edges = set()
    frontier = [root]
    while frontier:
        next_frontier = []
        for e, (v, w) in base.edges:
            if e in tree_edges:
                continue
            if v in beta_to and w not in beta_to:
                beta_to[w] = spec.multiply(n, beta_to[v], voltage(e))
                tree_edges.add(e)
                next_frontier.append(w)
            elif w in beta_to and v not in beta_to:
                beta_to[v] = spec.multiply(n, beta_to[w],
                                           inverse(spec, n, voltage(e)))
                tree_edges.add(e)
                next_frontier.append(v)
        frontier = next_frontier
    betas = []
    for e, (v, w) in base.edges:
        if e in tree_edges:
            continue
        # cycle root → v, across e, back w → root
        g = spec.multiply(n, beta_to[v], voltage(e))
        betas.append(spec.multiply(n, g, inverse(spec, n, beta_to[w])))
    return betas


def criterion_by_betas(alpha):
    """The connectivity criterion on group elements: the fundamental-cycle
    β-values, products by `multiply`, generate G^(1)."""
    betas = fundamental_cycle_betas(alpha, 1)
    if not betas:
        return alpha.spec.order(1) == 1
    return is_generating_set(alpha.spec, betas)


def content_p_valuation(x):
    """min_g v_p(coefficient) of a group-ring element, or None for 0."""
    if not x.terms:
        return None
    return min(p_valuation(c, x.spec.p) for _, c in x.terms)


# -- seeded voltage assignments for the oracle tests

ORACLE_EXPONENTS = (1, -1, 2, -7, 10 ** 12, -10 ** 12 - 1)

# (kind, p, rank): abelian p = 2, 3, 5 at rank 1-3, and metacyclic p = 2
# (u = 3) and p = 3
ORACLE_SHAPES = [*(("abelian", p, rank) for p in (2, 3, 5)
                   for rank in (1, 2, 3)),
                 ("metacyclic", 2, 2), ("metacyclic", 3, 2)]


def oracle_spec(kind, p, rank):
    """An abelian spec of the given rank, or the metacyclic one with its
    default unit 1 + p (3 for p = 2)."""
    return (TowerGroupSpec("abelian", p, rank=rank) if kind == "abelian"
            else TowerGroupSpec("metacyclic", p))


def oracle_instance(rng, kind, p, rank):
    """A random voltage assignment on 1-3 base vertices with a loop, a
    parallel edge, and words of 0-3 letters whose exponents include
    negative ones and ±10^12."""
    spec = oracle_spec(kind, p, rank)
    nv = rng.randint(1, 3)
    ends = [(v, rng.randrange(v)) for v in range(1, nv)]
    ends.append((rng.randrange(nv), rng.randrange(nv)))
    ends.append(ends[rng.randrange(len(ends))])
    v = rng.randrange(nv)
    ends.append((v, v))
    voltages = {
        i: [[rng.randrange(spec.dimension),
             rng.choice(ORACLE_EXPONENTS + (rng.randint(-99, 99),))]
            for _ in range(rng.randint(0, 3))]
        for i in range(len(ends))}
    base = Multigraph.build(range(nv), list(enumerate(ends)))
    return VoltageAssignment.build(base, spec, voltages)


def doubled(alpha):
    """alpha with every edge doubled, the copy carrying the same word."""
    base = alpha.base
    edges = [*base.edges, *(((e, "copy"), ends) for e, ends in base.edges)]
    words = dict(alpha.voltages)
    voltages = {**words, **{(e, "copy"): words[e] for e, _ in base.edges}}
    return VoltageAssignment.build(Multigraph.build(base.vertices, edges),
                                   alpha.spec, voltages)
