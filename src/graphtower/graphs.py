"""Finite undirected multigraphs, their matrices and spanning-tree counts.

Loops and parallel edges are allowed everywhere.  Vertex and edge order is
insertion order and all matrices are indexed by it, so repeated runs produce
identical output.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Hashable, Sequence

from .errors import BoundExceededError
from .linalg import det_int

Vertex = Hashable
EdgeId = Hashable

# guards for the exhaustive spanning-tree oracle
_ENUM_MAX_VERTICES = 8
_ENUM_MAX_EDGES = 16


@dataclass(frozen=True)
class Multigraph:
    """An undirected multigraph given by ordered vertex and edge lists.

    Each edge is a pair ``(edge_id, (v, w))``; ``v == w`` is a loop.
    """

    vertices: tuple[Vertex, ...]
    edges: tuple[tuple[EdgeId, tuple[Vertex, Vertex]], ...]

    def __post_init__(self) -> None:
        vset = set(self.vertices)
        if len(vset) != len(self.vertices):
            raise ValueError("duplicate vertex identifiers")
        seen: set[EdgeId] = set()
        for eid, (v, w) in self.edges:
            if eid in seen:
                raise ValueError(f"duplicate edge id {eid!r}")
            seen.add(eid)
            if v not in vset or w not in vset:
                raise ValueError(f"edge {eid!r} references unknown vertex")

    @staticmethod
    def build(vertices: Sequence[Vertex],
              edges: Sequence[tuple[EdgeId, tuple[Vertex, Vertex]]]) -> "Multigraph":
        return Multigraph(tuple(vertices), tuple((e, (v, w)) for e, (v, w) in edges))

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def endpoints(self, eid: EdgeId) -> tuple[Vertex, Vertex]:
        for e, ends in self.edges:
            if e == eid:
                return ends
        raise KeyError(eid)


@dataclass(frozen=True)
class GraphMatrices:
    """Adjacency matrix A, degree matrix D and Euler characteristic.

    A[i][i] is twice the loop count at vertex i, so the Laplacian D - A has
    zero row sums.
    """

    A: tuple[tuple[int, ...], ...]
    D: tuple[tuple[int, ...], ...]
    chi: int

    def laplacian(self) -> list[list[int]]:
        n = len(self.A)
        return [[self.D[i][j] - self.A[i][j] for j in range(n)] for i in range(n)]


def graph_matrices(graph: Multigraph) -> GraphMatrices:
    """Adjacency and degree matrices with loops counted twice on the diagonal."""
    n = graph.num_vertices
    index = {v: i for i, v in enumerate(graph.vertices)}
    a = [[0] * n for _ in range(n)]
    for _, (v, w) in graph.edges:
        i, j = index[v], index[w]
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


def connected_components(graph: Multigraph) -> list[set[Vertex]]:
    """Partition of the vertex set into connectivity classes (insertion order)."""
    adjacency: dict[Vertex, set[Vertex]] = {v: set() for v in graph.vertices}
    for _, (v, w) in graph.edges:
        adjacency[v].add(w)
        adjacency[w].add(v)
    seen: set[Vertex] = set()
    parts: list[set[Vertex]] = []
    for start in graph.vertices:
        if start in seen:
            continue
        comp = {start}
        stack = [start]
        while stack:
            v = stack.pop()
            for w in adjacency[v]:
                if w not in comp:
                    comp.add(w)
                    stack.append(w)
        seen |= comp
        parts.append(comp)
    return parts


def is_connected(graph: Multigraph) -> bool:
    return len(connected_components(graph)) <= 1


def spanning_tree_count(graph: Multigraph) -> int:
    """Number of spanning trees via the matrix-tree theorem.

    Returns the determinant of the principal minor of D - A obtained by
    deleting the first row and column; 1 for a single vertex, 0 for a
    disconnected graph with more than one vertex.
    """
    n = graph.num_vertices
    if n == 0:
        return 0
    if n == 1:
        return 1
    lap = graph_matrices(graph).laplacian()
    minor = [row[1:] for row in lap[1:]]
    return det_int(minor)


def enumerate_spanning_trees(graph: Multigraph) -> list[frozenset[EdgeId]]:
    """All spanning trees as edge-id sets, by exhaustive subset check.

    Guarded brute-force oracle for ``spanning_tree_count``; loops are never
    part of a spanning tree.
    """
    n = graph.num_vertices
    if n > _ENUM_MAX_VERTICES or graph.num_edges > _ENUM_MAX_EDGES:
        raise BoundExceededError(
            f"enumeration guard: |V|={n} |E|={graph.num_edges}")
    if n == 0:
        return []
    non_loops = [(e, ends) for e, ends in graph.edges if ends[0] != ends[1]]
    trees: list[frozenset[EdgeId]] = []
    for subset in itertools.combinations(non_loops, n - 1):
        sub = Multigraph(graph.vertices, tuple(subset))
        if is_connected(sub):
            trees.append(frozenset(e for e, _ in subset))
    return trees
