"""Finite undirected multigraphs, reduced Laplacians and component counts.

Loops and parallel edges are allowed everywhere.  Vertex and edge order is
insertion order and all matrices are indexed by it, so repeated runs produce
identical output.  A `Multigraph` is only ever a base graph.  The builders
below take any graph as a vertex count and the vertex indices (i, j) of
each edge's ends, the form in which `voltage.cover_index_pairs` gives a
cover X_n, so they know nothing of fibres or groups.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Sequence

Vertex = Hashable
EdgeId = Hashable


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

    def index_pairs(self) -> list[tuple[int, int]]:
        """The vertex indices (i, j) of each edge's ends, in edge order."""
        index = {v: i for i, v in enumerate(self.vertices)}
        return [(index[v], index[w]) for _, (v, w) in self.edges]

    def degrees(self) -> list[int]:
        """Each vertex's degree, in vertex order, a loop counted twice."""
        degrees = [0] * self.num_vertices
        for i, j in self.index_pairs():
            degrees[i] += 1
            degrees[j] += 1
        return degrees


def laplacian_rows(num_vertices: int,
                   pairs: Sequence[tuple[int, int]]) -> list[dict[int, int]]:
    """The reduced Laplacian of the graph on vertices 0..num_vertices − 1
    with an edge joining i and j for each (i, j) of pairs: D − A without
    the row and column of vertex 0, as sparse rows {column: value}, vertex
    i at index i − 1.  A loop adds nothing, since it counts twice in both
    D and A, so each diagonal entry is minus the sum of its row; a vertex
    with no other edge keeps an empty row, and no value is 0.
    """
    rows: list[dict[int, int]] = [{} for _ in range(num_vertices)]
    for i, j in pairs:
        if i != j:
            row = rows[i]
            row[j - 1] = row.get(j - 1, 0) - 1
            row = rows[j]
            row[i - 1] = row.get(i - 1, 0) - 1
    for i, row in enumerate(rows):
        if row:
            row[i - 1] = -sum(row.values())
    if rows:
        # vertex 0 is index −1, in its own row and in its neighbours' rows
        for b in rows.pop(0):
            if b >= 0:
                del rows[b][-1]
    return rows


def component_count(num_vertices: int,
                    pairs: Sequence[tuple[int, int]]) -> int:
    """The number of connected components of the graph on vertices
    0..num_vertices − 1 with an edge joining i and j for each (i, j) of
    pairs, by union-find with path halving."""
    parent = list(range(num_vertices))

    def root(x: int) -> int:
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        return x

    count = num_vertices
    for i, j in pairs:
        i, j = root(i), root(j)
        if i != j:
            parent[i] = j
            count -= 1
    return count
