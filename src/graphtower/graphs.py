"""Finite undirected multigraphs, their connectivity and reduced Laplacians.

Loops and parallel edges are allowed everywhere.  Vertex and edge order is
insertion order and all matrices are indexed by it, so repeated runs produce
identical output.
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


def laplacian_rows(num_vertices: int, pairs: Sequence[tuple[int, int]],
                   translations: Sequence[Sequence[int]],
                   size: int) -> list[dict[int, int]]:
    """The reduced Laplacian of a cover, D − A without the row and column
    of vertex 0, as sparse rows {column: value}, in one pass over its base:
    num_vertices vertices, the vertex indices (i, j) of each base edge's
    ends, and each edge's translation t, a right translation of a group of
    order size, as an index list.  Cover vertex (v_i, g_k) is i·size + k,
    at index i·size + k − 1, and the edge over e from v_i to v_j joins it
    to j·size + t[k].  A graph is its own cover with size 1 and every t
    [0].  A loop whose t is the identity (t[0] = 0) adds nothing, since it
    counts twice in both D and A; any other t fixes no point, so each
    vertex's degree is its fibre's.
    """
    degrees = [0] * num_vertices
    lifts = []
    for (i, j), t in zip(pairs, translations):
        if i != j or t[0]:
            degrees[i] += 1
            degrees[j] += 1
            lifts.append((i * size, j * size, t))
    rows: list[dict[int, int]] = []
    for i, d in enumerate(degrees):
        first = i * size - 1
        rows += ([{v: d} for v in range(first, first + size)] if d else
                 [{} for _ in range(size)])
    for first_i, first_j, t in lifts:
        fibre_j = rows[first_j:first_j + size]
        for a, row, h in zip(range(first_i - 1, first_i - 1 + size),
                             rows[first_i:first_i + size], t):
            b = first_j - 1 + h
            row[b] = row.get(b, 0) - 1
            row = fibre_j[h]
            row[a] = row.get(a, 0) - 1
    if rows:
        # vertex 0 is index −1, in its own row and in its neighbours' rows
        for b in rows.pop(0):
            if b >= 0:
                del rows[b][-1]
    return rows


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
