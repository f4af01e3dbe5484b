"""Voltage assignments, derived graphs, and the group-ring Laplacian.

The orientation convention is fixed once and for all: every edge's positive
direction runs from its first listed endpoint to its second; traversing an
edge backwards inverts its voltage.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Mapping, Sequence

from .errors import BoundExceededError, DisconnectedError
from .graphs import EdgeId, Multigraph, Vertex, graph_matrices, is_connected
from .groups import GroupElement, TowerGroupSpec
from .grouprings import GroupRingElement, GroupRingMatrix

Word = tuple[tuple[int, int], ...]  # ((generator index, exponent), ...)

_DERIVE_MAX_VERTICES = 5000


@dataclass(frozen=True)
class VoltageAssignment:
    """A voltage per oriented edge, as a level-free generator word."""

    base: Multigraph
    spec: TowerGroupSpec
    voltages: tuple[tuple[EdgeId, Word], ...]

    def __post_init__(self) -> None:
        have = {e for e, _ in self.voltages}
        need = {e for e, _ in self.base.edges}
        missing = need - have
        if missing:
            raise ValueError(f"edges with no voltage: {sorted(map(str, missing))}")
        extra = have - need
        if extra:
            raise ValueError(f"voltages for unknown edges: {sorted(map(str, extra))}")
        for _, word in self.voltages:
            for index, _ in word:
                if not 0 <= index < self.spec.num_generators:
                    raise ValueError(f"invalid generator index {index}")

    @staticmethod
    def build(base: Multigraph, spec: TowerGroupSpec,
              voltages: Mapping[EdgeId, Sequence[Sequence[int]]]) -> "VoltageAssignment":
        packed = tuple(
            (e, tuple((int(i), int(x)) for i, x in voltages[e]))
            for e, _ in base.edges if e in voltages)
        return VoltageAssignment(base, spec, packed)

    def word(self, e: EdgeId) -> Word:
        for eid, w in self.voltages:
            if eid == e:
                return w
        raise KeyError(e)

    def voltage(self, e: EdgeId, n: int) -> GroupElement:
        return self.spec.word_evaluate(n, self.word(e))


@dataclass(frozen=True)
class DerivedGraph:
    """The level-n cover: vertices (v, g), edge (e, g) joining (v,g)–(w, gα(e))."""

    level: int
    alpha: VoltageAssignment
    graph: Multigraph

    @property
    def spec(self) -> TowerGroupSpec:
        return self.alpha.spec

    def project_edge(self, eid: tuple[EdgeId, GroupElement]) -> EdgeId:
        return eid[0]

    def act(self, h: GroupElement,
            vertex: tuple[Vertex, GroupElement]) -> tuple[Vertex, GroupElement]:
        v, g = vertex
        return (v, self.spec.multiply(h, g))


def check_derive_bounds(alpha: VoltageAssignment, n: int) -> None:
    """Raise BoundExceededError when X_n would be past the vertex bound or
    G^(n) past the enumeration bound.  Both grow with n, so passing at n
    means passing at every level below it."""
    spec = alpha.spec
    base = alpha.base
    if base.num_vertices and spec.order_exceeds(
            n, _DERIVE_MAX_VERTICES // base.num_vertices):
        raise BoundExceededError(
            f"derived graph would have {base.num_vertices}·"
            f"{spec.p}^{n * spec.dimension} vertices")
    spec.check_enumerable(n)


def derive(alpha: VoltageAssignment, n: int) -> DerivedGraph:
    """Materialize the derived graph X_n."""
    check_derive_bounds(alpha, n)
    spec = alpha.spec
    base = alpha.base
    group = spec.enumerate_group(n)
    vertices = [(v, g) for v in base.vertices for g in group]
    edges = []
    for e, (v, w) in base.edges:
        a = alpha.voltage(e, n)
        for g in group:
            edges.append(((e, g), ((v, g), (w, spec.multiply(g, a)))))
    return DerivedGraph(n, alpha, Multigraph(tuple(vertices), tuple(edges)))


def voltage_adjacency(alpha: VoltageAssignment, n: int) -> GroupRingMatrix:
    """The matrix A_α over Z[G^(n)].

    Off-diagonal (i, j): Σ α(e) over edges oriented v_i → v_j plus
    Σ α(e)⁻¹ over edges oriented v_j → v_i.  Diagonal: Σ α(e) + α(e)⁻¹
    over loops at v_i.
    """
    spec = alpha.spec
    base = alpha.base
    m = base.num_vertices
    index = {v: i for i, v in enumerate(base.vertices)}
    terms = [[Counter() for _ in range(m)] for _ in range(m)]
    for e, (v, w) in base.edges:
        g = alpha.voltage(e, n)
        i, j = index[v], index[w]
        terms[i][j][g] += 1
        terms[j][i][spec.inverse(g)] += 1
    return GroupRingMatrix(spec, n, tuple(
        tuple(GroupRingElement.from_terms(spec, n, t) for t in row)
        for row in terms))


def voltage_laplacian(alpha: VoltageAssignment, n: int,
                      adjacency: GroupRingMatrix | None = None
                      ) -> GroupRingMatrix:
    """L = D − A_α^t over Z[G^(n)].

    adjacency is ``voltage_adjacency(alpha, n)``, built here when not given.
    """
    if adjacency is None:
        adjacency = voltage_adjacency(alpha, n)
    spec = alpha.spec
    a_alpha = adjacency.entries
    m = len(a_alpha)
    degrees = graph_matrices(alpha.base).D
    entries = []
    for i in range(m):
        row = []
        for j in range(m):
            d_ij = GroupRingElement.constant(spec, n, degrees[i][j])
            row.append(d_ij - a_alpha[j][i])
        entries.append(tuple(row))
    return GroupRingMatrix(spec, n, tuple(entries))


def beta_of_path(alpha: VoltageAssignment, n: int,
                 path: Sequence[tuple[EdgeId, bool]]) -> GroupElement:
    """Ordered product of voltages along a path of (edge id, forward?) steps."""
    spec = alpha.spec
    ends = dict(alpha.base.edges)
    current: Vertex | None = None
    result = spec.identity(n)
    for eid, forward in path:
        v, w = ends[eid]
        start, end = (v, w) if forward else (w, v)
        if current is not None and start != current:
            raise ValueError(f"path breaks at edge {eid!r}")
        current = end
        g = alpha.voltage(eid, n)
        result = spec.multiply(result, g if forward else spec.inverse(g))
    return result


def fundamental_cycle_betas(alpha: VoltageAssignment, n: int) -> list[GroupElement]:
    """β-values of the fundamental cycles of a spanning tree through the root.

    The root is the first-listed vertex; tree paths are found by BFS over the
    edge list in insertion order (deterministic).
    """
    base = alpha.base
    if not is_connected(base):
        raise DisconnectedError("base graph is disconnected")
    spec = alpha.spec
    root = base.vertices[0]
    # BFS spanning tree: for each vertex, the β of the root→vertex tree path
    beta_to: dict[Vertex, GroupElement] = {root: spec.identity(n)}
    tree_edges: set[EdgeId] = set()
    frontier = [root]
    while frontier:
        next_frontier = []
        for e, (v, w) in base.edges:
            if e in tree_edges:
                continue
            g = None
            if v in beta_to and w not in beta_to:
                g = spec.multiply(beta_to[v], alpha.voltage(e, n))
                beta_to[w] = g
                tree_edges.add(e)
                next_frontier.append(w)
            elif w in beta_to and v not in beta_to:
                g = spec.multiply(beta_to[w], spec.inverse(alpha.voltage(e, n)))
                beta_to[v] = g
                tree_edges.add(e)
                next_frontier.append(v)
        if not next_frontier:
            break
        frontier = next_frontier
    betas = []
    for e, (v, w) in base.edges:
        if e in tree_edges:
            continue
        # cycle root → v, across e, back w → root
        g = spec.multiply(beta_to[v], alpha.voltage(e, n))
        g = spec.multiply(g, spec.inverse(beta_to[w]))
        betas.append(g)
    return betas


def connectivity_criterion(alpha: VoltageAssignment) -> bool:
    """Whether every derived graph X_n is connected.

    True iff the β-values of a fundamental cycle basis generate
    G^(1) = G/G^p, which for a powerful tower group implies topological
    generation and hence connectivity at every level.
    """
    betas = fundamental_cycle_betas(alpha, 1)
    if not betas:
        return alpha.spec.order(1) == 1
    return alpha.spec.is_generating_set(betas)


@dataclass(frozen=True)
class QuotientSpec:
    """A Z_p-quotient of the tower group, by generator images γ^{e_i}.

    The subgroup H is the kernel of the induced map; the images must hit a
    generator of the quotient (some exponent a unit mod p).  For metacyclic
    towers the first generator must map to 0 so the map factors through the
    abelianization compatibly at every level.
    """

    exponents: tuple[int, ...]

    def validate(self, spec: TowerGroupSpec) -> None:
        if len(self.exponents) != spec.num_generators:
            raise ValueError("one exponent per generator required")
        if all(e % spec.p == 0 for e in self.exponents):
            raise ValueError("quotient map is not surjective onto Z_p")
        if spec.kind == "metacyclic" and self.exponents[0] != 0:
            raise ValueError(
                "metacyclic quotient must kill the first generator")


def quotient_assignment(alpha: VoltageAssignment,
                        quotient: QuotientSpec) -> VoltageAssignment:
    """Compose the voltages with the projection G → G/H ≅ Z_p."""
    quotient.validate(alpha.spec)
    new_spec = TowerGroupSpec(kind="abelian", p=alpha.spec.p, rank=1)
    new_voltages = {}
    for e, word in alpha.voltages:
        total = sum(exp * quotient.exponents[idx] for idx, exp in word)
        new_voltages[e] = [[0, total]] if total else []
    return VoltageAssignment.build(alpha.base, new_spec, new_voltages)


def gamma_exponent(alpha_quotient: VoltageAssignment, e: EdgeId) -> int:
    """The γ-exponent of an edge voltage in a rank-1 quotient assignment."""
    return sum(exp for _, exp in alpha_quotient.word(e))
