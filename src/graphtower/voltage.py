"""Voltage assignments, derived graphs, and quotient assignments.

The orientation convention is fixed once and for all: every edge's positive
direction runs from its first listed endpoint to its second; traversing an
edge backwards inverts its voltage.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from .errors import BoundExceededError, DisconnectedError
from .graphs import EdgeId, Multigraph, is_connected
from .groups import TowerGroupSpec, _fp_rank

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

    def normal_forms(self, n: int) -> list[tuple[int, ...]]:
        """Each edge's voltage in G^(n) as a normal form, in edge order."""
        words = dict(self.voltages)
        return [self.spec.normal_form(n, words[e]) for e, _ in self.base.edges]

    def normal_form_edges(
            self, n: int) -> list[tuple[int, int, tuple[int, ...]]]:
        """Each edge as (i, j, a), in edge order: the indices of its ends
        and its voltage's normal form in G^(n).  The characters and the
        regular representation take A_α, and D − A_α^t, from this list."""
        return [(i, j, a) for (i, j), a in
                zip(self.base.index_pairs(), self.normal_forms(n))]


@dataclass(frozen=True)
class DerivedGraph:
    """The level-n cover: vertices (v, g), edge (e, g) joining (v,g)–(w, gα(e)),
    with g a normal form of G^(n)."""

    level: int
    alpha: VoltageAssignment
    graph: Multigraph


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


def edge_translations(alpha: VoltageAssignment, n: int) -> list[list[int]]:
    """For each base edge e, in edge order, the right translation
    g ↦ g·α(e) of G^(n) as an index list into `enumerate_group(n)`.

    Each voltage is read once as its normal form, and the translation is
    integer arithmetic on normal forms (`TowerGroupSpec.right_translation`).
    The bounds of `check_derive_bounds` are checked first.
    """
    check_derive_bounds(alpha, n)
    spec = alpha.spec
    return [spec.right_translation(n, a) for a in alpha.normal_forms(n)]


def cover_index_pairs(alpha: VoltageAssignment,
                      n: int) -> tuple[int, list[tuple[int, int]]]:
    """The vertex count of X_n and the vertex indices of each cover edge's
    ends, in `derive`'s order, without building X_n: vertex (v_i, g_k) is
    i·|G^(n)| + k, and edge (e, g_k), for e from v_i to v_j, joins it to
    j·|G^(n)| + t_e[k], with t_e the translation of e from
    `edge_translations`."""
    translations = edge_translations(alpha, n)
    size = alpha.spec.order(n)
    base = alpha.base
    pairs = [(i * size + k, j * size + h)
             for (i, j), translation in zip(base.index_pairs(), translations)
             for k, h in enumerate(translation)]
    return base.num_vertices * size, pairs


def derive(alpha: VoltageAssignment, n: int) -> DerivedGraph:
    """Materialize the derived graph X_n: vertices (v, g) in base-vertex
    then `enumerate_group` order, and edges (e, g) in base-edge then group
    order, each read from `edge_translations`."""
    translations = edge_translations(alpha, n)
    group = alpha.spec.enumerate_group(n)
    base = alpha.base
    vertices = tuple((v, g) for v in base.vertices for g in group)
    edges = tuple(((e, g), ((v, g), (w, group[h])))
                  for (e, (v, w)), translation in zip(base.edges, translations)
                  for g, h in zip(group, translation))
    return DerivedGraph(n, alpha, Multigraph(vertices, edges))


def connectivity_criterion(alpha: VoltageAssignment) -> bool:
    """Whether every derived graph X_n is connected.

    True iff the β-values of a spanning tree's fundamental cycles generate
    G^(1) = G/G^p, which for a powerful tower group implies topological
    generation and hence connectivity at every level.  G^(1) is (Z/p)^d
    for both kinds, so the β-values are F_p-vectors: with φ(v) the image
    of the tree path from the first vertex to v, an edge from v to w of
    level-1 voltage a has β = φ(v) + a − φ(w), which is 0 on tree edges.
    The criterion compares their F_p-rank with d.  A disconnected base
    raises DisconnectedError.
    """
    base = alpha.base
    if not is_connected(base):
        raise DisconnectedError("base graph is disconnected")
    spec = alpha.spec
    p = spec.p
    pairs = base.index_pairs()
    images = alpha.normal_forms(1)
    steps: list[list[tuple[int, tuple[int, ...]]]] = [
        [] for _ in base.vertices]
    for (i, j), a in zip(pairs, images):
        steps[i].append((j, a))
        steps[j].append((i, tuple(-x for x in a)))
    phi: list[tuple[int, ...] | None] = [None] * base.num_vertices
    phi[0] = (0,) * spec.dimension
    stack = [0]
    while stack:
        i = stack.pop()
        for j, a in steps[i]:
            if phi[j] is None:
                phi[j] = tuple((x + y) % p for x, y in zip(phi[i], a))
                stack.append(j)
    betas = [[(x + y - z) % p for x, y, z in zip(phi[i], a, phi[j])]
             for (i, j), a in zip(pairs, images)]
    return _fp_rank(betas, p) == spec.dimension


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
