"""Voltage assignments, the covers they derive, and quotient assignments.

The orientation convention is fixed once and for all: every edge's positive
direction runs from its first listed endpoint to its second; traversing an
edge backwards inverts its voltage.

The derived graph X_n of (X, α, G^(n)) reaches every builder in one form,
`cover_index_pairs`: its vertex count and the end indices of its edges,
from each base edge's right translation of G^(n).  Level 0 is the trivial
cover, G^(0) = 1 with every translation [0], so X_0 = X.  For p = 2 and
n ≥ 1, `cover_involution` gives the involution of X_n by a central element
of order 2, in the same vertex layout.  Whether every X_n is connected is
`connectivity_criterion`: the F_p-rank of the base's edge rows
[incidence | level-1 voltage], read off the one Smith form,
`linalg.smith_invariant_factors`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from .errors import BoundExceededError, DisconnectedError
from .graphs import EdgeId, Multigraph, component_count
from .groups import TowerGroupSpec
from .linalg import smith_invariant_factors

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
                if not 0 <= index < self.spec.dimension:
                    raise ValueError(f"invalid generator index {index}")

    @staticmethod
    def build(base: Multigraph, spec: TowerGroupSpec,
              voltages: Mapping[EdgeId, Sequence[Sequence[int]]]) -> "VoltageAssignment":
        packed = tuple(
            (e, tuple((int(i), int(x)) for i, x in voltages[e]))
            for e, _ in base.edges if e in voltages)
        return VoltageAssignment(base, spec, packed)

    def normal_form_edges(
            self, n: int) -> list[tuple[int, int, tuple[int, ...]]]:
        """Each edge as (i, j, a), in edge order: the indices of its ends
        and its voltage's normal form in G^(n).  A_α, D − A_α^t and the
        index pairs of X_n are read off this list."""
        words = dict(self.voltages)
        return [(i, j, self.spec.normal_form(n, words[e])) for (e, _), (i, j)
                in zip(self.base.edges, self.base.index_pairs())]


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


def cover_index_pairs(alpha: VoltageAssignment,
                      n: int) -> tuple[int, list[tuple[int, int]]]:
    """The vertex count of X_n and the vertex indices of each cover edge's
    ends, after the bounds of `check_derive_bounds`.  Vertex (v_i, g_k) is
    i·|G^(n)| + k, with g_k element k of `enumerate_group(n)`, and edge x,
    which lies over base edge e = x // |G^(n)| at g_k, k = x mod |G^(n)|,
    joins it, for e from v_i to v_j, to (v_j, g_k·α(e)), read off the
    right translation of α(e)'s normal form
    (`TowerGroupSpec.right_translation`)."""
    check_derive_bounds(alpha, n)
    spec = alpha.spec
    size = spec.order(n)
    pairs = [(i * size + k, j * size + h)
             for i, j, a in alpha.normal_form_edges(n)
             for k, h in enumerate(spec.right_translation(n, a))]
    return alpha.base.num_vertices * size, pairs


def cover_involution(alpha: VoltageAssignment, n: int) -> list[int] | None:
    """For p = 2 and n ≥ 1, the involution (v_i, g) ↦ (v_i, c·g) of X_n as
    a vertex index list in the layout of `cover_index_pairs`, c the element
    of order 2 whose normal form is (2^(n−1), 0, ...); None otherwise.

    c is central: in the abelian kind trivially, and in the metacyclic one
    because τ·σ^(2^(n−1))·τ⁻¹ = σ^(2^(n−1)·u) = σ^(2^(n−1)) for odd u.  So
    c·g = g·c, read off the right translation of c, and the map sends the
    edge at g over a base edge to the edge at c·g over it."""
    spec = alpha.spec
    if spec.p != 2 or n == 0:
        return None
    size = spec.order(n)
    translation = spec.right_translation(
        n, (1 << (n - 1),) + (0,) * (spec.dimension - 1))
    return [i * size + k for i in range(alpha.base.num_vertices)
            for k in translation]


def connectivity_criterion(alpha: VoltageAssignment) -> bool:
    """Whether every derived graph X_n is connected.

    True iff the β-values of a spanning tree's fundamental cycles generate
    G^(1) = G/G^p, which for a powerful tower group implies topological
    generation and hence connectivity at every level.  G^(1) is (Z/p)^d
    for both kinds, so the β-values are F_p-vectors: with φ(v) the image
    of a tree path to v, an edge from v to w of level-1 voltage a has
    β = φ(v) + a − φ(w).  The cycles are the kernel of Nᵗ, N the oriented
    edge–vertex incidence matrix, so on a connected base of m vertices
    the edge rows [N | A], A the level-1 voltages, have F_p-rank m − 1
    plus that of the β-values, and the criterion is rank_p[N | A] =
    m − 1 + d.  That rank is the number of invariant factors over Z that
    p does not divide, since a unimodular Smith decomposition over Z stays
    invertible mod p.  A failing criterion on a disconnected base raises
    DisconnectedError.
    """
    d = alpha.spec.dimension
    m = alpha.base.num_vertices
    rows = []
    for i, j, a in alpha.normal_form_edges(1):
        row = {m + t: x for t, x in enumerate(a) if x}
        if i != j:
            row[i], row[j] = 1, -1
        if row:
            rows.append(row)
    factors = smith_invariant_factors(rows, m + d)
    if sum(f % alpha.spec.p != 0 for f in factors) == m - 1 + d:
        return True
    if component_count(m, alpha.base.index_pairs()) > 1:
        raise DisconnectedError("base graph is disconnected")
    return False


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
        if len(self.exponents) != spec.dimension:
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
