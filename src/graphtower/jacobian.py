"""Jacobian (sandpile) groups of graphs via Smith normal form.

Each Jacobian is the cokernel of a reduced Laplacian fed to
`linalg.smith_invariant_factors` as sparse rows, and every such Laplacian
comes from the one builder `graphs.laplacian_rows`, in one pass over the
base edges and their voltage translations.  The Jacobian of a cover X_n
reads the translations of `voltage.edge_translations`; a graph, and level
0 of a tower, is its own cover with fibres of one vertex.  No level builds
X_n, a list of its edges or a dense matrix.  The Picard group of a
connected graph is Z ⊕ J(X), so it takes no Smith form of its own.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DisconnectedError
from .graphs import Multigraph, laplacian_rows
from .groups import p_valuation
from .linalg import smith_invariant_factors
from .voltage import VoltageAssignment, edge_translations


@dataclass(frozen=True)
class AbelianGroupStructure:
    """Z^r ⊕ ⊕_i Z/d_i with d_1 | d_2 | ... and every d_i > 1."""

    free_rank: int
    torsion: tuple[int, ...]

    @property
    def torsion_order(self) -> int:
        order = 1
        for d in self.torsion:
            order *= d
        return order

    def describe(self) -> str:
        parts = ["Z"] * self.free_rank + [f"Z/{d}" for d in self.torsion]
        return " + ".join(parts) if parts else "0"


def _laplacian_cokernel(num_vertices: int, pairs: list[tuple[int, int]],
                        translations: list[list[int]],
                        size: int) -> AbelianGroupStructure:
    """J(X), the cokernel of the reduced Laplacian, for a cover given as
    `graphs.laplacian_rows` takes it: its base's vertex count and edge end
    indices, and each edge's translation of a group of order size.

    A disconnected graph raises DisconnectedError: by the matrix-tree
    theorem the reduced Laplacian is singular exactly when the graph is
    disconnected.
    """
    rows = laplacian_rows(num_vertices, pairs, translations, size)
    factors = [d for d in smith_invariant_factors(rows, len(rows)) if d != 0]
    if len(factors) < len(rows):
        raise DisconnectedError("Jacobian requires a connected graph")
    return AbelianGroupStructure(0, tuple(d for d in factors if d > 1))


def jacobian_structure(graph: Multigraph) -> AbelianGroupStructure:
    """J(X): order = spanning tree count; a disconnected graph raises
    DisconnectedError."""
    return _laplacian_cokernel(graph.num_vertices, graph.index_pairs(),
                               [[0]] * graph.num_edges, 1)


def level_jacobian(alpha: VoltageAssignment,
                   n: int) -> tuple[AbelianGroupStructure, int]:
    """Jacobian of the level-n derived graph and e_n = v_p(|J(X_n)|).

    X_n is never built: the reduced Laplacian's sparse rows come straight
    from the base and the voltage translations of
    `voltage.edge_translations`.
    """
    base, spec = alpha.base, alpha.spec
    structure = _laplacian_cokernel(base.num_vertices, base.index_pairs(),
                                    edge_translations(alpha, n),
                                    spec.order(n))
    e_n = sum(p_valuation(d, spec.p) for d in structure.torsion)
    return structure, e_n
