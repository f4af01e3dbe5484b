"""Jacobian (sandpile) and Picard groups of graphs via Smith normal form.

Each group is the cokernel of a Laplacian fed to
`linalg.smith_invariant_factors` as sparse rows, and every such Laplacian
comes from the one builder `graphs.laplacian_rows`, in one pass over the
base edges and their voltage translations.  The Jacobian of a cover X_n
reads the translations of `voltage.edge_translations`; a graph, and level
0 of a tower, is its own cover with fibres of one vertex.  No level builds
X_n, a list of its edges or a dense matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DisconnectedError
from .graphs import Multigraph, laplacian_rows
from .groups import p_valuation
from .linalg import smith_invariant_factors
from .voltage import VoltageAssignment, edge_translations


@dataclass(frozen=True)
class SmithNormalForm:
    """Invariant factors of an integer matrix, divisibility-chained."""

    invariant_factors: tuple[int, ...]

    @property
    def rank(self) -> int:
        return sum(1 for d in self.invariant_factors if d != 0)


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


def smith_normal_form(rows: list[dict[int, int]],
                      cols: int) -> SmithNormalForm:
    """The Smith normal form of sparse rows {column: value} with cols
    columns, which are overwritten."""
    return SmithNormalForm(tuple(smith_invariant_factors(rows, cols)))


def _laplacian_cokernel(num_vertices: int, pairs: list[tuple[int, int]],
                        translations: list[list[int]], size: int,
                        reduced: bool) -> AbelianGroupStructure:
    """J(X), the cokernel of the reduced Laplacian, or with reduced false
    Pic(X), of the full one, for a cover given as `graphs.laplacian_rows`
    takes it: its base's vertex count and edge end indices, and each
    edge's translation of a group of order size.

    A disconnected graph raises DisconnectedError: the free rank of Pic(X)
    is the number of components, and by the matrix-tree theorem the reduced
    Laplacian is singular exactly when the graph is disconnected.
    """
    rows = laplacian_rows(num_vertices, pairs, translations, size, reduced)
    factors = [d for d in smith_invariant_factors(rows, len(rows)) if d != 0]
    free_rank = len(rows) - len(factors)
    if free_rank > (0 if reduced else 1):
        group = "Jacobian" if reduced else "Picard group"
        raise DisconnectedError(f"{group} requires a connected graph")
    return AbelianGroupStructure(free_rank, tuple(d for d in factors if d > 1))


def jacobian_structure(graph: Multigraph) -> AbelianGroupStructure:
    """J(X): order = spanning tree count; a disconnected graph raises
    DisconnectedError."""
    return _laplacian_cokernel(graph.num_vertices, graph.index_pairs(),
                               [[0]] * graph.num_edges, 1, reduced=True)


def picard_structure(graph: Multigraph) -> AbelianGroupStructure:
    """Pic(X): Z ⊕ J(X) when connected; a disconnected graph raises
    DisconnectedError."""
    return _laplacian_cokernel(graph.num_vertices, graph.index_pairs(),
                               [[0]] * graph.num_edges, 1, reduced=False)


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
                                    spec.order(n), reduced=True)
    e_n = sum(p_valuation(d, spec.p) for d in structure.torsion)
    return structure, e_n
