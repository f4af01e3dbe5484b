"""Jacobian (sandpile) and Picard groups of graphs via Smith normal form.

Each group is the cokernel of a Laplacian built as sparse rows by
`graphs.laplacian_rows` and fed to `linalg.smith_invariant_factors`.  The
Jacobian of a cover X_n takes its rows straight from the index pairs of
`voltage.cover_index_pairs`, so no level builds X_n or a dense matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .errors import DisconnectedError
from .graphs import Multigraph, laplacian_rows
from .groups import p_valuation
from .linalg import smith_invariant_factors
from .voltage import VoltageAssignment, cover_index_pairs


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


def _laplacian_cokernel(num_vertices: int, pairs: Iterable[tuple[int, int]],
                        reduced: bool) -> AbelianGroupStructure:
    """J(X), the cokernel of the reduced Laplacian, or with reduced false
    Pic(X), of the full one, for a graph given by its vertex count and the
    vertex indices of each edge's ends.

    A disconnected graph raises DisconnectedError: the free rank of Pic(X)
    is the number of components, and by the matrix-tree theorem the reduced
    Laplacian is singular exactly when the graph is disconnected.
    """
    rows = laplacian_rows(num_vertices, pairs, reduced)
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
                               reduced=True)


def picard_structure(graph: Multigraph) -> AbelianGroupStructure:
    """Pic(X): Z ⊕ J(X) when connected; a disconnected graph raises
    DisconnectedError."""
    return _laplacian_cokernel(graph.num_vertices, graph.index_pairs(),
                               reduced=False)


def level_jacobian(alpha: VoltageAssignment,
                   n: int) -> tuple[AbelianGroupStructure, int]:
    """Jacobian of the level-n derived graph and e_n = v_p(|J(X_n)|).

    X_n is never built: the reduced Laplacian's sparse rows come straight
    from `voltage.cover_index_pairs`, the index pairs of the cover's edges
    read off the voltage translations.
    """
    structure = _laplacian_cokernel(*cover_index_pairs(alpha, n),
                                    reduced=True)
    p = alpha.spec.p
    e_n = sum(p_valuation(d, p) for d in structure.torsion)
    return structure, e_n
