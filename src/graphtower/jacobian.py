"""Jacobian (sandpile) and Picard groups of graphs via Smith normal form."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import DisconnectedError
from .graphs import Multigraph, graph_matrices
from .groups import p_valuation
from .linalg import smith_invariant_factors
from .voltage import VoltageAssignment, derive


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


def smith_normal_form(matrix: Sequence[Sequence[int]]) -> SmithNormalForm:
    return SmithNormalForm(tuple(smith_invariant_factors(matrix)))


def cokernel_structure(matrix: Sequence[Sequence[int]],
                       ambient_rank: int) -> AbelianGroupStructure:
    """Structure of Z^ambient_rank / column span of the matrix."""
    factors = smith_invariant_factors(matrix) if len(matrix) else []
    nonzero = [d for d in factors if d != 0]
    torsion = tuple(d for d in nonzero if d > 1)
    free_rank = ambient_rank - len(nonzero)
    return AbelianGroupStructure(free_rank, torsion)


def jacobian_structure(graph: Multigraph) -> AbelianGroupStructure:
    """J(X): cokernel of the reduced Laplacian; order = spanning tree count.

    By the matrix-tree theorem the reduced Laplacian is singular exactly
    when the graph is disconnected, so a free part means disconnection.
    """
    lap = graph_matrices(graph).laplacian()
    reduced = [row[1:] for row in lap[1:]]
    structure = cokernel_structure(reduced, graph.num_vertices - 1)
    if structure.free_rank > 0:
        raise DisconnectedError("Jacobian requires a connected graph")
    return AbelianGroupStructure(0, structure.torsion)


def picard_structure(graph: Multigraph) -> AbelianGroupStructure:
    """Pic(X): cokernel of the full Laplacian; Z ⊕ J(X) when connected, and
    of free rank the number of components in general."""
    lap = graph_matrices(graph).laplacian()
    structure = cokernel_structure(lap, graph.num_vertices)
    if structure.free_rank > 1:
        raise DisconnectedError("Picard group requires a connected graph")
    return structure


def level_jacobian(alpha: VoltageAssignment,
                   n: int) -> tuple[AbelianGroupStructure, int]:
    """Jacobian of the level-n derived graph and e_n = v_p(|J(X_n)|)."""
    structure = jacobian_structure(derive(alpha, n).graph)
    p = alpha.spec.p
    e_n = sum(p_valuation(d, p) for d in structure.torsion)
    return structure, e_n
