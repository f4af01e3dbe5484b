"""Jacobian (sandpile) groups of graphs via Smith normal form.

Each Jacobian is the cokernel of a reduced Laplacian fed to
`linalg.smith_invariant_factors` as sparse rows, and every such Laplacian
comes from the one builder `graphs.laplacian_rows`, in one pass over the
index pairs of X_n's edges from `voltage.cover_index_pairs`, as `zeta`
reads them; level 0 of a tower is the trivial cover, X itself, so it meets
the bounds of every other level.  No level builds a `Multigraph` of X_n or
a dense matrix.  The Picard group of a connected graph is Z ⊕ J(X), so it
takes no Smith form of its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

from .errors import DisconnectedError
from .graphs import laplacian_rows
from .groups import p_valuation
from .linalg import smith_invariant_factors
from .voltage import VoltageAssignment, cover_index_pairs


@dataclass(frozen=True)
class AbelianGroupStructure:
    """Z^r ⊕ ⊕_i Z/d_i with d_1 | d_2 | ... and every d_i > 1."""

    free_rank: int
    torsion: tuple[int, ...]

    @property
    def torsion_order(self) -> int:
        return prod(self.torsion)

    def describe(self) -> str:
        parts = ["Z"] * self.free_rank + [f"Z/{d}" for d in self.torsion]
        return " + ".join(parts) if parts else "0"


def level_jacobian(alpha: VoltageAssignment,
                   n: int) -> tuple[AbelianGroupStructure, int]:
    """J(X_n) and e_n = v_p(|J(X_n)|), from one Smith form of the reduced
    Laplacian's sparse rows, read off the index pairs of
    `voltage.cover_index_pairs`.  Level 0 is X itself.

    A disconnected X_n raises DisconnectedError: by the matrix-tree theorem
    the reduced Laplacian is singular exactly when X_n is disconnected.
    """
    rows = laplacian_rows(*cover_index_pairs(alpha, n))
    factors = [d for d in smith_invariant_factors(rows, len(rows)) if d != 0]
    if len(factors) < len(rows):
        raise DisconnectedError("Jacobian requires a connected graph")
    structure = AbelianGroupStructure(0, tuple(d for d in factors if d > 1))
    e_n = sum(p_valuation(d, alpha.spec.p) for d in structure.torsion)
    return structure, e_n
