"""Jacobian (sandpile) groups of graphs via Smith normal form.

Each Jacobian is the cokernel of a reduced Laplacian fed to
`linalg.smith_invariant_factors` as sparse rows, and every such Laplacian
comes from the one builder `graphs.laplacian_rows`, in one pass over the
base edges and their voltage translations.  The Jacobian of a cover X_n
reads the translations of `voltage.edge_translations`; level 0 of a tower
is the trivial cover, X itself, with fibres of one vertex, so it meets the
bounds of every other level.  No level builds X_n, a list of its edges or
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
from .voltage import VoltageAssignment, edge_translations


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
    Laplacian's sparse rows, read off the base and the voltage translations
    of `voltage.edge_translations`.  Level 0 is X itself.

    A disconnected X_n raises DisconnectedError: by the matrix-tree theorem
    the reduced Laplacian is singular exactly when X_n is disconnected.
    """
    base, spec = alpha.base, alpha.spec
    rows = laplacian_rows(base.num_vertices, base.index_pairs(),
                          edge_translations(alpha, n), spec.order(n))
    factors = [d for d in smith_invariant_factors(rows, len(rows)) if d != 0]
    if len(factors) < len(rows):
        raise DisconnectedError("Jacobian requires a connected graph")
    structure = AbelianGroupStructure(0, tuple(d for d in factors if d > 1))
    e_n = sum(p_valuation(d, spec.p) for d in structure.torsion)
    return structure, e_n
