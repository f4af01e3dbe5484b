"""Exact computation with voltage covers of graphs over p-group towers.

The package computes Jacobians and Picard groups of derived graphs, Ihara
zeta and Artin-Ihara L-functions, reduced norms of group-ring Laplacians,
Iwasawa μ/λ/ν growth invariants, and finite-generation verdicts for the
tower module — all in exact integer, cyclotomic, and polynomial arithmetic.
"""

from .errors import (BoundExceededError, ConfigError, DisconnectedError,
                     GraphTowerError, LevelMismatchError, PreconditionError)
from .graphs import (GraphMatrices, Multigraph, connected_components,
                     graph_matrices, is_connected, spanning_tree_count)
from .groups import GroupElement, TowerGroupSpec
from .grouprings import (Character, GroupRingElement, GroupRingMatrix,
                         character_evaluate, characters, nrd_abelian,
                         regular_det)
from .cyclotomic import CyclotomicInteger
from .jacobian import (AbelianGroupStructure, SmithNormalForm,
                       jacobian_structure, level_jacobian, picard_structure,
                       smith_normal_form)
from .polynomials import IntPolynomial, LaurentElement
from .voltage import (DerivedGraph, QuotientSpec, VoltageAssignment,
                      beta_of_path, connectivity_criterion, derive,
                      quotient_assignment, voltage_adjacency,
                      voltage_laplacian)
from .zeta import (ArtinLData, ZetaData, artin_l_inverse, factorization_check,
                   h_at_one, ihara_zeta_inverse, interpolation_check)
from .iwasawa import (FittingGenerators, IwasawaFit, Lambda1Det, MHGVerdict,
                      TowerReport, fit_iwasawa, fitting_generators,
                      lambda1_determinant, mhg_check, mu_lambda_from_poly,
                      mu_lower_bound, tower_en)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
