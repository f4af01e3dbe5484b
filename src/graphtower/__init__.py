"""Exact computation with voltage covers of graphs over p-group towers.

The package computes Jacobians and Picard groups of derived graphs, Ihara
zeta and Artin-Ihara L-functions, reduced norms of group-ring Laplacians,
Iwasawa μ/λ/ν growth invariants, and finite-generation verdicts for the
tower module — all in exact integer, cyclotomic, and polynomial arithmetic.
"""

from .errors import (BoundExceededError, ConfigError, DisconnectedError,
                     GraphTowerError, PreconditionError)
from .graphs import Multigraph, component_count, laplacian_rows
from .groups import TowerGroupSpec
from .grouprings import Character, characters
from .cyclotomic import CyclotomicInteger
from .jacobian import AbelianGroupStructure, level_jacobian
from .polynomials import LaurentElement
from .voltage import (QuotientSpec, VoltageAssignment,
                      connectivity_criterion, cover_index_pairs,
                      cover_involution, quotient_assignment)
from .zeta import (ZetaData, artin_l_inverse, cover_zeta_inverse,
                   factorization_check, ihara_zeta_inverse,
                   interpolation_check, l_functions)
from .iwasawa import (FittingGenerators, IwasawaFit, Lambda1Det, MHGVerdict,
                      TowerReport, fit_iwasawa, fitting_generators,
                      lambda1_determinant, mhg_check, mu_lambda_from_poly,
                      mu_lower_bound, tower_en)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
