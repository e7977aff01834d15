"""Mesh-free solver for second-order semilinear boundary-value problems.

Solutions are expanded in randomized shallow tanh bases and fitted by
collocation least squares; low-regularity regions are discovered from
residual peaks and carved out as ball subdomains carrying recentred,
frequency-scaled bases, coupled through C1 interface conditions.
"""

from .adaptive import (AdaptiveConfig, MaxRefinementsError, RefinementRecord,
                       ScaleSearchResult, SolveState, adaptive_solve,
                       locate_peak, mean_residual, scale_search)
from .basis import (BasisSet, EvalBundle, generate_transferable,
                    generate_uniform, rescale)
from .bench import TestGrid, UndefinedMetricError, err_l2, evaluate_on_grid, run
from .geometry import (BallSubdomain, BaseRegion, Box, BoxMinusBox,
                       CollocationSets, DegeneratePointError, GeometryError,
                       PartitionState, RefinementConflictError,
                       generate_boundary_points, generate_interior_grid,
                       reclassify_collocation, sample_sphere_uniform,
                       split_subdomain)
from .lsq import (NonConvergenceError, SolveReport, SystemBlocks, assemble,
                  gauss_newton, solve_min_norm)
from .pde import (BENCHMARKS, SemilinearProblem, apply_operator, benchmark,
                  linearized_row)

__version__ = "0.1.0"
