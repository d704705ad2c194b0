"""fragtail: extinction-time tail asymptotics of self-similar fragmentation
cascades, with an exact Monte Carlo cross-check suite.

The package is organized around one pipeline:

measures    dislocation measures (atomic, binary-density, analytic-only)
laplace     the Laplace exponent phi of the tagged-fragment subordinator
inversion   psi, the inverse of x -> x/phi(x)
asymptotics tail formulas, the expansion engine, closed family shapes
simulate    event-exact cascade Monte Carlo with tagged lineages
stats       survival curves, shape fits, paired and two-sample tests
acceptance  the exact-in-law identity suites and the end-to-end
            verification suite (also `fragtail identity` and `verify`)
"""

from .errors import (ConfigError, DomainError, FragtailError,
                     InsufficientWindow, NumericalFailure, UncoveredRegion,
                     UnsupportedExpansion, UnsupportedSampling)
from .measures import (DislocationSpec, intrinsic_alpha, load_measure,
                       make_atomic, make_beta, make_beta_splitting,
                       make_ford, make_identical, make_stable, make_uniform,
                       total_mass)
from .laplace import PhiEvaluator
from .inversion import PsiSolver
from .asymptotics import (AlphaIndex, ExpansionSpec, TailShape, default_t0,
                          expand_psi_over_x, extinction_log_tail,
                          family_tail_shape, kennedy_log_tail, log_tail_grid,
                          phi_expansion, tagged_log_tail, tail_ratio,
                          tail_shape_from_expansion)
from .simulate import (CascadeConfig, EnsembleResult, run_ensemble,
                       sample_zeta_tag)
from .stats import (KSResult, ShapeFit, SurvivalCurve, ks_two_sample,
                    paired_mean_diff, shape_fit, survival_curve,
                    synthetic_tail_samples)

__version__ = "0.1.0"
