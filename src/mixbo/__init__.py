"""Trust-region Bayesian optimization for mixed search spaces.

The pieces compose bottom-up: :mod:`mixbo.space` defines parameters and
the warp onto the unit cube, :mod:`mixbo.surrogate` fits a Gaussian
process with a kernel built for mixed variables, :mod:`mixbo.turbo`
maintains the trust region and generates Sobol candidates,
:mod:`mixbo.arp` partitions the space into good and bad regions,
:mod:`mixbo.bandit` handles qualitative variables, and
:mod:`mixbo.optimizer` ties everything into a batched ask/tell loop.
:mod:`mixbo.bench` adds synthetic objectives and the ablation harness,
and :mod:`mixbo.cli` exposes everything on the command line.
"""

from .arp import DegenerateValuesError, RegionClassifier
from .bandit import BanditState, ts_select, update_rewards
from .bench import (
    ARMS,
    Objective,
    RandomSearch,
    StudyTrace,
    builtin_objectives,
    get_objective,
    normalized_score,
    run_ablation,
    run_study,
)
from .optimizer import (
    ConfigError,
    EmptyHistoryError,
    Observation,
    Optimizer,
    OptimizerConfig,
    ProtocolError,
    config_from_dict,
    create,
)
from .space import (
    Blocks,
    ParamSpec,
    Point,
    SearchSpace,
    ValidationError,
    space_from_dict,
    space_from_json,
)
from .surrogate import (
    GpModel,
    KernelParams,
    NumericalError,
    gp_fit,
    gp_posterior,
    gp_sample,
    indicator_kernel,
    linear_kernel,
    matern52,
    mixture_gram,
    mixture_kernel,
)
from .turbo import (
    TrustRegionConfig,
    TrustRegionState,
    UnsupportedDimensionError,
    generate_candidates,
    needs_restart,
    new_state,
    region_bounds,
    sobol_points,
    update_region,
)

__version__ = "0.1.0"

__all__ = [
    "ARMS",
    "BanditState",
    "Blocks",
    "ConfigError",
    "DegenerateValuesError",
    "EmptyHistoryError",
    "GpModel",
    "KernelParams",
    "NumericalError",
    "Objective",
    "Observation",
    "Optimizer",
    "OptimizerConfig",
    "ParamSpec",
    "Point",
    "ProtocolError",
    "RandomSearch",
    "RegionClassifier",
    "SearchSpace",
    "StudyTrace",
    "TrustRegionConfig",
    "TrustRegionState",
    "UnsupportedDimensionError",
    "ValidationError",
    "builtin_objectives",
    "config_from_dict",
    "create",
    "generate_candidates",
    "get_objective",
    "gp_fit",
    "gp_posterior",
    "gp_sample",
    "indicator_kernel",
    "linear_kernel",
    "matern52",
    "mixture_gram",
    "mixture_kernel",
    "needs_restart",
    "new_state",
    "normalized_score",
    "region_bounds",
    "run_ablation",
    "run_study",
    "sobol_points",
    "space_from_dict",
    "space_from_json",
    "ts_select",
    "update_region",
    "update_rewards",
    "__version__",
]
