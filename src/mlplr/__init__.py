"""Likelihood-ratio analysis for one-hidden-layer MLP regression.

Constrained maximum-likelihood fitting, LR statistics, penalized width
selection, and a Monte Carlo simulator of the asymptotic LR law under
over-parameterization.
"""

from .estimation import FitConfig, FitResult, ProjectionError, fit_mle, profile_lr_curve
from .harness import (
    ExperimentConfig,
    ReplicateMatrix,
    SummaryStats,
    expansion_decay,
    gradcheck,
    ks_distance,
    run_experiment,
    run_replicates,
    summarize,
)
from .likelihood import (
    FdCheckReport,
    Reparameterization,
    TaylorTerms,
    base_reparameterization,
    conditional_loglik,
    density_ratio,
    fd_check_derivatives,
    lr_statistic,
    taylor_terms,
)
from .limit_law import (
    GramMatrix,
    H4Report,
    LimitSample,
    Partition,
    ScoreBasis,
    check_h4,
    delta_feasible,
    enumerate_partitions,
    gram_matrix,
    gram_matrix_gh,
    normalize_score,
    simulate_limit,
)
from .model import (
    ConstraintBox,
    Dataset,
    HiddenUnit,
    MlpParams,
    RegressionSpec,
    generate_dataset,
    mlp_forward_batch,
)
from .selection import (
    PenaltySchedule,
    SelectionReport,
    penalty_value,
    select_architecture,
    select_width,
)

__version__ = "0.1.0"
