"""Deviation bounds for K-steps-ahead forecasts, inverted and verified.

Upper bound, lower-bound constructions, an exact finite-tree enumeration
engine, reproducible Monte Carlo, and a decision-making corollary, with a
CLI (`kstep-lln`) and an acceptance suite (`kstep-lln verify-all`).
"""

from .bounds import (
    AggregationParams,
    HorizonParams,
    LowerBoundParams,
    aggregation_bound,
    coefficient_feasible,
    deviation_threshold,
    feller_upper,
    gaussian_survival,
    hoeffding_marginal_tail,
    kr_threshold,
    midpoint_bound,
    mv_lower_bound,
    mv_threshold,
    suitable_x_check,
)
from .constructions import (
    BlockProcess,
    binomial_upper_tail,
    binomial_upper_tail_exact,
    block_deviation_tail,
    imbalance_prob,
    min_imbalance_prob,
    sample_block_process,
    verify_mv_bound,
)
from .decision import (
    DecisionSpace,
    LossSpec,
    Strategy,
    bayesian_strategy,
    regret_tail,
    shifted_deviation_check,
)
from .sampling import TailEstimate, clopper_pearson, mc_tail
from .trees import (
    AdaptedSequence,
    ProbabilityTree,
    block_process_tree,
    conditional_expectation,
    deviation_per_leaf,
    exact_tail,
    random_tree,
    verify_deviation_bound,
)

__version__ = "0.1.0"
