"""Exchangeable MCMC significance tests.

Monte Carlo goodness-of-fit tests whose comparison draws come from a Markov
chain rather than from the null itself.  The samplers here arrange the chain
runs (hub-and-spoke, permuted serial, or along a marked tree) so that the
observed data point is exchangeable with the draws, which makes the
resulting Monte Carlo p-value valid at every significance level.
"""

__version__ = "0.1.0"

from .chains import (
    Ar1Kernel,
    BinaryMatrix,
    PermutationState,
    bimodal_target,
    checkerboard_swap_step,
    cpt_pair,
    cpt_swap_spokes,
    cpt_swap_step,
    cpt_target,
    cpt_transition_matrix,
    format_binary_matrix,
    make_permutation_state,
    mh_pm1_kernel,
    parse_binary_matrix,
)
from .errors import (
    ConfigError,
    DimensionMismatchError,
    ExmcmcError,
    InvalidStatisticError,
    MatrixFormatError,
    NotReversibleError,
    ReversalUndefinedError,
    StationarityViolationError,
    TractabilityError,
    TreeFormatError,
    TreeValidationError,
    UnsupportedRepresentationError,
)
from .kernel import (
    DiscreteDistribution,
    DiscreteKernel,
    KernelPair,
    is_reversible,
    is_stationary,
    reversal,
)
from .pvalue import (
    AtomLaw,
    normal_cdf,
    normal_quantile,
    p_analytic,
    p_infinity_ar1,
    p_infinity_discrete,
    p_mc,
    p_mc_randomized,
    power_parallel_limit,
    sqrt_epsilon,
)
from .rng import substream
from .samplers import (
    MarkedTree,
    SampleSet,
    build_path_tree,
    build_split_star,
    build_star_tree,
    format_marked_tree,
    parse_marked_tree,
    sample_iid,
    sample_parallel,
    sample_permuted_serial,
    sample_sequential,
    sample_tree,
)

__all__ = [name for name in dir() if not name.startswith("_")]
