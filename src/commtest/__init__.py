"""Hypothesis testing under communication constraints.

Library for designing divergence-preserving quantization channels, running
distributed binary / robust / M-ary tests, and verifying the structural
bounds those constructions satisfy.
"""

from .core import (
    Channel,
    Distribution,
    FDivergenceSpec,
    ThresholdSet,
    apply_channel,
    builtin_fdiv,
    f_divergence,
    geometric_threshold_set,
    hellinger_affinity,
    hellinger_sq,
    likelihood_ratios,
    sym_chi_spec,
    threshold_channel,
    total_variation,
)
from .errors import (
    CommtestError,
    DegenerateInputError,
    DimensionError,
    InfeasibleContaminationError,
    NonConvergenceError,
    StochasticFailureError,
    ValidationError,
)
from .revmarkov import (
    DiscreteRV,
    ThresholdGrid,
    brute_force_revmarkov,
    guarantee,
    reverse_markov_best,
    reverse_markov_geometric,
    reverse_markov_top,
    revmarkov_objective,
    tightness_instance,
)
from .quantizer import (
    QuantizeResult,
    brute_force_threshold_channel,
    design_fdiv_channel,
    design_hellinger_channel,
    fdiv_ratio,
    hell_tight_instance,
)
from .testing import (
    SimulationReport,
    TestRule,
    empirical_sample_complexity,
    lrt_decide,
    scheffe_channel,
    simulate_error,
)
from .robust import (
    ContaminationSetup,
    LfdPair,
    design_robust_channel,
    example_nonrobust_instance,
    example_phase_transition_instance,
    huber_lfd,
    moderate_robustness_radius,
    robust_decide,
)
from .mary import (
    BinaryChannelBoundReport,
    GameRecord,
    HypothesisFamily,
    TournamentTranscript,
    chi_square_inner,
    counts_sampler,
    game_sample_size,
    hadamard_instance,
    identical_channel_design,
    jl_sketch_channel,
    l1_embedding_bound_check,
    min_pairwise_tv_after,
    pairwise_indicator_reduction,
    tournament_adaptive,
    tournament_nonadaptive,
    verify_identical_d2_bound,
)

__version__ = "0.1.0"
