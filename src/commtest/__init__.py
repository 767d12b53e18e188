"""Hypothesis testing under communication constraints.

Library for designing divergence-preserving quantization channels, running
distributed binary / robust / M-ary tests, and verifying the structural
bounds those constructions satisfy.

`import commtest` loads no submodule and no numpy: each public name is
resolved on first access through the module `__getattr__` (PEP 562), which
imports the submodule that defines it and binds the name here.
"""

import importlib

# Each submodule and the public names it defines.
_EXPORTS = {
    "core": (
        "Channel", "Distribution", "FDivergenceSpec", "ThresholdSet", "apply_channel",
        "builtin_fdiv", "f_divergence", "geometric_threshold_set", "hellinger_affinity",
        "hellinger_sq", "likelihood_ratios", "sym_chi_spec", "threshold_channel",
        "total_variation",
    ),
    "errors": (
        "CommtestError", "DegenerateInputError", "DimensionError",
        "InfeasibleContaminationError", "NonConvergenceError", "StochasticFailureError",
        "ValidationError",
    ),
    "revmarkov": (
        "DiscreteRV", "ThresholdGrid", "brute_force_revmarkov", "guarantee",
        "reverse_markov_best", "reverse_markov_geometric", "reverse_markov_top",
        "revmarkov_objective", "tightness_instance",
    ),
    "quantizer": (
        "QuantizeResult", "brute_force_threshold_channel", "design_fdiv_channel",
        "design_hellinger_channel", "fdiv_ratio", "hell_tight_instance",
    ),
    "testing": (
        "SimulationReport", "TestRule", "empirical_sample_complexity", "lrt_decide",
        "scheffe_channel", "simulate_error",
    ),
    "robust": (
        "ContaminationSetup", "LfdPair", "design_robust_channel",
        "example_nonrobust_instance", "example_phase_transition_instance", "huber_lfd",
        "moderate_robustness_radius", "robust_decide",
    ),
    "mary": (
        "BinaryChannelBoundReport", "GameRecord", "HypothesisFamily",
        "TournamentTranscript", "chi_square_budget", "chi_square_inner", "counts_sampler",
        "game_sample_size", "hadamard_instance", "identical_channel_design",
        "jl_sketch_channel", "min_pairwise_tv_after", "pairwise_indicator_reduction",
        "tournament_adaptive", "tournament_nonadaptive", "verify_identical_d2_bound",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    if name in _EXPORTS:  # a submodule, as `commtest.mary`
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__():
    return sorted({*globals(), *__all__})
