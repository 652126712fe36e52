"""Duration-modulated arrival processes driving fluid risk dynamics.

Numerical engines for processes whose jump intensities depend on the time
since the last arrival: exact uniformized simulation, product-integral
survival operators, fixed-epoch bridge densities, transform descriptors of
first return and ruin, and Monte Carlo reference estimators.
"""

from .model import (
    ALPHA_TOL,
    CONSERVATION_TOL,
    EPOCH_PROB_TOL,
    BlockView,
    ConfigError,
    DurationKernel,
    FluidModel,
    FluidModelError,
    KernelDomainError,
    StateSpace,
    StructureError,
    UniformizationBoundError,
    ValidationReport,
    config_hash,
    constant_kernel,
    cost_weights,
    default_duration_samples,
    eval_kernel,
    eval_kernel_batch,
    kernel_from_callables,
    load_model_config,
    model_config_from_dict,
    pareto_renewal_kernel,
    piecewise_constant_kernel,
    uniformized_kernel,
    validate_model,
)
from .simulate import (
    FirstReturnSample,
    KernelConsistencyError,
    PathRecord,
    simulate_path,
    simulate_until_return,
)
from .survival import (
    IphMarginal,
    RenewalOperatorResult,
    SurvivalMatrix,
    TruncationWarning,
    interarrival_density,
    iph_marginal,
    renewal_operator,
    survival_matrix,
    survival_profile,
)
from .montecarlo import (
    BridgeHistogram,
    McEstimate,
    ReturnSamples,
    arrival_time_samples,
    first_return_samples,
    mc_bridge_histogram,
    mc_first_return,
    mc_ruin,
)
from .bridge import (
    BridgeMemoryError,
    BridgeTensor,
    LevelDurationGrid,
    bridge2_slice,
    bridge_recursion,
    integrate_bridge,
)
from .homogeneous import (
    LevelGrid,
    doubling_psi,
    run_split_recursion,
)
from .descriptors import (
    ErlangizedModel,
    FiniteTimeReturn,
    FirstReturnDescriptor,
    RuinDescriptor,
    erlangize,
    finite_time_return,
    psi,
    ruin_descriptor,
)
from .gallery import (
    calendar_switch_model,
    cross_arrival_model,
    gallery_configs,
    gallery_models,
    mmpp_model,
    pareto_renewal_model,
    renewal_ph_model,
    two_state_model,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # model
    "ALPHA_TOL",
    "CONSERVATION_TOL",
    "EPOCH_PROB_TOL",
    "BlockView",
    "ConfigError",
    "DurationKernel",
    "FluidModel",
    "FluidModelError",
    "KernelDomainError",
    "StateSpace",
    "StructureError",
    "UniformizationBoundError",
    "ValidationReport",
    "config_hash",
    "constant_kernel",
    "cost_weights",
    "default_duration_samples",
    "eval_kernel",
    "eval_kernel_batch",
    "kernel_from_callables",
    "load_model_config",
    "model_config_from_dict",
    "pareto_renewal_kernel",
    "piecewise_constant_kernel",
    "uniformized_kernel",
    "validate_model",
    # simulation
    "FirstReturnSample",
    "KernelConsistencyError",
    "PathRecord",
    "simulate_path",
    "simulate_until_return",
    # survival operators
    "IphMarginal",
    "RenewalOperatorResult",
    "SurvivalMatrix",
    "TruncationWarning",
    "interarrival_density",
    "iph_marginal",
    "renewal_operator",
    "survival_matrix",
    "survival_profile",
    # Monte Carlo
    "BridgeHistogram",
    "McEstimate",
    "ReturnSamples",
    "arrival_time_samples",
    "first_return_samples",
    "mc_bridge_histogram",
    "mc_first_return",
    "mc_ruin",
    # bridge densities
    "BridgeMemoryError",
    "BridgeTensor",
    "LevelDurationGrid",
    "bridge2_slice",
    "bridge_recursion",
    "integrate_bridge",
    # duration-free engines
    "LevelGrid",
    "doubling_psi",
    "run_split_recursion",
    # descriptors
    "ErlangizedModel",
    "FiniteTimeReturn",
    "FirstReturnDescriptor",
    "RuinDescriptor",
    "erlangize",
    "finite_time_return",
    "psi",
    "ruin_descriptor",
    # gallery
    "calendar_switch_model",
    "cross_arrival_model",
    "gallery_configs",
    "gallery_models",
    "mmpp_model",
    "pareto_renewal_model",
    "renewal_ph_model",
    "two_state_model",
]
