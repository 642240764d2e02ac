"""Spectral PDE forward maps, exact linearisations and Langevin inference
for interaction potentials on the periodic torus."""

from .spectral import (
    PotentialVec,
    SpectralField,
    basis_tau,
    count_dim,
    modes_in_ball,
    random_potential,
)
from .parabolic import (
    NumericalBlowUp,
    StepperConfig,
    Trajectory,
    integrate,
    rel_l2l2_error,
    self_convergence_error,
    solve_linear_lw,
)
from .forward import (
    McKVProblem,
    ReactionSpec,
    decay_density,
    gram_matrix,
    jacobian_columns,
    mckv_second_derivative,
    rd_linearisation,
    solve_mckv,
    solve_rd,
    uniform_density,
)
from .stability import (
    StabilityReport,
    deconvolution_margin,
    forward_lipschitz_probe,
    gradient_stability_sigma_min,
    pseudo_linearised_difference,
    stability_report,
)
from .inference import (
    ConstantsConfig,
    Dataset,
    ForwardModel,
    LikelihoodEvaluator,
    PriorSpec,
    SurrogateSpec,
    delta_n,
    expected_neg_hessian,
    generate_data,
    posterior_energy,
    surrogate_loglik,
    validate_constants,
)
from .sampler import (
    ChainRun,
    ChainState,
    ergodic_average,
    run_ula,
    ula_step,
    w2_squared,
)
from .config import ConfigError, ExperimentConfig

__version__ = "0.1.0"
