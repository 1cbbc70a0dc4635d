"""Rare-event estimation for overdamped Langevin dynamics.

Tools for estimating small escape probabilities of ``dX = -V'(X) dt +
sigma dW`` on the line: exact pathwise reweighting between potentials (Girsanov in
generator form), non-adaptive importance sampling built on it, short-time
transition-density asymptotics with computable error bounds, and two
independent oracles (a Fokker-Planck solver and a large-deviation action
minimizer) for cross-checking the sampled answers.
"""

from .errors import (
    ConfigurationError,
    ConstructionError,
    EvaluationError,
    SimulationError,
    SolverError,
    WellEscapeError,
)
from .potentials import (
    CosineWellPotential,
    Interval,
    LinearPotential,
    NoiseScale,
    PotentialField,
    QuadraticPotential,
    ZeroPotential,
    flatten_on_region,
    generator_apply_to_self,
    invert_on_region,
)
from .sde import BLOCK_SAMPLES, RngPolicy
from .density import (
    DensityEstimate,
    bounds,
    corridor_violation_bound,
    gaussian_kernel,
)
from .estimators import (
    EscapeEvent,
    EstimatorSummary,
    run_importance,
    run_importance_meshes,
    run_plain,
    small_noise_sweep,
    theorem3_bound,
)
from .fokker_planck import (
    FpGrid,
    escape_probability,
    evolve,
    gaussian_bump,
    integrate_density,
)
from .action import (
    ActionResult,
    action,
    action_gradient,
    minimize_action_pinned,
    minimize_exit_action,
)
from .config import ExperimentConfig

__version__ = "0.1.0"
