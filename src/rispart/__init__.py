"""RIS-partitioning based scalable beamforming design for large-scale MIMO.

The package is organized around the optimization pipeline:

- :mod:`rispart.channel` -- geometric mmWave channel synthesis (steering
  vectors, random path sampling, path losses, effective channel).
- :mod:`rispart.partition` -- structured sub-surface phase shifts and the
  normalized passive beamforming gain in direct-sum, closed-form, and
  asymptotic forms, plus the 2D tile generalization.
- :mod:`rispart.asymptotic` -- the asymptotic rate-maximization problem:
  effective path coefficients, rate function, optimal path pairing.
- :mod:`rispart.solver` -- water-filling, KKT pattern analysis, and the
  exact dual solve that stands in for the paper's 1D grid search.
- :mod:`rispart.finite` -- mapping the asymptotic solution back to a
  finite-size system and evaluating the exact log-det rate.
- :mod:`rispart.oracle` -- brute-force references and a Levenberg-Marquardt
  cross-check for desk-scale verification.
- :mod:`rispart.checks` -- property checks of the paper's claims over
  random draws, shared by the acceptance tests and ``rispart verify``.
- :mod:`rispart.harness` -- Monte-Carlo experiment orchestration and the
  pattern existence/optimality region tables.
"""

from rispart.channel import (
    ArrayGeometry,
    ChannelRealization,
    PathSet,
    RisGeometry,
    SimulationConfig,
    effective_channel,
    path_loss,
    realization_rng,
    realize_channels,
    ris_response,
    sample_paths,
    steering_vector,
    synth_channel,
    ula_response,
)
from rispart.partition import (
    PairingMatrix,
    PartitionPlan,
    PhaseGradient,
    TilePlan,
    build_theta,
    feasible_gradients,
    gain_asymptotic,
    gain_closed_form,
    gain_direct_sum,
    round_partition,
    tile_plan_gain,
)
from rispart.asymptotic import (
    Allocation,
    AsymptoticProblem,
    Solution,
    coefficients,
    optimal_pairing,
    rate,
)
from rispart.solver import (
    KktResidual,
    budget_residual,
    dual_bracket,
    kkt_residual,
    largest_root,
    solve,
    solve_p32,
    water_filling,
)
from rispart.finite import (
    FiniteEvaluation,
    adapt_solution,
    eigenmode_covariance,
    logdet_rate,
    refine_common_phases,
)

__all__ = [
    "ArrayGeometry",
    "ChannelRealization",
    "PathSet",
    "RisGeometry",
    "SimulationConfig",
    "effective_channel",
    "path_loss",
    "realization_rng",
    "realize_channels",
    "ris_response",
    "sample_paths",
    "steering_vector",
    "synth_channel",
    "ula_response",
    "PairingMatrix",
    "PartitionPlan",
    "PhaseGradient",
    "TilePlan",
    "build_theta",
    "feasible_gradients",
    "gain_asymptotic",
    "gain_closed_form",
    "gain_direct_sum",
    "round_partition",
    "tile_plan_gain",
    "Allocation",
    "AsymptoticProblem",
    "Solution",
    "coefficients",
    "optimal_pairing",
    "rate",
    "KktResidual",
    "budget_residual",
    "dual_bracket",
    "kkt_residual",
    "largest_root",
    "solve",
    "solve_p32",
    "water_filling",
    "FiniteEvaluation",
    "adapt_solution",
    "eigenmode_covariance",
    "logdet_rate",
    "refine_common_phases",
]
