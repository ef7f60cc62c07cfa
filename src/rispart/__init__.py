"""RIS-partitioning based scalable beamforming design for large-scale MIMO.

The package root exports the names of the README quick start: sample a
channel realization (:mod:`rispart.channel`), reduce it to scalar-channel
coefficients under the sorted path pairing (:mod:`rispart.asymptotic`),
solve the asymptotic power/partition problem exactly
(:mod:`rispart.solver`) and map the solution onto the finite RIS
(:mod:`rispart.finite`).  Everything else is imported from its module.
"""

from rispart.channel import SimulationConfig, realization_rng, realize_channels
from rispart.asymptotic import coefficients, optimal_pairing
from rispart.solver import solve
from rispart.finite import adapt_solution

__all__ = [
    "SimulationConfig",
    "realization_rng",
    "realize_channels",
    "coefficients",
    "optimal_pairing",
    "solve",
    "adapt_solution",
]
