"""Asymptotic rate-maximization problem assembly.

In the large-array limit the effective MIMO link decouples into parallel
scalar channels: one per paired cascaded path (served by an aligned
sub-surface) and one per direct Tx-Rx path.  The whole optimization input
reduces to two sorted coefficient vectors and the power budget; the rate is
a sum of logs over these channels, defined on valid allocations only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from rispart.channel import HOP_KINDS, ChannelRealization, path_loss


@dataclass
class AsymptoticProblem:
    """Scalar-channel coefficients and the power budget.

    ``m_r[s]`` is the coefficient of sub-surface s, which serves Tx-RIS
    path s and RIS-Rx path s; ``m_d[i]`` that of direct path i.  Both are
    sorted non-increasing, as the path gains are.
    """

    m_r: np.ndarray
    m_d: np.ndarray
    power: float

    def __post_init__(self):
        self.m_r = np.atleast_1d(np.asarray(self.m_r, dtype=float))
        self.m_d = np.atleast_1d(np.asarray(self.m_d, dtype=float))
        if not np.isfinite(self.power) or self.power <= 0:
            raise ValueError("power budget must be finite and positive")
        if not (np.isfinite(self.m_r).all() and np.isfinite(self.m_d).all()):
            raise ValueError("channel coefficients must be finite")
        if np.any(self.m_r <= 0) or np.any(self.m_d <= 0):
            raise ValueError("channel coefficients must be positive")
        if np.any(np.diff(self.m_r) > 0) or np.any(np.diff(self.m_d) > 0):
            raise ValueError("coefficients must be sorted non-increasing")

    @property
    def s_max(self) -> int:
        return self.m_r.size

    @property
    def l3(self) -> int:
        return self.m_d.size


@dataclass
class Allocation:
    """Primal point: cascaded powers, direct powers, partition ratios."""

    p_r: np.ndarray
    p_d: np.ndarray
    t: np.ndarray

    def __post_init__(self):
        self.p_r = np.atleast_1d(np.asarray(self.p_r, dtype=float))
        self.p_d = np.atleast_1d(np.asarray(self.p_d, dtype=float))
        self.t = np.atleast_1d(np.asarray(self.t, dtype=float))
        if self.t.size != self.p_r.size:
            raise ValueError("t and p_r must have equal length")

    @property
    def total_power(self) -> float:
        return float(self.p_r.sum() + self.p_d.sum())


@dataclass
class Solution:
    """Solver output: allocation, duals, achieved rate and the activated
    paths, which are the strongest (the KKT ordering lemma): the first
    ``s_min_star`` sub-surfaces and the first ``direct`` direct paths."""

    problem: AsymptoticProblem
    allocation: Allocation
    v: float
    w: float
    rate: float
    s_min_star: int
    direct: int


def coefficients(realization: ChannelRealization) -> AsymptoticProblem:
    """Effective scalar-channel coefficients under the sorted pairing.

    Path sets hold their gains sorted by magnitude, so Tx-RIS path s pairs
    with RIS-Rx path s (the rate-maximizing pairing) for ``s < min(L1,
    L2)``.  The sizes, losses, noise and power budget come from
    ``realization.config``.  Cascaded: ``PL_r * M_t * M_r * N^2 *
    |alpha_s * beta_s|^2 / (L1 * L2 * sigma^2)``.  Direct: ``PL_d * M_t *
    M_r * |gamma_i|^2 / (L3 * sigma^2)``, in path order.
    """
    config = realization.config
    tx, rx, direct = (realization.path_sets[kind] for kind in HOP_KINDS)
    pl_r, pl_d = path_loss(config)
    sigma2, m_t, m_r_dim = config.noise_watts, config.m_t, config.m_r

    scale_r = (pl_r * m_t * m_r_dim * config.n ** 2
               / (tx.count * rx.count * sigma2))
    m_r = np.array([scale_r * abs(tx.gains[s] * rx.gains[s]) ** 2
                    for s in range(min(tx.count, rx.count))])

    scale_d = pl_d * m_t * m_r_dim / (direct.count * sigma2)
    m_d = scale_d * np.abs(direct.gains) ** 2

    return AsymptoticProblem(m_r=m_r, m_d=m_d, power=config.power_watts)


def validate_allocation(problem: AsymptoticProblem,
                        alloc: Allocation) -> None:
    """Constraint check: nonnegativity, exact budget, ratios summing to 1."""
    rtol = 1e-9  # of the budget for powers
    if not np.all(alloc.p_r >= -rtol * problem.power):
        raise ValueError("cascaded powers must be nonnegative")
    if not np.all(alloc.p_d >= -rtol * problem.power):
        raise ValueError("direct powers must be nonnegative")
    if not np.all(alloc.t >= -rtol):
        raise ValueError("partition ratios must be nonnegative")
    if not abs(alloc.total_power - problem.power) <= rtol * problem.power:
        raise ValueError("power budget must be met with equality")
    if not abs(alloc.t.sum() - 1.0) <= rtol:
        raise ValueError("partition ratios must sum to 1")
    if alloc.p_r.size != problem.s_max or alloc.p_d.size != problem.l3:
        raise ValueError("allocation length mismatch")


def rate(problem: AsymptoticProblem, alloc: Allocation) -> float:
    """Asymptotic achievable rate in bit/s/Hz of a valid allocation.

    ``sum_s log2(1 + m_s^r p_s^r t_s^2) + sum_i log2(1 + m_i^d p_i^d)``.
    """
    validate_allocation(problem, alloc)
    r = np.sum(np.log2(1 + problem.m_r * np.maximum(alloc.p_r, 0)
                       * np.maximum(alloc.t, 0) ** 2))
    r += np.sum(np.log2(1 + problem.m_d * np.maximum(alloc.p_d, 0)))
    return float(r)
