"""Asymptotic rate-maximization problem assembly.

In the large-array limit the effective MIMO link decouples into parallel
scalar channels: one per paired cascaded path (served by an aligned
sub-surface) and one per direct Tx-Rx path.  The whole optimization input
reduces to two sorted coefficient vectors and the power budget; the rate is
a sum of logs over these channels.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from rispart.channel import ChannelRealization, path_loss


@dataclass
class AsymptoticProblem:
    """Scalar-channel coefficients and the power budget.

    ``m_r`` are per-paired-cascaded-path coefficients, ``m_d`` per direct
    path, both sorted non-increasing.  ``pairs`` records which (u, v) path
    pair produced each ``m_r`` entry and ``d_perm`` the sort permutation of
    the direct paths, so a solution can be mapped back to physical paths.
    """

    m_r: np.ndarray
    m_d: np.ndarray
    power: float
    pairs: list[tuple[int, int]] = field(default_factory=list)
    d_perm: np.ndarray | None = None

    def __post_init__(self):
        self.m_r = np.atleast_1d(np.asarray(self.m_r, dtype=float))
        self.m_d = np.atleast_1d(np.asarray(self.m_d, dtype=float)) \
            if np.size(self.m_d) else np.empty(0)
        if not np.isfinite(self.power) or self.power <= 0:
            raise ValueError("power budget must be finite and positive")
        if not (np.isfinite(self.m_r).all() and np.isfinite(self.m_d).all()):
            raise ValueError("channel coefficients must be finite")
        if np.any(self.m_r <= 0) or np.any(self.m_d <= 0):
            raise ValueError("channel coefficients must be positive")
        if np.any(np.diff(self.m_r) > 0) or np.any(np.diff(self.m_d) > 0):
            raise ValueError("coefficients must be sorted non-increasing")
        if self.pairs and len(self.pairs) != self.m_r.size:
            raise ValueError("one recorded pair per cascaded coefficient")

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
        self.p_d = (np.atleast_1d(np.asarray(self.p_d, dtype=float))
                    if np.size(self.p_d) else np.empty(0))
        self.t = np.atleast_1d(np.asarray(self.t, dtype=float))
        if self.t.size != self.p_r.size:
            raise ValueError("t and p_r must have equal length")

    @property
    def total_power(self) -> float:
        return float(self.p_r.sum() + self.p_d.sum())


@dataclass
class Solution:
    """Solver output: allocation, duals, activated sets, achieved rate."""

    problem: AsymptoticProblem
    allocation: Allocation
    v: float
    w: float
    rate: float
    s_active: list[int] = field(default_factory=list)
    i_active: list[int] = field(default_factory=list)

    @property
    def s_min_star(self) -> int:
        return len(self.s_active)


def _sorted_desc(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    perm = np.argsort(-values, kind="stable")
    return values[perm], perm


def coefficients(realization: ChannelRealization) -> AsymptoticProblem:
    """Effective scalar-channel coefficients under the sorted pairing.

    The cascaded paths are paired by :func:`optimal_pairing`, and the
    sizes, losses, noise and power budget come from ``realization.config``.
    Cascaded: ``PL_r * M_t * M_r * N^2 * |alpha_u * beta_v|^2 /
    (L1 * L2 * sigma^2)`` per paired (u, v).  Direct: ``PL_d * M_t * M_r *
    |gamma_i|^2 / (L3 * sigma^2)``.  Both vectors are returned sorted
    non-increasing with the permutations recorded.
    """
    config = realization.config
    tx, rx, direct = (realization.path_sets[kind]
                      for kind in ("tx_ris", "ris_rx", "tx_rx"))
    pairs = optimal_pairing(tx.count, rx.count)
    pl_r, pl_d = path_loss(config)
    sigma2, m_t, m_r_dim = config.noise_watts, config.m_t, config.m_r

    scale_r = (pl_r * m_t * m_r_dim * config.n ** 2
               / (tx.count * rx.count * sigma2))
    m_r = np.array([scale_r * abs(tx.gains[u] * rx.gains[v]) ** 2
                    for u, v in pairs])
    m_r, perm_r = _sorted_desc(m_r)
    pairs = [pairs[i] for i in perm_r]

    scale_d = pl_d * m_t * m_r_dim / (direct.count * sigma2)
    m_d, d_perm = _sorted_desc(scale_d * np.abs(direct.gains) ** 2)

    return AsymptoticProblem(m_r=m_r, m_d=m_d, power=config.power_watts,
                             pairs=pairs, d_perm=d_perm)


def validate_allocation(problem: AsymptoticProblem, alloc: Allocation,
                        rtol: float = 1e-9) -> None:
    """Constraint check: nonnegativity, exact budget, ratios summing to 1."""
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


def rate(problem: AsymptoticProblem, alloc: Allocation,
         validate: bool = True) -> float:
    """Asymptotic achievable rate in bit/s/Hz.

    ``sum_s log2(1 + m_s^r p_s^r t_s^2) + sum_i log2(1 + m_i^d p_i^d)``.
    """
    if validate:
        validate_allocation(problem, alloc)
    r = np.sum(np.log2(1 + problem.m_r * np.maximum(alloc.p_r, 0)
                       * np.maximum(alloc.t, 0) ** 2))
    if problem.l3:
        r += np.sum(np.log2(1 + problem.m_d * np.maximum(alloc.p_d, 0)))
    return float(r)


def optimal_pairing(l1: int, l2: int) -> list[tuple[int, int]]:
    """Sorted pairing: k-th strongest Tx-RIS path with k-th strongest
    RIS-Rx path.

    With gains pre-sorted by magnitude these are the (u, v) pairs
    ``(k, k)`` for ``k < min(L1, L2)``, which maximize the achievable rate
    over all injective pairings.
    """
    if l1 < 1 or l2 < 1:
        raise ValueError("path counts must be positive")
    return [(k, k) for k in range(min(l1, l2))]
