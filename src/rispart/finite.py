"""Finite-size realization and evaluation of an asymptotic solution.

The asymptotic solution prescribes partition ratios, per-path powers, and
path pairs.  Here the ratios are rounded onto the physical RIS columns,
per-element reflection coefficients are built, the transmit covariance is
formed by eigenmode transmission over the activated path steering vectors,
and the exact log-det rate of the resulting effective channel is computed
and compared against the asymptotic prediction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from rispart.channel import (ArrayGeometry, ChannelRealization, RisGeometry,
                             effective_channel, ula_response)
from rispart.partition import (PartitionPlan, PhaseGradient, build_theta,
                               round_partition)
from rispart.asymptotic import Solution
from rispart.solver import water_filling


@dataclass
class FiniteEvaluation:
    """Realized plan, transmit covariance, and the achieved exact rate."""

    plan: PartitionPlan
    q: np.ndarray
    rate: float
    rate_asymptotic: float
    gap: float
    realization: ChannelRealization = field(repr=False)
    ris: RisGeometry = field(repr=False)
    direct_powers: np.ndarray = field(default_factory=lambda: np.empty(0))
    rewaterfilled: bool = False


def eigenmode_covariance(steering_basis: np.ndarray,
                         powers) -> np.ndarray:
    """Transmit covariance ``A diag(p) A^H`` over a steering basis."""
    powers = np.atleast_1d(np.asarray(powers, dtype=float))
    a = np.asarray(steering_basis, dtype=complex)
    if a.ndim != 2 or a.shape[1] != powers.size:
        raise ValueError("one power per basis column required")
    if np.any(powers < 0):
        raise ValueError("powers must be nonnegative")
    return (a * powers) @ a.conj().T


def logdet_rate(h_eff: np.ndarray, q: np.ndarray, noise_power: float) -> float:
    """Exact MIMO rate ``log2 det(I + H Q H^H / sigma^2)`` in bit/s/Hz."""
    q = np.asarray(q, dtype=complex)
    if q.shape[0] != q.shape[1]:
        raise ValueError("Q must be square")
    tr = float(np.trace(q).real)
    evals = np.linalg.eigvalsh(q)
    if evals.min() < -1e-9 * max(tr, 1e-300):
        raise ValueError("Q is not positive semidefinite")
    m_r = h_eff.shape[0]
    gram = np.eye(m_r) + h_eff @ q @ h_eff.conj().T / noise_power
    sign, logdet = np.linalg.slogdet((gram + gram.conj().T) / 2.0)
    return float(logdet / np.log(2.0))


def _tx_basis(realization: ChannelRealization, pairs, direct_idx,
              m_t: int, ris: RisGeometry) -> np.ndarray:
    """Tx steering vectors of the activated cascaded and direct paths."""
    tx_geom = ArrayGeometry(element_count=m_t,
                            element_spacing=ris.element_spacing,
                            wavelength=ris.wavelength)
    cols = [ula_response(realization.path_sets["tx_ris"].departure[u],
                         tx_geom) for u, _ in pairs]
    direct = realization.path_sets.get("tx_rx")
    cols += [ula_response(direct.departure[i], tx_geom) for i in direct_idx]
    return np.stack(cols, axis=1) if cols else np.empty((m_t, 0))


def adapt_solution(solution: Solution, realization: ChannelRealization,
                   ris: RisGeometry,
                   rng: np.random.Generator | None = None,
                   psi: np.ndarray | None = None) -> FiniteEvaluation:
    """Map an asymptotic solution onto a finite RIS and evaluate it.

    Rounds the partition ratios to integer column counts, assigns the
    paired-path gradients, draws common phases uniformly (unless given),
    builds the reflection coefficients and the eigenmode transmit
    covariance, and evaluates the exact log-det rate.  If rounding drops a
    sub-surface, the transmit power is re-allocated by water-filling over
    the surviving channels.
    """
    problem = solution.problem
    alloc = solution.allocation
    active = [s for s in range(problem.s_max) if alloc.t[s] > 0]
    if not active:
        raise ValueError("solution has no active sub-surface")
    rng = rng or np.random.default_rng(0)

    tx = realization.path_sets["tx_ris"]
    rx = realization.path_sets["ris_rx"]
    pairs = [problem.pairs[s] for s in active]
    gradients = [PhaseGradient.from_path_pair(tuple(tx.arrival[u]),
                                              tuple(rx.departure[v]))
                 for u, v in pairs]
    if psi is None:
        psi = rng.uniform(0.0, 2.0 * np.pi, size=len(active))
    psi = np.asarray(psi, dtype=float)

    rounding = round_partition(alloc.t[active], ris.ny)
    keep = [i for i in range(len(active)) if i not in rounding.dropped]
    counts = rounding.counts[keep]
    realized = PartitionPlan(t=counts / ris.ny,
                             gradients=[gradients[i] for i in keep],
                             psi=psi[keep], column_counts=counts)
    survivors = [active[i] for i in keep]
    rewaterfilled = len(survivors) < len(active)

    t_real = realized.realized_ratios(ris.ny)
    i_active = [i for i in range(problem.l3) if alloc.p_d[i] > 0]
    if rewaterfilled:
        # redistribute the full budget over the surviving channels
        coeffs = np.concatenate([
            problem.m_r[survivors] * t_real ** 2,
            problem.m_d[i_active] if i_active else np.empty(0)])
        order = np.argsort(-coeffs, kind="stable")
        p_sorted, _ = water_filling(coeffs[order], problem.power)
        p = np.empty_like(p_sorted)
        p[order] = p_sorted
        p_r = p[:len(survivors)]
        p_d = p[len(survivors):]
    else:
        p_r = alloc.p_r[survivors]
        p_d = alloc.p_d[i_active] if i_active else np.empty(0)

    theta = build_theta(realized, ris)
    h_eff = effective_channel(realization, theta)
    pairs_kept = [problem.pairs[s] for s in survivors]
    direct_phys = ([int(problem.d_perm[i]) for i in i_active]
                   if i_active else [])
    basis = _tx_basis(realization, pairs_kept, direct_phys,
                      h_eff.shape[1], ris)
    q = eigenmode_covariance(basis, np.concatenate([p_r, p_d]))
    rate_finite = logdet_rate(h_eff, q, realization.noise_power)
    ref = solution.rate
    gap = abs(rate_finite - ref) / ref if ref > 0 else 0.0
    return FiniteEvaluation(plan=realized, q=q, rate=rate_finite,
                            rate_asymptotic=ref, gap=gap,
                            realization=realization, ris=ris,
                            direct_powers=np.asarray(p_d),
                            rewaterfilled=rewaterfilled)


def rate_with_psi(evaluation: FiniteEvaluation, psi: np.ndarray) -> float:
    """Log-det rate of ``evaluation`` with its common phases set to psi."""
    plan = PartitionPlan(t=evaluation.plan.t,
                         gradients=evaluation.plan.gradients,
                         psi=psi,
                         column_counts=evaluation.plan.column_counts)
    theta = build_theta(plan, evaluation.ris)
    h_eff = effective_channel(evaluation.realization, theta)
    return logdet_rate(h_eff, evaluation.q,
                       evaluation.realization.noise_power)


def refine_common_phases(evaluation: FiniteEvaluation, sweeps: int = 2,
                         grid_points: int = 64) -> FiniteEvaluation:
    """Cyclic coordinate ascent on the common phases.

    For each sub-surface in turn the phase is set to the best of
    ``grid_points`` equally spaced values (keeping the current value in
    the comparison, so the rate never decreases); ``sweeps`` full passes.
    """
    if sweeps < 0 or grid_points < 1:
        raise ValueError("sweeps and grid_points must be positive")
    psi = evaluation.plan.psi.copy()
    best_rate = evaluation.rate
    grid = np.linspace(0.0, 2.0 * np.pi, grid_points, endpoint=False)
    for _ in range(sweeps):
        for s in range(psi.size):
            for cand in grid:
                trial = psi.copy()
                trial[s] = cand
                r = rate_with_psi(evaluation, trial)
                if r > best_rate:
                    best_rate = r
                    psi = trial
    plan = PartitionPlan(t=evaluation.plan.t,
                         gradients=evaluation.plan.gradients, psi=psi,
                         column_counts=evaluation.plan.column_counts)
    return FiniteEvaluation(plan=plan, q=evaluation.q, rate=best_rate,
                            rate_asymptotic=evaluation.rate_asymptotic,
                            gap=(abs(best_rate - evaluation.rate_asymptotic)
                                 / evaluation.rate_asymptotic
                                 if evaluation.rate_asymptotic > 0 else 0.0),
                            realization=evaluation.realization,
                            ris=evaluation.ris,
                            direct_powers=evaluation.direct_powers,
                            rewaterfilled=evaluation.rewaterfilled)
