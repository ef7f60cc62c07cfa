"""Finite-size realization and evaluation of an asymptotic solution.

The asymptotic solution prescribes partition ratios, per-path powers, and
path pairs.  Here the ratios are rounded onto the physical RIS columns,
the paired-path gradients and common phases are assigned, the transmit
covariance is formed by eigenmode transmission over the activated path
steering vectors, and the exact log-det rate of the resulting effective
channel is computed and compared against the asymptotic prediction.

The rate is evaluated in the path domain, without the N-column channel
matrices.  The effective channel is ``H = B_rx K(psi) B_tx^H``: ``B_tx``
and ``B_rx`` hold the terminal steering vectors of the Tx-RIS and direct
paths, and the ``(L2+L3) x (L1+L3)`` core ``K`` is block diagonal.  Its
cascaded block is ``c_r diag(beta) (sum_s exp(j psi_s) G_s) diag(alpha)``
with ``G_s[v, u]`` the Dirichlet-kernel gain of sub-surface s alone at
``zeta = u(dep_v) - u(arr_u)``, and its direct block is
``c_d diag(gamma)``.  With ``Q = W W^H`` of rank r (the number of
activated paths), Sylvester's determinant identity turns the M_r x M_r
log-det into an r x r one:
``log2 det(I + T^H K^H R K T / sigma^2)`` with ``T = B_tx^H W`` and
``R = B_rx^H B_rx``.  The dense model (``build_theta``,
``channel.effective_channel`` and :func:`logdet_rate`) is the reference
in :mod:`rispart.oracle`.
"""

from __future__ import annotations

import dataclasses
import logging
from dataclasses import dataclass, field

import numpy as np

from rispart.channel import (HOP_RIS_RX, HOP_TX_RIS, HOP_TX_RX,
                             ArrayGeometry, ChannelRealization, RisGeometry,
                             ula_response)
from rispart.partition import PartitionPlan, PhaseGradient, subsurface_gains
from rispart.asymptotic import Solution
from rispart.solver import water_filling

logger = logging.getLogger("rispart")


@dataclass
class PathModel:
    """The finite model of one realized plan in the path domain.

    ``cascaded[s]`` is sub-surface s's scaled gain block
    ``c_r diag(beta) G_s diag(alpha)`` (L2 x L1), ``direct`` the diagonal
    ``c_d gamma`` (L3), ``tx_weights`` is ``T = B_tx^H W`` ((L1+L3) x r)
    and ``rx_gram`` is ``R = B_rx^H B_rx`` ((L2+L3) x (L2+L3)).
    """

    cascaded: np.ndarray
    direct: np.ndarray
    tx_weights: np.ndarray
    rx_gram: np.ndarray
    noise_power: float

    def rates(self, psi: np.ndarray) -> np.ndarray:
        """Exact rates in bit/s/Hz for a batch of common phases (n x S)."""
        psi = np.atleast_2d(np.asarray(psi, dtype=float))
        l1 = self.cascaded.shape[2]
        core = np.tensordot(np.exp(1j * psi), self.cascaded, axes=(1, 0))
        direct = self.direct[:, None] * self.tx_weights[l1:]
        kt = np.concatenate(
            [core @ self.tx_weights[:l1],
             np.broadcast_to(direct, (psi.shape[0],) + direct.shape)],
            axis=1)
        gram = kt.conj().transpose(0, 2, 1) @ self.rx_gram @ kt
        gram = (np.eye(self.tx_weights.shape[1])
                + gram / self.noise_power)
        _, logdet = np.linalg.slogdet(
            (gram + gram.conj().transpose(0, 2, 1)) / 2.0)
        return logdet / np.log(2.0)


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
    model: PathModel = field(repr=False)
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


def _steering(angles, m: int, ris: RisGeometry) -> np.ndarray:
    """ULA steering vectors (M x len(angles)) sharing the RIS spacing."""
    geom = ArrayGeometry(element_count=m, element_spacing=ris.element_spacing,
                         wavelength=ris.wavelength)
    return np.stack([ula_response(a, geom) for a in angles], axis=1)


def _cosines(angles: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """RIS direction cosines of (elevation, azimuth) rows."""
    elev, azim = angles[:, 0], angles[:, 1]
    return np.sin(elev) * np.cos(azim), np.sin(elev) * np.sin(azim)


def path_model(realization: ChannelRealization, ris: RisGeometry,
               plan: PartitionPlan, basis_paths: list[int],
               powers: np.ndarray) -> tuple[PathModel, np.ndarray]:
    """Path-domain model of a realized plan, and the covariance Q.

    ``basis_paths`` index the columns of ``B_tx = [A_tx1 | A_tx3]`` that
    carry the eigenmodes (Tx-RIS paths first, then direct paths offset by
    L1), one per entry of ``powers``.
    """
    if ris.n != realization.n:
        raise ValueError("RIS geometry does not match the realization")
    tx = realization.path_sets[HOP_TX_RIS]
    rx = realization.path_sets[HOP_RIS_RX]
    direct = realization.path_sets[HOP_TX_RX]
    arr_x, arr_y = _cosines(tx.arrival)
    dep_x, dep_y = _cosines(rx.departure)
    gains = subsurface_gains(plan, ris, dep_x[:, None] - arr_x[None, :],
                             dep_y[:, None] - arr_y[None, :])
    m_t, m_r = realization.m_t, realization.m_r
    c_r = (np.sqrt(realization.pl_r) * realization.n
           * np.sqrt(m_t * m_r / (tx.count * rx.count)))
    c_d = np.sqrt(realization.pl_d * m_t * m_r / direct.count)
    b_tx = _steering(np.concatenate([tx.departure, direct.departure]), m_t,
                     ris)
    b_rx = _steering(np.concatenate([rx.arrival, direct.arrival]), m_r, ris)
    basis = b_tx[:, basis_paths]
    model = PathModel(
        cascaded=c_r * rx.gains[:, None] * gains * tx.gains[None, :],
        direct=c_d * direct.gains,
        tx_weights=b_tx.conj().T @ (basis * np.sqrt(powers)),
        rx_gram=b_rx.conj().T @ b_rx,
        noise_power=realization.noise_power)
    return model, eigenmode_covariance(basis, powers)


def adapt_solution(solution: Solution, realization: ChannelRealization,
                   ris: RisGeometry,
                   rng: np.random.Generator | None = None,
                   psi: np.ndarray | None = None) -> FiniteEvaluation:
    """Map an asymptotic solution onto a finite RIS and evaluate it.

    Rounds the partition ratios to integer column counts, assigns the
    paired-path gradients, draws common phases uniformly (unless given),
    forms the eigenmode transmit covariance, and evaluates the exact
    log-det rate in the path domain.  If rounding drops a sub-surface, the
    transmit power is re-allocated by water-filling over the surviving
    channels.
    """
    problem = solution.problem
    alloc = solution.allocation
    active = [s for s in range(problem.s_max) if alloc.t[s] > 0]
    if not active:
        raise ValueError("solution has no active sub-surface")
    rng = rng or np.random.default_rng(0)

    tx = realization.path_sets[HOP_TX_RIS]
    rx = realization.path_sets[HOP_RIS_RX]
    pairs = [problem.pairs[s] for s in active]
    gradients = [PhaseGradient.from_path_pair(tuple(tx.arrival[u]),
                                              tuple(rx.departure[v]))
                 for u, v in pairs]
    if psi is None:
        psi = rng.uniform(0.0, 2.0 * np.pi, size=len(active))
    plan = PartitionPlan(t=alloc.t[active], gradients=gradients, psi=psi)
    realized, keep = plan.realize(ris.ny)
    survivors = [active[i] for i in keep]
    rewaterfilled = len(survivors) < len(active)

    t_real = realized.realized_ratios(ris.ny)
    i_active = [i for i in range(problem.l3) if alloc.p_d[i] > 0]
    if rewaterfilled:
        logger.debug("column rounding dropped %d of %d sub-surfaces; "
                     "re-water-filling the power budget",
                     len(active) - len(survivors), len(active))
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

    basis_paths = ([problem.pairs[s][0] for s in survivors]
                   + [tx.count + int(problem.d_perm[i]) for i in i_active])
    model, q = path_model(realization, ris, realized, basis_paths,
                          np.concatenate([p_r, p_d]))
    rate_finite = float(model.rates(realized.psi)[0])
    ref = solution.rate
    gap = abs(rate_finite - ref) / ref if ref > 0 else 0.0
    return FiniteEvaluation(plan=realized, q=q, rate=rate_finite,
                            rate_asymptotic=ref, gap=gap,
                            realization=realization, ris=ris, model=model,
                            direct_powers=np.asarray(p_d),
                            rewaterfilled=rewaterfilled)


def rate_with_psi(evaluation: FiniteEvaluation, psi: np.ndarray) -> float:
    """Log-det rate of ``evaluation`` with its common phases set to psi."""
    return float(evaluation.model.rates(psi)[0])


def refine_common_phases(evaluation: FiniteEvaluation, sweeps: int = 2,
                         grid_points: int = 64) -> FiniteEvaluation:
    """Cyclic coordinate ascent on the common phases.

    For each sub-surface in turn the phase is set to the best of
    ``grid_points`` equally spaced values, all evaluated in one batch; the
    first maximum is taken, and only if it beats the current rate, so the
    rate never decreases.  ``sweeps`` full passes.
    """
    if sweeps < 0 or grid_points < 1:
        raise ValueError("sweeps and grid_points must be positive")
    psi = evaluation.plan.psi.copy()
    best_rate = evaluation.rate
    grid = np.linspace(0.0, 2.0 * np.pi, grid_points, endpoint=False)
    for _ in range(sweeps):
        for s in range(psi.size):
            trials = np.tile(psi, (grid_points, 1))
            trials[:, s] = grid
            rates = evaluation.model.rates(trials)
            best = int(np.argmax(rates))
            if rates[best] > best_rate:
                best_rate = float(rates[best])
                psi = trials[best]
    plan = dataclasses.replace(evaluation.plan, psi=psi)
    ref = evaluation.rate_asymptotic
    return dataclasses.replace(
        evaluation, plan=plan, rate=best_rate,
        gap=abs(best_rate - ref) / ref if ref > 0 else 0.0)
