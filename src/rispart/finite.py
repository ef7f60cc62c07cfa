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
``R = B_rx^H B_rx``.  The dense model (``build_theta`` with
``oracle.dense_channels``, ``oracle.effective_channel`` and
``oracle.logdet_rate``) is the reference in :mod:`rispart.oracle`.
"""

from __future__ import annotations

import dataclasses
import logging
from dataclasses import dataclass, field

import numpy as np

from rispart.channel import (HOP_RIS_RX, HOP_TX_RIS, HOP_TX_RX,
                             ChannelRealization, RisGeometry, ris_cosines,
                             steering)
from rispart.partition import (PartitionPlan, PhaseGradient, round_partition,
                               subsurface_gains)
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
    realization: ChannelRealization = field(repr=False)
    ris: RisGeometry = field(repr=False)
    model: PathModel = field(repr=False)
    direct_powers: np.ndarray = field(default_factory=lambda: np.empty(0))
    rewaterfilled: bool = False

    @property
    def gap(self) -> float:
        """Relative gap of the exact rate to the asymptotic prediction."""
        ref = self.rate_asymptotic
        return abs(self.rate - ref) / ref if ref > 0 else 0.0


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


def path_model(realization: ChannelRealization, ris: RisGeometry,
               plan: PartitionPlan, zeta: tuple[np.ndarray, np.ndarray],
               basis_paths: list[int],
               powers: np.ndarray) -> tuple[PathModel, np.ndarray]:
    """Path-domain model of a realized plan, and the covariance Q.

    ``zeta`` holds the x and y direction-cosine differences (L2 x L1) of
    every RIS-Rx departure v and Tx-RIS arrival u.  ``basis_paths`` index
    the columns of ``B_tx = [A_tx1 | A_tx3]`` that carry the eigenmodes
    (Tx-RIS paths first, then direct paths offset by L1), one per entry of
    ``powers``.
    """
    if ris.n != realization.n:
        raise ValueError("RIS geometry does not match the realization")
    tx = realization.path_sets[HOP_TX_RIS]
    rx = realization.path_sets[HOP_RIS_RX]
    direct = realization.path_sets[HOP_TX_RX]
    gains = subsurface_gains(plan, ris, *zeta)
    m_t, m_r = realization.m_t, realization.m_r
    c_r = (np.sqrt(realization.pl_r) * realization.n
           * np.sqrt(m_t * m_r / (tx.count * rx.count)))
    c_d = np.sqrt(realization.pl_d * m_t * m_r / direct.count)
    # the terminal ULAs share the RIS element spacing
    scale = 2.0 * ris.element_spacing / ris.wavelength
    b_tx = steering(scale * np.sin(np.concatenate([tx.departure,
                                                   direct.departure])), m_t)
    b_rx = steering(scale * np.sin(np.concatenate([rx.arrival,
                                                   direct.arrival])), m_r)
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
    arr_x, arr_y = ris_cosines(tx.arrival)
    dep_x, dep_y = ris_cosines(rx.departure)
    zeta = (dep_x[:, None] - arr_x, dep_y[:, None] - arr_y)
    if psi is None:
        psi = rng.uniform(0.0, 2.0 * np.pi, size=len(active))
    psi = np.asarray(psi, dtype=float)
    if psi.size != len(active):
        raise ValueError("one common phase per active sub-surface required")
    counts = round_partition(alloc.t[active], ris.ny)
    keep = np.flatnonzero(counts)
    survivors = [active[i] for i in keep]
    rewaterfilled = len(survivors) < len(active)
    plan = PartitionPlan(
        column_counts=counts[keep],
        gradients=[PhaseGradient(zeta[0][v, u], zeta[1][v, u])
                   for u, v in (problem.pairs[s] for s in survivors)],
        psi=psi[keep])

    i_active = [i for i in range(problem.l3) if alloc.p_d[i] > 0]
    if rewaterfilled:
        logger.debug("column rounding dropped %d of %d sub-surfaces; "
                     "re-water-filling the power budget",
                     len(active) - len(survivors), len(active))
        # redistribute the full budget over the surviving channels
        p, _ = water_filling(np.concatenate([
            problem.m_r[survivors] * (plan.column_counts / ris.ny) ** 2,
            problem.m_d[i_active]]), problem.power)
        p_r = p[:len(survivors)]
        p_d = p[len(survivors):]
    else:
        p_r = alloc.p_r[survivors]
        p_d = alloc.p_d[i_active]

    basis_paths = ([problem.pairs[s][0] for s in survivors]
                   + [tx.count + int(problem.d_perm[i]) for i in i_active])
    model, q = path_model(realization, ris, plan, zeta, basis_paths,
                          np.concatenate([p_r, p_d]))
    return FiniteEvaluation(plan=plan, q=q,
                            rate=float(model.rates(plan.psi)[0]),
                            rate_asymptotic=solution.rate,
                            realization=realization, ris=ris, model=model,
                            direct_powers=p_d,
                            rewaterfilled=rewaterfilled)


def refine_common_phases(evaluation: FiniteEvaluation, sweeps: int = 2,
                         grid_points: int = 64) -> FiniteEvaluation:
    """Cyclic coordinate ascent on the common phases.

    For each sub-surface in turn the phase is set to the best of
    ``grid_points`` equally spaced values, all evaluated in one batch; the
    first maximum is taken, and only if it beats the current rate, so the
    rate never decreases.  ``sweeps`` full passes.
    """
    if sweeps < 0 or grid_points < 1:
        raise ValueError("sweeps must be >= 0 and grid_points >= 1")
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
    return dataclasses.replace(evaluation, plan=plan, rate=best_rate)
