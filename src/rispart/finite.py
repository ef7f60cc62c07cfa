"""Finite-size realization and evaluation of an asymptotic solution.

The asymptotic solution prescribes partition ratios and per-path powers;
sub-surface s serves Tx-RIS path s and RIS-Rx path s.  Here the ratios
are rounded onto the physical RIS columns, the paired-path gradients and
common phases are assigned, the powers are sent by eigenmode transmission
over the activated paths' steering vectors, and the exact log-det rate of
the resulting effective channel is computed and compared against the
asymptotic prediction.

The rate is evaluated in the path domain, without an N- or M-sized array.
The effective channel is ``H = B_rx K(psi) B_tx^H``: ``B_tx`` and ``B_rx``
hold the terminal steering vectors of the Tx-RIS and direct paths, and
the ``(L2+L3) x (L1+L3)`` core is ``K(psi) = sum_b exp(j psi_b) core[b]
+ core[B]``, one block b < B per plan block, ``c_r diag(beta) G_b
diag(alpha)`` top left with ``G_b[v, u]`` the Dirichlet-kernel gain of
plan block b alone at ``zeta = u(dep_v) - u(arr_u)`` (derived inside
``path_model``), and block B is ``diag(c_d gamma)`` bottom right.  With
``Q = W W^H``, ``W = B_tx[:, basis] diag(sqrt(p))`` of rank r (the
activated paths), Sylvester's identity turns the M_r x M_r log-det into
an r x r one: ``log2 det(I + T^H K^H R K T / sigma^2)`` with
``T = B_tx^H W`` and ``R = B_rx^H B_rx``, Grams that ``channel.steering_gram``
gives in closed form.  The dense model (Q, ``build_theta`` with
``oracle.dense_channels``, ``oracle.effective_channel`` and
``oracle.logdet_rate``) is the reference in :mod:`rispart.oracle`.

``refine_common_phases`` moves one phase ``x = exp(j psi_b)`` at a time over
one fixed grid.  A trial ``det(G0 + x E + conj(x) E^H)`` is a trigonometric
polynomial of degree d = rank E <= min(r, L1, L2), so 2d+1 of them fix all.
"""

from __future__ import annotations

import dataclasses
import functools
import logging
from dataclasses import dataclass, field

import numpy as np

from rispart.channel import (HOP_RIS_RX, HOP_TX_RIS, HOP_TX_RX,
                             ChannelRealization, path_loss, ris_cosines,
                             steering_gram)
from rispart.partition import (PartitionPlan, TilePlan, round_partition,
                               subsurface_gains)
from rispart.asymptotic import Solution
from rispart.solver import water_filling

logger = logging.getLogger("rispart")

REFINE_SWEEPS = 2
REFINE_GRID = np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False)


@dataclass
class PathModel:
    """The finite model of one realized plan in the path domain.

    ``core`` stacks the B+1 blocks of K ((L2+L3) x (L1+L3) each), so that
    ``K(psi) = [exp(j psi), 1] @ core``: plan block b's scaled gain block
    ``c_r diag(beta) G_b diag(alpha)`` fills the top-left L2 x L1 corner
    of ``core[b]``, the direct ``diag(c_d gamma)`` the bottom-right L3 x L3
    corner of ``core[B]``, and the rest is zero.  ``tx_weights`` is
    ``T = B_tx^H W`` ((L1+L3) x r), ``rx_gram`` ``R = B_rx^H B_rx``, and
    ``block_rank`` = min(r, L1, L2) bounds the rank of ``core[b] T``."""

    core: np.ndarray
    tx_weights: np.ndarray
    rx_gram: np.ndarray
    noise_power: float
    block_rank: int

    def rates(self, psi: np.ndarray) -> np.ndarray:
        """Exact rates in bit/s/Hz for a batch of common phases (n x B)."""
        psi = np.atleast_2d(psi)
        weights = np.exp(1j * np.hstack([psi, np.zeros((len(psi), 1))]))
        kt = np.tensordot(weights, self.core, axes=(1, 0)) @ self.tx_weights
        gram = kt.conj().transpose(0, 2, 1) @ self.rx_gram @ kt
        gram = np.eye(kt.shape[2]) + gram / self.noise_power
        gram = (gram + gram.conj().transpose(0, 2, 1)) / 2.0
        return np.linalg.slogdet(gram)[1] / np.log(2.0)


@dataclass
class FiniteEvaluation:
    """Realized plan, eigenmodes, and the achieved exact rate.

    ``model`` holds one core block per plan block.  ``basis_paths`` index
    the columns of ``B_tx = [A_tx1 | A_tx3]`` (direct paths offset by L1)
    that carry the eigenmodes, with ``powers``: Tx-RIS paths ``0 .. S-1``,
    one per surviving sub-surface, then direct paths ``0 .. j-1``, the
    activated prefix.
    """

    plan: PartitionPlan | TilePlan
    basis_paths: list[int]
    powers: np.ndarray
    rate: float
    rate_asymptotic: float
    realization: ChannelRealization = field(repr=False)
    model: PathModel = field(repr=False)
    rewaterfilled: bool = False

    @property
    def gap(self) -> float:
        """Relative gap of the exact rate to the asymptotic prediction."""
        ref = self.rate_asymptotic
        return abs(self.rate - ref) / ref if ref > 0 else 0.0


def path_model(realization: ChannelRealization,
               plan: PartitionPlan | TilePlan, basis_paths: list[int],
               powers: np.ndarray) -> PathModel:
    """Path-domain model of a realized plan on the RIS of
    ``realization.config``: one core block per plan block, its gains at
    the direction-cosine differences zeta (L2 x L1) of every RIS-Rx
    departure v and Tx-RIS arrival u.  ``basis_paths`` and ``powers`` are
    those of :class:`FiniteEvaluation`.
    """
    config = realization.config
    tx, rx, direct = (realization.path_sets[kind]
                      for kind in (HOP_TX_RIS, HOP_RIS_RX, HOP_TX_RX))
    zeta = map(np.subtract.outer, ris_cosines(rx.departure),
               ris_cosines(tx.arrival))
    gains = subsurface_gains(plan, config.ris_geometry, *zeta)
    m_t, m_r = config.m_t, config.m_r
    pl_r, pl_d = path_loss(config)
    c_r = np.sqrt(pl_r) * config.n * np.sqrt(m_t * m_r / (tx.count * rx.count))
    c_d = np.sqrt(pl_d * m_t * m_r / direct.count)
    scale = config.steering_scale
    phi_tx = scale * np.sin(np.concatenate([tx.departure, direct.departure]))
    phi_rx = scale * np.sin(np.concatenate([rx.arrival, direct.arrival]))
    core = np.zeros((len(gains) + 1, phi_rx.size, phi_tx.size), complex)
    core[:-1, :rx.count, :tx.count] = (c_r * rx.gains[:, None] * gains
                                       * tx.gains)
    core[-1, rx.count:, tx.count:] = np.diag(c_d * direct.gains)
    return PathModel(
        core=core, rx_gram=steering_gram(phi_rx, phi_rx, m_r),
        tx_weights=(steering_gram(phi_tx, phi_tx[basis_paths], m_t)
                    * np.sqrt(powers)), noise_power=config.noise_watts,
        block_rank=min(len(powers), tx.count, rx.count))


def adapt_solution(solution: Solution, realization: ChannelRealization,
                   rng: np.random.Generator | None = None,
                   psi: np.ndarray | None = None) -> FiniteEvaluation:
    """Map an asymptotic solution onto the finite RIS of
    ``realization.config`` and evaluate it.

    The activated paths must be the strongest, else ``ValueError``: the
    ratios non-increasing and the positive direct powers a prefix.  Rounds
    the positive ratios to integer column counts (dropping the weakest, if
    any), gives surviving sub-surface s the gradient from Tx-RIS path s to
    RIS-Rx path s, takes the common phases ``psi`` or else draws them
    uniformly from ``rng`` (ValueError with neither), sends the powers on
    the eigenmodes of the activated paths, and evaluates the exact log-det
    rate in the path domain.  If rounding drops a sub-surface, the power
    is re-allocated by water-filling over the surviving channels.
    """
    problem = solution.problem
    alloc = solution.allocation
    active, direct = (int(np.count_nonzero(x > 0))
                      for x in (alloc.t, alloc.p_d))
    if np.any(np.diff(alloc.t) > 0) or not np.all(alloc.p_d[:direct] > 0):
        raise ValueError("activated sub-surfaces and direct paths must be "
                         "a prefix, with non-increasing ratios")
    if not active:
        raise ValueError("solution has no active sub-surface")
    if rng is None and psi is None:
        raise ValueError("common phases psi or a generator rng required")

    if psi is None:
        psi = rng.uniform(0.0, 2.0 * np.pi, size=active)
    psi = np.asarray(psi, dtype=float)
    if psi.size != active:
        raise ValueError("one common phase per active sub-surface required")
    n_y = realization.config.n_y
    counts = round_partition(alloc.t[:active], n_y)
    kept = int(np.count_nonzero(counts))  # rounding drops the weakest
    rewaterfilled = kept < active
    tx, rx = (realization.path_sets[k] for k in (HOP_TX_RIS, HOP_RIS_RX))
    gradients = np.subtract(ris_cosines(rx.departure[:kept]),
                            ris_cosines(tx.arrival[:kept])).T
    plan = PartitionPlan(column_counts=counts[:kept], gradients=gradients,
                         psi=psi[:kept])

    if rewaterfilled:
        logger.debug("column rounding dropped %d of %d sub-surfaces; "
                     "re-water-filling the power budget",
                     active - kept, active)
        # redistribute the full budget over the surviving channels
        powers, _ = water_filling(np.concatenate([
            problem.m_r[:kept] * (plan.column_counts / n_y) ** 2,
            problem.m_d[:direct]]), problem.power)
    else:
        powers = np.concatenate([alloc.p_r[:kept], alloc.p_d[:direct]])

    basis_paths = [*range(kept), *range(tx.count, tx.count + direct)]
    model = path_model(realization, plan, basis_paths, powers)
    return FiniteEvaluation(plan=plan, basis_paths=basis_paths,
                            powers=powers,
                            rate=float(model.rates(plan.psi)[0]),
                            rate_asymptotic=solution.rate,
                            realization=realization, model=model,
                            rewaterfilled=rewaterfilled)


@functools.lru_cache(maxsize=32)
def _interpolation(n: int, trials: bytes) -> tuple[np.ndarray, np.ndarray]:
    """Pencil weights at n equispaced nodes, Dirichlet kernel to ``trials``."""
    x = np.frombuffer(trials, complex)
    kernel = np.eye(x.size)
    if n < x.size:
        nodes = 2.0 * np.pi * np.arange(n) / n
        waves = np.multiply.outer(np.subtract.outer(np.angle(x), nodes),
                                  np.arange(1, n // 2 + 1))
        x, kernel = np.exp(1j * nodes), (1 + 2 * np.cos(waves).sum(-1)) / n
    return np.stack([np.ones_like(x), x, x.conj()], axis=1), kernel


def _phase_pencil(model: PathModel, x: np.ndarray):
    """Trial rates ``rates(psi, s)``: ``psi`` with entry s set to
    ``angle(x)``, for each unit-modulus x.  With ``A0`` the rows of ``K T``
    at ``psi`` without plan block s and ``B = core[s] T`` those of s, a
    trial Gram is ``G0 + x E + conj(x) E^H``: ``G0 = I + (A0^H R A0 + B^H R
    B)/sigma^2``, ``E = A0^H R B/sigma^2`` of rank d <= ``block_rank``.  The
    det, degree d in x, is taken at 2d+1 nodes (the x, kernel I, if no more)
    and interpolated from the largest; one rounded to <= 0 reads as tiny."""
    # rows of K T and of R K T / sigma^2: each plan block's, then direct
    kt = model.core @ model.tx_weights
    rkt = model.rx_gram @ kt / model.noise_power
    base = np.eye(kt.shape[2]) + kt.conj().transpose(0, 2, 1) @ rkt
    flat = np.stack([kt, rkt], axis=1).reshape(len(kt), -1)
    coeffs, kernel = _interpolation(2 * model.block_rank + 1, x.tobytes())

    def rates(psi: np.ndarray, s: int) -> np.ndarray:
        others = np.append(np.exp(1j * psi), 1.0)
        others[s] = 0.0
        a0, ra0 = (others @ flat).reshape((2,) + kt.shape[1:])
        g0 = base[s] + a0.conj().T @ ra0
        e = a0.conj().T @ rkt[s]
        pencil = np.concatenate([(g0 + g0.conj().T) / 2.0, e, e.conj().T])
        grams = (coeffs @ pencil.reshape(3, -1)).reshape(-1, *g0.shape)
        logdets = np.linalg.slogdet(grams)[1]
        ratios = 1.0 + kernel @ np.expm1(logdets - (top := logdets.max()))
        return (top + np.log(np.fmax(ratios, 1e-300))) / np.log(2.0)

    return rates


def refine_common_phases(evaluation: FiniteEvaluation) -> FiniteEvaluation:
    """Cyclic coordinate ascent on the common phases.

    Each plan block in turn takes the first maximum of its ``REFINE_GRID``
    trial rates, scored from 2d+1 determinants (the grid's own if 2d+1 >=
    its size) by :func:`_phase_pencil`, if strictly above the current rate
    and the lowest trial (all tied: it stays), for ``REFINE_SWEEPS`` passes.
    The input is returned unless ``model.rates`` there is above its rate."""
    psi = evaluation.plan.psi.copy()
    best_rate = evaluation.rate
    trial_rates = _phase_pencil(evaluation.model, np.exp(1j * REFINE_GRID))
    for _ in range(REFINE_SWEEPS):
        for s in range(psi.size):
            rates = trial_rates(psi, s)
            best = int(np.argmax(rates))
            if rates[best] > max(best_rate, rates.min()):
                best_rate = float(rates[best])
                psi[s] = REFINE_GRID[best]
    rate = float(evaluation.model.rates(psi)[0])
    if not rate > evaluation.rate:
        return evaluation
    plan = dataclasses.replace(evaluation.plan, psi=psi)
    return dataclasses.replace(evaluation, plan=plan, rate=rate)
