"""Reference implementations for desk-scale verification.

These oracles evaluate the rate objective exhaustively on barycentric
lattices (exact unit-sum grid points), enumerate every injective path
pairing, grid the common phases, bisect the budget residual of each
activated prefix, solve the KKT system of each activated block by
Levenberg-Marquardt, evaluate the finite model on the dense
N-column channel matrices (RIS response, per-hop synthesis, effective
channel, transmit covariance, M_r x M_r log-det rate), and score the path
sampler's candidates one at a time over all their angle pairs, so the
analytical shortcuts in the solver and finite modules and the batched path
sampler can be validated independently.
"""

from __future__ import annotations

import dataclasses
from itertools import permutations

import numpy as np

from rispart.asymptotic import (Allocation, AsymptoticProblem, Solution,
                                rate)
from rispart.channel import (HOP_RIS_RX, HOP_TX_RIS, HOP_TX_RX,
                             ChannelRealization, PathSet, RisGeometry,
                             SimulationConfig, path_loss, ris_cosines,
                             steering)
from rispart.finite import REFINE_GRID, REFINE_SWEEPS, FiniteEvaluation
from rispart.partition import build_theta, largest_remainder
from rispart.solver import (KktResidual, budget_residual, kkt_residual,
                            solve, water_filling)


class LmDivergenceError(RuntimeError):
    """Raised when the Levenberg-Marquardt iteration stops making progress."""


# lattice points per simplex dimension for the ratios and the powers
RESOLUTION = 16


def simplex_lattice(dim: int, resolution: int) -> np.ndarray:
    """All barycentric lattice points: compositions of ``resolution`` into
    ``dim`` nonnegative parts, scaled to sum exactly to 1."""
    if dim < 1 or resolution < 1:
        raise ValueError("dim and resolution must be positive")

    points = []

    def rec(prefix, remaining, slots):
        if slots == 1:
            points.append(prefix + [remaining])
            return
        for c in range(remaining + 1):
            rec(prefix + [c], remaining - c, slots - 1)

    rec([], resolution, dim)
    return np.array(points, dtype=float) / resolution


def snap_to_lattice(values: np.ndarray, resolution: int) -> np.ndarray:
    """Nearest unit-sum lattice point (largest-remainder rounding)."""
    return largest_remainder(np.asarray(values, dtype=float),
                             resolution) / resolution


def brute_force_p3(problem: AsymptoticProblem,
                   ) -> tuple[float, Allocation]:
    """Exhaustive joint maximization over the ratio and power simplices."""
    s, l3 = problem.s_max, problem.l3
    if s > 3 or l3 > 2:
        raise ValueError("oracle limited to S <= 3 and L3 <= 2")
    t_lat = simplex_lattice(s, RESOLUTION)                 # (nt, s)
    p_lat = simplex_lattice(s + l3, RESOLUTION) * problem.power
    p_r = p_lat[:, :s]                                     # (np, s)
    p_d = p_lat[:, s:]
    # rate on the (nt, np) product grid, vectorized per channel
    total = np.zeros((t_lat.shape[0], p_lat.shape[0]))
    for i in range(s):
        total += np.log2(1.0 + problem.m_r[i]
                         * p_r[:, i][None, :] * t_lat[:, i][:, None] ** 2)
    for i in range(l3):
        total += np.log2(1.0 + problem.m_d[i] * p_d[:, i])[None, :]
    it, ip = np.unravel_index(np.argmax(total), total.shape)
    best = Allocation(p_r=p_r[ip], p_d=p_d[ip], t=t_lat[it])
    return float(total[it, ip]), best


def snap_allocation(problem: AsymptoticProblem,
                    alloc: Allocation) -> Allocation:
    """Project an allocation onto the oracle lattice (for resolution
    bounds: the oracle maximum is at least the rate of the snapped point).
    """
    t = snap_to_lattice(alloc.t, RESOLUTION)
    p = snap_to_lattice(
        np.concatenate([alloc.p_r, alloc.p_d]) / problem.power,
        RESOLUTION) * problem.power
    return Allocation(p_r=p[:problem.s_max], p_d=p[problem.s_max:], t=t)


def lm_residual(x, m_r, m_d, power):
    """KKT residuals at x = (cascaded p, direct p, ratios, v, w)."""
    k, j = m_r.size, m_d.size
    p_r = x[:k]
    p_d = x[k:k + j]
    t = x[k + j:2 * k + j]
    v, w = x[-2], x[-1]
    r = np.empty(3 * k + j + 2)
    r[:k] = (p_r - (1.0 / v - 1.0 / (m_r * t ** 2))) / power
    r[k:k + j] = (p_d - (1.0 / v - 1.0 / m_d)) / power
    # squared form of the plus-root ratio equation (avoids sqrt domain)
    r[k + j:2 * k + j] = t ** 2 - 2.0 * t / w + 1.0 / (m_r * p_r)
    r[2 * k + j:3 * k + j] = t - 2.0 * v * p_r / w
    r[-2] = (p_r.sum() + p_d.sum() - power) / power
    r[-1] = t.sum() - 1.0
    return r


def lm_solve(problem: AsymptoticProblem, k: int, j: int,
             initial: Allocation | None = None,
             max_iter: int = 500) -> tuple[Solution, KktResidual]:
    """Levenberg-Marquardt root finding on the KKT nonlinear system.

    The activated block is the prefix of the k strongest sub-surfaces and
    the j strongest direct paths.  Unknowns are its powers, ratios, and
    duals (v, w); residuals are its stationarity/consistency/budget
    equations.  Damping grows tenfold on a rejected step and shrinks tenfold
    on acceptance; negative unknowns are projected back to a small
    positive floor.  Raises :class:`LmDivergenceError` after 50
    consecutive rejections or when the residual norm ends above 1e-8.
    """
    if k < 1:
        raise ValueError("at least one cascaded path must be activated")
    m_r, m_d = problem.m_r[:k], problem.m_d[:j]
    P = problem.power

    if initial is not None:
        p_r0 = np.maximum(initial.p_r[:k], 1e-6 * P)
        p_d0 = np.maximum(initial.p_d[:j], 1e-6 * P)
        t0 = np.maximum(initial.t[:k], 1e-6)
    else:
        share = P / (k + j)
        p_r0 = np.full(k, share)
        p_d0 = np.full(j, share)
        t0 = np.full(k, 1.0 / k)
    v0 = 1.0 / (p_r0[0] + 1.0 / (m_r[0] * t0[0] ** 2))
    w0 = 2.0 * v0 * p_r0.sum()
    x = np.concatenate([p_r0, p_d0, t0, [v0, w0]])
    floor = 1e-12 * np.maximum(np.abs(x), 1e-30)

    lam = 1e-3
    r = lm_residual(x, m_r, m_d, P)
    norm = np.linalg.norm(r)
    stall = 0
    for _ in range(max_iter):
        if norm < 1e-10:
            break
        # forward-difference Jacobian
        jac = np.empty((r.size, x.size))
        for c in range(x.size):
            h = 1e-7 * max(abs(x[c]), 1e-7)
            xp = x.copy()
            xp[c] += h
            jac[:, c] = (lm_residual(xp, m_r, m_d, P) - r) / h
        jtj = jac.T @ jac
        g = jac.T @ r
        try:
            delta = np.linalg.solve(jtj + lam * np.diag(np.diag(jtj)), -g)
        except np.linalg.LinAlgError:
            delta = np.linalg.lstsq(jtj + lam * np.eye(x.size), -g,
                                    rcond=None)[0]
        x_new = np.maximum(x + delta, floor)
        r_new = lm_residual(x_new, m_r, m_d, P)
        norm_new = np.linalg.norm(r_new)
        if norm_new < norm:
            x, r, norm = x_new, r_new, norm_new
            lam = max(lam / 10.0, 1e-15)
            stall = 0
        else:
            lam *= 10.0
            stall += 1
            if stall >= 50:
                raise LmDivergenceError(
                    f"no progress for 50 iterations (residual {norm:.3e})")
    if norm >= 1e-8:
        raise LmDivergenceError(f"not converged (residual {norm:.3e})")

    p_r, t = np.zeros(problem.s_max), np.zeros(problem.s_max)
    p_d = np.zeros(problem.l3)
    p_r[:k], p_d[:j], t[:k] = x[:k], x[k:k + j], x[k + j:2 * k + j]
    alloc = Allocation(p_r=p_r, p_d=p_d, t=t)
    sol = Solution(problem=problem, allocation=alloc, v=float(x[-2]),
                   w=float(x[-1]), rate=rate(problem, alloc), s_min_star=k,
                   direct=j)
    return sol, kkt_residual(problem, sol)


def bisect_dual_roots(problem: AsymptoticProblem, k) -> np.ndarray:
    """Reference for ``solver._dual_roots``: the root of the budget residual
    of every prefix k, bisected down to adjacent floats (geometric
    midpoints while the bracket spans a factor of 2).

    The bracket is the wide one: from the water level of the direct paths
    alone (``k/(2P)`` without them), where the residual is positive, to
    ``max(2k/P, m_d[0])``, where every direct path is off and the cascaded
    powers sum to at most P/2.
    """
    k = np.asarray(k)
    hi = 2.0 * k / problem.power
    if problem.l3:
        lo = np.full(k.shape, water_filling(problem.m_d, problem.power)[1])
        hi = np.maximum(hi, problem.m_d[0])
    else:
        lo = k / (2.0 * problem.power)
    for _ in range(200):
        mid = np.where(hi > 2.0 * lo, np.sqrt(lo) * np.sqrt(hi),
                       0.5 * (lo + hi))
        inside = (mid > lo) & (mid < hi)
        if not inside.any():
            break
        positive = budget_residual(problem, mid, k) > 0.0
        lo = np.where(inside & positive, mid, lo)
        hi = np.where(inside & ~positive, mid, hi)
    nearer_lo = (np.abs(budget_residual(problem, lo, k))
                 <= np.abs(budget_residual(problem, hi, k)))
    return np.where(nearer_lo, lo, hi)


def lm_cold_start(problem: AsymptoticProblem) -> Solution:
    """Best of the direct-only water-filling point and the cold-started LM
    solution of every (k cascaded, j direct) prefix block.

    LM needs at least one cascaded path, so the point that activates none
    is water-filled instead.  Raises :class:`LmDivergenceError` when there
    is no direct path and every block diverges.
    """
    best = None
    if problem.l3:
        p_d, v = water_filling(problem.m_d, problem.power)
        t = np.zeros(problem.s_max)
        t[0] = 1.0
        alloc = Allocation(p_r=np.zeros(problem.s_max), p_d=p_d, t=t)
        best = Solution(problem=problem, allocation=alloc, v=v, w=0.0,
                        rate=rate(problem, alloc), s_min_star=0,
                        direct=int(np.count_nonzero(p_d)))
    for k in range(1, problem.s_max + 1):
        for j in range(problem.l3 + 1):
            try:
                cand, _ = lm_solve(problem, k, j)
            except LmDivergenceError:
                continue
            if best is None or cand.rate > best.rate + 1e-12:
                best = cand
    if best is None:
        raise LmDivergenceError("no activated block converged")
    return best


def enumerate_pairings(tx_gains, rx_gains, power: float, scale: float = 1.0,
                       ) -> list[tuple[tuple[tuple[int, int], ...], float]]:
    """Solve every injective path pairing to optimality.

    Cascaded coefficients are ``scale * |tx_gain * rx_gain|^2`` per pair,
    with no direct path.  Returns (pairing, rate) tuples sorted by rate,
    best first.
    """
    tx_gains = np.asarray(tx_gains)
    rx_gains = np.asarray(rx_gains)
    l1, l2 = tx_gains.size, rx_gains.size
    if l1 > l2:
        raise ValueError("pass the smaller path set first (swap the roles)")
    s = l1
    if s > 4:
        raise ValueError("pairing enumeration limited to min(L1, L2) <= 4")

    table = []
    for vs in permutations(range(l2), s):
        pairs = tuple(zip(range(s), vs))
        m = np.array([scale * abs(tx_gains[u] * rx_gains[v]) ** 2
                      for u, v in pairs])
        order = np.argsort(-m, kind="stable")
        problem = AsymptoticProblem(m_r=m[order], m_d=np.empty(0), power=power)
        table.append((pairs, solve(problem).rate))
    table.sort(key=lambda row: -row[1])
    return table


def ris_response(angles, geometry: RisGeometry) -> np.ndarray:
    """RIS array responses (N x K) of K (elevation, azimuth) rows.

    Each column is the Kronecker product of the x-axis factor (length
    ``Nx``) and the y-axis factor (length ``Ny``), in that order, so the
    y-index varies fastest (the layout of ``partition.build_theta``).
    """
    scale = 2.0 * geometry.element_spacing / geometry.wavelength
    cos_x, cos_y = ris_cosines(np.reshape(angles, (-1, 2)))
    a_x = steering(scale * cos_x, geometry.nx)
    a_y = steering(scale * cos_y, geometry.ny)
    return (a_x[:, None, :] * a_y[None, :, :]).reshape(geometry.n, -1)


def synth_channel(paths: PathSet, a_tx: np.ndarray,
                  a_rx: np.ndarray) -> np.ndarray:
    """Synthesize one hop's channel matrix from its path set and the
    endpoint responses of its paths (``dim x L`` each).

    Returns ``sqrt(dim_rx*dim_tx/L) * sum_l g_l * a_rx[:, l] * a_tx[:, l]^H``.
    """
    scale = np.sqrt(a_rx.shape[0] * a_tx.shape[0] / paths.count)
    return scale * (a_rx * paths.gains) @ a_tx.conj().T


def dense_channels(realization: ChannelRealization,
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Dense ``(H1, H2, H3)``: N x M_t, M_r x N and M_r x M_t, on the
    arrays of ``realization.config``."""
    config = realization.config
    ris, scale = config.ris_geometry, config.steering_scale
    m_t, m_r = config.m_t, config.m_r
    tx, rx, direct = (realization.path_sets[kind]
                      for kind in (HOP_TX_RIS, HOP_RIS_RX, HOP_TX_RX))
    return (synth_channel(tx, steering(scale * np.sin(tx.departure), m_t),
                          ris_response(tx.arrival, ris)),
            synth_channel(rx, ris_response(rx.departure, ris),
                          steering(scale * np.sin(rx.arrival), m_r)),
            synth_channel(direct,
                          steering(scale * np.sin(direct.departure), m_t),
                          steering(scale * np.sin(direct.arrival), m_r)))


def effective_channel(realization: ChannelRealization, channels,
                      theta: np.ndarray) -> np.ndarray:
    """Effective Tx-Rx channel ``sqrt(PL_r)*H2*diag(theta)*H1 + sqrt(PL_d)*H3``.

    ``channels`` is the dense ``(H1, H2, H3)`` triple of
    :func:`dense_channels`; the path losses come from ``realization.config``.
    """
    h1, h2, h3 = channels
    theta = np.asarray(theta, dtype=complex)
    if theta.shape != (h1.shape[0],):
        raise ValueError("theta length must equal the RIS element count")
    if np.any(np.abs(np.abs(theta) - 1.0) > 1e-9):
        raise ValueError("theta entries must have unit modulus")
    pl_r, pl_d = path_loss(realization.config)
    return np.sqrt(pl_r) * (h2 @ (theta[:, None] * h1)) + np.sqrt(pl_d) * h3


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
    _, logdet = np.linalg.slogdet((gram + gram.conj().T) / 2.0)
    return float(logdet / np.log(2.0))


def eigenmode_covariance(steering_basis: np.ndarray,
                         powers) -> np.ndarray:
    """Transmit covariance ``A diag(p) A^H`` over a steering basis."""
    powers = np.atleast_1d(np.asarray(powers, dtype=float))
    a = np.asarray(steering_basis, dtype=complex)
    if a.ndim != 2 or a.shape[1] != powers.size:
        raise ValueError("one power per basis column required")
    if not np.all(np.isfinite(powers) & (powers >= 0)):
        raise ValueError("powers must be finite and nonnegative")
    return (a * powers) @ a.conj().T


def transmit_covariance(evaluation: FiniteEvaluation) -> np.ndarray:
    """The M_t x M_t covariance Q of ``evaluation``'s basis paths."""
    re = evaluation.realization
    departures = np.concatenate([re.path_sets[HOP_TX_RIS].departure,
                                 re.path_sets[HOP_TX_RX].departure])
    phi = re.config.steering_scale * np.sin(departures[evaluation.basis_paths])
    return eigenmode_covariance(steering(phi, re.config.m_t),
                                evaluation.powers)


def _dense_rate(evaluation: FiniteEvaluation, channels, q: np.ndarray,
                psi: np.ndarray) -> float:
    plan = dataclasses.replace(evaluation.plan, psi=psi)
    config = evaluation.realization.config
    h_eff = effective_channel(evaluation.realization, channels,
                              build_theta(plan, config.ris_geometry))
    return logdet_rate(h_eff, q, config.noise_watts)


def dense_rate(evaluation: FiniteEvaluation,
               psi: np.ndarray | None = None) -> float:
    """Reference log-det rate of ``evaluation`` (common phases ``psi``,
    default its own) on the dense channels: per-element reflection
    coefficients, the M_r x M_t effective channel, the M_t x M_t
    covariance Q, and the M_r x M_r determinant."""
    channels = dense_channels(evaluation.realization)
    return _dense_rate(evaluation, channels, transmit_covariance(evaluation),
                       evaluation.plan.psi if psi is None else psi)


def dense_refine(evaluation: FiniteEvaluation) -> tuple[np.ndarray, float]:
    """Reference for ``finite.refine_common_phases``, on its schedule.

    One dense rate per candidate, taken in grid order; a candidate
    replaces the current phase only if it beats the best rate so far.
    Returns the phases and their rate.
    """
    channels = dense_channels(evaluation.realization)
    q = transmit_covariance(evaluation)
    psi = evaluation.plan.psi.copy()
    best_rate = _dense_rate(evaluation, channels, q, psi)
    for _ in range(REFINE_SWEEPS):
        for s in range(psi.size):
            for cand in REFINE_GRID:
                trial = psi.copy()
                trial[s] = cand
                r = _dense_rate(evaluation, channels, q, trial)
                if r > best_rate:
                    best_rate = r
                    psi = trial
    return psi, best_rate


def min_cosine_gap(angles: np.ndarray, scale: float) -> np.ndarray:
    """Smallest pairwise distance between steering arguments along the last
    axis of ``angles``, over all pairs (``inf`` without a pair).

    Arguments are ``scale*sin(angle)``; the steering vector is periodic
    with period 2, so distances wrap accordingly.
    """
    phi = scale * np.sin(np.asarray(angles, dtype=float))
    gaps = np.abs(phi[..., :, None] - phi[..., None, :]) % 2.0
    gaps = np.minimum(gaps, 2.0 - gaps)
    diagonal = np.arange(phi.shape[-1])
    gaps[..., diagonal, diagonal] = np.inf
    return gaps.min(axis=(-2, -1), initial=np.inf)


def serial_realize_channels(config: SimulationConfig,
                            rng: np.random.Generator,
                            max_tries: int = 1000) -> ChannelRealization:
    """Reference for ``channel.realize_channels``: per side, Tx then Rx,
    draw the candidates' terminal uniforms one row at a time (the same
    doubles as one ``(max_tries, L)`` call), score each row alone with
    :func:`min_cosine_gap`, and keep the first row whose margin reaches 2,
    else the first best one; then let ``ChannelRealization.from_draws``
    draw the RIS angles and gains of the two kept rows."""
    kept = []
    for m, paths in ((config.m_t, config.l1 + config.l3),
                     (config.m_r, config.l2 + config.l3)):
        rows = [rng.random(paths) for _ in range(max_tries)]
        margins = [min_cosine_gap((1.0 - row) * (2.0 * np.pi),
                                  config.steering_scale) * m for row in rows]
        met = [i for i, margin in enumerate(margins) if margin >= 2.0]
        best = met[0] if met else int(np.argmax(margins))
        kept.append((rows[best], margins[best],
                     best + 1 if met else max_tries))
    (tx, tx_margin, tx_draws), (rx, rx_margin, rx_draws) = kept
    return ChannelRealization.from_draws(
        config, tx, rx, rng, draws=max(tx_draws, rx_draws),
        margin=float(min(tx_margin, rx_margin)))
