"""Reference implementations for desk-scale verification.

These oracles evaluate the rate objective exhaustively on barycentric
lattices (exact unit-sum grid points), enumerate every injective path
pairing, grid the common phases, solve the KKT system of each activated
block by Levenberg-Marquardt, evaluate the finite model on the dense
N-column channel matrices, and sample channel realizations one whole draw
at a time, so the analytical shortcuts in the solver and finite modules
and the batched path sampler can be validated independently.
"""

from __future__ import annotations

import dataclasses
from itertools import permutations, product

import numpy as np

from rispart.asymptotic import (Allocation, AsymptoticProblem, Solution,
                                rate)
from rispart.channel import (HOP_RIS_RX, HOP_TX_RIS, HOP_TX_RX,
                             ChannelRealization, SimulationConfig,
                             dense_channels, effective_channel, path_loss,
                             sample_paths)
from rispart.finite import FiniteEvaluation, logdet_rate, rate_with_psi
from rispart.partition import build_theta, largest_remainder
from rispart.solver import KktResidual, kkt_residual, solve, water_filling


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


def lm_solve(problem: AsymptoticProblem, s_active, i_active,
             initial: Allocation | None = None,
             max_iter: int = 500) -> tuple[Solution, KktResidual]:
    """Levenberg-Marquardt root finding on the KKT nonlinear system.

    Unknowns are the activated powers, ratios, and duals (v, w); residuals
    are the stationarity/consistency/budget equations of the activated
    block.  Damping grows tenfold on a rejected step and shrinks tenfold
    on acceptance; negative unknowns are projected back to a small
    positive floor.  Raises :class:`LmDivergenceError` after 50
    consecutive rejections or when the residual norm ends above 1e-8.
    """
    k, j = len(s_active), len(i_active)
    if k < 1:
        raise ValueError("at least one cascaded path must be activated")
    m_r = problem.m_r[list(s_active)]
    m_d = problem.m_d[list(i_active)] if j else np.empty(0)
    P = problem.power

    if initial is not None:
        p_r0 = np.maximum(initial.p_r[list(s_active)], 1e-6 * P)
        p_d0 = (np.maximum(initial.p_d[list(i_active)], 1e-6 * P)
                if j else np.empty(0))
        t0 = np.maximum(initial.t[list(s_active)], 1e-6)
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

    p_r = np.zeros(problem.s_max)
    p_r[list(s_active)] = x[:k]
    p_d = np.zeros(problem.l3)
    if j:
        p_d[list(i_active)] = x[k:k + j]
    t = np.zeros(problem.s_max)
    t[list(s_active)] = x[k + j:2 * k + j]
    alloc = Allocation(p_r=p_r, p_d=p_d, t=t)
    sol = Solution(problem=problem, allocation=alloc, v=float(x[-2]),
                   w=float(x[-1]), rate=rate(problem, alloc),
                   s_active=list(s_active), i_active=list(i_active))
    return sol, kkt_residual(problem, sol)


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
                        rate=rate(problem, alloc), s_active=[],
                        i_active=[i for i in range(problem.l3) if p_d[i] > 0])
    for k in range(1, problem.s_max + 1):
        for j in range(problem.l3 + 1):
            try:
                cand, _ = lm_solve(problem, list(range(k)), list(range(j)))
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
        problem = AsymptoticProblem(m_r=m[order], m_d=np.empty(0), power=power,
                                    pairs=[pairs[i] for i in order])
        table.append((pairs, solve(problem).rate))
    table.sort(key=lambda row: -row[1])
    return table


def exhaustive_psi(evaluation: FiniteEvaluation, grid_points: int,
                   ) -> tuple[np.ndarray, float]:
    """Global grid optimum of the common phases for small plans."""
    s = evaluation.plan.s
    if s > 2:
        raise ValueError("exhaustive phase search limited to S <= 2")
    if grid_points < 1:
        raise ValueError("grid_points must be positive")
    if grid_points == 1:
        return evaluation.plan.psi.copy(), evaluation.rate
    grid = np.linspace(0.0, 2.0 * np.pi, grid_points, endpoint=False)
    best_psi = evaluation.plan.psi.copy()
    best_rate = -np.inf
    for combo in product(grid, repeat=s):
        psi = np.array(combo)
        r = rate_with_psi(evaluation, psi)
        if r > best_rate:
            best_rate = r
            best_psi = psi
    return best_psi, float(best_rate)


def _dense_rate(evaluation: FiniteEvaluation, channels,
                psi: np.ndarray) -> float:
    plan = dataclasses.replace(evaluation.plan, psi=psi)
    h_eff = effective_channel(evaluation.realization, channels,
                              build_theta(plan, evaluation.ris))
    return logdet_rate(h_eff, evaluation.q,
                       evaluation.realization.noise_power)


def dense_rate(evaluation: FiniteEvaluation,
               psi: np.ndarray | None = None) -> float:
    """Reference log-det rate of ``evaluation`` (common phases ``psi``,
    default its own) on the dense channels: per-element reflection
    coefficients, the M_r x M_t effective channel, and the M_r x M_r
    determinant."""
    channels = dense_channels(evaluation.realization, evaluation.ris)
    return _dense_rate(evaluation, channels,
                       evaluation.plan.psi if psi is None else psi)


def dense_refine(evaluation: FiniteEvaluation, sweeps: int = 2,
                 grid_points: int = 64) -> tuple[np.ndarray, float]:
    """Reference cyclic coordinate ascent on the common phases.

    One dense rate per candidate, taken in grid order; a candidate
    replaces the current phase only if it beats the best rate so far.
    Returns the phases and their rate.
    """
    channels = dense_channels(evaluation.realization, evaluation.ris)
    psi = evaluation.plan.psi.copy()
    best_rate = _dense_rate(evaluation, channels, psi)
    grid = np.linspace(0.0, 2.0 * np.pi, grid_points, endpoint=False)
    for _ in range(sweeps):
        for s in range(psi.size):
            for cand in grid:
                trial = psi.copy()
                trial[s] = cand
                r = _dense_rate(evaluation, channels, trial)
                if r > best_rate:
                    best_rate = r
                    psi = trial
    return psi, best_rate


def min_cosine_gap(angles: np.ndarray, scale: float) -> float:
    """Smallest pairwise distance between steering arguments.

    Arguments are ``scale*sin(angle)``; the steering vector is periodic
    with period 2, so distances wrap accordingly.
    """
    phi = np.sort(scale * np.sin(np.asarray(angles, dtype=float)))
    if phi.size < 2:
        return np.inf
    gaps = np.abs(phi[:, None] - phi[None, :]) % 2.0
    gaps = np.minimum(gaps, 2.0 - gaps)
    return float(gaps[np.triu_indices(phi.size, 1)].min())


def serial_realize_channels(config: SimulationConfig,
                            rng: np.random.Generator,
                            max_tries: int = 1000) -> ChannelRealization:
    """Reference for ``channel.realize_channels``: draw whole path sets one
    by one with ``sample_paths`` and score each draw with
    :func:`min_cosine_gap`, keeping the first draw whose margin reaches 2,
    else the first best one."""
    scale = 2.0 * config.spacing / config.wavelength
    best = None
    best_gap = -np.inf
    for draws in range(1, max_tries + 1):
        p1 = sample_paths(rng, config.l1, HOP_TX_RIS, config)
        p2 = sample_paths(rng, config.l2, HOP_RIS_RX, config)
        p3 = sample_paths(rng, config.l3, HOP_TX_RX, config)
        tx_gap = min_cosine_gap(
            np.concatenate([p1.departure, p3.departure]), scale)
        rx_gap = min_cosine_gap(
            np.concatenate([p2.arrival, p3.arrival]), scale)
        margin = min(tx_gap * config.m_t, rx_gap * config.m_r)
        if margin > best_gap:
            best_gap = margin
            best = (p1, p2, p3)
        if margin >= 2.0:
            break
    pl_r, pl_d = path_loss(config)
    return ChannelRealization(
        path_sets=dict(zip((HOP_TX_RIS, HOP_RIS_RX, HOP_TX_RX), best)),
        pl_r=pl_r, pl_d=pl_d, noise_power=config.noise_watts,
        m_t=config.m_t, m_r=config.m_r, n=config.n,
        draws=draws, margin=float(best_gap))
