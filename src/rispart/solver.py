"""Solution machinery for the asymptotic power/partition problem.

At a KKT point the problem separates into water-filling over the direct
paths, ``p_d,i = max(0, 1/v - 1/m_d,i)`` for the power dual v, and the
linear ratio/power relation ``t_s = p_s / P_r`` over the cascaded paths,
where ``P_r`` is their total power and each cascaded power is the largest
root of ``p^3 - p^2/v + P_r^2/m_s = 0``.  Only that root meets the
validity floor ``p >= 1/(2v)``, so for an activated prefix of k cascaded
paths the budget residual ``sum_s p_s(v) - P_r(v)`` is one strictly
decreasing function of v.  The paper scans v on a 1D grid; here the root
of that residual is bracketed and bisected to adjacent floats for every k
at once (bracketed root finding, Brent 1973), which gives an exact KKT
point per activated set.  The best of these and the single-active
water-filling point is the solution.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from rispart.asymptotic import Allocation, AsymptoticProblem, Solution, rate

# y^3 - y^2 + a = 0 has a root in [2/3, 1] iff 0 <= a <= 4/27
A_MAX = 4.0 / 27.0
_MAX_HALVINGS = 200


@dataclass
class KktResidual:
    """First-order optimality diagnostics at a primal/dual point.

    Stationarity residuals are zero at an exact KKT point; on activated
    entries they equal the gradient-minus-dual gap directly, on inactive
    entries only a positive gap (a violation of dual feasibility) is
    reported.  ``primal`` holds (relative budget violation, ratio-sum
    violation, worst negative power, worst negative ratio).
    """

    stationarity_p_r: np.ndarray
    stationarity_p_d: np.ndarray
    stationarity_t: np.ndarray
    primal: np.ndarray
    slackness: np.ndarray

    @property
    def max_abs(self) -> float:
        parts = [self.stationarity_p_r, self.stationarity_p_d,
                 self.stationarity_t, self.primal, self.slackness]
        return float(max((np.max(np.abs(p)) for p in parts if p.size),
                         default=0.0))


def water_filling(m, budget: float) -> tuple[np.ndarray, float]:
    """Classic water-filling: p_i = max(0, 1/v - 1/m_i) meeting the budget.

    ``m`` must be sorted non-increasing.  Returns the powers and the water
    level dual v.
    """
    m = np.atleast_1d(np.asarray(m, dtype=float))
    if m.size == 0:
        raise ValueError("water_filling needs at least one channel")
    if np.any(np.diff(m) > 0):
        raise ValueError("coefficients must be sorted non-increasing")
    if budget < 0:
        raise ValueError("budget must be nonnegative")
    if budget == 0:
        return np.zeros(m.size), float(m[0])
    inv = 1.0 / m
    # largest k with water level above 1/m_k
    for k in range(m.size, 0, -1):
        level = (budget + inv[:k].sum()) / k
        if level >= inv[k - 1]:
            break
    # level - inv_i written as a sum of differences, so that the budget
    # holds to rounding even when 1/m dwarfs it
    p = np.zeros(m.size)
    head = inv[:k]
    p[:k] = np.maximum(0.0, (budget + (head[None, :] - head[:, None])
                             .sum(axis=1)) / k)
    return p, float(1.0 / level)


def _pattern_sum(w, m_tilde_head):
    """sum over the head of (1/w + sqrt(1/w^2 - 1/m)), decreasing in w."""
    return np.sum(1.0 / w + np.sqrt(np.maximum(1.0 / w ** 2
                                               - 1.0 / m_tilde_head, 0.0)))


def solve_p32(m_tilde) -> tuple[np.ndarray, float]:
    """Globally optimal partition ratios for fixed powers.

    ``m_tilde`` (sorted non-increasing) are the per-sub-surface products
    m_s * p_s.  Candidates are the single-active vector [1, 0, ...] and
    the all-plus prefixes of every length; each prefix pattern exists iff
    its ratio-sum equation has a root w in (0, sqrt(min head m_tilde)].
    Returns the best t along with its dual w.
    """
    m_tilde = np.atleast_1d(np.asarray(m_tilde, dtype=float))
    if np.any(m_tilde <= 0):
        raise ValueError("m_tilde must be positive")
    if np.any(np.diff(m_tilde) > 0):
        raise ValueError("m_tilde must be sorted non-increasing")
    s = m_tilde.size

    def objective(t):
        return float(np.sum(np.log2(1.0 + m_tilde * t ** 2)))

    best_t = np.zeros(s)
    best_t[0] = 1.0
    best_w = 2.0 * m_tilde[0] / (1.0 + m_tilde[0])
    best_c = objective(best_t)

    for k in range(2, s + 1):
        head = m_tilde[:k]
        w_max = np.sqrt(head[-1])
        if _pattern_sum(w_max, head) > 1.0:
            continue  # pattern does not exist at this k
        lo = w_max
        while _pattern_sum(lo, head) < 1.0:
            lo /= 2.0
            if lo < 1e-300:
                break
        hi = w_max
        while hi - lo > 1e-12:
            mid = 0.5 * (lo + hi)
            if _pattern_sum(mid, head) >= 1.0:
                lo = mid
            else:
                hi = mid
        w = 0.5 * (lo + hi)
        t = np.zeros(s)
        t[:k] = 1.0 / w + np.sqrt(np.maximum(1.0 / w ** 2 - 1.0 / head, 0.0))
        t[:k] /= t[:k].sum()  # remove bisection residue; sum is 1 by design
        c = objective(t)
        if c > best_c + 1e-12:
            best_t, best_w, best_c = t, w, c
    return best_t, float(best_w)


def _seed_solution(problem: AsymptoticProblem) -> Solution:
    """Water-filling solution with the single-active partition t=[1,0,...]."""
    coeffs = np.concatenate([[problem.m_r[0]], problem.m_d])
    order = np.argsort(-coeffs, kind="stable")
    p_sorted, v = water_filling(coeffs[order], problem.power)
    p = np.empty_like(p_sorted)
    p[order] = p_sorted
    p_r = np.zeros(problem.s_max)
    p_r[0] = p[0]
    p_d = p[1:]
    t = np.zeros(problem.s_max)
    t[0] = 1.0
    alloc = Allocation(p_r=p_r, p_d=p_d, t=t)
    w = 2.0 * v * p_r[0]
    return Solution(problem=problem, allocation=alloc, v=v, w=w,
                    rate=rate(problem, alloc),
                    s_active=[0] if p_r[0] > 0 else [],
                    i_active=[i for i in range(problem.l3) if p_d[i] > 0])


def largest_root(a):
    """Largest real root y of ``y^3 - y^2 + a = 0``, vectorized over a.

    This is the cascaded-power cubic in normalized form: with y = v p and
    ``a = v^3 P_r^2 / m`` the power is ``p = y / v``.  The root exists for
    ``0 <= a <= 4/27`` and falls from 1 to 2/3 over that range; the
    trigonometric form keeps it accurate at any scale of v, P_r and m.
    """
    a = np.asarray(a, dtype=float)
    if np.any(~(a >= 0.0)) or np.any(a > A_MAX):
        raise ValueError("a must lie in [0, 4/27]")
    c = np.clip(1.0 - 13.5 * a, -1.0, 1.0)
    return 1.0 / 3.0 + 2.0 / 3.0 * np.cos(np.arccos(c) / 3.0)


def dual_bracket(m_d, power: float, k) -> tuple[np.ndarray, np.ndarray]:
    """Power-dual interval (lo, hi) holding the root of the budget residual
    of the first k cascaded paths, vectorized over k.

    At ``lo`` the direct paths alone use the whole budget (their
    water-filling level; k/(2P) without direct paths), so the residual is
    positive.  At ``hi`` every direct path is off and the cascaded powers
    sum to at most P/2, so it is negative.
    """
    k = np.asarray(k)
    if np.any(k < 1):
        raise ValueError("at least one cascaded path must be activated")
    if power <= 0:
        raise ValueError("power budget must be positive")
    m_d = np.asarray(m_d, dtype=float)
    hi = 2.0 * k / power
    if not m_d.size:
        return k / (2.0 * power), hi
    lo = np.full(k.shape, water_filling(m_d, power)[1])
    return lo, np.maximum(hi, m_d[0])


def _block_powers(problem: AsymptoticProblem, v, k):
    """Cascaded powers, direct powers, cascaded budget and normalized cubic
    constants at dual v with the first k cascaded paths active (paths on
    the last axis).

    ``a`` past 4/27 is clipped, which continues each power as 2/(3v) and
    keeps the budget residual strictly decreasing beyond the point where
    the weakest active root ceases to exist.
    """
    v = np.asarray(v, dtype=float)[..., None]
    p_d = np.maximum(0.0, 1.0 / v - 1.0 / problem.m_d)
    budget_r = problem.power - p_d.sum(axis=-1, keepdims=True)
    a = v ** 3 * np.maximum(budget_r, 0.0) ** 2 / problem.m_r
    head = np.arange(problem.s_max) < np.asarray(k)[..., None]
    p_r = np.where(head, largest_root(np.minimum(a, A_MAX)) / v, 0.0)
    return p_r, p_d, budget_r[..., 0], a


def budget_residual(problem: AsymptoticProblem, v, k) -> np.ndarray:
    """``sum_s p_s(v) - P_r(v)`` over the first k cascaded paths, strictly
    decreasing in v above the water level of the direct paths."""
    p_r, _, budget_r, _ = _block_powers(problem, v, k)
    return p_r.sum(axis=-1) - budget_r


def _dual_roots(problem: AsymptoticProblem, k: np.ndarray) -> np.ndarray:
    """Root of the budget residual for every k, bisected down to adjacent
    floats (geometric midpoints while the bracket spans a factor of 2)."""
    lo, hi = dual_bracket(problem.m_d, problem.power, k)
    for _ in range(_MAX_HALVINGS):
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


def kkt_residual(problem: AsymptoticProblem, solution: Solution,
                 active_tol: float = 1e-12) -> KktResidual:
    """Stationarity, primal-feasibility, and slackness diagnostics."""
    a = solution.allocation
    v, w = solution.v, solution.w
    m_r, m_d = problem.m_r, problem.m_d
    grad_p_r = m_r * a.t ** 2 / (1.0 + m_r * a.p_r * a.t ** 2)
    grad_t = 2.0 * m_r * a.p_r * a.t / (1.0 + m_r * a.p_r * a.t ** 2)
    stat_p_r = np.where(a.p_r > active_tol, grad_p_r - v,
                        np.maximum(grad_p_r - v, 0.0))
    stat_t = np.where(a.t > active_tol, grad_t - w,
                      np.maximum(grad_t - w, 0.0))
    if problem.l3:
        grad_p_d = m_d / (1.0 + m_d * a.p_d)
        stat_p_d = np.where(a.p_d > active_tol, grad_p_d - v,
                            np.maximum(grad_p_d - v, 0.0))
        lam_d = np.where(a.p_d > active_tol, 0.0,
                         np.maximum(v - grad_p_d, 0.0))
        slack_d = lam_d * a.p_d
    else:
        stat_p_d = np.empty(0)
        slack_d = np.empty(0)
    lam_r = np.where(a.p_r > active_tol, 0.0, np.maximum(v - grad_p_r, 0.0))
    mu = np.where(a.t > active_tol, 0.0, np.maximum(w - grad_t, 0.0))
    primal = np.array([
        abs(a.total_power - problem.power) / problem.power,
        abs(a.t.sum() - 1.0),
        max(0.0, -min(a.p_r.min(), a.p_d.min() if problem.l3 else 0.0)),
        max(0.0, -a.t.min()),
    ])
    slackness = np.concatenate([lam_r * a.p_r, slack_d, mu * a.t])
    return KktResidual(stationarity_p_r=stat_p_r, stationarity_p_d=stat_p_d,
                       stationarity_t=stat_t, primal=primal,
                       slackness=slackness)


def classify_pattern(solution: Solution, tol: float = 1e-6) -> list[str]:
    """Label each partition ratio as '0', '+', or '-' per the KKT forms."""
    a = solution.allocation
    w = solution.w
    labels = []
    for s in range(solution.problem.s_max):
        if a.t[s] <= tol:
            labels.append("0")
            continue
        m_tilde = solution.problem.m_r[s] * a.p_r[s]
        root = np.sqrt(max(1.0 / w ** 2 - 1.0 / m_tilde, 0.0))
        if abs(a.t[s] - (1.0 / w + root)) <= abs(a.t[s] - (1.0 / w - root)):
            labels.append("+")
        else:
            labels.append("-")
    return labels


def solve(problem: AsymptoticProblem) -> Solution:
    """Exact joint power/partition optimum over all activated sets.

    Starts from the single-active water-filling point, then solves the
    budget equation of every cascaded prefix k = 2..S at once and keeps
    each block whose weakest root exists at its dual.  Returns the best
    point by rate (ties keep the fewest activated paths) after checking
    the linear ratio/power relation and the non-increasing ordering.
    """
    sol = _seed_solution(problem)
    if problem.s_max > 1:
        k = np.arange(2, problem.s_max + 1)
        v = _dual_roots(problem, k)
        p_r, p_d, _, a = _block_powers(problem, v, k)
        exists = a[np.arange(k.size), k - 1] <= A_MAX * (1.0 + 1e-12)
        for b in np.flatnonzero(exists):
            total = p_r[b].sum()
            alloc = Allocation(p_r=p_r[b], p_d=p_d[b], t=p_r[b] / total)
            c = rate(problem, alloc)
            if c > sol.rate + 1e-12:
                sol = Solution(
                    problem=problem, allocation=alloc, v=float(v[b]),
                    w=float(2.0 * v[b] * total), rate=c,
                    s_active=list(range(k[b])),
                    i_active=[i for i in range(problem.l3) if p_d[b, i] > 0])

    a = sol.allocation
    p_r_tot = a.p_r.sum()
    if p_r_tot > 0:
        gap = np.max(np.abs(a.t - a.p_r / p_r_tot))
        if gap > 1e-6:
            raise RuntimeError(f"ratio/power relation violated ({gap:.2e})")
    if np.any(np.diff(a.t) > 1e-9) or np.any(np.diff(a.p_r) > 1e-9):
        raise RuntimeError("ratios/powers not in non-increasing order")
    return sol
