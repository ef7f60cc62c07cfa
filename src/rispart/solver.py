"""Solution machinery for the asymptotic power/partition problem.

At a KKT point the problem separates into water-filling over the direct
paths, ``p_d,i = max(0, 1/v - 1/m_d,i)`` for the power dual v, and the
linear ratio/power relation ``t_s = p_s / P_r`` over the cascaded paths,
where ``P_r`` is their total power and each cascaded power is the largest
root of ``p^3 - p^2/v + P_r^2/m_s = 0``.  Only that root meets the
validity floor ``p >= 1/(2v)``, so for an activated prefix of k cascaded
paths the budget residual ``sum_s p_s(v) - P_r(v)`` is one strictly
decreasing function of v.  The paper scans v on a 1D grid; here the root
of that residual is found for every k at once by safeguarded Newton steps
(``rtsafe``, after Brent 1973): every normalized root ``v p_s`` lies in
[2/3, 1], which gives a closed-form bracket at most a factor 1.5 wide,
the cubic root has an exact derivative, and a step that leaves the
bracket or fails to halve the residual is replaced by bisection.  That
gives an exact KKT point per activated set in a handful of residual
evaluations.  The best of these and the single-active water-filling point
is the solution.

The problem is invariant under ``m -> m c`` with ``P -> P / c`` and
``p -> p / c`` (``v -> v c``, the ratios and w unchanged), so the solve
runs in the units where P = 1 and maps the winner back: at any P whose
SNRs ``m P`` are finite normal floats (at least ``np.finfo(float).tiny``),
no quantity it keeps overflows; only the cubic constant of a path weaker
than about 4e-308 in those units reaches inf, which clips to 4/27.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from rispart.asymptotic import Allocation, AsymptoticProblem, Solution, rate

# y^3 - y^2 + a = 0 has a root in [2/3, 1] iff 0 <= a <= 4/27
A_MAX = 4.0 / 27.0
# Smallest SNR m * P the solve accepts: 1/(m * P) overflows below it
_TINY = float(np.finfo(float).tiny)
_ACTIVE_TOL = 1e-12
# Bounds the Newton loop only: bisection alone narrows a factor-1.5
# bracket to 4 ulps in about 50 steps, and every step narrows it.
_MAX_STEPS = 100


@dataclass
class KktResidual:
    """First-order optimality diagnostics at a primal/dual point, each
    unchanged when the coefficients scale by c and the power and the
    powers of the point by 1/c.

    Stationarity residuals are zero at an exact KKT point; on activated
    entries they equal the gradient-minus-dual gap relative to the dual
    (v for the powers, w for the ratios), on inactive entries only a
    positive gap (a violation of dual feasibility) is reported.
    ``primal`` holds (relative budget violation, ratio-sum violation,
    worst negative power over P, worst negative ratio); ``slackness`` the
    relative multipliers times the powers over P and times the ratios.
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

    ``m`` may come in any order; the powers come back in that order.
    Returns the powers and the water level dual v.
    """
    m = np.atleast_1d(np.asarray(m, dtype=float))
    if m.size == 0:
        raise ValueError("water_filling needs at least one channel")
    if not np.all((m > 0) & (m < np.inf)):
        raise ValueError("channel gains must be finite and positive")
    if not 0 <= budget < np.inf:
        raise ValueError("budget must be finite and nonnegative")
    order = np.argsort(-m, kind="stable")
    if budget == 0:
        return np.zeros(m.size), float(m[order[0]])
    inv = 1.0 / m[order]
    # largest k with water level above 1/m_k
    for k in range(m.size, 0, -1):
        level = (budget + inv[:k].sum()) / k
        if level >= inv[k - 1]:
            break
    # level - inv_i written as a sum of differences, so that the budget
    # holds to rounding even when 1/m dwarfs it
    p = np.zeros(m.size)
    head = inv[:k]
    p[order[:k]] = np.maximum(0.0, (budget + (head[None, :] - head[:, None])
                                    .sum(axis=1)) / k)
    return p, float(1.0 / level)


def _pattern_sum(w, m_tilde_head):
    """sum over the head of (1/w + sqrt(1/w^2 - 1/m)), decreasing in w."""
    return np.sum(1.0 / w + np.sqrt(np.maximum(1.0 / w ** 2
                                               - 1.0 / m_tilde_head, 0.0)))


def all_plus_exists(m_tilde_head) -> bool:
    """Whether the all-plus pattern over ``m_tilde_head`` (sorted
    non-increasing) has a ratio-sum root w in (0, sqrt(min m_tilde)]."""
    return bool(_pattern_sum(np.sqrt(m_tilde_head[-1]), m_tilde_head) <= 1.0)


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
        if not all_plus_exists(head):
            continue
        # each all-plus ratio lies in [1/w, 2/w], so the root has w >= k;
        # bisect until no float lies strictly between the ends
        lo, hi = float(k), float(np.sqrt(head[-1]))
        while lo < (mid := 0.5 * (lo + hi)) < hi:
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
    of the first k cascaded paths, vectorized over k; ``hi / lo <= 1.5``.

    Every normalized cascaded root ``y = v p_s`` lies in [2/3, 1], so the
    cascaded powers sum to between ``2k/(3v)`` and ``k/v``.  ``lo`` is the
    water level at which the direct paths plus ``(2k/3)/v`` use the whole
    budget, so the residual is nonnegative there; ``hi`` is the level at
    which the direct paths plus ``k/v`` do, so it is nonpositive there.
    """
    k = np.asarray(k)
    if np.any(k < 1):
        raise ValueError("at least one cascaded path must be activated")
    if power <= 0:
        raise ValueError("power budget must be positive")
    # water level 1/x with c extra channels of zero inverse gain: x solves
    # sum_i max(0, x - 1/m_i) + c x = P, and x is the smallest over j of
    # the level (P + sum of the j smallest 1/m_i) / (j + c)
    inv = np.sort(1.0 / np.asarray(m_d, dtype=float))
    head_sums = np.concatenate([[0.0], np.cumsum(inv)])
    j = np.arange(inv.size + 1)

    def level(c):
        return 1.0 / np.min((power + head_sums) / (j + c[..., None]), axis=-1)

    return level(2.0 * k / 3.0), level(k.astype(float))


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
    with np.errstate(over="ignore"):  # an inf is clipped to 4/27 below
        a = v ** 3 * np.maximum(budget_r, 0.0) ** 2 / problem.m_r
    head = np.arange(problem.s_max) < np.asarray(k)[..., None]
    p_r = np.where(head, largest_root(np.minimum(a, A_MAX)) / v, 0.0)
    return p_r, p_d, budget_r[..., 0], a


def budget_residual(problem: AsymptoticProblem, v, k) -> np.ndarray:
    """``sum_s p_s(v) - P_r(v)`` over the first k cascaded paths, strictly
    decreasing in v above the water level of the direct paths."""
    p_r, _, budget_r, _ = _block_powers(problem, v, k)
    return p_r.sum(axis=-1) - budget_r


def _residual_slope(problem: AsymptoticProblem, v, k):
    """Budget residual and its exact derivative in v.

    With ``y = v p_s`` and ``a = v^3 P_r^2 / m_s``, ``dp_s/dv = y'(a)
    a'(v) / v - y / v^2``, where ``y'(a) = -1 / (3y^2 - 2y)`` and
    ``a'(v) = v P_r (3 v P_r + 2 n_on) / m_s`` for the ``n_on`` direct
    paths that are on.  A clipped entry (``a >= 4/27``) is ``2/(3v)`` and
    has no ``y'`` term; the direct powers add ``-n_on / v^2``.
    """
    p_r, p_d, budget_r, a = _block_powers(problem, v, k)
    v = np.asarray(v, dtype=float)[..., None]
    n_on = np.count_nonzero(p_d, axis=-1)[..., None]
    y = p_r * v
    cubic_slope = y * (3.0 * y - 2.0)  # zero off the head
    steep = (a < A_MAX) & (cubic_slope > 0.0)
    b = np.maximum(budget_r, 0.0)[..., None]
    with np.errstate(over="ignore"):  # inf only where a is clipped too
        da = v * b * (3.0 * v * b + 2.0 * n_on) / problem.m_r
    dy = np.where(steep, -da / np.where(steep, cubic_slope, 1.0), 0.0)
    slope = ((dy - y / v).sum(axis=-1, keepdims=True) - n_on / v) / v
    return p_r.sum(axis=-1) - budget_r, slope[..., 0]


def _dual_roots(problem: AsymptoticProblem, k: np.ndarray) -> np.ndarray:
    """Root of the budget residual for every k by safeguarded Newton steps.

    Starts from the middle of :func:`dual_bracket` and shrinks the bracket
    with every evaluation.  A Newton step that leaves the bracket (ends
    included) or follows a step that did not halve ``|f|`` is replaced by
    bisection; the second rule stops the ping-pong across the kink where
    the weakest root's ``a`` reaches 4/27 and the slope jumps.  An entry
    stops when its step or its bracket is within 4 ulps, and the bracket
    end with the smaller ``|f|`` is returned.
    """
    lo, hi = dual_bracket(problem.m_d, problem.power, k)
    f_lo = np.full(lo.shape, np.inf)
    f_hi = np.full(hi.shape, -np.inf)
    f_prev = np.full(lo.shape, np.inf)
    x = 0.5 * (lo + hi)
    running = np.ones(lo.shape, dtype=bool)
    for _ in range(_MAX_STEPS):
        f, slope = _residual_slope(problem, x, k)
        above = f >= 0.0
        below = f <= 0.0
        lo, f_lo = np.where(above, x, lo), np.where(above, f, f_lo)
        hi, f_hi = np.where(below, x, hi), np.where(below, f, f_hi)
        step = x - f / slope
        newton = ((step >= lo) & (step <= hi)
                  & (np.abs(f) <= 0.5 * np.abs(f_prev)))
        nxt = np.where(newton, step, 0.5 * (lo + hi))
        running &= ~((np.abs(nxt - x) <= 4.0 * np.spacing(x))
                     | (hi - lo <= 4.0 * np.spacing(lo)) | (f == 0.0))
        if not running.any():
            break
        x = np.where(running, nxt, x)
        f_prev = np.where(running, f, f_prev)
    return np.where(np.abs(f_lo) <= np.abs(f_hi), lo, hi)


def kkt_residual(problem: AsymptoticProblem,
                 solution: Solution) -> KktResidual:
    """Stationarity, primal-feasibility, and slackness diagnostics, each
    free of the scale of the problem (see :class:`KktResidual`).

    A power counts as activated above ``_ACTIVE_TOL * P`` and a ratio above
    ``_ACTIVE_TOL``.
    """
    a = solution.allocation
    v, w, power = solution.v, solution.w, problem.power
    m_r, m_d = problem.m_r, problem.m_d
    grad_p_r = m_r * a.t ** 2 / (1.0 + m_r * a.p_r * a.t ** 2)
    # m_r alone can be near the largest float when P is tiny; m_r * p_r
    # is an SNR
    grad_t = 2.0 * (m_r * a.p_r) * a.t / (1.0 + m_r * a.p_r * a.t ** 2)
    grad_p_d = m_d / (1.0 + m_d * a.p_d)
    # (gradient-minus-dual gap relative to the dual, primal value relative
    # to its scale); w is 0 only when no cascaded power is on, and then
    # every grad_t is 0 as well
    blocks = [((grad_p_r - v) / v, a.p_r / power),
              ((grad_p_d - v) / v, a.p_d / power),
              ((grad_t - w) / w if w > 0 else grad_t, a.t)]
    stationarity, slackness = [], []
    for gap, x in blocks:
        on = x > _ACTIVE_TOL
        stationarity.append(np.where(on, gap, np.maximum(gap, 0.0)))
        slackness.append(np.where(on, 0.0, np.maximum(-gap, 0.0)) * x)
    primal = np.array([
        abs(a.total_power - power) / power,
        abs(a.t.sum() - 1.0),
        max(0.0, -min(a.p_r.min(), a.p_d.min(initial=0.0))) / power,
        max(0.0, -a.t.min()),
    ])
    return KktResidual(*stationarity, primal=primal,
                       slackness=np.concatenate(slackness))


def solve(problem: AsymptoticProblem) -> Solution:
    """Exact joint power/partition optimum over all activated sets.

    Works in the units where P = 1.  Takes the single-active water-filling
    point, then solves the budget equation of every cascaded prefix
    k = 2..S at once and keeps each block whose weakest root exists at its
    dual.  The rates of all these points come from one vectorized pass;
    the best (ties keep the fewest activated paths) is mapped back to the
    units of ``problem`` and checked: the budget, the linear ratio/power
    relation and the non-increasing ordering.
    """
    power = problem.power
    with np.errstate(over="ignore"):
        m_r, m_d = problem.m_r * power, problem.m_d * power
    if not all(np.all(np.isfinite(m) & (m >= _TINY)) for m in (m_r, m_d)):
        raise ValueError(f"coefficients times P = {power!r} (the SNRs m * P) "
                         f"must be finite normal floats, at least {_TINY!r}")
    unit = AsymptoticProblem(m_r=m_r, m_d=m_d, power=1.0)
    s = unit.s_max
    p, v = water_filling(np.concatenate([[unit.m_r[0]], unit.m_d]), 1.0)
    p_r = np.zeros((1, s))
    p_r[0, 0] = p[0]
    p_d = p[None, 1:]
    t = np.eye(1, s)
    v = np.array([v])
    k = np.array([int(p[0] > 0)])
    if s > 1:
        k_b = np.arange(2, s + 1)
        v_b = _dual_roots(unit, k_b)
        p_r_b, p_d_b, _, a = _block_powers(unit, v_b, k_b)
        exists = a[np.arange(k_b.size), k_b - 1] <= A_MAX * (1.0 + 1e-12)
        p_r_b = p_r_b[exists]
        p_r = np.concatenate([p_r, p_r_b])
        p_d = np.concatenate([p_d, p_d_b[exists]])
        t = np.concatenate([t, p_r_b / p_r_b.sum(axis=1, keepdims=True)])
        v = np.concatenate([v, v_b[exists]])
        k = np.concatenate([k, k_b[exists]])
    rates = (np.log2(1.0 + unit.m_r * p_r * t ** 2).sum(axis=1)
             + np.log2(1.0 + unit.m_d * p_d).sum(axis=1))
    best = 0
    for b in range(1, rates.size):
        if rates[b] > rates[best] + 1e-12:
            best = b

    alloc = Allocation(p_r=p_r[best] * power, p_d=p_d[best] * power,
                       t=t[best])
    sol = Solution(problem=problem, allocation=alloc, v=float(v[best] / power),
                   w=float(2.0 * v[best] * p_r[best].sum()),
                   rate=rate(problem, alloc), s_active=list(range(k[best])),
                   i_active=[int(i) for i in np.flatnonzero(p_d[best] > 0)])
    p_r, t = p_r[best], t[best]
    if p_r.sum() > 0:
        gap = np.max(np.abs(t - p_r / p_r.sum()))
        if gap > 1e-6:
            raise RuntimeError(f"ratio/power relation violated ({gap:.2e})")
    if np.any(np.diff(t) > 1e-9) or np.any(np.diff(p_r) > 1e-9):
        raise RuntimeError("ratios/powers not in non-increasing order")
    return sol
