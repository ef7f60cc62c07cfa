"""Acceptance gate: ten end-to-end criteria, one pass/fail line each.

Each test records its verdict through the ``criterion`` fixture; the lines
are echoed in the terminal summary.
"""

import time

import numpy as np
import pytest

from rispart.asymptotic import AsymptoticProblem, coefficients, \
    optimal_pairing, rate
from rispart.channel import (RisGeometry, SimulationConfig, dbm_to_watts,
                             realization_rng, realize_channels)
from rispart.finite import adapt_solution
from rispart.harness import fig3_regions
from rispart.oracle import (GridSpec, LmDivergenceError, _lm_residual,
                            brute_force_p3, enumerate_pairings, lm_solve,
                            snap_allocation)
from rispart.partition import (PartitionPlan, PhaseGradient, TilePlan,
                               build_theta, gain_closed_form,
                               gain_direct_sum, tile_plan_gain)
from rispart.solver import solve, water_filling

# Total transmit power of the reference setup before array normalization;
# per-antenna-product budget P0/(M_t*M_r) keeps the received SNR fixed
# across antenna counts.
P0 = dbm_to_watts(60.1030)


def _random_problem(rng, s_max=None, l3=None, power=1.0):
    s = int(s_max if s_max is not None else rng.integers(1, 5))
    j = int(l3 if l3 is not None else rng.integers(0, 4))
    m_r = np.sort(10.0 ** rng.uniform(-0.5, 3.0, s))[::-1]
    m_d = np.sort(10.0 ** rng.uniform(-0.5, 3.0, j))[::-1] if j \
        else np.empty(0)
    return AsymptoticProblem(m_r=m_r, m_d=m_d, power=power)


def _random_realized_plan(rng, ny):
    s = int(rng.integers(1, min(4, ny) + 1))
    cuts = np.sort(rng.choice(np.arange(1, ny), size=s - 1, replace=False))
    counts = np.diff(np.concatenate([[0], cuts, [ny]])).astype(int)
    gradients = [PhaseGradient(rng.uniform(-2, 2), rng.uniform(-2, 2))
                 for _ in range(s)]
    return PartitionPlan(t=counts / ny, gradients=gradients,
                         psi=rng.uniform(0, 2 * np.pi, s),
                         column_counts=counts)


def test_criterion_01_region_thresholds(criterion):
    start = time.perf_counter()
    result = fig3_regions([93.0, 74.0, 54.0, 15.0], 0.0, 10.0, 0.01)
    elapsed = time.perf_counter() - start
    exists_db = result["all_plus_exists_db"]
    optimal_db = result["all_plus_optimal_db"]
    ok = (exists_db is not None and optimal_db is not None
          and abs(exists_db - 4.71) <= 0.1
          and abs(optimal_db - 6.43) <= 0.1
          and elapsed < 5.0)
    criterion(1, "all-plus pattern exists at 4.71 dB, optimal at 6.43 dB "
                 "(each within 0.1 dB, < 5 s)", ok,
              f"exists {exists_db} dB, optimal {optimal_db} dB, "
              f"{elapsed:.2f} s")


def test_criterion_02_gain_identity(criterion):
    start = time.perf_counter()
    rng = np.random.default_rng(10)
    worst = 0.0
    for _ in range(50):
        nx = int(rng.integers(1, 17))
        ny = int(rng.integers(2, 17))
        ris = RisGeometry(nx=nx, ny=ny, element_spacing=0.5, wavelength=1.0)
        plan = _random_realized_plan(rng, ny)
        theta = build_theta(plan, ris)
        for zeta in [(rng.uniform(-2, 2), rng.uniform(-2, 2)),
                     (plan.gradients[0].g_x, plan.gradients[0].g_y)]:
            gap = abs(gain_direct_sum(theta, ris, zeta)
                      - gain_closed_form(plan, ris, zeta))
            worst = max(worst, gap)
    elapsed = time.perf_counter() - start
    ok = worst < 1e-10 and elapsed < 5.0
    criterion(2, "direct-sum gain equals closed form to 1e-10 on 50 random "
                 "plans, N <= 16x16, < 5 s", ok,
              f"worst gap {worst:.2e}, {elapsed:.2f} s")


def test_criterion_03_grid_vs_brute_force(criterion):
    start = time.perf_counter()
    rng = np.random.default_rng(20)
    grid = GridSpec(16, 16)
    ok = True
    detail = ""
    for i in range(100):
        problem = _random_problem(rng, s_max=int(rng.integers(1, 4)),
                                  l3=int(rng.integers(0, 3)))
        sol = solve(problem)
        oracle_rate, _ = brute_force_p3(problem, grid)
        # two-sided: never below the oracle by >1e-3 relative, and the
        # oracle is at least the solver point snapped onto its own lattice
        snapped = snap_allocation(problem, sol.allocation, grid)
        resolution_loss = sol.rate - rate(problem, snapped, validate=False)
        if sol.rate < oracle_rate * (1 - 1e-3):
            ok, detail = False, (f"instance {i}: solve {sol.rate:.6f} below "
                                 f"oracle {oracle_rate:.6f}")
            break
        if oracle_rate < sol.rate - resolution_loss - 1e-9:
            ok, detail = False, (f"instance {i}: oracle {oracle_rate:.6f} "
                                 f"below resolution bound")
            break
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 120.0
    criterion(3, "dual solve within brute-force resolution bound on 100 "
                 "instances (S <= 3, L3 <= 2), < 2 min", ok,
              detail or f"{elapsed:.1f} s")


def test_criterion_04_sorted_pairing_optimal(criterion):
    start = time.perf_counter()
    rng = np.random.default_rng(30)
    ok = True
    detail = ""
    for i in range(200):
        tx = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        rx = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        tx = tx[np.argsort(-np.abs(tx))]
        rx = rx[np.argsort(-np.abs(rx))]
        table = enumerate_pairings(tx, rx, power=1.0, scale=100.0)
        rates = dict(table)
        sorted_rate = rates[tuple(zip(range(3), range(3)))]
        if table[0][1] > sorted_rate + 1e-8:
            ok, detail = False, (f"instance {i}: sorted pairing beaten by "
                                 f"{table[0][0]}")
            break
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 120.0
    criterion(4, "sorted pairing never strictly beaten over all 6 "
                 "permutations on 200 instances (L1 = L2 = 3), < 2 min", ok,
              detail or f"{elapsed:.1f} s")


def test_criterion_05_kkt_invariants(criterion):
    rng = np.random.default_rng(40)
    worst_lin, worst_ord, worst_pat = 0.0, 0.0, 0.0
    for _ in range(200):
        problem = _random_problem(rng)
        sol = solve(problem)
        a = sol.allocation
        p_tot = a.p_r.sum()
        if p_tot > 0:
            worst_lin = max(worst_lin,
                            float(np.max(np.abs(a.t - a.p_r / p_tot))))
        worst_ord = max(worst_ord, float(np.max(np.diff(a.t), initial=0.0)),
                        float(np.max(np.diff(a.p_r), initial=0.0)))
        if sol.w > 0:
            for s in sol.s_active:
                m_tilde = problem.m_r[s] * a.p_r[s]
                if m_tilde <= 0:
                    continue
                root = np.sqrt(max(1.0 / sol.w ** 2 - 1.0 / m_tilde, 0.0))
                gap = min(abs(a.t[s] - (1.0 / sol.w + root)),
                          abs(a.t[s] - (1.0 / sol.w - root)))
                worst_pat = max(worst_pat, gap)
    ok = worst_lin < 1e-6 and worst_ord <= 1e-9 and worst_pat < 1e-6
    criterion(5, "ratio/power relation < 1e-6, ordering to 1e-9, "
                 "pattern-form membership < 1e-6 on a 200-seed suite", ok,
              f"linear {worst_lin:.2e}, order {worst_ord:.2e}, "
              f"pattern {worst_pat:.2e}")


def test_criterion_06_lm_agreement(criterion):
    rng = np.random.default_rng(50)
    total = 200
    agree = 0
    worst_residual = 0.0
    for _ in range(total):
        problem = _random_problem(rng)
        g = solve(problem)
        if not g.s_active:
            agree += 1  # nothing for the cascaded refiner to solve
            continue
        floor = g.rate * (1 - 5e-3)
        instance_ok = True
        for initial in (g.allocation, None):  # warm then cold start
            try:
                sol, _ = lm_solve(problem, g.s_active, g.i_active, initial)
            except LmDivergenceError:
                instance_ok = False
                break
            if sol.rate < floor:
                instance_ok = False
                break
            k, j = len(g.s_active), len(g.i_active)
            x = np.concatenate([
                sol.allocation.p_r[g.s_active],
                sol.allocation.p_d[g.i_active] if j else np.empty(0),
                sol.allocation.t[g.s_active], [sol.v, sol.w]])
            res = np.linalg.norm(_lm_residual(
                x, problem.m_r[g.s_active],
                problem.m_d[g.i_active] if j else np.empty(0),
                problem.power))
            worst_residual = max(worst_residual, res)
            if res >= 1e-10:
                instance_ok = False
                break
        agree += instance_ok
    ok = agree >= 0.95 * total
    criterion(6, "warm- and cold-started LM within 0.5% of the dual solve "
                 "with residual norm < 1e-10 on >= 95% of 200 instances", ok,
              f"{agree}/{total} agreed, worst converged residual "
              f"{worst_residual:.2e}")


@pytest.mark.filterwarnings("ignore:path counts")
def test_criterion_07_finite_convergence(criterion):
    start = time.perf_counter()
    ladder = [(16, 30, 30), (32, 30, 90), (64, 60, 180)]
    medians = []
    for m, nx, ny in ladder:
        config = SimulationConfig(m_t=m, m_r=m, n_x=nx, n_y=ny,
                                  power_watts=P0 / (m * m), seed=3)
        gaps = []
        for i in range(50):
            rng = realization_rng(config.seed, i)
            realization = realize_channels(config, rng)
            problem = coefficients(
                realization, optimal_pairing(config.l1, config.l2), config)
            sol = solve(problem)
            ev = adapt_solution(sol, realization, config.ris_geometry, rng)
            gaps.append(ev.gap)
        medians.append(float(np.median(gaps)))
    elapsed = time.perf_counter() - start
    ok = (medians[0] > medians[1] > medians[2] and medians[2] < 0.05
          and elapsed < 600.0)
    criterion(7, "median finite-to-asymptotic gap decreases over "
                 "(16,30x30) -> (32,30x90) -> (64,60x180) and ends "
                 "below 5% (50 seeds, < 10 min)", ok,
              "medians " + ", ".join(f"{g:.4f}" for g in medians)
              + f", {elapsed:.0f} s")


@pytest.mark.filterwarnings("ignore:path counts")
def test_criterion_08_activation_trends(criterion):
    runs = 100

    def mean_counts(ny, power_dbm):
        config = SimulationConfig(m_t=16, m_r=16, n_x=30, n_y=ny,
                                  power_watts=dbm_to_watts(power_dbm),
                                  seed=5)
        pairing = optimal_pairing(config.l1, config.l2)
        cascaded, direct = [], []
        for i in range(runs):
            rng = realization_rng(config.seed, i)
            realization = realize_channels(config, rng)
            sol = solve(coefficients(realization, pairing, config))
            cascaded.append(len(sol.s_active))
            direct.append(len(sol.i_active))
        return float(np.mean(cascaded)), float(np.mean(direct))

    by_n = [mean_counts(ny, 20.0) for ny in (30, 90, 270)]
    by_p = [mean_counts(30, p) for p in (20.0, 30.0, 40.0)]
    casc_n = [c for c, _ in by_n]
    dir_n = [d for _, d in by_n]
    casc_p = [c for c, _ in by_p]
    ok = (casc_n[0] < casc_n[1] < casc_n[2]
          and dir_n[0] >= dir_n[1] >= dir_n[2]
          and casc_p[0] <= casc_p[1] <= casc_p[2])
    criterion(8, "mean activated cascaded paths increase in N and in P; "
                 "mean activated direct paths non-increasing in N "
                 "(100 realizations)", ok,
              f"cascaded vs N {casc_n}, direct vs N {dir_n}, "
              f"cascaded vs P {casc_p}")


def test_criterion_09_water_filling(criterion):
    p, v = water_filling([4.0, 1.0], 1.0)
    case_ok = (abs(p[0] - 0.875) < 1e-12 and abs(p[1] - 0.125) < 1e-12)
    rng = np.random.default_rng(60)
    worst_budget = 0.0
    slack_ok = True
    for _ in range(200):
        m = np.sort(10.0 ** rng.uniform(-2, 2, rng.integers(1, 8)))[::-1]
        budget = float(10.0 ** rng.uniform(-2, 2))
        p, v = water_filling(m, budget)
        worst_budget = max(worst_budget, abs(p.sum() - budget) / budget)
        active = p > 0
        # active channels sit exactly at the water level, inactive powers
        # are exactly zero (complementary slackness)
        if np.any(np.abs(p[active] + 1.0 / m[active] - 1.0 / v)
                  > 1e-9 / v) or np.any(p[~active] != 0.0):
            slack_ok = False
    ok = case_ok and worst_budget < 1e-12 and slack_ok
    criterion(9, "water-filling meets the budget to 1e-12 relative with "
                 "exact slackness; m=[4,1], P=1 gives (0.875, 0.125)", ok,
              f"worst budget error {worst_budget:.2e}")


def test_criterion_10_tile_equivalence(criterion):
    rng = np.random.default_rng(70)
    worst = 0.0
    for _ in range(20):
        tiles_x = int(rng.integers(1, 5))
        tiles_y = int(rng.integers(2, 7))
        ex = int(rng.integers(1, 5))
        ey = int(rng.integers(1, 5))
        ris = RisGeometry(nx=tiles_x * ex, ny=tiles_y * ey,
                          element_spacing=0.5, wavelength=1.0)
        s = int(rng.integers(1, tiles_y + 1))
        cuts = np.sort(rng.choice(np.arange(1, tiles_y), size=s - 1,
                                  replace=False))
        counts = np.diff(np.concatenate([[0], cuts, [tiles_y]])) * ey
        plan = PartitionPlan(
            t=counts / ris.ny,
            gradients=[PhaseGradient(rng.uniform(-2, 2), rng.uniform(-2, 2))
                       for _ in range(s)],
            psi=rng.uniform(0, 2 * np.pi, s),
            column_counts=counts)
        tiles = TilePlan.from_partition_plan(plan, ris, tiles_x, tiles_y)
        for _ in range(3):
            zeta = (rng.uniform(-2, 2), rng.uniform(-2, 2))
            worst = max(worst, abs(tile_plan_gain(tiles, ris, zeta)
                                   - gain_closed_form(plan, ris, zeta)))
    ok = worst < 1e-10
    criterion(10, "horizontal-stripe tile plan reproduces the partition "
                  "closed-form gain to 1e-10 on 20 random cases", ok,
              f"worst gap {worst:.2e}")
