"""Acceptance gate: ten end-to-end criteria, one pass/fail line each.

Each test records its verdict through the ``criterion`` fixture; the lines
are echoed in the terminal summary.  Criteria 2-6 and 9 run the property
checks of :mod:`rispart.checks` at their own seeds and counts.
"""

import time

import numpy as np
import pytest

from rispart import checks
from rispart.asymptotic import coefficients
from rispart.channel import (RisGeometry, SimulationConfig, dbm_to_watts,
                             realization_rng, realize_channels)
from rispart.finite import adapt_solution
from rispart.harness import fig3_regions
from rispart.partition import PartitionPlan, TilePlan, gain_closed_form
from rispart.solver import solve

# Total transmit power of the reference setup before array normalization;
# per-antenna-product budget P0/(M_t*M_r) keeps the received SNR fixed
# across antenna counts.
P0 = dbm_to_watts(60.1030)


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
    [(_, ok, detail)] = checks.gain_identity(np.random.default_rng(10), 50)
    elapsed = time.perf_counter() - start
    criterion(2, "direct-sum gain equals closed form to 1e-10 on 50 random "
                 "plans, N <= 16x16, < 5 s", ok and elapsed < 5.0,
              f"{detail}, {elapsed:.2f} s")


def test_criterion_03_grid_vs_brute_force(criterion):
    start = time.perf_counter()
    [(_, ok, detail)] = checks.brute_force_agreement(
        np.random.default_rng(20), 100)
    elapsed = time.perf_counter() - start
    criterion(3, "dual solve within brute-force resolution bound on 100 "
                 "instances (S <= 3, L3 <= 2), < 2 min",
              ok and elapsed < 120.0, f"{elapsed:.1f} s" if ok else detail)


def test_criterion_04_sorted_pairing_optimal(criterion):
    start = time.perf_counter()
    [(_, ok, detail)] = checks.sorted_pairing(np.random.default_rng(30), 200)
    elapsed = time.perf_counter() - start
    criterion(4, "sorted pairing never strictly beaten over all 6 "
                 "permutations on 200 instances (L1 = L2 = 3), < 2 min",
              ok and elapsed < 120.0, f"{elapsed:.1f} s" if ok else detail)


def test_criterion_05_kkt_invariants(criterion):
    lines = checks.kkt_invariants(np.random.default_rng(40), 200)
    criterion(5, "ratio/power relation < 1e-6, ordering to 1e-9, "
                 "pattern-form membership < 1e-6 on a 200-seed suite",
              all(ok for _, ok, _ in lines),
              ", ".join(detail for _, _, detail in lines))


def test_criterion_06_lm_agreement(criterion):
    [(_, ok, detail)] = checks.lm_agreement(np.random.default_rng(50), 200)
    criterion(6, "warm- and cold-started LM within 0.5% of the dual solve "
                 "with residual norm < 1e-10 on >= 95% of 200 instances", ok,
              detail)


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
            sol = solve(coefficients(realization))
            ev = adapt_solution(sol, realization, rng)
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
        cascaded, direct = [], []
        for i in range(runs):
            rng = realization_rng(config.seed, i)
            realization = realize_channels(config, rng)
            sol = solve(coefficients(realization))
            cascaded.append(sol.s_min_star)
            direct.append(sol.direct)
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
    [(_, ok, detail)] = checks.water_filling_budget(
        np.random.default_rng(60), 200)
    criterion(9, "water-filling meets the budget to 1e-12 relative with "
                 "exact slackness; m=[4,1], P=1 gives (0.875, 0.125)", ok,
              detail)


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
            column_counts=counts,
            gradients=rng.uniform(-2, 2, (s, 2)),
            psi=rng.uniform(0, 2 * np.pi, s))
        tiles = TilePlan.from_partition_plan(plan, ris, tiles_x, tiles_y)
        for _ in range(3):
            zeta = (rng.uniform(-2, 2), rng.uniform(-2, 2))
            worst = max(worst, abs(gain_closed_form(tiles, ris, zeta)
                                   - gain_closed_form(plan, ris, zeta)))
    ok = worst < 1e-10
    criterion(10, "horizontal-stripe tile plan reproduces the partition "
                  "closed-form gain to 1e-10 on 20 random cases", ok,
              f"worst gap {worst:.2e}")
