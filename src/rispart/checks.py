"""Property checks of the paper's claims over random draws.

Each check takes a random generator and a draw count and returns
``(name, ok, detail)`` lines.  The acceptance tests run them with their
own seeds and counts; :func:`verify` runs them at smaller counts behind
``rispart verify``.  Both share the random-problem and random-plan
generators below, so a check draws the same stream wherever it runs.
"""

from __future__ import annotations

import numpy as np

from rispart.asymptotic import AsymptoticProblem, coefficients, rate
from rispart.channel import (SimulationConfig, realization_rng,
                             realize_channels)
from rispart.finite import adapt_solution, refine_common_phases
from rispart.oracle import (LmDivergenceError, brute_force_p3,
                            enumerate_pairings, lm_residual, lm_solve,
                            snap_allocation)
from rispart.partition import (PartitionPlan, PhaseGradient, RisGeometry,
                               build_theta, gain_closed_form,
                               gain_direct_sum)
from rispart.solver import solve, water_filling

Line = tuple[str, bool, str]


def random_problem(rng: np.random.Generator, s_max: int | None = None,
                   l3: int | None = None) -> AsymptoticProblem:
    """Unit-power problem, coefficients log-uniform in [10^-0.5, 10^3]."""
    s = int(s_max if s_max is not None else rng.integers(1, 5))
    j = int(l3 if l3 is not None else rng.integers(0, 4))
    m_r = np.sort(10.0 ** rng.uniform(-0.5, 3.0, s))[::-1]
    m_d = np.sort(10.0 ** rng.uniform(-0.5, 3.0, j))[::-1]
    return AsymptoticProblem(m_r=m_r, m_d=m_d, power=1.0)


def random_plan(rng: np.random.Generator, ny: int) -> PartitionPlan:
    """Realized plan of 1..min(4, ny) sub-surfaces on ``ny`` columns."""
    s = int(rng.integers(1, min(4, ny) + 1))
    cuts = np.sort(rng.choice(np.arange(1, ny), size=s - 1, replace=False))
    counts = np.diff(np.concatenate([[0], cuts, [ny]])).astype(int)
    gradients = [PhaseGradient(rng.uniform(-2, 2), rng.uniform(-2, 2))
                 for _ in range(s)]
    return PartitionPlan(column_counts=counts, gradients=gradients,
                         psi=rng.uniform(0, 2 * np.pi, s))


def gain_identity(rng: np.random.Generator, count: int) -> list[Line]:
    """Direct-sum gain equals the closed form to 1e-10 (criterion 2)."""
    worst = 0.0
    for _ in range(count):
        nx = int(rng.integers(1, 17))
        ny = int(rng.integers(2, 17))
        ris = RisGeometry(nx=nx, ny=ny, element_spacing=0.5, wavelength=1.0)
        plan = random_plan(rng, ny)
        theta = build_theta(plan, ris)
        for zeta in [(rng.uniform(-2, 2), rng.uniform(-2, 2)),
                     (plan.gradients[0].g_x, plan.gradients[0].g_y)]:
            gap = abs(gain_direct_sum(theta, ris, zeta)
                      - gain_closed_form(plan, ris, zeta))
            worst = max(worst, gap)
    return [(f"direct-sum vs closed-form gain ({count} plans)",
             worst < 1e-10, f"worst gap {worst:.2e}")]


def brute_force_agreement(rng: np.random.Generator,
                          count: int) -> list[Line]:
    """Solve within the brute-force resolution bound (criterion 3)."""
    ok, detail = True, "within resolution bound"
    for i in range(count):
        problem = random_problem(rng, s_max=int(rng.integers(1, 4)),
                                 l3=int(rng.integers(0, 3)))
        sol = solve(problem)
        oracle_rate, _ = brute_force_p3(problem)
        # two-sided: never below the oracle by >1e-3 relative, and the
        # oracle is at least the solver point snapped onto its own lattice
        snapped = snap_allocation(problem, sol.allocation)
        resolution_loss = sol.rate - rate(problem, snapped, validate=False)
        if sol.rate < oracle_rate * (1 - 1e-3):
            ok, detail = False, (f"instance {i}: solve {sol.rate:.6f} below "
                                 f"oracle {oracle_rate:.6f}")
            break
        if oracle_rate < sol.rate - resolution_loss - 1e-9:
            ok, detail = False, (f"instance {i}: oracle {oracle_rate:.6f} "
                                 f"below resolution bound")
            break
    return [(f"dual solve vs brute force ({count} instances)", ok, detail)]


def sorted_pairing(rng: np.random.Generator, count: int) -> list[Line]:
    """Sorted pairing never beaten by a permutation (criterion 4)."""
    ok, detail = True, "never beaten"
    for i in range(count):
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
    return [(f"sorted pairing optimal ({count} instances)", ok, detail)]


def kkt_invariants(rng: np.random.Generator, count: int) -> list[Line]:
    """KKT pattern lemmas at the solve (criterion 5)."""
    worst_lin, worst_ord, worst_pat = 0.0, 0.0, 0.0
    for _ in range(count):
        problem = random_problem(rng)
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
    return [
        (f"linear ratio/power relation ({count} instances)",
         worst_lin < 1e-6, f"linear {worst_lin:.2e}"),
        ("non-increasing ordering", worst_ord <= 1e-9,
         f"order {worst_ord:.2e}"),
        ("pattern-form membership", worst_pat < 1e-6,
         f"pattern {worst_pat:.2e}"),
    ]


def lm_agreement(rng: np.random.Generator, count: int) -> list[Line]:
    """Warm and cold LM agree with the solve on 95% (criterion 6)."""
    agree = 0
    worst_residual = 0.0
    for _ in range(count):
        problem = random_problem(rng)
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
            a = sol.allocation
            x = np.concatenate([a.p_r[g.s_active], a.p_d[g.i_active],
                                a.t[g.s_active], [sol.v, sol.w]])
            res = np.linalg.norm(lm_residual(
                x, problem.m_r[g.s_active], problem.m_d[g.i_active],
                problem.power))
            worst_residual = max(worst_residual, res)
            if res >= 1e-10:
                instance_ok = False
                break
        agree += instance_ok
    return [(f"warm- and cold-started LM within 0.5% of the solve "
             f"({count} instances)", agree >= 0.95 * count,
             f"{agree}/{count} agreed, worst converged residual "
             f"{worst_residual:.2e}")]


def water_filling_budget(rng: np.random.Generator,
                         count: int) -> list[Line]:
    """Water-filling budget, slackness and the [4,1] case (criterion 9)."""
    p, v = water_filling([4.0, 1.0], 1.0)
    case_ok = (abs(p[0] - 0.875) < 1e-12 and abs(p[1] - 0.125) < 1e-12)
    worst_budget = 0.0
    slack_ok = True
    for _ in range(count):
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
    return [(f"water-filling budget/slackness ({count} draws) and the "
             f"m=[4,1] case", case_ok and worst_budget < 1e-12 and slack_ok,
             f"worst budget error {worst_budget:.2e}")]


def refinement_monotone(rng: np.random.Generator,
                        count: int) -> list[Line]:
    """Phase refinement never lowers the rate.

    The realizations come from one config seed drawn from ``rng``.
    """
    config = SimulationConfig(m_t=16, m_r=16, n_x=12, n_y=24,
                              l1=2, l2=3, l3=2, realizations=1,
                              seed=int(rng.integers(2 ** 31)))
    ok, detail = True, "monotone"
    for i in range(count):
        run_rng = realization_rng(config.seed, i)
        realization = realize_channels(config, run_rng)
        sol = solve(coefficients(realization))
        ev = adapt_solution(sol, realization, run_rng)
        refined = refine_common_phases(ev, sweeps=1, grid_points=16)
        if refined.rate < ev.rate - 1e-12 or ev.rate < 0:
            ok, detail = False, f"rate decreased at seed {i}"
            break
    return [(f"phase refinement monotone ({count} realizations)", ok,
             detail)]


# suite name -> (check, draw count) run in order on one generator
SUITES = {
    "gains": ((gain_identity, 50),),
    "lemmas": ((kkt_invariants, 200),),
    "propositions": ((brute_force_agreement, 25), (sorted_pairing, 25)),
    "solvers": ((water_filling_budget, 100), (lm_agreement, 50)),
    "finite": ((refinement_monotone, 5),),
}


def verify(suite: str, seed: int = 0) -> tuple[bool, list[str]]:
    """Run a named suite or "all"; returns (all passed, report lines)."""
    if suite != "all" and suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}")
    passed = True
    lines = []
    for name in SUITES if suite == "all" else [suite]:
        rng = np.random.default_rng(seed)
        for check, count in SUITES[name]:
            for label, ok, detail in check(rng, count):
                passed &= ok
                lines.append(f"[{'PASS' if ok else 'FAIL'}] {name}: "
                             f"{label} ({detail})")
    return passed, lines
