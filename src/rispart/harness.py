"""Monte-Carlo experiment orchestration and property-suite runner.

An experiment sweeps one parameter (RIS size, antenna count, power, or
transmit SNR), solving and finite-evaluating many seeded channel
realizations per sweep value, and emits a CSV table plus a JSON metadata
sidecar.  The verify suites re-run the analytical properties (gain
identities, KKT lemmas, pairing/pattern optimality, agreement with the
Levenberg-Marquardt cross-check, finite-size behavior) against the oracles
with fixed seeds.
"""

from __future__ import annotations

import configparser
import csv
import dataclasses
import json
import subprocess
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from rispart.asymptotic import (AsymptoticProblem, coefficients,
                                optimal_pairing, rate)
from rispart.channel import (SimulationConfig, dbm_to_watts, load_config,
                             realization_rng, realize_channels)
from rispart.finite import adapt_solution, refine_common_phases
from rispart.oracle import (LmDivergenceError, brute_force_p3,
                            enumerate_pairings, lm_cold_start,
                            snap_allocation)
from rispart.partition import (PartitionPlan, PhaseGradient, RisGeometry,
                               build_theta, gain_closed_form,
                               gain_direct_sum)
from rispart.solver import _pattern_sum, solve, solve_p32, water_filling

SWEEPS = ("N", "M", "P", "SNR")
PSI_MODES = ("random", "refine")

CSV_COLUMNS = ["seed", "sweep_value", "rate_asymptotic", "rate_finite",
               "activated_cascaded", "activated_direct", "s_min_star",
               "wall_ms", "error"]
EXPERIMENT_KEYS = ("sweep", "values", "psi", "realizations", "out")


@dataclass
class ExperimentSpec:
    """One sweep: base config, swept variable and values, run options."""

    config: SimulationConfig
    sweep: str
    values: list[float]
    psi_mode: str = "random"
    out: str | None = None
    realizations: int | None = None

    def __post_init__(self):
        if self.sweep not in SWEEPS:
            raise ValueError(f"unknown sweep variable {self.sweep!r}")
        if not self.values:
            raise ValueError("sweep value list must be nonempty")
        if self.psi_mode not in PSI_MODES:
            raise ValueError(f"unknown psi mode {self.psi_mode!r}")
        if self.realizations is not None and self.realizations < 1:
            raise ValueError("realization count must be >= 1")

    @property
    def runs_per_value(self) -> int:
        return self.realizations or self.config.realizations


@dataclass
class ResultRow:
    """One realization's outcome within a sweep."""

    seed: int
    sweep_value: float
    rate_asymptotic: float
    rate_finite: float
    activated_cascaded: int
    activated_direct: int
    s_min_star: int
    wall_ms: float
    error: str = ""


def load_experiment(path: str) -> ExperimentSpec:
    """Read an experiment file: simulation keys plus an [experiment]
    section with ``sweep``, ``values``, and optional ``psi``,
    ``realizations``, ``out``; any other key there is an error."""
    parser = configparser.ConfigParser()
    if not parser.read(path):
        raise FileNotFoundError(path)
    if "experiment" not in parser:
        raise ValueError("missing [experiment] section")
    exp = parser["experiment"]
    unknown = sorted(set(exp) - set(EXPERIMENT_KEYS))
    if unknown:
        raise ValueError(f"unknown [experiment] keys {unknown}")
    config = load_config(path, ignore_sections=("experiment",))
    kwargs = {}
    if "realizations" in exp:
        kwargs["realizations"] = exp.getint("realizations")
    if "out" in exp:
        kwargs["out"] = exp["out"]
    return ExperimentSpec(
        config=config,
        sweep=exp["sweep"],
        values=[float(x) for x in exp["values"].split(",")],
        psi_mode=exp.get("psi", "random"),
        **kwargs)


def _apply_sweep(config: SimulationConfig, sweep: str,
                 value: float) -> SimulationConfig:
    if sweep == "N":
        n = int(value)
        if n % config.n_x:
            raise ValueError(f"swept N={n} not divisible by Nx={config.n_x}")
        return dataclasses.replace(config, n_y=n // config.n_x)
    if sweep == "M":
        m = int(value)
        return dataclasses.replace(config, m_t=m, m_r=m)
    if sweep == "P":
        return dataclasses.replace(config, power_watts=dbm_to_watts(value))
    # SNR in dB over the configured noise power
    return dataclasses.replace(
        config, power_watts=config.noise_watts * 10.0 ** (value / 10.0))


def _run_one(task) -> ResultRow:
    config, sweep, value, index, psi_mode = task
    start = time.perf_counter()
    try:
        cfg = _apply_sweep(config, sweep, value)
        rng = realization_rng(cfg.seed, index)
        realization = realize_channels(cfg, rng)
        pairing = optimal_pairing(cfg.l1, cfg.l2)
        problem = coefficients(realization, pairing, cfg)
        sol = solve(problem)
        ev = adapt_solution(sol, realization, cfg.ris_geometry, rng)
        if psi_mode == "refine":
            ev = refine_common_phases(ev)
        wall = (time.perf_counter() - start) * 1e3
        return ResultRow(
            seed=index, sweep_value=value,
            rate_asymptotic=sol.rate, rate_finite=ev.rate,
            activated_cascaded=len(sol.s_active),
            activated_direct=len(sol.i_active),
            s_min_star=sol.s_min_star, wall_ms=wall)
    except Exception as exc:  # flag and keep sweeping
        wall = (time.perf_counter() - start) * 1e3
        return ResultRow(seed=index, sweep_value=value,
                         rate_asymptotic=0.0, rate_finite=0.0,
                         activated_cascaded=0, activated_direct=0,
                         s_min_star=0, wall_ms=wall,
                         error=f"{type(exc).__name__}: {exc}")


def run_experiment(spec: ExperimentSpec, jobs: int = 1,
                   ) -> tuple[list[ResultRow], dict]:
    """Execute the sweep and return sorted rows plus a summary.

    The summary maps each sweep value to its mean rates and mean activated
    path counts (failed rows excluded).  Rows are sorted by (sweep value
    order, seed), so worker scheduling never changes the output.
    """
    runs = spec.runs_per_value
    tasks = [(spec.config, spec.sweep, value, vi * runs + r,
              spec.psi_mode)
             for vi, value in enumerate(spec.values)
             for r in range(runs)]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            rows = list(pool.map(_run_one, tasks))
    else:
        rows = [_run_one(t) for t in tasks]

    order = {v: i for i, v in enumerate(spec.values)}
    rows.sort(key=lambda r: (order[r.sweep_value], r.seed))
    summary = {}
    for value in spec.values:
        good = [r for r in rows if r.sweep_value == value and not r.error]
        summary[value] = {
            "mean_rate_asymptotic": float(np.mean(
                [r.rate_asymptotic for r in good])) if good else float("nan"),
            "mean_rate_finite": float(np.mean(
                [r.rate_finite for r in good])) if good else float("nan"),
            "mean_activated_cascaded": float(np.mean(
                [r.activated_cascaded for r in good])) if good else float("nan"),
            "mean_activated_direct": float(np.mean(
                [r.activated_direct for r in good])) if good else float("nan"),
            "failures": sum(1 for r in rows
                            if r.sweep_value == value and r.error),
        }
    if spec.out:
        write_results(spec, rows, summary)
    return rows, summary


def _git_describe() -> str:
    try:
        return subprocess.run(["git", "describe", "--always", "--dirty"],
                              capture_output=True, text=True, timeout=10,
                              check=False).stdout.strip() or "unknown"
    except OSError:
        return "unknown"


def write_results(spec: ExperimentSpec, rows: list[ResultRow],
                  summary: dict) -> None:
    """CSV table plus a JSON sidecar with the resolved configuration."""
    with open(spec.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for r in rows:
            writer.writerow([r.seed, repr(r.sweep_value),
                             repr(r.rate_asymptotic), repr(r.rate_finite),
                             r.activated_cascaded, r.activated_direct,
                             r.s_min_star, f"{r.wall_ms:.3f}", r.error])
    meta = {
        "config": dataclasses.asdict(spec.config),
        "sweep": spec.sweep,
        "values": spec.values,
        "psi_mode": spec.psi_mode,
        "realizations": spec.runs_per_value,
        "git": _git_describe(),
        "summary": {repr(k): v for k, v in summary.items()},
    }
    with open(spec.out + ".meta.json", "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)


def fig3_regions(m, snr_lo: float = 0.0, snr_hi: float = 10.0,
                 step: float = 0.01) -> dict:
    """Pattern existence/optimality regions over transmit SNR.

    For each SNR (dB) the per-path coefficients are scaled by the linear
    SNR (equal power split across the paired paths), the all-plus pattern
    existence condition is evaluated, and the partition-ratio problem is
    solved exactly.  Returns the per-SNR table and the two thresholds:
    where the all-plus pattern first exists and where it first becomes
    optimal.
    """
    m = np.asarray(m, dtype=float)
    if np.any(np.diff(m) > 0):
        raise ValueError("m must be sorted non-increasing")
    rows = []
    exist_at = None
    optimal_at = None
    for snr in np.arange(snr_lo, snr_hi + step / 2.0, step):
        m_tilde = m * 10.0 ** (snr / 10.0)
        exists = _pattern_sum(np.sqrt(m_tilde[-1]), m_tilde) <= 1.0
        t, _ = solve_p32(m_tilde)
        k_opt = int(np.count_nonzero(t))
        rows.append({"snr_db": float(snr), "all_plus_exists": bool(exists),
                     "active_count": k_opt})
        if exists and exist_at is None:
            exist_at = float(snr)
        if k_opt == m.size and optimal_at is None:
            optimal_at = float(snr)
    return {"rows": rows, "all_plus_exists_db": exist_at,
            "all_plus_optimal_db": optimal_at}


# ---------------------------------------------------------------------------
# verification suites


def _random_problem(rng: np.random.Generator, s_max: int | None = None,
                    l3: int | None = None,
                    power: float = 1.0) -> AsymptoticProblem:
    s = int(s_max or rng.integers(1, 5))
    j = int(rng.integers(0, 4)) if l3 is None else l3
    m_r = np.sort(10.0 ** rng.uniform(-0.5, 3.0, size=s))[::-1]
    m_d = np.sort(10.0 ** rng.uniform(-0.5, 3.0, size=j))[::-1] \
        if j else np.empty(0)
    return AsymptoticProblem(m_r=m_r, m_d=m_d, power=power)


def _random_plan(rng: np.random.Generator, ny: int) -> PartitionPlan:
    s = int(rng.integers(1, min(4, ny) + 1))
    cuts = np.sort(rng.choice(np.arange(1, ny), size=s - 1, replace=False))
    counts = np.diff(np.concatenate([[0], cuts, [ny]])).astype(int)
    gradients = [PhaseGradient(rng.uniform(-2, 2), rng.uniform(-2, 2))
                 for _ in range(s)]
    return PartitionPlan(t=counts / ny, gradients=gradients,
                         psi=rng.uniform(0, 2 * np.pi, size=s),
                         column_counts=counts)


def _suite_gains(rng: np.random.Generator) -> list[tuple[str, bool, str]]:
    checks = []
    worst = 0.0
    for _ in range(50):
        nx = int(rng.integers(2, 17))
        ny = int(rng.integers(2, 17))
        ris = RisGeometry(nx=nx, ny=ny, element_spacing=0.5, wavelength=1.0)
        plan = _random_plan(rng, ny)
        theta = build_theta(plan, ris)
        for zeta in [(rng.uniform(-2, 2), rng.uniform(-2, 2)),
                     (plan.gradients[0].g_x, plan.gradients[0].g_y)]:
            gap = abs(gain_direct_sum(theta, ris, zeta)
                      - gain_closed_form(plan, ris, zeta))
            worst = max(worst, gap)
    checks.append(("direct-sum vs closed-form gain (50 plans)",
                   worst < 1e-10, f"worst gap {worst:.2e}"))
    return checks


def _suite_lemmas(rng: np.random.Generator) -> list[tuple[str, bool, str]]:
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
                root = np.sqrt(max(1.0 / sol.w ** 2 - 1.0 / m_tilde, 0.0))
                gap = min(abs(a.t[s] - (1.0 / sol.w + root)),
                          abs(a.t[s] - (1.0 / sol.w - root)))
                worst_pat = max(worst_pat, gap)
    return [
        ("linear ratio/power relation (200 instances)", worst_lin < 1e-6,
         f"worst {worst_lin:.2e}"),
        ("non-increasing ordering", worst_ord <= 1e-9,
         f"worst {worst_ord:.2e}"),
        ("pattern-form membership", worst_pat < 1e-6,
         f"worst {worst_pat:.2e}"),
    ]


def _suite_propositions(rng: np.random.Generator,
                        ) -> list[tuple[str, bool, str]]:
    checks = []
    # pattern pruning against the brute-force lattice
    ok = True
    detail = ""
    for _ in range(25):
        problem = _random_problem(rng, s_max=int(rng.integers(1, 4)),
                                  l3=int(rng.integers(0, 3)))
        sol = solve(problem)
        oracle_rate, _ = brute_force_p3(problem)
        snapped = snap_allocation(problem, sol.allocation)
        bound = sol.rate - rate(problem, snapped, validate=False)
        if sol.rate < oracle_rate * (1 - 1e-3) \
                or oracle_rate < sol.rate - bound - 1e-9:
            ok = False
            detail = (f"solve {sol.rate:.6f} vs oracle {oracle_rate:.6f}")
            break
    checks.append(("pattern pruning vs brute force (25 instances)", ok,
                   detail or "within resolution bound"))
    # sorted pairing vs all permutations
    ok = True
    detail = ""
    for _ in range(25):
        tx = (rng.standard_normal(3) + 1j * rng.standard_normal(3))
        rx = (rng.standard_normal(3) + 1j * rng.standard_normal(3))
        tx = tx[np.argsort(-np.abs(tx))]
        rx = rx[np.argsort(-np.abs(rx))]
        table = enumerate_pairings(tx, rx, power=1.0, scale=100.0)
        sorted_rate = dict((p, r) for p, r in table)[
            tuple(zip(range(3), range(3)))]
        if table[0][1] > sorted_rate + 1e-8:
            ok = False
            detail = f"beaten by {table[0][0]}"
            break
    checks.append(("sorted pairing optimal (25 instances)", ok,
                   detail or "never beaten"))
    return checks


def _suite_solvers(rng: np.random.Generator) -> list[tuple[str, bool, str]]:
    checks = []
    # water-filling budget and slackness
    worst = 0.0
    for _ in range(100):
        m = np.sort(10.0 ** rng.uniform(-1, 2, size=rng.integers(1, 6)))[::-1]
        budget = float(10.0 ** rng.uniform(-1, 1))
        p, v = water_filling(m, budget)
        worst = max(worst, abs(p.sum() - budget) / budget)
        active = p > 0
        if np.any(active):
            worst = max(worst, float(np.max(
                np.abs(1.0 / v - 1.0 / m[active] - p[active]))) / budget)
    checks.append(("water-filling budget/slackness (100 draws)",
                   worst < 1e-12, f"worst {worst:.2e}"))
    # exact solve vs cold-started LM over every activated block
    agree = 0
    total = 50
    for _ in range(total):
        problem = _random_problem(rng)
        sol = solve(problem)
        try:
            lm = lm_cold_start(problem)
        except LmDivergenceError:
            continue
        if lm.rate >= sol.rate * (1 - 5e-3):
            agree += 1
    checks.append((f"cold-started LM within 0.5% of the solve "
                   f"({total} draws)",
                   agree >= 0.95 * total, f"{agree}/{total}"))
    return checks


def _suite_finite(rng: np.random.Generator) -> list[tuple[str, bool, str]]:
    config = SimulationConfig(m_t=16, m_r=16, n_x=12, n_y=24,
                              l1=2, l2=3, l3=2, realizations=1, seed=7)
    checks = []
    ok = True
    detail = ""
    for i in range(5):
        run_rng = realization_rng(config.seed, i)
        realization = realize_channels(config, run_rng)
        problem = coefficients(realization, optimal_pairing(config.l1,
                                                            config.l2),
                               config)
        sol = solve(problem)
        ev = adapt_solution(sol, realization, config.ris_geometry, run_rng)
        refined = refine_common_phases(ev, sweeps=1, grid_points=16)
        if refined.rate < ev.rate - 1e-12 or ev.rate < 0:
            ok = False
            detail = f"rate decreased at seed {i}"
            break
    checks.append(("phase refinement monotone (5 realizations)", ok,
                   detail or "monotone"))
    return checks


_SUITES = {
    "gains": _suite_gains,
    "lemmas": _suite_lemmas,
    "propositions": _suite_propositions,
    "solvers": _suite_solvers,
    "finite": _suite_finite,
}


def verify(suite: str, seed: int = 0) -> tuple[bool, list[str]]:
    """Run a named property suite; returns (all passed, report lines)."""
    if suite == "all":
        names = list(_SUITES)
    elif suite in _SUITES:
        names = [suite]
    else:
        raise ValueError(f"unknown suite {suite!r}")
    passed = True
    lines = []
    for name in names:
        rng = np.random.default_rng(seed)
        for check, ok, detail in _SUITES[name](rng):
            passed &= ok
            lines.append(f"[{'PASS' if ok else 'FAIL'}] {name}: "
                         f"{check} ({detail})")
    return passed, lines
