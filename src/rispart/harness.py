"""Monte-Carlo experiment orchestration and pattern region tables.

An experiment sweeps one parameter (RIS size, antenna count, power, or
transmit SNR), solving and finite-evaluating many seeded channel
realizations per sweep value, and emits a CSV table plus a JSON metadata
sidecar.
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

from rispart.asymptotic import coefficients, optimal_pairing
from rispart.channel import (SimulationConfig, dbm_to_watts, load_config,
                             realization_rng, realize_channels)
from rispart.finite import adapt_solution, refine_common_phases
from rispart.solver import all_plus_exists, solve, solve_p32

SWEEPS = ("N", "M", "P", "SNR")
PSI_MODES = ("random", "refine")

CSV_COLUMNS = ["seed", "sweep_value", "rate_asymptotic", "rate_finite",
               "activated_cascaded", "activated_direct", "s_min_star",
               "wall_ms", "error", "draws", "margin"]
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
    """One realization's outcome within a sweep.

    ``draws`` and ``margin`` are the path sampler's diagnostics (see
    :class:`rispart.channel.ChannelRealization`); they read 0 when the
    realization failed before its channels were sampled.
    """

    seed: int
    sweep_value: float
    rate_asymptotic: float
    rate_finite: float
    activated_cascaded: int
    activated_direct: int
    s_min_star: int
    wall_ms: float
    error: str = ""
    draws: int = 0
    margin: float = 0.0


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
    stage = "config"
    realization = None
    try:
        cfg = _apply_sweep(config, sweep, value)
        stage = "realize_channels"
        rng = realization_rng(cfg.seed, index)
        realization = realize_channels(cfg, rng)
        stage = "coefficients"
        pairing = optimal_pairing(cfg.l1, cfg.l2)
        problem = coefficients(realization, pairing, cfg)
        stage = "solve"
        sol = solve(problem)
        stage = "adapt_solution"
        ev = adapt_solution(sol, realization, cfg.ris_geometry, rng)
        if psi_mode == "refine":
            stage = "refine_common_phases"
            ev = refine_common_phases(ev)
        wall = (time.perf_counter() - start) * 1e3
        return ResultRow(
            seed=index, sweep_value=value,
            rate_asymptotic=sol.rate, rate_finite=ev.rate,
            activated_cascaded=len(sol.s_active),
            activated_direct=len(sol.i_active),
            s_min_star=sol.s_min_star, wall_ms=wall,
            draws=realization.draws, margin=realization.margin)
    except Exception as exc:  # flag and keep sweeping
        wall = (time.perf_counter() - start) * 1e3
        return ResultRow(seed=index, sweep_value=value,
                         rate_asymptotic=0.0, rate_finite=0.0,
                         activated_cascaded=0, activated_direct=0,
                         s_min_star=0, wall_ms=wall,
                         error=f"{stage}: {type(exc).__name__}: {exc}",
                         draws=realization.draws if realization else 0,
                         margin=realization.margin if realization else 0.0)


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
                             r.s_min_star, f"{r.wall_ms:.3f}", r.error,
                             r.draws, repr(r.margin)])
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
        exists = all_plus_exists(m_tilde)
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

