"""Monte-Carlo experiment orchestration and pattern region tables.

An experiment sweeps one parameter (RIS size, antenna count, power, or
transmit SNR), solving and finite-evaluating many seeded channel
realizations per sweep value, and emits a CSV table plus a JSON metadata
sidecar.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import os
import platform
import subprocess
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from rispart.asymptotic import coefficients
from rispart.channel import (SimulationConfig, dbm_to_watts, load_config,
                             read_config_file, realization_rng,
                             realize_channels)
from rispart.finite import adapt_solution, refine_common_phases
from rispart.solver import all_plus_exists, solve, solve_p32

SWEEPS = ("N", "M", "P", "SNR")
PSI_MODES = ("random", "refine")

EXPERIMENT_KEYS = ("sweep", "values", "psi", "realizations", "out")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass
class ExperimentSpec:
    """One sweep: base config, swept variable and distinct values, run
    options; a constructor-only ``realizations`` replaces the config's."""

    config: SimulationConfig
    sweep: str
    values: list[float]
    psi_mode: str = "random"
    out: str | None = None
    realizations: dataclasses.InitVar[int | None] = None

    def __post_init__(self, realizations):
        if realizations not in (None, self.config.realizations):
            self.config = dataclasses.replace(self.config,
                                              realizations=realizations)
        if self.sweep not in SWEEPS:
            raise ValueError(f"unknown sweep variable {self.sweep!r}")
        if not self.values:
            raise ValueError("sweep value list must be nonempty")
        if not np.isfinite(self.values).all():
            raise ValueError(f"sweep values must be finite, got "
                             f"{self.values}")
        repeated = sorted({v for v in self.values if self.values.count(v) > 1})
        if repeated:
            raise ValueError(f"sweep values {repeated} are repeated")
        if self.psi_mode not in PSI_MODES:
            raise ValueError(f"unknown psi mode {self.psi_mode!r}")
        self.sweep_configs()  # a swept value the config rejects fails here

    def sweep_configs(self) -> list[SimulationConfig]:
        """The config of each sweep value, in value order; a ValueError
        names the value the config rejects."""
        configs = []
        for value in self.values:
            try:
                configs.append(_apply_sweep(self.config, self.sweep, value))
            except ValueError as exc:
                raise ValueError(f"swept {self.sweep} = {value!r}: {exc}"
                                 ) from exc
        return configs


@dataclass(slots=True)
class ResultRow:
    """One realization's outcome within a sweep, one field per CSV column.

    ``draws`` and ``margin`` are the path sampler's diagnostics (see
    :class:`rispart.channel.ChannelRealization`): the larger of the two
    terminal sides' candidate counts and the smaller of their separations
    in units of 1/M, which meets the contract at 2.  They read 0 only
    when sampling failed.  A failed row keeps 0 rates and counts, and its
    ``error`` names the failing stage: ``realize_channels``,
    ``coefficients``, ``solve``, ``adapt_solution`` or
    ``refine_common_phases``.
    """

    seed: int
    sweep_value: float
    rate_asymptotic: float = 0.0
    rate_finite: float = 0.0
    activated_cascaded: int = 0
    activated_direct: int = 0
    s_min_star: int = 0
    wall_ms: float = 0.0
    error: str = ""
    draws: int = 0
    margin: float = 0.0


CSV_COLUMNS = [f.name for f in dataclasses.fields(ResultRow)]


def load_experiment(path: str) -> ExperimentSpec:
    """Read an experiment file: simulation keys plus an [experiment]
    section with ``sweep``, ``values``, and optional ``psi``,
    ``realizations``, ``out``; any other key there is an error."""
    parser = read_config_file(path)
    if "experiment" not in parser:
        raise ValueError("missing [experiment] section")
    exp = parser["experiment"]
    unknown = sorted(set(exp) - set(EXPERIMENT_KEYS))
    if unknown:
        raise ValueError(f"unknown [experiment] keys {unknown}")
    return ExperimentSpec(
        config=load_config(path, ignore_sections=("experiment",)),
        sweep=exp["sweep"],
        values=[float(x) for x in exp["values"].split(",")],
        psi_mode=exp.get("psi", "random"), out=exp.get("out"),
        realizations=exp.getnumber("realizations"))


def _apply_sweep(config: SimulationConfig, sweep: str,
                 value: float) -> SimulationConfig:
    if sweep == "N":
        if value % config.n_x:
            raise ValueError(f"{value} is not divisible by Nx={config.n_x}")
        return dataclasses.replace(config, n_y=value // config.n_x)
    if sweep == "M":
        return dataclasses.replace(config, m_t=value, m_r=value)
    if sweep == "P":
        return dataclasses.replace(config, power_watts=dbm_to_watts(value))
    # SNR in dB over the configured noise power; the config rejects a power
    # that overflows to inf or underflows to 0 W
    try:
        gain = 10.0 ** (value / 10.0)
    except OverflowError:
        gain = np.inf
    return dataclasses.replace(config, power_watts=config.noise_watts * gain)


def _finite_rate(result):
    """``result`` of a stage, which fails when its ``rate`` is not finite:
    a NaN row would otherwise count as a success and void the mean."""
    if not np.isfinite(result.rate):
        raise ValueError(f"rate is not finite: {result.rate!r}")
    return result


def _run_one(task) -> ResultRow:
    config, value, index, psi_mode = task
    start = time.perf_counter()
    row = ResultRow(seed=index, sweep_value=value)
    stage = "realize_channels"
    try:
        rng = realization_rng(config.seed, index)
        realization = realize_channels(config, rng)
        row.draws, row.margin = realization.draws, realization.margin
        stage = "coefficients"
        problem = coefficients(realization)
        stage = "solve"
        sol = _finite_rate(solve(problem))
        stage = "adapt_solution"
        ev = _finite_rate(adapt_solution(sol, realization, rng))
        if psi_mode == "refine":
            stage = "refine_common_phases"
            ev = _finite_rate(refine_common_phases(ev))
        row.rate_asymptotic, row.rate_finite = float(sol.rate), float(ev.rate)
        row.activated_cascaded = row.s_min_star = sol.s_min_star
        row.activated_direct = sol.direct
    except Exception as exc:  # flag and keep sweeping
        row.error = f"{stage}: {type(exc).__name__}: {exc}"
    row.wall_ms = (time.perf_counter() - start) * 1e3
    return row


def check_out_path(path: str | None) -> None:
    """ValueError if ``path`` is a directory or in a missing directory."""
    if path and (Path(path).is_dir() or not Path(path).parent.is_dir()):
        raise ValueError(f"cannot write results to {path!r}: it is a "
                         f"directory or its directory does not exist")


def run_experiment(spec: ExperimentSpec, jobs: int = 1,
                   ) -> tuple[list[ResultRow], dict]:
    """Execute the sweep and return its rows plus a summary.

    Before the first realization, a sweep value the config rejects or an
    output path that cannot be written raises ValueError.  Each value's
    config is resolved once.  With ``jobs`` and the task count above 1,
    ``min(jobs, tasks, usable CPUs)`` worker processes run the tasks; rows
    keep (sweep value, seed) order.  The summary maps each sweep value to
    its mean rates and mean activated path counts (failed rows excluded).
    """
    check_out_path(spec.out)
    runs = spec.config.realizations
    configs = spec.sweep_configs()
    tasks = [(configs[vi], value, vi * runs + r, spec.psi_mode)
             for vi, value in enumerate(spec.values)
             for r in range(runs)]
    if jobs > 1 and len(tasks) > 1:
        # imported here so that a serial run does not load multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        workers = min(jobs, len(tasks), len(os.sched_getaffinity(0)))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_run_one, tasks))
    else:
        rows = [_run_one(t) for t in tasks]

    summary = {}
    for value in spec.values:
        good = [r for r in rows if r.sweep_value == value and not r.error]
        summary[value] = {
            f"mean_{name}": float(np.mean([getattr(r, name) for r in good]))
            if good else float("nan")
            for name in ("rate_asymptotic", "rate_finite",
                         "activated_cascaded", "activated_direct")}
        summary[value]["failures"] = sum(
            1 for r in rows if r.sweep_value == value and r.error)
    if spec.out:
        write_results(spec, rows, summary)
    return rows, summary


def _git_describe() -> str:
    """Commit of the ``src/`` checkout this package sits in, never of the
    caller's working directory; "unknown" outside a checkout."""
    package = Path(__file__).resolve().parent
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(package.parents[2]))
    try:
        return subprocess.run(["git", "describe", "--always", "--dirty"],
                              cwd=package, env=env, capture_output=True,
                              text=True, timeout=10,
                              check=False).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def write_results(spec: ExperimentSpec, rows: list[ResultRow],
                  summary: dict) -> None:
    """CSV table plus a JSON sidecar with the resolved configuration, the
    commit, and the versions and BLAS threads the run depended on; the
    sidecar's ``config.realizations`` is the count per value that ran."""
    with open(spec.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for r in rows:
            # floats round-trip through repr, the wall time to 1 us
            writer.writerow([
                f"{v:.3f}" if name == "wall_ms"
                else repr(v) if isinstance(v, float) else v
                for name, v in zip(CSV_COLUMNS, dataclasses.astuple(r))])
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get(
        "blas", {})
    meta = {
        "config": dataclasses.asdict(spec.config),
        "sweep": spec.sweep,
        "values": spec.values,
        "psi_mode": spec.psi_mode,
        "git": _git_describe(),
        "environment": {
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": {key: blas.get(key) for key in ("name", "version")},
            "threads": {name: os.environ.get(name) for name in THREAD_VARS}},
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
    if not (m.size and np.all(np.isfinite(m) & (m > 0))):
        raise ValueError(f"m must be finite and positive, got {m}")
    if np.any(np.diff(m) > 0):
        raise ValueError("m must be sorted non-increasing")
    if not (np.isfinite([snr_lo, snr_hi, step]).all() and snr_lo <= snr_hi
            and step > 0):
        raise ValueError(f"need finite snr_lo <= snr_hi and step > 0, got "
                         f"{snr_lo}:{snr_hi}:{step}")
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

