"""Sweep benchmark worker: runs one workload in one fresh process.

``run.py`` starts this file with the BLAS threads pinned and times set-up
from the outside.  The worker imports rispart from ``src/`` of the checkout
it sits in, builds the spec, finishes one warm-up realization and prints
``ready``.  Unless ``--setup-only`` is given it then measures and prints
one JSON line.

Each realization is one ``harness.run_experiment(spec, jobs=1)`` call,
the code ``rispart simulate`` runs, with a ``P`` sweep of the single value
30 dBm and a config seed derived from the workload seed and the
realization index.  A run keeps going until ``--seconds`` have passed and
at least the workload's fixed set of realizations is done.  Call counts,
rates and check fractions use only that fixed set, so for one seed they
repeat exactly whatever the machine's speed; timings use every
realization.

With ``--trace 1`` each realization runs twice, untraced and traced with
the order alternating, so the tracing overhead compares equal inputs.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import platform
import resource
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import rispart  # noqa: E402
from rispart import harness  # noqa: E402
from rispart.asymptotic import validate_allocation  # noqa: E402
from rispart.channel import SimulationConfig  # noqa: E402
from rispart.solver import kkt_residual  # noqa: E402

from run import THREAD_VARS  # noqa: E402
from spans import Tracer, per_realization  # noqa: E402

if not Path(rispart.__file__).resolve().is_relative_to(ROOT / "src"):
    raise ImportError(f"rispart imported from {rispart.__file__}, not from "
                      f"{ROOT / 'src'}")

POWER_DBM = 30.0
WARMUP_SEED = 0
# Largest accepted kkt_residual(...).max_abs.  The dual grid leaves about
# 1e-3 at both workload sizes (worst 3e-3 over 50 realizations); a
# solution 2% off stationarity exceeds the bound.
KKT_BOUND = 0.05


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    config: SimulationConfig
    psi_mode: str
    fixed_set: int


WORKLOADS = {w.name: w for w in (
    Workload(
        "sweep-paper",
        "M=32, 30x90 RIS, L=5/7/4, P=30 dBm, random phases: the paper "
        "default; the path sampler and the dual-grid solver split a "
        "realization about evenly",
        SimulationConfig(realizations=1), "random", 48),
    Workload(
        "refine-paper",
        "sweep-paper with psi=refine: 512 dense rate evaluations a "
        "realization make the finite phase refinement about 70% of it",
        SimulationConfig(realizations=1), "refine", 20),
    Workload(
        "paths-8x8",
        "M=64, 30x90 RIS, L=8/8/4, P=30 dBm, random phases: the solver's "
        "3^k candidate enumeration is about 90%, the sampler accepts early",
        SimulationConfig(m_t=64, m_r=64, l1=8, l2=8, l3=4, realizations=1),
        "random", 12),
)}

END_TO_END = (
    ("realizations_per_s", "1/s"),
    ("realization_ms.p50", "ms"),
    ("realization_ms.p90", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("ok_fraction", "ratio"),
    ("rate_asymptotic.mean", "bit/s/Hz"),
    ("rate_finite.mean", "bit/s/Hz"),
)

# Per-layer metrics of the traced run: name, unit, better, the wrapped
# function the value comes from, and the end-to-end metric and workload
# it should move.  A metric whose function is gone reads 0 and is listed
# as absent.
PER_LAYER = (
    ("channel.realize_ms.p50", "ms", "lower", "realize_channels",
     "realization_ms.p50 and realizations_per_s on sweep-paper (about "
     "half); about 0 on paths-8x8"),
    ("channel.realize_ms.p90", "ms", "lower", "realize_channels",
     "realization_ms.p90 on sweep-paper"),
    ("channel.sample_paths_calls", "count", "lower", "sample_paths",
     "channel.realize_ms on sweep-paper; repeats exactly for one seed"),
    ("channel.contract_met_fraction", "ratio", "higher", "realize_channels",
     "must not fall on any workload; guards rate_*"),
    ("channel.synth_channel_ms", "ms", "lower", "synth_channel",
     "realization_ms.p50 on all workloads (small at N=2700)"),
    ("channel.effective_channel_ms", "ms", "lower", "effective_channel",
     "realizations_per_s on refine-paper"),
    ("channel.effective_channel_calls", "count", "lower",
     "effective_channel", "realizations_per_s on refine-paper"),
    ("asymptotic.coefficients_ms", "ms", "lower", "coefficients",
     "nothing expected (under 0.1%); listed so a regression shows"),
    ("solver.solve_ms.p50", "ms", "lower", "solve",
     "realization_ms.p50 and realizations_per_s on paths-8x8 (about 90%) "
     "and sweep-paper (about half)"),
    ("solver.solve_ms.p90", "ms", "lower", "solve",
     "realization_ms.p90 on paths-8x8 and sweep-paper"),
    ("solver.kkt_max_residual", "1", "lower", "solve",
     "rate_asymptotic.mean on paths-8x8 and sweep-paper"),
    ("partition.build_theta_ms", "ms", "lower", "build_theta",
     "realizations_per_s on refine-paper"),
    ("partition.build_theta_calls", "count", "lower", "build_theta",
     "realizations_per_s on refine-paper"),
    ("finite.adapt_ms.p50", "ms", "lower", "adapt_solution",
     "realization_ms.p50 on sweep-paper (about 1%)"),
    ("finite.adapt_ms.p90", "ms", "lower", "adapt_solution",
     "realization_ms.p90 on sweep-paper"),
    ("finite.refine_ms.p50", "ms", "lower", "refine_common_phases",
     "realizations_per_s and rate_finite.mean on refine-paper; 0 elsewhere"),
    ("finite.refine_ms.p90", "ms", "lower", "refine_common_phases",
     "realization_ms.p90 on refine-paper; 0 elsewhere"),
    ("finite.logdet_rate_calls", "count", "lower", "logdet_rate",
     "realizations_per_s on refine-paper"),
    ("finite.logdet_rate_ms", "ms", "lower", "logdet_rate",
     "realizations_per_s on refine-paper"),
    ("finite.rewaterfilled_fraction", "ratio", "lower", "adapt_solution",
     "must not change under a performance change, on any workload"),
    ("harness.self_ms", "ms", "lower", None,
     "realization_ms.p50 on all workloads (expected tiny)"),
    ("trace.overhead_pct", "%", "lower", None,
     "nothing; the cost of tracing on all workloads"),
)


@dataclass
class Realization:
    """One measured realization and what was checked on it."""

    index: int
    ms: float
    row: harness.ResultRow
    failures: list[str]
    traced_ms: float | None = None
    diagnostics: dict = field(default_factory=dict)


def realization_seed(seed: int, index: int) -> int:
    """Config seed of measured realization ``index``; never WARMUP_SEED."""
    return (seed + 1) * 1_000_000 + index


def make_spec(workload: Workload, config_seed: int) -> harness.ExperimentSpec:
    return harness.ExperimentSpec(
        config=dataclasses.replace(workload.config, seed=config_seed),
        sweep="P", values=[POWER_DBM], psi_mode=workload.psi_mode,
        realizations=1)


def run_once(spec: harness.ExperimentSpec) -> tuple[float, harness.ResultRow]:
    start = time.perf_counter()
    rows, _ = harness.run_experiment(spec, jobs=1)
    return (time.perf_counter() - start) * 1e3, rows[0]


def run_traced(spec: harness.ExperimentSpec, tracer: Tracer,
               index: int) -> tuple[float, harness.ResultRow]:
    tracer.realization = index
    tracer.install()
    try:
        start = time.perf_counter()
        rows, _ = tracer.call("run_experiment", harness.run_experiment,
                              spec, jobs=1)
        return (time.perf_counter() - start) * 1e3, rows[0]
    finally:
        tracer.uninstall()


def warm_up(workload: Workload) -> None:
    """One cold realization on a fixed input, the same for every seed."""
    _, row = run_once(make_spec(workload, WARMUP_SEED))
    if row.error:
        raise RuntimeError(f"warm-up realization failed: {row.error}")


def check_row(config: SimulationConfig, row: harness.ResultRow) -> list[str]:
    if row.error:
        return [f"error: {row.error}"]
    out = []
    for name in ("rate_asymptotic", "rate_finite"):
        value = getattr(row, name)
        if not (math.isfinite(value) and value > 0):
            out.append(f"{name}={value!r} is not finite and positive")
    if not 1 <= row.activated_cascaded <= min(config.l1, config.l2):
        out.append(f"activated_cascaded={row.activated_cascaded} outside "
                   f"[1, {min(config.l1, config.l2)}]")
    if not 0 <= row.activated_direct <= config.l3:
        out.append(f"activated_direct={row.activated_direct} outside "
                   f"[0, {config.l3}]")
    return out


def spacing_met(path_sets, config: SimulationConfig) -> bool:
    """Whether the paths each terminal sees are at least 2/M apart.

    Distances are between direction cosines ``2 d/lambda sin(angle)``,
    wrapped with period 2 as the steering vector is.
    """
    def met(angles, m):
        phi = 2.0 * config.spacing_wavelengths * np.sin(np.asarray(angles))
        gaps = np.abs(phi[:, None] - phi[None, :]) % 2.0
        gaps = np.minimum(gaps, 2.0 - gaps)[np.triu_indices(phi.size, 1)]
        return gaps.size == 0 or gaps.min() * m >= 2.0

    tx, rx, direct = (path_sets["tx_ris"], path_sets["ris_rx"],
                      path_sets["tx_rx"])
    return (met(np.concatenate([tx.departure, direct.departure]), config.m_t)
            and met(np.concatenate([rx.arrival, direct.arrival]), config.m_r))


def check_traced(config: SimulationConfig, results: dict,
                 ) -> tuple[list[str], dict]:
    """Checks and diagnostics from the values the wrapped calls returned."""
    failures, diag = [], {}
    for sol in results.get("solve", []):
        try:
            validate_allocation(sol.problem, sol.allocation)
        except ValueError as exc:
            failures.append(f"validate_allocation: {exc}")
        kkt = kkt_residual(sol.problem, sol).max_abs
        diag["kkt"] = max(diag.get("kkt", 0.0), kkt)
        if not kkt <= KKT_BOUND:
            failures.append(f"kkt residual {kkt:.3g} above {KKT_BOUND}")
    for realization in results.get("realize_channels", []):
        diag["contract_met"] = spacing_met(realization.path_sets, config)
    for ev in results.get("adapt_solution", []):
        diag["rewaterfilled"] = bool(ev.rewaterfilled)
    for adapted, refined in zip(results.get("adapt_solution", []),
                                results.get("refine_common_phases", [])):
        if refined.rate < adapted.rate:
            failures.append(f"refined rate {refined.rate!r} below "
                            f"unrefined {adapted.rate!r}")
    return failures, diag


def measure(workload: Workload, seed: int, seconds: float,
            tracer: Tracer | None = None) -> tuple[list[Realization], float]:
    """Realizations until ``seconds`` pass and the fixed set is done."""
    out = []
    start = time.perf_counter()
    deadline = start + seconds
    while len(out) < workload.fixed_set or time.perf_counter() < deadline:
        index = len(out)
        spec = make_spec(workload, realization_seed(seed, index))
        if tracer is None:
            ms, row = run_once(spec)
            out.append(Realization(index, ms, row,
                                   check_row(workload.config, row)))
            continue
        if index % 2:
            traced_ms, traced_row = run_traced(spec, tracer, index)
            ms, row = run_once(spec)
        else:
            ms, row = run_once(spec)
            traced_ms, traced_row = run_traced(spec, tracer, index)
        failures = check_row(workload.config, row)
        if (dataclasses.replace(traced_row, wall_ms=row.wall_ms) != row
                and not failures):
            failures.append("traced and untraced outputs differ")
        more, diag = check_traced(workload.config, tracer.take_results())
        out.append(Realization(index, ms, row, failures + more, traced_ms,
                               diag))
    return out, time.perf_counter() - start


def _p90(values) -> float:
    return float(np.percentile(values, 90))


def end_to_end_metrics(workload: Workload, runs: list[Realization],
                       wall_s: float) -> dict[str, float]:
    """Every end-to-end metric but setup_s, which run.py measures."""
    ms = [r.ms for r in runs]
    good = [r.row for r in runs[:workload.fixed_set] if not r.failures]
    failed = sum(1 for r in runs if r.failures)
    return {
        "realizations_per_s": len(runs) / wall_s,
        "realization_ms.p50": float(np.median(ms)),
        "realization_ms.p90": _p90(ms),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_fraction": 1.0 - failed / len(runs),
        "rate_asymptotic.mean": float(np.mean(
            [r.rate_asymptotic for r in good])) if good else 0.0,
        "rate_finite.mean": float(np.mean(
            [r.rate_finite for r in good])) if good else 0.0,
    }


def per_layer_metrics(workload: Workload, runs: list[Realization],
                      tracer: Tracer) -> dict[str, float]:
    stats = per_realization(tracer.spans)
    fixed = runs[:workload.fixed_set]

    def times(name, key="ms"):
        return [stats.get(r.index, {}).get(name, {}).get(key, 0.0)
                for r in runs]

    def calls(name):
        return float(np.mean([stats.get(r.index, {}).get(name, {})
                              .get("calls", 0) for r in fixed]))

    def fraction(key):
        flags = [r.diagnostics[key] for r in fixed if key in r.diagnostics]
        return float(np.mean(flags)) if flags else 0.0

    traced = [r.traced_ms for r in runs]
    untraced = [r.ms for r in runs]
    return {
        "channel.realize_ms.p50": float(np.median(times("realize_channels"))),
        "channel.realize_ms.p90": _p90(times("realize_channels")),
        "channel.sample_paths_calls": calls("sample_paths"),
        "channel.contract_met_fraction": fraction("contract_met"),
        "channel.synth_channel_ms": float(np.median(
            times("synth_channel", "self_ms"))),
        "channel.effective_channel_ms": float(np.median(
            times("effective_channel"))),
        "channel.effective_channel_calls": calls("effective_channel"),
        "asymptotic.coefficients_ms": float(np.median(times("coefficients"))),
        "solver.solve_ms.p50": float(np.median(times("solve"))),
        "solver.solve_ms.p90": _p90(times("solve")),
        "solver.kkt_max_residual": max(
            (r.diagnostics.get("kkt", 0.0) for r in fixed), default=0.0),
        "partition.build_theta_ms": float(np.median(times("build_theta"))),
        "partition.build_theta_calls": calls("build_theta"),
        "finite.adapt_ms.p50": float(np.median(times("adapt_solution"))),
        "finite.adapt_ms.p90": _p90(times("adapt_solution")),
        "finite.refine_ms.p50": float(np.median(
            times("refine_common_phases"))),
        "finite.refine_ms.p90": _p90(times("refine_common_phases")),
        "finite.logdet_rate_calls": calls("logdet_rate"),
        "finite.logdet_rate_ms": float(np.median(times("logdet_rate"))),
        "finite.rewaterfilled_fraction": fraction("rewaterfilled"),
        "harness.self_ms": float(np.median(
            times("run_experiment", "self_ms"))),
        "trace.overhead_pct": 100.0 * (float(np.median(traced))
                                       / float(np.median(untraced)) - 1.0),
    }


def _git_describe() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "describe", "--always", "--dirty"],
                             cwd=ROOT, env=env, capture_output=True,
                             text=True, timeout=10, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "git": _git_describe(),
    }


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool,
                 spans_path: str | None = None) -> dict:
    """Measure one workload; returns metrics, checks and the host record."""
    tracer = Tracer() if trace else None
    load_start = os.getloadavg()[0]
    cpu_start = time.process_time()
    runs, wall_s = measure(workload, seed, seconds, tracer)
    cpu_s = time.process_time() - cpu_start
    if trace:
        values = per_layer_metrics(workload, runs, tracer)
        units = {name: unit for name, unit, *_ in PER_LAYER}
        absent = sorted({name for name, _, _, needs, _ in PER_LAYER
                         if needs in tracer.absent})
        if spans_path:
            tracer.write(spans_path)
    else:
        values = end_to_end_metrics(workload, runs, wall_s)
        units = dict(END_TO_END)
        absent = []
    failures = [f"realization {r.index}: {msg}"
                for r in runs for msg in r.failures]
    return {
        "workload": workload.name,
        "seed": seed,
        "trace": int(trace),
        "attempted": len(runs),
        "failed": sum(1 for r in runs if r.failures),
        "failures": failures[:20],
        "fixed_set": workload.fixed_set,
        "wall_s": wall_s,
        "realization_ms": [r.ms for r in runs],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
        "absent": absent,
        "host": {"load1_start": load_start, "load1_end": os.getloadavg()[0],
                 "cpu_wall_ratio": cpu_s / wall_s},
        "env": environment(),
        "rispart": rispart.__file__,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", help="file to write the spans to")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be nonnegative")
    workload = WORKLOADS[args.workload]
    warm_up(workload)
    print("ready", flush=True)
    if args.setup_only:
        return 0
    result = run_workload(workload, args.seed, args.seconds,
                          bool(args.trace), args.spans)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
