"""Sweep benchmark: times ``rispart``'s Monte-Carlo sweep.

    python3 perfbench/run.py --workload sweep-paper --seed 1 --seconds 30 --trace 0

Workloads are ``sweep-paper``, ``refine-paper`` and ``paths-8x8`` (see
``bench.WORKLOADS``); ``--workload all`` runs each in turn.  With
``--trace 0`` a run prints the end-to-end metrics; with ``--trace 1`` it
prints the per-layer metrics and writes the spans to ``perfbench/out/``.
Every metric is printed with its unit, then the result as one JSON line.
The exit code is 1 when an output check failed and 2 when the run could
not be made.

rispart is imported from ``src/`` of the checkout this directory sits in;
nothing is installed.  Every worker process runs with the BLAS and OpenMP
thread counts pinned.  ``setup_s`` is the median over fresh processes of
the time from start to the end of one warm-up realization.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
PINNED_THREADS = "1"
SETUP_SAMPLES = 3
# The whole run must end within 180 s; the measured part is --seconds
# plus at most one realization.
TIMEOUT_S = 170.0


class BenchError(RuntimeError):
    """The run could not be made; no result is printed."""


def _start(args, extra: list[str], deadline: float,
           ) -> tuple[subprocess.Popen, float]:
    """Start a worker and wait for its ``ready`` line; returns set-up s."""
    cmd = [sys.executable, str(HERE / "bench.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    env = dict(os.environ, **{var: PINNED_THREADS for var in THREAD_VARS})
    start = time.perf_counter()
    proc = subprocess.Popen(cmd + extra, cwd=ROOT, env=env,
                            stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    setup_s = time.perf_counter() - start
    if line.strip() != "ready":
        _stop(proc)
        raise BenchError(f"worker did not get ready (exit {proc.returncode})")
    if time.perf_counter() > deadline:
        _stop(proc)
        raise BenchError("set-up ran past the time limit")
    return proc, setup_s


def _stop(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.kill()
    proc.wait()
    proc.stdout.close()


def measure(args) -> tuple[dict, list[float]]:
    """Run the set-up samples and the measured worker; returns its result."""
    deadline = time.perf_counter() + TIMEOUT_S
    setups = []
    if not args.trace:
        for _ in range(SETUP_SAMPLES - 1):
            proc, setup_s = _start(args, ["--setup-only"], deadline)
            try:
                proc.wait(timeout=max(deadline - time.perf_counter(), 0.0))
            finally:
                _stop(proc)
            setups.append(setup_s)
    extra = []
    if args.trace:
        OUT.mkdir(exist_ok=True)
        extra = ["--spans", str(OUT / f"{_stem(args)}-spans.jsonl")]
    proc, setup_s = _start(args, extra, deadline)
    setups.append(setup_s)
    try:
        out, _ = proc.communicate(
            timeout=max(deadline - time.perf_counter(), 0.0))
    except subprocess.TimeoutExpired:
        raise BenchError("worker ran past the time limit") from None
    finally:
        _stop(proc)
    if proc.returncode != 0 or not out.strip():
        raise BenchError(f"worker failed (exit {proc.returncode})")
    return json.loads(out.strip().splitlines()[-1]), setups


def _stem(args) -> str:
    return f"{args.workload}-seed{args.seed}-trace{args.trace}"


def report(result: dict) -> None:
    env, host = result["env"], result["host"]
    print(f"{result['workload']} seed {result['seed']} trace "
          f"{result['trace']}: {result['attempted']} realizations in "
          f"{result['wall_s']:.1f} s (fixed set {result['fixed_set']}), "
          f"{result['failed']} failed")
    print(f"env: python {env['python']}, numpy {env['numpy']}, "
          f"blas {env['blas']}, threads {env['threads']}, "
          f"nproc {env['nproc']}, git {env['git']}")
    print(f"host: load1 {host['load1_start']:.2f} -> {host['load1_end']:.2f},"
          f" cpu/wall {host['cpu_wall_ratio']:.3f}")
    for name, metric in result["metrics"].items():
        print(f"  {name:34s} {metric['value']:14.6g} {metric['unit']}")
    if result["absent"]:
        print(f"absent (wrapped function gone): {', '.join(result['absent'])}")
    for line in result["failures"]:
        print(f"FAILED {line}")


def run_one(args) -> bool:
    """Measure one workload, print its report; True when every check held."""
    result, setups = measure(args)
    if not args.trace:
        result["metrics"]["setup_s"] = {"value": statistics.median(setups),
                                        "unit": "s"}
        result["setup_samples_s"] = setups
    OUT.mkdir(exist_ok=True)
    (OUT / f"{_stem(args)}.json").write_text(json.dumps(result, indent=1))
    report(result)
    print(json.dumps({"correct": result["failed"] == 0,
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": result["metrics"]}), flush=True)
    return result["failed"] == 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="a workload name, or 'all' to run each in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "rispart" / "__init__.py").is_file():
        print(f"error: no rispart sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    from bench import WORKLOADS  # imports rispart, so after the check
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if not set(names) <= set(WORKLOADS):
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(WORKLOADS)} or all")
    ok = True
    try:
        for name in names:
            ok &= run_one(argparse.Namespace(**{**vars(args),
                                                "workload": name}))
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
