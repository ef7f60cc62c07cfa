"""Command-line interface.

Subcommands: ``simulate`` runs a sweep experiment from a spec file,
``solve`` solves a single coefficient problem file, ``fig3`` prints the
pattern existence/optimality region table, and ``verify`` runs the named
property-check suite.  Exit codes: 0 success, 1 verification/solve failure,
2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

import numpy as np

from rispart.asymptotic import AsymptoticProblem
from rispart.checks import SUITES, verify
from rispart.harness import (PSI_MODES, fig3_regions, load_experiment,
                             run_experiment)
from rispart.solver import solve


def _parse_problem_file(path: str) -> AsymptoticProblem:
    """Flat key=value problem file: m_r, m_d (comma lists), P (watts)."""
    values: dict[str, str] = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#") or line.startswith("["):
                continue
            key, _, val = line.partition("=")
            values[key.strip()] = val.strip()
    m_r = np.array([float(x) for x in values["m_r"].split(",")])
    m_d = (np.array([float(x) for x in values["m_d"].split(",")])
           if values.get("m_d") else np.empty(0))
    return AsymptoticProblem(m_r=m_r, m_d=m_d, power=float(values["P"]))


def _at_least(low: int):
    """argparse type: an integer of at least ``low``, else a usage error."""
    def integer(text: str) -> int:
        if int(text) < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}")
        return int(text)
    return integer


def _cmd_simulate(args) -> int:
    updates = {}
    if args.out:
        updates["out"] = args.out
    if args.psi:
        updates["psi_mode"] = args.psi
    try:
        spec = load_experiment(args.spec)
        if args.seed is not None:
            updates["config"] = dataclasses.replace(spec.config,
                                                    seed=args.seed)
    except (OSError, ValueError, KeyError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    spec = dataclasses.replace(spec, **updates)
    rows, summary = run_experiment(spec, jobs=args.jobs)
    for value, stats in summary.items():
        print(f"{spec.sweep}={value:g}: "
              f"rate_asym={stats['mean_rate_asymptotic']:.4f} "
              f"rate_finite={stats['mean_rate_finite']:.4f} "
              f"cascaded={stats['mean_activated_cascaded']:.2f} "
              f"direct={stats['mean_activated_direct']:.2f} "
              f"failures={stats['failures']}")
    if any(r.error for r in rows):
        print(f"{sum(1 for r in rows if r.error)} realizations flagged",
              file=sys.stderr)
    return 0


def _cmd_solve(args) -> int:
    try:
        problem = _parse_problem_file(args.problem)
    except (OSError, ValueError, KeyError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        sol = solve(problem)
    except Exception as exc:
        print(f"solve failed: {exc}", file=sys.stderr)
        return 1
    print(f"rate = {sol.rate:.6f} bit/s/Hz")
    print(f"p_r  = {np.array2string(sol.allocation.p_r, precision=6)}")
    print(f"p_d  = {np.array2string(sol.allocation.p_d, precision=6)}")
    print(f"t    = {np.array2string(sol.allocation.t, precision=6)}")
    print(f"v = {sol.v:.6e}, w = {sol.w:.6e}, "
          f"activated = {sol.s_min_star} cascaded / "
          f"{len(sol.i_active)} direct")
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(f"rate = {sol.rate!r}\n"
                     f"p_r = {','.join(repr(x) for x in sol.allocation.p_r)}\n"
                     f"p_d = {','.join(repr(x) for x in sol.allocation.p_d)}\n"
                     f"t = {','.join(repr(x) for x in sol.allocation.t)}\n"
                     f"v = {sol.v!r}\nw = {sol.w!r}\n")
    return 0


def _cmd_fig3(args) -> int:
    try:
        m = [float(x) for x in args.m.split(",")]
        lo, hi, step = (float(x) for x in args.snr.split(":"))
        result = fig3_regions(m, lo, hi, step)
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    table = "snr_db,all_plus_exists,active_count\n" + "".join(
        f"{row['snr_db']:.4f},{int(row['all_plus_exists'])},"
        f"{row['active_count']}\n" for row in result["rows"])
    print(table, end="")
    print(f"# all-plus first exists at {result['all_plus_exists_db']} dB, "
          f"first optimal at {result['all_plus_optimal_db']} dB",
          file=sys.stderr)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(table)
    return 0


def _cmd_verify(args) -> int:
    passed, lines = verify(args.suite, seed=args.seed)
    for line in lines:
        print(line)
    return 0 if passed else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="rispart",
        description="RIS-partitioning beamforming design toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run a sweep experiment")
    p.add_argument("spec", help="experiment spec file")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--jobs", type=_at_least(1), default=1)
    p.add_argument("--psi", choices=PSI_MODES, default=None)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("solve", help="solve one coefficient problem")
    p.add_argument("problem", help="problem file (m_r, m_d, P)")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("fig3", help="pattern existence/optimality regions")
    p.add_argument("--m", default="93,74,54,15",
                   help="comma-separated coefficients, non-increasing")
    p.add_argument("--snr", default="0:10:0.01", help="lo:hi:step in dB")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_fig3)

    p = sub.add_parser("verify", help="run a property-check suite")
    p.add_argument("suite", choices=[*SUITES, "all"])
    p.add_argument("--seed", type=_at_least(0), default=0)
    p.set_defaults(func=_cmd_verify)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
