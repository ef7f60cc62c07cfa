"""Experiment-harness tests: sweep application, deterministic orchestration,
result output, region tables, the property-check suites, and the CLI."""

import csv
import dataclasses
import itertools
import json
import math
import os
import platform
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from rispart import checks, cli, harness
from rispart.channel import (SimulationConfig, dbm_to_watts, load_config,
                             realization_rng, realize_channels)
from rispart.checks import SUITES, verify
from rispart.cli import main
from rispart.harness import (CSV_COLUMNS, PSI_MODES, ExperimentSpec,
                             _apply_sweep, fig3_regions, load_experiment,
                             run_experiment)

EXPERIMENT_TEXT = """\
[sim]
M_t = 8
M_r = 8
N_x = 4
N_y = 6
L1 = 2
L2 = 2
L3 = 2
P = 30
sigma2 = -90
seed = 1
realizations = 2

[experiment]
sweep = P
values = 20, 30
realizations = 2
"""


def small_spec(**kw):
    cfg = SimulationConfig(m_t=8, m_r=8, n_x=4, n_y=6, l1=2, l2=2, l3=2,
                           realizations=2, seed=1)
    defaults = dict(config=cfg, sweep="P", values=[20.0, 30.0])
    defaults.update(kw)
    return ExperimentSpec(**defaults)


def row_key(r):
    return (r.seed, r.sweep_value, r.rate_asymptotic,
            r.rate_finite, r.activated_cascaded, r.activated_direct,
            r.s_min_star, r.error)


class TestApplySweep:
    def test_surface_size(self):
        cfg = SimulationConfig(n_x=30, n_y=90)
        assert _apply_sweep(cfg, "N", 2700).n_y == 90
        assert _apply_sweep(cfg, "N", 8100).n_y == 270
        with pytest.raises(ValueError):
            _apply_sweep(cfg, "N", 1000)

    def test_antennas(self):
        # default path counts are large relative to 16 antennas, so the
        # config warns about the asymptotic approximation
        with pytest.warns(UserWarning, match="path counts"):
            out = _apply_sweep(SimulationConfig(), "M", 16)
        assert out.m_t == 16 and out.m_r == 16

    def test_power_dbm(self):
        out = _apply_sweep(SimulationConfig(), "P", 20.0)
        assert abs(out.power_watts - dbm_to_watts(20.0)) < 1e-15

    def test_snr_over_noise(self):
        cfg = SimulationConfig(noise_watts=1e-12)
        out = _apply_sweep(cfg, "SNR", 30.0)
        assert abs(out.power_watts - 1e-9) < 1e-21


class TestExperimentSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            small_spec(sweep="Q")
        with pytest.raises(ValueError):
            small_spec(values=[])
        with pytest.raises(ValueError):
            small_spec(psi_mode="sometimes")

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_values_rejected(self, value):
        with pytest.raises(ValueError, match="finite"):
            small_spec(values=[30.0, float(value)])

    def test_load_experiment(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text(EXPERIMENT_TEXT)
        spec = load_experiment(str(path))
        assert spec.sweep == "P"
        assert spec.values == [20.0, 30.0]
        assert spec.runs_per_value == 2
        assert spec.config.m_t == 8 and spec.config.seed == 1

    def test_values_taken_literally(self, tmp_path):
        # with interpolation a lone '%' raised a configparser error
        path = tmp_path / "exp.cfg"
        path.write_text(EXPERIMENT_TEXT + "out = runs/100%.csv\n")
        assert load_experiment(str(path)).out == "runs/100%.csv"

    def test_load_rejects_unknown_experiment_key(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text(EXPERIMENT_TEXT + "solver = lm\n")
        with pytest.raises(ValueError, match="solver"):
            load_experiment(str(path))

    @pytest.mark.parametrize("count", [0, 2 ** 63, 10 ** 30])
    def test_realizations_bounded(self, count):
        with pytest.raises(ValueError, match=r"below 2\*\*63"):
            small_spec(realizations=count)

    def test_load_rejects_realizations_beyond_int64(self, tmp_path):
        # used to load, and a run then built 2**63 tasks
        path = tmp_path / "exp.cfg"
        path.write_text(EXPERIMENT_TEXT.removesuffix("realizations = 2\n")
                        + f"realizations = {2 ** 63}\n")
        with pytest.raises(ValueError, match=r"below 2\*\*63"):
            load_experiment(str(path))

    def test_load_requires_experiment_section(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("[sim]\nM_t = 8\n")
        with pytest.raises(ValueError):
            load_experiment(str(path))


class TestRunExperiment:
    def test_deterministic_and_sorted(self):
        spec = small_spec()
        rows_a, summary_a = run_experiment(spec)
        rows_b, _ = run_experiment(spec)
        assert [row_key(r) for r in rows_a] == [row_key(r) for r in rows_b]
        assert [r.sweep_value for r in rows_a] == [20.0, 20.0, 30.0, 30.0]
        assert [r.seed for r in rows_a] == sorted(r.seed for r in rows_a)
        assert not any(r.error for r in rows_a)
        assert summary_a[20.0]["failures"] == 0
        assert summary_a[30.0]["mean_rate_asymptotic"] > 0

    def test_subnormal_snr_row_flagged(self):
        # noise of 1e300 W leaves SNRs near 1e-313: the row fails at the
        # solve instead of carrying NaN rates
        cfg = SimulationConfig(m_t=8, m_r=8, n_x=4, n_y=6, l1=2, l2=2, l3=2,
                               realizations=2, seed=1, noise_watts=1e300)
        rows, summary = run_experiment(small_spec(config=cfg, values=[30.0]))
        assert all(r.error.startswith("solve: ValueError") for r in rows)
        assert summary[30.0]["failures"] == len(rows)

    # (config, psi mode, (repr(rate_asymptotic), repr(rate_finite)) of the
    # first three realizations at P = 30 dBm), so that a change anywhere
    # downstream of the sampler's stream shows.
    RATE_PINS = (
        (SimulationConfig(seed=1), "random",
         (("58.62651370402199", "58.18200238998844"),
          ("52.71934279147618", "52.41199214942901"),
          ("55.71540691561694", "55.270860043583"))),
        (SimulationConfig(seed=1), "refine",
         (("58.62651370402199", "58.41938225310757"),
          ("52.71934279147618", "52.4220399109274"),
          ("55.71540691561694", "55.380096118186806"))),
        (SimulationConfig(m_t=64, m_r=64, l1=8, l2=8, l3=4, seed=2), "random",
         (("66.57367855692414", "66.43416041687573"),
          ("65.17815502997605", "65.228448726837"),
          ("60.74792181627941", "60.53805518395607"))),
    )

    @pytest.mark.parametrize("pin", RATE_PINS, ids=["default-random",
                                                    "default-refine",
                                                    "paths-8x8"])
    def test_rates_pinned(self, pin):
        config, psi_mode, rates = pin
        rows, _ = run_experiment(ExperimentSpec(
            config=config, sweep="P", values=[30.0], psi_mode=psi_mode,
            realizations=len(rates)))
        assert [(repr(r.rate_asymptotic), repr(r.rate_finite))
                for r in rows] == list(rates)

    def test_parallel_matches_serial(self):
        spec = small_spec()
        serial, _ = run_experiment(spec, jobs=1)
        parallel, _ = run_experiment(spec, jobs=2)
        assert [row_key(r) for r in serial] == [row_key(r) for r in parallel]

    @pytest.mark.parametrize("jobs, cpus, workers", [
        (100_000, 8, 4), (3, 8, 3), (100_000, 2, 2), (2, 1, 1),
        (1, 8, None)])
    def test_pool_size_capped(self, monkeypatch, jobs, cpus, workers):
        # at most min(jobs, tasks, usable CPUs) workers, and no pool at
        # jobs = 1; the fake pool records its size and maps in this
        # process, so no process starts
        import concurrent.futures
        sizes = []

        class FakePool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            FakePool)
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: set(range(cpus)))
        spec = small_spec()  # 2 values x 2 realizations: 4 tasks
        rows, _ = run_experiment(spec, jobs=jobs)
        assert sizes == ([] if workers is None else [workers])
        serial, _ = run_experiment(spec)
        assert [row_key(r) for r in rows] == [row_key(r) for r in serial]

    def test_serial_import_leaves_out_multiprocessing(self):
        # the process pool is imported only when jobs > 1
        src = Path(harness.__file__).resolve().parents[1]
        out = subprocess.run(
            [sys.executable, "-c", "import sys, rispart, rispart.harness; "
             "print('multiprocessing' in sys.modules)"],
            env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True,
            text=True, check=True).stdout
        assert out.strip() == "False"

    def test_failures_flagged_not_raised(self, monkeypatch):
        # the sampler fails every realization of one sweep value; the
        # sweep flags those rows and keeps going
        realize = harness.realize_channels

        def failing_at_20_dbm(config, rng):
            if config.power_watts == dbm_to_watts(20.0):
                raise RuntimeError("no paths")
            return realize(config, rng)

        monkeypatch.setattr(harness, "realize_channels", failing_at_20_dbm)
        rows, summary = run_experiment(small_spec(values=[20.0, 30.0]))
        bad = [r for r in rows if r.sweep_value == 20.0]
        assert bad and all(
            r.error == "realize_channels: RuntimeError: no paths"
            and (r.draws, r.margin, r.rate_finite) == (0, 0.0, 0.0)
            for r in bad)
        assert summary[20.0]["failures"] == len(bad)
        assert math.isnan(summary[20.0]["mean_rate_finite"])
        good = [r for r in rows if r.sweep_value == 30.0]
        assert good and not any(r.error for r in good)
        assert summary[30.0]["failures"] == 0

    def test_sweep_applied_once_per_value(self, monkeypatch):
        spec = small_spec(values=[20.0, 30.0], realizations=3)
        applied = []

        def counting(config, sweep, value):
            applied.append(value)
            return _apply_sweep(config, sweep, value)

        monkeypatch.setattr(harness, "_apply_sweep", counting)
        rows, _ = run_experiment(spec)
        assert applied == [20.0, 30.0] and len(rows) == 6

    def test_spec_edited_after_validation_raises(self):
        # -5000 dBm underflows to 0 W; the spec rejects it, so it is set
        # after validation, and the run rejects it before any realization
        spec = small_spec(values=[30.0])
        spec.values = [30.0, -5000.0]
        with pytest.raises(ValueError, match="swept P = -5000.0: power"):
            run_experiment(spec)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_rows_in_value_then_seed_order(self, jobs):
        rows, summary = run_experiment(
            small_spec(values=[30.0, 20.0], realizations=2), jobs=jobs)
        assert [(r.sweep_value, r.seed) for r in rows] == [
            (30.0, 0), (30.0, 1), (20.0, 2), (20.0, 3)]
        assert list(summary) == [30.0, 20.0]

    def test_error_names_failing_stage(self, monkeypatch):
        def boom(*args, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr(harness, "adapt_solution", boom)
        rows, _ = run_experiment(small_spec(values=[30.0], realizations=1))
        assert rows[0].error == "adapt_solution: RuntimeError: boom"
        assert rows[0].draws >= 1  # sampled before the failing stage

    @pytest.mark.parametrize("psi_mode", PSI_MODES)
    def test_non_finite_rate_fails_its_row(self, monkeypatch, psi_mode):
        adapt = harness.adapt_solution
        monkeypatch.setattr(harness, "adapt_solution", lambda *args: (
            dataclasses.replace(adapt(*args), rate=math.nan)))
        rows, summary = run_experiment(small_spec(
            values=[30.0], realizations=1, psi_mode=psi_mode))
        assert rows[0].error == "adapt_solution: ValueError: rate is not " \
                                "finite: nan"
        assert (rows[0].rate_asymptotic, rows[0].rate_finite) == (0.0, 0.0)
        assert summary[30.0]["failures"] == 1

    def test_large_arrays_in_small_memory(self):
        # M = 4096 at both ends of a 3000 x 9000 RIS: no array of the run
        # has an M- or N-sized axis, so its memory is the default config's
        config = SimulationConfig(m_t=4096, m_r=4096, n_x=3000, n_y=9000,
                                  seed=3)
        row, peak = _traced_run(_apply_sweep(config, "P", 30.0), 30.0,
                                "refine")
        assert not row.error and row.rate_finite > 0
        assert peak < 2 * 2 ** 20, peak

    def test_writes_csv_and_metadata(self, tmp_path):
        out = tmp_path / "results.csv"
        spec = small_spec(out=str(out), values=[30.0], realizations=1)
        rows, _ = run_experiment(spec)
        with open(out) as fh:
            table = list(csv.reader(fh))
        assert table[0] == CSV_COLUMNS
        assert len(table) == 1 + len(rows)
        column = CSV_COLUMNS.index("rate_asymptotic")
        assert float(table[1][column]) == rows[0].rate_asymptotic
        sampled = realize_channels(spec.config, realization_rng(
            spec.config.seed, rows[0].seed))
        assert int(table[1][CSV_COLUMNS.index("draws")]) == sampled.draws
        assert (float(table[1][CSV_COLUMNS.index("margin")])
                == sampled.margin)
        meta = json.loads((tmp_path / "results.csv.meta.json").read_text())
        assert meta["sweep"] == "P"
        assert meta["config"]["m_t"] == 8
        assert "git" in meta

    def test_metadata_records_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        out = tmp_path / "res.csv"
        run_experiment(small_spec(out=str(out), values=[30.0],
                                  realizations=1))
        env = json.loads((tmp_path / "res.csv.meta.json").read_text()
                         )["environment"]
        assert env["python"] == platform.python_version()
        assert env["numpy"] == np.__version__
        assert env["blas"]["name"] and env["blas"]["version"]
        assert env["threads"] == {
            "OPENBLAS_NUM_THREADS": "3", "MKL_NUM_THREADS": None,
            "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS")}

    def test_metadata_ignores_callers_repository(self, tmp_path,
                                                 monkeypatch):
        # a sweep run from inside another git repository records the
        # commit of this package's checkout, not of that repository
        def git(*args):
            return subprocess.run(
                ["git", "-c", "user.name=t", "-c", "user.email=t@t",
                 "-c", "commit.gpgsign=false", *args], cwd=tmp_path,
                capture_output=True, text=True, check=True).stdout.strip()

        git("init", "-q")
        git("commit", "-q", "--allow-empty", "-m", "other")
        other = git("rev-parse", "HEAD")
        monkeypatch.chdir(tmp_path)
        run_experiment(small_spec(out="res.csv", values=[30.0],
                                  realizations=1))
        meta = json.loads((tmp_path / "res.csv.meta.json").read_text())
        assert meta["git"] == harness._git_describe()
        assert not other.startswith(meta["git"].removesuffix("-dirty"))


class TestFig3Regions:
    def test_structure_and_monotone_existence(self):
        result = fig3_regions([93.0, 74.0, 54.0, 15.0], 4.0, 7.0, 0.05)
        rows = result["rows"]
        assert len(rows) == 61
        exists = [r["all_plus_exists"] for r in rows]
        # once the all-plus pattern exists it keeps existing
        first = exists.index(True)
        assert all(exists[first:])
        assert result["all_plus_exists_db"] is not None
        assert result["all_plus_optimal_db"] >= result["all_plus_exists_db"]
        assert rows[-1]["active_count"] == 4

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            fig3_regions([1.0, 2.0])


class TestVerify:
    def test_gains_suite_passes(self):
        passed, lines = verify("gains", seed=0)
        assert passed
        assert lines and all(line.startswith("[PASS]") for line in lines)

    def test_finite_suite_follows_seed(self, monkeypatch):
        drawn = []

        def recording(config, rng):
            realization = realize_channels(config, rng)
            drawn.append(realization.path_sets["tx_ris"].gains.tobytes())
            return realization

        monkeypatch.setattr(checks, "realize_channels", recording)
        for seed in (0, 1, 0):
            passed, _ = verify("finite", seed=seed)
            assert passed
        runs = [drawn[i:i + 5] for i in (0, 5, 10)]
        assert runs[0] == runs[2]
        assert not set(runs[0]) & set(runs[1])

    def test_unknown_suite(self):
        with pytest.raises(ValueError):
            verify("bogus")


class TestCli:
    def test_fig3(self, capsys):
        assert main(["fig3", "--m", "93,74,54,15", "--snr", "4:5:0.1"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("snr_db,")

    def test_fig3_bad_args(self, capsys):
        assert main(["fig3", "--snr", "nonsense"]) == 2

    @pytest.mark.parametrize("flag, value", [
        ("--snr", "0:10:0"), ("--snr", "0:nan:1"), ("--snr", "0:10:-1"),
        ("--snr", "10:0:0.5"), ("--m", "93,-1"), ("--m", "1,2"),
        ("--m", "nan,1")])
    def test_fig3_unrunnable_range_exits_2(self, capsys, flag, value):
        assert main(["fig3", flag, value]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("usage error: ") and not captured.out

    def test_verify(self, capsys):
        assert main(["verify", "all", "--seed", "0"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert all(line.startswith("[PASS]") for line in out)
        assert {line.split()[1].rstrip(":") for line in out} == set(SUITES)

    def test_flags_only_where_used(self, tmp_path):
        problem = tmp_path / "problem.txt"
        problem.write_text("m_r = 16,4\nm_d = 2\nP = 1\n")
        for argv in (["solve", str(problem), "--jobs", "2"],
                     ["fig3", "--psi", "refine"],
                     ["verify", "gains", "--out", "x.csv"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2

    def test_solve(self, tmp_path, capsys):
        problem = tmp_path / "problem.txt"
        problem.write_text("m_r = 16,4\nm_d = 2\nP = 1\n")
        out = tmp_path / "solution.txt"
        assert main(["solve", str(problem), "--out", str(out)]) == 0
        assert "rate =" in capsys.readouterr().out
        assert "rate =" in out.read_text()

    @pytest.mark.parametrize("power", ["1e300", "1e-300"])
    def test_solve_at_extreme_power(self, tmp_path, capsys, power):
        problem = tmp_path / "problem.txt"
        problem.write_text(f"m_r = 1,0.5\nm_d = 2\nP = {power}\n")
        assert main(["solve", str(problem)]) == 0
        assert "rate =" in capsys.readouterr().out

    def test_solve_subnormal_snr_exits_1(self, tmp_path, capsys):
        problem = tmp_path / "problem.txt"
        problem.write_text("m_r = 2.8e-313,8.3e-314\nm_d = 2.1e-309\nP = 1\n")
        assert main(["solve", str(problem)]) == 1
        captured = capsys.readouterr()
        assert "solve failed" in captured.err and "rate =" not in captured.out

    @pytest.mark.parametrize("text", [
        "m_r = 16,4\nmd = 2\nP = 1\n",
        "m_r = 16,4\nm_d = 2\nm_d = 0.5\nP = 1\n",
        "m_r = 16,4\nm_d = 2\nP = 1\nP = 2\n"],
        ids=["misspelt-m_d", "m_d-twice", "P-twice"])
    def test_solve_unknown_or_repeated_key_exits_2(self, tmp_path, capsys,
                                                   text):
        problem = tmp_path / "problem.txt"
        problem.write_text(text)
        assert main(["solve", str(problem)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("config error: ")
        assert "rate =" not in captured.out

    def test_solve_skips_comments_and_headers(self, tmp_path, capsys):
        problem = tmp_path / "problem.txt"
        problem.write_text("m_r = 16,4\nm_d = 2\nP = 1\n")
        assert main(["solve", str(problem)]) == 0
        plain = capsys.readouterr().out
        problem.write_text("# coefficients\n[problem]\nm_r = 16,4\n"
                           "m_d = 2\nP = 1\n")
        assert main(["solve", str(problem)]) == 0
        assert capsys.readouterr().out == plain

    @pytest.mark.parametrize("command", ["solve", "fig3"])
    @pytest.mark.parametrize("target", ["missing/x.txt", ""])
    def test_unwritable_out_exits_2(self, tmp_path, capsys, monkeypatch,
                                    command, target):
        # a missing directory or a directory used to do the work, then
        # exit 1 with a traceback
        def unreached(*args):
            raise AssertionError("the command ran")

        monkeypatch.setattr(cli, "solve", unreached)
        monkeypatch.setattr(cli, "fig3_regions", unreached)
        problem = tmp_path / "problem.txt"
        problem.write_text("m_r = 16,4\nm_d = 2\nP = 1\n")
        argv = [command, *([str(problem)] if command == "solve" else []),
                "--out", str(tmp_path / target)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("config error: cannot write results")
        assert not captured.out

    def test_fig3_out_writes_table(self, tmp_path, capsys):
        out = tmp_path / "fig3.csv"
        assert main(["fig3", "--snr", "0:1:0.5", "--out", str(out)]) == 0
        table = capsys.readouterr().out
        assert table.startswith("snr_db,") and len(table.splitlines()) == 4
        assert out.read_text() == table

    def test_solve_missing_file(self, tmp_path, capsys):
        assert main(["solve", str(tmp_path / "nope.txt")]) == 2

    def test_solve_non_finite_exits_2(self, tmp_path, capsys):
        problem = tmp_path / "problem.txt"
        problem.write_text("m_r = nan,1\nm_d = 2\nP = 1\n")
        assert main(["solve", str(problem)]) == 2
        assert "finite" in capsys.readouterr().err

    def test_simulate_non_finite_exits_2(self, tmp_path, capsys):
        path = tmp_path / "exp.cfg"
        path.write_text(EXPERIMENT_TEXT.replace("seed = 1", "d = nan"))
        assert main(["simulate", str(path)]) == 2
        assert "spacing_wavelengths must be finite" in capsys.readouterr().err

    def test_simulate_config_errors_exit_2(self, tmp_path, capsys):
        path = tmp_path / "exp.cfg"
        path.write_text(EXPERIMENT_TEXT.replace("M_t = 8", "M_t = 8.5"))
        assert main(["simulate", str(path)]) == 2
        assert "M_t must be an integer" in capsys.readouterr().err
        path.write_text(EXPERIMENT_TEXT + "solver = grid\n")
        assert main(["simulate", str(path)]) == 2

    @pytest.mark.parametrize("argv", [
        ["verify", "all", "--seed", "-1"],
        ["simulate", "{spec}", "--jobs", "0"],
        ["simulate", "{spec}", "--jobs", "-2"]])
    def test_out_of_range_argument_is_usage_error(self, tmp_path, capsys,
                                                  argv):
        path = tmp_path / "exp.cfg"
        path.write_text(EXPERIMENT_TEXT)
        with pytest.raises(SystemExit) as exc:
            main([arg.format(spec=path) for arg in argv])
        assert exc.value.code == 2
        assert "must be at least" in capsys.readouterr().err

    @pytest.mark.parametrize("edit, argv, message", [
        (("seed = 1", "seed = -1"), [], "seed must be nonnegative"),
        (("", ""), ["--seed", "-1"], "seed must be nonnegative"),
        (("sweep = P\nvalues = 20, 30", "sweep = M\nvalues = 16.9"), [],
         "positive integers"),
        (("sweep = P\nvalues = 20, 30", "sweep = N\nvalues = 33"), [],
         "divisible by Nx=4"),
        (("P = 30", "P = 5000"), [], "got 5000.0 dBm"),
        (("values = 20, 30", "values = 20, -5000"), [],
         "swept P = -5000.0: power must be finite and positive"),
        (("sweep = P\nvalues = 20, 30", "sweep = SNR\nvalues = 4000"), [],
         "swept SNR = 4000.0: power_watts must be finite and positive"),
        # these used to pass the config and fail only at realize_channels
        *((("seed = 1", f"seed = 1\n{key} = {value}"), [], "path losses")
          for key, value in (("d1", "1e-300"), ("d2", "1e300"),
                             ("path_loss_exponent", "1e6"), ("f", "1e300"),
                             ("f", "1e-300"))),
        # used to fail every row at realize_channels: 2d/lambda overflows
        (("seed = 1", "seed = 1\nd = 1.7e308"), [], "steering scale"),
        # the steering phase overflows: NaN finite rates with no error, or
        # every row failing at realize_channels
        (("seed = 1", "seed = 1\nd = 1e307"), [], "steering scale"),
        (("seed = 1", "seed = 1\nd = 5e307"), [], "steering scale"),
        # an integer beyond int64 used to raise TypeError, a traceback
        *((edit, [], f"{name} must be positive and below 2**63")
          for edit, name in ((("M_t = 8", "M_t = 1e30"), "m_t"),
                             (("M_r = 8", f"M_r = {2 ** 63}"), "m_r"),
                             (("N_x = 4", "N_x = 1e20"), "n_x"),
                             (("seed = 1\nrealizations = 2",
                               "seed = 1\nrealizations = 1e30"),
                              "realizations"))),
        # configparser errors used to escape as a traceback, exit 1
        (("M_t = 8", "M_t = 8\nM_t = 9"), [],
         "option 'm_t' in section 'sim' already exists"),
        (("[experiment]", "[sim]\n[experiment]"), [],
         "section 'sim' already exists"),
        (("[sim]\n", ""), [], "File contains no section headers")])
    def test_simulate_unrunnable_sweep_exits_2(self, tmp_path, capsys, edit,
                                               argv, message):
        path = tmp_path / "exp.cfg"
        path.write_text(EXPERIMENT_TEXT.replace(*edit))
        assert main(["simulate", str(path), *argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and message in err

    @pytest.mark.parametrize("where", ["flag", "file"])
    @pytest.mark.parametrize("target", ["missing/x.csv", ""])
    def test_simulate_unwritable_out_exits_2(self, tmp_path, capsys,
                                             monkeypatch, where, target):
        # a missing directory or a directory used to run the whole sweep,
        # then exit 1 with a traceback
        def unreached(*args):
            raise AssertionError("a realization ran")

        monkeypatch.setattr(harness, "realize_channels", unreached)
        out = str(tmp_path / target)
        path = tmp_path / "exp.cfg"
        path.write_text(EXPERIMENT_TEXT + (f"out = {out}\n"
                                           if where == "file" else ""))
        argv = ["--out", out] if where == "flag" else []
        assert main(["simulate", str(path), *argv]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("config error: cannot write results")
        assert not captured.out

    def test_simulate_missing_spec_exits_2(self, tmp_path, capsys):
        assert main(["simulate", str(tmp_path / "nope.cfg")]) == 2
        assert capsys.readouterr().err.startswith("config error: ")

    def test_simulate_psi_refine(self, tmp_path):
        # the same realizations and drawn phases, then refined: no row's
        # finite rate is lower than without refinement
        path = tmp_path / "exp.cfg"
        path.write_text(EXPERIMENT_TEXT)
        rates = {}
        for psi in PSI_MODES:
            out = tmp_path / f"{psi}.csv"
            assert main(["simulate", str(path), "--psi", psi,
                         "--out", str(out)]) == 0
            with open(out, newline="") as fh:
                rates[psi] = [float(r["rate_finite"])
                              for r in csv.DictReader(fh)]
            meta = json.loads(Path(f"{out}.meta.json").read_text())
            assert meta["psi_mode"] == psi
        assert len(rates["refine"]) == 4
        assert all(r >= q for r, q in zip(rates["refine"], rates["random"]))

    def test_simulate_reports_flagged_rows(self, tmp_path, capsys,
                                           monkeypatch):
        def fail(*args):
            raise RuntimeError("no paths")

        monkeypatch.setattr(harness, "realize_channels", fail)
        path = tmp_path / "exp.cfg"
        path.write_text(EXPERIMENT_TEXT)
        assert main(["simulate", str(path)]) == 0
        captured = capsys.readouterr()
        assert captured.out.count("failures=2") == 2
        assert captured.err == "4 realizations flagged\n"

    def test_simulate(self, tmp_path, capsys):
        path = tmp_path / "exp.cfg"
        path.write_text(EXPERIMENT_TEXT)
        assert main(["simulate", str(path), "--out",
                     str(tmp_path / "res.csv")]) == 0
        assert (tmp_path / "res.csv").exists()
        assert "P=20" in capsys.readouterr().out


# stages a row's error may name, and one value per sweep kind; N and M
# keep the small config's sizes
FUZZ_STAGES = ("realize_channels", "coefficients", "solve",
               "adapt_solution", "refine_common_phases")
FUZZ_SWEEPS = (("N", 24.0), ("M", 8.0), ("P", 30.0), ("SNR", 100.0))


def _traced_run(config, value, psi_mode):
    """``_run_one``'s row on the resolved ``config`` of sweep value
    ``value``, and its tracemalloc peak in bytes."""
    tracemalloc.start()
    try:
        row = harness._run_one((config, value, 0, psi_mode))
        return row, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def fails_loudly_or_runs(tmp_path, key, value) -> int:
    """Check that ``key = value`` on a small config fails the config, or
    that each sweep kind is rejected or runs every psi mode to finite
    positive rates or to an error naming its stage.  Returns the largest
    ``_run_one`` peak."""
    keys = {"M_t": 8, "M_r": 8, "N_x": 4, "N_y": 6, "L1": 2, "L2": 2,
            "L3": 1, key: value}
    path = tmp_path / "fuzz.cfg"
    path.write_text("[sim]\n" + "".join(f"{k} = {v}\n"
                                        for k, v in keys.items()))
    try:
        config = load_config(str(path))
    except ValueError:
        return 0
    peak = 0
    for sweep, sweep_value in FUZZ_SWEEPS:
        try:
            swept = _apply_sweep(config, sweep, sweep_value)
        except ValueError:  # a rejected sweep fails loudly
            continue
        for psi_mode in PSI_MODES:
            row, row_peak = _traced_run(swept, sweep_value, psi_mode)
            peak = max(peak, row_peak)
            if row.error:
                assert row.error.split(":")[0] in FUZZ_STAGES, row.error
            else:
                rates = (row.rate_asymptotic, row.rate_finite)
                assert all(math.isfinite(r) and r > 0 for r in rates), (
                    sweep, psi_mode, rates)
    return peak


class TestFloatKeyFuzz:
    """Each float config key either fails the config or runs every sweep
    kind and psi mode to finite rates, or to an error naming its stage."""

    KEYS = ("d", "f", "d1", "d2", "d3", "path_loss_exponent", "P", "sigma2")
    VALUES = ("nan", "inf", "-inf", "0", "-1", "1e-300", "1e300", "1e307",
              "1.7e308")

    # more examples than the 72 cases, so hypothesis runs each of them
    @given(case=st.sampled_from(list(itertools.product(KEYS, VALUES))))
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_value_fails_loudly_or_runs(self, tmp_path, case):
        fails_loudly_or_runs(tmp_path, *case)


@pytest.mark.filterwarnings("ignore:path counts")
class TestIntegerKeyFuzz:
    """The same for the array sizes, which no stage sizes an array by:
    the L keys are left out, since the sampler's block grows with L."""

    @pytest.mark.parametrize("key, value", itertools.product(
        ("M_t", "M_r", "N_x", "N_y"),
        ("1", "2", str(2 ** 20), str(2 ** 40), str(2 ** 62), "1e30")))
    def test_value_fails_loudly_or_runs(self, tmp_path, key, value):
        assert fails_loudly_or_runs(tmp_path, key, value) < 2 * 2 ** 20
