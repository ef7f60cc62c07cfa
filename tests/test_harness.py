"""Experiment-harness tests: sweep application, deterministic orchestration,
result output, region tables, the property-check suites, and the CLI."""

import csv
import json

import pytest

from rispart import checks, harness
from rispart.channel import (SimulationConfig, dbm_to_watts,
                             realization_rng, realize_channels)
from rispart.checks import SUITES, verify
from rispart.cli import main
from rispart.harness import (CSV_COLUMNS, ExperimentSpec, _apply_sweep,
                             fig3_regions, load_experiment, run_experiment)

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

    def test_load_experiment(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text(EXPERIMENT_TEXT)
        spec = load_experiment(str(path))
        assert spec.sweep == "P"
        assert spec.values == [20.0, 30.0]
        assert spec.runs_per_value == 2
        assert spec.config.m_t == 8 and spec.config.seed == 1

    def test_load_rejects_unknown_experiment_key(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text(EXPERIMENT_TEXT + "solver = lm\n")
        with pytest.raises(ValueError, match="solver"):
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

    def test_parallel_matches_serial(self):
        spec = small_spec()
        serial, _ = run_experiment(spec, jobs=1)
        parallel, _ = run_experiment(spec, jobs=2)
        assert [row_key(r) for r in serial] == [row_key(r) for r in parallel]

    def test_failures_flagged_not_raised(self):
        spec = small_spec(sweep="N", values=[24.0, 7.0])
        rows, summary = run_experiment(spec)
        bad = [r for r in rows if r.sweep_value == 7.0]
        assert bad and all(r.error.startswith("config: ValueError: ")
                           and (r.draws, r.margin) == (0, 0.0) for r in bad)
        assert summary[7.0]["failures"] == len(bad)
        good = [r for r in rows if r.sweep_value == 24.0]
        assert all(not r.error for r in good)

    def test_error_names_failing_stage(self, monkeypatch):
        def boom(*args, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr(harness, "adapt_solution", boom)
        rows, _ = run_experiment(small_spec(values=[30.0], realizations=1))
        assert rows[0].error == "adapt_solution: RuntimeError: boom"
        assert rows[0].draws >= 1  # sampled before the failing stage

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

    def test_solve_missing_file(self, tmp_path, capsys):
        assert main(["solve", str(tmp_path / "nope.txt")]) == 2

    def test_simulate_config_errors_exit_2(self, tmp_path, capsys):
        path = tmp_path / "exp.cfg"
        path.write_text(EXPERIMENT_TEXT.replace("M_t = 8", "M_t = 8.5"))
        assert main(["simulate", str(path)]) == 2
        assert "M_t must be an integer" in capsys.readouterr().err
        path.write_text(EXPERIMENT_TEXT + "solver = grid\n")
        assert main(["simulate", str(path)]) == 2

    def test_simulate(self, tmp_path, capsys):
        path = tmp_path / "exp.cfg"
        path.write_text(EXPERIMENT_TEXT)
        assert main(["simulate", str(path), "--out",
                     str(tmp_path / "res.csv")]) == 0
        assert (tmp_path / "res.csv").exists()
        assert "P=20" in capsys.readouterr().out
