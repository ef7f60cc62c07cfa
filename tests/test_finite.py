"""Finite-size realization tests: transmit covariance, log-det rate,
mapping an asymptotic solution onto a physical RIS, and the path-domain
rate against the dense reference."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from rispart.asymptotic import Allocation, Solution, coefficients, rate
from rispart.channel import (SimulationConfig, dbm_to_watts, realization_rng,
                             realize_channels, ris_cosines, steering)
from rispart import finite, oracle
from rispart.finite import (REFINE_GRID, PathModel, _interpolation,
                            _phase_pencil, adapt_solution, path_model,
                            refine_common_phases)
from rispart.oracle import (dense_rate, dense_refine, eigenmode_covariance,
                            logdet_rate, transmit_covariance)
from rispart.partition import TilePlan
from rispart.solver import solve, water_filling

P0 = dbm_to_watts(60.1030)


def pipeline(seed=0, m=16, n_x=10, n_y=12, l1=2, l2=2, l3=2, **cfg_kw):
    cfg = SimulationConfig(m_t=m, m_r=m, n_x=n_x, n_y=n_y, l1=l1, l2=l2,
                           l3=l3, power_watts=P0 / (m * m), **cfg_kw)
    re = realize_channels(cfg, realization_rng(seed, 0))
    prob = coefficients(re)
    sol = solve(prob)
    return cfg, re, prob, sol


def forced_drop(prob, n_y):
    """Solution whose second ratio is too small to earn a column."""
    eps = 0.5 / n_y
    t = np.zeros(prob.s_max)
    t[0], t[1] = 1 - eps, eps
    alloc = Allocation(p_r=prob.power * t, p_d=np.zeros(prob.l3), t=t)
    return Solution(problem=prob, allocation=alloc, v=1.0, w=1.0,
                    rate=rate(prob, alloc), s_min_star=2, direct=0)


def random_evaluation(rng):
    """Adapted solution on a random small config, with its config.

    Every fourth draw forces a dropped sub-surface; every third pushes
    the direct hop out of range.
    """
    draw = int(rng.integers(1 << 30))
    m_t, m_r = (int(m) for m in rng.choice([2, 4, 8, 16], 2))
    l1, l2 = int(rng.integers(1, 5)), int(rng.integers(1, 5))
    cfg = SimulationConfig(
        m_t=m_t, m_r=m_r, n_x=int(rng.integers(2, 11)),
        n_y=int(rng.integers(4, 21)), l1=l1, l2=l2,
        l3=int(rng.integers(1, 4)),
        d3=1e9 if draw % 3 == 0 else 150.0,
        power_watts=P0 / (m_t * m_r) * 10.0 ** rng.uniform(-2, 1))
    re = realize_channels(cfg, realization_rng(draw, 0), max_tries=20)
    prob = coefficients(re)
    if draw % 4 == 0 and prob.s_max > 1:
        sol = forced_drop(prob, cfg.n_y)
    else:
        sol = solve(prob)
    return cfg, adapt_solution(sol, re, rng)


def cases(cfg, ev):
    """The cases of ``random_evaluation`` that one instance covers."""
    r = ev.powers.size
    return {case for case, hit in (
        ("S=1", ev.plan.s == 1), ("dropped", ev.rewaterfilled),
        ("no direct", r == ev.plan.s),
        ("r < M_t", r < cfg.m_t), ("r >= M_t", r >= cfg.m_t)) if hit}


ALL_CASES = {"S=1", "dropped", "no direct", "r < M_t", "r >= M_t"}


def tiled(ev, tiles_x, tiles_y):
    """``ev`` with its column plan laid out as a stripe tiling of
    ``tiles_x x tiles_y`` tiles, modelled and rated anew."""
    tiles = TilePlan.from_partition_plan(
        ev.plan, ev.realization.config.ris_geometry, tiles_x, tiles_y)
    model = path_model(ev.realization, tiles, ev.basis_paths, ev.powers)
    return dataclasses.replace(ev, plan=tiles, model=model,
                               rate=float(model.rates(tiles.psi)[0]))


def coarsest_stripes(ev):
    """Tile counts of the coarsest stripe tiling of ``ev``'s plan: one tile
    row, tile columns as wide as the column counts' common divisor."""
    return 1, ev.realization.config.n_y // np.gcd.reduce(ev.plan.column_counts)


class TestEigenmodeCovariance:
    def test_zero_power(self):
        a = np.eye(3, 2, dtype=complex)
        np.testing.assert_array_equal(eigenmode_covariance(a, [0.0, 0.0]),
                                      np.zeros((3, 3)))

    def test_orthonormal_basis_eigenvalues(self):
        a = np.eye(4, 2, dtype=complex)
        q = eigenmode_covariance(a, [2.0, 1.0])
        evals = np.sort(np.linalg.eigvalsh(q))
        np.testing.assert_allclose(evals, [0.0, 0.0, 1.0, 2.0], atol=1e-12)

    def test_trace_equals_power_for_unit_columns(self):
        cfg = SimulationConfig()
        rng = np.random.default_rng(0)
        a = steering(2.0 * cfg.spacing / cfg.wavelength
                     * np.sin(rng.uniform(0, np.pi, 3)), cfg.m_t)
        p = rng.uniform(0, 2, 3)
        q = eigenmode_covariance(a, p)
        assert abs(np.trace(q).real - p.sum()) < 1e-12 * p.sum()
        np.testing.assert_allclose(q, q.conj().T, atol=1e-15)

    def test_input_validation(self):
        a = np.eye(3, 2, dtype=complex)
        with pytest.raises(ValueError):
            eigenmode_covariance(a, [1.0])
        for bad in ([1.0, -0.1], [np.nan, 1.0], [np.inf, 1.0]):
            with pytest.raises(ValueError):
                eigenmode_covariance(a, bad)


class TestLogdetRate:
    def test_zero_channel(self):
        h = np.zeros((2, 3), dtype=complex)
        assert logdet_rate(h, np.eye(3, dtype=complex), 1.0) == 0.0

    def test_scalar_channel(self):
        h = np.array([[1.0 + 0j]])
        q = np.array([[3.0 + 0j]])
        assert abs(logdet_rate(h, q, 1.0) - 2.0) < 1e-12

    def test_matches_eigenvalue_sum(self):
        rng = np.random.default_rng(1)
        h = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
        a = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
        q = eigenmode_covariance(a, [1.5, 0.5])
        sigma2 = 0.3
        expected = np.sum(np.log2(
            1 + np.linalg.eigvalsh(h @ q @ h.conj().T).clip(0) / sigma2))
        assert abs(logdet_rate(h, q, sigma2) - expected) < 1e-9

    def test_rejects_non_square_q(self):
        with pytest.raises(ValueError, match="square"):
            logdet_rate(np.eye(2, dtype=complex),
                        np.ones((2, 3), dtype=complex), 1.0)

    def test_rejects_indefinite_q(self):
        h = np.eye(2, dtype=complex)
        with pytest.raises(ValueError):
            logdet_rate(h, np.diag([1.0, -1.0]).astype(complex), 1.0)


class TestAdaptSolution:
    def test_realized_plan_consistent(self):
        cfg, re, prob, sol = pipeline(seed=1)
        ev = adapt_solution(sol, re, rng=np.random.default_rng(11))
        assert ev.plan.column_counts.sum() == cfg.n_y
        assert ev.plan.s <= max(sol.s_min_star, 1)
        assert ev.rate > 0 and ev.rate_asymptotic > 0
        assert ev.gap == abs(ev.rate - ev.rate_asymptotic) / ev.rate_asymptotic

    def test_deterministic_given_psi(self):
        cfg, re, prob, sol = pipeline(seed=2)
        k = sum(1 for t in sol.allocation.t if t > 0)
        psi = np.linspace(0.5, 1.5, k)
        a = adapt_solution(sol, re, psi=psi)
        b = adapt_solution(sol, re, psi=psi)
        assert a.rate == b.rate

    def test_needs_psi_or_rng(self):
        # the common phases are a design input or a seeded draw, never
        # a hidden fixed seed
        cfg, re, prob, sol = pipeline(seed=2)
        with pytest.raises(ValueError, match="psi or a generator rng"):
            adapt_solution(sol, re)

    def test_rejects_solution_without_active_subsurface(self):
        cfg, re, prob, sol = pipeline(seed=2)
        alloc = Allocation(p_r=np.zeros(prob.s_max),
                           p_d=np.eye(prob.l3)[0] * prob.power,
                           t=np.zeros(prob.s_max))
        idle = dataclasses.replace(sol, allocation=alloc)
        with pytest.raises(ValueError, match="no active sub-surface"):
            adapt_solution(idle, re, psi=[])

    def test_rejects_wrong_psi_length(self):
        cfg, re, prob, sol = pipeline(seed=2)
        k = sum(1 for t in sol.allocation.t if t > 0)
        with pytest.raises(ValueError):
            adapt_solution(sol, re, psi=np.linspace(0.5, 1.5, k + 1))

    def test_covariance_trace_meets_budget(self):
        cfg, re, prob, sol = pipeline(seed=3)
        ev = adapt_solution(sol, re, rng=np.random.default_rng(12))
        trace = np.trace(transmit_covariance(ev)).real
        assert abs(trace - prob.power) < 1e-6 * prob.power

    def test_drop_triggers_rewaterfill(self, caplog):
        cfg, re, prob, sol = pipeline(seed=4)
        with caplog.at_level("DEBUG", logger="rispart"):
            ev = adapt_solution(forced_drop(prob, cfg.n_y), re,
                                rng=np.random.default_rng(13))
        assert ev.rewaterfilled
        assert ev.plan.s == 1
        trace = np.trace(transmit_covariance(ev)).real
        assert abs(trace - prob.power) < 1e-6 * prob.power
        assert any("re-water-filling" in r.getMessage()
                   for r in caplog.records)

    def test_rewaterfill_powers_pinned(self):
        # ratios 1/2, 11/24, 1/24 on 12 columns round to [6, 6, 0]: the two
        # survivors and the two direct paths share the budget by
        # water-filling over the gains m_r (6/12)^2 and m_d
        cfg, re, prob, _ = pipeline(seed=4, l1=3, l2=3, l3=2)
        eps = 0.5 / cfg.n_y
        alloc = Allocation(p_r=prob.power * np.array([0.45, 0.35, 0.05]),
                           p_d=prob.power * np.array([0.1, 0.05]),
                           t=[0.5, 0.5 - eps, eps])
        sol = Solution(problem=prob, allocation=alloc, v=1.0, w=1.0,
                       rate=rate(prob, alloc), s_min_star=3, direct=2)
        ev = adapt_solution(sol, re, psi=np.array([0.3, 1.2, 2.0]))
        assert ev.rewaterfilled
        np.testing.assert_array_equal(ev.plan.column_counts, [6, 6])
        expected, _ = water_filling(
            np.concatenate([prob.m_r[:2] / 4.0, prob.m_d]), prob.power)
        np.testing.assert_array_equal(ev.powers, expected)
        assert np.ptp(expected[:2]) > 0 and np.all(expected[2:] > 0)

    @pytest.mark.parametrize("l1, l2", [(4, 3), (3, 4)])
    def test_subsurface_s_serves_path_s(self, l1, l2):
        # sub-surfaces 0 and 1 and direct paths 0 and 1 carry power; at
        # L1 = 4 the direct offset is L1, not S = 3, so the basis is
        # [0, 1, 4, 5], not [0, 1, 3, 4]
        cfg, re, prob, _ = pipeline(seed=7, l1=l1, l2=l2, l3=3)
        alloc = Allocation(p_r=prob.power * np.array([0.4, 0.3, 0.0]),
                           p_d=prob.power * np.array([0.2, 0.1, 0.0]),
                           t=[0.6, 0.4, 0.0])
        sol = Solution(problem=prob, allocation=alloc, v=1.0, w=1.0,
                       rate=rate(prob, alloc), s_min_star=2, direct=2)
        ev = adapt_solution(sol, re, psi=np.array([0.3, 1.2]))
        tx, rx = re.path_sets["tx_ris"], re.path_sets["ris_rx"]
        arr_x, arr_y = ris_cosines(tx.arrival)
        dep_x, dep_y = ris_cosines(rx.departure)
        zeta_x, zeta_y = dep_x[:, None] - arr_x, dep_y[:, None] - arr_y
        np.testing.assert_array_equal(
            ev.plan.gradients, [(zeta_x[s, s], zeta_y[s, s]) for s in (0, 1)])
        assert ev.basis_paths == [0, 1, l1, l1 + 1]
        np.testing.assert_array_equal(ev.powers,
                                      prob.power * np.array([0.4, 0.3, 0.2,
                                                             0.1]))

    @pytest.mark.parametrize("t, p_d", [
        ([0.6, 0.0, 0.4], [0.2, 0.1, 0.0]),   # sub-surface 1 skipped
        ([0.4, 0.6, 0.0], [0.2, 0.1, 0.0]),   # ratios increasing
        ([0.6, 0.4, 0.0], [0.2, 0.0, 0.1])])  # direct path 1 skipped
    def test_non_prefix_support_rejected(self, t, p_d):
        cfg, re, prob, _ = pipeline(seed=7, l1=4, l2=3, l3=3)
        alloc = Allocation(p_r=0.7 * prob.power * np.array(t),
                           p_d=prob.power * np.array(p_d), t=t)
        sol = Solution(problem=prob, allocation=alloc, v=1.0, w=1.0,
                       rate=rate(prob, alloc), s_min_star=2, direct=2)
        with pytest.raises(ValueError, match="prefix"):
            adapt_solution(sol, re, psi=np.array([0.3, 1.2]))

    def test_gap_moderate_at_small_size(self):
        cfg, re, prob, sol = pipeline(seed=5, n_x=30, n_y=30)
        ev = adapt_solution(sol, re, rng=np.random.default_rng(14))
        assert ev.gap < 0.3

    def test_psi_irrelevant_without_direct_power(self):
        # push the direct hop out of range so only the cascaded link carries
        # power; the common phases then only rotate the one active stream
        cfg, re, prob, sol = pipeline(seed=6, l1=1, l2=1, l3=1, d3=1e9)
        assert np.all(sol.allocation.p_d == 0)
        a = adapt_solution(sol, re, psi=np.array([0.3]))
        b = adapt_solution(sol, re, psi=np.array([4.0]))
        assert abs(a.rate - b.rate) < 1e-9 * max(a.rate, 1.0)


class TestRefineCommonPhases:
    def test_never_decreases(self):
        cfg, re, prob, sol = pipeline(seed=7)
        ev = adapt_solution(sol, re, rng=np.random.default_rng(15))
        refined = refine_common_phases(ev)
        assert refined.rate >= ev.rate

    @pytest.mark.filterwarnings("ignore:path counts")
    def test_contract_on_random_instances(self):
        # the rate never decreases and is the evaluator's at the returned
        # phases, and every phase is the input's or a grid point
        rng = np.random.default_rng(26)
        seen, moved = set(), 0
        for _ in range(60):
            cfg, ev = random_evaluation(rng)
            refined = refine_common_phases(ev)
            assert refined.rate >= ev.rate
            assert refined.rate == refined.model.rates(refined.plan.psi)[0]
            psi = refined.plan.psi
            assert np.all((psi == ev.plan.psi) | np.isin(psi, REFINE_GRID))
            seen |= cases(cfg, ev)
            moved += refined.rate > ev.rate
        assert seen == ALL_CASES
        assert 0 < moved
        # one sub-surface and no direct hop: the common phase multiplies
        # the whole effective channel, so it cannot change the rate, every
        # trial ties and the input comes back
        cfg, re, prob, sol = pipeline(seed=3, l1=1)
        ev = adapt_solution(sol, re, psi=[0.0])
        core = ev.model.core.copy()
        core[-1] = 0.0
        model = dataclasses.replace(ev.model, core=core)
        ev = dataclasses.replace(ev, model=model,
                                 rate=float(model.rates(ev.plan.psi)[0]))
        assert refine_common_phases(ev) is ev

    def test_tied_phase_does_not_move(self):
        # sub-surface 0's gain block is zeroed, so its 64 trial rates tie
        # exactly with the rate of record; only a strictly higher trial
        # moves a phase, so its off-grid phase stays while sub-surface 1's
        # moves
        cfg, re, prob, _ = pipeline(seed=7)
        alloc = Allocation(p_r=prob.power * np.array([0.5, 0.5]),
                           p_d=np.zeros(prob.l3), t=[0.5, 0.5])
        sol = Solution(problem=prob, allocation=alloc, v=1.0, w=1.0,
                       rate=rate(prob, alloc), s_min_star=2, direct=0)
        ev = adapt_solution(sol, re, psi=np.array([0.3, 0.3]))
        core = ev.model.core.copy()
        core[0] = 0.0
        model = dataclasses.replace(ev.model, core=core)
        tied = _phase_pencil(model, np.exp(1j * REFINE_GRID))(ev.plan.psi, 0)
        assert np.ptp(tied) == 0.0
        ev = dataclasses.replace(ev, model=model, rate=float(tied[0]))
        refined = refine_common_phases(ev)
        assert refined.rate > ev.rate
        assert refined.plan.psi[0] == 0.3 and refined.plan.psi[1] != 0.3



@pytest.mark.filterwarnings("ignore:path counts")
class TestPathDomain:
    def test_rate_matches_dense_oracle(self):
        rng = np.random.default_rng(20)
        seen = set()
        worst = 0.0
        for _ in range(60):
            cfg, ev = random_evaluation(rng)
            psi = rng.uniform(0, 2 * np.pi, ev.plan.s)
            for fast, ref in ((ev.rate, dense_rate(ev)),
                              (ev.model.rates(psi)[0], dense_rate(ev, psi))):
                worst = max(worst, abs(fast - ref) / max(abs(ref), 1e-300))
            seen |= cases(cfg, ev)
        assert worst <= 1e-10, worst
        assert seen == ALL_CASES

    def test_phase_pencil_matches_rates(self):
        # every coordinate step of random instances, and of one instance at
        # M=256, 100x300, L=16/16/8, where about 14 sub-surfaces take turns
        rng = np.random.default_rng(25)
        evaluations = [random_evaluation(rng)[1] for _ in range(30)]
        cfg = SimulationConfig(m_t=256, m_r=256, n_x=100, n_y=300, l1=16,
                               l2=16, l3=8, seed=3)
        re = realize_channels(cfg, realization_rng(cfg.seed, 0))
        sol = solve(coefficients(re))
        evaluations.append(adapt_solution(sol, re, rng))
        assert evaluations[-1].plan.s >= 10
        for ev in evaluations:
            trial_rates = _phase_pencil(ev.model, np.exp(1j * REFINE_GRID))
            psi = rng.uniform(0, 2 * np.pi, ev.plan.s)
            for s in range(ev.plan.s):
                trials = np.tile(psi, (REFINE_GRID.size, 1))
                trials[:, s] = REFINE_GRID
                np.testing.assert_allclose(
                    trial_rates(psi, s),
                    ev.model.rates(trials), rtol=1e-12, atol=0)

    @pytest.mark.parametrize("d", range(1, 9))
    def test_pencil_interpolation_matches_slogdet(self, d):
        # a random positive-definite G0 and E of rank d: 2d+1 node
        # determinants give the 64 trial rates of one slogdet each
        rng = np.random.default_rng(40 + d)

        def draw(*shape):
            return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

        self.check_pencil(draw(12, 10), draw(12, d) @ draw(d, 10), d)

    def test_pencil_interpolation_over_a_wide_range(self):
        # a0 close to b: the determinant falls by e^60 and more from x = 1
        # to x = -1, so the trials far below the best lose all their digits
        # (some interpolate to a determinant <= 0), and the best and its
        # neighbours keep theirs
        rng = np.random.default_rng(49)
        b = 12.0 * (rng.standard_normal((12, 8))
                    + 1j * rng.standard_normal((12, 8)))
        a0 = b + 0.01 * rng.standard_normal((12, 8))
        assert self.check_pencil(a0, b, 8) >= 60.0

    @staticmethod
    def check_pencil(a0, b, d):
        """Trial rates of block 0 (b) over the grid against one slogdet per
        trial; block 1 holds a0, so a trial Gram is I + K^H K with
        K = a0 + x b and E = a0^H b of rank <= d.  Returns their spread."""
        r = b.shape[1]
        model = PathModel(core=np.stack([b, a0]), tx_weights=np.eye(r),
                          rx_gram=np.eye(len(b)), noise_power=1.0,
                          block_rank=d)
        x = np.exp(1j * REFINE_GRID)
        kt = a0 + x[:, None, None] * b
        exact = np.linalg.slogdet(
            np.eye(r) + kt.conj().transpose(0, 2, 1) @ kt)[1] / np.log(2.0)
        rates = _phase_pencil(model, x)(np.zeros(1), 0)
        assert np.all(np.isfinite(rates))
        assert np.argmax(rates) == np.argmax(exact)
        near = exact >= exact.max() - 1.0
        np.testing.assert_allclose(rates[near], exact[near], rtol=1e-12,
                                   atol=0)
        return np.ptp(exact) * np.log(2.0)

    def test_identity_interpolation_matches_dense_ascent(self, monkeypatch):
        # the default L = 5/7/4 on a 20x60 RIS: d = 5, so 2d+1 = 11 nodes
        # are more than an 8-phase grid, the grid phases are the nodes and
        # the kernel is I
        grid = np.linspace(0.0, 2.0 * np.pi, 8, endpoint=False)
        monkeypatch.setattr(finite, "REFINE_GRID", grid)
        monkeypatch.setattr(oracle, "REFINE_GRID", grid)
        coeffs, kernel = _interpolation(11, np.exp(1j * grid).tobytes())
        np.testing.assert_array_equal(coeffs[:, 1], np.exp(1j * grid))
        np.testing.assert_array_equal(kernel, np.eye(8))
        cfg = SimulationConfig(n_x=20, n_y=60, seed=3)
        re = realize_channels(cfg, realization_rng(cfg.seed, 0))
        ev = adapt_solution(solve(coefficients(re)), re,
                            np.random.default_rng(30))
        assert ev.model.block_rank == 5 and ev.plan.s >= 2
        refined = refine_common_phases(ev)
        assert refined.rate > ev.rate
        psi, best = dense_refine(ev)
        np.testing.assert_array_equal(refined.plan.psi, psi)
        assert np.isin(psi, grid).any()
        assert abs(refined.rate - best) <= 1e-10 * best

    def test_refinement_matches_dense_ascent(self):
        # seed 23, the first after 21 whose 20 instances all keep two or
        # more sub-surfaces under the current path sampler's stream
        rng = np.random.default_rng(23)
        surfaces = []
        for i in range(20):
            # larger surfaces and powers than random_evaluation, so that
            # two to four sub-surfaces take turns in the ascent
            l = int(rng.integers(2, 5))
            cfg = SimulationConfig(
                m_t=16, m_r=16, n_x=int(rng.integers(8, 21)),
                n_y=int(rng.integers(16, 41)), l1=l, l2=l,
                l3=int(rng.integers(1, 4)),
                power_watts=P0 / 256 * 10.0 ** rng.uniform(1, 3))
            re = realize_channels(cfg, realization_rng(i, 0), max_tries=20)
            sol = solve(coefficients(re))
            ev = adapt_solution(sol, re, rng)
            surfaces.append(ev.plan.s)
            refined = refine_common_phases(ev)
            psi, best = dense_refine(ev)
            np.testing.assert_array_equal(refined.plan.psi, psi)
            assert abs(refined.rate - best) <= 1e-10 * abs(best)
            assert abs(refined.model.rates(psi)[0]
                       - refined.rate) <= 1e-12 * refined.rate
        assert min(surfaces) >= 2 and max(surfaces) >= 4

    def test_tile_plans_reproduce_the_column_rate(self):
        # the same surface as 1x1 tiles, as element rows of stripes, and
        # as the coarsest stripes: one core block per tile, the same rate
        rng = np.random.default_rng(27)
        seen = set()
        for _ in range(30):
            cfg, ev = random_evaluation(rng)
            _, tiles_y = coarsest_stripes(ev)
            for shape in ((cfg.n_x, cfg.n_y), (cfg.n_x, tiles_y),
                          (1, tiles_y)):
                tev = tiled(ev, *shape)
                assert tev.model.core.shape[0] == shape[0] * shape[1] + 1
                assert abs(tev.rate - ev.rate) <= 1e-12 * ev.rate
            seen |= cases(cfg, ev)
        assert seen == ALL_CASES

    def test_tile_rate_matches_dense_oracle(self):
        # every tile its own phase, refined or drawn, and the same rate on
        # the dense channels: 10 realizations at M = 16, 6x18, L = 3/4/2
        cfg = SimulationConfig(m_t=16, m_r=16, n_x=6, n_y=18, l1=3, l2=4,
                               l3=2, seed=3)
        rng = np.random.default_rng(28)
        worst = 0.0
        for i in range(10):
            re = realize_channels(cfg, realization_rng(cfg.seed, i))
            ev = adapt_solution(solve(coefficients(re)), re, rng)
            for tev in (tiled(ev, 6, 18), tiled(ev, 3, 6),
                        refine_common_phases(tiled(ev, 1, 18))):
                psi = rng.uniform(0, 2 * np.pi, tev.plan.psi.size)
                for fast, ref in ((tev.rate, dense_rate(tev)),
                                  (tev.model.rates(psi)[0],
                                   dense_rate(tev, psi))):
                    worst = max(worst, abs(fast - ref) / ref)
        assert worst <= 1e-12, worst

    def test_tile_refinement_matches_dense_ascent(self):
        # each of up to 18 tiles takes its turn; the ascent never lowers
        # the rate and picks the phases of the dense reference
        cfg = SimulationConfig(m_t=16, m_r=16, n_x=6, n_y=18, l1=3, l2=4,
                               l3=2, seed=3)
        rng = np.random.default_rng(29)
        moved = 0
        for i in range(3):
            re = realize_channels(cfg, realization_rng(cfg.seed, i))
            ev = adapt_solution(solve(coefficients(re)), re, rng)
            for tev in (tiled(ev, 1, 18), tiled(ev, *coarsest_stripes(ev))):
                assert tev.plan.psi.size <= 18
                refined = refine_common_phases(tev)
                assert refined.rate >= tev.rate
                psi, best = dense_refine(tev)
                np.testing.assert_array_equal(refined.plan.psi, psi)
                assert abs(refined.rate - best) <= 1e-10 * best
                moved += refined.rate > tev.rate
        assert moved

    def test_million_element_surface_in_small_memory(self):
        cfg = SimulationConfig(n_x=1000, n_y=1000, seed=3)
        re = realize_channels(cfg, realization_rng(cfg.seed, 0))
        sol = solve(coefficients(re))
        tracemalloc.start()
        try:
            ev = adapt_solution(sol, re, np.random.default_rng(0))
            refined = refine_common_phases(ev)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # one complex N-vector alone would take 16 MB
        assert peak < 4 * 2 ** 20
        assert refined.rate >= ev.rate > 0
