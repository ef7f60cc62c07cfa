"""Solver tests: water-filling, the cascaded-power cubic, fixed-power
partition ratios, the exact dual solve, and its bisection and
Levenberg-Marquardt cross-checks."""

import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rispart import solver
from rispart.asymptotic import (Allocation, AsymptoticProblem, Solution,
                                coefficients, rate, validate_allocation)
from rispart.channel import (SimulationConfig, realization_rng,
                             realize_channels)
from rispart.checks import random_problem
from rispart.oracle import (LmDivergenceError, bisect_dual_roots,
                            lm_cold_start, lm_solve)
from rispart.solver import (A_MAX, budget_residual, dual_bracket,
                            kkt_residual, largest_root, solve, solve_p32,
                            water_filling)

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


class TestWaterFilling:
    def test_single_channel(self):
        p, v = water_filling([2.0], 1.0)
        np.testing.assert_allclose(p, [1.0])
        assert abs(v - 2.0 / 3.0) < 1e-12

    def test_equal_channels(self):
        p, v = water_filling([1.0, 1.0], 2.0)
        np.testing.assert_allclose(p, [1.0, 1.0])

    def test_unequal_split(self):
        p, v = water_filling([4.0, 1.0], 1.0)
        np.testing.assert_allclose(p, [0.875, 0.125], atol=1e-12)
        assert abs(v - 8.0 / 9.0) < 1e-12

    def test_weak_channel_shut_off(self):
        p, v = water_filling([10.0, 0.1], 0.5)
        np.testing.assert_allclose(p, [0.5, 0.0], atol=1e-12)
        assert abs(v - 1.0 / 0.6) < 1e-12

    def test_zero_budget(self):
        p, v = water_filling([3.0, 1.0], 0.0)
        np.testing.assert_array_equal(p, [0.0, 0.0])

    def test_budget_when_inverse_gains_dwarf_it(self):
        for m, budget in (([1e-4], 1e-4), ([2e-6, 1e-6], 1e-4)):
            p, v = water_filling(m, budget)
            assert abs(p.sum() - budget) <= 1e-15 * budget

    def test_input_validation(self):
        with pytest.raises(ValueError):
            water_filling([], 1.0)
        for m, budget in (([1.0], -0.5), ([1.0, 2.0], np.nan),
                          ([1.0], np.inf), ([0.0, 2.0], 1.0),
                          ([-1.0, 2.0], 1.0), ([np.nan, 2.0], 1.0),
                          ([np.inf, 2.0], 1.0)):
            with pytest.raises(ValueError, match="finite"):
                water_filling(m, budget)
        # coefficients in any order: the powers come back permuted alike
        m = np.array([10.0, 0.1, 4.0, 4.0, 1.0])
        p, v = water_filling(m, 0.5)
        for perm in ([4, 1, 3, 0, 2], [2, 3, 0, 4, 1]):
            p_perm, v_perm = water_filling(m[perm], 0.5)
            np.testing.assert_array_equal(p_perm, p[perm])
            assert v_perm == v
        assert water_filling([1.0, 3.0], 0.0)[1] == 3.0


class TestCubicRoots:
    """The largest root of the normalized cascaded-power cubic."""

    def test_zero_cascaded_total(self):
        # P_r = 0: p^3 - p^2/v = 0 has roots {0 (double), 1/v}; only 1/v
        # is a feasible cascaded power
        v, p_r_total, m = 2.0, 0.0, 4.0
        y = largest_root(v ** 3 * p_r_total ** 2 / m)
        assert y == 1.0
        assert abs(y / v - 0.5) < 1e-15

    def test_polynomial_residual(self):
        rng = np.random.default_rng(1)
        a = np.concatenate([[0.0, A_MAX], rng.uniform(0.0, A_MAX, 500),
                            A_MAX * (1.0 - 10.0 ** rng.uniform(-15, -1, 100))])
        y = largest_root(a)
        assert np.all(np.abs(y ** 3 - y ** 2 + a) < 1e-15)
        assert np.all((y >= 2.0 / 3.0) & (y <= 1.0))
        assert np.all(np.diff(y[np.argsort(a)]) <= 0.0)
        for ai, yi in zip(a[:200], y[:200]):
            roots = np.roots([1.0, -1.0, 0.0, ai])
            real = roots[np.abs(roots.imag) <= 1e-7].real
            assert abs(yi - real.max()) < 1e-7

    def test_unnormalized_cubic_at_any_scale(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            m = 10.0 ** rng.uniform(-6, 18)
            p_r_total = 10.0 ** rng.uniform(-4, 4)
            # a dual v anywhere the root exists
            v = (rng.uniform(0.0, A_MAX) * m / p_r_total ** 2) ** (1.0 / 3.0)
            p = largest_root(v ** 3 * p_r_total ** 2 / m) / v
            res = p ** 3 - p ** 2 / v + p_r_total ** 2 / m
            assert abs(res) <= 1e-14 * max(p ** 3, p ** 2 / v)

    def test_validity_floor(self):
        # p = y/v >= max(4 v^2 P_r^2 / m, 1/(2v)) reads y >= max(4a, 1/2)
        a = np.linspace(0.0, A_MAX, 1001)
        y = largest_root(a)
        assert np.all(y >= np.maximum(4.0 * a, 0.5) * (1 - 1e-12))

    def test_input_validation(self):
        for bad in (-1e-3, A_MAX * (1 + 1e-9), np.nan):
            with pytest.raises(ValueError):
                largest_root(bad)


class TestSolveP32:
    def test_symmetric_two_paths(self):
        t, w = solve_p32([16.0, 16.0])
        np.testing.assert_allclose(t, [0.5, 0.5], atol=1e-9)
        assert abs(w - 3.2) < 1e-9

    def test_weak_pair_collapses(self):
        t, w = solve_p32([3.0, 2.0])
        np.testing.assert_allclose(t, [1.0, 0.0], atol=1e-12)
        assert abs(w - 1.5) < 1e-12

    def test_matches_dense_scan(self):
        rng = np.random.default_rng(2)
        grid = np.linspace(0.0, 1.0, 100001)
        for _ in range(50):
            m = np.sort(10.0 ** rng.uniform(-0.5, 3.0, 2))[::-1]
            t, _ = solve_p32(m)
            best = np.sum(np.log2(1 + m * t ** 2))
            scan = (np.log2(1 + m[0] * grid ** 2)
                    + np.log2(1 + m[1] * (1 - grid) ** 2))
            assert best >= scan.max() - 1e-7

    def test_invariants(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            m = np.sort(10.0 ** rng.uniform(-0.5, 3.0,
                                            rng.integers(1, 6)))[::-1]
            t, w = solve_p32(m)
            assert abs(t.sum() - 1.0) < 1e-9
            assert np.all(np.diff(t) <= 1e-12)
            assert w > 0

    def test_input_validation(self):
        with pytest.raises(ValueError):
            solve_p32([1.0, 2.0])
        for bad in ([1.0, -1.0], [np.nan, 1.0], [np.inf, 1.0], [2.0, np.nan]):
            with pytest.raises(ValueError):
                solve_p32(bad)


class TestSearchBounds:
    """The closed-form power-dual bracket of the budget residual."""

    def test_with_direct(self):
        lo, hi = dual_bracket([1.0], 1.0, 2)
        # the direct path is off at both ends: (4/3)/v = 1 and 2/v = 1
        assert abs(lo - 4.0 / 3.0) < 1e-15
        assert abs(hi - 2.0) < 1e-15
        prob = AsymptoticProblem(m_r=[40.0, 20.0], m_d=[1.0], power=1.0)
        assert budget_residual(prob, lo, 2) > 0
        assert budget_residual(prob, hi, 2) < 0

    def test_direct_cap(self):
        lo, hi = dual_bracket([10.0], 1.0, 2)
        # the direct path stays on at both ends and caps the cascaded
        # budget: 1/v - 1/10 + c/v = 1 gives v = (1 + c) / 1.1 for c = 4/3
        # and c = 2
        assert abs(lo - (7.0 / 3.0) / 1.1) < 1e-14
        assert abs(hi - 3.0 / 1.1) < 1e-14

    def test_without_direct(self):
        lo, hi = dual_bracket([], 2.0, np.array([2, 3]))
        np.testing.assert_allclose(lo, [2.0 / 3.0, 1.0], rtol=1e-15)
        np.testing.assert_allclose(hi, [1.0, 1.5], rtol=1e-15)

    def test_needs_cascaded(self):
        with pytest.raises(ValueError):
            dual_bracket([1.0], 1.0, 0)

    @pytest.mark.parametrize("power", [0.0, -1.0, np.nan, np.inf])
    def test_needs_finite_positive_power(self, power):
        with pytest.raises(ValueError, match="finite and positive"):
            dual_bracket([1.0], power, 1)

    def test_residual_decreases_across_bracket(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            prob = random_problem(rng, s_max=int(rng.integers(2, 6)))
            k = np.arange(2, prob.s_max + 1)
            lo, hi = dual_bracket(prob.m_d, prob.power, k)
            assert np.all(hi <= 1.5 * lo * (1 + 1e-15))
            v = lo[:, None] * (hi / lo)[:, None] ** np.linspace(0, 1, 200)
            res = budget_residual(prob, v, k[:, None])
            scale = 1e-14 * prob.power
            assert np.all(res[:, 0] >= -scale) and np.all(res[:, -1] <= scale)
            assert np.all(np.diff(res, axis=1) < 0)


class TestDualRoots:
    """Safeguarded Newton steps against the bisection reference."""

    @staticmethod
    def realized_problems(config, count):
        for index in range(count):
            realization = realize_channels(
                config, realization_rng(config.seed, index))
            yield coefficients(realization)

    @pytest.mark.parametrize("config", [
        SimulationConfig(seed=3),
        SimulationConfig(m_t=64, m_r=64, l1=8, l2=8, l3=4, seed=3)],
        ids=["default", "paths-8x8"])
    def test_few_residual_evaluations(self, monkeypatch, config):
        # one evaluation covers every prefix; bisection took 58 per solve
        evaluations = []
        residual_slope = solver._residual_slope

        def counted(*args):
            evaluations[-1] += 1
            return residual_slope(*args)

        for prob in self.realized_problems(config, 300):
            evaluations.append(0)
            with monkeypatch.context() as patch:
                patch.setattr(solver, "_residual_slope", counted)
                sol = solve(prob)
            with monkeypatch.context() as patch:
                patch.setattr(solver, "_dual_roots", bisect_dual_roots)
                ref = solve(prob)
            assert (sol.s_min_star, sol.direct) == (ref.s_min_star,
                                                    ref.direct)
            assert abs(sol.rate - ref.rate) <= 1e-12 * ref.rate
        assert np.mean(evaluations) <= 8 and max(evaluations) <= 58

    def test_slope_matches_finite_difference(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            prob = random_problem(rng, s_max=4)
            k = np.arange(2, 5)
            lo, hi = dual_bracket(prob.m_d, prob.power, k)
            v = lo + rng.uniform(0.0, 1.0, k.size) * (hi - lo)
            _, slope = solver._residual_slope(prob, v, k)
            h = 1e-6 * v
            central = (budget_residual(prob, v + h, k)
                       - budget_residual(prob, v - h, k)) / (2.0 * h)
            np.testing.assert_allclose(slope, central, rtol=1e-5)


class TestGridSearch:
    """The exact dual solve that takes the place of the paper's grid."""

    def test_single_cascaded_only(self):
        sol = solve(AsymptoticProblem(m_r=[16.0], m_d=[], power=1.0))
        np.testing.assert_allclose(sol.allocation.p_r, [1.0], atol=1e-12)
        np.testing.assert_allclose(sol.allocation.t, [1.0], atol=1e-12)
        assert abs(sol.rate - np.log2(17.0)) < 1e-12

    def test_negligible_cascade_reduces_to_water_filling(self):
        prob = AsymptoticProblem(m_r=[1e-9], m_d=[4.0, 1.0], power=1.0)
        sol = solve(prob)
        p, _ = water_filling([4.0, 1.0], 1.0)
        expected = np.sum(np.log2(1 + np.array([4.0, 1.0]) * p))
        assert abs(sol.rate - expected) < 1e-6

    def test_snr_outside_float_range_rejected(self):
        # subnormal SNRs, where 1/(m P) overflows, used to give a NaN rate
        for m_r, m_d, power in (([1e200], [], 1e200), ([1e-200], [], 1e-200),
                                ([2.8e-313, 8.3e-314], [2.1e-309], 1.0)):
            with pytest.raises(ValueError, match=r"m \* P"):
                solve(AsymptoticProblem(m_r=m_r, m_d=m_d, power=power))

    def test_smallest_normal_snr_solves(self):
        tiny = np.finfo(float).tiny
        # a second SNR below about 4e-308 overflows the cubic constant,
        # which is clipped: no warning may escape
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for m_r, m_d in (([tiny], []), ([1.0], [tiny]),
                             ([1.0, tiny], [tiny]), ([1.0, 3e-308], [1.0])):
                sol = solve(AsymptoticProblem(m_r=m_r, m_d=m_d, power=1.0))
                assert np.isfinite(sol.rate)

    def test_deterministic(self):
        prob = random_problem(np.random.default_rng(5))
        a = solve(prob)
        b = solve(prob)
        np.testing.assert_array_equal(a.allocation.p_r, b.allocation.p_r)
        assert a.rate == b.rate


class TestLmSolve:
    """The Levenberg-Marquardt cross-check in the oracle module."""

    def test_cold_start_single_block(self):
        prob = AsymptoticProblem(m_r=[16.0], m_d=[], power=1.0)
        sol, res = lm_solve(prob, 1, 0)
        assert abs(sol.rate - np.log2(17.0)) < 1e-9
        assert res.max_abs < 1e-6

    def test_pattern_membership(self):
        prob = AsymptoticProblem(m_r=[50.0, 40.0], m_d=[], power=1.0)
        sol, _ = lm_solve(prob, 2, 0)
        a = sol.allocation
        for s in range(2):
            m_tilde = prob.m_r[s] * a.p_r[s]
            root = np.sqrt(max(1.0 / sol.w ** 2 - 1.0 / m_tilde, 0.0))
            dev = min(abs(a.t[s] - (1.0 / sol.w + root)),
                      abs(a.t[s] - (1.0 / sol.w - root)))
            assert dev < 1e-6

    def test_raises_when_not_converged(self):
        prob = AsymptoticProblem(m_r=[50.0, 40.0], m_d=[30.0], power=1.0)
        with pytest.raises(LmDivergenceError):
            lm_solve(prob, 2, 1, max_iter=1)


class TestKktResidual:
    def analytic_single(self):
        prob = AsymptoticProblem(m_r=[16.0], m_d=[], power=1.0)
        alloc = Allocation(p_r=[1.0], p_d=[], t=[1.0])
        v = 16.0 / 17.0
        w = 32.0 / 17.0
        return prob, Solution(problem=prob, allocation=alloc, v=v, w=w,
                              rate=rate(prob, alloc), s_min_star=1,
                              direct=0)

    def test_exact_point(self):
        prob, sol = self.analytic_single()
        assert kkt_residual(prob, sol).max_abs < 1e-12

    def test_perturbation_detected(self):
        prob, sol = self.analytic_single()
        sol.v *= 1.01
        assert kkt_residual(prob, sol).max_abs > 1e-3

    def test_scale_free(self):
        # one normalized instance (m P fixed) at three powers
        m_r, m_d = np.array([3.0, 2.0, 1.0]) * 1e4, np.array([2.5, 0.5]) * 1e4
        readings = []
        for power in (1e-16, 1.0, 1e16):
            prob = AsymptoticProblem(m_r=m_r / power, m_d=m_d / power,
                                     power=power)
            readings.append(kkt_residual(prob, solve(prob)).max_abs)
        assert max(readings) - min(readings) <= 1e-12


class TestSolve:
    def test_lm_polish_does_not_improve(self):
        rng = np.random.default_rng(7)
        for _ in range(15):
            prob = random_problem(rng)
            sol = solve(prob)
            if not sol.s_min_star:
                continue
            try:
                polished, _ = lm_solve(prob, sol.s_min_star, sol.direct,
                                       sol.allocation)
            except LmDivergenceError:
                continue
            assert polished.rate <= sol.rate + 1e-9 * max(1.0, sol.rate)

    def test_lm_cold_start_close_to_solve(self):
        rng = np.random.default_rng(8)
        # the last problem's optimum activates no cascaded path
        problems = [random_problem(rng) for _ in range(10)] + [
            AsymptoticProblem(m_r=[1e-9, 1e-10], m_d=[4.0, 1.0], power=1.0)]
        for prob in problems:
            sol = solve(prob)
            lm = lm_cold_start(prob)
            assert lm.rate >= sol.rate - 5e-3 * max(1.0, abs(sol.rate))
            assert lm.rate <= sol.rate + 1e-9 * max(1.0, sol.rate)

    def test_near_tie_keeps_fewer_paths(self):
        # the two-path block leads the single-path point by less than the
        # 1e-12 tie tolerance, so the fewer activated paths are kept
        prob = AsymptoticProblem(m_r=[200.0, 53.264974899961935], m_d=[],
                                 power=1.0)
        k = np.array([2])
        p_r, _, _, _ = solver._block_powers(prob,
                                            bisect_dual_roots(prob, k), k)
        t = p_r[0] / p_r.sum()
        lead = (np.log2(1.0 + prob.m_r * p_r[0] * t ** 2).sum()
                - np.log2(201.0))
        assert 0.0 < lead < 1e-12
        sol = solve(prob)
        assert sol.s_min_star == 1 and sol.rate == np.log2(201.0)

    def test_existence_admits_rounding_at_the_edge(self, monkeypatch):
        # the winning block's weakest constant a reads as 4/27 rounded up
        # by 5e-13 relative, within the 1e-12 existence tolerance: the
        # block still exists and still wins
        prob = AsymptoticProblem(m_r=[200.0, 180.0], m_d=[], power=1.0)
        expected = solve(prob)
        assert expected.s_min_star == 2
        block_powers = solver._block_powers

        def at_edge(problem, v, k):
            p_r, p_d, budget_r, a = block_powers(problem, v, k)
            weakest = np.arange(a.shape[-1]) == np.asarray(k)[..., None] - 1
            return (p_r, p_d, budget_r,
                    np.where(weakest, A_MAX * (1.0 + 5e-13), a))

        monkeypatch.setattr(solver, "_block_powers", at_edge)
        sol = solve(prob)
        assert sol.s_min_star == 2
        assert abs(sol.rate - expected.rate) <= 1e-12 * expected.rate

    def test_pattern_labels(self):
        # active ratios take the plus root 1/w + sqrt(1/w^2 - 1/(m_s p_s))
        # of their KKT equation, well apart from the minus root; the
        # others are zero
        for m_r, active in (([3.0, 2.0], 1), ([200.0, 180.0], 2)):
            sol = solve(AsymptoticProblem(m_r=m_r, m_d=[], power=1.0))
            a = sol.allocation
            assert sol.s_min_star == active
            root = np.sqrt(1.0 / sol.w ** 2
                           - 1.0 / (np.array(m_r[:active]) * a.p_r[:active]))
            np.testing.assert_allclose(a.t[:active], 1.0 / sol.w + root,
                                       rtol=1e-9)
            assert np.all(root > 1e-3)
            assert np.all(a.t[active:] == 0.0)


def _coefficients(max_size):
    exponents = st.lists(st.floats(min_value=-6.0, max_value=18.0),
                         min_size=0, max_size=max_size)
    return exponents.map(lambda e: 10.0 ** np.sort(np.array(e))[::-1])


@settings(max_examples=300, deadline=None)
@given(m_r=_coefficients(8).filter(len), m_d=_coefficients(4),
       power_exp=st.floats(min_value=-300.0, max_value=300.0))
def test_exact_kkt_point_over_the_whole_range(m_r, m_d, power_exp):
    # the coefficients are drawn normalized, as m P
    power = 10.0 ** power_exp
    with np.errstate(over="ignore"):
        m_r, m_d = m_r / power, m_d / power
    assume(np.all(np.isfinite(m_r)) and np.all(np.isfinite(m_d)))
    assume(np.all(m_r > 0) and np.all(m_d > 0))
    prob = AsymptoticProblem(m_r=m_r, m_d=m_d, power=power)
    sol = solve(prob)
    a = sol.allocation
    validate_allocation(prob, a)
    assert kkt_residual(prob, sol).max_abs <= 1e-9
    assert np.all(np.diff(a.p_r) <= 0.0) and np.all(np.diff(a.t) <= 0.0)
    if a.p_r.sum() > 0:
        np.testing.assert_allclose(a.t, a.p_r / a.p_r.sum(), rtol=0.0,
                                   atol=1e-12)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(solver, "_dual_roots", bisect_dual_roots)
        ref = solve(prob)
    assert (sol.s_min_star, sol.direct) == (ref.s_min_star, ref.direct)
    assert abs(sol.rate - ref.rate) <= 1e-12 * ref.rate
