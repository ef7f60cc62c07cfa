"""Tests for the scalar-channel problem assembly and the asymptotic rate."""

import numpy as np
import pytest

from rispart.asymptotic import (Allocation, AsymptoticProblem, coefficients,
                                optimal_pairing, rate, validate_allocation)
from rispart.channel import ChannelRealization, PathSet, SimulationConfig


def make_realization(n=24, m_t=4, m_r=4, l1=2, l2=2, l3=2, seed=0,
                     pl_r=1e-8, pl_d=1e-6, sigma2=1e-12):
    rng = np.random.default_rng(seed)

    def gains(l):
        g = (rng.standard_normal(l) + 1j * rng.standard_normal(l))
        return g[np.argsort(-np.abs(g), kind="stable")]

    tx = PathSet(gains=gains(l1), departure=rng.random(l1),
                 arrival=rng.random((l1, 2)))
    rx = PathSet(gains=gains(l2),
                 departure=rng.random((l2, 2)), arrival=rng.random(l2))
    dd = PathSet(gains=gains(l3), departure=rng.random(l3),
                 arrival=rng.random(l3))
    return ChannelRealization(
        path_sets={"tx_ris": tx, "ris_rx": rx, "tx_rx": dd},
        pl_r=pl_r, pl_d=pl_d, noise_power=sigma2, m_t=m_t, m_r=m_r, n=n,
        draws=1, margin=float("inf"))


class TestProblem:
    def test_validation(self):
        with pytest.raises(ValueError):
            AsymptoticProblem(m_r=[-1.0], m_d=[], power=1.0)
        with pytest.raises(ValueError):
            AsymptoticProblem(m_r=[1.0, 2.0], m_d=[], power=1.0)
        with pytest.raises(ValueError):
            AsymptoticProblem(m_r=[1.0], m_d=[], power=0.0)
        with pytest.raises(ValueError):
            AsymptoticProblem(m_r=[2.0, 1.0], m_d=[], power=1.0,
                              pairs=[(0, 0)])

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, value):
        for kwargs in (dict(m_r=[value, 1.0], m_d=[], power=1.0),
                       dict(m_r=[1.0], m_d=[value], power=1.0),
                       dict(m_r=[1.0], m_d=[], power=value)):
            with pytest.raises(ValueError, match="finite"):
                AsymptoticProblem(**kwargs)

    def test_sizes(self):
        p = AsymptoticProblem(m_r=[4.0, 2.0], m_d=[3.0], power=1.0)
        assert p.s_max == 2 and p.l3 == 1


class TestCoefficients:
    def test_formula(self):
        re = make_realization()
        cfg = SimulationConfig(power_watts=2.0)
        prob = coefficients(re, optimal_pairing(2, 2), cfg)
        tx, rx = re.path_sets["tx_ris"], re.path_sets["ris_rx"]
        scale = re.pl_r * 4 * 4 * 24 ** 2 / (2 * 2 * re.noise_power)
        expected = sorted((scale * abs(tx.gains[k] * rx.gains[k]) ** 2
                           for k in range(2)), reverse=True)
        np.testing.assert_allclose(prob.m_r, expected, rtol=1e-12)
        d = re.path_sets["tx_rx"]
        scale_d = re.pl_d * 4 * 4 / (2 * re.noise_power)
        np.testing.assert_allclose(
            prob.m_d, sorted(scale_d * np.abs(d.gains) ** 2, reverse=True),
            rtol=1e-12)
        assert prob.power == 2.0

    def test_quadratic_in_surface_size(self):
        cfg = SimulationConfig()
        small = coefficients(make_realization(n=24), optimal_pairing(2, 2),
                             cfg)
        big = coefficients(make_realization(n=48), optimal_pairing(2, 2),
                           cfg)
        np.testing.assert_allclose(big.m_r, 4.0 * small.m_r, rtol=1e-12)
        np.testing.assert_allclose(big.m_d, small.m_d, rtol=1e-12)

    def test_sorted_with_pairs_tracked(self):
        re = make_realization(seed=3)
        cfg = SimulationConfig()
        prob = coefficients(re, optimal_pairing(2, 2), cfg)
        assert np.all(np.diff(prob.m_r) <= 0)
        assert np.all(np.diff(prob.m_d) <= 0)
        tx, rx = re.path_sets["tx_ris"], re.path_sets["ris_rx"]
        scale = re.pl_r * 4 * 4 * 24 ** 2 / (2 * 2 * re.noise_power)
        for coeff, (u, v) in zip(prob.m_r, prob.pairs):
            assert abs(coeff - scale * abs(tx.gains[u] * rx.gains[v]) ** 2) \
                < 1e-9 * coeff
        d = re.path_sets["tx_rx"]
        scale_d = re.pl_d * 4 * 4 / (2 * re.noise_power)
        np.testing.assert_allclose(
            prob.m_d, scale_d * np.abs(d.gains[prob.d_perm]) ** 2,
            rtol=1e-12)


class TestRate:
    def test_single_cascaded(self):
        prob = AsymptoticProblem(m_r=[16.0], m_d=[], power=1.0)
        alloc = Allocation(p_r=[1.0], p_d=[], t=[1.0])
        assert abs(rate(prob, alloc) - np.log2(17.0)) < 1e-12

    def test_cascaded_plus_direct(self):
        prob = AsymptoticProblem(m_r=[4.0], m_d=[4.0], power=2.0)
        alloc = Allocation(p_r=[1.0], p_d=[1.0], t=[1.0])
        assert abs(rate(prob, alloc) - 2 * np.log2(5.0)) < 1e-12

    def test_zero_ratio_kills_cascaded_term(self):
        prob = AsymptoticProblem(m_r=[4.0, 2.0], m_d=[], power=2.0)
        alloc = Allocation(p_r=[1.0, 1.0], p_d=[], t=[0.0, 1.0])
        assert abs(rate(prob, alloc) - np.log2(3.0)) < 1e-12

    def test_monotone_in_coefficients(self):
        alloc = Allocation(p_r=[0.6], p_d=[0.4], t=[1.0])
        r1 = rate(AsymptoticProblem(m_r=[4.0], m_d=[2.0], power=1.0), alloc)
        r2 = rate(AsymptoticProblem(m_r=[8.0], m_d=[2.0], power=1.0), alloc)
        assert r2 > r1

    def test_validation_rejects_budget_violation(self):
        prob = AsymptoticProblem(m_r=[4.0], m_d=[], power=1.0)
        with pytest.raises(ValueError):
            validate_allocation(prob, Allocation(p_r=[0.9], p_d=[], t=[1.0]))
        with pytest.raises(ValueError):
            validate_allocation(prob, Allocation(p_r=[1.0], p_d=[],
                                                 t=[0.9]))
        with pytest.raises(ValueError):
            validate_allocation(
                AsymptoticProblem(m_r=[4.0], m_d=[2.0], power=1.0),
                Allocation(p_r=[1.5], p_d=[-0.5], t=[1.0]))


class TestOptimalPairing:
    def test_identity_prefix(self):
        assert optimal_pairing(2, 3) == [(0, 0), (1, 1)]
        assert optimal_pairing(3, 2) == [(0, 0), (1, 1)]

    def test_square(self):
        assert optimal_pairing(3, 3) == [(0, 0), (1, 1), (2, 2)]

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            optimal_pairing(0, 3)
