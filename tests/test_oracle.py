"""Tests for the brute-force reference implementations and their agreement
with the analytical solvers."""

from math import comb

import numpy as np
import pytest

from rispart.asymptotic import AsymptoticProblem, rate
from rispart.oracle import (brute_force_p3, enumerate_pairings,
                            simplex_lattice, snap_allocation, snap_to_lattice)
from rispart.solver import solve


class TestSimplexLattice:
    def test_one_dimensional(self):
        np.testing.assert_array_equal(simplex_lattice(1, 8), [[1.0]])

    def test_point_count(self):
        for dim, res in ((2, 8), (3, 10), (4, 6)):
            lat = simplex_lattice(dim, res)
            assert lat.shape == (comb(res + dim - 1, dim - 1), dim)

    def test_unit_sums_and_range(self):
        lat = simplex_lattice(3, 12)
        np.testing.assert_allclose(lat.sum(axis=1), 1.0, atol=1e-12)
        assert lat.min() >= 0 and lat.max() <= 1
        assert len({tuple(row) for row in lat}) == lat.shape[0]

    def test_input_validation(self):
        with pytest.raises(ValueError):
            simplex_lattice(0, 8)


class TestSnapToLattice:
    def test_lattice_point_is_fixed(self):
        t = np.array([0.25, 0.5, 0.25])
        np.testing.assert_allclose(snap_to_lattice(t, 16), t, atol=1e-15)

    def test_snapped_point_on_lattice(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            t = rng.dirichlet(np.ones(4))
            snapped = snap_to_lattice(t, 16)
            counts = snapped * 16
            np.testing.assert_allclose(counts, np.round(counts), atol=1e-12)
            assert abs(snapped.sum() - 1.0) < 1e-12
            assert np.max(np.abs(snapped - t)) <= 1.0 / 16 + 1e-12


class TestBruteForceP3:
    def test_single_channel(self):
        prob = AsymptoticProblem(m_r=[16.0], m_d=[], power=1.0)
        best, alloc = brute_force_p3(prob)
        assert abs(best - np.log2(17.0)) < 1e-12
        np.testing.assert_allclose(alloc.p_r, [1.0])
        np.testing.assert_allclose(alloc.t, [1.0])

    def test_symmetric_pair_on_lattice(self):
        prob = AsymptoticProblem(m_r=[1000.0, 1000.0], m_d=[], power=1.0)
        best, alloc = brute_force_p3(prob)
        # the even split lies exactly on the lattice and beats one-hot
        assert best >= 2 * np.log2(1 + 1000.0 * 0.5 * 0.25) - 1e-12
        np.testing.assert_allclose(np.sort(alloc.t), [0.5, 0.5])
        np.testing.assert_allclose(np.sort(alloc.p_r), [0.5, 0.5])

    def test_size_guard(self):
        with pytest.raises(ValueError):
            brute_force_p3(AsymptoticProblem(m_r=[4.0] * 4, m_d=[],
                                             power=1.0))
        with pytest.raises(ValueError):
            brute_force_p3(AsymptoticProblem(m_r=[4.0], m_d=[3.0] * 3,
                                             power=1.0))

    def test_solver_beats_oracle_up_to_resolution(self):
        rng = np.random.default_rng(1)
        for _ in range(5):
            s = int(rng.integers(1, 4))
            l3 = int(rng.integers(0, 3))
            prob = AsymptoticProblem(
                m_r=np.sort(10.0 ** rng.uniform(0, 2.5, s))[::-1],
                m_d=np.sort(10.0 ** rng.uniform(0, 2.5, l3))[::-1],
                power=1.0)
            oracle, _ = brute_force_p3(prob)
            sol = solve(prob)
            assert sol.rate >= oracle * (1 - 1e-3)
            snapped = snap_allocation(prob, sol.allocation)
            assert oracle >= rate(prob, snapped, validate=False) - 1e-9


class TestEnumeratePairings:
    def test_requires_smaller_set_first(self):
        with pytest.raises(ValueError):
            enumerate_pairings([1.0, 0.5, 0.2], [1.0, 0.5], power=1.0)
        with pytest.raises(ValueError):
            enumerate_pairings([1.0] * 5, [1.0] * 5, power=1.0)

    def test_single_pair(self):
        table = enumerate_pairings([2.0], [3.0], power=1.0, scale=1.0)
        assert len(table) == 1
        pairs, r = table[0]
        assert pairs == ((0, 0),)
        assert abs(r - np.log2(1 + 36.0)) < 1e-9

    def test_sorted_pairing_wins(self):
        table = enumerate_pairings([3.0, 1.0], [2.0, 0.5], power=1.0,
                                   scale=20.0)
        assert len(table) == 2
        best_pairs, best_rate = table[0]
        assert set(best_pairs) == {(0, 0), (1, 1)}
        assert best_rate >= table[1][1]

    def test_table_sorted_best_first(self):
        rng = np.random.default_rng(2)
        gains = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        gains = gains[np.argsort(-np.abs(gains))]
        table = enumerate_pairings(gains, gains, power=1.0, scale=50.0)
        assert len(table) == 6
        rates = [r for _, r in table]
        assert rates == sorted(rates, reverse=True)
