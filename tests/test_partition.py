"""Partition-plan tests: gradients, rounding, phase-profile construction,
and the three gain evaluators."""

import numpy as np
import pytest

from rispart.channel import RisGeometry, PathSet
from rispart.partition import (PairingMatrix, PartitionPlan, PhaseGradient,
                               TilePlan, build_theta, column_assignment,
                               dirichlet_ratio, feasible_gradients,
                               gain_asymptotic, gain_closed_form,
                               gain_direct_sum, round_partition,
                               subsurface_gains, tile_plan_gain,
                               tile_plan_gain_asymptotic)


def make_ris(nx=4, ny=6):
    return RisGeometry(nx=nx, ny=ny, element_spacing=0.5, wavelength=1.0)


def random_plan(rng, s, ny, aligned_zeta=None):
    """Realized plan with random gradients/ratios/phases on ny columns."""
    grads = [PhaseGradient(rng.uniform(-2, 2), rng.uniform(-2, 2))
             for _ in range(s)]
    if aligned_zeta is not None:
        grads[0] = PhaseGradient(*aligned_zeta)
    t = rng.dirichlet(np.ones(s))
    psi = rng.uniform(0, 2 * np.pi, s)
    realized, _ = PartitionPlan(t=t, gradients=grads, psi=psi).realize(ny)
    return realized


class TestPhaseGradient:
    def test_specular(self):
        g = PhaseGradient.from_path_pair((0.7, 1.1), (0.7, 1.1))
        assert g.g_x == 0.0 and g.g_y == 0.0

    def test_unit_cosines(self):
        g = PhaseGradient.from_path_pair((np.pi / 2, 0.0),
                                         (np.pi / 2, np.pi / 2))
        assert abs(g.g_x - (-1.0)) < 1e-12
        assert abs(g.g_y - 1.0) < 1e-12

    def test_feasible_count(self):
        tx = PathSet(kind="tx_ris", gains=[1.0, 0.5], departure=[0.1, 0.2],
                     arrival=[(0.3, 0.4), (0.5, 1.9)])
        rx = PathSet(kind="ris_rx", gains=[1.0, 0.8, 0.2],
                     departure=[(0.2, 2.2), (0.9, 4.0), (1.1, 0.5)],
                     arrival=[0.3, 0.6, 0.9])
        grads = feasible_gradients(tx, rx)
        assert set(grads) == {(u, v) for u in range(2) for v in range(3)}

    def test_duplicate_warning(self):
        tx = PathSet(kind="tx_ris", gains=[1.0, 0.5], departure=[0.1, 0.2],
                     arrival=[(0.3, 0.4), (0.3, 0.4)])
        rx = PathSet(kind="ris_rx", gains=[1.0], departure=[(0.2, 2.2)],
                     arrival=[0.3])
        with pytest.warns(UserWarning, match="duplicate"):
            feasible_gradients(tx, rx)


class TestPairingMatrix:
    def test_pairs_ordered_by_tx_index(self):
        p = PairingMatrix([[0, 1, 0], [1, 0, 0]])
        assert p.pairs == [(0, 1), (1, 0)]
        assert p.size == 2

    def test_rejects_bad_entries(self):
        with pytest.raises(ValueError):
            PairingMatrix([[0, 2], [0, 0]])
        with pytest.raises(ValueError):
            PairingMatrix([[1, 1], [0, 0]])
        with pytest.raises(ValueError):
            PairingMatrix([[1, 0], [1, 0]])

    def test_equality(self):
        assert PairingMatrix([[1, 0]]) == PairingMatrix([[1, 0]])
        assert PairingMatrix([[1, 0]]) != PairingMatrix([[0, 1]])


class TestRounding:
    def test_even_split(self):
        r = round_partition([0.5, 0.5], 90)
        np.testing.assert_array_equal(r.counts, [45, 45])
        assert r.dropped == []

    def test_largest_remainder(self):
        r = round_partition([1 / 3, 1 / 3, 1 / 3], 10)
        np.testing.assert_array_equal(r.counts, [4, 3, 3])

    def test_tie_breaks_to_lower_index(self):
        r = round_partition([0.5, 0.5], 3)
        np.testing.assert_array_equal(r.counts, [2, 1])

    def test_drop_and_reapportion(self):
        r = round_partition([0.96, 0.04], 10)
        np.testing.assert_array_equal(r.counts, [10, 0])
        assert r.dropped == [1]

    def test_zero_ratio_not_flagged_dropped(self):
        r = round_partition([0.5, 0.0, 0.5], 10)
        np.testing.assert_array_equal(r.counts, [5, 0, 5])
        assert r.dropped == []

    def test_counts_always_sum(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            s = rng.integers(1, 7)
            t = rng.dirichlet(np.ones(s))
            ny = int(rng.integers(s, 200))
            assert round_partition(t, ny).counts.sum() == ny


class TestPartitionPlan:
    def test_validation(self):
        g = [PhaseGradient(0, 0)]
        with pytest.raises(ValueError):
            PartitionPlan(t=[0.9], gradients=g, psi=[0.0])
        with pytest.raises(ValueError):
            PartitionPlan(t=[1.0], gradients=g, psi=[2 * np.pi])

    def test_realize_drops_tiny_share(self):
        plan = PartitionPlan(t=[0.96, 0.04],
                             gradients=[PhaseGradient(0, 0),
                                        PhaseGradient(1, 1)],
                             psi=[0.0, 1.0])
        realized, kept = plan.realize(10)
        assert kept == [0]
        assert realized.s == 1
        np.testing.assert_array_equal(realized.column_counts, [10])
        assert realized.gradients[0].g_x == 0.0

    def test_column_assignment(self):
        plan = PartitionPlan(t=[0.5, 0.5],
                             gradients=[PhaseGradient(0, 0)] * 2,
                             psi=[0.0, 0.0], column_counts=[45, 45])
        owner = column_assignment(plan, 90)
        assert owner.shape == (90,)
        assert np.all(owner[:45] == 0) and np.all(owner[45:] == 1)


class TestBuildTheta:
    def test_single_element(self):
        ris = make_ris(1, 1)
        plan = PartitionPlan(t=[1.0], gradients=[PhaseGradient(0.4, -0.2)],
                             psi=[0.7], column_counts=[1])
        np.testing.assert_allclose(build_theta(plan, ris),
                                   [np.exp(0.7j)], atol=1e-15)

    def test_zero_gradient_constant_phase(self):
        ris = make_ris()
        plan = PartitionPlan(t=[1.0], gradients=[PhaseGradient(0, 0)],
                             psi=[0.0], column_counts=[6])
        np.testing.assert_allclose(build_theta(plan, ris),
                                   np.ones(24), atol=1e-15)

    def test_per_element_phases(self):
        ris = make_ris(4, 6)
        plan = PartitionPlan(t=[1 / 3, 2 / 3],
                             gradients=[PhaseGradient(0.3, -0.8),
                                        PhaseGradient(-1.1, 0.25)],
                             psi=[0.5, 4.0], column_counts=[2, 4])
        theta = build_theta(plan, ris)
        for n in range(24):
            nx, ny = n // 6, n % 6
            s = 0 if ny < 2 else 1
            g = plan.gradients[s]
            phase = plan.psi[s] + ris.k * (nx * g.g_x + ny * g.g_y)
            assert abs(theta[n] - np.exp(1j * phase)) < 1e-13


class TestGains:
    def test_uniform_broadside(self):
        ris = make_ris()
        assert abs(gain_direct_sum(np.ones(24), ris, (0.0, 0.0)) - 1) < 1e-14

    def test_single_element_passthrough(self):
        ris = make_ris(1, 1)
        g = gain_direct_sum(np.array([np.exp(1.3j)]), ris, (0.6, -0.4))
        assert abs(g - np.exp(1.3j)) < 1e-14

    def test_rejects_non_unit_theta(self):
        ris = make_ris()
        with pytest.raises(ValueError):
            gain_direct_sum(np.full(24, 0.5 + 0j), ris, (0.0, 0.0))

    def test_dirichlet_limits(self):
        assert dirichlet_ratio(0.0, 1.2) == 1.0
        assert abs(dirichlet_ratio(7, 1e-13) - 1.0) < 1e-9
        assert abs(dirichlet_ratio(4, np.pi) + 1.0) < 1e-12
        assert abs(dirichlet_ratio(3, np.pi) - 1.0) < 1e-12

    def test_dirichlet_bounded(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            extent = int(rng.integers(1, 40))
            assert abs(dirichlet_ratio(extent,
                                       rng.uniform(-8, 8))) <= 1 + 1e-12

    def test_dirichlet_elementwise(self):
        rng = np.random.default_rng(8)
        extent = rng.integers(0, 40, 50).astype(float)
        x = np.concatenate([rng.uniform(-8, 8, 45),
                            [0.0, np.pi, -np.pi, 2 * np.pi, 1e-13]])
        np.testing.assert_array_equal(
            dirichlet_ratio(extent, x),
            [dirichlet_ratio(e, v) for e, v in zip(extent, x)])

    def test_subsurface_gains_batch(self):
        rng = np.random.default_rng(9)
        ris = make_ris(6, 10)
        plan = random_plan(rng, 3, 10)
        zx, zy = rng.uniform(-2, 2, (4, 5)), rng.uniform(-2, 2, (4, 5))
        gains = subsurface_gains(plan, ris, zx, zy)
        assert gains.shape == (plan.s, 4, 5)
        for i in range(4):
            for j in range(5):
                direct = gain_direct_sum(build_theta(plan, ris), ris,
                                         (zx[i, j], zy[i, j]))
                assert abs(np.exp(1j * plan.psi) @ gains[:, i, j]
                           - direct) < 1e-12

    def test_closed_form_matches_direct_sum(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            nx = int(rng.integers(1, 9))
            ny = int(rng.integers(2, 13))
            ris = make_ris(nx, ny)
            plan = random_plan(rng, int(rng.integers(1, 4)), ny)
            zeta = (rng.uniform(-1, 1), rng.uniform(-1, 1))
            direct = gain_direct_sum(build_theta(plan, ris), ris, zeta)
            closed = gain_closed_form(plan, ris, zeta)
            assert abs(direct - closed) < 1e-12

    def test_aligned_subsurface_exact_term(self):
        ris = make_ris(8, 12)
        zeta = (0.37, -0.81)
        plan = PartitionPlan(t=[1.0], gradients=[PhaseGradient(*zeta)],
                             psi=[1.9], column_counts=[12])
        g = gain_closed_form(plan, ris, zeta)
        assert abs(g - np.exp(1.9j)) < 1e-12

    def test_gain_magnitude_bounded(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            ris = make_ris(4, 12)
            plan = random_plan(rng, 3, 12)
            zeta = (rng.uniform(-1, 1), rng.uniform(-1, 1))
            assert abs(gain_closed_form(plan, ris, zeta)) <= 1 + 1e-12

    def test_asymptotic_selects_aligned(self):
        zeta = (0.25, -0.5)
        grads = [PhaseGradient(*zeta), PhaseGradient(0.9, 0.9)]
        plan = PartitionPlan(t=[0.3, 0.7], gradients=grads,
                             psi=[0.0, 2.0])
        assert abs(gain_asymptotic(plan, zeta) - 0.3) < 1e-15
        plan_rot = PartitionPlan(t=[0.3, 0.7], gradients=grads,
                                 psi=[np.pi / 2, 2.0])
        assert abs(gain_asymptotic(plan_rot, zeta) - 0.3j) < 1e-15
        assert gain_asymptotic(plan, (0.1, 0.1)) == 0

    def test_converges_to_asymptotic(self):
        rng = np.random.default_rng(5)
        zeta = (0.25, -0.5)
        grads = [PhaseGradient(*zeta), PhaseGradient(0.9, -0.15)]
        t = np.array([0.4, 0.6])
        psi = np.array([1.0, 2.5])
        gaps = []
        for scale in (1, 3, 9):
            ny = 12 * scale
            ris = make_ris(4 * scale, ny)
            plan, _ = PartitionPlan(t=t, gradients=grads,
                                    psi=psi).realize(ny)
            gap = abs(gain_closed_form(plan, ris, zeta)
                      - gain_asymptotic(plan, zeta))
            gaps.append(gap)
        assert gaps[2] < gaps[0]


class TestTilePlan:
    def test_from_mu_rejects_fractional(self):
        with pytest.raises(ValueError):
            TilePlan.from_mu([0.3, 0.7], 2, 3,
                             [PhaseGradient(0, 0), PhaseGradient(1, 1)],
                             [0.0, 0.0])

    def test_mu_property(self):
        tiles = TilePlan.from_mu([0.25, 0.75], 2, 2,
                                 [PhaseGradient(0, 0), PhaseGradient(1, 1)],
                                 [0.0, 1.0])
        np.testing.assert_allclose(tiles.mu, [0.25, 0.75])

    def test_stripe_tiling_reproduces_plan(self):
        rng = np.random.default_rng(6)
        ris = make_ris(4, 12)
        plan = PartitionPlan(
            t=[1 / 3, 2 / 3],
            gradients=[PhaseGradient(0.3, -0.8), PhaseGradient(-1.1, 0.25)],
            psi=[0.5, 4.0], column_counts=[4, 8])
        tiles = TilePlan.from_partition_plan(plan, ris, tiles_x=2, tiles_y=6)
        np.testing.assert_allclose(tiles.build_theta(ris),
                                   build_theta(plan, ris), atol=1e-12)
        for _ in range(5):
            zeta = (rng.uniform(-1, 1), rng.uniform(-1, 1))
            assert abs(tile_plan_gain(tiles, ris, zeta)
                       - gain_closed_form(plan, ris, zeta)) < 1e-12

    def test_tile_gain_matches_direct_sum(self):
        rng = np.random.default_rng(7)
        ris = make_ris(4, 6)
        grads = [PhaseGradient(rng.uniform(-2, 2), rng.uniform(-2, 2))
                 for _ in range(3)]
        assignment = rng.integers(0, 3, size=(2, 3))
        psi_tiles = rng.uniform(0, 2 * np.pi, size=(2, 3))
        tiles = TilePlan(tiles_x=2, tiles_y=3, assignment=assignment,
                         gradients=grads, psi_tiles=psi_tiles)
        for _ in range(5):
            zeta = (rng.uniform(-1, 1), rng.uniform(-1, 1))
            direct = gain_direct_sum(tiles.build_theta(ris), ris, zeta)
            assert abs(tile_plan_gain(tiles, ris, zeta) - direct) < 1e-12

    def test_tile_asymptotic(self):
        zeta = (0.25, -0.5)
        tiles = TilePlan.from_mu([0.5, 0.5], 2, 2,
                                 [PhaseGradient(*zeta),
                                  PhaseGradient(0.9, 0.9)],
                                 [1.2, 0.0])
        g = tile_plan_gain_asymptotic(tiles, zeta)
        assert abs(g - 0.5 * np.exp(1.2j)) < 1e-14
