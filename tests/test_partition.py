"""Partition-plan tests: gradients, rounding, phase-profile construction,
the three gain evaluators, and the tile plans that share their block
model."""

import numpy as np
import pytest

from rispart.channel import RisGeometry, dirichlet_ratio, ris_cosines
from rispart.partition import (PartitionPlan, TilePlan, build_theta,
                               gain_asymptotic, gain_closed_form,
                               gain_direct_sum, round_partition,
                               subsurface_gains)


def make_ris(nx=4, ny=6):
    return RisGeometry(nx=nx, ny=ny, element_spacing=0.5, wavelength=1.0)


def random_plan(rng, s, ny):
    """Plan with random gradients/ratios/phases rounded onto ny columns;
    sub-surfaces that rounding drops are left out."""
    grads = rng.uniform(-2, 2, (s, 2))
    counts = round_partition(rng.dirichlet(np.ones(s)), ny)
    psi = rng.uniform(0, 2 * np.pi, s)
    keep = np.flatnonzero(counts)
    return PartitionPlan(column_counts=counts[keep], gradients=grads[keep],
                         psi=psi[keep])


def reflecting(arrival, departure) -> tuple[float, float]:
    """Gradient (g_x, g_y) reflecting an (elevation, azimuth) arrival into
    a departure, as ``finite.adapt_solution`` forms it."""
    (arr_x, dep_x), (arr_y, dep_y) = ris_cosines([arrival, departure])
    return dep_x - arr_x, dep_y - arr_y


class TestReflectingGradient:
    def test_specular(self):
        g_x, g_y = reflecting((0.7, 1.1), (0.7, 1.1))
        assert g_x == 0.0 and g_y == 0.0

    def test_unit_cosines(self):
        g_x, g_y = reflecting((np.pi / 2, 0.0), (np.pi / 2, np.pi / 2))
        assert abs(g_x - (-1.0)) < 1e-12
        assert abs(g_y - 1.0) < 1e-12



class TestRounding:
    def test_even_split(self):
        np.testing.assert_array_equal(round_partition([0.5, 0.5], 90),
                                      [45, 45])

    def test_largest_remainder(self):
        counts = round_partition([1 / 3, 1 / 3, 1 / 3], 10)
        np.testing.assert_array_equal(counts, [4, 3, 3])

    def test_tie_breaks_to_lower_index(self):
        np.testing.assert_array_equal(round_partition([0.5, 0.5], 3), [2, 1])

    def test_drop_and_reapportion(self):
        # a positive ratio with a zero count is a dropped sub-surface
        np.testing.assert_array_equal(round_partition([0.96, 0.04], 10),
                                      [10, 0])
        np.testing.assert_array_equal(round_partition([0.9, 0.05, 0.05], 4),
                                      [4, 0, 0])

    def test_zero_ratio_not_flagged_dropped(self):
        np.testing.assert_array_equal(round_partition([0.5, 0.0, 0.5], 10),
                                      [5, 0, 5])

    def test_counts_always_sum(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            s = rng.integers(1, 7)
            t = rng.dirichlet(np.ones(s))
            ny = int(rng.integers(s, 200))
            assert round_partition(t, ny).sum() == ny
        # or the ratios are rejected: a NaN would round to no columns
        for t in ([np.nan, np.nan], [np.nan, 1.0]):
            with pytest.raises(ValueError):
                round_partition(t, 10)

    def test_rejects_ratios_off_the_simplex(self):
        with pytest.raises(ValueError, match="sum to 1"):
            round_partition([0.5, 0.4], 10)

    def test_no_columns_no_survivor(self):
        with pytest.raises(ValueError, match="no sub-surface survived"):
            round_partition([1.0], 0)

    @pytest.mark.parametrize("ny", [-1, -3, -10])
    def test_negative_columns_rejected(self, ny):
        # no negative counts: fewer than one column leaves no survivor
        for t in ([1.0], [0.5, 0.5], [0.7, 0.2, 0.1]):
            with pytest.raises(ValueError, match="no sub-surface survived"):
                round_partition(t, ny)


class TestPartitionPlan:
    def test_validation(self):
        g = [(0, 0), (1, 1)]
        with pytest.raises(ValueError, match="nonnegative"):
            PartitionPlan(column_counts=[7, -1], gradients=g, psi=[0.0, 0.0])
        for psi in ([0.0, 2 * np.pi], [np.nan, 1.0]):
            with pytest.raises(ValueError, match="2\\*pi"):
                PartitionPlan(column_counts=[3, 3], gradients=g, psi=psi)
        plan = PartitionPlan(column_counts=[2, 3], gradients=g,
                             psi=[0.0, 1.0])
        with pytest.raises(ValueError, match="sum to Ny"):
            build_theta(plan, make_ris(4, 6))

    @pytest.mark.parametrize("counts, psi", [
        ([3, 3], [[0.0, 1.0]]), ([[3, 3]], [0.0, 1.0]), ([3, 3], [0.0])])
    def test_counts_and_phases_must_be_flat(self, counts, psi):
        # a (1, S) phase row would zip against the blocks as one entry,
        # leaving the other blocks' theta unset
        with pytest.raises(ValueError, match="flat"):
            PartitionPlan(column_counts=counts, gradients=[(0, 0), (1, 1)],
                          psi=psi)

    @pytest.mark.parametrize("counts", [
        [2.7, 3.3], [3.0, 3.0000001], [np.nan, 6], [np.inf, 0]])
    def test_counts_must_be_integers(self, counts):
        # a fractional count is not truncated to a column run
        with pytest.raises(ValueError, match="integers"):
            PartitionPlan(column_counts=counts, gradients=[(0, 0), (1, 1)],
                          psi=[0.0, 1.0])
        plan = PartitionPlan(column_counts=[3.0, 3.0],
                             gradients=[(0, 0), (1, 1)], psi=[0.0, 1.0])
        assert plan.column_counts.dtype.kind == "i"

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_gradients_must_be_finite(self, bad):
        with pytest.raises(ValueError, match="gradients must be finite"):
            PartitionPlan(column_counts=[3, 3], gradients=[(0, 0), (1, bad)],
                          psi=[0.0, 1.0])

    @pytest.mark.parametrize("gradients", [
        [0.0, 1.0], [(0, 0)], [(0, 0, 0), (1, 1, 1)], np.zeros((2, 2, 1))])
    def test_gradients_must_be_s_by_2(self, gradients):
        with pytest.raises(ValueError, match="S x 2"):
            PartitionPlan(column_counts=[3, 3], gradients=gradients,
                          psi=[0.0, 1.0])


class TestBuildTheta:
    def test_single_element(self):
        ris = make_ris(1, 1)
        plan = PartitionPlan(column_counts=[1],
                             gradients=[(0.4, -0.2)], psi=[0.7])
        np.testing.assert_allclose(build_theta(plan, ris),
                                   [np.exp(0.7j)], atol=1e-15)

    def test_zero_gradient_constant_phase(self):
        ris = make_ris()
        plan = PartitionPlan(column_counts=[6],
                             gradients=[(0, 0)], psi=[0.0])
        np.testing.assert_allclose(build_theta(plan, ris),
                                   np.ones(24), atol=1e-15)

    def test_per_element_phases(self):
        ris = make_ris(4, 6)
        plan = PartitionPlan(column_counts=[2, 4],
                             gradients=[(0.3, -0.8), (-1.1, 0.25)],
                             psi=[0.5, 4.0])
        theta = build_theta(plan, ris)
        for n in range(24):
            nx, ny = n // 6, n % 6
            s = 0 if ny < 2 else 1
            g_x, g_y = plan.gradients[s]
            phase = plan.psi[s] + ris.k * (nx * g_x + ny * g_y)
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

    @pytest.mark.parametrize("extent", [2, 7, 4096, 2 ** 20])
    def test_dirichlet_near_multiples_of_pi(self, extent):
        # within 1e-9 of 0 the direct quotient, within 1e-9 of another
        # multiple of pi the quotient in x - m*pi: both to 1e-15 of a
        # 50-digit sum at the double x
        mpmath = pytest.importorskip("mpmath")
        offsets = np.concatenate([np.logspace(-12, -9, 7),
                                  -np.logspace(-12, -9, 7)])
        with mpmath.workdps(50):
            for m in (0, 1, -1, 2, 3):
                x = m * np.pi + offsets
                got = dirichlet_ratio(extent, x)
                for xi, gi in zip(x, got):
                    exact = (mpmath.sin(extent * mpmath.mpf(xi))
                             / (extent * mpmath.sin(mpmath.mpf(xi))))
                    assert abs(gi - exact) < 1e-15, (m, xi)
                    assert gi == dirichlet_ratio(extent, xi)

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
        plan = PartitionPlan(column_counts=[12],
                             gradients=[zeta], psi=[1.9])
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
        ris = make_ris(4, 10)
        zeta = (0.25, -0.5)
        grads = [zeta, (0.9, 0.9)]
        plan = PartitionPlan(column_counts=[3, 7], gradients=grads,
                             psi=[0.0, 2.0])
        assert abs(gain_asymptotic(plan, ris, zeta) - 0.3) < 1e-15
        plan_rot = PartitionPlan(column_counts=[3, 7], gradients=grads,
                                 psi=[np.pi / 2, 2.0])
        assert abs(gain_asymptotic(plan_rot, ris, zeta) - 0.3j) < 1e-15
        assert gain_asymptotic(plan, ris, (0.1, 0.1)) == 0

    def test_converges_to_asymptotic(self):
        zeta = (0.25, -0.5)
        grads = [zeta, (0.9, -0.15)]
        t = np.array([0.4, 0.6])
        psi = np.array([1.0, 2.5])
        gaps = []
        for scale in (1, 3, 9):
            ny = 12 * scale
            ris = make_ris(4 * scale, ny)
            plan = PartitionPlan(column_counts=round_partition(t, ny),
                                 gradients=grads, psi=psi)
            gap = abs(gain_closed_form(plan, ris, zeta)
                      - gain_asymptotic(plan, ris, zeta))
            gaps.append(gap)
        assert gaps[2] < gaps[0]


class TestTilePlan:
    def test_stripe_tiling_reproduces_plan(self):
        rng = np.random.default_rng(6)
        ris = make_ris(4, 12)
        plan = PartitionPlan(
            column_counts=[4, 8],
            gradients=[(0.3, -0.8), (-1.1, 0.25)],
            psi=[0.5, 4.0])
        tiles = TilePlan.from_partition_plan(plan, ris, tiles_x=2, tiles_y=6)
        # phases share the plan's origin reference, so they copy over
        np.testing.assert_array_equal(tiles.psi,
                                      plan.psi[tiles.assignment.ravel()])
        np.testing.assert_array_equal(build_theta(tiles, ris),
                                      build_theta(plan, ris))
        for _ in range(5):
            zeta = (rng.uniform(-1, 1), rng.uniform(-1, 1))
            assert abs(gain_closed_form(tiles, ris, zeta)
                       - gain_closed_form(plan, ris, zeta)) < 1e-12

    def test_tile_gain_matches_direct_sum(self):
        rng = np.random.default_rng(7)
        ris = make_ris(4, 6)
        grads = rng.uniform(-2, 2, (3, 2))
        assignment = rng.integers(0, 3, size=(2, 3))
        psi = rng.uniform(0, 2 * np.pi, size=6)
        tiles = TilePlan(tiles_x=2, tiles_y=3, assignment=assignment,
                         gradients=grads, psi=psi)
        for _ in range(5):
            zeta = (rng.uniform(-1, 1), rng.uniform(-1, 1))
            direct = gain_direct_sum(build_theta(tiles, ris), ris, zeta)
            assert abs(gain_closed_form(tiles, ris, zeta) - direct) < 1e-12

    def test_tile_subsurface_is_one_linear_profile(self):
        ris = make_ris(4, 6)
        grads = [(0.3, -0.8), (-1.1, 0.25)]
        psi = [1.2, 0.4]
        tiles = TilePlan(tiles_x=2, tiles_y=3,
                         assignment=[[0, 0, 0], [1, 1, 1]], gradients=grads,
                         psi=[1.2, 1.2, 1.2, 0.4, 0.4, 0.4])
        theta = build_theta(tiles, ris).reshape(4, 6)
        for s, rows in enumerate((slice(0, 2), slice(2, 4))):
            whole = PartitionPlan(column_counts=[6], gradients=[grads[s]],
                                  psi=[psi[s]])
            np.testing.assert_array_equal(
                theta[rows], build_theta(whole, ris).reshape(4, 6)[rows])

    def test_tile_asymptotic(self):
        zeta = (0.25, -0.5)
        tiles = TilePlan(tiles_x=2, tiles_y=2, assignment=[[0, 0], [1, 1]],
                         gradients=[zeta, (0.9, 0.9)],
                         psi=[1.2, 1.2, 0.0, 0.0])
        g = gain_asymptotic(tiles, make_ris(4, 6), zeta)
        assert abs(g - 0.5 * np.exp(1.2j)) < 1e-14

    def test_tiled_gain_converges_to_limit(self):
        zeta = (0.25, -0.37)
        tiles = TilePlan(tiles_x=2, tiles_y=2, assignment=[[0, 0], [1, 1]],
                         gradients=[zeta, (-0.6, 0.45)],
                         psi=[1.2, 1.2, 0.3, 0.3])
        gaps = []
        for side in (4, 16, 64, 256):
            ris = make_ris(side, side)
            gaps.append(abs(gain_closed_form(tiles, ris, zeta)
                            - gain_asymptotic(tiles, ris, zeta)))
        assert all(b < a for a, b in zip(gaps, gaps[1:])), gaps
        assert gaps[-1] < 1e-3, gaps

    def test_tile_grid_must_divide_ris(self):
        tiles = TilePlan(tiles_x=2, tiles_y=2, assignment=[[0, 0], [1, 1]],
                         gradients=[(0, 0), (1, 1)],
                         psi=[0.0, 0.0, 1.0, 1.0])
        with pytest.raises(ValueError, match="divide"):
            gain_closed_form(tiles, make_ris(5, 6), (0.0, 0.0))
        plan = PartitionPlan(column_counts=[6],
                             gradients=[(0, 0)], psi=[0.0])
        with pytest.raises(ValueError, match="divide"):
            TilePlan.from_partition_plan(plan, make_ris(4, 6), 3, 2)

    def test_from_partition_plan_requires_realized(self):
        # realized on this RIS: the column counts cover its Ny columns
        plan = PartitionPlan(column_counts=[2, 2],
                             gradients=[(0, 0), (1, 1)], psi=[0.0, 1.0])
        with pytest.raises(ValueError, match="sum to Ny"):
            TilePlan.from_partition_plan(plan, make_ris(4, 6), 2, 3)

    def test_column_blocks_must_align_with_tiles(self):
        plan = PartitionPlan(column_counts=[3, 3],
                             gradients=[(0, 0), (1, 1)], psi=[0.0, 1.0])
        with pytest.raises(ValueError, match="align"):
            TilePlan.from_partition_plan(plan, make_ris(4, 6), 2, 3)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            TilePlan(tiles_x=2, tiles_y=3, assignment=np.zeros((2, 3)),
                     gradients=[(0, 0)], psi=np.zeros(5))
        for gradients in ([0.0, 1.0], [(0, 0, 0)], np.zeros((2, 2, 1))):
            with pytest.raises(ValueError, match="S, 2"):
                TilePlan(tiles_x=2, tiles_y=3, assignment=np.zeros((2, 3)),
                         gradients=gradients, psi=np.zeros(6))

    @pytest.mark.parametrize("tiles_x, tiles_y", [(0, 2), (2, 0), (0, 0)])
    def test_empty_tile_grid_rejected(self, tiles_x, tiles_y):
        # a grid without tiles has no block to lay out or divide the RIS by
        with pytest.raises(ValueError, match="no tiles"):
            TilePlan(tiles_x=tiles_x, tiles_y=tiles_y,
                     assignment=np.zeros((tiles_x, tiles_y)),
                     gradients=[(0, 0)], psi=[])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_gradients_must_be_finite(self, bad):
        with pytest.raises(ValueError, match="gradients must be finite"):
            TilePlan(tiles_x=2, tiles_y=2, assignment=[[0, 0], [1, 1]],
                     gradients=[(0, 0), (bad, 1)],
                     psi=np.zeros(4))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -5.0, -1e-300,
                                     2 * np.pi])
    def test_phases_in_range(self, bad):
        with pytest.raises(ValueError, match="2\\*pi"):
            TilePlan(tiles_x=2, tiles_y=2, assignment=[[0, 0], [1, 1]],
                     gradients=[(0, 0), (1, 1)],
                     psi=[0.0, 1.0, bad, 2.0])

    @pytest.mark.parametrize("index", [0.7, 1.5, np.nan, np.inf])
    def test_assignment_must_be_integral(self, index):
        # a fractional index is not truncated to a sub-surface
        assignment = np.zeros((2, 2))
        assignment[0, 0] = index
        with pytest.raises(ValueError, match="valid sub-surface"):
            TilePlan(tiles_x=2, tiles_y=2, assignment=assignment,
                     gradients=[(0, 0), (1, 1)], psi=np.zeros(4))

    @pytest.mark.parametrize("index", [-1, 2])
    def test_assignment_index_out_of_range(self, index):
        assignment = np.zeros((2, 2), dtype=int)
        assignment[1, 1] = index
        with pytest.raises(ValueError, match="valid sub-surface"):
            TilePlan(tiles_x=2, tiles_y=2, assignment=assignment,
                     gradients=[(0, 0), (1, 1)],
                     psi=np.zeros(4))
