"""Channel-model tests: steering vectors, path sampling, path loss, the
realization's path sets and sampler diagnostics, the batched sampler
against its draw-by-draw reference, config validation, and the dense
channel and effective channel assembly of the reference model."""

import dataclasses
import hashlib
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from rispart.channel import (HOP_KINDS, SAMPLE_CHUNK, ChannelRealization,
                             PathSet, RisGeometry, SimulationConfig,
                             _min_cosine_gaps, dbm_to_watts, load_config,
                             path_loss, realization_rng, realize_channels,
                             steering, steering_gram)
from rispart.oracle import (dense_channels, effective_channel, min_cosine_gap,
                            ris_response, serial_realize_channels,
                            synth_channel)

HOP_TX_RIS, HOP_RIS_RX, HOP_TX_RX = "tx_ris", "ris_rx", "tx_rx"


def small_config(**kw):
    defaults = dict(m_t=8, m_r=8, n_x=4, n_y=6, l1=2, l2=2, l3=2,
                    realizations=1, seed=0)
    defaults.update(kw)
    return SimulationConfig(**defaults)


class TestSteeringVector:
    def test_all_ones(self):
        np.testing.assert_allclose(steering(0.0, 4),
                                   np.full((4, 1), 0.5), atol=1e-15)

    def test_alternating(self):
        np.testing.assert_allclose(steering(1.0, 2)[:, 0],
                                   np.array([1, -1]) / np.sqrt(2), atol=1e-15)

    def test_componentwise(self):
        phi, m = np.array([0.37, -1.2, 3.1]), 8
        a = steering(phi, m)
        assert a.shape == (m, phi.size)
        for i in range(m):
            for k in range(phi.size):
                assert abs(a[i, k] - np.exp(1j * np.pi * i * phi[k])
                           / np.sqrt(m)) < 1e-14

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            steering(0.3, 0)

    @given(st.floats(-4, 4), st.integers(1, 64))
    @settings(max_examples=30, deadline=None)
    def test_unit_norm_and_period(self, phi, m):
        v = steering(phi, m)
        assert abs(np.linalg.norm(v) - 1.0) < 1e-12
        np.testing.assert_allclose(v, steering(phi + 2.0, m), atol=1e-9)


class TestSteeringGram:
    @pytest.mark.parametrize("m", [1, 2, 32, 4096])
    def test_matches_steering_product(self, m):
        rng = np.random.default_rng(m)
        for scale in (0.5, 1.0, 1.3):
            # equal arguments, arguments 2 apart (x = pi) and +-scale
            phi = np.concatenate([[0.3, 0.3, 1.0, -1.0, scale, -scale,
                                   scale - 2.0],
                                  scale * np.sin(rng.uniform(0, 7, 20))])
            for a, b in ((phi, phi), (phi, phi[[4, 0, 9, 3]])):
                np.testing.assert_allclose(
                    steering_gram(a, b, m),
                    steering(a, m).conj().T @ steering(b, m),
                    rtol=0, atol=1e-12)

    def test_hermitian_with_unit_diagonal(self):
        phi = np.sin(np.random.default_rng(1).uniform(0, 7, 9)) * 1.7
        r = steering_gram(phi, phi, 64)
        np.testing.assert_array_equal(r, r.conj().T)
        np.testing.assert_array_equal(np.diag(r), 1.0)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            steering_gram(0.3, 0.1, 0)


class TestArrayResponses:
    # a ULA at half-wavelength spacing has the argument sin(theta)
    def test_ula_boresight(self):
        np.testing.assert_allclose(steering(np.sin(0.0), 3),
                                   np.full((3, 1), 1 / np.sqrt(3)),
                                   atol=1e-15)

    def test_ula_endfire(self):
        np.testing.assert_allclose(steering(np.sin(np.pi / 2), 2),
                                   steering(1.0, 2), atol=1e-12)

    def test_ula_componentwise(self):
        v = steering(np.sin(0.6), 16)[:, 0]
        assert abs(np.linalg.norm(v) - 1.0) < 1e-12
        np.testing.assert_allclose(
            v, np.exp(1j * np.pi * np.arange(16) * np.sin(0.6)) / 4.0,
            atol=1e-14)

    def test_ris_zero_elevation(self):
        g = RisGeometry(nx=2, ny=2, element_spacing=0.5, wavelength=1.0)
        np.testing.assert_allclose(ris_response([(0.0, 1.3)], g),
                                   np.full((4, 1), 0.5), atol=1e-15)

    @pytest.mark.parametrize("spacing, wavelength", [
        (0.0, 1.0), (0.5, -1.0), (np.nan, 1.0), (np.inf, 1.0), (0.5, np.nan),
        (0.5, np.inf)])
    def test_ris_geometry_validation(self, spacing, wavelength):
        with pytest.raises(ValueError, match="finite and positive"):
            RisGeometry(2, 2, spacing, wavelength)

    @pytest.mark.parametrize("nx, ny", [(0, 2), (2, 0), (-1, 3)])
    def test_ris_geometry_needs_an_element(self, nx, ny):
        with pytest.raises(ValueError, match="nx and ny must be >= 1"):
            RisGeometry(nx, ny, 0.5, 1.0)

    def test_ris_kron_structure(self):
        g = RisGeometry(nx=4, ny=6, element_spacing=0.5, wavelength=1.0)
        angles = np.array([(0.8, 2.1), (0.3, 5.0)])
        a = ris_response(angles, g)
        assert a.shape == (24, 2)
        for k, (phi, az) in enumerate(angles):
            ax = np.sin(phi) * np.cos(az)
            ay = np.sin(phi) * np.sin(az)
            for nx in range(4):
                for ny in range(6):
                    expected = (np.exp(1j * np.pi * (nx * ax + ny * ay))
                                / np.sqrt(24))
                    assert abs(a[nx * 6 + ny, k] - expected) < 1e-13

    def test_inner_product_bound(self):
        # asymptotic orthogonality, quantitative form
        rng = np.random.default_rng(0)
        for m in (16, 64, 256):
            for _ in range(20):
                t1, t2 = rng.uniform(0, np.pi / 2, 2)
                if abs(np.sin(t1) - np.sin(t2)) < 1e-6:
                    continue
                a = steering(np.sin([t1, t2]), m)
                ip = abs(a[:, 0].conj() @ a[:, 1])
                bound = 1.0 / (m * abs(np.sin(
                    np.pi * 0.5 * (np.sin(t1) - np.sin(t2)))))
                assert ip <= bound + 1e-12


def _ula(angles, m, config):
    """Responses of an M-element terminal at the config's element spacing,
    as ``oracle.dense_channels`` builds them."""
    return steering(2.0 * config.spacing / config.wavelength
                    * np.sin(angles), m)


class TestSynthChannel:
    @pytest.mark.parametrize("gains", [
        [1.0, 2.0], [np.nan, 1.0], [1.0, np.nan], [np.nan], [np.inf, 1.0],
        [complex(np.inf, np.nan)]])
    def test_path_set_validation(self, gains):
        with pytest.raises(ValueError, match="finite and sorted"):
            PathSet(gains=gains, departure=np.zeros(len(gains)),
                    arrival=np.zeros(len(gains)))

    def test_single_path_all_ones(self):
        paths = PathSet(gains=[1.0 + 0j], departure=[0.0], arrival=[0.0])
        a = steering(np.sin(paths.departure), 2)
        np.testing.assert_allclose(synth_channel(paths, a, a),
                                   np.ones((2, 2)), atol=1e-14)

    def test_rank_bound(self):
        cfg = small_config(m_t=16, m_r=16, l3=3)
        p = realize_channels(cfg, realization_rng(4, 0)).path_sets[HOP_TX_RX]
        h = synth_channel(p, _ula(p.departure, 16, cfg),
                          _ula(p.arrival, 16, cfg))
        assert h.shape == (16, 16)
        assert np.linalg.matrix_rank(h, tol=1e-10) <= 3

    def test_matches_direct_sum(self):
        cfg = small_config(l1=3, l3=1)
        p = realize_channels(cfg, realization_rng(6, 0)).path_sets[HOP_TX_RIS]
        ris = cfg.ris_geometry
        h = synth_channel(p, _ula(p.departure, cfg.m_t, cfg),
                          ris_response(p.arrival, ris))
        manual = np.zeros((ris.n, cfg.m_t), dtype=complex)
        for ell in range(3):
            a_ris = ris_response(p.arrival[ell], ris)[:, 0]
            a_tx = _ula(p.departure[ell], cfg.m_t, cfg)[:, 0]
            manual += p.gains[ell] * np.outer(a_ris, a_tx.conj())
        manual *= np.sqrt(ris.n * cfg.m_t / 3)
        np.testing.assert_allclose(h, manual, atol=1e-12)


class TestPathLoss:
    def test_unit_distances(self):
        cfg = small_config(d1=1.0, d2=1.0)
        pl_r, _ = path_loss(cfg)
        lam = cfg.wavelength
        assert abs(pl_r - lam ** 2 / (64 * np.pi ** 3)) < 1e-25

    def test_default_magnitudes(self):
        pl_r, pl_d = path_loss(SimulationConfig())
        assert 0 < pl_r < pl_d
        assert 1e-18 < pl_r < 1e-11

    def test_power_law(self):
        _, pl_d1 = path_loss(small_config(d3=150.0))
        _, pl_d2 = path_loss(small_config(d3=300.0))
        assert abs(pl_d2 / pl_d1 - 2.0 ** -2.4) < 1e-12


class TestEffectiveChannel:
    def make_realization(self, rng):
        cfg = small_config()
        re = realize_channels(cfg, rng)
        return cfg, re, dense_channels(re)

    def test_identity_theta(self):
        cfg, re, (h1, h2, h3) = self.make_realization(
            np.random.default_rng(7))
        h = effective_channel(re, (h1, h2, np.zeros_like(h3)),
                              np.ones(cfg.n, dtype=complex))
        pl_r, _ = path_loss(re.config)
        np.testing.assert_allclose(h, np.sqrt(pl_r) * (h2 @ h1), atol=1e-14)

    def test_direct_only(self):
        cfg, re, (h1, h2, h3) = self.make_realization(
            np.random.default_rng(8))
        h = effective_channel(re, (np.zeros_like(h1), h2, h3),
                              np.ones(cfg.n, dtype=complex))
        _, pl_d = path_loss(re.config)
        np.testing.assert_allclose(h, np.sqrt(pl_d) * h3, atol=1e-20)

    def test_matches_direct_arithmetic(self):
        cfg, re, (h1, h2, h3) = self.make_realization(
            np.random.default_rng(9))
        theta = np.exp(1j * np.random.default_rng(10).uniform(
            0, 2 * np.pi, cfg.n))
        h = effective_channel(re, (h1, h2, h3), theta)
        pl_r, pl_d = path_loss(re.config)
        manual = (np.sqrt(pl_r) * h2 @ np.diag(theta) @ h1
                  + np.sqrt(pl_d) * h3)
        np.testing.assert_allclose(h, manual, atol=1e-14)

    def test_rejects_non_unit_modulus(self):
        cfg, re, channels = self.make_realization(np.random.default_rng(11))
        theta = np.ones(cfg.n, dtype=complex)
        theta[0] = 0.5
        with pytest.raises(ValueError):
            effective_channel(re, channels, theta)

    def test_rejects_wrong_length_theta(self):
        cfg, re, channels = self.make_realization(np.random.default_rng(11))
        with pytest.raises(ValueError, match="theta length"):
            effective_channel(re, channels, np.ones(cfg.n - 1, dtype=complex))

    def test_dense_channels_match_synthesis(self):
        cfg, re, (h1, h2, h3) = self.make_realization(
            np.random.default_rng(12))
        tx, rx, direct = (re.path_sets[kind]
                          for kind in (HOP_TX_RIS, HOP_RIS_RX, HOP_TX_RX))
        ris, m_t, m_r = cfg.ris_geometry, cfg.m_t, cfg.m_r
        np.testing.assert_array_equal(h1, synth_channel(
            tx, _ula(tx.departure, m_t, cfg), ris_response(tx.arrival, ris)))
        np.testing.assert_array_equal(h2, synth_channel(
            rx, ris_response(rx.departure, ris), _ula(rx.arrival, m_r, cfg)))
        np.testing.assert_array_equal(h3, synth_channel(
            direct, _ula(direct.departure, m_t, cfg),
            _ula(direct.arrival, m_r, cfg)))


class TestRealization:
    def test_bit_identical_under_seed(self):
        cfg = small_config()
        a = dense_channels(realize_channels(cfg, realization_rng(42, 3)))
        b = dense_channels(realize_channels(cfg, realization_rng(42, 3)))
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])
        np.testing.assert_array_equal(a[2], b[2])

    def test_holds_path_sets_and_sizes(self):
        cfg = small_config(m_t=8, m_r=16, n_x=4, n_y=6)
        re = realize_channels(cfg, realization_rng(0, 1))
        assert re.config is cfg and (cfg.m_t, cfg.m_r, cfg.n) == (8, 16, 24)
        assert set(re.path_sets) == {HOP_TX_RIS, HOP_RIS_RX, HOP_TX_RX}
        assert not any(isinstance(v, np.ndarray)
                       for v in vars(re).values())

    def test_sampler_diagnostics(self, caplog):
        # d = 1 wavelength puts steering arguments on [-2, 2], so a
        # difference can exceed the period 2 and the gap must wrap; with
        # L = 5/7/4 nearly every draw has such a pair
        for m, max_tries, d, paths in ((8, 1000, 0.5, (2, 2, 2)),
                                       (32, 1000, 0.5, (2, 2, 2)),
                                       (16, 3, 0.5, (2, 2, 2)),
                                       (16, 1000, 1.0, (2, 2, 2)),
                                       (32, 1000, 1.0, (5, 7, 4))):
            cfg = small_config(m_t=m, m_r=m, spacing_wavelengths=d,
                               l1=paths[0], l2=paths[1], l3=paths[2])
            scale = 2.0 * d
            for index in range(5):
                with caplog.at_level("DEBUG", logger="rispart"):
                    caplog.clear()
                    re = realize_channels(cfg, realization_rng(1, index),
                                          max_tries=max_tries)
                p = re.path_sets
                margin = min(
                    min_cosine_gap(np.concatenate([p[HOP_TX_RIS].departure,
                                                   p[HOP_TX_RX].departure]),
                                   scale) * m,
                    min_cosine_gap(np.concatenate([p[HOP_RIS_RX].arrival,
                                                   p[HOP_TX_RX].arrival]),
                                   scale) * m)
                assert re.margin == margin
                assert re.margin >= 0.0
                assert 1 <= re.draws <= max_tries
                kept_below = re.margin < 2.0
                assert kept_below == (re.draws == max_tries
                                      and bool(caplog.records))
        with pytest.raises(ValueError):
            realize_channels(small_config(), realization_rng(0, 0),
                             max_tries=0)

    def test_angle_ranges_and_gain_power(self):
        # the kept path sets' angles lie on their half-open ranges and
        # the gains are unit-power CSCG, over 250 x 40 paths
        cfg = SimulationConfig(m_t=64, m_r=64, l1=8, l2=8, l3=4)
        terminal, ris, gains = [], [], []
        for index in range(250):
            p = realize_channels(cfg, realization_rng(5, index)).path_sets
            terminal += [p[HOP_TX_RIS].departure, p[HOP_RIS_RX].arrival,
                         p[HOP_TX_RX].departure, p[HOP_TX_RX].arrival]
            ris += [p[HOP_TX_RIS].arrival, p[HOP_RIS_RX].departure]
            gains += [p[kind].gains for kind in HOP_KINDS]
        terminal, ris = np.concatenate(terminal), np.concatenate(ris)
        assert np.all((terminal > 0) & (terminal <= 2 * np.pi))
        assert np.all((ris[:, 0] > 0) & (ris[:, 0] <= np.pi / 2))
        assert np.all((ris[:, 1] > 0) & (ris[:, 1] <= 2 * np.pi))
        assert abs(np.mean(np.abs(np.concatenate(gains)) ** 2) - 1.0) < 0.05
        with pytest.raises(ValueError, match="at least one path"):
            PathSet(gains=np.empty(0), departure=np.empty(0),
                    arrival=np.empty(0))

    def test_scoring_memory_linear_in_paths(self):
        # 260 Tx and 260 Rx angles a row: scoring all pairs of a chunk of
        # rows would take about 100 MiB
        with pytest.warns(UserWarning, match="not small"):
            cfg = SimulationConfig(l1=256, l2=256, l3=4)
        tracemalloc.start()
        try:
            realize_channels(cfg, realization_rng(0, 0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2 ** 20

    def test_validation(self):
        re = realize_channels(small_config(), realization_rng(0, 0))
        fields = dict(vars(re))
        with pytest.raises(ValueError):
            ChannelRealization(**dict(
                fields, path_sets={HOP_TX_RIS: re.path_sets[HOP_TX_RIS]}))

    def test_non_finite_margin_rejected(self):
        # the config validates at construction only; a NaN forced in
        # past the frozen dataclass makes every margin NaN
        cfg = small_config()
        object.__setattr__(cfg, "spacing_wavelengths", float("nan"))
        with pytest.raises(ValueError, match="margin is not finite"):
            realize_channels(cfg, realization_rng(0, 0))

    def test_resolvable_separation(self):
        cfg = small_config(m_t=32, m_r=32)
        re = realize_channels(cfg, realization_rng(0, 0))
        cos_tx = np.sin(np.concatenate(
            [re.path_sets["tx_ris"].departure,
             re.path_sets["tx_rx"].departure]))
        gaps = np.abs(cos_tx[:, None] - cos_tx[None, :])
        gaps = np.minimum(gaps, 2.0 - gaps)
        off = gaps[np.triu_indices(cos_tx.size, 1)]
        assert off.min() >= 2.0 / 32


def _digest(realization) -> str:
    """sha256 of the kept path sets' arrays, hop after hop."""
    h = hashlib.sha256()
    for kind in HOP_KINDS:
        p = realization.path_sets[kind]
        for a in (p.gains, p.departure, p.arrival):
            h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def _sampler_config(m, paths, d):
    with warnings.catch_warnings():  # large L at small M is intended here
        warnings.simplefilter("ignore")
        return SimulationConfig(m_t=m, m_r=m, n_x=4, n_y=6, l1=paths[0],
                                l2=paths[1], l3=paths[2],
                                spacing_wavelengths=d)


def side_draws(config, rng, max_tries):
    """Per side, Tx then Rx, the count of candidates up to the first whose
    margin reaches 2 (``max_tries`` when none does), from the two blocks
    of terminal uniforms ``realize_channels`` draws, scored by
    ``oracle.min_cosine_gap``."""
    counts = []
    for m, paths in ((config.m_t, config.l1 + config.l3),
                     (config.m_r, config.l2 + config.l3)):
        angles = (1.0 - rng.random((max_tries, paths))) * (2.0 * np.pi)
        met = np.flatnonzero(
            min_cosine_gap(angles, config.steering_scale) * m >= 2.0)
        counts.append(int(met[0]) + 1 if met.size else max_tries)
    return counts


class TestBatchedSampler:
    """``realize_channels`` against ``oracle.serial_realize_channels``,
    which draws the candidates' terminal angles row by row and scores each
    row alone."""

    PATHS = ((1, 1, 1), (2, 3, 1), (5, 7, 4), (8, 8, 4), (1, 8, 2),
             (3, 2, 2), (8, 1, 1))
    # ((L1, L2, L3), side, index) at M = 32, d = 0.5 and seed 5 whose
    # side's first accepted row is the last of a scoring chunk or the
    # first of the next, 128 and 129 (the first chunk edge) or 256 and 257
    # (the second), and comes after the other side's
    BOUNDARY = (((7, 5, 4), "Tx", 223), ((7, 5, 4), "Tx", 59),
                ((7, 5, 4), "Tx", 548), ((7, 5, 4), "Tx", 458),
                ((5, 7, 4), "Rx", 308), ((5, 7, 4), "Rx", 249),
                ((5, 7, 4), "Rx", 2938), ((5, 7, 4), "Rx", 895))

    @staticmethod
    def compare(config, seed, index, max_tries):
        rng = realization_rng(seed, index)
        ref_rng = realization_rng(seed, index)
        got = realize_channels(config, rng, max_tries=max_tries)
        ref = serial_realize_channels(config, ref_rng, max_tries=max_tries)
        for kind in HOP_KINDS:
            a, b = got.path_sets[kind], ref.path_sets[kind]
            np.testing.assert_array_equal(a.gains, b.gains)
            np.testing.assert_array_equal(a.departure, b.departure)
            np.testing.assert_array_equal(a.arrival, b.arrival)
        assert got.draws == ref.draws
        assert got.margin == ref.margin
        assert rng.random() == ref_rng.random()
        return got

    @staticmethod
    def outcome(re):
        if re.margin < 2.0:
            return "never"
        if re.draws == 1:
            return "first"
        if re.draws % SAMPLE_CHUNK in (0, 1):
            return "chunk boundary"
        return "inside a chunk"

    def test_matches_serial_reference(self):
        outcomes = set()
        case = 0
        for m in (4, 8, 16, 32, 64):
            for d in (0.3, 0.5, 0.7, 1.0):
                for max_tries in (1, 3, 20, 1000):
                    paths = self.PATHS[case % len(self.PATHS)]
                    re = self.compare(_sampler_config(m, paths, d), 3, case,
                                      max_tries)
                    outcomes.add(self.outcome(re))
                    case += 1
        assert outcomes >= {"never", "first", "inside a chunk"}
        for paths, side, index in self.BOUNDARY:
            config = _sampler_config(32, paths, 0.5)
            re = self.compare(config, 5, index, 1000)
            assert self.outcome(re) == "chunk boundary"
            counts = dict(zip(("Tx", "Rx"), side_draws(
                config, realization_rng(5, index), 1000)))
            assert re.draws == counts[side] > min(counts.values())

    @pytest.mark.parametrize("scale", [0.25, 1.0, 1.0000001, 1.4, 2.6])
    def test_kernel_matches_pairwise_reference(self, scale):
        # scale <= 1 sorts by value, a larger one by phi % 2
        theta = 0.7
        rows = ([np.pi / 2, 3 * np.pi / 2],  # phi = +-scale exactly
                [np.pi / 2, 1.0, 3 * np.pi / 2, 4.0],
                [theta, 2.0, theta, 5.0],  # a repeated angle
                [theta, 3.0, np.pi - theta])  # equal sines
        rng = np.random.default_rng(23)
        for angles in ([np.array([row]) for row in rows]
                       + [(1.0 - rng.random((n, l))) * (2.0 * np.pi)
                          for n, l in ((SAMPLE_CHUNK, 2), (SAMPLE_CHUNK, 9),
                                       (8, 260))]):
            np.testing.assert_array_equal(_min_cosine_gaps(angles, scale),
                                          min_cosine_gap(angles, scale))

    @given(m=st.integers(2, 64), d=st.sampled_from([0.5, 1.0]),
           max_tries=st.integers(1, 64),
           paths=st.tuples(*[st.integers(1, 4)] * 3),
           index=st.integers(0, 2 ** 16))
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_kept_draw_properties(self, caplog, m, d, max_tries, paths,
                                  index):
        caplog.clear()
        with caplog.at_level("DEBUG", logger="rispart"):
            re = self.compare(_sampler_config(m, paths, d), 11, index,
                              max_tries)
        p = re.path_sets
        margin = min(
            min_cosine_gap(np.concatenate([p[HOP_TX_RIS].departure,
                                           p[HOP_TX_RX].departure]),
                           2.0 * d) * m,
            min_cosine_gap(np.concatenate([p[HOP_RIS_RX].arrival,
                                           p[HOP_TX_RX].arrival]),
                           2.0 * d) * m)
        assert re.margin == margin
        assert 1 <= re.draws <= max_tries
        assert (re.margin < 2.0) == (re.draws == max_tries
                                     and bool(caplog.records))

    # (config, seed, index) -> draws, repr(margin), sha256 of the kept
    # path sets and the generator's next random(); a change to the draw
    # layout must not move them.  Recorded when the sampler started
    # rejecting the Tx side and the Rx side on their own, which moved the
    # kept terminal angles of every stream but not the generator's state
    # after the call (the next draws are the ones recorded before).
    PINS = (
        (SimulationConfig(), 0, 0, 7, "2.074552617177531",
         "56faf9f5a134ee41b234eaafbc196a9cbab209299d9596e71a731810617069d3",
         0.9436267855883983),
        (SimulationConfig(m_t=64, m_r=64, l1=8, l2=8, l3=4), 1, 2, 30,
         "2.124981355116695",
         "0ea7050e95e9943ff70dbc79f0499737b7fccec9b54427b0fe3c0d2bc31c91e5",
         0.7232870764715302),
        (SimulationConfig(m_t=16, m_r=16, n_x=4, n_y=6, l1=2, l2=3, l3=1),
         7, 5, 6, "3.3536470296707255",
         "770cd04ca4e937e96116284e319a051fb9a5ded109f8b00f769ea94bae3aace7",
         0.5083697136410039),
    )

    @pytest.mark.parametrize("pin", PINS, ids=["default", "paths-8x8",
                                                "M16-L2/3/1"])
    def test_stream_pinned(self, pin):
        config, seed, index, draws, margin, digest, next_draw = pin
        rng = realization_rng(seed, index)
        re = realize_channels(config, rng)
        assert (re.draws, repr(re.margin), _digest(re)) == (draws, margin,
                                                            digest)
        assert rng.random() == next_draw

    @pytest.mark.parametrize("config", [
        SimulationConfig(), SimulationConfig(l1=8, l2=8, l3=4)],
        ids=["default", "L8/8/4"])
    def test_stream_contract(self, config):
        # the sampler takes max_tries*(L1 + L2 + 2*L3) uniforms for the
        # terminal angles, whatever it keeps, then the RIS angles and the
        # gains: only the kept terminal angles depend on how it rejects
        l1, l2, l3 = config.l1, config.l2, config.l3
        rng, fresh = realization_rng(4, 9), realization_rng(4, 9)
        realize_channels(config, rng)
        fresh.random(1000 * (l1 + l2 + 2 * l3))
        fresh.random(2 * (l1 + l2))
        fresh.standard_normal(2 * (l1 + l2 + l3))
        assert rng.random() == fresh.random()


def _ks_statistic(a, b) -> float:
    """Two-sample Kolmogorov-Smirnov statistic: the largest distance
    between the two empirical distribution functions."""
    a, b = np.sort(a), np.sort(b)
    points = np.concatenate([a, b])
    return float(np.abs(np.searchsorted(a, points, side="right") / a.size
                        - np.searchsorted(b, points, side="right") / b.size
                        ).max())


class TestSamplerLaw:
    """The kept draw has the law of rejection sampling whole path sets,
    although only the terminal angles are drawn per candidate and each
    terminal side is rejected on its own."""

    RUNS = 400
    # asymptotic two-sample KS critical coefficient at alpha = 0.001,
    # sqrt(-ln(alpha / 2) / 2)
    KS_COEFFICIENT = float(np.sqrt(-np.log(0.001 / 2) / 2))

    # Per hop, the angle blocks of one whole path set, in the order
    # :meth:`whole_set` draws them.
    BLOCKS = {HOP_TX_RIS: ("tx", "ris_elev", "ris_azim"),
              HOP_RIS_RX: ("ris_elev", "ris_azim", "rx"),
              HOP_TX_RX: ("tx", "rx")}
    # Each angle is ``(1 - u) * HIGH[block]`` for a uniform u, on (0, high]:
    # terminal boresight angles cover the full azimuth range, and a RIS
    # endpoint has an elevation on (0, pi/2] and an azimuth on (0, 2*pi].
    HIGH = {"tx": 2.0 * np.pi, "rx": 2.0 * np.pi, "ris_elev": np.pi / 2.0,
            "ris_azim": 2.0 * np.pi}

    @classmethod
    def path_set(cls, kind, uniforms, normals):
        """One candidate's path set of hop ``kind``: ``uniforms`` holds its
        angle blocks in ``BLOCKS`` order, and ``normals`` the real parts
        of its L gains and then the imaginary parts.  Paths are sorted by
        non-increasing gain magnitude."""
        angles = {name: (1.0 - u) * cls.HIGH[name]
                  for name, u in zip(cls.BLOCKS[kind], uniforms)}
        ris = (np.column_stack([angles["ris_elev"], angles["ris_azim"]])
               if "ris_elev" in angles else None)
        departure, arrival = angles.get("tx", ris), angles.get("rx", ris)
        l = normals.size // 2
        gains = (normals[:l] + 1j * normals[l:]) / np.sqrt(2)
        order = np.argsort(-np.abs(gains), kind="stable")
        return PathSet(gains=gains[order], departure=departure[order],
                       arrival=arrival[order])

    @staticmethod
    def margin(config, path_sets):
        """The sampler's margin of one whole draw, by ``min_cosine_gap``."""
        scale = 2.0 * config.spacing_wavelengths
        return min(
            min_cosine_gap(np.concatenate([path_sets[HOP_TX_RIS].departure,
                                           path_sets[HOP_TX_RX].departure]),
                           scale) * config.m_t,
            min_cosine_gap(np.concatenate([path_sets[HOP_RIS_RX].arrival,
                                           path_sets[HOP_TX_RX].arrival]),
                           scale) * config.m_r)

    @classmethod
    def whole_set(cls, config, rng, max_tries=1000, block=64):
        """Kept path sets, margin and draw count of rejection sampling whole
        path sets: the first draw whose margin reaches 2, else the first
        best one.  Also the per-side count over the same candidates, the
        larger of the indices of the first Tx-separated and the first
        Rx-separated one (``max_tries`` for a side with none), which has
        the law of the sampler's ``draws``.

        Candidates come ``block`` at a time: per hop, one ``rng.random``
        call for every candidate's angle uniforms and one
        ``rng.standard_normal`` call for their gains, so each candidate has
        its own RIS angles and gains.  A terminal angle is ``(1 - u) 2 pi``,
        as in :meth:`path_set`, and a block is scored with
        ``oracle.min_cosine_gap``.
        """
        scale = 2.0 * config.spacing_wavelengths
        lengths = dict(zip(HOP_KINDS, (config.l1, config.l2, config.l3)))
        best, best_margin = None, -np.inf
        firsts = [max_tries, max_tries]
        for start in range(0, max_tries, block):
            n = min(block, max_tries - start)
            draws = {kind: (rng.random((n, len(cls.BLOCKS[kind]), l)),
                            rng.standard_normal((n, 2 * l)))
                     for kind, l in lengths.items()}

            def terminal(kind, name):
                u = draws[kind][0][:, cls.BLOCKS[kind].index(name)]
                return (1.0 - u) * (2.0 * np.pi)

            sides = (
                min_cosine_gap(np.hstack([terminal(HOP_TX_RIS, "tx"),
                                          terminal(HOP_TX_RX, "tx")]), scale)
                * config.m_t,
                min_cosine_gap(np.hstack([terminal(HOP_RIS_RX, "rx"),
                                          terminal(HOP_TX_RX, "rx")]), scale)
                * config.m_r)
            for side, side_margins in enumerate(sides):
                side_met = np.flatnonzero(side_margins >= 2.0)
                if side_met.size:
                    firsts[side] = min(firsts[side], start + side_met[0] + 1)
            margins = np.minimum(*sides)
            met = np.flatnonzero(margins >= 2.0)
            i = int(met[0]) if met.size else int(np.argmax(margins))
            if margins[i] > best_margin:
                best_margin = margins[i]
                best = {kind: cls.path_set(kind, uniforms[i], normals[i])
                        for kind, (uniforms, normals) in draws.items()}
            if met.size:
                return best, best_margin, start + i + 1, max(firsts)
        return best, best_margin, max_tries, max(firsts)

    @staticmethod
    def statistics(path_sets, margin, draws):
        ris = np.concatenate([path_sets[HOP_TX_RIS].arrival,
                              path_sets[HOP_RIS_RX].departure])
        gains = np.concatenate([path_sets[k].gains for k in HOP_KINDS])
        return {"margin": [margin], "draws": [draws],
                "ris elevation": ris[:, 0], "ris azimuth": ris[:, 1],
                "|gain|": np.abs(gains)}

    def test_kept_draw_law_matches_whole_set_rejection(self):
        # M = 64 with L = 5/7/4: whole-set rejection accepts about 1.2% of
        # draws, so most realizations reject many draws first
        config = SimulationConfig(m_t=64, m_r=64)
        ours, theirs, whole_draws = {}, {}, []
        for i in range(self.RUNS):
            re = realize_channels(config, realization_rng(101, i))
            for name, values in self.statistics(re.path_sets, re.margin,
                                                re.draws).items():
                ours.setdefault(name, []).extend(values)
            path_sets, margin, whole, per_side = self.whole_set(
                config, realization_rng(102, i))
            assert margin == self.margin(config, path_sets)
            assert per_side <= whole
            whole_draws.append(whole)
            for name, values in self.statistics(path_sets, margin,
                                                per_side).items():
                theirs.setdefault(name, []).extend(values)
        assert np.mean(whole_draws) > 20
        for name in ours:
            n, k = len(ours[name]), len(theirs[name])
            bound = self.KS_COEFFICIENT * np.sqrt((n + k) / (n * k))
            assert _ks_statistic(ours[name], theirs[name]) < bound, name


class TestConfig:
    def test_dbm_roundtrip(self):
        assert abs(dbm_to_watts(30.0) - 1.0) < 1e-12
        assert abs(10.0 * np.log10(dbm_to_watts(-90.0) * 1e3) + 90.0) < 1e-12

    @pytest.mark.parametrize("key, value", [
        *((key, value) for key in ("d", "f", "d1", "d2", "d3",
                                   "path_loss_exponent", "P", "sigma2")
          for value in ("nan", "inf", "-inf")),
        # finite, but the steering scale 2d/lambda overflows
        ("d", "1.7e308"),
        # finite, but the steering phase pi*m*phi or twice the scale
        # overflows
        ("d", "1e307"), ("d", "5e307")])
    def test_non_finite_float_key_rejected(self, tmp_path, key, value):
        path = tmp_path / "bad.cfg"
        path.write_text(f"[sim]\n{key} = {value}\n")
        with pytest.raises(ValueError, match="must be finite"):
            load_config(str(path))

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e6"])
    def test_bandwidth_key_unknown(self, tmp_path, value):
        # rates are in bit/s/Hz, so no bandwidth is read
        path = tmp_path / "bad.cfg"
        path.write_text(f"[sim]\nB = {value}\n")
        with pytest.raises(ValueError, match="unknown config key 'b'"):
            load_config(str(path))

    @pytest.mark.parametrize("name", ["m_t", "n_y", "l3", "realizations"])
    def test_non_finite_integer_field_rejected(self, name):
        with pytest.raises(ValueError, match=f"{name} must be positive"):
            SimulationConfig(**{name: float("nan")})

    def test_zero_array_size_rejected(self):
        with pytest.raises(ValueError, match="m_r must be positive"):
            SimulationConfig(m_r=0)

    def test_frozen(self):
        cfg = SimulationConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.m_t = 64

    def test_load_config(self, tmp_path):
        text = ("[sim]\nM_t = 8\nM_r = 8\nN_x = 4\nN_y = 6\n"
                "L1 = 2\nL2 = 2\nL3 = 2\nP = 30\nsigma2 = -90\nseed = 5\n")
        path = tmp_path / "sim.cfg"
        path.write_text(text)
        cfg = load_config(str(path))
        assert cfg.m_t == 8 and cfg.n_y == 6 and cfg.seed == 5
        assert abs(cfg.power_watts - 1.0) < 1e-12

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("[sim]\nbogus = 1\n")
        with pytest.raises(ValueError):
            load_config(str(path))

    def test_non_integral_integer_key_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("[sim]\nM_t = 32.7\n")
        with pytest.raises(ValueError, match="m_t must be an integer"):
            load_config(str(path))

    def test_integral_float_accepted(self, tmp_path):
        path = tmp_path / "sim.cfg"
        path.write_text("[sim]\nM_t = 32.0\nrealizations = 1e3\n")
        cfg = load_config(str(path))
        assert cfg.m_t == 32 and cfg.realizations == 1000

    INTEGER_FIELDS = ("m_t", "m_r", "n_x", "n_y", "l1", "l2", "l3",
                      "realizations", "seed")

    @pytest.mark.filterwarnings("ignore:path counts")
    @given(name=st.sampled_from(INTEGER_FIELDS),
           value=st.integers(1, 2 ** 53).map(float))
    @example(name="m_t", value=64.0)
    @example(name="realizations", value=1e3)
    @settings(max_examples=200, deadline=None)
    def test_integral_float_stored_as_int(self, name, value):
        got = getattr(SimulationConfig(**{name: value}), name)
        assert type(got) is int and got == value

    @pytest.mark.filterwarnings("ignore:path counts")
    @given(name=st.sampled_from(INTEGER_FIELDS),
           value=st.builds(lambda n, f: n + f, st.integers(1, 2 ** 40),
                           st.floats(0.01, 0.99)))
    @example(name="m_t", value=32.5)
    @example(name="seed", value=1.5)
    @settings(max_examples=200, deadline=None)
    def test_non_integral_value_rejected(self, name, value):
        # m_t = 32.5 used to give a rate for an array that cannot exist,
        # and n_y = 90.5, l1 = 5.5 or seed = 1.5 a later TypeError
        message = f"{name} must be an integer, got {value!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            SimulationConfig(**{name: value})
