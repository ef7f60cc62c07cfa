"""Channel-model tests: steering vectors, path sampling, path loss, the
realization's path sets and sampler diagnostics, the batched sampler
against its draw-by-draw reference, and the dense channel and effective
channel assembly."""

import hashlib
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rispart.channel import (FIRST_CHUNK, HOP_KINDS, SAMPLE_CHUNK,
                             ArrayGeometry, ChannelRealization, PathSet, RisGeometry,
                             SimulationConfig, dbm_to_watts, dense_channels,
                             effective_channel, load_config, path_loss,
                             realization_rng, realize_channels, ris_response,
                             sample_paths, steering_vector, synth_channel,
                             ula_response, watts_to_dbm)
from rispart.oracle import serial_realize_channels

HOP_TX_RIS, HOP_RIS_RX, HOP_TX_RX = "tx_ris", "ris_rx", "tx_rx"


def small_config(**kw):
    defaults = dict(m_t=8, m_r=8, n_x=4, n_y=6, l1=2, l2=2, l3=2,
                    realizations=1, seed=0)
    defaults.update(kw)
    return SimulationConfig(**defaults)


class TestSteeringVector:
    def test_all_ones(self):
        np.testing.assert_allclose(steering_vector(0.0, 4),
                                   np.full(4, 0.5), atol=1e-15)

    def test_alternating(self):
        np.testing.assert_allclose(steering_vector(1.0, 2),
                                   np.array([1, -1]) / np.sqrt(2), atol=1e-15)

    def test_componentwise(self):
        phi, m = 0.37, 8
        v = steering_vector(phi, m)
        for i in range(m):
            assert abs(v[i] - np.exp(1j * np.pi * i * phi) / np.sqrt(m)) < 1e-14

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            steering_vector(0.3, 0)

    @given(st.floats(-4, 4), st.integers(1, 64))
    @settings(max_examples=30, deadline=None)
    def test_unit_norm_and_period(self, phi, m):
        v = steering_vector(phi, m)
        assert abs(np.linalg.norm(v) - 1.0) < 1e-12
        np.testing.assert_allclose(v, steering_vector(phi + 2.0, m),
                                   atol=1e-9)


class TestArrayResponses:
    def test_ula_boresight(self):
        g = ArrayGeometry(element_count=3, element_spacing=0.5, wavelength=1.0)
        np.testing.assert_allclose(ula_response(0.0, g),
                                   np.full(3, 1 / np.sqrt(3)), atol=1e-15)

    def test_ula_endfire(self):
        g = ArrayGeometry(element_count=2, element_spacing=0.5, wavelength=1.0)
        np.testing.assert_allclose(ula_response(np.pi / 2, g),
                                   steering_vector(1.0, 2), atol=1e-12)

    def test_ula_componentwise(self):
        g = ArrayGeometry(element_count=16, element_spacing=0.5,
                          wavelength=1.0)
        v = ula_response(0.6, g)
        assert abs(np.linalg.norm(v) - 1.0) < 1e-12
        np.testing.assert_allclose(
            v, np.exp(1j * np.pi * np.arange(16) * np.sin(0.6)) / 4.0,
            atol=1e-14)

    def test_ris_zero_elevation(self):
        g = RisGeometry(nx=2, ny=2, element_spacing=0.5, wavelength=1.0)
        np.testing.assert_allclose(ris_response(0.0, 1.3, g),
                                   np.full(4, 0.5), atol=1e-15)

    def test_ris_kron_structure(self):
        g = RisGeometry(nx=4, ny=6, element_spacing=0.5, wavelength=1.0)
        phi, az = 0.8, 2.1
        v = ris_response(phi, az, g)
        ax = np.sin(phi) * np.cos(az)
        ay = np.sin(phi) * np.sin(az)
        for nx in range(4):
            for ny in range(6):
                expected = (np.exp(1j * np.pi * (nx * ax + ny * ay))
                            / np.sqrt(24))
                assert abs(v[nx * 6 + ny] - expected) < 1e-13

    def test_inner_product_bound(self):
        # asymptotic orthogonality, quantitative form
        rng = np.random.default_rng(0)
        for m in (16, 64, 256):
            g = ArrayGeometry(element_count=m, element_spacing=0.5,
                              wavelength=1.0)
            for _ in range(20):
                t1, t2 = rng.uniform(0, np.pi / 2, 2)
                if abs(np.sin(t1) - np.sin(t2)) < 1e-6:
                    continue
                ip = abs(ula_response(t1, g).conj() @ ula_response(t2, g))
                bound = 1.0 / (m * abs(np.sin(
                    np.pi * 0.5 * (np.sin(t1) - np.sin(t2)))))
                assert ip <= bound + 1e-12


class TestSamplePaths:
    def test_deterministic(self):
        cfg = small_config()
        a = sample_paths(np.random.default_rng(5), 5, HOP_TX_RIS, cfg)
        b = sample_paths(np.random.default_rng(5), 5, HOP_TX_RIS, cfg)
        np.testing.assert_array_equal(a.gains, b.gains)
        np.testing.assert_array_equal(a.arrival, b.arrival)

    def test_sorted_gains(self):
        p = sample_paths(np.random.default_rng(1), 50, HOP_RIS_RX,
                         small_config())
        mags = np.abs(p.gains)
        assert np.all(mags[:-1] >= mags[1:])

    def test_unit_variance(self):
        p = sample_paths(np.random.default_rng(2), 1000, HOP_TX_RX,
                         small_config())
        assert abs(np.mean(np.abs(p.gains) ** 2) - 1.0) < 0.05

    def test_angle_ranges(self):
        p = sample_paths(np.random.default_rng(3), 200, HOP_TX_RIS,
                         small_config())
        elev, azim = p.arrival[:, 0], p.arrival[:, 1]
        assert np.all((elev > 0) & (elev <= np.pi / 2))
        assert np.all((azim > 0) & (azim <= 2 * np.pi))

    def test_rejects_zero_paths(self):
        with pytest.raises(ValueError):
            sample_paths(np.random.default_rng(0), 0, HOP_TX_RIS,
                         small_config())


class TestSynthChannel:
    def test_single_path_all_ones(self):
        tx = ArrayGeometry(element_count=2, element_spacing=0.5,
                           wavelength=1.0)
        rx = ArrayGeometry(element_count=2, element_spacing=0.5,
                           wavelength=1.0)
        paths = PathSet(kind=HOP_TX_RX, gains=[1.0 + 0j],
                        departure=[0.0], arrival=[0.0])
        np.testing.assert_allclose(synth_channel(paths, tx, rx),
                                   np.ones((2, 2)), atol=1e-14)

    def test_rank_bound(self):
        cfg = small_config(m_t=16, m_r=16)
        p = sample_paths(np.random.default_rng(4), 3, HOP_TX_RX, cfg)
        h = synth_channel(p, cfg.tx_geometry, cfg.rx_geometry)
        assert np.linalg.matrix_rank(h, tol=1e-10) <= 3

    def test_matches_direct_sum(self):
        cfg = small_config()
        p = sample_paths(np.random.default_rng(6), 3, HOP_TX_RIS, cfg)
        ris = cfg.ris_geometry
        h = synth_channel(p, cfg.tx_geometry, ris)
        manual = np.zeros((ris.n, cfg.m_t), dtype=complex)
        for ell in range(3):
            a_ris = ris_response(p.arrival[ell][0], p.arrival[ell][1], ris)
            a_tx = ula_response(p.departure[ell], cfg.tx_geometry)
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
        return cfg, re, dense_channels(re, cfg.ris_geometry)

    def test_identity_theta(self):
        cfg, re, (h1, h2, h3) = self.make_realization(
            np.random.default_rng(7))
        h = effective_channel(re, (h1, h2, np.zeros_like(h3)),
                              np.ones(cfg.n, dtype=complex))
        np.testing.assert_allclose(h, np.sqrt(re.pl_r) * (h2 @ h1),
                                   atol=1e-14)

    def test_direct_only(self):
        cfg, re, (h1, h2, h3) = self.make_realization(
            np.random.default_rng(8))
        h = effective_channel(re, (np.zeros_like(h1), h2, h3),
                              np.ones(cfg.n, dtype=complex))
        np.testing.assert_allclose(h, np.sqrt(re.pl_d) * h3, atol=1e-20)

    def test_matches_direct_arithmetic(self):
        cfg, re, (h1, h2, h3) = self.make_realization(
            np.random.default_rng(9))
        theta = np.exp(1j * np.random.default_rng(10).uniform(
            0, 2 * np.pi, cfg.n))
        h = effective_channel(re, (h1, h2, h3), theta)
        manual = (np.sqrt(re.pl_r) * h2 @ np.diag(theta) @ h1
                  + np.sqrt(re.pl_d) * h3)
        np.testing.assert_allclose(h, manual, atol=1e-14)

    def test_rejects_non_unit_modulus(self):
        cfg, re, channels = self.make_realization(np.random.default_rng(11))
        theta = np.ones(cfg.n, dtype=complex)
        theta[0] = 0.5
        with pytest.raises(ValueError):
            effective_channel(re, channels, theta)

    def test_dense_channels_match_synthesis(self):
        cfg, re, (h1, h2, h3) = self.make_realization(
            np.random.default_rng(12))
        paths = re.path_sets
        np.testing.assert_array_equal(h1, synth_channel(
            paths[HOP_TX_RIS], cfg.tx_geometry, cfg.ris_geometry))
        np.testing.assert_array_equal(h2, synth_channel(
            paths[HOP_RIS_RX], cfg.ris_geometry, cfg.rx_geometry))
        np.testing.assert_array_equal(h3, synth_channel(
            paths[HOP_TX_RX], cfg.tx_geometry, cfg.rx_geometry))
        with pytest.raises(ValueError):
            dense_channels(re, small_config(n_y=7).ris_geometry)


class TestRealization:
    def test_bit_identical_under_seed(self):
        cfg = small_config()
        a = dense_channels(realize_channels(cfg, realization_rng(42, 3)),
                           cfg.ris_geometry)
        b = dense_channels(realize_channels(cfg, realization_rng(42, 3)),
                           cfg.ris_geometry)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])
        np.testing.assert_array_equal(a[2], b[2])

    def test_holds_path_sets_and_sizes(self):
        cfg = small_config(m_t=8, m_r=16, n_x=4, n_y=6)
        re = realize_channels(cfg, realization_rng(0, 1))
        assert (re.m_t, re.m_r, re.n) == (8, 16, 24)
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

                def gap(angles):
                    phi = scale * np.sin(angles)
                    d = np.abs(phi[:, None] - phi[None, :]) % 2.0
                    d = np.minimum(d, 2.0 - d)
                    return d[np.triu_indices(phi.size, 1)].min()

                margin = min(
                    gap(np.concatenate([p[HOP_TX_RIS].departure,
                                        p[HOP_TX_RX].departure])) * m,
                    gap(np.concatenate([p[HOP_RIS_RX].arrival,
                                        p[HOP_TX_RX].arrival])) * m)
                assert re.margin == margin
                assert re.margin >= 0.0
                assert 1 <= re.draws <= max_tries
                kept_below = re.margin < 2.0
                assert kept_below == (re.draws == max_tries
                                      and bool(caplog.records))
        with pytest.raises(ValueError):
            realize_channels(small_config(), realization_rng(0, 0),
                             max_tries=0)

    def test_validation(self):
        re = realize_channels(small_config(), realization_rng(0, 0))
        fields = dict(vars(re))
        with pytest.raises(ValueError):
            ChannelRealization(**dict(fields, m_r=0))
        with pytest.raises(ValueError):
            ChannelRealization(**dict(
                fields, path_sets={HOP_TX_RIS: re.path_sets[HOP_TX_RIS]}))

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


class TestBatchedSampler:
    """``realize_channels`` against ``oracle.serial_realize_channels``,
    which draws whole path sets one by one and scores each draw alone."""

    PATHS = ((1, 1, 1), (2, 3, 1), (5, 7, 4), (8, 8, 4), (1, 8, 2),
             (3, 2, 2), (8, 1, 1))
    # (M, (L1, L2, L3), d, seed, index) whose first accepted draw is the
    # last of a chunk or the first of the next: at 8/9 and 24 (growing
    # chunks), 120/121 (the first full chunk) and 249 (two full chunks)
    BOUNDARY = ((64, (5, 7, 4), 0.5, 5, 45),
                (64, (5, 7, 4), 0.5, 5, 405),
                (32, (4, 4, 3), 1.0, 5, 171),
                (64, (5, 7, 4), 0.5, 5, 828),
                (64, (5, 7, 4), 0.5, 5, 77),
                (64, (5, 7, 4), 0.5, 5, 341))

    @staticmethod
    def chunk_ends(max_tries):
        """Draw counts at which a chunk ends, as the sampler chunks them."""
        ends, size = [FIRST_CHUNK], FIRST_CHUNK
        while ends[-1] < max_tries:
            size = min(2 * size, SAMPLE_CHUNK)
            ends.append(ends[-1] + size)
        return ends

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

    def test_matches_serial_reference(self):
        ends = self.chunk_ends(1000)

        def outcome(re):
            if re.margin < 2.0:
                return "never"
            if re.draws == 1:
                return "first"
            if re.draws in ends or re.draws - 1 in ends:
                return "chunk boundary"
            return "inside a chunk"

        outcomes = set()
        case = 0
        for m in (4, 8, 16, 32, 64):
            for d in (0.5, 1.0):
                for max_tries in (1, 3, 20, 1000):
                    paths = self.PATHS[case % len(self.PATHS)]
                    re = self.compare(_sampler_config(m, paths, d), 3, case,
                                      max_tries)
                    outcomes.add(outcome(re))
                    case += 1
        assert outcomes >= {"never", "first", "inside a chunk"}
        for m, paths, d, seed, index in self.BOUNDARY:
            re = self.compare(_sampler_config(m, paths, d), seed, index, 1000)
            assert outcome(re) == "chunk boundary"

    # (config, seed, index) -> draws, repr(margin), sha256 of the kept
    # path sets and the generator's next random(), as the draw-by-draw
    # sampler produced them; a change to the draw layout must not move them
    PINS = (
        (SimulationConfig(), 0, 0, 1000, "1.56919070956033",
         "2e3c181fc91f4e560c961ffc75bebed5a84f5183bcba1e15ebab0f7311bc387f",
         0.0612524606059065),
        (SimulationConfig(m_t=64, m_r=64, l1=8, l2=8, l3=4), 1, 2, 40,
         "2.7774477550662766",
         "fbb38ed23c1048a34474ace39d7e1a4cef06fc8030c15b601bf92191bd636352",
         0.12210259137234647),
        (SimulationConfig(m_t=16, m_r=16, n_x=4, n_y=6, l1=2, l2=3, l3=1),
         7, 5, 3, "4.365274208645026",
         "3d9df851b83d830a5a0c795cec945e509aa4ce52e18991609975cad978f22f77",
         0.033414070673691176),
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


class TestConfig:
    def test_dbm_roundtrip(self):
        assert abs(dbm_to_watts(30.0) - 1.0) < 1e-12
        assert abs(watts_to_dbm(1.0) - 30.0) < 1e-12

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
        with pytest.raises(ValueError, match="M_t must be an integer"):
            load_config(str(path))

    def test_integral_float_accepted(self, tmp_path):
        path = tmp_path / "sim.cfg"
        path.write_text("[sim]\nM_t = 32.0\nrealizations = 1e3\n")
        cfg = load_config(str(path))
        assert cfg.m_t == 32 and cfg.realizations == 1000
