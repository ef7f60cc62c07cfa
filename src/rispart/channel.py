"""Geometric mmWave channel model: steering vectors, random path generation,
and synthesis of the Tx-RIS, RIS-Rx, Tx-Rx, and effective channels.

A :class:`ChannelRealization` holds the three hops as path sets, never as
dense matrices: the finite model evaluates them in the path domain, so its
cost does not grow with the RIS element count N.  :func:`dense_channels`
and :func:`effective_channel` synthesize the dense N-column matrices for
the reference model in :mod:`rispart.oracle` and for the tests.

Conventions
-----------
* Steering vectors store entries ``exp(+j*pi*m*phi)/sqrt(M)`` (the conjugate
  transpose written out).  A single fixed sign convention is used everywhere.
* RIS elements are laid out on an ``Nx x Ny`` grid.  A flattened index ``n``
  (0-based) maps to the grid as ``n_x = n // Ny`` and ``n_y = n % Ny``, i.e.
  the y-index varies fastest.  This matches the Kronecker order of
  :func:`ris_response` (x-axis factor first) and is the layout assumed by
  every function that consumes a flattened reflection-coefficient vector.
* Powers are stored internally in watts; dBm values are converted once at
  config ingestion.
"""

from __future__ import annotations

import configparser
import logging
import warnings
from dataclasses import dataclass

import numpy as np

logger = logging.getLogger("rispart")

SPEED_OF_LIGHT = 299_792_458.0

HOP_TX_RIS = "tx_ris"
HOP_RIS_RX = "ris_rx"
HOP_TX_RX = "tx_rx"
HOP_KINDS = (HOP_TX_RIS, HOP_RIS_RX, HOP_TX_RX)


def dbm_to_watts(dbm: float) -> float:
    return 10.0 ** (dbm / 10.0) / 1000.0


def watts_to_dbm(watts: float) -> float:
    return 10.0 * np.log10(watts * 1000.0)


@dataclass(frozen=True)
class ArrayGeometry:
    """Uniform linear array: element count, spacing, carrier wavelength."""

    element_count: int
    element_spacing: float
    wavelength: float

    def __post_init__(self):
        if self.element_count < 1:
            raise ValueError("element_count must be >= 1")
        if self.element_spacing <= 0 or self.wavelength <= 0:
            raise ValueError("element_spacing and wavelength must be positive")


@dataclass(frozen=True)
class RisGeometry:
    """Uniform rectangular RIS array in the x-y plane."""

    nx: int
    ny: int
    element_spacing: float
    wavelength: float

    def __post_init__(self):
        if self.nx < 1 or self.ny < 1:
            raise ValueError("nx and ny must be >= 1")
        if self.element_spacing <= 0 or self.wavelength <= 0:
            raise ValueError("element_spacing and wavelength must be positive")

    @property
    def n(self) -> int:
        return self.nx * self.ny

    @property
    def k(self) -> float:
        """Phase constant 2*pi*d/lambda."""
        return 2.0 * np.pi * self.element_spacing / self.wavelength


@dataclass
class PathSet:
    """Angles and complex gains for one propagation hop.

    ``departure``/``arrival`` hold one angle record per path: a scalar
    boresight angle for ULA endpoints, or an ``(elevation, azimuth)`` pair
    for the RIS endpoint.  Gains are kept sorted by non-increasing
    magnitude.
    """

    kind: str
    gains: np.ndarray
    departure: np.ndarray
    arrival: np.ndarray

    def __post_init__(self):
        if self.kind not in HOP_KINDS:
            raise ValueError(f"unknown hop kind {self.kind!r}")
        self.gains = np.asarray(self.gains, dtype=complex)
        self.departure = np.asarray(self.departure, dtype=float)
        self.arrival = np.asarray(self.arrival, dtype=float)
        if self.gains.size < 1:
            raise ValueError("a PathSet needs at least one path")
        mags = np.abs(self.gains)
        if np.any(mags[:-1] < mags[1:] - 1e-15):
            raise ValueError("gains must be sorted by non-increasing magnitude")

    @property
    def count(self) -> int:
        return self.gains.size


@dataclass
class ChannelRealization:
    """One draw of the three hops' path sets plus losses and noise power.

    ``m_t``, ``m_r`` and ``n`` are the Tx, Rx and RIS element counts.
    ``draws`` is the number of whole path sets the sampler drew and
    ``margin`` the kept draw's smallest path separation in units of the
    terminal resolution, ``min(gap * M)`` (the sampler's target is 2).
    """

    path_sets: dict[str, PathSet]
    pl_r: float
    pl_d: float
    noise_power: float
    m_t: int
    m_r: int
    n: int
    draws: int
    margin: float

    def __post_init__(self):
        if self.pl_r <= 0 or self.pl_d <= 0:
            raise ValueError("path losses must be positive")
        if self.noise_power <= 0:
            raise ValueError("noise power must be positive")
        if min(self.m_t, self.m_r, self.n) < 1:
            raise ValueError("array sizes must be positive")
        if set(self.path_sets) != set(HOP_KINDS):
            raise ValueError(f"path sets needed for exactly {HOP_KINDS}")


@dataclass
class SimulationConfig:
    """System, channel, and simulation parameters (linear units internally)."""

    m_t: int = 32
    m_r: int = 32
    n_x: int = 30
    n_y: int = 90
    l1: int = 5
    l2: int = 7
    l3: int = 4
    spacing_wavelengths: float = 0.5
    carrier_frequency: float = 28e9
    d1: float = 100.0
    d2: float = 60.0
    d3: float = 150.0
    path_loss_exponent: float = 2.4
    power_watts: float = dbm_to_watts(30.0)
    noise_watts: float = dbm_to_watts(-90.0)
    bandwidth: float = 251.1886e6
    realizations: int = 100
    seed: int = 0

    def __post_init__(self):
        for name in ("m_t", "m_r", "n_x", "n_y", "l1", "l2", "l3",
                     "realizations"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        for name in ("spacing_wavelengths", "carrier_frequency", "d1", "d2",
                     "d3", "path_loss_exponent", "power_watts", "noise_watts",
                     "bandwidth"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        # Angular resolution assumption: L1+L3 << M_t, L2+L3 << M_r,
        # L1, L2 << N.  Warn, do not enforce.
        if (self.l1 + self.l3 > self.m_t // 2
                or self.l2 + self.l3 > self.m_r // 2
                or max(self.l1, self.l2) > self.n // 2):
            warnings.warn(
                "path counts are not small relative to array sizes; the "
                "asymptotic approximation may be poor", stacklevel=2)

    @property
    def wavelength(self) -> float:
        return SPEED_OF_LIGHT / self.carrier_frequency

    @property
    def spacing(self) -> float:
        return self.spacing_wavelengths * self.wavelength

    @property
    def n(self) -> int:
        return self.n_x * self.n_y

    @property
    def tx_geometry(self) -> ArrayGeometry:
        return ArrayGeometry(self.m_t, self.spacing, self.wavelength)

    @property
    def rx_geometry(self) -> ArrayGeometry:
        return ArrayGeometry(self.m_r, self.spacing, self.wavelength)

    @property
    def ris_geometry(self) -> RisGeometry:
        return RisGeometry(self.n_x, self.n_y, self.spacing, self.wavelength)


_CONFIG_KEYS = {
    "M_t": ("m_t", int),
    "M_r": ("m_r", int),
    "N_x": ("n_x", int),
    "N_y": ("n_y", int),
    "L1": ("l1", int),
    "L2": ("l2", int),
    "L3": ("l3", int),
    "d": ("spacing_wavelengths", float),
    "f": ("carrier_frequency", float),
    "d1": ("d1", float),
    "d2": ("d2", float),
    "d3": ("d3", float),
    "path_loss_exponent": ("path_loss_exponent", float),
    "B": ("bandwidth", float),
    "realizations": ("realizations", int),
    "seed": ("seed", int),
}


def _integer(name: str, raw: str) -> int:
    """Integer config value; integral floats such as ``1e3`` are accepted."""
    try:
        return int(raw)
    except ValueError:
        value = float(raw)
    if not value.is_integer():
        raise ValueError(f"{name} must be an integer, got {raw!r}")
    return int(value)


def load_config(path: str, ignore_sections: tuple[str, ...] = ()) -> SimulationConfig:
    """Read a flat sectioned ``key = value`` config file.

    Keys mirror the simulation-parameter table: ``M_t``, ``M_r``, ``N_x``,
    ``N_y``, ``d`` (in wavelengths), ``f`` (Hz), ``P`` (dBm), ``sigma2``
    (dBm), ``B`` (Hz), ``L1``/``L2``/``L3``, ``d1``/``d2``/``d3`` (m),
    ``path_loss_exponent``, ``realizations``, ``seed``.  Section names are
    ignored (``ignore_sections`` are skipped entirely); keys must be unique
    across the remaining file.
    """
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise FileNotFoundError(path)
    kwargs = {}
    for section in parser.sections():
        if section in ignore_sections:
            continue
        for key, raw in parser.items(section):
            if key == "p":
                kwargs["power_watts"] = dbm_to_watts(float(raw))
            elif key == "sigma2":
                kwargs["noise_watts"] = dbm_to_watts(float(raw))
            else:
                for name, (attr, cast) in _CONFIG_KEYS.items():
                    if key == name.lower():
                        kwargs[attr] = _integer(name, raw) if cast is int \
                            else cast(raw)
                        break
                else:
                    raise ValueError(f"unknown config key {key!r}")
    return SimulationConfig(**kwargs)


def steering_vector(phi: float, m: int) -> np.ndarray:
    """Normalized steering vector; entry ``i`` is ``exp(+j*pi*i*phi)/sqrt(M)``."""
    if m < 1:
        raise ValueError("M must be >= 1")
    idx = np.arange(m)
    return np.exp(1j * np.pi * idx * phi) / np.sqrt(m)


def ula_response(theta: float, geometry: ArrayGeometry) -> np.ndarray:
    """Array response of a ULA at boresight angle ``theta``."""
    phi = 2.0 * geometry.element_spacing / geometry.wavelength * np.sin(theta)
    return steering_vector(phi, geometry.element_count)


def ris_response(phi: float, theta_az: float,
                 geometry: RisGeometry) -> np.ndarray:
    """RIS array response for elevation ``phi`` and azimuth ``theta_az``.

    Kronecker product of the x-axis factor (length ``Nx``) and the y-axis
    factor (length ``Ny``), in that order.
    """
    scale = 2.0 * geometry.element_spacing / geometry.wavelength
    arg_x = scale * np.sin(phi) * np.cos(theta_az)
    arg_y = scale * np.sin(phi) * np.sin(theta_az)
    return np.kron(steering_vector(arg_x, geometry.nx),
                   steering_vector(arg_y, geometry.ny))


# Per hop, the blocks of L uniforms one path set draws, in stream order.
# Each angle is ``(1 - u) * high`` on the half-open interval (0, high]:
# terminal ("tx"/"rx") boresight angles use the full azimuth range, so their
# direction cosines cover [-1, 1]; a RIS endpoint takes an elevation block
# on (0, pi/2] and then an azimuth block on (0, 2*pi].
_BLOCKS = {
    HOP_TX_RIS: ("tx", "ris_elev", "ris_azim"),
    HOP_RIS_RX: ("ris_elev", "ris_azim", "rx"),
    HOP_TX_RX: ("tx", "rx"),
}
_HIGH = {"tx": 2.0 * np.pi, "rx": 2.0 * np.pi, "ris_elev": np.pi / 2.0,
         "ris_azim": 2.0 * np.pi}


def _path_set(kind: str, uniforms: np.ndarray, normals: np.ndarray,
              ) -> PathSet:
    """One hop's path set from its uniform block and its normal block.

    ``uniforms`` holds the hop's ``len(_BLOCKS[kind]) * L`` draws of
    ``rng.random`` in the order of ``_BLOCKS``; ``normals`` holds ``2L``
    standard normals, the real parts of the gains and then the imaginary
    parts.  Paths are sorted by non-increasing gain magnitude.
    """
    l = normals.size // 2
    angles = {name: (1.0 - uniforms[i * l:(i + 1) * l]) * _HIGH[name]
              for i, name in enumerate(_BLOCKS[kind])}
    ris = (None if kind == HOP_TX_RX else
           np.column_stack([angles["ris_elev"], angles["ris_azim"]]))
    departure, arrival = angles.get("tx", ris), angles.get("rx", ris)
    gains = (normals[:l] + 1j * normals[l:]) / np.sqrt(2)
    order = np.argsort(-np.abs(gains), kind="stable")
    return PathSet(kind=kind, gains=gains[order], departure=departure[order],
                   arrival=arrival[order])


def sample_paths(rng: np.random.Generator, l: int, kind: str,
                 config: SimulationConfig) -> PathSet:
    """Draw one hop's path set: uniform continuous angles, CSCG unit gains.

    Elevations are uniform on (0, pi/2], azimuths on (0, 2*pi]; ULA
    boresight angles use the full azimuth range so their direction cosines
    cover [-1, 1].  Gains are sorted by non-increasing magnitude.
    Deterministic for a given generator state: one ``rng.random`` call for
    the angles, then one ``rng.standard_normal`` call for the gains.
    """
    if l < 1:
        raise ValueError("L must be >= 1")
    if kind not in HOP_KINDS:
        raise ValueError(f"unknown hop kind {kind!r}")
    uniforms = rng.random(len(_BLOCKS[kind]) * l)
    return _path_set(kind, uniforms, rng.standard_normal(2 * l))


def synth_channel(paths: PathSet, tx_geom, rx_geom) -> np.ndarray:
    """Synthesize one hop's channel matrix from its path set.

    Returns ``sqrt(dim_rx*dim_tx/L) * sum_l g_l * rx_vec_l * tx_vec_l^H``,
    where the RIS endpoint uses :func:`ris_response` and terminal endpoints
    use :func:`ula_response`.
    """
    if paths.kind == HOP_TX_RIS:
        if not isinstance(rx_geom, RisGeometry):
            raise ValueError("tx_ris hop expects a RisGeometry receive side")
        rx_vecs = [ris_response(e, a, rx_geom) for e, a in paths.arrival]
        tx_vecs = [ula_response(t, tx_geom) for t in paths.departure]
        dim_rx, dim_tx = rx_geom.n, tx_geom.element_count
    elif paths.kind == HOP_RIS_RX:
        if not isinstance(tx_geom, RisGeometry):
            raise ValueError("ris_rx hop expects a RisGeometry transmit side")
        rx_vecs = [ula_response(t, rx_geom) for t in paths.arrival]
        tx_vecs = [ris_response(e, a, tx_geom) for e, a in paths.departure]
        dim_rx, dim_tx = rx_geom.element_count, tx_geom.n
    else:
        rx_vecs = [ula_response(t, rx_geom) for t in paths.arrival]
        tx_vecs = [ula_response(t, tx_geom) for t in paths.departure]
        dim_rx, dim_tx = rx_geom.element_count, tx_geom.element_count

    a_rx = np.column_stack(rx_vecs)
    a_tx = np.column_stack(tx_vecs)
    scale = np.sqrt(dim_rx * dim_tx / paths.count)
    return scale * (a_rx * paths.gains) @ a_tx.conj().T


def path_loss(config: SimulationConfig) -> tuple[float, float]:
    """Cascaded and direct path losses.

    ``PL_r = lambda^2 / (64*pi^3 * d1^e * d2^e)`` and
    ``PL_d = lambda^2 / (16*pi^2 * d3^e)`` with exponent ``e`` from config.
    """
    lam = config.wavelength
    e = config.path_loss_exponent
    pl_r = lam ** 2 / (64.0 * np.pi ** 3 * config.d1 ** e * config.d2 ** e)
    pl_d = lam ** 2 / (16.0 * np.pi ** 2 * config.d3 ** e)
    return pl_r, pl_d


def dense_channels(realization: ChannelRealization, ris: RisGeometry,
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Dense ``(H1, H2, H3)``: N x M_t, M_r x N and M_r x M_t.

    The terminal ULAs share the RIS element spacing and wavelength, as
    :class:`SimulationConfig` builds them.
    """
    if ris.n != realization.n:
        raise ValueError("RIS geometry does not match the realization")
    tx = ArrayGeometry(realization.m_t, ris.element_spacing, ris.wavelength)
    rx = ArrayGeometry(realization.m_r, ris.element_spacing, ris.wavelength)
    paths = realization.path_sets
    return (synth_channel(paths[HOP_TX_RIS], tx, ris),
            synth_channel(paths[HOP_RIS_RX], ris, rx),
            synth_channel(paths[HOP_TX_RX], tx, rx))


def effective_channel(realization: ChannelRealization, channels,
                      theta: np.ndarray) -> np.ndarray:
    """Effective Tx-Rx channel ``sqrt(PL_r)*H2*diag(theta)*H1 + sqrt(PL_d)*H3``.

    ``channels`` is the dense ``(H1, H2, H3)`` triple of
    :func:`dense_channels`; the path losses come from ``realization``.
    """
    h1, h2, h3 = channels
    theta = np.asarray(theta, dtype=complex)
    if theta.shape != (h1.shape[0],):
        raise ValueError("theta length must equal the RIS element count")
    if np.any(np.abs(np.abs(theta) - 1.0) > 1e-9):
        raise ValueError("theta entries must have unit modulus")
    cascaded = h2 @ (theta[:, None] * h1)
    return (np.sqrt(realization.pl_r) * cascaded
            + np.sqrt(realization.pl_d) * h3)


def realization_rng(master_seed: int, index: int) -> np.random.Generator:
    """Per-realization generator derived from the master seed.

    Uses ``SeedSequence(master_seed, spawn_key=(index,))`` so realizations
    are independent and reproducible under parallel execution.
    """
    return np.random.default_rng(
        np.random.SeedSequence(master_seed, spawn_key=(index,)))


# Candidate draws realize_channels generates and scores at a time: the
# first chunk holds FIRST_CHUNK draws and each next one twice as many, up to
# SAMPLE_CHUNK, so an accept within the first few draws wastes few draws and
# a long rejection run pays the per-chunk scoring cost rarely.
FIRST_CHUNK = 8
SAMPLE_CHUNK = 128


def _min_cosine_gaps(angles: np.ndarray, scale: float) -> np.ndarray:
    """Smallest pairwise distance between steering arguments, per row.

    Arguments are ``scale*sin(angle)``; the steering vector is periodic
    with period 2, so distances wrap accordingly (``scale`` > 1 when the
    element spacing exceeds half a wavelength).  A row with fewer than two
    angles has no pair and reads ``inf``.
    """
    phi = scale * np.sin(angles)
    i, j = np.triu_indices(angles.shape[1], 1)
    gaps = np.abs(phi[:, i] - phi[:, j]) % 2.0
    return np.minimum(gaps, 2.0 - gaps).min(axis=1, initial=np.inf)


def realize_channels(config: SimulationConfig, rng: np.random.Generator,
                     max_tries: int = 1000) -> ChannelRealization:
    """Sample the path sets of all three hops.

    Path counts L denote *resolvable* paths, so a draw is accepted only
    when the direction cosines of all paths seen by each terminal array
    are separated by that array's resolution (2/M in steering-argument
    units, wrapped with period 2).  If no draw within ``max_tries`` meets
    the target, the first best-separated draw is kept and a DEBUG record
    is logged.

    Stream contract: the generator is consumed exactly as by drawing whole
    path sets with :func:`sample_paths` one by one (tx_ris, ris_rx, tx_rx
    per draw) up to and including the accepted draw, or ``max_tries``
    draws; the kept path sets, ``draws`` and ``margin`` are those of that
    draw-by-draw loop (``oracle.serial_realize_channels``).  The draws are
    generated in chunks of ``FIRST_CHUNK``, twice that, and so on up to
    ``SAMPLE_CHUNK`` draws, into preallocated rows, and the margins of a
    chunk are scored in one step; when a chunk holds an accepted draw, the
    generator state saved at the chunk's start is restored and the chunk
    drawn again up to that draw, so the generator ends where the loop would
    leave it.  Only the kept draw becomes path sets.
    """
    if max_tries < 1:
        raise ValueError("max_tries must be >= 1")
    scale = 2.0 * config.spacing / config.wavelength
    counts = dict(zip(HOP_KINDS, (config.l1, config.l2, config.l3)))
    # a draw is one row in each hop's uniform and normal buffer
    buffers = {k: (np.empty((SAMPLE_CHUNK, len(_BLOCKS[k]) * l)),
                   np.empty((SAMPLE_CHUNK, 2 * l)))
               for k, l in counts.items()}
    in_stream_order = [b for k in HOP_KINDS for b in buffers[k]]
    random, normal = rng.random, rng.standard_normal

    def fill(rows):
        for u1, n1, u2, n2, u3, n3 in zip(*(b[:rows]
                                            for b in in_stream_order)):
            random(out=u1)
            normal(out=n1)
            random(out=u2)
            normal(out=n2)
            random(out=u3)
            normal(out=n3)

    def margins(rows):
        """Each row's margin: min over terminals of ``gap * M``."""
        out = np.inf
        for side, m in (("tx", config.m_t), ("rx", config.m_r)):
            angles = np.concatenate(
                [buffers[k][0][:rows, i * l:(i + 1) * l]
                 for k, l in counts.items()
                 for i, name in enumerate(_BLOCKS[k]) if name == side],
                axis=1)
            gaps = _min_cosine_gaps((1.0 - angles) * _HIGH[side], scale)
            out = np.minimum(out, gaps * m)
        return out

    best_margin, best = -np.inf, None
    done, chunk_size = 0, FIRST_CHUNK
    while done < max_tries:
        size = min(chunk_size, max_tries - done)
        chunk_size = min(2 * chunk_size, SAMPLE_CHUNK)
        state = rng.bit_generator.state
        fill(size)
        chunk = margins(size)
        accepted = np.flatnonzero(chunk >= 2.0)
        if accepted.size:
            row = accepted[0]
            rng.bit_generator.state = state
            fill(row + 1)
            best_margin = chunk[row]
            best = {k: (u[row], n[row]) for k, (u, n) in buffers.items()}
            draws = done + row + 1
            break
        row = np.argmax(chunk)
        if chunk[row] > best_margin:
            best_margin = chunk[row]
            best = {k: (u[row].copy(), n[row].copy())
                    for k, (u, n) in buffers.items()}
        done += size
    else:
        draws = max_tries
        logger.debug("no path set in %d draws is 2/M separated; keeping "
                     "margin %.3g", max_tries, best_margin)
    pl_r, pl_d = path_loss(config)
    return ChannelRealization(path_sets={k: _path_set(k, *best[k])
                                         for k in HOP_KINDS},
                              pl_r=pl_r, pl_d=pl_d,
                              noise_power=config.noise_watts,
                              m_t=config.m_t, m_r=config.m_r, n=config.n,
                              draws=int(draws), margin=float(best_margin))
