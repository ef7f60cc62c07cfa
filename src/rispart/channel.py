"""Geometric mmWave channel model: steering vectors, random path generation,
path losses and config ingestion.

A :class:`ChannelRealization` holds the three hops as path sets, never as
dense matrices: the finite model evaluates them in the path domain, so its
cost does not grow with the RIS element count N.  The dense N-column
channels and the effective channel of the reference model live in
:mod:`rispart.oracle`.

Conventions
-----------
* Steering vectors store entries ``exp(+j*pi*m*phi)/sqrt(M)`` (the conjugate
  transpose written out).  A single fixed sign convention is used everywhere.
* RIS elements are laid out on an ``Nx x Ny`` grid.  A flattened index ``n``
  (0-based) maps to the grid as ``n_x = n // Ny`` and ``n_y = n % Ny``, i.e.
  the y-index varies fastest.  This matches the Kronecker order of
  ``oracle.ris_response`` (x-axis factor first) and is the layout assumed
  by every function that consumes a flattened reflection-coefficient
  vector.
* Powers are stored internally in watts; dBm values are converted once at
  config ingestion.
"""

from __future__ import annotations

import configparser
import logging
import math
import warnings
from dataclasses import dataclass

import numpy as np

logger = logging.getLogger("rispart")

SPEED_OF_LIGHT = 299_792_458.0
_PI_LOW = 1.2246467991473532e-16  # pi - np.pi, to split pi in two doubles

HOP_TX_RIS = "tx_ris"
HOP_RIS_RX = "ris_rx"
HOP_TX_RX = "tx_rx"
HOP_KINDS = (HOP_TX_RIS, HOP_RIS_RX, HOP_TX_RX)


def dbm_to_watts(dbm: float) -> float:
    """Power in watts of ``dbm``; raises ValueError when that is not a
    finite positive float (NaN, or beyond about +-3200 dBm)."""
    try:
        watts = 10.0 ** (dbm / 10.0) / 1000.0
    except OverflowError:
        watts = math.inf
    if not (math.isfinite(watts) and watts > 0.0):
        raise ValueError(f"power must be finite and positive in watts, "
                         f"got {dbm!r} dBm")
    return watts


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
        if not (0 < self.element_spacing < np.inf
                and 0 < self.wavelength < np.inf):
            raise ValueError("element_spacing and wavelength must be finite "
                             "and positive")

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
    for the RIS endpoint.  Gains are finite and kept sorted by
    non-increasing magnitude.
    """

    gains: np.ndarray
    departure: np.ndarray
    arrival: np.ndarray

    def __post_init__(self):
        self.gains = np.asarray(self.gains, dtype=complex)
        self.departure = np.asarray(self.departure, dtype=float)
        self.arrival = np.asarray(self.arrival, dtype=float)
        if self.gains.size < 1:
            raise ValueError("a PathSet needs at least one path")
        mags = np.abs(self.gains)
        if not (np.isfinite(mags).all()
                and np.all(mags[:-1] >= mags[1:] - 1e-15)):
            raise ValueError("gains must be finite and sorted by "
                             "non-increasing magnitude")

    @property
    def count(self) -> int:
        return self.gains.size


@dataclass
class ChannelRealization:
    """One draw of the three hops' path sets under ``config``.

    ``config`` is the :class:`SimulationConfig` the paths were sampled
    under, the one owner of the array sizes, losses, noise and power.  The
    sampler rejects each terminal side on its own: ``draws`` is the larger
    of the two sides' counts of scored candidates, up to its kept one if
    that met the target, and ``margin`` the smaller of the kept sides'
    least path separations in units of 1/M, ``min(gap * M)`` (target 2).
    """

    path_sets: dict[str, PathSet]
    config: SimulationConfig
    draws: int
    margin: float

    def __post_init__(self):
        if set(self.path_sets) != set(HOP_KINDS):
            raise ValueError(f"path sets needed for exactly {HOP_KINDS}")

    @classmethod
    def from_draws(cls, config: SimulationConfig, tx: np.ndarray,
                   rx: np.ndarray, rng: np.random.Generator, draws: int,
                   margin: float) -> ChannelRealization:
        """The realization whose terminal angles come from the uniforms
        ``tx`` (the L1 + L3 Tx angles of the tx_ris and tx_rx hops) and
        ``rx`` (the L2 + L3 Rx angles of the ris_rx and tx_rx hops) by
        :func:`_terminal_angles`.  One ``rng.random(2*(L1 + L2))`` call then
        draws the RIS elevations and azimuths (tx_ris, then ris_rx), each
        ``(1 - u)`` times pi/2 or 2 pi, and one ``rng.standard_normal(2*(L1
        + L2 + L3))`` call the gains, hop after hop, real parts first.  A
        hop's paths are sorted by non-increasing gain magnitude."""
        l1, l2, l3 = config.l1, config.l2, config.l3
        tx, rx = _terminal_angles(tx), _terminal_angles(rx)
        ris1, ris2 = (u.reshape(2, -1).T * [np.pi / 2.0, 2.0 * np.pi]
                      for u in np.split(1.0 - rng.random(2 * (l1 + l2)),
                                        [2 * l1]))
        normals = np.split(rng.standard_normal(2 * (l1 + l2 + l3)),
                           [2 * l1, 2 * (l1 + l2)])
        ends = zip(normals, (tx[:l1], ris2, tx[l1:]), (ris1, rx[:l2], rx[l2:]))
        path_sets = {}
        for kind, (g, departure, arrival) in zip(HOP_KINDS, ends):
            gains = (g[:g.size // 2] + 1j * g[g.size // 2:]) / np.sqrt(2)
            order = np.argsort(-np.abs(gains), kind="stable")
            path_sets[kind] = PathSet(gains[order], departure[order],
                                      arrival[order])
        return cls(path_sets, config=config, draws=draws, margin=margin)


@dataclass(frozen=True)
class SimulationConfig:
    """System, channel, and simulation parameters (linear units internally).
    The one owner of the integer settings: each is checked and stored as an
    int, so ``64.0`` gives 64 and ``32.5`` raises ValueError."""

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
    realizations: int = 100
    seed: int = 0

    def __post_init__(self):
        for name in ("m_t", "m_r", "n_x", "n_y", "l1", "l2", "l3",
                     "realizations", "seed"):
            value = getattr(self, name)
            low = 0 if name == "seed" else 1
            if not low <= value < 2 ** 63:  # numpy takes no larger int
                sign = "nonnegative" if low == 0 else "positive"
                raise ValueError(f"{name} must be {sign} and below 2**63, "
                                 f"got {value!r}")
            if value != int(value):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))
        for name in ("spacing_wavelengths", "carrier_frequency", "d1", "d2",
                     "d3", "path_loss_exponent", "power_watts", "noise_watts"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and positive, "
                                 f"got {value!r}")
        try:
            # the largest steering phase pi*m*phi, which also bounds twice
            # the scale, the largest difference of two steering arguments
            phase = (math.pi * max(self.m_t, self.m_r, self.n_x, self.n_y)
                     * 2.0 * self.steering_scale)
            derived = (self.wavelength, self.spacing, phase,
                       *path_loss(self))
        except ArithmeticError:  # a distance power under- or overflows
            derived = (math.nan,)
        if not all(math.isfinite(x) and x > 0 for x in derived):
            raise ValueError("f, d, d1/d2/d3 and path_loss_exponent give a "
                             "wavelength, element spacing, largest steering "
                             "phase (the steering scale times "
                             "2*pi*max(M_t, M_r, N_x, N_y)) and path losses "
                             "that must be finite and positive")
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
    def steering_scale(self) -> float:
        """Steering argument per unit direction cosine, ``2d/lambda``."""
        return 2.0 * self.spacing / self.wavelength

    @property
    def n(self) -> int:
        return self.n_x * self.n_y

    @property
    def ris_geometry(self) -> RisGeometry:
        return RisGeometry(self.n_x, self.n_y, self.spacing, self.wavelength)


def _number(raw: str) -> int | float:
    """An integer literal as an exact int, any other number as a float."""
    try:
        return int(raw)
    except ValueError:
        return float(raw)


_CONFIG_KEYS = {
    "M_t": ("m_t", _number),
    "M_r": ("m_r", _number),
    "N_x": ("n_x", _number),
    "N_y": ("n_y", _number),
    "L1": ("l1", _number),
    "L2": ("l2", _number),
    "L3": ("l3", _number),
    "d": ("spacing_wavelengths", float),
    "f": ("carrier_frequency", float),
    "d1": ("d1", float),
    "d2": ("d2", float),
    "d3": ("d3", float),
    "path_loss_exponent": ("path_loss_exponent", float),
    "realizations": ("realizations", _number),
    "seed": ("seed", _number),
    "P": ("power_watts", lambda raw: dbm_to_watts(float(raw))),
    "sigma2": ("noise_watts", lambda raw: dbm_to_watts(float(raw))),
}


def read_config_file(path: str) -> configparser.ConfigParser:
    """The sections of the file at ``path``, values taken literally;
    ValueError when a key or section is given twice or a key comes first."""
    parser = configparser.ConfigParser(interpolation=None,
                                       converters={"number": _number})
    try:
        read = parser.read(path)
    except configparser.Error as exc:
        raise ValueError(f"malformed config file: {exc}") from None
    if not read:
        raise FileNotFoundError(path)
    return parser


def load_config(path: str, ignore_sections: tuple[str, ...] = ()) -> SimulationConfig:
    """Read a flat sectioned ``key = value`` config file.

    Keys mirror the simulation-parameter table: ``M_t``, ``M_r``, ``N_x``,
    ``N_y``, ``d`` (in wavelengths), ``f`` (Hz), ``P`` (dBm), ``sigma2``
    (dBm), ``L1``/``L2``/``L3``, ``d1``/``d2``/``d3`` (m),
    ``path_loss_exponent``, ``realizations``, ``seed``.  Section names are
    ignored (``ignore_sections`` are skipped entirely); keys must be unique
    across the remaining file.  Integer keys read ``1e3`` as 1000, and
    the config rejects ``8.5``; an integer literal keeps all its digits.
    """
    parser = read_config_file(path)
    names = {name.lower(): name for name in _CONFIG_KEYS}
    kwargs = {}
    for section in parser.sections():
        if section in ignore_sections:
            continue
        for key, raw in parser.items(section):
            if key not in names:
                raise ValueError(f"unknown config key {key!r}")
            attr, cast = _CONFIG_KEYS[names[key]]
            kwargs[attr] = cast(raw)
    return SimulationConfig(**kwargs)


def steering(phi, m: int) -> np.ndarray:
    """Normalized steering vectors (M x K), one column per argument in
    ``phi``; entry ``(i, k)`` is ``exp(+j*pi*i*phi_k)/sqrt(M)``.  A ULA
    with spacing d at angle theta has the argument ``2d/lambda*sin(theta)``.
    """
    if m < 1:
        raise ValueError("M must be >= 1")
    return (np.exp(1j * np.pi * np.arange(m)[:, None] * np.atleast_1d(phi))
            / np.sqrt(m))


def dirichlet_ratio(extent, x):
    """``sin(extent*x) / (extent*sin(x))`` for integer extents, elementwise;
    1 at x = 0 or a zero extent.  Near ``x = m*pi``, m != 0, the quotient
    would keep the rounding error of ``extent*x``, ``|x|*1.1e-16/|sin x|``
    relative, so where ``|sin x| < 1e-5*|x|`` it is taken in ``delta = x -
    m*pi`` (pi in two parts): ``(-1)**(m*(extent - 1))`` times the ratio
    at delta.  Magnitude never exceeds 1."""
    extent = np.asarray(extent, dtype=float)
    x = np.asarray(x, dtype=float)
    s = np.sin(x)
    near = np.abs(s) < 1e-5 * np.abs(x)
    sign = 1.0
    if near.any():
        m = np.where(near, np.round(x / np.pi), 0.0)
        x = x - m * np.pi - m * _PI_LOW
        s = np.sin(x)
        sign = 1.0 - 2.0 * (m % 2.0) * (1.0 - extent % 2.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(x == 0, 1.0, np.sin(extent * x) / (extent * s))
    return np.where(extent == 0, 1.0, sign * ratio)[()]


def steering_gram(phi_a, phi_b, m: int) -> np.ndarray:
    """``steering(phi_a, m)^H steering(phi_b, m)`` without the M-row
    matrices: entry (i, k) is ``exp(j(M-1)x) dirichlet_ratio(M, x)`` with
    ``x = pi(phi_b[k] - phi_a[i])/2`` taken modulo pi into [-pi/2, pi/2],
    where sin(x) is small only if M*x is, so it is accurate at any M."""
    if m < 1:
        raise ValueError("M must be >= 1")
    delta = np.atleast_1d(phi_b)[None, :] - np.atleast_1d(phi_a)[:, None]
    x = 0.5 * np.pi * (delta - 2.0 * np.round(0.5 * delta))
    return np.exp(1j * (m - 1) * x) * dirichlet_ratio(m, x)


def ris_cosines(angles) -> tuple[np.ndarray, np.ndarray]:
    """RIS direction cosines ``(sin(el)*cos(az), sin(el)*sin(az))`` of
    (elevation, azimuth) rows.  A sub-surface reflecting arrival u into
    departure v has the phase gradient ``cos(dep_v) - cos(arr_u)``."""
    elev, azim = np.asarray(angles, dtype=float).T
    return np.sin(elev) * np.cos(azim), np.sin(elev) * np.sin(azim)


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


def realization_rng(master_seed: int, index: int) -> np.random.Generator:
    """Per-realization generator derived from the master seed.

    Uses ``SeedSequence(master_seed, spawn_key=(index,))`` so realizations
    are independent and reproducible under parallel execution.
    """
    return np.random.default_rng(
        np.random.SeedSequence(master_seed, spawn_key=(index,)))


# Candidate rows realize_channels scores at a time.
SAMPLE_CHUNK = 128


def _terminal_angles(uniforms: np.ndarray) -> np.ndarray:
    """Tx or Rx boresight angles ``(1 - u) 2 pi``, on (0, 2 pi], of u."""
    return (1.0 - uniforms) * (2.0 * np.pi)


def _min_cosine_gaps(angles: np.ndarray, scale: float) -> np.ndarray:
    """Smallest pairwise distance between steering arguments, per row.

    Arguments are ``scale*sin(angle)``; the steering vector is periodic
    with period 2, so distances wrap accordingly (``scale`` > 1 when the
    element spacing exceeds half a wavelength).  The closest two on that
    circle are neighbours in the order of ``phi % 2``, so a row of L >= 2
    angles scores only its L neighbour pairs, last and first included, in
    O(L) memory, each by ``oracle.min_cosine_gap``'s pairwise formula.

    At ``scale <= 1`` (spacing at most half a wavelength) every ``|phi| <=
    1``, so the rows are sorted by value with no remainder, to the same
    result bit for bit: the order of ``phi`` is a rotation of the order of
    ``phi % 2``, which keeps the circular neighbour pairs, and no distance
    exceeds 2, where ``% 2`` leaves ``min(g, 2 - g)`` unchanged (at 2 both
    give 0).
    """
    phi = scale * np.sin(angles)
    if scale <= 1.0:
        phi.sort(axis=1)
        gaps = np.abs(phi - np.roll(phi, 1, axis=1))
    else:  # also a NaN scale, whose margin realize_channels rejects
        phi = np.take_along_axis(phi, np.argsort(phi % 2.0, axis=1), axis=1)
        gaps = np.abs(phi - np.roll(phi, 1, axis=1)) % 2.0
    return np.minimum(gaps, 2.0 - gaps).min(axis=1)


def _kept_row(rows: np.ndarray, m: int, scale: float,
              side: str) -> tuple[np.ndarray, float, int]:
    """One side's kept candidate among ``rows`` of terminal uniforms, its
    margin and the count of rows scored up to it: the first row whose
    steering arguments are 2/``m`` separated, else the first best one,
    counting every row, with a DEBUG record naming the ``side``."""
    best, best_margin = 0, -np.inf
    for start in range(0, len(rows), SAMPLE_CHUNK):
        angles = _terminal_angles(rows[start:start + SAMPLE_CHUNK])
        margins = _min_cosine_gaps(angles, scale) * m
        accepted = np.flatnonzero(margins >= 2.0)
        row = accepted[0] if accepted.size else np.argmax(margins)
        if margins[row] > best_margin:
            best, best_margin = start + row, margins[row]
        if best_margin >= 2.0:
            return rows[best], best_margin, best + 1
    logger.debug("no %s path set in %d draws is 2/M separated; keeping "
                 "margin %.3g", side, len(rows), best_margin)
    return rows[best], best_margin, len(rows)


def realize_channels(config: SimulationConfig, rng: np.random.Generator,
                     max_tries: int = 1000) -> ChannelRealization:
    """Sample the path sets of all three hops.

    Path counts L denote *resolvable* paths: the direction cosines of the
    paths each terminal array sees must be separated by its resolution,
    2/M in steering-argument units, wrapped with period 2.  The Tx-side
    angles (tx_ris and tx_rx departures) are independent of the Rx-side
    ones (ris_rx and tx_rx arrivals), and each side's test reads only its
    own, so each side is rejected on its own, and the kept pair has the
    law of rejecting whole path sets.  The RIS angles and the gains enter
    no test and are drawn for the kept pair alone.

    Stream contract: one ``rng.random((max_tries, L1 + L3))`` call draws
    the Tx candidates, a row each, then one ``rng.random((max_tries, L2 +
    L3))`` call the Rx ones; :meth:`ChannelRealization.from_draws` then
    draws the RIS angles and the gains.  ``oracle.serial_realize_channels``
    scores the rows one by one to the same result.

    Raises ValueError when ``max_tries < 1`` or a kept margin is not
    finite (a NaN element spacing, say).
    """
    if max_tries < 1:
        raise ValueError("max_tries must be >= 1")
    scale = config.steering_scale
    tx, tx_margin, tx_draws = _kept_row(rng.random(
        (max_tries, config.l1 + config.l3)), config.m_t, scale, "Tx")
    rx, rx_margin, rx_draws = _kept_row(rng.random(
        (max_tries, config.l2 + config.l3)), config.m_r, scale, "Rx")
    margin = min(tx_margin, rx_margin)
    if not np.isfinite(margin):
        raise ValueError(f"path separation margin is not finite "
                         f"(spacing {config.spacing!r} m, wavelength "
                         f"{config.wavelength!r} m)")
    return ChannelRealization.from_draws(
        config, tx, rx, rng, draws=int(max(tx_draws, rx_draws)),
        margin=float(margin))
