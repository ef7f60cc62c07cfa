"""Structured sub-surface phase shifts and normalized passive beamforming
gains.

A partition splits the RIS horizontally into contiguous column blocks.  Each
sub-surface carries a phase gradient (anomalous reflection from one Tx-RIS
arrival direction to one RIS-Rx departure direction) and a common phase
shift.  The gain of a Tx-RIS-Rx path pair is available as a direct
element-wise sum, as a closed form built from Dirichlet-kernel ratios, and
as the large-surface limit where only exactly aligned sub-surfaces
contribute.  The tile machinery generalizes the horizontal partition to
rectangular 2D shapes.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from rispart.channel import HOP_RIS_RX, HOP_TX_RIS, PathSet, RisGeometry


@dataclass(frozen=True)
class PhaseGradient:
    """Per-element phase slope (g_x, g_y) in direction-cosine units."""

    g_x: float
    g_y: float

    @classmethod
    def from_path_pair(cls, aoa: tuple[float, float],
                       aod: tuple[float, float]) -> "PhaseGradient":
        """Gradient reflecting arrival ``aoa`` to departure ``aod``.

        Both angles are (elevation, azimuth) pairs at the RIS.
        """
        phi_u, th_u = aoa
        phi_v, th_v = aod
        return cls(
            g_x=np.sin(phi_v) * np.cos(th_v) - np.sin(phi_u) * np.cos(th_u),
            g_y=np.sin(phi_v) * np.sin(th_v) - np.sin(phi_u) * np.sin(th_u),
        )


class PairingMatrix:
    """Binary L1 x L2 matrix pairing Tx-RIS paths with RIS-Rx paths.

    Rows and columns each carry at most one 1; the total number of ones is
    the number of gradient-assigned sub-surfaces.
    """

    def __init__(self, matrix):
        b = np.asarray(matrix)
        if b.ndim != 2:
            raise ValueError("pairing matrix must be 2D")
        if not np.all((b == 0) | (b == 1)):
            raise ValueError("pairing matrix entries must be 0 or 1")
        if np.any(b.sum(axis=0) > 1) or np.any(b.sum(axis=1) > 1):
            raise ValueError("pairing matrix row/column sums must be <= 1")
        self.matrix = b.astype(int)

    @property
    def size(self) -> int:
        return int(self.matrix.sum())

    @property
    def pairs(self) -> list[tuple[int, int]]:
        """(u, v) index pairs (0-based), ordered by the Tx-RIS path index."""
        us, vs = np.nonzero(self.matrix)
        order = np.argsort(us)
        return [(int(u), int(v)) for u, v in zip(us[order], vs[order])]

    def __eq__(self, other):
        return (isinstance(other, PairingMatrix)
                and self.matrix.shape == other.matrix.shape
                and np.array_equal(self.matrix, other.matrix))


def feasible_gradients(tx_paths: PathSet, rx_paths: PathSet,
                       dedup_tol: float = 1e-12,
                       ) -> dict[tuple[int, int], PhaseGradient]:
    """All L1*L2 candidate phase gradients, keyed by the path pair (u, v).

    Warns when two pairs yield (numerically) identical gradients; the
    analysis assumes each feasible gradient is unique.
    """
    if tx_paths.kind != HOP_TX_RIS or rx_paths.kind != HOP_RIS_RX:
        raise ValueError("expected tx_ris and ris_rx path sets")
    grads: dict[tuple[int, int], PhaseGradient] = {}
    for u in range(tx_paths.count):
        aoa = tuple(tx_paths.arrival[u])
        for v in range(rx_paths.count):
            aod = tuple(rx_paths.departure[v])
            grads[(u, v)] = PhaseGradient.from_path_pair(aoa, aod)
    keys = list(grads)
    for i, ki in enumerate(keys):
        for kj in keys[i + 1:]:
            gi, gj = grads[ki], grads[kj]
            if (abs(gi.g_x - gj.g_x) < dedup_tol
                    and abs(gi.g_y - gj.g_y) < dedup_tol):
                warnings.warn(f"duplicate phase gradient for pairs {ki} "
                              f"and {kj}", stacklevel=2)
    return grads


@dataclass
class RoundingResult:
    """Integer column counts plus the indices dropped in re-apportionment."""

    counts: np.ndarray
    dropped: list[int]


def largest_remainder(t: np.ndarray, total: int) -> np.ndarray:
    """Integer shares of ``total`` by largest remainder of ``t * total``."""
    shares = t * total
    base = np.floor(shares).astype(int)
    short = total - base.sum()
    # ties broken by lower index: stable sort on descending remainder
    order = np.argsort(-(shares - base), kind="stable")
    base[order[:short]] += 1
    return base


def round_partition(t, ny: int) -> RoundingResult:
    """Largest-remainder apportionment of ``ny`` columns to ratios ``t``.

    A sub-surface with positive ratio that receives zero columns is dropped
    and its mass re-apportioned among the survivors; dropped indices are
    recorded in the result.  Counts always sum to ``ny``.
    """
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ValueError("partition ratios must be nonnegative")
    if abs(t.sum() - 1.0) > 1e-9:
        raise ValueError("partition ratios must sum to 1")
    active = [i for i in range(t.size) if t[i] > 0]
    dropped: list[int] = []
    while True:
        sub = t[active] / t[active].sum()
        counts_sub = largest_remainder(sub, ny)
        zero = [active[i] for i in range(len(active)) if counts_sub[i] == 0]
        if not zero:
            break
        dropped.extend(zero)
        active = [i for i in active if i not in zero]
        if not active:
            raise ValueError("no sub-surface survived rounding")
    counts = np.zeros(t.size, dtype=int)
    for i, c in zip(active, counts_sub):
        counts[i] = int(c)
    return RoundingResult(counts=counts, dropped=sorted(dropped))


@dataclass
class PartitionPlan:
    """Full passive-beamforming configuration for a horizontal partition.

    ``t`` holds partition ratios summing to 1.  ``column_counts`` is the
    realized integer split (``None`` while the plan is still continuous).
    ``gradients`` and ``psi`` are per sub-surface.
    """

    t: np.ndarray
    gradients: list[PhaseGradient]
    psi: np.ndarray
    column_counts: np.ndarray | None = None

    def __post_init__(self):
        self.t = np.asarray(self.t, dtype=float)
        self.psi = np.asarray(self.psi, dtype=float)
        s = self.t.size
        if len(self.gradients) != s or self.psi.size != s:
            raise ValueError("t, gradients, and psi must have equal length")
        if np.any(self.t < -1e-12) or np.any(self.t > 1 + 1e-12):
            raise ValueError("partition ratios must lie in [0, 1]")
        if abs(self.t.sum() - 1.0) > 1e-9:
            raise ValueError("partition ratios must sum to 1")
        if np.any(self.psi < 0) or np.any(self.psi >= 2 * np.pi):
            raise ValueError("common phases must lie in [0, 2*pi)")
        if self.column_counts is not None:
            self.column_counts = np.asarray(self.column_counts, dtype=int)
            if self.column_counts.size != s:
                raise ValueError("column_counts length mismatch")
            if np.any(self.column_counts < 0):
                raise ValueError("column counts must be nonnegative")

    @property
    def s(self) -> int:
        return self.t.size

    def realized_ratios(self, ny: int) -> np.ndarray:
        """Exact ratios implied by the integer column counts."""
        if self.column_counts is None:
            raise ValueError("plan is not realized")
        if self.column_counts.sum() != ny:
            raise ValueError("column counts do not sum to Ny")
        return self.column_counts / ny

    def realize(self, ny: int) -> tuple["PartitionPlan", list[int]]:
        """Round ratios onto ``ny`` columns (drop-and-reapportion rule).

        Returns the realized plan and the indices of the sub-surfaces it
        kept, in order.
        """
        result = round_partition(self.t, ny)
        keep = [i for i in range(self.s) if i not in result.dropped]
        counts = result.counts[keep]
        realized = PartitionPlan(
            t=counts / ny,
            gradients=[self.gradients[i] for i in keep],
            psi=self.psi[keep],
            column_counts=counts,
        )
        return realized, keep


def column_assignment(plan: PartitionPlan, ny: int) -> np.ndarray:
    """Sub-surface index of each RIS column (contiguous prefix-sum blocks)."""
    if plan.column_counts is None:
        raise ValueError("plan must be realized with integer column counts")
    if plan.column_counts.sum() != ny:
        raise ValueError("column counts do not sum to Ny")
    return np.repeat(np.arange(plan.s), plan.column_counts)


def build_theta(plan: PartitionPlan, ris: RisGeometry) -> np.ndarray:
    """Per-element reflection coefficients for a realized plan.

    The element at grid position (n_x, n_y), both 1-based, gets phase
    ``psi_s + k*(n_x-1)*g_x,s + k*(n_y-1)*g_y,s`` where s is the sub-surface
    owning column n_y.  Flattened with the y-index fastest (see
    :mod:`rispart.channel` layout note).
    """
    col_owner = column_assignment(plan, ris.ny)
    g_x = np.array([g.g_x for g in plan.gradients])[col_owner]
    g_y = np.array([g.g_y for g in plan.gradients])[col_owner]
    psi = plan.psi[col_owner]
    nx_idx = np.arange(ris.nx)[:, None]
    ny_idx = np.arange(ris.ny)[None, :]
    phase = psi[None, :] + ris.k * (nx_idx * g_x[None, :]
                                    + ny_idx * g_y[None, :])
    return np.exp(1j * phase).ravel()


def gain_direct_sum(theta: np.ndarray, ris: RisGeometry,
                    zeta: tuple[float, float]) -> complex:
    """Normalized passive beamforming gain by direct summation.

    ``(1/N) * sum_n theta_n * exp(-j*k*((n_x-1)*zeta_x + (n_y-1)*zeta_y))``.
    """
    theta = np.asarray(theta, dtype=complex)
    if theta.shape != (ris.n,):
        raise ValueError("theta length must equal the RIS element count")
    if np.any(np.abs(np.abs(theta) - 1.0) > 1e-9):
        raise ValueError("theta entries must have unit modulus")
    zx, zy = zeta
    grid = theta.reshape(ris.nx, ris.ny)
    px = np.exp(-1j * ris.k * zx * np.arange(ris.nx))
    py = np.exp(-1j * ris.k * zy * np.arange(ris.ny))
    return complex(px @ grid @ py / ris.n)


def dirichlet_ratio(extent, x):
    """``sin(extent*x) / (extent*sin(x))`` with its limits at sin(x) = 0.

    At ``x = m*pi`` the ratio tends to ``cos(extent*m*pi)/cos(m*pi)`` (equal
    to 1 when ``|x| < 1e-9``); a zero extent gives 1.  Magnitude never
    exceeds 1 for integer extents.  Elementwise over broadcast arrays.
    """
    extent, x = np.broadcast_arrays(np.asarray(extent, dtype=float),
                                    np.asarray(x, dtype=float))
    s = np.sin(x)
    m = np.round(x / np.pi)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(np.abs(s) < 1e-9,
                         np.cos(extent * m * np.pi) / np.cos(m * np.pi),
                         np.sin(extent * x) / (extent * s))
    return np.where(extent == 0, 1.0, ratio)[()]


def subsurface_gains(plan: PartitionPlan, ris: RisGeometry, zeta_x,
                     zeta_y) -> np.ndarray:
    """Closed-form gain of each sub-surface alone, common phase at zero.

    Shape ``(S,)`` plus the broadcast shape of ``zeta_x`` and ``zeta_y``;
    the plan's gain is ``exp(j*psi) @ subsurface_gains(...)``, so only
    this factor depends on the column split and the gradients.
    """
    zx, zy = np.broadcast_arrays(np.asarray(zeta_x, dtype=float),
                                 np.asarray(zeta_y, dtype=float))
    k = ris.k
    if plan.column_counts is not None:
        ratios = plan.realized_ratios(ris.ny)
        prefix = np.concatenate([[0], np.cumsum(plan.column_counts)])
    else:
        ratios = plan.t
        prefix = np.concatenate([[0], np.cumsum(plan.t * ris.ny)])
    shape = (plan.s,) + (1,) * zx.ndim
    t = ratios.reshape(shape)
    eta_x = np.array([g.g_x for g in plan.gradients]).reshape(shape) - zx
    eta_y = np.array([g.g_y for g in plan.gradients]).reshape(shape) - zy
    centre = (prefix[1:] + prefix[:-1] - 1).reshape(shape)
    phase = 0.5 * k * ((ris.nx - 1) * eta_x + centre * eta_y)
    return (np.exp(1j * phase) * t
            * dirichlet_ratio(ris.nx, 0.5 * k * eta_x)
            * dirichlet_ratio(t * ris.ny, 0.5 * k * eta_y))


def gain_closed_form(plan: PartitionPlan, ris: RisGeometry,
                     zeta: tuple[float, float]) -> complex:
    """Normalized gain as a sub-surface sum of Dirichlet-kernel ratios.

    Exact (matching :func:`gain_direct_sum`) whenever the plan is realized
    with integer column counts.
    """
    return complex(np.exp(1j * plan.psi) @ subsurface_gains(plan, ris,
                                                            *zeta))


def gain_asymptotic(plan: PartitionPlan, zeta: tuple[float, float],
                    tol: float = 1e-12) -> complex:
    """Large-surface limit: only exactly aligned sub-surfaces contribute."""
    zx, zy = zeta
    total = 0.0 + 0.0j
    for s in range(plan.s):
        if (abs(plan.gradients[s].g_x - zx) < tol
                and abs(plan.gradients[s].g_y - zy) < tol):
            total += np.exp(1j * plan.psi[s]) * plan.t[s]
    return complex(total)


@dataclass
class TilePlan:
    """Rectangular-tile partition: an explicit tile-to-subsurface map.

    The RIS is cut into a ``tiles_x x tiles_y`` grid of equal tiles; each
    tile carries its own common phase and belongs to exactly one
    sub-surface.  ``psi_tiles[m_x, m_y]`` is the physical common phase of
    tile (m_x, m_y) (the phase at its first element on top of the gradient).
    """

    tiles_x: int
    tiles_y: int
    assignment: np.ndarray  # (tiles_x, tiles_y) sub-surface indices
    gradients: list[PhaseGradient]
    psi_tiles: np.ndarray   # (tiles_x, tiles_y)

    def __post_init__(self):
        self.assignment = np.asarray(self.assignment, dtype=int)
        self.psi_tiles = np.asarray(self.psi_tiles, dtype=float)
        shape = (self.tiles_x, self.tiles_y)
        if self.assignment.shape != shape or self.psi_tiles.shape != shape:
            raise ValueError("assignment/psi_tiles shape mismatch")
        s = len(self.gradients)
        if self.assignment.min() < 0 or self.assignment.max() >= s:
            raise ValueError("every tile must map to a valid sub-surface")

    @property
    def n_tiles(self) -> int:
        return self.tiles_x * self.tiles_y

    @property
    def mu(self) -> np.ndarray:
        """Fraction of tiles owned by each sub-surface."""
        return np.bincount(self.assignment.ravel(),
                           minlength=len(self.gradients)) / self.n_tiles

    @classmethod
    def from_mu(cls, mu, tiles_x: int, tiles_y: int, gradients,
                psi) -> "TilePlan":
        """Raster-order assignment from tile fractions.

        Each ``mu_s * n_tiles`` must be an integer; fractional tile counts
        are rejected rather than rounded.
        """
        mu = np.asarray(mu, dtype=float)
        counts = mu * tiles_x * tiles_y
        if np.any(np.abs(counts - np.round(counts)) > 1e-9):
            raise ValueError("mu_s times the tile count must be integer")
        counts = np.round(counts).astype(int)
        if counts.sum() != tiles_x * tiles_y:
            raise ValueError("mu must sum to 1")
        owner = np.repeat(np.arange(mu.size), counts).reshape(tiles_x, tiles_y)
        psi = np.asarray(psi, dtype=float)
        return cls(tiles_x=tiles_x, tiles_y=tiles_y, assignment=owner,
                   gradients=list(gradients),
                   psi_tiles=psi[owner])

    @classmethod
    def from_partition_plan(cls, plan: PartitionPlan, ris: RisGeometry,
                            tiles_x: int, tiles_y: int) -> "TilePlan":
        """Horizontal-stripe tiling that reproduces a realized plan exactly.

        Requires the tile grid to divide the RIS grid and each sub-surface's
        column block to be a whole number of tile columns.  Per-tile phases
        absorb the gradient offset of the tile position, so the per-element
        phase profile is identical to :func:`build_theta` of the plan.
        """
        if ris.nx % tiles_x or ris.ny % tiles_y:
            raise ValueError("tile grid must divide the RIS grid")
        ex, ey = ris.nx // tiles_x, ris.ny // tiles_y
        if plan.column_counts is None:
            raise ValueError("plan must be realized")
        if np.any(plan.column_counts % ey):
            raise ValueError("column blocks must align with tile columns")
        owner_cols = np.repeat(np.arange(plan.s), plan.column_counts // ey)
        assignment = np.tile(owner_cols, (tiles_x, 1))
        mx = np.arange(tiles_x)[:, None]
        my = np.arange(tiles_y)[None, :]
        g_x = np.array([g.g_x for g in plan.gradients])[assignment]
        g_y = np.array([g.g_y for g in plan.gradients])[assignment]
        psi_s = plan.psi[assignment]
        psi_tiles = psi_s + ris.k * (mx * ex * g_x + my * ey * g_y)
        return cls(tiles_x=tiles_x, tiles_y=tiles_y, assignment=assignment,
                   gradients=list(plan.gradients), psi_tiles=psi_tiles)

    def build_theta(self, ris: RisGeometry) -> np.ndarray:
        """Per-element reflection coefficients of the tiled configuration."""
        if ris.nx % self.tiles_x or ris.ny % self.tiles_y:
            raise ValueError("tile grid must divide the RIS grid")
        ex, ey = ris.nx // self.tiles_x, ris.ny // self.tiles_y
        g_x = np.array([g.g_x for g in self.gradients])
        g_y = np.array([g.g_y for g in self.gradients])
        phase = np.empty((ris.nx, ris.ny))
        for mx in range(self.tiles_x):
            for my in range(self.tiles_y):
                s = self.assignment[mx, my]
                loc_x = np.arange(ex)[:, None]
                loc_y = np.arange(ey)[None, :]
                phase[mx * ex:(mx + 1) * ex, my * ey:(my + 1) * ey] = (
                    self.psi_tiles[mx, my]
                    + ris.k * (loc_x * g_x[s] + loc_y * g_y[s]))
        return np.exp(1j * phase).ravel()


def tile_plan_gain(tiles: TilePlan, ris: RisGeometry,
                   zeta: tuple[float, float]) -> complex:
    """Normalized gain of a tiled configuration, closed form.

    One Dirichlet-ratio product per tile with the tile extents; exact for
    any tile assignment.
    """
    if ris.nx % tiles.tiles_x or ris.ny % tiles.tiles_y:
        raise ValueError("tile grid must divide the RIS grid")
    ex, ey = ris.nx // tiles.tiles_x, ris.ny // tiles.tiles_y
    zx, zy = zeta
    k = ris.k
    total = 0.0 + 0.0j
    for mx in range(tiles.tiles_x):
        for my in range(tiles.tiles_y):
            s = tiles.assignment[mx, my]
            eta_x = tiles.gradients[s].g_x - zx
            eta_y = tiles.gradients[s].g_y - zy
            # tile-position offset folds the global zeta phase into the
            # tile's effective common phase
            psi_eff = (tiles.psi_tiles[mx, my]
                       - k * (mx * ex * zx + my * ey * zy))
            psi_tilde = (psi_eff + 0.5 * k * (ex - 1) * eta_x
                         + 0.5 * k * (ey - 1) * eta_y)
            dx = dirichlet_ratio(ex, 0.5 * k * eta_x)
            dy = dirichlet_ratio(ey, 0.5 * k * eta_y)
            total += np.exp(1j * psi_tilde) * dx * dy
    return complex(total / tiles.n_tiles)


def tile_plan_gain_asymptotic(tiles: TilePlan, zeta: tuple[float, float],
                              tol: float = 1e-12) -> complex:
    """Large-surface limit of the tiled gain: mu replaces t.

    Assumes the per-tile phases of each aligned sub-surface share a common
    value (which holds for aligned sub-surfaces built from a physical
    common phase, since the position offset vanishes with eta = 0).
    """
    zx, zy = zeta
    mu = tiles.mu
    total = 0.0 + 0.0j
    for s, g in enumerate(tiles.gradients):
        if abs(g.g_x - zx) < tol and abs(g.g_y - zy) < tol:
            first = np.argwhere(tiles.assignment == s)
            if first.size == 0:
                continue
            mx, my = first[0]
            # aligned: the position phase offset cancels
            total += np.exp(1j * tiles.psi_tiles[mx, my]) * mu[s]
    return complex(total)
