"""Structured sub-surface phase shifts and normalized passive beamforming
gains.

A sub-surface carries a common phase shift and a phase gradient: the
slope (g_x, g_y) that reflects a Tx-RIS arrival into a RIS-Rx departure,
the difference of their ``channel.ris_cosines``.  Column partitions
(:class:`PartitionPlan`) and tilings (:class:`TilePlan`) are both laid out
as :class:`Blocks`, phases referenced to the RIS origin, so one theta
builder serves both, as does each gain: the direct element-wise sum, the
closed form from Dirichlet-kernel ratios, and the large-surface limit
where only aligned sub-surfaces contribute.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from rispart.channel import RisGeometry, dirichlet_ratio

# gradient-to-zeta distance below which a sub-surface counts as aligned
ALIGN_TOL = 1e-12


def largest_remainder(t: np.ndarray, total: int) -> np.ndarray:
    """Integer shares of ``total`` by largest remainder of ``t * total``."""
    shares = t * total
    base = np.floor(shares).astype(int)
    short = total - base.sum()
    # ties broken by lower index: stable sort on descending remainder
    order = np.argsort(-(shares - base), kind="stable")
    base[order[:short]] += 1
    return base


def round_partition(t, ny: int) -> np.ndarray:
    """Largest-remainder apportionment of ``ny`` columns to ratios ``t``.

    A sub-surface with positive ratio that receives zero columns is dropped
    (its count stays 0) and its mass re-apportioned among the survivors.
    Counts always sum to ``ny``.
    """
    t = np.asarray(t, dtype=float)
    if not np.all(t >= 0):  # a NaN ratio too
        raise ValueError("partition ratios must be nonnegative")
    if not abs(t.sum() - 1.0) <= 1e-9:
        raise ValueError("partition ratios must sum to 1")
    active = t > 0
    while True:
        counts = np.zeros(t.size, dtype=int)
        counts[active] = largest_remainder(t[active] / t[active].sum(), ny)
        dropped = active & (counts == 0)
        if not dropped.any():
            return counts
        active &= ~dropped
        if not active.any():
            raise ValueError("no sub-surface survived rounding")


def _check_phases(gradients: np.ndarray, psi: np.ndarray) -> None:
    """Finite gradients and common phases in [0, 2*pi); NaN fails both."""
    if not np.all(np.isfinite(gradients)):
        raise ValueError("phase gradients must be finite")
    if not np.all((psi >= 0) & (psi < 2 * np.pi)):
        raise ValueError("common phases must lie in [0, 2*pi)")


class Blocks(NamedTuple):
    """A plan as rectangular element blocks, one entry per block.

    Block b covers rows ``x0[b] .. x0[b]+ex[b]-1`` and columns
    ``y0[b] .. y0[b]+ey[b]-1`` of the RIS grid and belongs to sub-surface
    ``owner[b]``.  Its common phase ``psi[b]`` is referenced to the RIS
    origin element (0, 0): element (n_x, n_y) of the block, 0-based, gets
    ``psi[b] + k*(n_x*g_x + n_y*g_y)`` with its sub-surface's gradient.
    """

    x0: np.ndarray
    y0: np.ndarray
    ex: np.ndarray
    ey: np.ndarray
    owner: np.ndarray
    psi: np.ndarray


@dataclass
class PartitionPlan:
    """Full passive-beamforming configuration for a horizontal partition.

    Sub-surface s spans ``column_counts[s]`` whole columns, left to right
    in order, with phase gradient ``gradients[s]``, a row of the (S, 2)
    array, and common phase ``psi[s]``.  Realized, sub-surface s serves
    Tx-RIS path s and RIS-Rx path s (see ``finite.adapt_solution``).
    """

    column_counts: np.ndarray
    gradients: np.ndarray
    psi: np.ndarray

    def __post_init__(self):
        self.column_counts = np.asarray(self.column_counts, dtype=int)
        self.gradients = np.asarray(self.gradients, dtype=float)
        self.psi = np.asarray(self.psi, dtype=float)
        s = self.column_counts.size
        if self.gradients.shape != (s, 2) or self.psi.size != s:
            raise ValueError("column_counts, gradients (S x 2), and psi "
                             "must have equal length")
        if np.any(self.column_counts < 0):
            raise ValueError("column counts must be nonnegative")
        _check_phases(self.gradients, self.psi)

    @property
    def s(self) -> int:
        return self.column_counts.size

    def blocks(self, ris: RisGeometry) -> Blocks:
        """Sub-surface s is the block of all rows over its column run."""
        counts = self.column_counts
        if counts.sum() != ris.ny:
            raise ValueError("column counts do not sum to Ny")
        return Blocks(x0=np.zeros(self.s, dtype=int),
                      y0=np.cumsum(counts) - counts,
                      ex=np.full(self.s, ris.nx), ey=counts,
                      owner=np.arange(self.s), psi=self.psi)


def build_theta(plan: PartitionPlan | TilePlan,
                ris: RisGeometry) -> np.ndarray:
    """Per-element reflection coefficients of a plan.

    The element at grid position (n_x, n_y), both 0-based, gets phase
    ``psi_b + k*n_x*g_x + k*n_y*g_y`` from the block b that covers it
    (see :class:`Blocks`).  Flattened with the y-index fastest (see
    :mod:`rispart.channel` layout note).
    """
    phase = np.empty((ris.nx, ris.ny))
    for x0, y0, ex, ey, owner, psi in zip(*plan.blocks(ris)):
        g_x, g_y = plan.gradients[owner]
        phase[x0:x0 + ex, y0:y0 + ey] = psi + ris.k * (
            np.arange(x0, x0 + ex)[:, None] * g_x
            + np.arange(y0, y0 + ey)[None, :] * g_y)
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


def subsurface_gains(plan: PartitionPlan | TilePlan, ris: RisGeometry,
                     zeta_x, zeta_y) -> np.ndarray:
    """Closed-form gain of each block alone, common phase at zero.

    Shape ``(B,)`` plus the broadcast shape of ``zeta_x`` and ``zeta_y``,
    over the blocks of :meth:`PartitionPlan.blocks` (its sub-surfaces, in
    order) or :meth:`TilePlan.blocks` (its tiles).  The plan's gain is
    ``exp(j*psi_b) @ subsurface_gains(...)``, so only this factor depends
    on the layout and the gradients.
    """
    zx, zy = np.broadcast_arrays(np.asarray(zeta_x, dtype=float),
                                 np.asarray(zeta_y, dtype=float))
    b = plan.blocks(ris)
    shape = (b.owner.size,) + (1,) * zx.ndim
    g_x, g_y = plan.gradients[b.owner].T
    eta_x = g_x.reshape(shape) - zx
    eta_y = g_y.reshape(shape) - zy
    x0, y0, ex, ey = (v.reshape(shape) for v in (b.x0, b.y0, b.ex, b.ey))
    k = ris.k
    phase = 0.5 * k * ((2 * x0 + ex - 1) * eta_x + (2 * y0 + ey - 1) * eta_y)
    return (np.exp(1j * phase) * (ex * ey / ris.n)
            * dirichlet_ratio(ex, 0.5 * k * eta_x)
            * dirichlet_ratio(ey, 0.5 * k * eta_y))


def gain_closed_form(plan: PartitionPlan | TilePlan, ris: RisGeometry,
                     zeta: tuple[float, float]) -> complex:
    """Normalized gain as a block sum of Dirichlet-kernel ratios.

    Exact (matching :func:`gain_direct_sum` of :func:`build_theta`) for
    any plan.
    """
    return complex(np.exp(1j * plan.blocks(ris).psi)
                   @ subsurface_gains(plan, ris, *zeta))


def gain_asymptotic(plan: PartitionPlan | TilePlan, ris: RisGeometry,
                    zeta: tuple[float, float]) -> complex:
    """Large-surface limit: only blocks of exactly aligned sub-surfaces
    contribute, each its common phase times its area share."""
    b = plan.blocks(ris)
    g_x, g_y = plan.gradients[b.owner].T
    aligned = ((np.abs(g_x - zeta[0]) < ALIGN_TOL)
               & (np.abs(g_y - zeta[1]) < ALIGN_TOL))
    share = b.ex * b.ey / ris.n
    return complex(np.exp(1j * b.psi[aligned]) @ share[aligned])


@dataclass
class TilePlan:
    """Rectangular-tile partition: an explicit tile-to-subsurface map.

    The RIS is cut into a ``tiles_x x tiles_y`` grid of equal tiles; each
    tile carries its own common phase and belongs to exactly one
    sub-surface.  ``psi_tiles[m_x, m_y]`` is referenced to the RIS origin
    element, as ``PartitionPlan.psi`` is (see :class:`Blocks`), so tiles of
    one sub-surface with equal phases form one linear phase profile.
    ``gradients[s] = (g_x, g_y)`` is sub-surface s's, an ``(S, 2)`` array.
    """

    tiles_x: int
    tiles_y: int
    assignment: np.ndarray  # (tiles_x, tiles_y) sub-surface indices
    gradients: np.ndarray   # (S, 2)
    psi_tiles: np.ndarray   # (tiles_x, tiles_y)

    def __post_init__(self):
        self.assignment = np.asarray(self.assignment, dtype=int)
        self.gradients = np.asarray(self.gradients, dtype=float)
        self.psi_tiles = np.asarray(self.psi_tiles, dtype=float)
        shape = (self.tiles_x, self.tiles_y)
        if self.assignment.shape != shape or self.psi_tiles.shape != shape:
            raise ValueError("assignment/psi_tiles shape mismatch")
        if self.gradients.ndim != 2 or self.gradients.shape[1] != 2:
            raise ValueError("gradients must be an (S, 2) array")
        _check_phases(self.gradients, self.psi_tiles)
        s = len(self.gradients)
        if self.assignment.min() < 0 or self.assignment.max() >= s:
            raise ValueError("every tile must map to a valid sub-surface")

    @classmethod
    def from_partition_plan(cls, plan: PartitionPlan, ris: RisGeometry,
                            tiles_x: int, tiles_y: int) -> "TilePlan":
        """Horizontal-stripe tiling that reproduces a column plan exactly.

        Requires the tile grid to divide the RIS grid and each sub-surface's
        column block to be a whole number of tile columns.
        """
        _, ey = _tile_extents(ris, tiles_x, tiles_y)
        counts = plan.blocks(ris).ey  # raises unless the counts cover Ny
        if np.any(counts % ey):
            raise ValueError("column blocks must align with tile columns")
        owner_cols = np.repeat(np.arange(plan.s), counts // ey)
        assignment = np.tile(owner_cols, (tiles_x, 1))
        return cls(tiles_x=tiles_x, tiles_y=tiles_y, assignment=assignment,
                   gradients=plan.gradients.copy(),
                   psi_tiles=plan.psi[assignment])

    def blocks(self, ris: RisGeometry) -> Blocks:
        """One block per tile, in raster order."""
        ex, ey = _tile_extents(ris, self.tiles_x, self.tiles_y)
        mx, my = np.indices(self.assignment.shape).reshape(2, -1)
        return Blocks(x0=mx * ex, y0=my * ey, ex=np.full(mx.size, ex),
                      ey=np.full(mx.size, ey), owner=self.assignment.ravel(),
                      psi=self.psi_tiles.ravel())


def _tile_extents(ris: RisGeometry, tiles_x: int,
                  tiles_y: int) -> tuple[int, int]:
    """Element extents of one tile of a ``tiles_x x tiles_y`` grid."""
    if ris.nx % tiles_x or ris.ny % tiles_y:
        raise ValueError("tile grid must divide the RIS grid")
    return ris.nx // tiles_x, ris.ny // tiles_y
