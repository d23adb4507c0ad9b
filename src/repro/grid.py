"""Arakawa-C staggered grid for the SCALE-RM-analog model.

Index convention: all 3-D fields are ``(nz, ny, nx)`` C-ordered so that the
innermost (contiguous) axis is x — horizontal operations then stream through
memory, which is the dominant access pattern of the horizontally-explicit
HEVI core (cf. "Beware of cache effects" in the optimization guide).

Staggering (Arakawa C):

* mass/scalar points at cell centers ``(k, j, i)``;
* ``u`` at x-faces ``i+1/2`` (array shape ``(nz, ny, nx)``, periodic or
  one-sided closure at the boundary);
* ``v`` at y-faces ``j+1/2``;
* ``w`` at z-faces ``k+1/2`` (shape ``(nz+1, ny, nx)`` with rigid lids
  ``w[0] = w[nz] = 0``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import DomainConfig
from .constants import DEFAULT_DTYPE, as_dtype

__all__ = ["Grid", "periodic_shift"]


def periodic_shift(a: np.ndarray, shift: int, axis: int) -> np.ndarray:
    """``np.roll(a, shift, axis)`` along a horizontal axis (-1: x, -2: y).

    The horizontal stencils call this a few thousand times per cycle on
    small fields, where ``np.roll``'s generic axis handling costs more
    than the copy; here it is one allocation and two slice copies.
    """
    n = a.shape[axis]
    k = shift % n
    out = np.empty_like(a)
    if axis == -1:
        out[..., k:] = a[..., : n - k]
        out[..., :k] = a[..., n - k :]
    elif axis == -2:
        out[..., k:, :] = a[..., : n - k, :]
        out[..., :k, :] = a[..., n - k :, :]
    else:
        raise ValueError(f"periodic_shift handles the horizontal axes -1 and -2, not {axis}")
    return out


@dataclass
class Grid:
    """Computational grid built from a :class:`~repro.config.DomainConfig`."""

    domain: DomainConfig
    dtype: np.dtype = DEFAULT_DTYPE

    def __post_init__(self):
        self.dtype = as_dtype(self.dtype)
        d = self.domain
        self.nx, self.ny, self.nz = d.nx, d.ny, d.nz
        self.dx, self.dy = d.dx, d.dy
        # Uniform vertical levels; z_f are nz+1 face heights, z_c centers.
        self.z_f = np.linspace(0.0, d.ztop, d.nz + 1, dtype=np.float64)
        self.z_c = 0.5 * (self.z_f[1:] + self.z_f[:-1])
        self.dz = np.diff(self.z_f)
        # Horizontal cell-center coordinates [m]
        self.x_c = (np.arange(d.nx, dtype=np.float64) + 0.5) * d.dx
        self.y_c = (np.arange(d.ny, dtype=np.float64) + 0.5) * d.dy

    # -- shapes ------------------------------------------------------------

    @property
    def shape(self) -> tuple[int, int, int]:
        """Shape of cell-centered fields: (nz, ny, nx)."""
        return (self.nz, self.ny, self.nx)

    @property
    def shape_w(self) -> tuple[int, int, int]:
        """Shape of z-face (w) fields: (nz+1, ny, nx)."""
        return (self.nz + 1, self.ny, self.nx)

    def zeros(self, *, face: str | None = None) -> np.ndarray:
        """Allocate a zero field at centers or at ``face`` in {'x','y','z'}."""
        if face is None or face in ("x", "y"):
            return np.zeros(self.shape, dtype=self.dtype)
        if face == "z":
            return np.zeros(self.shape_w, dtype=self.dtype)
        raise ValueError(f"unknown face {face!r}")

    # -- coordinate helpers --------------------------------------------------

    def meshgrid(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(Z, Y, X) cell-center coordinate arrays of shape (nz, ny, nx)."""
        return np.meshgrid(self.z_c, self.y_c, self.x_c, indexing="ij")

    def horizontal_distance(self, x0: float, y0: float) -> np.ndarray:
        """Horizontal distance [m] of every column center from (x0, y0); (ny, nx)."""
        xx, yy = np.meshgrid(self.x_c, self.y_c, indexing="xy")
        return np.hypot(xx - x0, yy - y0)

    def column_index(self, x: float, y: float) -> tuple[int, int]:
        """(j, i) of the column containing physical point (x, y)."""
        i = int(np.clip(x / self.dx, 0, self.nx - 1))
        j = int(np.clip(y / self.dy, 0, self.ny - 1))
        return j, i

    def level_index(self, z: float) -> int:
        """k of the level containing height z."""
        return int(np.clip(np.searchsorted(self.z_f, z) - 1, 0, self.nz - 1))

    # -- difference operators (periodic horizontally) ------------------------
    #
    # The real system uses lateral boundary relaxation toward the outer
    # domain; internally the horizontal stencils are applied with
    # wrap-around and the boundary module overwrites the relaxation zone,
    # which keeps the hot stencil branch-free and vectorized.

    def ddx_c(self, f: np.ndarray) -> np.ndarray:
        """Centered x-derivative of a cell-centered field."""
        return (periodic_shift(f, -1, -1) - periodic_shift(f, 1, -1)) / (2.0 * self.dx)

    def ddy_c(self, f: np.ndarray) -> np.ndarray:
        """Centered y-derivative of a cell-centered field."""
        return (periodic_shift(f, -1, -2) - periodic_shift(f, 1, -2)) / (2.0 * self.dy)

    def ddz_c(self, f: np.ndarray) -> np.ndarray:
        """Centered z-derivative of a cell-centered field (one-sided at ends).

        ``f`` is ``(..., nz, ny, nx)``; leading axes (e.g. an ensemble
        member axis) broadcast through.
        """
        out = np.empty_like(f)
        dzc = (self.z_c[2:] - self.z_c[:-2]).astype(f.dtype)
        out[..., 1:-1, :, :] = (f[..., 2:, :, :] - f[..., :-2, :, :]) / dzc[:, None, None]
        out[..., 0, :, :] = (f[..., 1, :, :] - f[..., 0, :, :]) / (self.z_c[1] - self.z_c[0])
        out[..., -1, :, :] = (f[..., -1, :, :] - f[..., -2, :, :]) / (self.z_c[-1] - self.z_c[-2])
        return out

    def laplacian_h(self, f: np.ndarray) -> np.ndarray:
        """Horizontal Laplacian of a cell-centered field."""
        return (
            (periodic_shift(f, -1, -1) - 2.0 * f + periodic_shift(f, 1, -1)) / self.dx**2
            + (periodic_shift(f, -1, -2) - 2.0 * f + periodic_shift(f, 1, -2)) / self.dy**2
        )
