"""The MP-PAWR instrument simulator.

Samples a model ("nature-run") state on the phased-array scan geometry
with trilinear interpolation, applies observation noise and the
blockage/range masks, and emits one :class:`VolumeScan` per 30 seconds —
the synthetic equivalent of the real instrument's raw volume files,
including the scan-completion timestamp used for time-to-solution.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..config import RadarConfig
from ..constants import DBZ_NO_RAIN
from ..grid import Grid
from .blockage import observation_mask
from .doppler import doppler_from_state
from .fileformat import encode_volume
from .reflectivity import dbz_from_state
from .scan import ScanGeometry

__all__ = ["VolumeScan", "PAWRSimulator", "TrilinearPlan", "trilinear_sample"]


class TrilinearPlan:
    """Trilinear interpolation geometry of fixed sample points on one grid.

    The radar samples the same gates every 30 seconds, so everything that
    depends only on ``(grid, points)`` — the inside mask, the flat index
    of each point's lower cell corner, the weights along x, y and z and
    their complements — is derived once here; :meth:`sample` is then
    eight flat gathers and one multiply-add chain per field, through
    scratch buffers the plan owns. Vertical levels are taken as uniform.
    """

    def __init__(self, grid: Grid, x: np.ndarray, y: np.ndarray, z: np.ndarray):
        self.grid_shape = grid.shape
        nz, ny, nx = grid.shape
        fx = x / grid.dx - 0.5
        fy = y / grid.dy - 0.5
        fz = (z - grid.z_c[0]) / float(grid.dz[0])

        i0 = np.floor(fx).astype(np.int64)
        j0 = np.floor(fy).astype(np.int64)
        k0 = np.floor(fz).astype(np.int64)
        self.wx = fx - i0
        self.wy = fy - j0
        self.wz = fz - k0
        self.ux = 1 - self.wx
        self.uy = 1 - self.wy
        self.uz = 1 - self.wz

        self.inside = (
            (i0 >= 0) & (i0 < nx - 1)
            & (j0 >= 0) & (j0 < ny - 1)
            & (k0 >= 0) & (k0 < nz - 1)
        )
        # outside points gather from the nearest edge cell and are
        # overwritten with ``fill``; the clip only keeps their index legal
        self.base = (
            np.clip(k0, 0, nz - 2) * ny + np.clip(j0, 0, ny - 2)
        ) * nx + np.clip(i0, 0, nx - 2)
        # corners in the order they are summed: 000, 001, ... 111 (z y x)
        self._corners = tuple(
            (dk * ny * nx + dj * nx + di, wz, wy, wx)
            for dk, wz in ((0, self.uz), (1, self.wz))
            for dj, wy in ((0, self.uy), (1, self.wy))
            for di, wx in ((0, self.ux), (1, self.wx))
        )
        self._term = np.empty(self.base.shape)
        self._acc = np.empty(self.base.shape)

    def sample(self, field: np.ndarray, fill: float = np.nan) -> np.ndarray:
        """Interpolate a (nz, ny, nx) field at the plan's points.

        Points outside the domain get ``fill``. The result is a new
        float64 array of the points' shape.
        """
        if field.shape != self.grid_shape:
            raise ValueError(
                f"field of shape {field.shape} sampled through a plan "
                f"built for grid shape {self.grid_shape}"
            )
        flat = np.ascontiguousarray(field, dtype=np.float64).reshape(-1)
        term, acc = self._term, self._acc
        for n, (offset, wz, wy, wx) in enumerate(self._corners):
            np.take(flat[offset:], self.base, out=term)
            np.multiply(term, wx, out=term)
            np.multiply(term, wy, out=term)
            np.multiply(term, wz, out=acc if n == 0 else term)
            if n:
                np.add(acc, term, out=acc)
        return np.where(self.inside, acc, fill)


def trilinear_sample(
    grid: Grid,
    field: np.ndarray,
    x: np.ndarray,
    y: np.ndarray,
    z: np.ndarray,
    fill: float = np.nan,
) -> np.ndarray:
    """Trilinear interpolation of a (nz, ny, nx) field at scattered points.

    Points outside the domain get ``fill``. Vectorized over arbitrary
    point-array shapes. One-shot form of :class:`TrilinearPlan`; sample
    the same points repeatedly through a plan instead.
    """
    return TrilinearPlan(grid, x, y, z).sample(field, fill)


@dataclass
class VolumeScan:
    """One 30-second MP-PAWR volume."""

    t_obs: float  # scan completion time [s since campaign start]
    dbz: np.ndarray  # (n_elev, n_azim, n_gates)
    doppler: np.ndarray
    valid: np.ndarray
    geometry: ScanGeometry

    def encode(self, t_created: float) -> bytes:
        """Raw file bytes (see :mod:`repro.radar.fileformat`)."""
        return encode_volume(self.dbz, self.valid, self.doppler, self.t_obs, t_created)

    @property
    def n_valid(self) -> int:
        return int(np.count_nonzero(self.valid))


class PAWRSimulator:
    """Generates MP-PAWR volume scans from nature-run model states.

    ``attenuation`` turns on the X-band physics: echoes behind heavy
    rain are attenuated along each ray; ``kdp_correction`` then applies
    the dual-pol (multi-parameter) KDP-based correction before the data
    leave the instrument — the processing chain that makes the MP-PAWR's
    reflectivity usable for assimilation in heavy rain.
    """

    def __init__(
        self,
        radar: RadarConfig,
        grid: Grid,
        *,
        seed: int = 1234,
        attenuation: bool = False,
        kdp_correction: bool = True,
    ):
        self.radar = radar
        self.grid = grid
        self.geometry = ScanGeometry(radar)
        self.rng = np.random.default_rng(seed)
        self.attenuation = attenuation
        self.kdp_correction = kdp_correction
        self._mask = observation_mask(self.geometry)
        self._plan = TrilinearPlan(grid, *self.geometry.sample_points())

    def scan(self, state, t_obs: float) -> VolumeScan:
        """One full volume scan of the given model state at time t_obs."""
        dbz_grid = dbz_from_state(state).astype(np.float64)
        vr_grid = doppler_from_state(state, self.radar).astype(np.float64)

        dbz = self._plan.sample(dbz_grid, fill=np.nan)
        vr = self._plan.sample(vr_grid, fill=np.nan)

        valid = self._mask & np.isfinite(dbz)
        dbz = np.where(valid, dbz, DBZ_NO_RAIN)
        vr = np.where(valid, vr, 0.0)

        if self.attenuation:
            from .attenuation import attenuate_scan, correct_attenuation_kdp
            from .dualpol import KDP_COEFF

            rain = np.maximum(
                state.dens.astype(np.float64) * state.fields["qr"].astype(np.float64),
                0.0,
            )
            rain_ray = self._plan.sample(rain, fill=0.0)
            rain_ray = np.where(np.isfinite(rain_ray), rain_ray, 0.0)
            dbz = attenuate_scan(dbz, rain_ray, self.radar.gate_spacing)
            if self.kdp_correction:
                # the instrument's own KDP (phase is attenuation-immune;
                # operational KDP is range-filtered, so its noise per
                # gate is small)
                kdp_ray = KDP_COEFF * rain_ray
                kdp_ray = kdp_ray + self.rng.normal(0.0, 0.01, size=kdp_ray.shape)
                dbz = correct_attenuation_kdp(dbz, kdp_ray, self.radar.gate_spacing)

        dbz = dbz + self.rng.normal(0.0, self.radar.noise_refl_dbz, size=dbz.shape)
        vr = vr + self.rng.normal(0.0, self.radar.noise_doppler_ms, size=vr.shape)
        dbz = np.maximum(dbz, DBZ_NO_RAIN)

        return VolumeScan(
            t_obs=t_obs,
            dbz=dbz.astype(np.float32),
            doppler=vr.astype(np.float32),
            valid=valid,
            geometry=self.geometry,
        )
