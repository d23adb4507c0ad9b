# Frozen oracle: `trilinear_sample` and `PAWRSimulator` of
# src/repro/radar/pawr.py as of PR 15 (commit 72440c2), verbatim below the
# imports (only the relative imports are spelled absolutely, and `VolumeScan`,
# a plain container, is the package's). tests/test_radar.py requires
# `TrilinearPlan` to reproduce both byte for byte; do not edit it to follow
# the package.
"""The pre-plan MP-PAWR sampling path: geometry re-derived on every call."""

from __future__ import annotations

import numpy as np

from repro.config import RadarConfig
from repro.constants import DBZ_NO_RAIN
from repro.grid import Grid
from repro.radar.blockage import observation_mask
from repro.radar.doppler import doppler_from_state
from repro.radar.pawr import VolumeScan
from repro.radar.reflectivity import dbz_from_state
from repro.radar.scan import ScanGeometry

__all__ = ["PAWRSimulator", "trilinear_sample"]


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
    point-array shapes.
    """
    fx = x / grid.dx - 0.5
    fy = y / grid.dy - 0.5
    # vertical levels are uniform
    dz = float(grid.dz[0])
    fz = (z - grid.z_c[0]) / dz

    i0 = np.floor(fx).astype(np.int64)
    j0 = np.floor(fy).astype(np.int64)
    k0 = np.floor(fz).astype(np.int64)
    wx = fx - i0
    wy = fy - j0
    wz = fz - k0

    inside = (
        (i0 >= 0) & (i0 < grid.nx - 1)
        & (j0 >= 0) & (j0 < grid.ny - 1)
        & (k0 >= 0) & (k0 < grid.nz - 1)
    )
    i0c = np.clip(i0, 0, grid.nx - 2)
    j0c = np.clip(j0, 0, grid.ny - 2)
    k0c = np.clip(k0, 0, grid.nz - 2)

    f = field
    c000 = f[k0c, j0c, i0c]
    c001 = f[k0c, j0c, i0c + 1]
    c010 = f[k0c, j0c + 1, i0c]
    c011 = f[k0c, j0c + 1, i0c + 1]
    c100 = f[k0c + 1, j0c, i0c]
    c101 = f[k0c + 1, j0c, i0c + 1]
    c110 = f[k0c + 1, j0c + 1, i0c]
    c111 = f[k0c + 1, j0c + 1, i0c + 1]

    out = (
        c000 * (1 - wx) * (1 - wy) * (1 - wz)
        + c001 * wx * (1 - wy) * (1 - wz)
        + c010 * (1 - wx) * wy * (1 - wz)
        + c011 * wx * wy * (1 - wz)
        + c100 * (1 - wx) * (1 - wy) * wz
        + c101 * wx * (1 - wy) * wz
        + c110 * (1 - wx) * wy * wz
        + c111 * wx * wy * wz
    )
    return np.where(inside, out, fill)


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
        self._points = self.geometry.sample_points()

    def scan(self, state, t_obs: float) -> VolumeScan:
        """One full volume scan of the given model state at time t_obs."""
        x, y, z = self._points
        dbz_grid = dbz_from_state(state).astype(np.float64)
        vr_grid = doppler_from_state(state, self.radar).astype(np.float64)

        dbz = trilinear_sample(self.grid, dbz_grid, x, y, z, fill=np.nan)
        vr = trilinear_sample(self.grid, vr_grid, x, y, z, fill=np.nan)

        valid = self._mask & np.isfinite(dbz)
        dbz = np.where(valid, dbz, DBZ_NO_RAIN)
        vr = np.where(valid, vr, 0.0)

        if self.attenuation:
            from repro.radar.attenuation import attenuate_scan, correct_attenuation_kdp
            from repro.radar.dualpol import KDP_COEFF

            rain = np.maximum(
                state.dens.astype(np.float64) * state.fields["qr"].astype(np.float64),
                0.0,
            )
            rain_ray = trilinear_sample(self.grid, rain, x, y, z, fill=0.0)
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
