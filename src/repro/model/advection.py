"""Flux-form advection operators.

Horizontal directions are periodic at the stencil level (the lateral
boundary module overwrites the relaxation zone afterwards), which keeps
every stencil a branch-free vectorized expression. Two schemes are
provided, both standard in convective-scale models:

* ``ud1`` — first-order upwind (monotone, diffusive; used for
  hydrometeors where positivity matters most);
* ``ud3`` — third-order upwind-biased (Wicker & Skamarock 2002; the
  default for momentum and temperature, matching SCALE-RM's default
  advection order).
"""

from __future__ import annotations

import numpy as np

from ..grid import Grid, periodic_shift

__all__ = ["face_value_x", "face_value_y", "flux_divergence", "mass_divergence"]


def _upwind1_face(s: np.ndarray, flux: np.ndarray, axis: int) -> np.ndarray:
    """First-order upwind face value along ``axis`` (periodic)."""
    s_up = s
    s_dn = periodic_shift(s, -1, axis)
    return np.where(flux >= 0.0, s_up, s_dn)


def _upwind3_face(s: np.ndarray, flux: np.ndarray, axis: int) -> np.ndarray:
    """Third-order upwind-biased face value along ``axis`` (periodic).

    F_{i+1/2} = 7/12 (s_i + s_{i+1}) - 1/12 (s_{i-1} + s_{i+2})
                + sign * 1/12 (3(s_{i+1} - s_i) - (s_{i+2} - s_{i-1}))
    """
    sm1 = periodic_shift(s, 1, axis)
    sp1 = periodic_shift(s, -1, axis)
    sp2 = periodic_shift(s, -2, axis)
    centered = (7.0 * (s + sp1) - (sm1 + sp2)) / 12.0
    upwind = (3.0 * (sp1 - s) - (sp2 - sm1)) / 12.0
    return centered - np.sign(flux) * upwind


_FACE_FUNCS = {"ud1": _upwind1_face, "ud3": _upwind3_face}


def face_value_x(s: np.ndarray, flux: np.ndarray, scheme: str = "ud3") -> np.ndarray:
    """Scalar value at x-faces (i+1/2) for the given mass flux sign."""
    return _FACE_FUNCS[scheme](s, flux, axis=-1)


def face_value_y(s: np.ndarray, flux: np.ndarray, scheme: str = "ud3") -> np.ndarray:
    """Scalar value at y-faces (j+1/2)."""
    return _FACE_FUNCS[scheme](s, flux, axis=-2)


def _vertical_face_value(s: np.ndarray, rhow: np.ndarray, scheme: str) -> np.ndarray:
    """Scalar value at interior z-faces 1..nz-1; shape (..., nz-1, ny, nx).

    The vertical stencil is one-sided near the rigid boundaries and falls
    back to first order there regardless of scheme. Leading (member)
    axes pass through untouched.
    """
    up1 = np.where(rhow[..., 1:-1, :, :] >= 0.0, s[..., :-1, :, :], s[..., 1:, :, :])
    if scheme == "ud1" or s.shape[-3] < 4:
        return up1
    # ud3 on interior faces with full stencil (faces 2..nz-2)
    out = up1.copy()
    sm1 = s[..., :-3, :, :]
    s0 = s[..., 1:-2, :, :]
    sp1 = s[..., 2:-1, :, :]
    sp2 = s[..., 3:, :, :]
    centered = (7.0 * (s0 + sp1) - (sm1 + sp2)) / 12.0
    upwind = (3.0 * (sp1 - s0) - (sp2 - sm1)) / 12.0
    out[..., 1:-1, :, :] = centered - np.sign(rhow[..., 2:-2, :, :]) * upwind
    return out


def flux_divergence(
    grid: Grid,
    rhou: np.ndarray,
    rhov: np.ndarray,
    rhow: np.ndarray,
    s: np.ndarray,
    scheme: str = "ud3",
) -> np.ndarray:
    """Tendency of (rho*s) from advection: -div(F), F = mass flux * s_face.

    Parameters
    ----------
    rhou, rhov:
        Mass fluxes at x-/y-faces, shape (..., nz, ny, nx); leading
        (member) axes broadcast through every stencil.
    rhow:
        Vertical mass flux at z-faces, shape (..., nz+1, ny, nx); the top
        and bottom faces carry zero flux (rigid lid / ground).
    s:
        Cell-centered advected quantity per unit mass.
    """
    fx = rhou * face_value_x(s, rhou, scheme)
    fy = rhov * face_value_y(s, rhov, scheme)
    tend = -(fx - periodic_shift(fx, 1, -1)) / grid.dx
    tend -= (fy - periodic_shift(fy, 1, -2)) / grid.dy

    # vertical: build the face-flux array with zero boundary fluxes
    fz_int = rhow[..., 1:-1, :, :] * _vertical_face_value(s, rhow, scheme)
    dz = grid.dz.astype(s.dtype)[:, None, None]
    # div_z at center k = (F_{k+1/2} - F_{k-1/2}) / dz_k
    tend[..., 0, :, :] -= fz_int[..., 0, :, :] / dz[0]
    tend[..., 1:-1, :, :] -= (fz_int[..., 1:, :, :] - fz_int[..., :-1, :, :]) / dz[1:-1]
    tend[..., -1, :, :] -= -fz_int[..., -1, :, :] / dz[-1]
    return tend


def mass_divergence(grid: Grid, rhou: np.ndarray, rhov: np.ndarray) -> np.ndarray:
    """Horizontal mass-flux divergence (the explicit part of continuity)."""
    div = (rhou - periodic_shift(rhou, 1, -1)) / grid.dx
    div += (rhov - periodic_shift(rhov, 1, -2)) / grid.dy
    return div
