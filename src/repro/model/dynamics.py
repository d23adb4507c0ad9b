"""HEVI (horizontally explicit, vertically implicit) dynamical core.

Table 3 of the paper lists SCALE's integration type as "Hybrid (explicit
in the horizontal, implicit in the vertical)"; this module implements the
same splitting for a quasi-compressible system linearized about the
hydrostatic reference state:

.. math::

    \\partial_t W      &= -c_f \\partial_z (\\rho\\theta)' - g \\rho' + E_W \\\\
    \\partial_t \\rho'  &= -\\partial_z W + E_\\rho \\\\
    \\partial_t (\\rho\\theta)' &= -\\partial_z (W \\theta_{0,f}) + E_\\theta

with :math:`c_f = (\\partial p/\\partial(\\rho\\theta))_0` at z-faces and
all remaining (advective, horizontal, physics) terms collected in the
explicit forcings :math:`E`. Backward-Euler elimination of
:math:`\\rho'^{+}` and :math:`(\\rho\\theta)'^{+}` yields one tridiagonal
system per column for :math:`W^{+}`.

Because the reference state is horizontally uniform, the tridiagonal
matrix is *identical for every column*: its Thomas factorization is
computed once per (dt) and the solve reduces to two vectorized sweeps
over ``(ny, nx)`` planes — the Python analog of the batched vertical
solvers in SCALE's Fortran HEVI core.

Time integration uses the Wicker–Skamarock three-stage Runge–Kutta that
SCALE-RM also employs, with the implicit vertical treatment applied at
every stage.
"""

from __future__ import annotations

import numpy as np

from ..config import ScaleConfig
from ..constants import GRAV
from ..grid import Grid, periodic_shift
from .advection import flux_divergence, mass_divergence
from .reference import ReferenceState
from .state import HYDROMETEORS, ModelState, WATER_SPECIES

__all__ = ["HEVIDynamics", "TridiagonalFactors"]


class TridiagonalFactors:
    """Pre-factorized constant-coefficient tridiagonal system.

    Stores the Thomas-algorithm forward-elimination coefficients for a
    system whose (sub/diag/super) bands are 1-D in k; ``solve`` sweeps an
    RHS of shape ``(n, ny, nx)`` fully vectorized over the trailing axes.
    """

    def __init__(self, sub: np.ndarray, diag: np.ndarray, sup: np.ndarray):
        n = diag.shape[0]
        if sub.shape[0] != n or sup.shape[0] != n:
            raise ValueError("band length mismatch")
        self.n = n
        self.sub = np.asarray(sub, dtype=np.float64)
        cp = np.empty(n)
        inv = np.empty(n)
        if abs(diag[0]) < 1e-300:
            raise np.linalg.LinAlgError("singular tridiagonal system")
        inv[0] = 1.0 / diag[0]
        cp[0] = sup[0] * inv[0]
        for k in range(1, n):
            denom = diag[k] - sub[k] * cp[k - 1]
            if abs(denom) < 1e-300:
                raise np.linalg.LinAlgError("singular tridiagonal system")
            inv[k] = 1.0 / denom
            cp[k] = sup[k] * inv[k]
        self.cp = cp
        self.inv = inv

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve for all columns; ``rhs`` is (..., n, ny, nx), not modified.

        Leading (member) axes vectorize through the sweeps, so one call
        solves every column of every ensemble member.
        """
        n = self.n
        out = np.empty_like(rhs)
        out[..., 0, :, :] = rhs[..., 0, :, :] * self.inv[0]
        for k in range(1, n):
            out[..., k, :, :] = (
                rhs[..., k, :, :] - self.sub[k] * out[..., k - 1, :, :]
            ) * self.inv[k]
        for k in range(n - 2, -1, -1):
            out[..., k, :, :] -= self.cp[k] * out[..., k + 1, :, :]
        return out


class HEVIDynamics:
    """The dynamical core: one object per (grid, reference, config)."""

    def __init__(self, grid: Grid, reference: ReferenceState, config: ScaleConfig):
        self.grid = grid
        self.ref = reference
        self.config = config
        #: optional :class:`~repro.telemetry.profile.KernelProfiler`;
        #: attached by ``Telemetry.instrument_model``, ``None`` by default
        self.profiler = None
        self._factors: dict[float, TridiagonalFactors] = {}
        g = grid
        # reference profiles broadcast once (in model dtype for hot loops)
        self._dens0 = reference.dens_c[:, None, None].astype(g.dtype)
        self._dens0_f = reference.dens_f[:, None, None].astype(g.dtype)
        self._theta0 = reference.theta_c[:, None, None].astype(g.dtype)
        self._theta0_f = reference.theta_f.astype(np.float64)  # 1-D, used in bands
        self._qv0 = reference.qv_c[:, None, None].astype(g.dtype)
        self._dpdrt_c = reference.dpdrt_c[:, None, None].astype(g.dtype)
        self._dpdrt_f1d = reference.dpdrt_f.astype(np.float64)
        # Rayleigh sponge rate profile on faces (damps W near the lid)
        z_f = g.z_f
        zs = g.domain.ztop - config.sponge_depth
        frac = np.clip((z_f - zs) / max(config.sponge_depth, 1.0), 0.0, 1.0)
        self._sponge_f = (0.05 * np.sin(0.5 * np.pi * frac) ** 2).astype(g.dtype)[:, None, None]
        # layer thicknesses in model dtype, and the distance between the
        # cell centers either side of each z-face (ends repeat a neighbour)
        self._dz = g.dz.astype(g.dtype)[:, None, None]
        self._dzf = np.empty(g.nz + 1)
        self._dzf[1:-1] = g.z_c[1:] - g.z_c[:-1]
        self._dzf[0] = self._dzf[1]
        self._dzf[-1] = self._dzf[-2]
        #: fastest reference sound speed [m/s]
        self._cs_max = np.sqrt(np.max(reference.cs2_c))

    # ------------------------------------------------------------------
    # implicit vertical operator
    # ------------------------------------------------------------------

    def _build_factors(self, dt: float) -> TridiagonalFactors:
        """Tridiagonal bands for the W^{+} Helmholtz problem at interior faces."""
        g = self.grid
        nz = g.nz
        dz = g.dz  # (nz,) center thicknesses == face-flux denominators
        dzf = self._dzf
        thf = self._theta0_f
        c_f = self._dpdrt_f1d
        dt2 = dt * dt

        n = nz - 1  # interior faces k = 1..nz-1
        sub = np.zeros(n)
        diag = np.ones(n)
        sup = np.zeros(n)
        for m in range(n):
            k = m + 1  # face index
            # -dt^2 c_k d/dz [ d(W theta_f)/dz ]  (W_{k-1}, W_k, W_{k+1});
            # the operator adds a positive-definite Helmholtz term.
            a = dt2 * c_f[k] / dzf[k]
            sub[m] += -a * thf[k - 1] / dz[k - 1]
            diag[m] += a * thf[k] * (1.0 / dz[k] + 1.0 / dz[k - 1])
            sup[m] += -a * thf[k + 1] / dz[k]
            # -dt^2 g (dW/dz averaged to face k)
            b = -dt2 * GRAV * 0.5
            sup[m] += b / dz[k]
            diag[m] += b * (-1.0 / dz[k] + 1.0 / dz[k - 1])
            sub[m] += -b / dz[k - 1]
        return TridiagonalFactors(sub, diag, sup)

    def _factors_for(self, dt: float) -> TridiagonalFactors:
        key = round(float(dt), 9)
        f = self._factors.get(key)
        if f is None:
            f = self._build_factors(dt)
            self._factors[key] = f
        return f

    # ------------------------------------------------------------------
    # explicit tendencies
    # ------------------------------------------------------------------

    def explicit_tendencies(self, state: ModelState) -> dict[str, np.ndarray]:
        """All horizontally-explicit tendencies at the given state."""
        g = self.grid
        cfg = self.config
        f = state.fields
        dens = np.maximum(self._dens0 + f["dens_p"], 1e-6).astype(g.dtype)
        inv_dens = 1.0 / dens
        u = f["momx"] * inv_dens
        v = f["momy"] * inv_dens
        momz = f["momz"]
        w_c = 0.5 * (momz[..., 1:, :, :] + momz[..., :-1, :, :]) * inv_dens
        theta = (self._theta0 * self._dens0 + f["rhot_p"]) * inv_dens

        rhou, rhov, rhow = f["momx"], f["momy"], f["momz"]
        # linearized pressure perturbation
        p_p = self._dpdrt_c * f["rhot_p"]

        tends: dict[str, np.ndarray] = {}

        # --- momentum ---------------------------------------------------
        t_mx = flux_divergence(g, rhou, rhov, rhow, u)
        t_mx -= (periodic_shift(p_p, -1, -1) - p_p) / g.dx  # gradient at x-face
        t_my = flux_divergence(g, rhou, rhov, rhow, v)
        t_my -= (periodic_shift(p_p, -1, -2) - p_p) / g.dy

        # horizontal mass divergence: the damping below and dens_p share it
        div_h = mass_divergence(g, rhou, rhov)

        # divergence damping (acoustic filter): tend += nu * grad(div),
        # nu scaled by the sound speed and mesh (Skamarock & Klemp 1992)
        if cfg.divergence_damping > 0.0:
            dwdz = (momz[..., 1:, :, :] - momz[..., :-1, :, :]) / self._dz
            div = div_h + dwdz
            nu = g.dtype.type(cfg.divergence_damping * self._cs_max)
            t_mx += nu * (periodic_shift(div, -1, -1) - div)  # nu*dx * ddx(div)
            t_my += nu * (periodic_shift(div, -1, -2) - div)

        tends["momx"] = t_mx
        tends["momy"] = t_my

        # --- vertical momentum (computed at centers, lifted to faces) ---
        t_wc = flux_divergence(g, rhou, rhov, rhow, w_c)
        # moist buoyancy beyond the dry rho' term: vapor lightening and
        # hydrometeor loading
        q_hyd = f["qc"] + f["qr"] + f["qi"] + f["qs"] + f["qg"]
        buoy_c = GRAV * self._dens0 * (0.608 * (f["qv"] - self._qv0) - q_hyd)
        t_wc += buoy_c
        t_wf = np.zeros_like(momz)
        t_wf[..., 1:-1, :, :] = 0.5 * (t_wc[..., 1:, :, :] + t_wc[..., :-1, :, :])
        # Rayleigh sponge near the lid
        t_wf -= self._sponge_f * momz
        tends["momz"] = t_wf

        # --- mass (horizontal part only; vertical handled implicitly) ---
        tends["dens_p"] = -div_h

        # --- rho*theta: horizontal advection + explicit vertical
        #     advection of the *perturbation* theta (the theta0 part is
        #     implicit)
        theta_p = theta - self._theta0
        t_rt = flux_divergence(g, rhou, rhov, rhow * 0.0, theta)
        # vertical flux of theta' with time-n W (first-order upwind)
        thp_face = np.where(
            momz[..., 1:-1, :, :] >= 0.0,
            theta_p[..., :-1, :, :],
            theta_p[..., 1:, :, :],
        )
        fz = momz[..., 1:-1, :, :] * thp_face
        dz = self._dz
        t_rt[..., 0, :, :] -= fz[..., 0, :, :] / dz[0]
        t_rt[..., 1:-1, :, :] -= (fz[..., 1:, :, :] - fz[..., :-1, :, :]) / dz[1:-1]
        t_rt[..., -1, :, :] += fz[..., -1, :, :] / dz[-1]
        tends["rhot_p"] = t_rt

        # --- water species (full flux-form; ud1 keeps hydrometeors
        #     positive under the horizontal CFL) --------------------------
        for q in WATER_SPECIES:
            scheme = "ud1" if q in HYDROMETEORS else "ud3"
            tends[q] = flux_divergence(g, rhou, rhov, rhow, f[q], scheme=scheme)
        return tends

    # ------------------------------------------------------------------
    # one HEVI substage
    # ------------------------------------------------------------------

    def substage(self, base: ModelState, evaluate: ModelState, dt: float) -> ModelState:
        """Advance ``base`` by ``dt`` using tendencies evaluated at ``evaluate``.

        This is one stage of the Wicker–Skamarock RK3: explicit terms come
        from ``evaluate``; the vertical acoustic terms are treated
        backward-Euler over the stage.
        """
        g = self.grid
        ref = self.ref
        E = self.explicit_tendencies(evaluate)
        fb = base.fields
        fa = {k: v for k, v in fb.items()}  # views; new arrays assigned below

        dz = g.dz[:, None, None]
        dzf = self._dzf

        # provisional (explicit-only) center quantities, float64 for the solve
        rhot_star = fb["rhot_p"].astype(np.float64) + dt * E["rhot_p"].astype(np.float64)
        dens_star = fb["dens_p"].astype(np.float64) + dt * E["dens_p"].astype(np.float64)

        # RHS at interior faces k=1..nz-1
        c_f = ref.dpdrt_f
        drt_dz = (rhot_star[..., 1:, :, :] - rhot_star[..., :-1, :, :]) / dzf[1:-1, None, None]
        dens_f = 0.5 * (dens_star[..., 1:, :, :] + dens_star[..., :-1, :, :])
        rhs = (
            fb["momz"][..., 1:-1, :, :].astype(np.float64)
            + dt * E["momz"][..., 1:-1, :, :].astype(np.float64)
            - dt * c_f[1:-1, None, None] * drt_dz
            - dt * GRAV * dens_f
        )
        w_new_int = self._factors_for(dt).solve(rhs)

        momz_new = np.zeros_like(fb["momz"], dtype=np.float64)
        momz_new[..., 1:-1, :, :] = w_new_int

        # back-substitute the implicit continuity / thermodynamic updates
        dwdz = (momz_new[..., 1:, :, :] - momz_new[..., :-1, :, :]) / dz
        dens_new = dens_star - dt * dwdz
        thf = ref.theta_f[:, None, None]
        dwt_dz = (
            momz_new[..., 1:, :, :] * thf[1:] - momz_new[..., :-1, :, :] * thf[:-1]
        ) / dz
        rhot_new = rhot_star - dt * dwt_dz

        out = base.blank_like(base.time + dt)
        dtp = g.dtype
        out.fields["momx"] = (fb["momx"].astype(np.float64) + dt * E["momx"]).astype(dtp)
        out.fields["momy"] = (fb["momy"].astype(np.float64) + dt * E["momy"]).astype(dtp)
        out.fields["momz"] = momz_new.astype(dtp)
        out.fields["dens_p"] = dens_new.astype(dtp)
        out.fields["rhot_p"] = rhot_new.astype(dtp)

        # water species: rho*q update then back to mixing ratio
        dens0 = ref.dens_c[:, None, None]
        dens_old = dens0 + fb["dens_p"].astype(np.float64)
        dens_full_new = np.maximum(dens0 + dens_new, 1e-6)
        for q in WATER_SPECIES:
            rq = dens_old * fb[q].astype(np.float64) + dt * E[q].astype(np.float64)
            out.fields[q] = np.maximum(rq / dens_full_new, 0.0).astype(dtp)
        return out

    def step(self, state: ModelState, dt: float) -> ModelState:
        """One full Wicker–Skamarock RK3 step of length ``dt``."""
        prof = self.profiler
        if prof is not None and prof.enabled:
            nbytes = sum(a.nbytes for a in state.fields.values())
            with prof.profile("hevi_dycore", nbytes=nbytes):
                s1 = self.substage(state, state, dt / 3.0)
                s2 = self.substage(state, s1, dt / 2.0)
                return self.substage(state, s2, dt)
        s1 = self.substage(state, state, dt / 3.0)
        s2 = self.substage(state, s1, dt / 2.0)
        s3 = self.substage(state, s2, dt)
        return s3

    def max_horizontal_cfl(self, state: ModelState, dt: float) -> float:
        """Diagnostic: max acoustic+advective horizontal CFL for ``dt``."""
        u, v, _ = state.velocities()
        cs = self._cs_max
        return float(dt * ((np.max(np.abs(u)) + cs) / self.grid.dx + (np.max(np.abs(v)) + cs) / self.grid.dy))
