"""The gridded LETKF driver (part <1-1> of the workflow).

Assembles localization stencil, QC, and the batched transform into the
operation "assimilate this cycle's gridded radar observations into this
ensemble". Analysis levels are processed in chunks so peak memory stays
bounded at production-like problem sizes — the Python analog of the
gridpoint distribution across the 8008 part-<1> Fugaku nodes.

Sparsity-aware hot path
-----------------------

Convective radar echoes cover a small fraction of the inner domain, so
most grid points have no local observations and are exact no-ops under
R-localization. The default (``sparse=True``) path therefore

1. gathers only the *validity* masks over the full chunk, derives the
   per-point ``has_obs`` mask, and compacts every downstream array —
   gathers, innovation/perturbation math, eigensolves, and the weight
   application — down to the active points (bit-identical on those
   points; inactive points keep the background untouched, bit-exactly);
2. truncates the observation axis to the largest per-point valid count
   (``obs_compaction``), shrinking the m x No contractions feeding the
   eigensolver (numerically equivalent: only exact-zero contributions
   are removed);
3. runs entirely inside a reused :class:`~repro.letkf.workspace.\
LETKFWorkspace` — padded fields, flat gather indices, and active-row
   scratch are allocated once and reused across chunks and cycles.

``sparse=False`` keeps the pre-optimization dense reference path
(every point eigensolved, identity-filled afterwards), which
``benchmarks/bench_letkf_scaling.py`` times the sparse path against.
"""

from __future__ import annotations

import warnings
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from ..config import LETKFConfig
from ..grid import Grid
from .core import letkf_transform, observation_selection
from .localization import LocalizationStencil, build_stencil
from .qc import GriddedObservations, gross_error_check
from .workspace import LETKFWorkspace

__all__ = ["LETKFSolver", "AnalysisDiagnostics"]


@dataclass
class AnalysisDiagnostics:
    """Per-cycle bookkeeping (feeds the Fig.-5-style monitoring)."""

    n_obs_total: int = 0
    n_obs_used: int = 0
    n_rejected_gross: int = 0
    n_points_updated: int = 0
    n_points_total: int = 0
    spread_before: float = 0.0
    spread_after: float = 0.0
    innovation_rms: dict[str, float] = field(default_factory=dict)
    #: mean/max count of valid local observations over *active* points
    #: (feeds the ``letkf_obs_per_point`` gauge)
    obs_per_point_mean: float = 0.0
    obs_per_point_max: int = 0
    #: configured vs delivered ensemble size; a mismatch is legal
    #: (degraded cycles run on survivor subsets) but is recorded here
    #: and warned about once per solver instead of silently passing
    ensemble_size_expected: int = 0
    ensemble_size_actual: int = 0

    @property
    def active_fraction(self) -> float:
        """Fraction of analysis points with at least one local obs."""
        if self.n_points_total <= 0:
            return 0.0
        return self.n_points_updated / self.n_points_total

    @property
    def ensemble_size_mismatch(self) -> bool:
        return self.ensemble_size_expected != self.ensemble_size_actual

    def summary(self) -> str:
        return (
            f"obs used {self.n_obs_used}/{self.n_obs_total} "
            f"(gross-rejected {self.n_rejected_gross}); "
            f"points updated {self.n_points_updated}/{self.n_points_total} "
            f"(active {self.active_fraction:.1%}); "
            f"spread {self.spread_before:.4g} -> {self.spread_after:.4g}"
        )


class LETKFSolver:
    """LETKF analysis on the model grid with Table-2 configuration."""

    def __init__(self, grid: Grid, config: LETKFConfig, *, profiler=None,
                 precision: str | None = None, transform_runner=None):
        self.grid = grid
        self.config = config
        #: hot-path dtype: the config's dtype unless an explicit
        #: precision mode ("single"/"double", from
        #: :class:`~repro.config.ExecutionConfig`) overrides it
        if precision is not None:
            from ..eigen.batched import PRECISION_DTYPES

            try:
                self.dtype = np.dtype(PRECISION_DTYPES[precision])
            except KeyError:
                raise ValueError(
                    f"unknown precision mode {precision!r}"
                ) from None
        else:
            self.dtype = config.numpy_dtype()
        #: the precision-mode name of :attr:`dtype`; threaded through
        #: :func:`~repro.letkf.core.letkf_transform` down to
        #: :func:`~repro.eigen.batched.eigh_dispatch`, which asserts
        #: the eigenproblems really arrive in this dtype
        from ..eigen.batched import precision_of

        self.precision = precision_of(self.dtype)
        #: optional drop-in replacement for
        #: :func:`~repro.letkf.core.letkf_transform` (same signature);
        #: the ``processes`` backend installs its row-sharded pool
        #: runner here.  ``None`` means call the transform directly.
        self.transform_runner = transform_runner
        #: optional :class:`~repro.telemetry.profile.KernelProfiler`
        #: threaded down to the batched eigensolver
        self.profiler = profiler
        # The per-grid observation cap (Table 2: 1000) is enforced by
        # truncating the stencil to the nearest cells; with two
        # observation types sharing the budget, each type gets half.
        self.stencil: LocalizationStencil = build_stencil(
            grid,
            config.localization_h,
            config.localization_v,
            max_points=max(1, config.max_obs_per_grid // 2),
        )
        # analysis level mask from the Table-2 height range
        zc = grid.z_c
        self.level_mask = (zc >= config.analysis_zmin) & (zc <= config.analysis_zmax)
        #: reusable sparse-path workspace (built lazily on first analyze,
        #: rebuilt only when the ensemble size / obs-type count changes)
        self._workspace: LETKFWorkspace | None = None
        self._warned_ensemble_size = False

    # ------------------------------------------------------------------

    @property
    def stencil_reach_k(self) -> int:
        """Vertical stencil reach in levels (observations this many
        levels outside the analysis range still influence it)."""
        offs = self.stencil.offsets
        return int(np.max(np.abs(offs[:, 0]))) if len(offs) else 0

    def workspace(self, n_members: int, n_types: int, level_chunk: int) -> LETKFWorkspace:
        """The reused workspace for this (ensemble, obs-types) shape."""
        ws = self._workspace
        if ws is None or not ws.matches(
            self.grid, self.stencil, self.dtype, n_members, n_types, level_chunk
        ):
            ws = LETKFWorkspace(
                self.grid, self.stencil, self.dtype,
                n_members=n_members, n_types=n_types, level_chunk=level_chunk,
            )
            self._workspace = ws
        return ws

    # ------------------------------------------------------------------

    def _gather_local(
        self,
        padded: np.ndarray,
        k0: int,
        k1: int,
        pk: int,
        pj: int,
        pi: int,
    ) -> np.ndarray:
        """Gather stencil-local values for analysis levels [k0, k1).

        ``padded`` is the obs-space array padded by (pk, pj, pi) on each
        side (leading axes arbitrary). Returns an array of shape
        (..., n_off, k1-k0, ny, nx) assembled from shifted slices.

        This is the dense reference path; the sparse path replaces it
        with the workspace's precomputed flat gather indices + ``take``.
        """
        g = self.grid
        offs = self.stencil.offsets
        lead = padded.shape[:-3]
        out = np.empty(lead + (len(offs), k1 - k0, g.ny, g.nx), dtype=padded.dtype)
        for o, (dk, dj, di) in enumerate(offs):
            ks = k0 + pk + dk
            js = pj + dj
            isl = pi + di
            out[..., o, :, :, :] = padded[
                ..., ks : ks + (k1 - k0), js : js + g.ny, isl : isl + g.nx
            ]
        return out

    @staticmethod
    def _level_chunks(ana_levels: np.ndarray, level_chunk: int):
        """Yield (k0, k1) contiguous runs of analysis levels."""
        lev_ptr = 0
        while lev_ptr < len(ana_levels):
            k0 = int(ana_levels[lev_ptr])
            k1 = k0
            while (
                lev_ptr < len(ana_levels)
                and int(ana_levels[lev_ptr]) == k1
                and (k1 - k0) < level_chunk
            ):
                k1 += 1
                lev_ptr += 1
            yield k0, k1

    def _probe(self, name: str, nbytes: int):
        prof = self.profiler
        if prof is not None and prof.enabled:
            return prof.profile(name, nbytes)
        return nullcontext()

    # ------------------------------------------------------------------

    def analyze(
        self,
        ensemble: dict[str, np.ndarray],
        observations: list[GriddedObservations],
        hxb: dict[str, np.ndarray],
        *,
        level_chunk: int = 4,
        sparse: bool = True,
        obs_compaction: bool = True,
        obs_budget: int | None = None,
        columns: tuple[int, int] | None = None,
    ) -> tuple[dict[str, np.ndarray], AnalysisDiagnostics]:
        """Assimilate gridded observations into the ensemble.

        Parameters
        ----------
        ensemble:
            Analysis variables, each ``(m, nz, ny, nx)``.
        observations:
            One :class:`GriddedObservations` per type (reflectivity,
            Doppler velocity).
        hxb:
            Background ensemble mapped to observation space by the
            forward operator, keyed by observation kind, each
            ``(m, nz, ny, nx)``.
        level_chunk:
            Analysis levels per batched chunk (memory bound).
        sparse:
            Use the compacted hot path (default). ``False`` runs the
            dense reference path; active-point analyses are
            bit-identical between the two.
        obs_compaction:
            On the sparse path, additionally truncate the observation
            axis per chunk to the largest per-point valid count
            (numerically equivalent, not bit-identical — exact-zero
            contributions are removed but BLAS re-blocks the sums).
        obs_budget:
            Optional hard cap on observations per point applied during
            compaction (keeps each point's highest-weight obs,
            ``argpartition`` selection).
        columns:
            Update only the mesh columns ``[lo, hi)`` (flat ``j * nx +
            i``; sparse path only), the rest keep the background: one
            rank's share of a column-partitioned analysis.  Exact — a
            point's update reads observations, never neighbouring state.

        Returns
        -------
        (analysis, diagnostics):
            New ensemble dict (same shapes) and cycle diagnostics.
        """
        g = self.grid
        cfg = self.config
        var_names = list(ensemble.keys())
        m = ensemble[var_names[0]].shape[0]

        diag = AnalysisDiagnostics()
        n_cols = g.ny * g.nx if columns is None else columns[1] - columns[0]
        diag.n_points_total = int(np.count_nonzero(self.level_mask)) * n_cols
        diag.ensemble_size_expected = cfg.ensemble_size
        diag.ensemble_size_actual = m
        if m != cfg.ensemble_size and not self._warned_ensemble_size:
            # reduced ensembles are legal (degraded cycles run on the
            # surviving subset) but the config contract stays visible
            warnings.warn(
                f"LETKF configured for {cfg.ensemble_size} members but "
                f"received {m}; proceeding with m={m} "
                "(recorded on AnalysisDiagnostics)",
                RuntimeWarning,
                stacklevel=2,
            )
            self._warned_ensemble_size = True

        # ---- QC: gross error check against the background mean ----------
        checked: list[GriddedObservations] = []
        for obs in observations:
            hmean = hxb[obs.hxb_key].mean(axis=0)
            thr = (
                cfg.gross_error_refl_dbz
                if obs.kind == "reflectivity"
                else cfg.gross_error_doppler_ms
            )
            ob2 = gross_error_check(obs, hmean, thr)
            diag.n_rejected_gross += ob2.n_rejected_gross
            diag.n_obs_total += obs.n_valid
            diag.n_obs_used += ob2.n_valid
            dep = ob2.values - hmean
            if ob2.n_valid:
                diag.innovation_rms[obs.kind] = float(
                    np.sqrt(np.mean(dep[ob2.valid] ** 2))
                )
            checked.append(ob2)

        # ---- stack ensemble into (m, nv, nz, ny, nx) ---------------------
        ens_stack = np.stack([ensemble[v] for v in var_names], axis=1).astype(self.dtype)
        xb_mean = ens_stack.mean(axis=0)
        xb_pert = ens_stack - xb_mean
        diag.spread_before = float(
            np.sqrt(np.mean(xb_pert.astype(np.float64) ** 2))  # reprolint: ok DTY001 f64 stats
        )

        analysis = ens_stack.copy()
        ana_levels = np.nonzero(self.level_mask)[0]

        if sparse:
            updated, obs_sum, obs_max = self._analyze_sparse(
                checked, hxb, analysis, xb_mean, xb_pert,
                ana_levels, level_chunk, m, len(var_names),
                obs_compaction, obs_budget, columns,
            )
        elif columns is not None:
            raise ValueError("a column range needs the sparse path")
        else:
            updated, obs_sum, obs_max = self._analyze_dense(
                checked, hxb, analysis, xb_mean, xb_pert,
                ana_levels, level_chunk, m, len(var_names),
            )

        diag.n_points_updated = updated
        diag.obs_per_point_mean = obs_sum / updated if updated else 0.0
        diag.obs_per_point_max = obs_max
        xa_mean = analysis.mean(axis=0)
        diag.spread_after = float(
            np.sqrt(np.mean((analysis.astype(np.float64) - xa_mean) ** 2))  # reprolint: ok DTY001 f64 stats
        )

        out = {}
        for vi, v in enumerate(var_names):
            arr = analysis[:, vi]
            # physical bounds: mixing ratios stay non-negative
            if v.startswith("q"):
                arr = np.maximum(arr, 0.0)
            out[v] = arr
        return out, diag

    # ------------------------------------------------------------------
    # sparse (compacted) hot path
    # ------------------------------------------------------------------

    def _analyze_sparse(
        self,
        checked: list[GriddedObservations],
        hxb: dict[str, np.ndarray],
        analysis: np.ndarray,
        xb_mean: np.ndarray,
        xb_pert: np.ndarray,
        ana_levels: np.ndarray,
        level_chunk: int,
        m: int,
        nv: int,
        obs_compaction: bool,
        obs_budget: int | None,
        columns: tuple[int, int] | None,
    ) -> tuple[int, int, int]:
        """Compacted chunk loop; returns (updated, obs_sum, obs_max)."""
        g = self.grid
        cfg = self.config
        ws = self.workspace(m, len(checked), level_chunk)
        ws.load(checked, hxb)
        no_total = ws.no_total
        itemsize = self.dtype.itemsize

        updated = 0
        obs_sum = 0
        obs_max = 0
        for k0, k1 in self._level_chunks(ana_levels, level_chunk):
            nk = k1 - k0
            G = nk * g.ny * g.nx

            # -- activity mask from the validity gather alone ------------
            idx = ws.chunk_indices(k0, G)
            v_full = np.take(ws.padded_valid, idx, out=ws.valid_chunk[:G])
            has_obs = np.any(v_full, axis=1, out=ws.has_obs[:G])
            if columns is not None:
                # everything downstream is compacted to the active
                # rows, so this confines the chunk to those columns
                per_level = has_obs.reshape(nk, g.ny * g.nx)
                per_level[:, : columns[0]] = False
                per_level[:, columns[1] :] = False
            active = np.flatnonzero(has_obs)
            n_act = int(active.size)
            if n_act == 0:
                continue
            updated += n_act

            # -- compact gathers down to active rows ---------------------
            ws.rows(n_act)
            with self._probe(
                "letkf_gather",
                idx.nbytes + v_full.nbytes + n_act * no_total * (m + 2) * itemsize,
            ):
                vact = np.take(v_full, active, axis=0, out=ws.vact[:n_act])
                iact = np.take(idx, active, axis=0, out=ws.iact[:n_act])

                counts = np.count_nonzero(vact, axis=1)
                obs_sum += int(counts.sum())
                obs_max = max(obs_max, int(counts.max(initial=0)))

                sel = None
                K = no_total
                if obs_compaction:
                    picked = observation_selection(
                        vact, ws.weight_row, obs_budget=obs_budget
                    )
                    if picked is not None:
                        sel, K = picked
                if sel is not None:
                    iact = np.take_along_axis(iact, sel, axis=1)
                    vsel = np.take_along_axis(vact, sel, axis=1)
                    w_sel = np.where(vsel, ws.weight_row[sel], self.dtype.type(0))
                else:
                    vsel = vact
                    w_sel = np.broadcast_to(ws.weight_row, (n_act, K))

                y = np.take(ws.padded_y, iact, out=ws.y[:n_act, :K])
                h = np.take(ws.padded_h, iact, axis=0, out=ws.dyb[:n_act, :K, :])
                # mean over members by sequential accumulation: bit-matches
                # the dense path's strided-axis reduction (a contiguous-axis
                # mean would re-group the partial sums and break the
                # bit-identity guarantee)
                hmean = ws.hmean[:n_act, :K]
                np.copyto(hmean, h[:, :, 0])
                for kk in range(1, m):
                    hmean += h[:, :, kk]
                hmean /= m
                dYb = np.subtract(h, hmean[:, :, None], out=h)
                d = np.subtract(y, hmean, out=ws.d[:n_act, :K])
                rinv = np.multiply(w_sel, vsel, out=ws.rinv[:n_act, :K])

            transform = self.transform_runner or letkf_transform
            W = transform(
                dYb,
                d,
                rinv,
                backend=cfg.eigensolver,
                rtpp_factor=cfg.rtpp_factor,
                profiler=self.profiler,
                assume_active=True,
                precision=self.precision,
            )

            # -- apply weights at active points, scatter back ------------
            with self._probe(
                "letkf_apply", n_act * nv * m * itemsize + W.nbytes
            ):
                # pert_act is a transposed view of the fancy-index copy —
                # the same member-major base layout the dense path's apply
                # step produces, so the weight application contracts its
                # sums identically on both paths
                pert_act = (
                    xb_pert[:, :, k0:k1].reshape(m, nv, G)[:, :, active]
                    .transpose(2, 1, 0)
                )
                xa_pert = np.einsum("gvm,gmn->gvn", pert_act, W)  # reprolint: ok LAY001 member-major layout shared with dense path
                mean_act = xb_mean[:, k0:k1].reshape(nv, G)[:, active].T
                xa = mean_act[:, :, None] + xa_pert
                flat = analysis[:, :, k0:k1].reshape(m, nv, G)
                flat[:, :, active] = xa.transpose(2, 1, 0)
                if flat.base is None:  # pragma: no cover - defensive
                    analysis[:, :, k0:k1] = flat.reshape(m, nv, nk, g.ny, g.nx)

        return updated, obs_sum, obs_max

    # ------------------------------------------------------------------
    # dense reference path (pre-optimization)
    # ------------------------------------------------------------------

    def _analyze_dense(
        self,
        checked: list[GriddedObservations],
        hxb: dict[str, np.ndarray],
        analysis: np.ndarray,
        xb_mean: np.ndarray,
        xb_pert: np.ndarray,
        ana_levels: np.ndarray,
        level_chunk: int,
        m: int,
        nv: int,
    ) -> tuple[int, int, int]:
        """Dense chunk loop; returns (updated, obs_sum, obs_max)."""
        g = self.grid
        cfg = self.config

        # ---- pad observation-space arrays once --------------------------
        offs = self.stencil.offsets
        pk = int(np.max(np.abs(offs[:, 0]))) if len(offs) else 0
        pj = int(np.max(np.abs(offs[:, 1]))) if len(offs) else 0
        pi = int(np.max(np.abs(offs[:, 2]))) if len(offs) else 0
        pad3 = ((pk, pk), (pj, pj), (pi, pi))

        padded_y = []
        padded_valid = []
        padded_h = []
        for obs in checked:
            padded_y.append(np.pad(obs.values.astype(self.dtype), pad3))
            padded_valid.append(np.pad(obs.valid, pad3, constant_values=False))
            padded_h.append(
                np.pad(hxb[obs.hxb_key].astype(self.dtype), ((0, 0),) + pad3)
            )

        # stencil weights / observation errors, one block per type
        w_stencil = self.stencil.weights.astype(self.dtype)
        rinv_blocks = [
            w_stencil / self.dtype.type(obs.error_std) ** 2 for obs in checked
        ]

        updated = 0
        obs_sum = 0
        obs_max = 0
        for k0, k1 in self._level_chunks(ana_levels, level_chunk):
            nk = k1 - k0
            G = nk * g.ny * g.nx

            dYb_parts = []
            d_parts = []
            rinv_parts = []
            for t in range(len(checked)):
                y_loc = self._gather_local(padded_y[t], k0, k1, pk, pj, pi)
                v_loc = self._gather_local(padded_valid[t], k0, k1, pk, pj, pi)
                h_loc = self._gather_local(padded_h[t], k0, k1, pk, pj, pi)
                no = y_loc.shape[0]
                # reshape to (G, No) / (m, G, No)
                y_flat = y_loc.reshape(no, G).T
                v_flat = v_loc.reshape(no, G).T
                h_flat = h_loc.reshape(len(h_loc), no, G).transpose(2, 1, 0)
                h_mean = h_flat.mean(axis=2)
                dYb_parts.append(h_flat - h_mean[:, :, None])
                d_parts.append(y_flat - h_mean)
                rw = np.broadcast_to(rinv_blocks[t], (G, no)).copy()
                rw[~v_flat] = 0.0
                rinv_parts.append(rw)

            dYb = np.concatenate(dYb_parts, axis=1)
            d = np.concatenate(d_parts, axis=1)
            rinv = np.concatenate(rinv_parts, axis=1)

            has_obs = np.any(rinv > 0.0, axis=1)
            n_act = int(np.count_nonzero(has_obs))
            updated += n_act
            if n_act == 0:
                continue
            counts = np.count_nonzero(rinv > 0.0, axis=1)[has_obs]
            obs_sum += int(counts.sum())
            obs_max = max(obs_max, int(counts.max(initial=0)))

            # the solver derived the mask already; pass it down instead
            # of letting the transform recompute it
            W = letkf_transform(
                dYb,
                d,
                rinv,
                backend=cfg.eigensolver,
                rtpp_factor=cfg.rtpp_factor,
                profiler=self.profiler,
                has_obs=has_obs,
                precision=self.precision,
            )

            # apply weights to every analysis variable in the chunk
            pert = xb_pert[:, :, k0:k1].reshape(m, nv, G)
            pert = pert.transpose(2, 1, 0)  # (G, nv, m)
            xa_pert = np.einsum("gvm,gmn->gvn", pert, W)  # reprolint: ok LAY001 member-major layout shared with sparse path
            xa = xb_mean[:, k0:k1].reshape(nv, G).T[:, :, None] + xa_pert
            analysis[:, :, k0:k1] = (
                xa.transpose(2, 1, 0).reshape(m, nv, nk, g.ny, g.nx)
            )

        return updated, obs_sum, obs_max
