"""The distributed LETKF: part <1-1> as it actually runs on the nodes.

In the production SCALE-LETKF, each of the 8008 part-<1> nodes holds a
few ensemble members' full fields after the 30-s forecasts (<1-2>); the
LETKF needs all members of each grid point. The single-executable
design transposes the ensemble through MPI RAM copies, runs each node's
grid-point batch, and transposes back (Sec. 5).

This module reproduces that execution shape on the virtual MPI:

1. the analysis variables are flattened to (m, npoints) and transposed
   member-major -> gridpoint-shard via :class:`ParallelTransport` (or
   :class:`FileTransport` for the pre-innovation baseline);
2. each virtual rank analyses the mesh columns it owns, by calling
   ``LETKFSolver.analyze(..., columns=(lo, hi))`` — the one LETKF chunk
   kernel (:mod:`repro.letkf.solver`), column-partitioned here where
   the process pool row-partitions it
   (:meth:`~repro.core.backends.ProcessesBackend.letkf_runner`);
3. shards are gathered back and unpacked.

The result is bit-identical to the serial solver with
``obs_compaction=False`` (asserted in the tests), and the returned
report carries the measured + simulated communication costs, so the I/O
ablation can be run end-to-end through a real analysis rather than a
bare transpose.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..config import LETKFConfig
from ..grid import Grid
from ..letkf.qc import GriddedObservations
from ..letkf.solver import LETKFSolver
from .datatransfer import (
    FileTransport,
    ParallelTransport,
    TransferReport,
    _split_bounds,
)

__all__ = ["DistributedLETKF", "DistributedReport"]


@dataclass
class DistributedReport:
    """Communication + compute accounting for one distributed analysis."""

    n_ranks: int
    forward: TransferReport
    backward: TransferReport
    points_per_rank: list[int]

    @property
    def total_bytes(self) -> int:
        return self.forward.bytes_moved + self.backward.bytes_moved

    @property
    def simulated_comm_seconds(self) -> float:
        return self.forward.simulated_seconds + self.backward.simulated_seconds


class DistributedLETKF:
    """LETKF analysis executed over virtual ranks with explicit transposes."""

    def __init__(
        self,
        grid: Grid,
        config: LETKFConfig,
        *,
        n_ranks: int = 8,
        transport: str = "parallel",
        workdir: str | None = None,
    ):
        self.grid = grid
        self.config = config
        self.n_ranks = n_ranks
        if transport == "parallel":
            self.transport = ParallelTransport()
        elif transport == "file":
            self.transport = FileTransport(workdir=workdir)
        else:
            raise ValueError(f"unknown transport {transport!r}")
        #: the one solver every rank runs, on its own column range
        self.solver = LETKFSolver(grid, config)

    # ------------------------------------------------------------------

    def analyze(
        self,
        ensemble: dict[str, np.ndarray],
        observations: list[GriddedObservations],
        hxb: dict[str, np.ndarray],
    ) -> tuple[dict[str, np.ndarray], DistributedReport]:
        """Distributed analysis; same contract as LETKFSolver.analyze.

        The gridpoint dimension distributed over ranks is the analysis
        *column* (j, i): every rank gets whole columns, which keeps the
        vertical localization stencil local to the rank exactly as the
        production decomposition does.
        """
        g = self.grid
        var_names = list(ensemble.keys())
        m = ensemble[var_names[0]].shape[0]
        nv = len(var_names)

        # ---- forward transpose: member-major -> column shards ----------
        ens_stack = np.stack([ensemble[v] for v in var_names], axis=1)
        flat = np.ascontiguousarray(
            ens_stack.reshape(m, nv * g.nz, g.ny * g.nx)
            .transpose(0, 2, 1)
            .reshape(m, g.ny * g.nx * nv * g.nz)
        )
        # each atomic "point" in the transpose is one column's full
        # state — the granularity keeps whole columns on one rank
        col_size = nv * g.nz
        shards, fwd_report = self.transport.transpose(
            flat, self.n_ranks, granularity=col_size
        )
        # column counts per rank from the same aligned split
        bounds = _split_bounds(
            g.ny * g.nx * col_size, self.n_ranks, col_size
        ) // col_size

        # ---- per-rank analyses -------------------------------------------
        out_shards: list[np.ndarray] = []
        points_per_rank: list[int] = []
        for r in range(self.n_ranks):
            lo, hi = int(bounds[r]), int(bounds[r + 1])
            points_per_rank.append(hi - lo)
            if hi == lo:
                out_shards.append(shards[r].reshape(m, -1))
                continue
            # lay the rank's columns out on the solver's mesh; the rest
            # stays zero and is never updated or read back (observations
            # and hxb are replicated, as in the production code)
            mesh = np.zeros((m, nv, g.nz, g.ny * g.nx), dtype=flat.dtype)
            mesh[..., lo:hi] = (
                shards[r].reshape(m, hi - lo, nv, g.nz).transpose(0, 2, 3, 1)
            )
            ana, _ = self.solver.analyze(
                {v: mesh[:, vi].reshape(m, g.nz, g.ny, g.nx)
                 for vi, v in enumerate(var_names)},
                observations, hxb, obs_compaction=False, columns=(lo, hi),
            )
            cols = np.stack(
                [ana[v].reshape(m, g.nz, -1)[..., lo:hi] for v in var_names],
                axis=1,
            )
            out_shards.append(cols.transpose(0, 3, 1, 2).reshape(m, -1))

        # ---- backward transpose: shards -> member-major ------------------
        # (transpose the concatenated shards back; same transport)
        merged = np.concatenate(out_shards, axis=1)
        back_shards, bwd_report = self.transport.transpose(
            merged, self.n_ranks, granularity=col_size
        )
        merged_back = np.concatenate(back_shards, axis=1)

        ana_stack = (
            merged_back.reshape(m, g.ny * g.nx, nv * g.nz)
            .transpose(0, 2, 1)
            .reshape(m, nv, g.nz, g.ny, g.nx)
        )
        # (mixing ratios were already clipped to >= 0 by each rank's solve)
        out = {
            v: np.ascontiguousarray(ana_stack[:, vi])
            for vi, v in enumerate(var_names)
        }

        report = DistributedReport(
            n_ranks=self.n_ranks,
            forward=fwd_report,
            backward=bwd_report,
            points_per_rank=points_per_rank,
        )
        return out, report
