"""The distributed LETKF vs the serial solver (must agree)."""

import numpy as np
import pytest
from scipy.ndimage import gaussian_filter

from repro.comm.parallel_letkf import DistributedLETKF
from repro.config import LETKFConfig, reduced_inner_domain
from repro.grid import Grid
from repro.letkf import LETKFSolver, letkf_transform
from repro.letkf.qc import GriddedObservations


@pytest.fixture(scope="module")
def case():
    grid = Grid(reduced_inner_domain(nx=12, nz=8))
    cfg = LETKFConfig(
        ensemble_size=10,
        localization_h=9000.0,
        localization_v=3000.0,
        analysis_zmin=0.0,
        analysis_zmax=20000.0,
        eigensolver="lapack",
    )
    rng = np.random.default_rng(3)

    def smooth(std):
        f = gaussian_filter(rng.normal(size=grid.shape), sigma=(1, 2, 2))
        return (f / f.std() * std).astype(np.float32)

    truth = smooth(8.0) + 20
    ens_x = np.stack([truth + smooth(6.0) + 2 for _ in range(10)])
    ens_q = np.abs(ens_x) * 1e-4
    obs = GriddedObservations(
        kind="reflectivity",
        values=truth + rng.normal(size=grid.shape).astype(np.float32),
        valid=np.ones(grid.shape, bool),
        error_std=1.0,
    )
    hxb = {"reflectivity": ens_x.copy()}
    return grid, cfg, truth, {"x": ens_x, "qv": ens_q}, [obs], hxb


class TestDistributedMatchesSerial:
    @pytest.mark.parametrize("n_ranks, hooked", [
        pytest.param(1, False, id="1"),
        pytest.param(3, False, id="3"),
        pytest.param(8, False, id="8"),
        pytest.param(3, True, id="3-transform_runner"),
    ])
    def test_parallel_transport(self, case, n_ranks, hooked):
        grid, cfg, truth, ens, obs, hxb = case
        serial, _ = LETKFSolver(grid, cfg).analyze(
            {k: v.copy() for k, v in ens.items()}, [o.copy() for o in obs], hxb
        )
        dist = DistributedLETKF(grid, cfg, n_ranks=n_ranks)
        calls = []
        if hooked:
            # the ranks run the solver's own chunk kernel, so its
            # transform hook sees every rank's transform
            def runner(dYb, d, rinv, **kw):
                calls.append(dYb.shape[0])
                return letkf_transform(dYb, d, rinv, **kw)

            dist.solver.transform_runner = runner
        parallel, report = dist.analyze(
            {k: v.copy() for k, v in ens.items()}, [o.copy() for o in obs], hxb
        )
        if hooked:
            assert len(calls) >= sum(1 for n in report.points_per_rank if n)
        for v in ens:
            assert np.allclose(serial[v], parallel[v], atol=5e-3), v
        assert report.n_ranks == n_ranks
        assert sum(report.points_per_rank) == grid.ny * grid.nx

    def test_file_transport(self, case, tmp_path):
        grid, cfg, truth, ens, obs, hxb = case
        dist_p = DistributedLETKF(grid, cfg, n_ranks=4)
        dist_f = DistributedLETKF(grid, cfg, n_ranks=4, transport="file", workdir=str(tmp_path))
        a_p, rep_p = dist_p.analyze(
            {k: v.copy() for k, v in ens.items()}, [o.copy() for o in obs], hxb
        )
        a_f, rep_f = dist_f.analyze(
            {k: v.copy() for k, v in ens.items()}, [o.copy() for o in obs], hxb
        )
        for v in ens:
            assert np.allclose(a_p[v], a_f[v], atol=1e-6)
        # the paper's claim end-to-end: the file path costs more
        assert rep_p.simulated_comm_seconds < rep_f.simulated_comm_seconds

    def test_unknown_transport(self, case):
        grid, cfg, *_ = case
        with pytest.raises(ValueError):
            DistributedLETKF(grid, cfg, transport="carrier-pigeon")

    def test_moisture_clipped(self, case):
        grid, cfg, truth, ens, obs, hxb = case
        dist = DistributedLETKF(grid, cfg, n_ranks=4)
        ana, _ = dist.analyze(
            {k: v.copy() for k, v in ens.items()}, [o.copy() for o in obs], hxb
        )
        assert np.all(ana["qv"] >= 0.0)

    def test_error_reduction_preserved(self, case):
        grid, cfg, truth, ens, obs, hxb = case
        dist = DistributedLETKF(grid, cfg, n_ranks=4)
        ana, _ = dist.analyze(
            {k: v.copy() for k, v in ens.items()}, [o.copy() for o in obs], hxb
        )
        prior = np.sqrt(np.mean((ens["x"].mean(0) - truth) ** 2))
        post = np.sqrt(np.mean((ana["x"].mean(0) - truth) ** 2))
        assert post < 0.6 * prior

    def test_comm_bytes_scale_with_ensemble(self, case):
        grid, cfg, truth, ens, obs, hxb = case
        dist = DistributedLETKF(grid, cfg, n_ranks=4)
        _, report = dist.analyze(
            {k: v.copy() for k, v in ens.items()}, [o.copy() for o in obs], hxb
        )
        # forward + backward, each moving the (m, nv, grid) state minus
        # the blocks that stay on their own rank
        full = 2 * ens["x"].size * len(ens) * 4
        assert 0.5 * full < report.total_bytes <= full