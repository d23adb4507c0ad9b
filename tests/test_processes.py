"""The multiprocess execution backend and its shared-memory slabs.

Contracts under test, in dependency order:

* :mod:`repro.model.shm` — slab create/attach/load round-trips are
  bit-identical, views write through, close unlinks (the autouse
  conftest fixture fails any test that leaks a segment);
* :class:`~repro.core.backends.ProcessesBackend` — member-block
  forecasts and the row-sharded LETKF transform are bit-identical to
  the in-process backends, under both start methods, across worker
  crashes (both ops), and composed under ``sharded``;
* ``precision`` — the single/double mode threads config → solver →
  eigensolver, and each mode is internally bit-exact;
* the PR-1 checkpoint path round-trips shared-memory-backed states.
"""

import os

import numpy as np
import pytest

import repro.model.shm as shm
from repro.config import ExecutionConfig
from repro.core.backends import (
    ProcessesBackend,
    ShardedBackend,
    VectorizedBackend,
    make_backend,
)
from repro.core.ensemble import Ensemble
from repro.letkf.core import letkf_transform
from repro.model.ensemble_state import EnsembleState
from repro.model.model import ScaleRM
from repro.model.shm import SharedArena, SharedStateSlab, state_spec

from .test_backends import build_bda, tiny_ensemble


def assert_states_equal(a: EnsembleState, b: EnsembleState) -> None:
    assert set(a.fields) == set(b.fields)
    for v in a.fields:
        np.testing.assert_array_equal(a.fields[v], b.fields[v])
    assert set(a.aux) == set(b.aux)
    for k in a.aux:
        np.testing.assert_array_equal(a.aux[k], b.aux[k])
    assert a.time == b.time and a.nsteps == b.nsteps


# ---------------------------------------------------------------------------
# shared-memory slabs
# ---------------------------------------------------------------------------


class TestSharedSlabs:
    def test_share_roundtrip_bit_identical(self):
        _, _, ens = tiny_ensemble(members=3)
        with SharedArena() as arena:
            shared = ens.state.to_shared(arena)
            assert_states_equal(shared, ens.state)
            # ...and the arrays really live in the segment, not the heap
            assert len(arena) == 1

    def test_views_write_through_both_directions(self):
        _, _, ens = tiny_ensemble(members=3)
        fspec, aspec = state_spec(ens.state)
        with SharedStateSlab(fspec, aspec) as slab:
            slab.load(ens.state)
            st = slab.state(
                ens.state.grid, ens.state.reference,
                time=ens.state.time, nsteps=ens.state.nsteps,
            )
            st.fields["qv"][1] = 0.5
            assert np.all(slab.fields["qv"][1] == 0.5)
            slab.fields["qv"][2] = 0.25
            assert np.all(st.fields["qv"][2] == 0.25)

    def test_attach_maps_same_pages(self):
        _, _, ens = tiny_ensemble(members=2)
        fspec, aspec = state_spec(ens.state)
        with SharedStateSlab(fspec, aspec) as slab:
            slab.load(ens.state)
            twin = SharedStateSlab.attach(slab.manifest)
            try:
                np.testing.assert_array_equal(
                    twin.fields["qv"], slab.fields["qv"]
                )
                twin.fields["qv"][0] = 0.75
                assert np.all(slab.fields["qv"][0] == 0.75)
            finally:
                twin.close()

    def test_member_block_views_and_copy(self):
        _, _, ens = tiny_ensemble(members=4)
        fspec, aspec = state_spec(ens.state)
        with SharedStateSlab(fspec, aspec) as slab:
            slab.load(ens.state)
            blk = slab.state(
                ens.state.grid, ens.state.reference,
                time=0.0, nsteps=0, lo=1, hi=3,
            )
            assert blk.n_members == 2
            np.testing.assert_array_equal(
                blk.fields["dens_p"], ens.state.fields["dens_p"][1:3]
            )
            private = slab.state(
                ens.state.grid, ens.state.reference,
                time=0.0, nsteps=0, copy=True,
            )
            slab.fields["dens_p"][...] = 0.0
            assert np.any(private.fields["dens_p"] != 0.0)

    def test_close_unlinks_and_is_idempotent(self):
        _, _, ens = tiny_ensemble(members=2)
        fspec, aspec = state_spec(ens.state)
        slab = SharedStateSlab(fspec, aspec)
        name = slab.name
        assert name in shm.live_segment_names()
        slab.close()
        slab.close()
        assert name not in shm.live_segment_names()
        assert not os.path.exists(f"/dev/shm/{name}")

    def test_matches_detects_layout_changes(self):
        _, _, ens = tiny_ensemble(members=2)
        fspec, aspec = state_spec(ens.state)
        with SharedStateSlab(fspec, aspec) as slab:
            assert slab.matches(fspec, aspec)
            smaller = dict(fspec)
            smaller.pop(next(iter(smaller)))
            assert not slab.matches(smaller, aspec)
            assert not slab.matches(
                fspec, {"tke": (fspec["qv"][0], "float32")}
            )


# ---------------------------------------------------------------------------
# the worker pool
# ---------------------------------------------------------------------------


class TestProcessesBackend:
    def test_forecast_bit_identical_to_vectorized_two_windows(self):
        cfg, _, ens = tiny_ensemble(members=4)
        vec = VectorizedBackend().forecast(ScaleRM(cfg), ens.state.copy(), 30.0)
        vec = VectorizedBackend().forecast(ScaleRM(cfg), vec, 30.0)
        with ProcessesBackend(2) as pool:
            # window 1 learns the physics aux keys over the wire; window
            # 2 exercises the reserved-slab-slot fast path
            out = pool.forecast(ScaleRM(cfg), ens.state.copy(), 30.0)
            out = pool.forecast(ScaleRM(cfg), out, 30.0)
            assert_states_equal(out, vec)
            # deterministic contiguous member->worker assignment
            blocks = sorted(
                (t["worker"], t["members"]) for t in pool.last_timings
            )
            assert blocks == [(0, 2), (1, 2)]

    def test_single_worker_runs_in_process(self):
        cfg, _, ens = tiny_ensemble(members=3)
        vec = VectorizedBackend().forecast(ScaleRM(cfg), ens.state.copy(), 30.0)
        with ProcessesBackend(1) as pool:
            out = pool.forecast(ScaleRM(cfg), ens.state.copy(), 30.0)
            assert_states_equal(out, vec)
            assert not pool._procs  # never forked

    @pytest.mark.parametrize("op", ["forecast", "letkf"])
    def test_worker_crash_recovers_bit_identically(self, op):
        """Both ops recover through the one fallback of the pool loop:
        the parent reclaims the dead worker's block (audited by the
        armed concurrency sanitizer) and runs the same block function."""
        if op == "forecast":
            cfg, _, ens = tiny_ensemble(members=4)
            expect = VectorizedBackend().forecast(
                ScaleRM(cfg), ens.state.copy(), 30.0
            )

            def run(pool):
                return pool.forecast(ScaleRM(cfg), ens.state.copy(), 30.0)

            check = assert_states_equal
        else:
            rng = np.random.default_rng(33)
            dYb = rng.normal(size=(400, 12, 8)).astype(np.float32)
            dYb -= dYb.mean(axis=2, keepdims=True)
            d = rng.normal(size=(400, 12)).astype(np.float32)
            rinv = rng.uniform(0.1, 1.0, size=(400, 12)).astype(np.float32)
            kw = dict(rtpp_factor=0.95, assume_active=True, precision="single")
            expect = letkf_transform(dYb, d, rinv, **kw)

            def run(pool):
                return pool.letkf_runner(dYb, d, rinv, **kw)

            check = np.testing.assert_array_equal
        with make_backend(ExecutionConfig(
            backend="processes", workers=2, concurrency_checks=True
        )) as pool:
            run(pool)
            pool._task_qs[0].put({"op": "exit"})  # hard-kill worker 0
            check(run(pool), expect)
            assert all(p.is_alive() for p in pool._procs)  # respawned
            assert pool.concurrency.violations == 0
        assert not shm.live_segment_names()

    def test_spawn_start_method_bit_identical(self):
        cfg, _, ens = tiny_ensemble(members=4)
        vec = VectorizedBackend().forecast(ScaleRM(cfg), ens.state.copy(), 30.0)
        with ProcessesBackend(2, start_method="spawn") as pool:
            out = pool.forecast(ScaleRM(cfg), ens.state.copy(), 30.0)
            assert_states_equal(out, vec)

    def test_close_is_idempotent_and_reusable_guard(self):
        cfg, _, ens = tiny_ensemble(members=4)
        pool = ProcessesBackend(2)
        pool.forecast(ScaleRM(cfg), ens.state.copy(), 30.0)
        procs = list(pool._procs)
        pool.close()
        pool.close()
        for p in procs:
            p.join(timeout=10)
            assert not p.is_alive()
        assert not shm.live_segment_names()

    def test_letkf_runner_matches_direct_transform(self):
        rng = np.random.default_rng(31)
        rows, no, m = 400, 12, 8
        for precision, dt in (("single", np.float32), ("double", np.float64)):
            dYb = rng.normal(size=(rows, no, m)).astype(dt)
            dYb -= dYb.mean(axis=2, keepdims=True)
            d = rng.normal(size=(rows, no)).astype(dt)
            rinv = rng.uniform(0.1, 1.0, size=(rows, no)).astype(dt)
            direct = letkf_transform(
                dYb, d, rinv, rtpp_factor=0.95,
                assume_active=True, precision=precision,
            )
            with ProcessesBackend(2) as pool:
                W = pool.letkf_runner(
                    dYb, d, rinv, rtpp_factor=0.95,
                    assume_active=True, precision=precision,
                )
                np.testing.assert_array_equal(W, direct)
                assert W.dtype == dt
                assert len(pool.last_letkf_timings) == 2

    def test_letkf_runner_small_problem_stays_in_process(self):
        rng = np.random.default_rng(32)
        dYb = rng.normal(size=(40, 6, 8)).astype(np.float32)
        d = rng.normal(size=(40, 6)).astype(np.float32)
        rinv = rng.uniform(0.1, 1.0, size=(40, 6)).astype(np.float32)
        direct = letkf_transform(dYb, d, rinv, assume_active=True)
        with ProcessesBackend(2) as pool:
            W = pool.letkf_runner(dYb, d, rinv, assume_active=True)
            np.testing.assert_array_equal(W, direct)
            assert not pool._procs  # under the per-worker row floor


# ---------------------------------------------------------------------------
# spec resolution and composition
# ---------------------------------------------------------------------------


class TestResolutionAndComposition:
    def test_make_backend_processes(self):
        be = make_backend(ExecutionConfig(backend="processes", workers=3))
        try:
            assert isinstance(be, ProcessesBackend)
            assert be.n_workers == 3
        finally:
            be.close()

    def test_make_backend_sharded_inner(self):
        # the composition is a constructor argument, not a config knob
        be = make_backend(ShardedBackend(n_shards=2, inner=ProcessesBackend(2)))
        try:
            assert isinstance(be, ShardedBackend)
            assert isinstance(be.inner, ProcessesBackend)
            assert be.inner.n_workers == 2
        finally:
            be.close()

    def test_sharded_delegates_blocks_through_inner(self):
        cfg, _, ens = tiny_ensemble(members=5)
        vec = ShardedBackend(n_shards=2).forecast(
            ScaleRM(cfg), ens.state.copy(), 30.0
        )

        class CountingInner(VectorizedBackend):
            calls = 0

            def forecast(self, model, state, duration):
                CountingInner.calls += 1
                return super().forecast(model, state, duration)

        backend = ShardedBackend(n_shards=2, inner=CountingInner())
        out = backend.forecast(ScaleRM(cfg), ens.state.copy(), 30.0)
        assert CountingInner.calls == 2  # one per shard
        for v in vec.fields:
            np.testing.assert_array_equal(out.fields[v], vec.fields[v])

    def test_execution_config_validation(self):
        with pytest.raises(ValueError, match="workers"):
            ExecutionConfig(backend="processes", workers=0)
        with pytest.raises(ValueError, match="precision"):
            ExecutionConfig(precision="half")
        with pytest.raises(TypeError, match="sharded_inner"):
            ExecutionConfig(backend="sharded", sharded_inner="processes")
        assert ExecutionConfig(precision="single").precision_dtype() == np.float32
        assert ExecutionConfig(precision="double").precision_dtype() == np.float64


# ---------------------------------------------------------------------------
# whole-system equivalence and checkpointing
# ---------------------------------------------------------------------------


@pytest.mark.slow
class TestSystemEquivalence:
    def test_bda_cycles_processes_bit_identical_to_vectorized(self):
        ref = build_bda("vectorized", seed=9)
        for _ in range(2):
            ref.cycle()
        with build_bda(
            ExecutionConfig(backend="processes", workers=2), seed=9
        ) as bda:
            for _ in range(2):
                bda.cycle()
            assert_states_equal(bda.ensemble.state, ref.ensemble.state)
            # worker block timings surfaced for the bda_* metrics merge
            assert len(bda.cycler.backend.last_timings) == 2

    def test_double_precision_mode_reaches_the_solver(self):
        with build_bda(
            ExecutionConfig(backend="processes", workers=2, precision="double"),
            seed=9,
        ) as bda:
            assert bda.cycler.letkf.dtype == np.float64
            res = bda.cycle()
            assert res.mode == "analysis"

    def test_checkpoint_roundtrip_with_shm_backed_state(self, tmp_path):
        """Kill/resume: a shared-memory-backed batch checkpoints exactly.

        The reference run cycles straight through; the victim moves its
        batch into a shared segment, checkpoints, "dies" (arena closed,
        segments unlinked), and a fresh system resumes from the file —
        bit-identical to the uninterrupted run.
        """
        path = tmp_path / "ck.npz"
        ref = build_bda("vectorized", seed=23)
        ref.cycle()
        ref.cycler.run_cycle(None)

        victim = build_bda("vectorized", seed=23)
        with SharedArena() as arena:
            victim.ensemble.state = victim.ensemble.state.to_shared(arena)
            victim.cycle()
            victim.cycler.save(path)
        # segments are gone; the checkpoint must have copied the values
        assert not shm.live_segment_names()

        resumed = build_bda("vectorized", seed=23)
        resumed.cycler.load(path)
        resumed.cycler.run_cycle(None)
        assert_states_equal(resumed.ensemble.state, ref.ensemble.state)
