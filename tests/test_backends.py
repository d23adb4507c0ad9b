"""Batched ensemble state + execution backend equivalence tests.

The contract under test: the member-batched :class:`EnsembleState` and
the vectorized/sharded execution backends are *bit-identical* to the
per-member serial loop (every model kernel is member-independent), and
the checkpoint layout built on the batch round-trips exactly.
"""

import numpy as np
import pytest

from repro.config import ExecutionConfig, LETKFConfig, RadarConfig, ScaleConfig
from repro.core import BDASystem
from repro.core.backends import (
    SerialBackend,
    ShardedBackend,
    VectorizedBackend,
    make_backend,
)
from repro.core.ensemble import Ensemble
from repro.model.ensemble_state import EnsembleState
from repro.model.initial import convective_sounding
from repro.model.model import ScaleRM
from repro.model.state import ModelState, PROGNOSTIC_VARS


def tiny_config(members=4, nx=8, nz=6):
    return ScaleConfig().reduced(nx=nx, nz=nz, members=members)


def tiny_ensemble(members=4, seed=3):
    cfg = tiny_config(members)
    model = ScaleRM(cfg)
    rng = np.random.default_rng(seed)
    ens = Ensemble.from_model(model, members, rng)
    return cfg, model, ens


def build_bda(backend, *, members=5, seed=9):
    scfg = ScaleConfig().reduced(nx=12, nz=8, members=members)
    lcfg = LETKFConfig(
        ensemble_size=members,
        analysis_zmin=0.0,
        analysis_zmax=20000.0,
        localization_h=12000.0,
        localization_v=4000.0,
        gross_error_refl_dbz=100.0,
        gross_error_doppler_ms=100.0,
        eigensolver="lapack",
    )
    bda = BDASystem(
        scfg, lcfg, RadarConfig().reduced(),
        sounding=convective_sounding(cape_factor=1.1),
        seed=seed, backend=backend,
    )
    bda.trigger_convection(n=2, amplitude=5.0)
    bda.spinup_nature(120.0)
    return bda


# ---------------------------------------------------------------------------
# EnsembleState container semantics
# ---------------------------------------------------------------------------


class TestEnsembleState:
    def test_from_members_stacks_member_axis(self):
        _, _, ens = tiny_ensemble(members=3)
        st = ens.state
        assert isinstance(st, EnsembleState)
        assert st.n_members == 3
        g = st.grid
        assert st.fields["dens_p"].shape == (3, g.nz, g.ny, g.nx)
        assert st.fields["momz"].shape == (3, g.nz + 1, g.ny, g.nx)

    def test_member_view_is_zero_copy(self):
        _, _, ens = tiny_ensemble(members=3)
        view = ens.state.member_view(1)
        assert view.fields["qv"].base is ens.state.fields["qv"]
        view.fields["qv"][...] = 0.25
        assert np.all(ens.state.fields["qv"][1] == 0.25)
        assert not np.any(ens.state.fields["qv"][0] == 0.25)

    def test_members_proxy_get_and_removed_set(self):
        _, _, ens = tiny_ensemble(members=3)
        replacement = ens.members[0].copy()
        replacement.fields["qv"][...] = 0.125
        # item assignment was deprecated in PR 3 and is a hard error now
        with pytest.raises(TypeError, match="set_member"):
            ens.members[2] = replacement
        ens.state.set_member(2, replacement)
        assert np.all(ens.state.fields["qv"][2] == 0.125)
        assert len(ens.members[:2]) == 2
        assert len(list(ens.members)) == 3

    def test_analysis_arrays_match_per_member_stack(self):
        _, _, ens = tiny_ensemble(members=4)
        batched = ens.state.analysis_arrays()
        per_member = [ens.members[i].to_analysis() for i in range(4)]
        for v in ModelState.ANALYSIS_VARS:
            stacked = np.stack([pm[v] for pm in per_member], axis=0)
            np.testing.assert_array_equal(batched[v], stacked)

    def test_analysis_arrays_subset(self):
        _, _, ens = tiny_ensemble(members=4)
        sub = ens.state.analysis_arrays([1, 3])
        full = ens.state.analysis_arrays()
        for v in ModelState.ANALYSIS_VARS:
            np.testing.assert_array_equal(sub[v], full[v][[1, 3]])

    def test_mean_state_matches_sequential_float64_loop(self):
        _, _, ens = tiny_ensemble(members=4)
        mean = ens.mean_state()
        for name in PROGNOSTIC_VARS:
            acc = np.zeros(ens.state.fields[name].shape[1:], dtype=np.float64)
            for i in range(len(ens)):
                acc += ens.state.fields[name][i]
            expect = (acc / len(ens)).astype(ens.grid.dtype)
            if name in ("qv",):
                expect = np.clip(expect, 0.0, None)
            np.testing.assert_array_equal(mean.fields[name], expect)

    def test_finite_mask_flags_poisoned_member(self):
        _, _, ens = tiny_ensemble(members=4)
        ens.members[2].fields["rhot_p"][...] = np.nan
        mask = ens.state.finite_mask()
        assert mask.tolist() == [True, True, False, True]

    def test_iteration_yields_views_in_member_order(self):
        _, _, ens = tiny_ensemble(members=3)
        for i, st in enumerate(ens):
            assert st.fields["dens_p"].base is ens.state.fields["dens_p"]
            np.testing.assert_array_equal(
                st.fields["dens_p"], ens.state.fields["dens_p"][i]
            )


# ---------------------------------------------------------------------------
# Execution backend equivalence
# ---------------------------------------------------------------------------


class TestBackendEquivalence:
    def test_make_backend_resolution(self):
        assert isinstance(make_backend(None), VectorizedBackend)
        assert isinstance(make_backend("serial"), SerialBackend)
        sb = make_backend(ExecutionConfig(backend="sharded", n_shards=3))
        assert isinstance(sb, ShardedBackend) and sb.n_shards == 3
        be = SerialBackend()
        assert make_backend(be) is be
        with pytest.raises(ValueError):
            ExecutionConfig(backend="gpu")

    def test_serial_vectorized_bit_identical_one_window(self):
        cfg, _, ens = tiny_ensemble(members=4)
        ser = SerialBackend().forecast(ScaleRM(cfg), ens.state.copy(), 30.0)
        vec = VectorizedBackend().forecast(ScaleRM(cfg), ens.state.copy(), 30.0)
        for v in ser.fields:
            np.testing.assert_array_equal(ser.fields[v], vec.fields[v])
        assert ser.time == vec.time and ser.nsteps == vec.nsteps

    def test_sharded_matches_within_tolerance(self):
        cfg, _, ens = tiny_ensemble(members=5)
        vec = VectorizedBackend().forecast(ScaleRM(cfg), ens.state.copy(), 30.0)
        shd = ShardedBackend(n_shards=2).forecast(ScaleRM(cfg), ens.state.copy(), 30.0)
        assert shd.n_members == 5
        for v in vec.fields:
            np.testing.assert_allclose(
                shd.fields[v], vec.fields[v], rtol=1e-6, atol=1e-7
            )

    def test_sharded_records_traffic(self):
        cfg, _, ens = tiny_ensemble(members=4)
        backend = ShardedBackend(n_shards=2)
        backend.forecast(ScaleRM(cfg), ens.state.copy(), 30.0)
        assert backend.last_stats is not None
        assert backend.last_stats.bytes_moved > 0

    def test_single_shard_still_runs_through_the_delegate(self):
        """Regression: one block used to bypass ``inner`` (a serial
        delegate silently ran vectorized) and keep stale ``last_stats``."""
        cfg, _, ens = tiny_ensemble(members=4)
        model = ScaleRM(cfg)
        views = []

        class Spy(SerialBackend):
            def _integrate(self, model, state, duration):
                views.append(state.n_members)
                return super()._integrate(model, state, duration)

        backend = ShardedBackend(n_shards=2, inner=Spy())
        backend.forecast(model, ens.state.copy(), 30.0)
        assert views == [2, 2] and backend.last_stats.bytes_moved > 0
        backend.n_shards = 1
        out = backend.forecast(model, ens.state.copy(), 30.0)
        assert views == [2, 2, 4]  # the delegate integrated the one block
        assert backend.last_stats.bytes_moved == 0  # ...and nothing moved
        ser = SerialBackend().forecast(model, ens.state.copy(), 30.0)
        for v in ser.fields:
            np.testing.assert_array_equal(out.fields[v], ser.fields[v])

    @pytest.mark.slow
    def test_seeded_multicycle_bda_bit_identical(self):
        """Whole-pipeline equivalence: forecasts + LETKF + spread injection."""
        runs = {}
        for name in ("serial", "vectorized"):
            bda = build_bda(name)
            for _ in range(2):
                bda.cycle()
            runs[name] = bda
        a, b = runs["serial"], runs["vectorized"]
        for v in a.ensemble.state.fields:
            np.testing.assert_array_equal(
                a.ensemble.state.fields[v], b.ensemble.state.fields[v]
            )
        assert a.analysis_rmse("theta_p") == b.analysis_rmse("theta_p")

    def test_per_state_physics_cadence_is_member_independent(self):
        """Regression: the physics cadence counter lives on the state.

        Interleaving two trajectories through one shared model instance
        must produce the same result as running each on its own model —
        the old shared ``ScaleRM.nsteps`` counter broke this.
        """
        cfg = tiny_config()
        shared = ScaleRM(cfg)
        rng = np.random.default_rng(5)
        ens = Ensemble.from_model(shared, 2, rng)
        a0 = ens.members[0].copy()
        b0 = ens.members[1].copy()

        # interleaved through the shared instance, step by step
        a, b = a0.copy(), b0.copy()
        for _ in range(4):
            a = shared.step(a)
            b = shared.step(b)

        # each on a pristine model instance
        ref_a = ScaleRM(cfg).integrate(a0.copy(), 4 * cfg.dt)
        ref_b = ScaleRM(cfg).integrate(b0.copy(), 4 * cfg.dt)
        for v in a.fields:
            np.testing.assert_array_equal(a.fields[v], ref_a.fields[v])
            np.testing.assert_array_equal(b.fields[v], ref_b.fields[v])


# ---------------------------------------------------------------------------
# Checkpoint/resume on the batched layout
# ---------------------------------------------------------------------------


class TestBatchedCheckpoint:
    def test_state_dict_roundtrip(self):
        bda = build_bda("vectorized", seed=17)
        bda.cycle()
        meta, arrays = bda.cycler.state_dict()
        assert meta["kind"] == "da-cycler"
        assert "member_nsteps" in meta
        m = len(bda.ensemble)
        for v in bda.ensemble.state.fields:
            assert arrays[f"member_{v}"].shape[0] == m
        # aux closure state (TKE, rain rate) rides along per member
        assert any(k.startswith("member_aux_") for k in arrays)

        other = build_bda("vectorized", seed=17)
        other.cycle()
        # scramble, then restore from the checkpoint dict
        other.ensemble.state.fields["qv"][...] = 0.0
        other.ensemble.state.aux.clear()
        other.cycler.load_state_dict(meta, arrays)
        for v in bda.ensemble.state.fields:
            np.testing.assert_array_equal(
                other.ensemble.state.fields[v], bda.ensemble.state.fields[v]
            )
        for k in bda.ensemble.state.aux:
            np.testing.assert_array_equal(
                other.ensemble.state.aux[k], bda.ensemble.state.aux[k]
            )
        assert other.ensemble.state.nsteps == bda.ensemble.state.nsteps
        assert other.ensemble.state.time == bda.ensemble.state.time

    def test_resume_continues_bit_identically(self, tmp_path):
        path = tmp_path / "ck.npz"
        ref = build_bda("vectorized", seed=23)
        ref.cycle()
        ref.cycler.save(path)
        ref_more = [ref.cycler.run_cycle(None) for _ in range(2)]

        twin = build_bda("vectorized", seed=23)
        twin.cycle()
        # perturb the twin so a no-op load would be caught
        twin.ensemble.state.fields["qv"][...] *= 1.001
        twin.cycler.load(path)
        twin_more = [twin.cycler.run_cycle(None) for _ in range(2)]

        for v in ref.ensemble.state.fields:
            np.testing.assert_array_equal(
                ref.ensemble.state.fields[v], twin.ensemble.state.fields[v]
            )
        for ra, rb in zip(ref_more, twin_more):
            assert ra.mode == rb.mode
            assert ra.spread_theta == rb.spread_theta
