"""Fault-injection harness + graceful-degradation layer tests.

Covers the resilience subsystem end to end: deterministic fault
injection, retry/backoff policy and circuit breaker, the fail-safe
integration, the seeded acceptance campaign (checkpoint/kill/resume
bit-identity), input validation in the radar->obs path, and the
DACycler degradation ladder at tiny scale.
"""

import copy
import math
import warnings

import numpy as np
import pytest

from repro.config import LETKFConfig, RadarConfig, ScaleConfig, WorkflowConfig
from repro.core import BDASystem
from repro.jitdt.failsafe import FailSafeMonitor
from repro.letkf.qc import (
    GriddedObservations,
    screen_observations,
    validate_gridded,
)
from repro.model.initial import convective_sounding
from repro.resilience import (
    FAULT_KINDS,
    CircuitBreaker,
    FaultCampaign,
    FaultInjector,
    FaultRates,
    RetryPolicy,
    load_checkpoint,
    resilience_metrics,
    save_checkpoint,
)
from repro.workflow.realtime import CycleRecord, RealtimeWorkflow


# ---------------------------------------------------------------------------
# FaultInjector
# ---------------------------------------------------------------------------


class TestFaultInjector:
    def test_same_seed_same_faults(self):
        a = FaultInjector(seed=3)
        b = FaultInjector(seed=3)
        fa = [a.faults_for_cycle(c) for c in range(300)]
        fb = [b.faults_for_cycle(c) for c in range(300)]
        assert fa == fb

    def test_different_seed_differs(self):
        a = FaultInjector(seed=3)
        b = FaultInjector(seed=4)
        fa = [f for c in range(300) for f in a.faults_for_cycle(c)]
        fb = [f for c in range(300) for f in b.faults_for_cycle(c)]
        assert fa != fb

    def test_stateless_per_cycle(self):
        # faults of cycle c depend on (seed, c) only — query order must
        # not matter (this is what makes checkpoint/resume exact)
        a = FaultInjector(seed=9)
        b = FaultInjector(seed=9)
        order_a = [a.faults_for_cycle(c) for c in range(100)]
        order_b = [b.faults_for_cycle(c) for c in reversed(range(100))]
        assert order_a == list(reversed(order_b))

    def test_all_off_injects_nothing(self):
        inj = FaultInjector(FaultRates.all_off(), seed=1)
        assert all(not inj.faults_for_cycle(c) for c in range(500))

    def test_only_restricts_kinds(self):
        inj = FaultInjector(FaultRates.only("volume-nan", rate=0.5), seed=1)
        kinds = {f.kind for c in range(200) for f in inj.faults_for_cycle(c)}
        assert kinds == {"volume-nan"}

    def test_only_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultRates.only("meteor-strike")

    def test_rates_cover_every_kind(self):
        rates = FaultRates()
        for kind in FAULT_KINDS:
            assert rates.rate(kind) > 0

    def test_severity_positive_and_capped(self):
        from repro.resilience.faults import _SEVERITY

        inj = FaultInjector(FaultRates(**{
            k.replace("-", "_"): 1.0 for k in FAULT_KINDS
        }), seed=5)
        for c in range(50):
            for f in inj.faults_for_cycle(c):
                assert f.severity > 0
                assert f.severity <= _SEVERITY[f.kind][1]

    def test_poison_volume(self):
        rng = np.random.default_rng(0)
        values = np.zeros((4, 5, 5), dtype=np.float32)
        valid = np.ones_like(values, dtype=bool)
        FaultInjector.poison_volume(values, valid, 0.25, rng)
        n_nan = int(np.count_nonzero(np.isnan(values)))
        assert n_nan == round(0.25 * values.size)

    def test_truncate_volume_drops_top_levels(self):
        valid = np.ones((10, 3, 3), dtype=bool)
        FaultInjector.truncate_volume(valid, 0.4)
        assert not valid[6:].any()
        assert valid[:6].all()
        # never truncates everything
        valid2 = np.ones((10, 3, 3), dtype=bool)
        FaultInjector.truncate_volume(valid2, 1.0)
        assert valid2[0].all()


# ---------------------------------------------------------------------------
# RetryPolicy / CircuitBreaker
# ---------------------------------------------------------------------------


class TestRetryPolicy:
    def test_legacy_defaults(self):
        # the default schedule reproduces the original fixed-two-attempt
        # fail-safe: constant 15 s timeout, 20 s then 40 s penalty
        p = RetryPolicy()
        assert p.timeout(0) == p.timeout(1) == 15.0
        assert p.penalty(0) == 20.0
        assert p.penalty(1) == 40.0

    def test_exponential_timeout_backoff(self):
        p = RetryPolicy(max_attempts=4, timeout_s=10.0, timeout_backoff=2.0)
        assert [p.timeout(i) for i in range(4)] == [10.0, 20.0, 40.0, 80.0]

    def test_caps(self):
        p = RetryPolicy(
            max_attempts=6, penalty_s=30.0, penalty_backoff=3.0,
            max_penalty_s=100.0, timeout_s=50.0, timeout_backoff=2.0,
            max_timeout_s=60.0,
        )
        assert p.penalty(5) == 100.0
        assert p.timeout(5) == 60.0

    def test_worst_case_bounds_supervision(self):
        p = RetryPolicy()
        assert p.worst_case_seconds() == pytest.approx(15 + 20 + 15 + 40)

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(timeout_s=-1.0)
        with pytest.raises(ValueError):
            RetryPolicy(penalty_backoff=0.5)


class TestCircuitBreaker:
    def test_opens_after_threshold(self):
        br = CircuitBreaker(failure_threshold=3, cooldown=2)
        for _ in range(2):
            br.record_failure()
        assert br.state == "closed"
        br.record_failure()
        assert br.is_open
        assert br.n_opens == 1

    def test_cooldown_then_half_open_trial(self):
        br = CircuitBreaker(failure_threshold=1, cooldown=2)
        br.record_failure()
        assert not br.allow()  # denial 1
        assert not br.allow()  # denial 2 -> half-open
        assert br.state == "half-open"
        assert br.allow()  # the trial is admitted
        br.record_success()
        assert br.state == "closed"
        assert br.n_short_circuits == 2

    def test_half_open_failure_reopens(self):
        br = CircuitBreaker(failure_threshold=1, cooldown=1)
        br.record_failure()
        assert not br.allow()
        assert br.state == "half-open"
        br.record_failure()
        assert br.is_open
        assert br.n_opens == 2

    def test_success_resets_streak(self):
        br = CircuitBreaker(failure_threshold=2, cooldown=1)
        br.record_failure()
        br.record_success()
        br.record_failure()
        assert br.state == "closed"

    def test_state_dict_roundtrip(self):
        br = CircuitBreaker(failure_threshold=2, cooldown=3)
        br.record_failure()
        br.record_failure()
        br.allow()
        twin = CircuitBreaker(failure_threshold=2, cooldown=3)
        twin.load_state_dict(br.state_dict())
        assert twin.state_dict() == br.state_dict()

    def test_validation(self):
        with pytest.raises(ValueError):
            CircuitBreaker(failure_threshold=0)


class TestFailSafeBreakerIntegration:
    def test_streak_opens_circuit_and_short_circuits(self):
        fs = FailSafeMonitor(breaker=CircuitBreaker(failure_threshold=2, cooldown=3))
        bad = [(100.0, True), (100.0, True)]
        assert fs.supervise(0.0, bad) is None
        assert fs.supervise(30.0, bad) is None
        assert fs.breaker.is_open
        # while open, cycles are denied without burning restarts
        restarts_before = fs.restarts
        assert fs.supervise(60.0, [(3.0, False)]) is None
        assert fs.restarts == restarts_before
        assert fs.short_circuited_cycles == 1

    def test_half_open_recovery_closes(self):
        fs = FailSafeMonitor(breaker=CircuitBreaker(failure_threshold=1, cooldown=1))
        assert fs.supervise(0.0, [(99.0, True), (99.0, True)]) is None
        assert fs.supervise(30.0, [(3.0, False)]) is None  # cooldown denial
        assert fs.supervise(60.0, [(3.0, False)]) == 3.0  # half-open trial
        assert fs.breaker.state == "closed"

    def test_restart_rate_is_per_cycle(self):
        fs = FailSafeMonitor()
        fs.supervise(0.0, [(100.0, False), (3.0, False)])  # 1 restart
        fs.supervise(30.0, [(3.0, False)])  # clean
        fs.supervise(60.0, [(3.0, False)])  # clean
        assert fs.cycles_supervised == 3
        assert fs.restart_rate == pytest.approx(1 / 3)

    def test_restart_rate_empty(self):
        assert FailSafeMonitor().restart_rate == 0.0


# ---------------------------------------------------------------------------
# Checkpoint file format
# ---------------------------------------------------------------------------


class TestCheckpointFormat:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "ck.npz"
        meta = {"kind": "x", "nested": {"a": [1, 2.5, "s"], "b": None}}
        arrays = {"m": np.arange(12.0).reshape(3, 4)}
        save_checkpoint(path, meta, arrays)
        m2, a2 = load_checkpoint(path)
        assert m2 == meta
        assert np.array_equal(a2["m"], arrays["m"])

    def test_reserved_key_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="reserved"):
            save_checkpoint(tmp_path / "x.npz", {}, {"__meta__": np.zeros(1)})

    def test_non_checkpoint_rejected(self, tmp_path):
        path = tmp_path / "plain.npz"
        np.savez(path, a=np.zeros(1))
        with pytest.raises(ValueError, match="not a repro checkpoint"):
            load_checkpoint(path)

    def test_overwrite_is_atomic_replace(self, tmp_path):
        path = tmp_path / "ck.npz"
        save_checkpoint(path, {"v": 1})
        save_checkpoint(path, {"v": 2})
        meta, _ = load_checkpoint(path)
        assert meta["v"] == 2
        assert not path.with_suffix(".npz.tmp").exists()


# ---------------------------------------------------------------------------
# CycleRecord / deadline_fraction fixes (satellite a)
# ---------------------------------------------------------------------------


class TestCycleRecordFailureSemantics:
    def test_time_to_solution_nan_when_failed(self):
        rec = CycleRecord(cycle=5, t_obs=150.0, ok=False, skipped_reason="outage")
        assert math.isnan(rec.time_to_solution)

    def test_breakdown_raises_when_failed(self):
        rec = CycleRecord(cycle=5, t_obs=150.0, ok=False, skipped_reason="outage")
        with pytest.raises(ValueError, match="no breakdown"):
            rec.breakdown()

    def test_breakdown_ok_record(self):
        rec = CycleRecord(
            cycle=0, t_obs=0.0, ok=True, t_file=3.0, t_transferred=6.0,
            t_analysis=20.0, t_product=100.0,
        )
        b = rec.breakdown()
        assert b["file_creation"] == 3.0
        assert sum(b.values()) == pytest.approx(rec.time_to_solution)

    def test_deadline_fraction_denominators(self):
        wf = RealtimeWorkflow(WorkflowConfig(), seed=1)
        for c in range(8):
            wf.run_cycle(c, in_outage=(c % 2 == 0))
        prod = wf.deadline_fraction()  # default: produced
        att = wf.deadline_fraction(denominator="attempted")
        assert prod == pytest.approx(1.0)
        assert att == pytest.approx(0.5)

    def test_deadline_fraction_unknown_policy(self):
        wf = RealtimeWorkflow(WorkflowConfig(), seed=1)
        with pytest.raises(ValueError, match="denominator"):
            wf.deadline_fraction(denominator="bogus")

    def test_deadline_fraction_empty(self):
        wf = RealtimeWorkflow(WorkflowConfig(), seed=1)
        assert wf.deadline_fraction() == 0.0
        assert wf.deadline_fraction(denominator="attempted") == 0.0


# ---------------------------------------------------------------------------
# Acceptance campaign (the ISSUE's headline criterion)
# ---------------------------------------------------------------------------


class TestFaultCampaign:
    N = 2000

    @pytest.fixture(scope="class")
    def report(self):
        return FaultCampaign(seed=2021).run(self.N)

    def test_campaign_completes_all_cycles(self, report):
        assert report.n_cycles == self.N

    def test_every_fault_kind_struck(self, report):
        # at default rates a 2,000-cycle campaign exercises all types
        assert set(report.fault_counts) == set(FAULT_KINDS)

    def test_metrics_finite_and_sane(self, report):
        assert 0.5 < report.availability <= 1.0
        assert 0.0 < report.degraded_fraction < 0.5
        assert 0.0 < report.deadline_fraction <= 1.0
        assert report.n_produced + report.n_failed == self.N
        assert np.isfinite(report.mean_time_to_recover_s)
        assert report.n_recoveries > 0
        assert report.restarts > 0

    def test_record_invariants(self):
        camp = FaultCampaign(seed=77)
        camp.run(300)
        for rec in camp.workflow.records:
            if rec.ok:
                assert rec.time_to_solution > 0
            else:
                assert math.isnan(rec.time_to_solution)
                assert rec.skipped_reason in ("transfer-failed", "circuit-open")

    def test_same_seed_reproduces_identical_metrics(self, report):
        again = FaultCampaign(seed=2021).run(self.N)
        assert again == report

    def test_different_seed_differs(self, report):
        other = FaultCampaign(seed=2022).run(self.N)
        assert other != report

    def test_checkpoint_kill_resume_is_exact(self, report, tmp_path):
        path = tmp_path / "campaign.npz"
        camp = FaultCampaign(seed=2021)
        camp.run(self.N // 2)
        camp.checkpoint(path)
        del camp  # the "kill"

        resumed = FaultCampaign.resume(path)
        assert resumed.next_cycle == self.N // 2
        assert resumed.run(self.N) == report

    def test_resume_records_match_cycle_by_cycle(self, tmp_path):
        path = tmp_path / "c.npz"
        full = FaultCampaign(seed=5)
        full.run(400)
        part = FaultCampaign(seed=5)
        part.run(150)
        part.checkpoint(path)
        resumed = FaultCampaign.resume(path)
        resumed.run(400)
        assert resumed.workflow.records == full.workflow.records

    def test_resume_rejects_foreign_checkpoint(self, tmp_path):
        path = tmp_path / "other.npz"
        save_checkpoint(path, {"kind": "da-cycler"})
        with pytest.raises(ValueError, match="not a fault-campaign"):
            FaultCampaign.resume(path)

    def test_circuit_breaker_engages_under_stall_storm(self):
        # deterministic stall every cycle: the breaker must open and
        # convert restart-burning cycles into cheap short circuits
        camp = FaultCampaign(
            seed=1, rates=FaultRates.only("transfer-stall", rate=1.0),
            breaker_threshold=3, breaker_cooldown=5,
        )
        rep = camp.run(100)
        assert rep.availability == 0.0
        assert rep.short_circuited_cycles > 50
        assert {r.skipped_reason for r in camp.workflow.records} == {
            "transfer-failed", "circuit-open"
        }

    def test_report_text_renders(self, report):
        from repro.report import resilience_text

        text = resilience_text(report)
        assert "availability" in text
        assert "mean time-to-recover" in text
        assert report.summary()

    def test_metrics_pure_function_empty(self):
        rep = resilience_metrics([])
        assert rep.n_cycles == 0
        assert rep.availability == 0.0
        assert math.isnan(rep.mean_time_to_recover_s)


class TestReplayWithResilienceFields:
    def test_log_roundtrip_preserves_degraded_and_fault(self, tmp_path):
        from repro.workflow.replay import read_log, write_log

        camp = FaultCampaign(seed=13)
        camp.run(120)
        path = tmp_path / "log.jsonl"
        write_log(camp.workflow.records, path)
        back = list(read_log(path))
        assert back == camp.workflow.records
        assert any(r.degraded for r in back)
        assert any(r.fault for r in back)


# ---------------------------------------------------------------------------
# Input validation in the radar -> obs path (satellite c)
# ---------------------------------------------------------------------------


def _obs(shape=(4, 5, 5), t_valid=float("nan"), kind="reflectivity"):
    values = np.full(shape, 10.0, dtype=np.float32)
    valid = np.ones(shape, dtype=bool)
    return GriddedObservations(
        kind=kind, values=values, valid=valid, error_std=5.0, t_valid=t_valid
    )


class TestObsValidation:
    def test_clean_volume_passes(self):
        assert validate_gridded(_obs(), (4, 5, 5)) == []

    def test_wrong_mesh_rejected(self):
        problems = validate_gridded(_obs(shape=(3, 5, 5)), (4, 5, 5))
        assert len(problems) == 1
        assert "analysis mesh" in problems[0]

    def test_nonfinite_on_valid_cells_rejected(self):
        obs = _obs()
        obs.values[0, 0, 0] = np.nan
        obs.values[1, 2, 3] = np.inf
        problems = validate_gridded(obs, (4, 5, 5))
        assert any("non-finite" in p for p in problems)

    def test_nonfinite_on_invalid_cells_ignored(self):
        obs = _obs()
        obs.values[0, 0, 0] = np.nan
        obs.valid[0, 0, 0] = False
        assert validate_gridded(obs, (4, 5, 5)) == []

    def test_empty_volume_rejected(self):
        obs = _obs()
        obs.valid[:] = False
        problems = validate_gridded(obs)
        assert any("no valid cells" in p for p in problems)

    def test_non_monotonic_timestamp_rejected(self):
        problems = validate_gridded(_obs(t_valid=90.0), t_prev=90.0)
        assert any("non-monotonic" in p for p in problems)
        assert validate_gridded(_obs(t_valid=120.0), t_prev=90.0) == []

    def test_unknown_timestamp_not_checked(self):
        assert validate_gridded(_obs(), t_prev=90.0) == []

    def test_screen_splits_good_and_bad(self):
        good = _obs()
        bad = _obs()
        bad.values[bad.valid] = np.nan
        accepted, reasons = screen_observations([good, bad], (4, 5, 5))
        assert accepted == [good]
        assert len(reasons) == 1

    def test_operator_screen_tracks_scan_time(self):
        from types import SimpleNamespace

        from repro.letkf.obsope import _ScreeningMixin

        class Op(_ScreeningMixin):
            def __init__(self):
                self.grid = SimpleNamespace(shape=(4, 5, 5))
                self._last_t_valid = None

        op = Op()
        a, r = op.screen([_obs(t_valid=30.0)])
        assert len(a) == 1 and op._last_t_valid == 30.0
        # a stale retransmit of the same scan is now rejected
        a, r = op.screen([_obs(t_valid=30.0)])
        assert a == [] and any("non-monotonic" in x for x in r)
        # and a fresh scan is accepted again
        a, r = op.screen([_obs(t_valid=60.0)])
        assert len(a) == 1 and op._last_t_valid == 60.0


# ---------------------------------------------------------------------------
# DACycler degradation ladder (tiny-scale OSSE)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def tiny():
    scfg = ScaleConfig().reduced(nx=12, nz=10, members=4)
    lcfg = LETKFConfig(
        ensemble_size=4,
        analysis_zmin=0.0,
        analysis_zmax=20000.0,
        eigensolver="lapack",
        localization_h=15000.0,
        localization_v=5000.0,
        gross_error_refl_dbz=100.0,
        gross_error_doppler_ms=100.0,
    )
    sys = BDASystem(
        scfg, lcfg, RadarConfig().reduced(),
        sounding=convective_sounding(cape_factor=1.1), seed=3,
    )
    sys.trigger_convection(n=2, amplitude=5.0)
    sys.spinup_nature(600.0)
    return sys


def _ensemble_finite(sys) -> bool:
    return all(
        bool(np.all(np.isfinite(a)))
        for st in sys.ensemble.members
        for a in st.fields.values()
    )


class TestDACyclerDegradation:
    def test_healthy_cycle_is_analysis_mode(self, tiny):
        res = tiny.cycle()
        assert res.mode == "analysis"
        assert not res.degraded
        assert res.n_members_used == len(tiny.ensemble)
        assert res.n_volumes_rejected == 0

    def test_missing_obs_free_run(self, tiny):
        res = tiny.cycler.run_cycle(None)
        assert res.mode == "free-run"
        assert res.degraded
        assert res.n_members_used == 0
        assert _ensemble_finite(tiny)

    def test_rejected_obs_free_run(self, tiny):
        tiny.nature = tiny.nature_model.integrate(tiny.nature, 30.0)
        obs = tiny.observe_nature()
        for ob in obs:
            ob.values[ob.valid] = np.nan  # wholly poisoned volumes
        res = tiny.cycler.run_cycle(obs)
        assert res.mode == "free-run"
        assert res.n_volumes_rejected == len(obs)
        assert all("non-finite" in r for r in res.rejection_reasons)
        assert _ensemble_finite(tiny)

    def test_partially_poisoned_volume_still_assimilates_good_one(self, tiny):
        tiny.nature = tiny.nature_model.integrate(tiny.nature, 30.0)
        obs = tiny.observe_nature()
        obs[1].values[obs[1].valid] = np.inf
        res = tiny.cycler.run_cycle(obs)
        assert res.mode == "analysis"
        assert res.n_volumes_rejected == 1
        assert res.diagnostics.n_obs_used > 0

    def test_lost_member_reduced_analysis_and_refill(self, tiny):
        rng = np.random.default_rng(0)
        FaultInjector.poison_members(
            tiny.ensemble.members, 0.3, rng, mode="nan"
        )
        tiny.nature = tiny.nature_model.integrate(tiny.nature, 30.0)
        obs = tiny.observe_nature()
        res = tiny.cycler.run_cycle(obs)
        assert res.mode == "reduced"
        assert res.degraded
        assert res.n_members_recovered == 1
        assert res.n_members_used == len(tiny.ensemble) - 1
        assert _ensemble_finite(tiny)

    def test_refilled_members_carry_spread(self, tiny):
        # a refilled member is not a bare clone: spread stays nonzero
        assert tiny.ensemble.spread("theta_p") > 1e-6

    def test_catastrophic_loss_rolls_back(self, tiny):
        # all but one member poisoned: fewer than 2 healthy -> rollback
        rng = np.random.default_rng(1)
        FaultInjector.poison_members(tiny.ensemble.members, 0.99, rng, mode="nan")
        res = tiny.cycler.run_cycle(None)
        assert res.mode == "rollback"
        assert _ensemble_finite(tiny)

    def test_recovers_to_analysis_after_rollback(self, tiny):
        tiny.nature = tiny.nature_model.integrate(tiny.nature, 30.0)
        res = tiny.cycler.run_cycle(tiny.observe_nature())
        assert res.mode == "analysis"
        assert _ensemble_finite(tiny)

    def test_guard_off_fails_fast(self, tiny):
        # diverged members with guard disabled are not masked (the old
        # fail-fast behaviour remains available for debugging)
        tiny.cycler.guard = False
        try:
            obs = tiny.last_obs
            res = tiny.cycler.run_cycle(obs)
            assert res.n_volumes_rejected == 0
        finally:
            tiny.cycler.guard = True

    def test_mini_fault_storm_keeps_ensemble_finite(self, tiny):
        # data-level fault storm: every cycle strikes the obs or the
        # ensemble, and the ladder must keep the state finite throughout
        rng = np.random.default_rng(42)
        modes = []
        for k in range(8):
            tiny.nature = tiny.nature_model.integrate(tiny.nature, 30.0)
            obs = tiny.observe_nature()
            strike = k % 4
            if strike == 0:
                FaultInjector.poison_volume(
                    obs[0].values, obs[0].valid, 0.3, rng
                )
            elif strike == 1:
                FaultInjector.truncate_volume(obs[0].valid, 0.5)
                FaultInjector.truncate_volume(obs[1].valid, 0.5)
            elif strike == 2:
                FaultInjector.poison_members(
                    tiny.ensemble.members, 0.3, rng, mode="diverge"
                )
            if strike == 2:
                # the contract on numpy's overflow/invalid warnings: a
                # diverged member blows up inside the forecast before
                # the guard masks it, so this cycle may warn, and it
                # must leave the ``analysis`` rung
                with pytest.warns(RuntimeWarning):
                    res = tiny.cycler.run_cycle(obs)
                assert res.mode != "analysis"
            else:
                # ...and no other cycle may: the ladder handles bad
                # observations without a single numerical warning
                with warnings.catch_warnings():
                    warnings.simplefilter("error", RuntimeWarning)
                    res = tiny.cycler.run_cycle(obs)
            modes.append(res.mode)
            assert _ensemble_finite(tiny)
        assert "analysis" in modes  # the clean cycles still assimilate


class TestDACyclerCheckpoint:
    def test_state_roundtrip_resumes_bit_identically(self, tiny, tmp_path):
        path = tmp_path / "cycler.npz"
        tiny.nature = tiny.nature_model.integrate(tiny.nature, 30.0)
        obs = tiny.observe_nature()
        obs_copy = [o.copy() for o in obs]

        tiny.cycler.save(path)
        tiny.cycler.run_cycle(obs)
        after_a = [
            {v: a.copy() for v, a in st.fields.items()}
            for st in tiny.ensemble.members
        ]
        cycle_a = tiny.cycler._cycle

        tiny.cycler.load(path)
        tiny.cycler.run_cycle(obs_copy)
        assert tiny.cycler._cycle == cycle_a
        for st, ref in zip(tiny.ensemble.members, after_a):
            for v, a in st.fields.items():
                np.testing.assert_array_equal(a, ref[v])

    def test_checkpoint_restores_last_good_and_rng(self, tiny, tmp_path):
        path = tmp_path / "cycler2.npz"
        good_before = (
            None if tiny.cycler._last_good is None
            else [st.copy() for st in tiny.cycler._last_good]
        )
        tiny.cycler.save(path)
        state_before = copy.deepcopy(tiny.cycler._rng.bit_generator.state)
        tiny.cycler._rng.normal(size=100)  # perturb the stream
        tiny.cycler._last_good = None
        tiny.cycler.load(path)
        assert tiny.cycler._rng.bit_generator.state == state_before
        assert (tiny.cycler._last_good is None) == (good_before is None)
        if good_before is not None:
            for st, ref in zip(tiny.cycler._last_good, good_before):
                np.testing.assert_array_equal(
                    st.fields["rhot_p"], ref.fields["rhot_p"]
                )

    def test_wrong_kind_rejected(self, tiny, tmp_path):
        path = tmp_path / "foreign.npz"
        save_checkpoint(path, {"kind": "fault-campaign"})
        with pytest.raises(ValueError, match="not a DACycler"):
            tiny.cycler.load(path)
