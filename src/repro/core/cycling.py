"""The 30-second data-assimilation cycle (part <1> of Fig. 2).

Each cycle: <1-2> every ensemble member is integrated 30 s from its
previous analysis (lateral boundaries from the outer domain), then
<1-1> the LETKF assimilates the newly arrived gridded radar volume into
the ensemble. The cycler is agnostic to where observations come from —
the OSSE harness feeds it simulated PAWR volumes, the quickstart feeds
it synthetic fields directly.

Degradation ladder (the paper's system stayed on-air for a month; the
cycler mirrors that by never letting a bad input kill the cycle):

1. ``analysis`` — the normal path: validated observations, full ensemble;
2. ``reduced`` — members lost or non-finite: the LETKF runs on the
   surviving subset, then lost members are refilled from survivors with
   spread re-inflation;
3. ``free-run`` — observations missing, wholly QC-rejected, or failing
   input validation: forecast-only cycle, no analysis;
4. ``rollback`` — the analysis (or the whole ensemble) went non-finite:
   the poisoned update is discarded and the last good state carries on.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..config import ExecutionConfig, LETKFConfig
from ..ingest.buffer import ADMIT, SKIP, SUBSTITUTE, WAIT, AdmissionDecision
from ..letkf.obsope import RadarObsOperator
from ..letkf.qc import GriddedObservations
from ..letkf.solver import AnalysisDiagnostics, LETKFSolver
from ..model.ensemble_state import EnsembleState
from ..model.model import ScaleRM
from ..model.state import ModelState
from ..telemetry import NULL_TELEMETRY, Telemetry
from .backends import ExecutionBackend, make_backend
from .ensemble import Ensemble

__all__ = ["CycleResult", "DACycler"]


@dataclass
class CycleResult:
    """What one cycle produced (timings feed the Fig. 4 decomposition)."""

    cycle: int
    t_valid: float
    forecast_seconds: float
    letkf_seconds: float
    diagnostics: AnalysisDiagnostics
    spread_theta: float
    #: which rung of the degradation ladder this cycle ran on
    mode: str = "analysis"
    #: members that contributed to the analysis (0 on free-run/rollback)
    n_members_used: int = 0
    #: members refilled from survivors this cycle
    n_members_recovered: int = 0
    #: observation volumes rejected by input validation
    n_volumes_rejected: int = 0
    rejection_reasons: tuple[str, ...] = ()
    #: ingest admission action that routed this cycle ("" when the
    #: observations were handed over directly, without an IngestBuffer)
    admission: str = ""

    @property
    def degraded(self) -> bool:
        return self.mode != "analysis"


class DACycler:
    """Runs parts <1-2> + <1-1> every 30 seconds, degrading gracefully."""

    def __init__(
        self,
        model: ScaleRM,
        ensemble: Ensemble,
        letkf_config: LETKFConfig,
        obs_operator: RadarObsOperator,
        *,
        cycle_seconds: float = 30.0,
        seed: int = 0,
        guard: bool = True,
        recovery_spread_factor: float = 0.5,
        backend: str | ExecutionConfig | ExecutionBackend | None = None,
        precision: str | None = None,
        telemetry: Telemetry | None = None,
        scope: dict[str, str] | None = None,
    ):
        self.model = model
        self.ensemble = ensemble
        #: extra labels stamped on every cycle-level metric ({} when the
        #: cycler runs stand-alone; a fleet sets {"tenant": <id>} so
        #: per-domain DA health rolls up per tenant in one registry)
        self.scope: dict[str, str] = dict(scope or {})
        #: injected telemetry bundle (tracer + metrics + kernel profiler);
        #: defaults to the shared no-op so un-instrumented cycles pay
        #: only attribute checks
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        if telemetry is not None:
            telemetry.instrument_model(model)
        #: hot-path precision mode ("single"/"double"): an explicit
        #: argument wins, else it is read off an
        #: :class:`~repro.config.ExecutionConfig` backend spec;
        #: ``None`` keeps the LETKF config's own dtype
        if precision is None and isinstance(backend, ExecutionConfig):
            precision = backend.precision
        self.letkf = LETKFSolver(
            model.grid, letkf_config, profiler=self.telemetry.profiler,
            precision=precision,
        )
        self.obsope = obs_operator
        #: precomputed "assimilable cells" mask: radar coverage ∩ the
        #: analysis level range dilated by the vertical stencil reach.
        #: Observations outside it cannot influence any analysis point,
        #: so screening against it up front is exact, and the per-cycle
        #: mask intersection is shared instead of re-derived.
        self._assimilable = obs_operator.assimilable_mask(
            self.letkf.level_mask, self.letkf.stencil_reach_k
        )
        self.cycle_seconds = cycle_seconds
        #: execution backend for the part <1-2> member forecasts
        self.backend = make_backend(backend)
        # a processes pool also row-shards the compacted LETKF
        # transform (bit-identical to the direct call); the in-process
        # backends leave the hook at None
        self.letkf.transform_runner = self.backend.letkf_runner
        #: NaN/Inf guards + rollback enabled (off = fail fast, for tests)
        self.guard = guard
        #: refilled members get this fraction of the survivors' spread
        #: re-injected as fresh perturbations
        self.recovery_spread_factor = recovery_spread_factor
        self._rng = np.random.default_rng(seed)
        self.results: list[CycleResult] = []
        self._cycle = 0
        #: batched copy of the ensemble after the last clean analysis that
        #: also *survived the following integration* — the rollback target
        #: when poison slips through. A fresh analysis is only a
        #: candidate (``_pending_good``) until the next cycle's forecast
        #: step proves it integrates without blowing up; promoting it
        #: immediately would let an unstable reduced-member analysis
        #: poison the rollback target itself.
        self._last_good: EnsembleState | None = None
        self._pending_good: EnsembleState | None = None

    # -- degraded-mode helpers -------------------------------------------

    def _refill_lost(self, lost: list[int], healthy: list[int]) -> None:
        """Replace lost members with survivor clones + re-inflated spread.

        A clone contributes zero spread, so each refilled member also
        receives fresh Gaussian perturbations scaled to a fraction of
        the survivors' current spread — the recovery-side analog of the
        spread maintenance the boundary perturbations provide normally.
        """
        arrays = self.ensemble.state.analysis_arrays(healthy)
        sigma = {
            v: max(float(a.std(axis=0).mean()), 1e-8) * self.recovery_spread_factor
            for v, a in arrays.items()
        }
        for i in lost:
            donor = healthy[int(self._rng.integers(len(healthy)))]
            clone = self.ensemble.state.member_view(donor).copy()
            ana = clone.to_analysis()
            for v in ana:
                noise = self._rng.normal(0.0, sigma[v], size=ana[v].shape)
                ana[v] = ana[v] + noise.astype(ana[v].dtype)
            clone.from_analysis(ana)
            self.ensemble.state.set_member(i, clone)

    def _snapshot_candidate(self) -> None:
        self._pending_good = self.ensemble.state.copy()

    def _promote_or_discard_candidate(self, all_finite: bool) -> None:
        """Candidate survived a full integration -> it becomes the
        rollback target; any member loss taints it instead."""
        if self._pending_good is not None:
            if all_finite:
                self._last_good = self._pending_good
            self._pending_good = None

    def _rollback(self) -> None:
        if self._last_good is None:
            raise RuntimeError(
                "ensemble is wholly non-finite and no good analysis exists "
                "to roll back to"
            )
        self.ensemble.state = self._last_good.copy()

    # --------------------------------------------------------------------

    def run_cycle(
        self,
        observations: list[GriddedObservations] | None = None,
        *,
        admission: AdmissionDecision | None = None,
    ) -> CycleResult:
        """One full 30-s cycle; degrades instead of failing on bad input.

        Observations arrive either directly (``observations``, the
        legacy path) or routed through an ingest
        :class:`~repro.ingest.buffer.AdmissionDecision`:

        * ``admit`` — assimilate the admitted scan's payload; this takes
          *exactly* the direct path (bit-identical to passing the same
          observations directly);
        * ``substitute-previous`` — assimilate the previous scan's
          payload as an explicitly degraded analysis (``mode ==
          "substitute"``, a new rung between ``reduced`` and
          ``free-run`` on the degradation ladder);
        * ``skip-cycle`` — no usable scan: forecast-only free run;
        * ``wait`` — not runnable; the caller must resolve the wait
          (deliver arrivals and re-decide) before cycling. Raises.
        """
        if admission is not None:
            if observations is not None:
                raise ValueError(
                    "pass observations directly or an admission decision, "
                    "not both"
                )
            if admission.action == WAIT:
                raise ValueError(
                    "a 'wait' decision is not runnable — re-decide at the "
                    "deadline before running the cycle"
                )
            if admission.action in (ADMIT, SUBSTITUTE):
                observations = admission.observations
            elif admission.action != SKIP:
                raise ValueError(
                    f"unknown admission action {admission.action!r}"
                )
        tel = self.telemetry
        tracer = tel.tracer
        with tracer.span("cycle", cycle=self._cycle + 1) as cyc_span:
            # --- part <1-2>: 30-second ensemble forecasts ------------------
            t0 = time.perf_counter()
            with tracer.span("forecast", backend=self.backend.name):
                with tracer.span(self.backend.name,
                                 members=self.ensemble.state.n_members):
                    self.ensemble.state = self.backend.forecast(
                        self.model, self.ensemble.state, self.cycle_seconds
                    )
            t_fcst = time.perf_counter() - t0

            t0 = time.perf_counter()
            mode = "analysis"
            n_recovered = 0

            with tracer.span("qc"):
                if self.guard:
                    alive = self.ensemble.state.finite_mask()
                    healthy = np.flatnonzero(alive).tolist()
                    lost = np.flatnonzero(~alive).tolist()
                    self._promote_or_discard_candidate(not lost)
                    if len(healthy) < 2:
                        # catastrophic loss: the whole ensemble (or all but
                        # one member) went non-finite — restore the last
                        # good analysis
                        self._rollback()
                        mode = "rollback"
                        healthy = list(range(len(self.ensemble)))
                        lost = []
                else:
                    # fail-fast path: no masking, no refill (for debugging)
                    healthy = list(range(len(self.ensemble)))
                    lost = []

                # --- input validation (the guard in front of the LETKF) ----
                obs_in = observations or []
                if self.guard:
                    obs_ok, reasons = self.obsope.screen(obs_in)
                else:
                    obs_ok, reasons = list(obs_in), []

                # restrict obs to the assimilable cells: instrument
                # coverage (Fig. 6b mask) ∩ stencil-dilated analysis levels
                masked = []
                for obs in obs_ok:
                    ob = obs.copy()
                    ob.valid &= self._assimilable
                    masked.append(ob)
                n_valid_total = sum(ob.n_valid for ob in masked)

            do_analysis = (
                mode != "rollback" and n_valid_total > 0 and len(healthy) >= 2
            )
            diag = AnalysisDiagnostics()

            with tracer.span("letkf", analysed=do_analysis):
                if do_analysis:
                    all_healthy = len(healthy) == len(self.ensemble)
                    batch = (
                        self.ensemble.state
                        if all_healthy
                        else self.ensemble.state.subset(healthy)
                    )
                    with tracer.span("obsope"):
                        hxb = self.obsope.hxb_ensemble(batch)
                        arrays = batch.analysis_arrays()
                    with tracer.span("solver"):
                        # the backend's sanitizer (the no-op unless
                        # armed) guards the LETKF step too
                        san = self.backend.sanitizer
                        # inputs arrive in the model grid's dtype; the
                        # solver casts to its own precision-mode dtype
                        # internally (asserted at the eigensolver)
                        san.check_dtype("letkf", arrays, self.model.grid.dtype)
                        inputs = {f"xb.{k}": v for k, v in arrays.items()}
                        inputs.update({f"hxb.{k}": v for k, v in hxb.items()})
                        with san.guard("letkf", inputs) as rec:
                            analysis, diag = self.letkf.analyze(
                                arrays, masked, hxb
                            )
                        san.check_outputs(rec, analysis)

                    with tracer.span("update"):
                        finite = all(
                            bool(np.all(np.isfinite(a))) for a in analysis.values()
                        )
                        if self.guard and not finite:
                            # NaN/Inf state guard: discard the poisoned
                            # update and keep the (finite) background — it
                            # descends from the last good analysis
                            mode = "rollback"
                        else:
                            if all_healthy:
                                self.ensemble.state.load_analysis(analysis)
                            else:
                                for row, i in enumerate(healthy):
                                    self.ensemble.state.member_view(i).from_analysis(
                                        {
                                            v: analysis[v][row]
                                            for v in ModelState.ANALYSIS_VARS
                                        }
                                    )
                            if lost:
                                mode = "reduced"
                elif mode != "rollback":
                    mode = "free-run"

                if lost:
                    self._refill_lost(lost, healthy)
                    n_recovered = len(lost)

                if (
                    admission is not None
                    and admission.action == SUBSTITUTE
                    and mode == "analysis"
                ):
                    # a clean analysis of the *previous* scan is still a
                    # degraded product: surface it as its own rung
                    mode = "substitute"

                if self.guard and mode in ("analysis", "reduced", "substitute"):
                    self._snapshot_candidate()
            t_letkf = time.perf_counter() - t0
            cyc_span.set(
                mode=mode,
                forecast_seconds=t_fcst,
                letkf_seconds=t_letkf,
                n_members_used=len(healthy) if do_analysis else 0,
            )

        # cycle-level metrics (no-ops on the null registry); ``scope``
        # adds the fleet's per-tenant labels when one is set
        scope = self.scope
        tel.counter("bda_cycles_total", help="DA cycles run", **scope).inc()
        if mode != "analysis":
            tel.counter("bda_degraded_cycles_total",
                        help="cycles served by a degraded path", **scope).inc()
        tel.histogram("bda_stage_seconds", help="per-stage wall time",
                      stage="forecast", **scope).observe(t_fcst)
        tel.histogram("bda_stage_seconds", help="per-stage wall time",
                      stage="letkf", **scope).observe(t_letkf)
        # per-block worker timings from the processes pool (none for
        # the in-process backends), merged into the same registry the
        # stage timers live in
        for rec in (*self.backend.last_timings, *self.backend.last_letkf_timings):
            tel.histogram(
                "bda_worker_block_seconds",
                help="per-worker block wall time (forecast member "
                     "block or LETKF row shard)",
                worker=str(rec["worker"]), op=rec["op"], **scope,
            ).observe(rec["seconds"])
        if t_fcst > 0:
            tel.gauge("bda_members_per_second",
                      help="ensemble-forecast throughput", **scope).set(
                self.ensemble.state.n_members / t_fcst
            )
        if do_analysis:
            tel.gauge("letkf_active_fraction",
                      help="fraction of analysis points with local obs",
                      **scope).set(
                diag.active_fraction
            )
            tel.gauge("letkf_obs_per_point",
                      help="mean valid local obs per active point",
                      **scope).set(
                diag.obs_per_point_mean
            )
        if admission is not None:
            tel.counter("bda_admissions_total",
                        help="cycles routed through ingest admission",
                        action=admission.action, **scope).inc()

        self._cycle += 1
        res = CycleResult(
            cycle=self._cycle,
            t_valid=self.ensemble.state.time,
            forecast_seconds=t_fcst,
            letkf_seconds=t_letkf,
            diagnostics=diag,
            spread_theta=self.ensemble.spread("theta_p"),
            mode=mode,
            n_members_used=len(healthy) if do_analysis else 0,
            n_members_recovered=n_recovered,
            n_volumes_rejected=len(obs_in) - len(obs_ok),
            rejection_reasons=tuple(reasons),
            admission=admission.action if admission is not None else "",
        )
        self.results.append(res)
        return res

    # -- checkpoint/restart ----------------------------------------------

    def state_dict(self) -> tuple[dict, dict[str, np.ndarray]]:
        """(meta, arrays) capturing everything the cycle recurrence reads.

        The batched layout writes each prognostic variable as one
        ``member_<v>`` ``(m, ...)`` array straight from the batch, plus
        ``member_aux_<k>`` for the per-member closure arrays (TKE, rain
        rate) that feed the physics recurrence.
        """
        arrays: dict[str, np.ndarray] = {}
        batch = self.ensemble.state
        for v, arr in batch.fields.items():
            arrays[f"member_{v}"] = arr.copy()
        for k, arr in batch.aux.items():
            arrays[f"member_aux_{k}"] = arr.copy()
        for tag, snap in (("lastgood", self._last_good), ("pending", self._pending_good)):
            if snap is not None:
                for v, arr in snap.fields.items():
                    arrays[f"{tag}_{v}"] = arr.copy()
                for k, arr in snap.aux.items():
                    arrays[f"{tag}_aux_{k}"] = arr.copy()
        meta = {
            "kind": "da-cycler",
            "model_nsteps": self.model.nsteps,
            "member_nsteps": batch.nsteps,
            "cycle": self._cycle,
            "member_times": [batch.time] * batch.n_members,
            "lastgood_times": (
                [self._last_good.time] * self._last_good.n_members
                if self._last_good is not None
                else None
            ),
            "lastgood_nsteps": (
                self._last_good.nsteps if self._last_good is not None else None
            ),
            "pending_times": (
                [self._pending_good.time] * self._pending_good.n_members
                if self._pending_good is not None
                else None
            ),
            "pending_nsteps": (
                self._pending_good.nsteps if self._pending_good is not None else None
            ),
            "rng_state": self._rng.bit_generator.state,
            "obsope_last_t_valid": self.obsope._last_t_valid,
        }
        return meta, arrays

    def load_state_dict(self, meta: dict, arrays: dict[str, np.ndarray]) -> None:
        if meta.get("kind") != "da-cycler":
            raise ValueError("not a DACycler checkpoint")
        batch = self.ensemble.state
        for v in batch.fields:
            batch.fields[v][...] = arrays[f"member_{v}"]
        batch.time = float(meta["member_times"][0])
        batch.nsteps = int(meta.get("member_nsteps", meta.get("model_nsteps", 0)))
        batch.aux.clear()
        for key, arr in arrays.items():
            if key.startswith("member_aux_"):
                batch.aux[key[len("member_aux_"):]] = arr.copy()

        def _restore(tag: str, times) -> EnsembleState | None:
            if times is None:
                return None
            fields = {v: arrays[f"{tag}_{v}"].copy() for v in batch.fields}
            aux = {
                key[len(f"{tag}_aux_"):]: arr.copy()
                for key, arr in arrays.items()
                if key.startswith(f"{tag}_aux_")
            }
            nsteps = meta.get(f"{tag}_nsteps")
            return EnsembleState(
                grid=batch.grid,
                reference=batch.reference,
                fields=fields,
                time=float(times[0]),
                nsteps=int(nsteps) if nsteps is not None else batch.nsteps,
                aux=aux,
            )

        self._last_good = _restore("lastgood", meta["lastgood_times"])
        self._pending_good = _restore("pending", meta.get("pending_times"))
        self.model.nsteps = int(meta.get("model_nsteps", self.model.nsteps))
        self._cycle = int(meta["cycle"])
        self._rng.bit_generator.state = meta["rng_state"]
        self.obsope._last_t_valid = meta["obsope_last_t_valid"]

    def save(self, path: str | Path) -> None:
        """Atomic checkpoint; :meth:`load` resumes bit-identically."""
        from ..resilience.checkpoint import save_checkpoint

        meta, arrays = self.state_dict()
        save_checkpoint(path, meta, arrays)

    def load(self, path: str | Path) -> None:
        from ..resilience.checkpoint import load_checkpoint

        meta, arrays = load_checkpoint(path)
        self.load_state_dict(meta, arrays)
