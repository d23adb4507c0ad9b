"""Every metric the benchmark reports: name, unit, direction, meaning.

``BENCHMARK.json`` at the repository root carries the same names (a
self-test keeps the two in step); the longer definitions and the
"which end-to-end metric should this move, on which workload" column
live here and in the README, because the driver's file admits no extra
keys.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Metric", "END_TO_END", "PER_LAYER"]


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    #: what is measured
    definition: str
    #: regression bound, share of the parent's median (end-to-end only)
    bound: float | None = None
    #: which end-to-end metric it should move, on which workload
    moves: str = ""


END_TO_END = (
    Metric("setup_s", "s", "lower",
           "imports, then the median of five full set-ups: system build, "
           "spin-up, server start, warm-up cycles", bound=0.10),
    Metric("tts_p50_s", "s", "lower",
           "start of pawr.scan -> tile body received, admitted cycles only: "
           "the paper's time-to-solution", bound=0.10),
    Metric("refresh_p50_s", "s", "lower",
           "wall time of BDASystem.assimilate (part <1>): the sustainable "
           "refresh period, which the paper holds under 30 s", bound=0.10),
    Metric("ingest_p50_s", "s", "lower",
           "start of encode -> admission decision returned (encode, send "
           "with retransmits, decode, regrid, envelope, offer, decide), "
           "admitted cycles only", bound=0.10),
    Metric("analysis_rmse_theta", "K", "lower",
           "mean over timed cycles of BDASystem.analysis_rmse('theta_p') "
           "against the nature run", bound=0.05),
    Metric("peak_rss_mb", "MB", "lower",
           "ru_maxrss of the runner plus its largest worker at exit", bound=0.10),
    Metric("tile_req_per_s", "1/s", "higher",
           "completed tile requests / wall seconds of one publish epoch "
           "(publish wait included), median over the epochs", bound=0.10),
    Metric("tile_p50_ms", "ms", "lower",
           "tile request latency, send -> body read, all requests", bound=0.10),
    Metric("tile_p99_ms", "ms", "lower",
           "99th percentile of the same within one publish epoch (all "
           "clients), median over the epochs", bound=0.10),
    Metric("tile_200_p50_ms", "ms", "lower",
           "latency of payload-carrying 200 responses only (render or "
           "render-cache path, not 304)", bound=0.10),
)

_TTS = "tts_p50_s (all coupled)"
_INGEST = "ingest_p50_s (scan_ingest)"
_REFRESH = "refresh_p50_s, tts_p50_s (scan_to_tile)"
_TILES = "tile_* (tile_serving)"

PER_LAYER = (
    # radar
    Metric("radar.scan.ms", "ms", "lower", "PAWRSimulator.scan", moves=_TTS),
    Metric("radar.encode.ms", "ms", "lower", "VolumeScan.encode", moves=_INGEST),
    Metric("radar.decode.ms", "ms", "lower",
           "decode_volume + VolumeScan rebuilt from the wire bytes", moves=_INGEST),
    Metric("radar.regrid.ms", "ms", "lower", "volume_to_grid", moves=_INGEST),
    Metric("radar.volume.bytes", "bytes", "lower", "encoded volume bytes, run total"),
    Metric("radar.obs_valid.count", "count", "higher",
           "valid gridded observation cells, run total"),
    # jitdt
    Metric("jitdt.send.ms", "ms", "lower", "TransferEngine.send",
           moves=f"{_INGEST}, of which it is 6 %"),
    Metric("jitdt.goodput_mb_per_s", "MB/s", "higher",
           "payload bytes / real busy seconds of send",
           moves=f"{_INGEST}, of which the send is 6 %"),
    Metric("jitdt.chunks.count", "count", "lower", "wire chunks, run total"),
    Metric("jitdt.retransmits.count", "count", "lower",
           "retransmit rounds the CRC layer asked for, run total"),
    Metric("jitdt.corrupt_chunks.count", "count", "lower",
           "chunks the receiver rejected, run total"),
    # ingest
    Metric("ingest.envelope.ms", "ms", "lower",
           "envelope_from_observations (content hash)", moves=_INGEST),
    Metric("ingest.offer.ms", "ms", "lower", "IngestBuffer.offer, summed per cycle",
           moves=_INGEST),
    Metric("ingest.decide.ms", "ms", "lower", "IngestBuffer.decide", moves=_INGEST),
    Metric("ingest.admitted.count", "count", "higher", "cycles admitted"),
    Metric("ingest.substituted.count", "count", "lower",
           "cycles run on the previous scan"),
    Metric("ingest.skipped.count", "count", "lower", "cycles with nothing to assimilate"),
    Metric("ingest.duplicate.count", "count", "lower", "deliveries dropped as duplicates"),
    Metric("ingest.stale.count", "count", "lower",
           "deliveries dropped behind the watermark"),
    Metric("ingest.admit_ratio", "ratio", "higher", "admitted / timed cycles",
           moves="attempted/failed (scan_ingest)"),
    # letkf
    Metric("letkf.screen.ms", "ms", "lower", "RadarObsOperator.screen", moves=_REFRESH),
    Metric("letkf.obsope.ms", "ms", "lower", "RadarObsOperator.hxb_ensemble",
           moves=_REFRESH),
    Metric("letkf.analyze.ms", "ms", "lower", "LETKFSolver.analyze", moves=_REFRESH),
    Metric("letkf.transform.ms", "ms", "lower",
           "the transform_runner hook (letkf_transform), summed over chunks",
           moves=_REFRESH),
    Metric("letkf.analyze.self_ms", "ms", "lower",
           "analyze minus transform: gather, compaction, weight apply, scatter",
           moves=_REFRESH),
    Metric("letkf.active_rows.count", "count", "lower",
           "analysis points updated, run total"),
    Metric("letkf.active_fraction", "ratio", "lower",
           "mean fraction of analysis points with local observations"),
    Metric("letkf.obs_per_point.mean", "count", "lower",
           "mean valid local observations per active point"),
    Metric("letkf.obs_used.count", "count", "higher",
           "observations that passed QC, run total"),
    # eigen
    Metric("eigen.eigh.ms", "ms", "lower",
           "isolated-kernel replay: eigh_dispatch with the default solver, in "
           "one process, on the eigenproblems of one cycle's transforms "
           "(captured at the hook, in the solver's dtype)",
           moves="bounds what letkf.transform.ms can gain (scan_to_tile)"),
    Metric("eigen.eigh.batch.count", "count", "lower",
           "eigensolve batches (transform calls) on traced cycles"),
    Metric("eigen.eigh.gflop_computed", "gflop", "lower",
           "9 m^3 per matrix over those batches: computed, not measured"),
    # model
    Metric("model.forecast.ms", "ms", "lower", "part <1-2> backend.forecast",
           moves="refresh_p50_s, tts_p50_s (model_procs)"),
    Metric("model.forecast.member_steps.count", "count", "lower",
           "members x time steps of part <1-2> on traced cycles"),
    Metric("model.forecast.member_steps_per_s", "1/s", "higher",
           "that count / summed model.forecast seconds",
           moves="refresh_p50_s (model_procs)"),
    Metric("model.part2.ms", "ms", "lower", "part <2> backend.forecast, summed per cycle",
           moves="tts_p50_s (model_procs)"),
    # core
    Metric("core.assimilate.ms", "ms", "lower", "BDASystem.assimilate",
           moves="refresh_p50_s (all coupled)"),
    Metric("core.assimilate.self_ms", "ms", "lower",
           "assimilate minus its children: ladder, health checks, rollback snapshot",
           moves=_TTS),
    Metric("core.part2.ms", "ms", "lower", "BDASystem.forecast", moves=_TTS),
    Metric("core.part2.self_ms", "ms", "lower",
           "forecast minus model.part2: member pick, reflectivity snapshots",
           moves=_TTS),
    Metric("core.mean_state.ms", "ms", "lower", "Ensemble.mean_state", moves=_TTS),
    Metric("core.product_write.ms", "ms", "lower", "ProductWriter.write", moves=_TTS),
    Metric("core.product.bytes", "bytes", "lower", "product files written, run total"),
    Metric("core.catalog_publish.ms", "ms", "lower", "ProductCatalog.publish", moves=_TTS),
    Metric("core.backends.block_ms", "ms", "lower",
           "mean worker block of part <1-2> (public last_timings; the whole "
           "call on in-process backends)",
           moves="refresh_p50_s (model_procs)"),
    Metric("core.backends.block_skew", "ratio", "lower",
           "slowest / mean worker block: the slowest block sets the forecast time",
           moves="refresh_p50_s (model_procs)"),
    Metric("core.backends.workers.count", "count", "higher",
           "worker blocks per part <1-2> forecast"),
    # serving
    Metric("serving.publish.ms", "ms", "lower",
           "ServingStore.publish on the server loop, caller's wait", moves=_TILES),
    Metric("serving.tile_get.ms", "ms", "lower", "one tile GET, send -> body read",
           moves=f"{_TILES}; tts_p50_s tail (coupled)"),
    Metric("serving.handle.ms", "ms", "lower", "ServingAPI.handle on the server thread",
           moves=_TILES),
    Metric("serving.wire.ms", "ms", "lower",
           "tile_get minus handle: HTTP parse, asyncio, socket", moves=_TILES),
    Metric("serving.requests.count", "count", "higher", "requests handled, timed phase"),
    Metric("serving.not_modified.count", "count", "higher", "304 answers"),
    Metric("serving.rendered.count", "count", "lower", "tiles rendered (cache misses)"),
    Metric("serving.cache_hit_ratio", "ratio", "higher",
           "(304s + render-cache hits) / tile requests", moves=_TILES),
    Metric("serving.shed.count", "count", "lower", "requests shed with 429"),
    Metric("serving.bytes_out", "bytes", "lower", "tile body bytes received"),
    # trace
    Metric("trace.coverage_ratio", "ratio", "higher",
           "top-level spans / time-to-solution, median over traced cycles"),
    Metric("trace.overhead_ratio", "ratio", "lower",
           "traced / untraced median tts (tile latency on tile_serving), "
           "cycles (epochs) alternating within the traced run; every request "
           "of a traced epoch carries spans"),
)
