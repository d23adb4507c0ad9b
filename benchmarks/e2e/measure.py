"""Run one workload and turn what was seen into the named metrics.

End-to-end metrics come from clock stamps around the benchmark's own
calls, with tracing off. The traced run alternates untraced and traced
cycles (epochs on ``tile_serving``, where every request of a traced
epoch carries spans): the traced half gives the per-layer numbers, the
untraced half is the reference the tracing overhead is measured
against, in the same process and against the same drift.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

from catalogue import PER_LAYER
from chain import TENANT as CHAIN_TENANT
from chain import Chain, peak_rss_mb, replay_eigensolves
from spans import NULL_TRACER, SpanTree, Tracer
from tileload import TileLoad, publish_storm, trace_parent
from workloads import CASE_SEED, WARMUP_CYCLES, workload

__all__ = ["run_workload"]

TILE_TENANT = "tiles"
#: flops of one m x m symmetric eigendecomposition with vectors
#: (tridiagonalisation 4/3, QL with vectors ~6, back-transform 2), times m^3
EIGH_FLOP_FACTOR = 9.0
#: spans cover at least this share of time-to-solution, or the run fails
COVERAGE_FLOOR = 0.95
#: the issue's bar for traced / untraced; a run above it says so
OVERHEAD_BAR = 1.05
#: ... and above this one it fails. The ratio of two medians of 12
#: cycles, or of 27 epochs, repeats within about +-0.02; a gate at the
#: bar itself would fail good runs.
OVERHEAD_LIMIT = 1.10
#: the non-overlapping spans whose sum is a layer's share of a cycle
#: (letkf.transform runs inside letkf.analyze and is not added again);
#: ``ingest_path`` is not a layer but the spans ``ingest_p50_s`` is made of
_LAYER_SPANS = {
    "radar": ("radar.scan", "radar.encode", "radar.decode", "radar.regrid"),
    "jitdt": ("jitdt.send",),
    "ingest": ("ingest.envelope", "ingest.offer", "ingest.decide"),
    "letkf": ("letkf.screen", "letkf.obsope", "letkf.analyze"),
    "model": ("model.forecast", "model.part2"),
    "ingest_path": ("radar.encode", "jitdt.send", "radar.decode", "radar.regrid",
                    "ingest.envelope", "ingest.offer", "ingest.decide"),
}


def run_workload(name: str, *, seed: int, seconds: float, trace: bool,
                 smoke: bool, output_dir, t_start: float, setups: int) -> dict:
    w = workload(name, smoke=smoke)
    n_cycles = w.chain.cycles if smoke else w.chain.timed_cycles(seconds)
    problems: list[str] = []
    imports_s = perf_counter() - t_start

    # -- set-up, several times over; the last one is measured on ----------
    setup_times = []
    chain = None
    for i in range(setups):
        t0 = perf_counter()
        chain = Chain(w.chain, seed, output_dir)
        try:
            for _ in range(WARMUP_CYCLES):
                problems += chain.run_cycle().failures
        except BaseException:
            chain.close()
            raise
        setup_times.append(perf_counter() - t0)
        if i < setups - 1:
            problems += chain.close()

    tracer = Tracer() if trace else NULL_TRACER
    coupled = w.tiles.shape is None
    n_epochs = n_cycles if coupled else (
        w.tiles.epochs if smoke else w.tiles.timed_epochs(seconds)
    )
    load = None
    try:
        load = TileLoad(
            chain.server, tenant=CHAIN_TENANT if coupled else TILE_TENANT,
            seed=seed, n_clients=w.tiles.clients, per_epoch=w.tiles.per_epoch,
            epochs=n_epochs + 1, fresh_visitors=coupled,
        )
        counters0 = dict(chain.buffer.counters)
        samples, publish_ms = [], []
        if coupled:
            load.epoch(chain.cycle, timed=False)
            serving0 = _serving_counts(chain.server.api)
        for i in range(n_cycles):
            samples.append(chain.run_cycle(tracer if i % 2 else NULL_TRACER))
            if coupled:
                load.epoch(chain.cycle)
        if not coupled:
            # The reference chain is done; now the serving-only load: a
            # publish before every epoch, alternate epochs traced. The
            # storm is one fixed case, as the weather is: its track
            # decides how many tiles a publish invalidates, and with it
            # where the 99th percentile falls. --seed draws the requests.
            publish_storm(chain.server, TILE_TENANT, w.tiles.shape, CASE_SEED, 1)
            load.epoch(1, timed=False)
            serving0 = _serving_counts(chain.server.api)
            # The handler stays wrapped throughout (a request without a
            # trace header passes straight through): wrapping it anew
            # for each traced epoch slowed every request of that epoch
            # by ~3 %, traced or not.
            with tracer.wrapped(chain.server.api, "handle", "serving.handle",
                                parent_of=trace_parent):
                for e in range(2, n_epochs + 2):
                    tr = tracer if e % 2 else NULL_TRACER
                    if tr.enabled:
                        tr.cycle = (TILE_TENANT, float(e))
                    with tr.span("serving.publish"):
                        publish_ms.append(publish_storm(
                            chain.server, TILE_TENANT, w.tiles.shape, CASE_SEED, e
                        ))
                    load.epoch(e, tr)
        serving = _delta(_serving_counts(chain.server.api), serving0)
        ingest = _delta(chain.buffer.counters, counters0)
        problems += chain.buffer.verify_invariants()
        replay = replay_eigensolves(chain) if trace else {}
    finally:
        if load is not None:
            load.close()
        problems += chain.close()
    tiles = load.results()
    tiles["publish_ms"] = publish_ms

    # -- checks over the whole run ----------------------------------------
    failed_cycles = [s for s in samples if s.failures]
    for s in failed_cycles[:5]:
        problems.append(f"cycle {s.cycle}: " + "; ".join(s.failures))
    problems += tiles["failures"][:5]
    if samples[-1].rmse_theta > samples[0].rmse_theta:
        problems.append(
            f"analysis error grew over the run: {samples[0].rmse_theta:.4g} K "
            f"-> {samples[-1].rmse_theta:.4g} K"
        )
    if serving["shed"] or serving["errors_4xx"]:
        problems.append(f"server shed {serving['shed']} requests, "
                        f"answered {serving['errors_4xx']} with 4xx")
    n_requests = int(len(tiles["latency_ms"]))
    attempted = len(samples) + n_requests
    failed = len(failed_cycles) + len(tiles["failures"])

    report = {
        "workload": name, "loop": w.loop, "cycles": len(samples),
        "requests": n_requests, "attempted": attempted, "failed": failed,
        "notes": [], "samples": {},
    }
    if trace:
        tree = SpanTree(tracer.spans)
        report["metrics"] = _per_layer(
            samples, tree, replay, ingest, serving, tiles, coupled, report
        )
        if not smoke:       # timing ratios of a few samples mean nothing
            problems += _instrument_checks(report)
        problems += _separation(w, tree, report)
        tracer.write_jsonl(output_dir / f"trace-{name}.jsonl")
    else:
        report["metrics"] = _end_to_end(
            samples, tiles, imports_s + statistics.median(setup_times), report
        )
        report["notes"].append(
            f"set-up: imports {imports_s:.3f} s, then "
            + ", ".join(f"{t:.3f}" for t in setup_times) + " s"
        )
    report["problems"] = problems
    report["correct"] = failed == 0 and not problems
    return report


# -- end-to-end ----------------------------------------------------------


def _end_to_end(samples, tiles, setup_s, report) -> dict:
    admitted = [s for s in samples if s.admitted]
    latency, status, epoch = tiles["latency_ms"], tiles["status"], tiles["epoch"]
    # Rate and tail are taken per epoch and the median epoch is reported:
    # a passing stall on the host (half a second of a neighbour) lands in
    # one or two epochs and, pooled, would move either by 10-30 %.
    # A publish is part of serving: its wait counts against the rate.
    walls = tiles["wall_s"]
    waits = tiles["publish_ms"] or [0.0] * len(walls)
    rates, tails = [], []
    for e, (wall_s, wait_ms) in enumerate(zip(walls, waits)):
        mine = latency[epoch == e]
        rates.append(len(mine) / (wall_s + wait_ms / 1e3))
        tails.append(float(np.percentile(mine, 99)))
    out = {
        "setup_s": setup_s,
        "tts_p50_s": statistics.median(s.tts_s for s in admitted),
        "refresh_p50_s": statistics.median(s.refresh_s for s in samples),
        "ingest_p50_s": statistics.median(s.ingest_s for s in admitted),
        "analysis_rmse_theta": statistics.fmean(s.rmse_theta for s in samples),
        "peak_rss_mb": peak_rss_mb(),
        "tile_req_per_s": statistics.median(rates),
        "tile_p50_ms": float(np.median(latency)),
        "tile_p99_ms": statistics.median(tails),
        "tile_200_p50_ms": float(np.median(latency[status == 200])),
    }
    n200 = int(np.count_nonzero(status == 200))
    report["samples"] = {
        "tts_p50_s": len(admitted), "refresh_p50_s": len(samples),
        "ingest_p50_s": len(admitted), "analysis_rmse_theta": len(samples),
        "tile_req_per_s": len(walls), "tile_p50_ms": len(latency),
        "tile_p99_ms": len(walls), "tile_200_p50_ms": n200,
    }
    return out


# -- per layer -----------------------------------------------------------


def _per_layer(samples, tree, replay, ingest, serving, tiles, coupled, report) -> dict:
    roots = tree.roots("cycle")
    parts = [tree.breakdown(r) for r in roots]

    def p50(name: str, own: bool = False) -> float:
        return statistics.median(p[own].get(name, 0.0) for p in parts)

    out = {m.name: 0.0 for m in PER_LAYER}
    report["samples"] = {m.name: len(roots) for m in PER_LAYER if m.unit == "ms"}
    for name in ("radar.scan", "radar.encode", "radar.decode", "radar.regrid",
                 "jitdt.send", "ingest.envelope", "ingest.offer", "ingest.decide",
                 "letkf.screen", "letkf.obsope", "letkf.analyze", "letkf.transform",
                 "model.forecast", "model.part2", "core.assimilate", "core.part2",
                 "core.mean_state", "core.product_write", "core.catalog_publish",
                 "serving.publish", "serving.tile_get", "serving.handle"):
        out[f"{name}.ms"] = p50(name)
    for name in ("letkf.analyze", "core.assimilate", "core.part2"):
        out[f"{name}.self_ms"] = p50(name, own=True)
    out["serving.wire.ms"] = statistics.median(
        p[0].get("serving.tile_get", 0.0) - p[0].get("serving.handle", 0.0)
        for p in parts
    )

    # counts: run totals over every timed cycle, traced or not
    out["radar.volume.bytes"] = sum(s.volume_bytes for s in samples)
    out["radar.obs_valid.count"] = sum(s.obs_valid for s in samples)
    out["jitdt.chunks.count"] = sum(s.chunks for s in samples)
    out["jitdt.retransmits.count"] = sum(s.retransmits for s in samples)
    out["jitdt.corrupt_chunks.count"] = sum(s.corrupt_chunks for s in samples)
    out["ingest.admitted.count"] = ingest["admitted"]
    out["ingest.substituted.count"] = ingest["substituted"]
    out["ingest.skipped.count"] = ingest["skipped"]
    out["ingest.duplicate.count"] = ingest["duplicate"]
    out["ingest.stale.count"] = ingest["stale"]
    out["ingest.admit_ratio"] = ingest["admitted"] / len(samples)
    out["letkf.active_rows.count"] = sum(s.active_rows for s in samples)
    out["letkf.active_fraction"] = statistics.fmean(s.active_fraction for s in samples)
    out["letkf.obs_per_point.mean"] = statistics.fmean(s.obs_per_point for s in samples)
    out["letkf.obs_used.count"] = sum(s.obs_used for s in samples)
    out["core.product.bytes"] = sum(s.product_bytes for s in samples)

    # counts and rates measured at wrapped calls (traced cycles)
    spans = [s for r in roots for s in tree.descendants(r)]
    sends = [s for s in spans if s[1] == "jitdt.send"]
    traced_bytes = sum(s.volume_bytes for s in samples if s.traced)
    out["jitdt.goodput_mb_per_s"] = (
        traced_bytes / 1e6 / (sum(tree.ms(s) for s in sends) / 1e3)
    )
    forecasts = [s for s in spans if s[1] == "model.forecast"]
    steps = sum(s[6]["member_steps"] for s in forecasts)
    out["model.forecast.member_steps.count"] = steps
    out["model.forecast.member_steps_per_s"] = steps / (
        sum(tree.ms(s) for s in forecasts) / 1e3
    )
    blocks = [s[6]["blocks_ms"] or [tree.ms(s)] for s in forecasts]
    out["core.backends.block_ms"] = statistics.median(
        statistics.fmean(b) for b in blocks
    )
    out["core.backends.block_skew"] = statistics.median(
        max(b) / statistics.fmean(b) for b in blocks
    )
    out["core.backends.workers.count"] = max(len(b) for b in blocks)

    # eigen: isolated-kernel replay of the shapes the transform hook saw
    transforms = [s for s in spans if s[1] == "letkf.transform"]
    per_cycle: dict[int, float] = {}
    for root in roots:
        per_cycle[root[0]] = sum(
            replay[(s[6]["rows"], s[6]["members"], s[6]["dtype"])]
            for s in tree.descendants(root) if s[1] == "letkf.transform"
        )
    out["eigen.eigh.ms"] = statistics.median(per_cycle.values())
    out["eigen.eigh.batch.count"] = len(transforms)
    out["eigen.eigh.gflop_computed"] = sum(
        s[6]["rows"] * EIGH_FLOP_FACTOR * s[6]["members"] ** 3 for s in transforms
    ) / 1e9

    # serving counts over the timed phase of the serving section
    out["serving.requests.count"] = serving["requests"]
    out["serving.not_modified.count"] = serving["tile_not_modified"]
    out["serving.rendered.count"] = serving["rendered"]
    out["serving.cache_hit_ratio"] = (
        (serving["tile_not_modified"] + serving["cache_hits"])
        / serving["tile_requests"]
    )
    out["serving.shed.count"] = serving["shed"]
    out["serving.bytes_out"] = tiles["bytes_out"]

    tts = {True: [], False: []}
    for s in samples:
        if s.admitted:
            tts[s.traced].append(s.tts_s)
    overhead = statistics.median(tts[True]) / statistics.median(tts[False])
    if not coupled:
        # the serving-only load is what this workload measures
        gets = {s[0]: s for s in tree.children.get(None, [])
                if s[1] == "serving.tile_get" and s[5][0] == TILE_TENANT}
        handle_of = {s[4]: s for s in tree.by_id.values()
                     if s[1] == "serving.handle" and s[4] in gets}
        get_ms = np.array([tree.ms(s) for s in gets.values()])
        handle_ms = np.array([tree.ms(handle_of[i]) for i in gets])
        out["serving.tile_get.ms"] = float(np.median(get_ms))
        out["serving.handle.ms"] = float(np.median(handle_ms))
        out["serving.wire.ms"] = float(np.median(get_ms - handle_ms))
        out["serving.publish.ms"] = statistics.median(tiles["publish_ms"])
        report["samples"].update({
            "serving.tile_get.ms": len(gets), "serving.handle.ms": len(gets),
            "serving.wire.ms": len(gets),
            "serving.publish.ms": len(tiles["publish_ms"]),
        })
        traced = tiles["traced"]
        overhead = float(
            np.median(tiles["latency_ms"][traced]) / np.median(tiles["latency_ms"][~traced])
        )
    out["trace.coverage_ratio"] = statistics.median(
        tree.child_ms(r) / tree.ms(r) for r in roots
    )
    out["trace.overhead_ratio"] = overhead

    return out


def _instrument_checks(report) -> list[str]:
    """The traced run has to be a fair picture of the untraced one."""
    m = report["metrics"]
    problems = []
    if m["trace.coverage_ratio"] < COVERAGE_FLOOR:
        problems.append(
            f"spans cover {m['trace.coverage_ratio']:.1%} of time-to-solution, "
            f"below {COVERAGE_FLOOR:.0%}"
        )
    overhead = m["trace.overhead_ratio"]
    if overhead > OVERHEAD_LIMIT:
        problems.append(f"tracing slows what it measures by {overhead - 1:.1%}")
    elif overhead > OVERHEAD_BAR:
        report["notes"].append(
            f"WARNING: tracing overhead {overhead:.3f} is above the {OVERHEAD_BAR} bar"
        )
    # the replay is one process solving what the transform's workers
    # shared between them: it cannot take longer than that many transforms
    budget = m["letkf.transform.ms"] * m["core.backends.workers.count"]
    if m["eigen.eigh.ms"] > budget:
        problems.append(
            f"eigensolver replay ({m['eigen.eigh.ms']:.1f} ms) exceeds the "
            f"transform it is part of ({budget:.1f} ms): it does not stand for "
            "the in-situ kernel"
        )
    return problems


def _separation(w, tree: SpanTree, report) -> list[str]:
    """Each workload must be dominated by the layers it exists for."""
    problems = []
    cycles = [(tree.breakdown(r)[0], tree.ms(r)) for r in tree.roots("cycle")]
    shares = {
        layer: statistics.median(
            sum(total.get(n, 0.0) for n in names) / ms for total, ms in cycles
        )
        for layer, names in _LAYER_SPANS.items()
    }
    report["notes"].append(
        "share of time-to-solution: "
        + ", ".join(f"{k} {v:.1%}" for k, v in shares.items())
    )
    for layers, floor in w.floors:
        share = sum(shares[layer] for layer in layers)
        if share < floor:
            problems.append(
                f"{'+'.join(layers)} is {share:.1%} of time-to-solution, "
                f"below the {floor:.0%} this workload exists for"
            )
    execution = w.chain.execution
    want = execution.get("workers", 1) if isinstance(execution, dict) else 1
    if report["metrics"]["core.backends.workers.count"] < want:
        problems.append(f"fewer than {want} worker processes ran")
    if w.tiles.shape is not None:
        stray = {
            s[1] for s in tree.by_id.values()
            if s[5] is not None and s[5][0] == TILE_TENANT
            and s[1].split(".")[0] in ("model", "letkf", "radar")
        }
        if stray:
            problems.append(f"compute spans on the serving path: {sorted(stray)}")
    return problems


def _serving_counts(api) -> dict:
    return dict(api.stats, rendered=api.tiles.misses, cache_hits=api.tiles.hits)


def _delta(now: dict, before: dict) -> dict:
    return {k: now[k] - before[k] for k in before}

