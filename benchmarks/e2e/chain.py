"""The coupled chain: radar scan in, served tile out, one cycle at a time.

Every call below is the program's own public code path; the benchmark
only sequences them and stamps the clock between them. Per cycle::

    pawr.scan -> VolumeScan.encode -> TransferEngine.send -> decode_volume
    -> VolumeScan rebuilt from the decoded bytes -> volume_to_grid
    -> content-hashed ScanEnvelope -> IngestBuffer.offer / decide
    -> BDASystem.assimilate(admission=...)      part <1-2> + <1-1>
    -> BDASystem.forecast                       part <2>
    -> ProductWriter.write + ProductCatalog.publish -> ServingStore.publish
    -> HTTP GET .../tiles/rain/latest/0/0/0.png over loopback

The nature-run step and the spread injection (``prepare_cycle``) are
the untimed load generator. The loop is closed: one cycle in flight,
the next starts when the tile of the last has been read (and, in a
full run, when the map viewers have polled it).
"""

from __future__ import annotations

import heapq
import multiprocessing
import os
import resource
import shutil
import signal
import socket
import tempfile
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter

import numpy as np

from repro.api.config import (
    ExecutionConfig,
    JITDTConfig,
    LETKFConfig,
    RadarConfig,
    ScaleConfig,
)
from repro.api.core import BDASystem, CatalogEntry, ProductCatalog, ProductWriter
from repro.api.ingest import IngestBuffer, StreamFaultInjector
from repro.api.serving import PublishedCycle
from repro.eigen import eigh_dispatch
from repro.ingest import ADMIT, SKIP, SUBSTITUTE, envelope_from_observations
from repro.jitdt import SINETLink, TransferEngine
from repro.letkf import letkf_transform
from repro.radar import PAWRSimulator, VolumeScan, decode_volume, volume_to_grid

from spans import NULL_TRACER
from tileload import ServerThread, TileClient, check_png, trace_parent
from workloads import CASE_SEED

__all__ = ["Chain", "CycleSample", "replay_eigensolves", "peak_rss_mb", "stop_children"]

RADAR_ID = "mp-pawr"
TENANT = "chain"
#: the tile whose arrival ends a cycle's time-to-solution
TTS_TILE = f"/v1/{TENANT}/tiles/rain/latest/0/0/0.png"
#: logical seconds from scan completion to a fault-free delivery, and
#: the budget a cycle waits for its scan; they order the arrival stream
#: for the ingest buffer and appear in no reported metric
READY_S = 3.0
WAIT_BUDGET_S = 15.0
#: volumes here are ~1/40 of the paper's 100 MB, and so is the chunk
CHUNK_BYTES = 256 * 1024
#: which rung of the cycler's ladder an admission action must land on
MODE_OF = {ADMIT: "analysis", SUBSTITUTE: "substitute", SKIP: "free-run"}


@dataclass
class CycleSample:
    """What the benchmark saw of one cycle, from outside."""

    cycle: int
    traced: bool
    tts_s: float
    refresh_s: float
    ingest_s: float
    action: str
    rmse_theta: float
    volume_bytes: int
    obs_valid: int
    chunks: int
    retransmits: int
    corrupt_chunks: int
    active_rows: int
    active_fraction: float
    obs_per_point: float
    obs_used: int
    product_bytes: int
    #: every way this cycle differed from what the seed predicts
    failures: list[str] = field(default_factory=list)

    @property
    def admitted(self) -> bool:
        return self.action == ADMIT


class Chain:
    """One coupled tenant, its wire, its ingest buffer and its server."""

    def __init__(self, size, seed: int, output_dir: Path):
        self.size = size
        self.seed = int(seed)
        scale = ScaleConfig().reduced(nx=size.nx, nz=size.nz, members=size.members)
        # eigensolver and dtype are left at their defaults on purpose:
        # a change of production default has to show in these numbers
        letkf = LETKFConfig(ensemble_size=size.members)
        if size.localization is not None:
            letkf = replace(
                letkf, localization_h=size.localization[0],
                localization_v=size.localization[1],
            )
        radar = RadarConfig()
        if size.max_range is not None:
            radar = replace(radar, max_range=size.max_range)
        radar = radar.reduced(*size.radar_shape)
        backend = size.execution
        if not isinstance(backend, str):
            backend = ExecutionConfig(**backend)
        self.letkf_config = letkf
        # The weather is one fixed case; --seed draws everything the
        # case is observed and delivered with: radar noise, wire faults,
        # viewer requests.
        self.bda = BDASystem(scale, letkf, radar, seed=CASE_SEED, backend=backend)
        self.workdir: Path | None = None
        self.server: ServerThread | None = None
        self.client: TileClient | None = None
        try:
            bda = self.bda
            bda.pawr = PAWRSimulator(radar, bda.model.grid, seed=self.seed)
            bda.trigger_convection(n=3, amplitude=5.0)
            # worker processes are forked here, before any thread exists
            bda.spinup_nature(size.spinup_s)
            self.engine = TransferEngine(
                SINETLink(JITDTConfig(chunk_bytes=CHUNK_BYTES), seed=self.seed)
            )
            self.buffer = IngestBuffer(RADAR_ID)
            self.injector = (
                StreamFaultInjector(size.faults, seed=self.seed)
                if size.faults is not None else None
            )
            self._arrivals: list[tuple] = []
            self._arrival_seq = 0
            self._expect_previous = False
            self.workdir = Path(tempfile.mkdtemp(prefix="run-", dir=output_dir))
            self.writer = ProductWriter(self.workdir / "products")
            self.catalog = ProductCatalog(self.workdir / "catalog")
            self.map_level = bda.model.grid.level_index(self.writer.map_height)
            self.server = ServerThread().start()
            self.client = TileClient(self.server.address)
            self.cycle = 0
            #: per (rows, members, dtype) a traced transform call had: the
            #: eigenproblems of the first such call (see replay_eigensolves)
            self.eigen_batches: dict[tuple[int, int, str], np.ndarray] = {}
        except BaseException:
            self.close()
            raise

    # -- the timed chain --------------------------------------------------

    def run_cycle(self, tracer=NULL_TRACER) -> CycleSample:
        bda = self.bda
        bda.prepare_cycle()     # nature step + spread injection: untimed
        self.cycle += 1
        k = self.cycle
        t_valid = float(bda.nature.time)
        if tracer.enabled:
            tracer.cycle = (RADAR_ID, t_valid)
        failures: list[str] = []

        t_scan = perf_counter()
        with tracer.span("cycle"):
            with tracer.span("radar.scan"):
                scan = bda.pawr.scan(bda.nature, t_valid)
            t_encode = perf_counter()
            with tracer.span("radar.encode"):
                payload = scan.encode(t_valid)
            with tracer.span("jitdt.send"):
                sent = self.engine.send(payload, chunk_faults=self._wire_faults(k))
            if not sent.ok or sent.payload != payload:
                failures.append(f"transfer not repaired: {sent.error or 'bytes differ'}")
            with tracer.span("radar.decode"):
                dec = decode_volume(sent.payload if sent.ok else payload)
                wire_scan = VolumeScan(
                    t_obs=dec["t_obs"], dbz=dec["dbz"], doppler=dec["doppler"],
                    valid=dec["valid"], geometry=bda.pawr.geometry,
                )
            with tracer.span("radar.regrid"):
                obs = list(volume_to_grid(wire_scan, bda.model.grid, self.letkf_config))
            with tracer.span("ingest.envelope"):
                envelope = envelope_from_observations(
                    RADAR_ID, obs, t_valid=t_valid, arrival_time=t_valid + READY_S
                )
            deadline = t_valid + WAIT_BUDGET_S
            expected = self._schedule(k, envelope, deadline)
            while self._arrivals and self._arrivals[0][0] <= deadline:
                _, _, delivery = heapq.heappop(self._arrivals)
                with tracer.span("ingest.offer"):
                    self.buffer.offer(delivery)
            with tracer.span("ingest.decide"):
                decision = self.buffer.decide(t_valid, now=deadline, deadline=deadline)
            t_decided = perf_counter()

            with tracer.span("core.assimilate"), \
                    tracer.wrapped(bda.backend, "forecast", "model.forecast",
                                   observe=self._observe_forecast), \
                    tracer.wrapped(bda.obsope, "screen", "letkf.screen"), \
                    tracer.wrapped(bda.obsope, "hxb_ensemble", "letkf.obsope"), \
                    tracer.wrapped(bda.cycler.letkf, "analyze", "letkf.analyze"), \
                    tracer.wrapped(bda.cycler.letkf, "transform_runner",
                                   "letkf.transform", call=letkf_transform,
                                   observe=self._observe_transform):
                result = bda.assimilate(admission=decision)
            t_assimilated = perf_counter()

            part2_members, part2_seconds = self.size.part2
            with tracer.span("core.part2"), \
                    tracer.wrapped(bda.backend, "forecast", "model.part2",
                                   observe=self._observe_forecast):
                product = bda.forecast(
                    part2_seconds, n_members=part2_members, output_interval=60.0
                )
            with tracer.span("core.mean_state"):
                mean = bda.ensemble.mean_state()
            with tracer.span("core.product_write"):
                files = self.writer.write(mean, k)
            dbz = product.dbz_at(part2_seconds)
            fields = self._map_fields(dbz)
            with tracer.span("core.catalog_publish"):
                self.catalog.publish(CatalogEntry(
                    cycle=k, t_obs=t_valid, t_published=t_valid,
                    valid_time=t_valid + part2_seconds,
                    max_dbz=float(dbz.max()), max_rain_mmh=float(fields["rain"].max()),
                    files=files, hashes=self.writer.content_hashes(k),
                ))
            with tracer.span("serving.publish"):
                self.server.publish(TENANT, PublishedCycle(
                    cycle=k, t_obs=t_valid, t_product=t_valid, ok=True,
                    degraded=result.degraded, fields=fields,
                ))
            with tracer.span("serving.tile_get") as span, \
                    tracer.wrapped(self.server.api, "handle", "serving.handle",
                                   parent_of=trace_parent):
                status, headers, body = self.client.get(
                    TTS_TILE, trace_parent=span["id"] if span is not None else None
                )
        t_tile = perf_counter()

        # -- checks: the cycle did what the seed says it must ------------
        if decision.action != expected:
            failures.append(f"admission {decision.action!r}, {expected!r} expected")
        if result.mode != MODE_OF[expected] or result.admission != decision.action:
            failures.append(f"cycle ran as {result.mode!r}, {MODE_OF[expected]!r} expected")
        if decision.action == ADMIT and (
            decision.scan.t_valid != t_valid
            or decision.scan.signature != envelope.signature
        ):
            failures.append("admitted scan is not the one that came off the wire")
        rmse = bda.analysis_rmse("theta_p")
        if not (np.isfinite(rmse) and np.isfinite(result.spread_theta)):
            failures.append("analysis is not finite")
        if status != 200 or headers.get("x-repro-cycle") != str(k):
            failures.append(
                f"tile: status {status}, cycle {headers.get('x-repro-cycle')}"
            )
        else:
            problem = check_png(body)
            if problem:
                failures.append(f"tile: {problem}")

        diag = result.diagnostics
        return CycleSample(
            cycle=k, traced=tracer.enabled,
            tts_s=t_tile - t_scan, refresh_s=t_assimilated - t_decided,
            ingest_s=t_decided - t_encode, action=decision.action,
            rmse_theta=rmse, volume_bytes=len(payload),
            obs_valid=sum(o.n_valid for o in obs),
            chunks=sent.n_chunks, retransmits=sent.n_retransmits,
            corrupt_chunks=sent.n_corrupt_chunks,
            active_rows=diag.n_points_updated,
            active_fraction=diag.active_fraction,
            obs_per_point=diag.obs_per_point_mean, obs_used=diag.n_obs_used,
            product_bytes=sum(Path(p).stat().st_size for p in files.values()),
            failures=failures,
        )

    # -- arrival stream ---------------------------------------------------

    def _wire_faults(self, k: int):
        """Chunk-fault hook of cycle ``k``; every fourth push is clean.

        With a hook the receiver is the streaming ``ChunkAssembler``
        (and its retransmit loop when a chunk is hit); without one it is
        the one-shot ``reassemble`` fast path. Both run at a fixed mix.
        """
        if self.injector is None or k % 4 == 0:
            return None
        return lambda chunks, attempt: self.injector.corrupt_chunks(
            k, chunks, attempt=attempt
        )

    def _schedule(self, k: int, envelope, deadline: float) -> str:
        """Queue this scan's deliveries; returns the admission they imply."""
        if self.injector is None:
            times = [envelope.arrival_time]
        else:
            times = [
                a.arrival_time for a in
                self.injector.scan_arrivals(k, t_ready=envelope.arrival_time)
            ]
        for t in times:
            heapq.heappush(
                self._arrivals,
                (t, self._arrival_seq, replace(envelope, arrival_time=t)),
            )
            self._arrival_seq += 1
        if any(t <= deadline for t in times):
            self._expect_previous = True
            return ADMIT
        return SUBSTITUTE if self._expect_previous else SKIP

    # -- observers on wrapped calls (traced cycles only) ------------------

    def _observe_forecast(self, attrs, args, kwargs, result) -> None:
        _model, state, duration = args
        attrs["member_steps"] = int(state.n_members) * round(
            duration / self.bda.scale_config.dt
        )
        blocks = getattr(self.bda.backend, "last_timings", None)
        # the in-process backends run the batch as one block
        attrs["blocks_ms"] = (
            [b["seconds"] * 1e3 for b in blocks] if blocks else None
        )

    def _observe_transform(self, attrs, args, kwargs, result) -> None:
        dyb, _d, rinv = args[:3]
        rows, _n_obs, members = dyb.shape
        shape = (rows, members, str(dyb.dtype))
        attrs.update(rows=rows, members=members, dtype=shape[2])
        if shape not in self.eigen_batches:
            # what this call decomposed: A = (m-1) I + Yb^T R^-1 Yb per
            # point, in the dtype the solver's precision mode chose
            # (built once per shape, inside that one call's span)
            a = (np.swapaxes(dyb, 1, 2) * rinv[:, None, :]) @ dyb
            diagonal = np.arange(members)
            a[:, diagonal, diagonal] += dyb.dtype.type(members - 1)
            self.eigen_batches[shape] = a

    def _map_fields(self, dbz: np.ndarray) -> dict[str, np.ndarray]:
        """The two served map views of a part-<2> mean reflectivity."""
        # inverse Marshall-Palmer (Z = 200 R^1.6) at the lowest level
        rain = (10.0 ** (dbz[0] / 10.0) / 200.0) ** (1.0 / 1.6)
        return {
            "dbz": np.ascontiguousarray(dbz[self.map_level], dtype=np.float32),
            "rain": rain.astype(np.float32),
        }

    # -- lifetime ---------------------------------------------------------

    def close(self) -> list[str]:
        """Release everything; returns what was left behind (leaks)."""
        leaks: list[str] = []
        if self.client is not None:
            self.client.close()
            self.client = None
        if self.server is not None:
            address = self.server.address
            self.server.close()
            self.server = None
            leaks += _still_listening(address)
        self.bda.close()
        if self.workdir is not None:
            shutil.rmtree(self.workdir)
            if self.workdir.exists():
                leaks.append(f"temp directory {self.workdir} survives")
            self.workdir = None
        return leaks + _leaked_workers() + _leaked_segments()


def _still_listening(address) -> list[str]:
    try:
        socket.create_connection(address, timeout=1.0).close()
    except OSError:
        return []
    return [f"socket {address} still listens"]


def _leaked_workers() -> list[str]:
    return [f"worker {p.name} still alive" for p in multiprocessing.active_children()]


def _leaked_segments() -> list[str]:
    shm = Path("/dev/shm")
    if not shm.is_dir():
        return []
    mine = f"reproshm-{os.getpid()}-"
    return [f"shared segment {p.name} left" for p in shm.iterdir()
            if p.name.startswith(mine)]


def stop_children() -> list[str]:
    """Kill and reap every child process still there; returns the strays.

    One child is expected, on ``model_procs``: multiprocessing's
    resource tracker, which the worker pool starts and which nothing
    stops before Python 3.12. Left alone it ends a moment *after* this
    process, and a run has to end with nothing behind it. By now it has
    nothing to track (``_leaked_segments``), and it ignores SIGTERM.
    Any other child is a leak: it is stopped all the same, and named.
    """
    proc = Path("/proc")
    if not proc.is_dir():
        return []
    me = os.getpid()
    strays = []
    for entry in proc.iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
            command = (entry / "cmdline").read_bytes().replace(b"\0", b" ").decode(
                errors="replace").strip()
        except OSError:         # ended while we looked
            continue
        if int(stat.rpartition(")")[2].split()[1]) != me:
            continue
        pid = int(entry.name)
        try:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        except (ProcessLookupError, ChildProcessError):
            pass
        if "resource_tracker" not in command:
            strays.append(f"child process left behind: {command or pid}")
    return strays


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest waited child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def replay_eigensolves(chain: Chain, repeats: int = 3) -> dict[tuple, float]:
    """Isolated-kernel replay: time ``eigh_dispatch`` on real batches.

    For each ``(rows, members, dtype)`` the transform wrapper observed,
    takes the eigenproblems of the first such call (captured at the
    hook, in the solver's own dtype) and times the configured default
    solver on them, in this process, the copy it works on made outside
    the clock. Returns the best-of-``repeats`` milliseconds per shape.
    """
    solver = chain.letkf_config.eigensolver
    out: dict[tuple, float] = {}
    for shape, batch in sorted(chain.eigen_batches.items()):
        best = np.inf
        for _ in range(repeats):
            work = batch.copy()
            t0 = perf_counter()
            w, _ = eigh_dispatch(work, backend=solver)
            best = min(best, (perf_counter() - t0) * 1e3)
        if not np.all(np.isfinite(w)):
            raise RuntimeError(f"eigensolver replay produced non-finite values for {shape}")
        out[shape] = best
    return out
