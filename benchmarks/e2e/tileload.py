"""The serving side of the benchmark: server thread, clients, tile load.

One :class:`AsyncTileServer` runs on a background thread and is reached
over a loopback socket; publishes go to its loop through
``call_soon_threadsafe``. Clients are closed-loop, keep-alive and keep a
browser-style ETag memory; each waits for its reply before it sends the
next request, as a polling map tab does.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import os
import socket
import struct
import threading
import zlib
from time import perf_counter

import numpy as np

from repro.api.serving import (
    AsyncTileServer,
    PublishedCycle,
    ServingAPI,
    ServingStore,
)

from spans import NULL_TRACER, TRACE_HEADER

__all__ = [
    "ServerThread",
    "TileClient",
    "Viewer",
    "check_png",
    "storm_fields",
    "publish_storm",
    "TileLoad",
    "pin_serving_thread",
    "trace_parent",
]

_WAIT_S = 60.0
_PNG_SIGNATURE = b"\x89PNG\r\n\x1a\n"
#: products of the default :class:`ServingStore` (``rain`` and ``dbz``)
PRODUCTS = ("dbz", "rain")
#: deepest zoom the viewers request (85 tile addresses per product)
MAX_ZOOM = 3


def pin_serving_thread() -> None:
    """Pin the calling thread to the serving core (the last one allowed).

    Request and reply inside one Python process are bound by the
    interpreter lock, so a second core adds nothing but cross-core
    wake-ups; left to the kernel's placement, whole runs came out at
    0.27 ms or 0.57 ms per tile at random. With the server thread and
    the viewers on one core the hand-over is a plain context switch,
    and the other cores stay free for the chain.
    """
    if hasattr(os, "sched_setaffinity"):
        try:
            os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
        except OSError:
            pass    # a sandbox that forbids it: run unpinned


class ServerThread:
    """An :class:`AsyncTileServer` on its own thread and event loop."""

    def __init__(self) -> None:
        self.store = ServingStore()
        #: product completion time of the newest publish: the serving
        #: clock, so every ``latest`` resolves on the ``fresh`` rung
        self.now = 0.0
        self.api = ServingAPI(self.store, clock=lambda: self.now)
        self.server = AsyncTileServer(self.api)
        self.loop = asyncio.new_event_loop()
        self._started = threading.Event()
        self._error: BaseException | None = None
        self._thread = threading.Thread(
            target=self._run, name="bench-tile-server", daemon=True
        )

    def _run(self) -> None:
        pin_serving_thread()
        asyncio.set_event_loop(self.loop)
        try:
            self.loop.run_until_complete(self.server.start())
        except BaseException as exc:  # reported by start(), which re-raises
            self._error = exc
            self._started.set()
            return
        self._started.set()
        self.loop.run_forever()

    def start(self) -> "ServerThread":
        self._thread.start()
        if not self._started.wait(_WAIT_S):
            raise RuntimeError("tile server did not start")
        if self._error is not None:
            raise self._error
        return self

    @property
    def address(self) -> tuple[str, int]:
        return self.server.host, self.server.port

    def publish(self, tenant: str, cycle: PublishedCycle) -> None:
        """``store.publish`` on the server loop; returns once it ran."""
        done: concurrent.futures.Future = concurrent.futures.Future()

        def _publish() -> None:
            try:
                self.store.publish(tenant, cycle)
                self.now = cycle.t_product
                done.set_result(None)
            except Exception as exc:  # handed to the caller's thread
                done.set_exception(exc)

        self.loop.call_soon_threadsafe(_publish)
        done.result(_WAIT_S)

    def close(self) -> None:
        """Stop listening, end the loop and join the thread."""

        async def _shutdown() -> None:
            await self.server.aclose()
            # clients hung up first, so each connection handler reads
            # EOF and returns by itself; wait for them, cancel nothing
            me = asyncio.current_task()
            handlers = [t for t in asyncio.all_tasks() if t is not me]
            if handlers:
                _, pending = await asyncio.wait(handlers, timeout=_WAIT_S)
                if pending:
                    raise RuntimeError(f"{len(pending)} connections still open")

        if self._thread.is_alive():
            asyncio.run_coroutine_threadsafe(_shutdown(), self.loop).result(_WAIT_S)
            self.loop.call_soon_threadsafe(self.loop.stop)
            self._thread.join(_WAIT_S)
        if self._thread.is_alive():
            raise RuntimeError("tile server thread did not stop")
        self.loop.close()


class TileClient:
    """Minimal keep-alive HTTP/1.1 client over one loopback socket."""

    def __init__(self, address: tuple[str, int]):
        self.sock = socket.create_connection(address, timeout=_WAIT_S)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._rfile = self.sock.makefile("rb")

    def get(self, path: str, *, etag: str | None = None,
            trace_parent: int | None = None):
        """One GET; returns ``(status, headers, body)`` once the body is read."""
        head = f"GET {path} HTTP/1.1\r\nHost: bench\r\n"
        if etag is not None:
            head += f"If-None-Match: {etag}\r\n"
        if trace_parent is not None:
            head += f"{TRACE_HEADER}: {trace_parent}\r\n"
        self.sock.sendall((head + "\r\n").encode("latin-1"))
        readline = self._rfile.readline
        status_line = readline()
        if not status_line:
            raise ConnectionError("server closed the connection")
        status = int(status_line.split(b" ", 2)[1])
        headers: dict[str, str] = {}
        while True:
            line = readline()
            if line in (b"\r\n", b""):
                break
            name, _, value = line.partition(b":")
            headers[name.strip().lower().decode("latin-1")] = (
                value.strip().decode("latin-1")
            )
        length = int(headers.get("content-length", "0"))
        body = self._rfile.read(length) if length else b""
        return status, headers, body

    def close(self) -> None:
        self._rfile.close()
        self.sock.close()


def check_png(body: bytes) -> str:
    """Decode a PNG far enough to prove it whole; returns '' when good."""
    if body[:8] != _PNG_SIGNATURE:
        return "not a PNG"
    pos, width, height, channels, data = 8, 0, 0, 0, b""
    while pos < len(body):
        (length,) = struct.unpack_from(">I", body, pos)
        tag = body[pos + 4:pos + 8]
        payload = body[pos + 8:pos + 8 + length]
        (crc,) = struct.unpack_from(">I", body, pos + 8 + length)
        if zlib.crc32(tag + payload) != crc:
            return f"bad CRC in {tag!r} chunk"
        if tag == b"IHDR":
            width, height, _, color_type = struct.unpack_from(">IIBB", payload)
            channels = {2: 3, 6: 4}.get(color_type, 0)
        elif tag == b"IDAT":
            data += payload
        elif tag == b"IEND":
            break
        pos += 12 + length
    else:
        return "no IEND chunk"
    if not (width and height and channels):
        return "bad IHDR"
    try:
        raw = zlib.decompress(data)
    except zlib.error as exc:
        return f"IDAT does not inflate: {exc}"
    if len(raw) != height * (1 + width * channels):
        return "pixel data has the wrong size"
    return ""


def tile_paths(tenant: str) -> tuple[list[str], np.ndarray]:
    """Tile URLs of zoom 0..MAX_ZOOM and their zipf (1/rank) popularity."""
    paths = []
    for z in range(MAX_ZOOM + 1):
        for y in range(1 << z):
            for x in range(1 << z):
                for product in PRODUCTS:
                    paths.append(
                        f"/v1/{tenant}/tiles/{product}/latest/{z}/{x}/{y}.png"
                    )
    weights = 1.0 / np.arange(1, len(paths) + 1, dtype=np.float64)
    return paths, weights / weights.sum()


class Viewer:
    """One closed-loop map viewer: request stream, ETag memory, records."""

    def __init__(self, address, tenant: str, rng: np.random.Generator,
                 n_requests: int):
        self.client = TileClient(address)
        self.paths, weights = tile_paths(tenant)
        #: the whole request stream, drawn before anything is timed
        self.stream = rng.choice(len(self.paths), size=n_requests, p=weights)
        self.pos = 0
        self.etags: list[str | None] = [None] * len(self.paths)
        self.latency_ms = np.zeros(n_requests)
        #: per request: did it carry spans (all of a traced epoch do)
        self.traced = np.zeros(n_requests, dtype=bool)
        self.status = np.zeros(n_requests, dtype=np.int16)
        self.body_bytes = np.zeros(n_requests, dtype=np.int64)
        #: one body per distinct ETag, PNG-decoded after the timed phase
        self.bodies: dict[str, bytes] = {}
        self.failures: list[str] = []

    def fetch(self, n: int, expect_cycle: int, tracer) -> None:
        """Send the next ``n`` requests of the stream, one at a time."""
        get, paths, etags = self.client.get, self.paths, self.etags
        want = str(expect_cycle)
        # on a traced epoch every request is a span, made from the very
        # stamps its latency is
        ids = tracer.ids if tracer.enabled else None
        self.traced[self.pos:self.pos + n] = tracer.enabled
        sid = None
        for i in range(self.pos, self.pos + n):
            idx = int(self.stream[i])
            if ids is not None:
                sid = next(ids)
            t0 = perf_counter()
            status, headers, body = get(paths[idx], etag=etags[idx], trace_parent=sid)
            t1 = perf_counter()
            self.latency_ms[i] = (t1 - t0) * 1e3
            if sid is not None:
                tracer.record(sid, "serving.tile_get", t0, t1)
            self.status[i] = status
            etag = headers.get("etag")
            self.body_bytes[i] = len(body)
            if status == 200 and etag is not None and etag not in self.bodies:
                self.bodies[etag] = body
            if status not in (200, 304):
                self.failures.append(f"{paths[idx]}: status {status}")
            elif headers.get("x-repro-cycle") != want:
                self.failures.append(
                    f"{paths[idx]}: cycle {headers.get('x-repro-cycle')} "
                    f"served, {want} expected"
                )
            elif status == 200 and body[:8] != _PNG_SIGNATURE:
                self.failures.append(f"{paths[idx]}: body is not a PNG")
            else:
                etags[idx] = etag
        self.pos += n

    def forget(self) -> None:
        """Drop the ETag memory, as a visitor with an empty cache has."""
        self.etags = [None] * len(self.paths)

    def bad_bodies(self) -> list[str]:
        """PNG-decode every distinct body seen (run after timing)."""
        out = []
        for etag, body in self.bodies.items():
            problem = check_png(body)
            if problem:
                out.append(f"tile {etag}: {problem}")
        return out

    def close(self) -> None:
        self.client.close()


def publish_storm(server: ServerThread, tenant: str, shape: tuple[int, int],
                  seed: int, cycle: int) -> float:
    """Publish cycle ``cycle`` of the synthetic storm; returns the wait in ms."""
    published = PublishedCycle(
        cycle=cycle, t_obs=30.0 * cycle, t_product=30.0 * cycle, ok=True,
        fields=storm_fields(shape, seed, cycle),
    )
    t0 = perf_counter()
    server.publish(tenant, published)
    return (perf_counter() - t0) * 1e3


def storm_fields(shape: tuple[int, int], seed: int, cycle: int) -> dict:
    """Map-view fields of one drifting storm cell (pure in seed, cycle).

    The cell has compact support, so tiles it does not touch keep their
    bytes, and with them their content-addressed ETag, across cycles.
    """
    ny, nx = shape
    rng = np.random.default_rng((seed, 4099))
    start = rng.uniform(0.2, 0.8, size=2) * (ny, nx)
    heading = rng.uniform(0.0, 2.0 * np.pi)
    radius = 0.05 * min(ny, nx) * rng.uniform(0.9, 1.1)
    step = 0.012 * min(ny, nx)
    cy = (start[0] + cycle * step * np.sin(heading)) % ny
    cx = (start[1] + cycle * step * np.cos(heading)) % nx
    jj, ii = np.mgrid[0:ny, 0:nx].astype(np.float32)
    d2 = (jj - cy) ** 2 + (ii - cx) ** 2
    rain = np.where(
        d2 < (3.0 * radius) ** 2, 40.0 * np.exp(-d2 / (2.0 * radius**2)), 0.0
    ).astype(np.float32)
    # Z = 200 R^1.6 (Marshall-Palmer), floored at clear air
    dbz = 10.0 * np.log10(200.0 * np.maximum(rain, 1e-3) ** 1.6)
    return {"rain": rain, "dbz": np.maximum(dbz, -30.0).astype(np.float32)}


class TileLoad:
    """``n_clients`` closed-loop viewers on their own threads, run in epochs.

    An epoch is ``per_epoch`` requests from every client at once; between
    epochs the clients wait at a barrier while the caller publishes the
    next cycle (a synthetic field on ``tile_serving``, a whole chain
    cycle on the coupled workloads). A publish is thus tied to a request
    count, not to the clock, and within an epoch the store does not
    change, so every count repeats for one seed. Viewer threads share
    the serving core (see :func:`pin_serving_thread`).
    """

    def __init__(self, server: ServerThread, *, tenant: str, seed: int,
                 n_clients: int, per_epoch: int, epochs: int,
                 fresh_visitors: bool):
        self.server = server
        self.tenant = tenant
        self.per_epoch = per_epoch
        #: every epoch brings new visitors (empty ETag memory) instead
        #: of the same tabs polling again
        self.fresh_visitors = fresh_visitors
        self.viewers = [
            Viewer(server.address, tenant,
                   np.random.default_rng((seed, 7001, c)), epochs * per_epoch)
            for c in range(n_clients)
        ]
        self._barrier = threading.Barrier(n_clients + 1)
        self._job: tuple | None = None
        self._errors: list[BaseException] = []
        self._threads = [
            threading.Thread(target=self._client_loop, args=(v,),
                             name=f"bench-viewer-{c}", daemon=True)
            for c, v in enumerate(self.viewers)
        ]
        #: per epoch: was it timed, how long did it take
        self.timed: list[bool] = []
        self.wall_s: list[float] = []
        for t in self._threads:
            t.start()

    def _client_loop(self, viewer: "Viewer") -> None:
        try:
            pin_serving_thread()
            while True:
                self._barrier.wait(_WAIT_S)
                if self._job is None:
                    return
                expect_cycle, tracer = self._job
                if self.fresh_visitors:
                    viewer.forget()
                viewer.fetch(self.per_epoch, expect_cycle, tracer)
                self._barrier.wait(_WAIT_S)
        except BaseException as exc:  # re-raised on the caller's thread
            self._errors.append(exc)
            self._barrier.abort()

    def epoch(self, expect_cycle: int, tracer=NULL_TRACER, *, timed: bool = True) -> None:
        """Run one epoch against the cycle just published; blocks until done.

        With a tracer the caller keeps ``ServingAPI.handle`` wrapped
        (see :func:`trace_parent`) for as long as the load runs.
        """
        self._job = (expect_cycle, tracer)
        try:
            t0 = perf_counter()
            self._barrier.wait(_WAIT_S)     # release the clients
            self._barrier.wait(_WAIT_S)     # every client is done
            self.wall_s.append(perf_counter() - t0)
        except threading.BrokenBarrierError:
            raise (self._errors[0] if self._errors
                   else RuntimeError("a viewer stalled")) from None
        self.timed.append(timed)

    def close(self) -> None:
        """Send the clients home and hang up (before the server stops)."""
        self._job = None
        try:
            self._barrier.wait(_WAIT_S)
        except threading.BrokenBarrierError:
            pass
        for t in self._threads:
            t.join(_WAIT_S)
        for v in self.viewers:
            v.close()
        if any(t.is_alive() for t in self._threads):
            raise RuntimeError("a viewer thread did not finish")

    def results(self) -> dict:
        """Per-request records of the timed epochs, all clients together."""
        walls = [w for w, t in zip(self.wall_s, self.timed) if t]
        keep = np.repeat(np.asarray(self.timed, dtype=bool), self.per_epoch)
        n = len(keep)
        failures = [f for v in self.viewers for f in v.failures + v.bad_bodies()]
        return {
            "latency_ms": np.concatenate([v.latency_ms[:n][keep] for v in self.viewers]),
            "status": np.concatenate([v.status[:n][keep] for v in self.viewers]),
            "traced": np.concatenate([v.traced[:n][keep] for v in self.viewers]),
            # which timed epoch a request belongs to; each epoch's wall time
            "epoch": np.tile(np.repeat(np.arange(len(walls)), self.per_epoch),
                             len(self.viewers)),
            "wall_s": walls,
            "bytes_out": int(sum(v.body_bytes[:n][keep].sum() for v in self.viewers)),
            "failures": failures,
        }


def trace_parent(args, kwargs):
    """Parent span id a client put in the request headers, if any."""
    headers = args[2] if len(args) > 2 else kwargs.get("headers")
    value = (headers or {}).get(TRACE_HEADER.lower())
    return int(value) if value is not None else None
