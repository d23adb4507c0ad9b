"""Pluggable execution backends for the ensemble forecast step.

The 30-second cycle spends most of its budget integrating the member
forecasts (part <1-2> of Fig. 2). On Fugaku that work is spread over
8008 nodes; here the same choice — how the member axis is mapped onto
compute — is a backend object with a single public method::

    new_state = backend.forecast(model, ensemble_state, duration)

which brackets the subclass's ``_integrate`` step with the runtime
array sanitizer (a no-op unless armed): the checks are a hook on the
backend, not a wrapper around it.  Three backends supply compute:

``serial``
    Integrates one member view at a time through the model. This is the
    seed behaviour and the bit-exact reference the others are tested
    against.
``vectorized``
    Integrates the whole member-batched
    :class:`~repro.model.ensemble_state.EnsembleState` through the
    kernels in one pass (the default). Every kernel in the model layer
    is member-independent — elementwise or a stencil over the trailing
    ``(nz, ny, nx)`` axes — so the result is bit-identical to the serial
    loop while amortising Python/numpy dispatch over the ensemble.
``processes``
    The only backend that spends real cores: a persistent pool of
    worker processes over named shared-memory slabs, bit-identical to
    ``vectorized``.  One dispatch loop, one block function per op
    (member blocks of the forecast, row blocks of the compacted LETKF
    transform) — see :class:`ProcessesBackend`.

and ``sharded`` models a topology: member blocks routed through the
virtual MPI with traffic accounting, each block's compute left to a
delegate *inner* backend — see :class:`ShardedBackend`.

Backends are selected with :func:`make_backend`, which accepts a name,
an :class:`~repro.config.ExecutionConfig`, or an already-built backend.
"""

from __future__ import annotations

import atexit
import os
import pickle
import queue as queue_mod
import time
import traceback
import warnings
from dataclasses import replace
from multiprocessing import get_context, resource_tracker
from typing import Callable, Sequence

import numpy as np

from ..checks.concurrency import (
    NULL_CONCURRENCY,
    make_concurrency_sanitizer,
    parent_owner,
    worker_owner,
)
from ..checks.sanitizer import (
    NULL_SANITIZER,
    ArraySanitizer,
    NullSanitizer,
    make_sanitizer,
)
from ..comm.vmpi import CommStats, LinkModel, VirtualComm
from ..config import ExecutionConfig
from ..letkf.core import letkf_transform
from ..model.ensemble_state import EnsembleState
from ..model.shm import SharedStateSlab, state_spec

__all__ = [
    "ExecutionBackend",
    "SerialBackend",
    "VectorizedBackend",
    "ShardedBackend",
    "ProcessesBackend",
    "make_backend",
]


class ExecutionBackend:
    """Strategy interface: advance a member-batched state by ``duration``.

    Subclasses implement :meth:`_integrate`; :meth:`forecast` guards it
    with :attr:`sanitizer`.  Entry: the prognostic fields must carry
    the grid's working dtype (the single-precision contract).  During
    the forecast every input array is write-protected, so a kernel
    mutating caller-owned state raises
    :class:`~repro.checks.sanitizer.SanitizerError` instead of silently
    corrupting the ensemble.  Exit: finite inputs must produce finite
    outputs.  All checks are read-only, so results are bit-identical
    with the sanitizer armed or not.
    """

    name = "base"
    #: runtime array sanitizer, armed by :func:`make_backend`; the
    #: cycler guards the LETKF step with the same instance
    sanitizer: ArraySanitizer | NullSanitizer = NULL_SANITIZER
    #: drop-in for :func:`~repro.letkf.core.letkf_transform` that the
    #: cycler installs on its solver; ``None`` = call it directly
    letkf_runner: Callable[..., np.ndarray] | None = None
    #: per-block timings of the most recent forecast call,
    #: ``[{"op", "worker", "members", "seconds"}, ...]``, and of the
    #: LETKF transforms since it (``"rows"`` for ``"members"``); empty
    #: for the in-process backends, which run the batch as one block
    last_timings: Sequence[dict] = ()
    last_letkf_timings: Sequence[dict] = ()

    def forecast(self, model, state: EnsembleState, duration: float) -> EnsembleState:
        san = self.sanitizer
        fields = {f"fields.{k}": v for k, v in state.fields.items()}
        inputs = dict(fields)
        inputs.update({f"aux.{k}": v for k, v in state.aux.items()})
        san.check_dtype("forecast", fields, state.grid.dtype)
        with san.guard("forecast", inputs) as rec:
            out = self._integrate(model, state, duration)
        san.check_outputs(rec, {f"fields.{k}": v for k, v in out.fields.items()})
        return out

    def _integrate(self, model, state: EnsembleState, duration: float) -> EnsembleState:
        raise NotImplementedError

    def close(self) -> None:
        """Release backend resources; a no-op for in-process backends."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


class SerialBackend(ExecutionBackend):
    """Per-member loop over zero-copy views (the seed behaviour)."""

    name = "serial"

    def _integrate(self, model, state: EnsembleState, duration: float) -> EnsembleState:
        members = [
            model.integrate(state.member_view(i), duration)
            for i in range(state.n_members)
        ]
        return EnsembleState.from_members(members)


class VectorizedBackend(ExecutionBackend):
    """One batched pass through the kernels (default)."""

    name = "vectorized"

    def _integrate(self, model, state: EnsembleState, duration: float) -> EnsembleState:
        return model.integrate(state, duration)


class ShardedBackend(ExecutionBackend):
    """Member-axis blocks over the virtual MPI.

    Each shard integrates its block through a delegate ``inner``
    backend (default: plain vectorized), so the numbers match the other
    backends; what this layer adds is the communication accounting of
    distributing the ensemble (``last_stats`` after each forecast).

    Composition rule: ``sharded`` owns the *topology* (how the member
    axis is scattered/gathered and what traffic that costs) and the
    inner backend owns the *compute* for one block.  Passing
    ``inner=ProcessesBackend(...)`` therefore models virtual-MPI comm
    while actually spending real cores per block; the inner backend
    must itself be deterministic and member-independent for the
    bit-identity contract to carry through.
    """

    name = "sharded"

    def __init__(self, n_shards: int = 2, link: LinkModel | None = None,
                 inner: ExecutionBackend | None = None):
        if n_shards < 1:
            raise ValueError("n_shards must be >= 1")
        self.n_shards = n_shards
        self.link = link
        #: per-block compute delegate; ``None`` means plain vectorized
        self.inner = inner if inner is not None else VectorizedBackend()
        #: traffic accounting of the most recent forecast call
        self.last_stats: CommStats | None = None

    def _integrate(self, model, state: EnsembleState, duration: float) -> EnsembleState:
        m = state.n_members
        # a single block takes the same path: rank 0 scatters to itself
        # (zero bytes moved) and the delegate still does the compute
        n = max(1, min(self.n_shards, m))
        comm = VirtualComm(n, self.link)
        splits = np.array_split(np.arange(m), n)

        # scatter: one contiguous member block per rank, per variable
        blocks: list[dict[str, dict[str, np.ndarray]]] = [
            {"fields": {}, "aux": {}} for _ in range(n)
        ]
        for section, arrays in (("fields", state.fields), ("aux", state.aux)):
            for name, arr in arrays.items():
                chunks = comm.scatter([np.ascontiguousarray(arr[idx]) for idx in splits])
                for r, chunk in enumerate(chunks):
                    blocks[r][section][name] = chunk

        def program(rank):
            shard = replace(state, **blocks[rank.rank])
            return self.inner.forecast(model, shard, duration)

        results = comm.run(program)

        # gather: reassemble the member axis in rank order (of the aux
        # keys, those every rank produced)
        aux_keys = set.intersection(*(set(r.aux) for r in results))
        out: dict[str, dict[str, np.ndarray]] = {"fields": {}, "aux": {}}
        for section, keys in (("fields", list(state.fields)), ("aux", sorted(aux_keys))):
            for key in keys:
                parts = comm.gather(
                    [np.ascontiguousarray(getattr(r, section)[key]) for r in results]
                )
                out[section][key] = np.concatenate(parts, axis=0)

        self.last_stats = comm.stats
        return replace(results[0], **out)

    def close(self) -> None:
        self.inner.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ShardedBackend(n_shards={self.n_shards}, inner={self.inner!r})"


# ---------------------------------------------------------------------------
# the processes backend: a persistent shared-memory worker pool
# ---------------------------------------------------------------------------

#: attached-slab cache size per worker; segment names are never reused,
#: so a stale cache entry can only waste address space, never alias data
_WORKER_SLAB_CACHE = 6

#: below this many active LETKF rows per worker the parent transforms
#: directly — dispatch plus slab copies would beat the per-row work
_MIN_LETKF_ROWS_PER_WORKER = 64


def _attach_cached(cache: dict[str, SharedStateSlab], manifest: dict) -> SharedStateSlab:
    """Worker-side slab lookup: attach once, evict FIFO past the cap."""
    name = manifest["name"]
    slab = cache.get(name)
    if slab is None:
        slab = SharedStateSlab.attach(manifest)
        cache[name] = slab
        while len(cache) > _WORKER_SLAB_CACHE:
            cache.pop(next(iter(cache))).close()
    return slab


def _integrate_block(model, slabs, lo: int, hi: int, *, duration: float,
                     time: float, nsteps: int, aux_keys: list[str]) -> dict:
    """Integrate members ``lo:hi`` of the input slab into the output slab.

    Aux arrays the output slab has a slot for are written in place
    (``slab_aux``); the rest return by value (``extra_aux``) so the
    parent can reserve slots for them next time.
    """
    src, dst = slabs
    blk = src.state(
        model.grid, model.reference, time=time, nsteps=nsteps,
        lo=lo, hi=hi, aux_keys=aux_keys,
    )
    out = model.integrate(blk, duration)
    for k, arr in out.fields.items():
        dst.fields[k][lo:hi] = arr
    slab_aux: list[str] = []
    extra: dict[str, np.ndarray] = {}
    for k, arr in out.aux.items():
        slot = dst.aux.get(k)
        if slot is not None and slot[lo:hi].shape == arr.shape:
            slot[lo:hi] = arr
            slab_aux.append(k)
        else:
            extra[k] = arr
    return {"time": out.time, "nsteps": out.nsteps,
            "slab_aux": slab_aux, "extra_aux": extra}


def _transform_block(model, slabs, lo: int, hi: int, *, n_obs: int, **solve_kw) -> dict:
    """Transform rows ``lo:hi`` of the LETKF slab (no model involved).

    The row slices carry the same pinned memory-layout class as the
    solver's workspace views, so ``W`` is bit-identical to the same
    rows of a direct call.
    """
    f = slabs[0].fields
    f["W"][lo:hi] = letkf_transform(
        f["dYb"][lo:hi, :n_obs, :], f["d"][lo:hi, :n_obs],
        f["rinv"][lo:hi, :n_obs], assume_active=True, **solve_kw,
    )
    return {}


#: pool op -> (block function, what its ``hi - lo`` counts)
_BLOCK_OPS: dict[str, tuple[Callable[..., dict], str]] = {
    "forecast": (_integrate_block, "members"),
    "letkf": (_transform_block, "rows"),
}


def _pool_worker(worker_id: int, task_q, result_q) -> None:
    """Worker main loop.

    Module-level so both ``fork`` and ``spawn`` start methods can reach
    it.  The worker holds exactly two pieces of sticky state — its
    attached-slab cache and the last model it was shipped — and
    otherwise runs one task at a time from its private queue (which is
    what makes member→worker assignment deterministic: block ``w``
    always lands on worker ``w``).
    """
    cache: dict[str, SharedStateSlab] = {}
    model = None
    while True:
        task = task_q.get()
        op = task["op"]
        if op == "stop":
            break
        if op == "exit":  # test hook: simulate a hard crash
            os._exit(13)
        lo, hi = task["lo"], task["hi"]
        res: dict = {"op": op, "seq": task["seq"], "worker": worker_id,
                     "ok": True, "lo": lo, "hi": hi}
        try:
            t0 = time.perf_counter()
            if task["model"] is not None:
                model = pickle.loads(task["model"])
            slabs = [_attach_cached(cache, mf) for mf in task["slabs"]]
            res.update(_BLOCK_OPS[op][0](model, slabs, lo, hi, **task["args"]))
            res["seconds"] = time.perf_counter() - t0
        except BaseException:
            res["ok"] = False
            res["error"] = traceback.format_exc()
        result_q.put(res)
    for slab in cache.values():
        slab.close()


class ProcessesBackend(ExecutionBackend):
    """Persistent worker-process pool over shared-memory state slabs.

    The only backend that spends real cores.  The parent lays the
    member batch out in a named shared-memory input slab, hands each
    long-lived worker a deterministic contiguous member block
    (``np.array_split`` order, block ``w`` always on worker ``w``), and
    workers integrate their block with the same vectorized kernels the
    ``vectorized`` backend uses — writing results straight into a
    shared output slab.  Nothing crosses a pipe but block metadata, so
    the per-cycle overhead is two slab copies, not a pickled ensemble.

    Bit-identity: every model kernel is member-independent, so a block
    of members integrates to exactly the same bits regardless of which
    process runs it; ``processes`` is therefore bit-identical to
    ``vectorized`` (and ``serial``) in either precision mode.

    One loop, one block function per op: :meth:`_run_blocks` deals
    contiguous blocks of ``[0, n)`` to the workers for both ops, and
    each op is one module-level function (:func:`_integrate_block`,
    :func:`_transform_block`) — the only sanctioned slab writers (lint
    rule OWN001).  Robustness: a worker that dies mid-task is detected,
    the parent runs *the same block function* on its block (identical
    numbers by construction), and the worker is respawned with a fresh
    queue.  Segments are unlinked on
    :meth:`close`, at interpreter exit (``atexit``), and — if the
    parent is killed outright — by the resource tracker's crash net
    (see :mod:`repro.model.shm`).

    The same pool row-shards the compacted LETKF transform: see
    :meth:`letkf_runner`.
    """

    name = "processes"

    def __init__(self, n_workers: int | None = None, *,
                 start_method: str | None = None, concurrency=NULL_CONCURRENCY):
        if n_workers is not None and n_workers < 1:
            raise ValueError("n_workers must be >= 1 (or None for auto)")
        #: the injected concurrency sanitizer guarding block handoffs
        #: (:data:`~repro.checks.concurrency.NULL_CONCURRENCY` unless
        #: ``ExecutionConfig(concurrency_checks=True)`` armed it)
        self.concurrency = concurrency
        self.n_workers = n_workers if n_workers is not None else max(1, os.cpu_count() or 1)
        if start_method is None:
            import multiprocessing

            start_method = (
                "fork" if "fork" in multiprocessing.get_all_start_methods()
                else "spawn"
            )
        self.start_method = start_method
        self._ctx = get_context(start_method)
        self._procs: list = []
        self._task_qs: list = []
        self._result_q = None
        self._seq = 0
        self._model_ref = None
        self._model_blob: bytes | None = None
        self._model_seen: set[int] = set()
        self._pickle_warned = False
        self._in_slab: SharedStateSlab | None = None
        self._out_slab: SharedStateSlab | None = None
        self._letkf_slab: SharedStateSlab | None = None
        #: aux keys (shape-tail, dtype) seen coming out of integration,
        #: so the next output slab reserves slots for them
        self._learned_aux: dict[str, tuple] = {}
        self.last_timings: list[dict] = []
        self.last_letkf_timings: list[dict] = []
        atexit.register(self.close)

    # -- pool lifecycle ------------------------------------------------

    def _spawn(self, w: int) -> None:
        # Start the parent's resource-tracker daemon *before* forking so
        # every worker inherits its fd.  A worker forked earlier would
        # lazily spawn a private tracker on its first slab attach, and
        # the parent's unlink-time unregisters would never reach it —
        # leaving it to warn about (already-unlinked) segments at exit.
        resource_tracker.ensure_running()
        tq = self._ctx.Queue()
        proc = self._ctx.Process(
            target=_pool_worker, args=(w, tq, self._result_q),
            daemon=True, name=f"repro-pool-{w}",
        )
        proc.start()
        self._task_qs[w:w + 1] = [tq]  # replaces slot w, or appends it
        self._procs[w:w + 1] = [proc]
        self._model_seen.discard(w)

    def _ensure_pool(self) -> bool:
        if self._procs:
            return True
        if self.n_workers <= 1:
            return False
        self._result_q = self._ctx.Queue()
        for w in range(self.n_workers):
            self._spawn(w)
        return True

    def _respawn(self, w: int) -> None:
        proc = self._procs[w]
        if proc.is_alive():
            proc.terminate()
        proc.join(timeout=5)
        self._spawn(w)

    def close(self) -> None:
        """Stop workers, unmap and unlink every slab.  Idempotent."""
        atexit.unregister(self.close)
        procs, self._procs = self._procs, []
        task_qs, self._task_qs = self._task_qs, []
        for proc, tq in zip(procs, task_qs):
            if proc.is_alive():
                try:
                    tq.put({"op": "stop"})
                except (OSError, ValueError):
                    pass
        for proc in procs:
            proc.join(timeout=5)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=5)
        for tq in task_qs:
            tq.cancel_join_thread()
            tq.close()
        if self._result_q is not None:
            self._result_q.cancel_join_thread()
            self._result_q.close()
            self._result_q = None
        for attr in ("_in_slab", "_out_slab", "_letkf_slab"):
            slab = getattr(self, attr)
            if slab is not None:
                slab.close()
                setattr(self, attr, None)
        self._model_seen = set()
        self._model_ref = None
        self._model_blob = None

    def __del__(self):  # pragma: no cover - best effort
        try:
            self.close()
        except Exception:
            pass

    def __enter__(self) -> "ProcessesBackend":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- model shipping ------------------------------------------------

    def _refresh_model(self, model) -> bool:
        """(Re)pickle the model when its identity changes.

        Profiler hooks are stripped for the trip (workers run
        unprofiled; the parent still profiles its own stages).  An
        unpicklable model downgrades the backend to in-process
        vectorized forecasts with a one-time warning rather than
        failing the cycle.
        """
        if model is self._model_ref:
            return self._model_blob is not None
        hooks = [getattr(model, "dynamics", None)]
        physics = getattr(model, "physics", None)
        if physics is not None:
            hooks.append(getattr(physics, "microphysics", None))
        stripped = []
        for obj in hooks:
            if obj is not None and getattr(obj, "profiler", None) is not None:
                stripped.append((obj, obj.profiler))
                obj.profiler = None
        try:
            self._model_blob = pickle.dumps(model, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception as exc:
            self._model_blob = None
            if not self._pickle_warned:
                warnings.warn(
                    f"model is not picklable ({exc!r}); the processes "
                    "backend is falling back to in-process vectorized "
                    "forecasts",
                    RuntimeWarning, stacklevel=4,
                )
                self._pickle_warned = True
        finally:
            for obj, prof in stripped:
                obj.profiler = prof
        self._model_ref = model
        self._model_seen = set()
        return self._model_blob is not None

    # -- slab management -----------------------------------------------

    @staticmethod
    def _reuse(slab: SharedStateSlab | None, fields_spec, aux_spec) -> SharedStateSlab:
        if slab is not None:
            if slab.matches(fields_spec, aux_spec):
                return slab
            slab.close()
        return SharedStateSlab(fields_spec, aux_spec)

    def _ensure_letkf_slab(self, n_act: int, n_obs: int, m: int, dtype) -> SharedStateSlab:
        slab = self._letkf_slab
        dt = str(np.dtype(dtype))
        if slab is not None:
            rows, obs, mm = slab.fields["dYb"].shape
            if (mm == m and str(slab.fields["dYb"].dtype) == dt
                    and rows >= n_act and obs >= n_obs):
                return slab
            slab.close()
        # geometric growth in both the row and obs dimensions so a
        # coverage wiggle does not reallocate every chunk
        rows = max(256, 1 << (n_act - 1).bit_length())
        obs = max(8, 1 << (n_obs - 1).bit_length())
        spec = {
            "dYb": ((rows, obs, m), dt),
            "d": ((rows, obs), dt),
            "rinv": ((rows, obs), dt),
            "W": ((rows, m, m), dt),
        }
        self._letkf_slab = SharedStateSlab(spec, {})
        return self._letkf_slab

    # -- the one pool loop ---------------------------------------------

    def _run_blocks(self, op: str, n_items: int, n_blocks: int, slabs,
                    args: dict, model=None) -> tuple[list[dict], list[dict]]:
        """Run ``op`` over ``[0, n_items)`` in ``n_blocks`` contiguous blocks.

        Block ``w`` (``np.array_split`` order) always goes to worker
        ``w``.  ``slabs`` is what the op's block function receives; the
        last one is the slab it writes, leased block-wise to the workers
        for the duration.  A worker that dies is respawned and its block
        recomputed here in the parent by the same block function
        (bit-identical).  Returns the block results in block order and
        their timing records
        ``[{"op", "worker", "members" | "rows", "seconds"}]``.
        """
        block_fn, unit = _BLOCK_OPS[op]
        self._seq += 1
        seq = self._seq
        manifests = [slab.manifest for slab in slabs]
        pending: dict[int, tuple[int, int]] = {}
        for w, idx in enumerate(np.array_split(np.arange(n_items), n_blocks)):
            lo, hi = int(idx[0]), int(idx[-1]) + 1
            ship = model is not None and w not in self._model_seen
            self._task_qs[w].put({
                "op": op, "seq": seq, "lo": lo, "hi": hi, "slabs": manifests,
                "args": args, "model": self._model_blob if ship else None,
            })
            if ship:
                self._model_seen.add(w)
            pending[w] = (lo, hi)

        leases = [
            (lo, hi, worker_owner(w)) for w, (lo, hi) in pending.items()
        ]
        written = slabs[-1]
        views = {f"fields.{k}": v for k, v in written.fields.items()}
        views.update({f"aux.{k}": v for k, v in written.aux.items()})
        done: dict[int, dict] = {}
        with self.concurrency.handoff(written.name, views, leases) as hoff:
            while pending:
                try:
                    res = self._result_q.get(timeout=0.2)
                except queue_mod.Empty:
                    for w in [w for w in pending if not self._procs[w].is_alive()]:
                        # crash recovery: the parent reclaims the dead
                        # worker's range, standing in as the block's
                        # writer (audited by the sanitizer ledger)
                        lo, hi = pending.pop(w)
                        t0 = time.perf_counter()
                        with hoff.reclaim(lo, hi, parent_owner(), steal=True):
                            res = block_fn(model, slabs, lo, hi, **args)
                        res.update(worker=w, lo=lo, hi=hi,
                                   seconds=time.perf_counter() - t0)
                        done[w] = res
                        self._respawn(w)
                    continue
                if res.get("seq") != seq or res.get("worker") not in pending:
                    continue  # stale result from before a crash recovery
                if not res["ok"]:
                    raise RuntimeError(
                        f"pool worker {res['worker']} failed:\n{res.get('error')}"
                    )
                del pending[res["worker"]]
                done[res["worker"]] = res
        results = [done[w] for w in sorted(done)]
        timings = [
            {"op": op, "worker": r["worker"], unit: r["hi"] - r["lo"],
             "seconds": r["seconds"]}
            for r in results
        ]
        return results, timings

    # -- the forecast op -----------------------------------------------

    def _integrate(self, model, state: EnsembleState, duration: float) -> EnsembleState:
        m = state.n_members
        n = min(self.n_workers, m)
        self.last_timings = []
        self.last_letkf_timings = []
        if n <= 1 or not self._ensure_pool() or not self._refresh_model(model):
            return model.integrate(state, duration)

        fields_spec, aux_spec = state_spec(state)
        self._in_slab = self._reuse(self._in_slab, fields_spec, aux_spec)
        out_aux_spec = dict(aux_spec)
        for k, (tail, dt) in self._learned_aux.items():
            out_aux_spec.setdefault(k, ((m,) + tuple(tail), dt))
        out_aux_spec = {k: out_aux_spec[k] for k in sorted(out_aux_spec)}
        self._out_slab = self._reuse(self._out_slab, fields_spec, out_aux_spec)
        self._in_slab.load(state)

        results, self.last_timings = self._run_blocks(
            "forecast", m, n, (self._in_slab, self._out_slab),
            {"duration": duration, "time": state.time,
             "nsteps": state.nsteps, "aux_keys": sorted(state.aux)},
            model=model,
        )
        # aux keys every block produced: in slab slots, or by value
        in_slab = set.intersection(*(set(r["slab_aux"]) for r in results))
        by_value = set.intersection(*(set(r["extra_aux"]) for r in results))
        out_state = self._out_slab.state(
            state.grid, state.reference,
            time=results[0]["time"], nsteps=results[0]["nsteps"],
            aux_keys=sorted(in_slab), copy=True,
        )
        for k in sorted(by_value):
            parts = [res["extra_aux"][k] for res in results]
            out_state.aux[k] = np.concatenate(parts, axis=0)
            self._learned_aux[k] = (tuple(parts[0].shape[1:]), str(parts[0].dtype))
        return out_state

    # -- the row-sharded LETKF transform -------------------------------

    def letkf_runner(self, dYb, d, rinv, *, return_pa_trace: bool = False,
                     profiler=None, has_obs=None, assume_active: bool = False,
                     **solve_kw):
        """Drop-in for :func:`~repro.letkf.core.letkf_transform` that
        shards the active rows across the pool.

        Each per-row transform is independent, so the sharded result is
        bit-identical to the direct call.  Falls back to the direct
        transform for small batches, the dense (``has_obs``) path, the
        Pa-trace diagnostic path, or when the pool is unavailable;
        ``solve_kw`` (``backend``, ``rtpp_factor``, ``precision``) is
        all a row block needs.
        """
        n_act, n_obs, m = dYb.shape
        n = min(self.n_workers, max(1, n_act // _MIN_LETKF_ROWS_PER_WORKER))
        if (return_pa_trace or not assume_active or n <= 1
                or not self._ensure_pool()):
            return letkf_transform(
                dYb, d, rinv, return_pa_trace=return_pa_trace,
                profiler=profiler, has_obs=has_obs,
                assume_active=assume_active, **solve_kw,
            )

        slab = self._ensure_letkf_slab(n_act, n_obs, m, dYb.dtype)
        slab.fill({"dYb": dYb, "d": d, "rinv": rinv})
        _, timings = self._run_blocks(
            "letkf", n_act, n, (slab,), {"n_obs": n_obs, **solve_kw}
        )
        self.last_letkf_timings += timings
        return slab.fields["W"][:n_act].copy()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"ProcessesBackend(n_workers={self.n_workers}, "
                f"start_method={self.start_method!r})")


def make_backend(
    spec: str | ExecutionConfig | ExecutionBackend | None = None,
    *,
    sanitize: bool | None = None,
) -> ExecutionBackend:
    """Resolve a backend spec: name, config, backend instance, or None.

    ``None`` yields the default :class:`VectorizedBackend`. The runtime
    sanitizer is armed when ``sanitize=True`` or when an
    :class:`~repro.config.ExecutionConfig` with ``sanitize=True`` is
    given (an explicit ``sanitize`` argument wins).
    """
    if isinstance(spec, ExecutionConfig) and sanitize is None:
        sanitize = spec.sanitize

    if spec is None:
        backend: ExecutionBackend = VectorizedBackend()
    elif isinstance(spec, ExecutionBackend):
        backend = spec
    else:
        if isinstance(spec, str):
            spec = ExecutionConfig(backend=spec)
        if not isinstance(spec, ExecutionConfig):
            raise TypeError(f"cannot build an execution backend from {spec!r}")
        if spec.backend == "serial":
            backend = SerialBackend()
        elif spec.backend == "vectorized":
            backend = VectorizedBackend()
        elif spec.backend == "processes":
            backend = ProcessesBackend(
                n_workers=spec.workers,
                concurrency=make_concurrency_sanitizer(spec.concurrency_checks),
            )
        else:
            backend = ShardedBackend(n_shards=spec.n_shards)

    if sanitize and not backend.sanitizer.enabled:
        backend.sanitizer = make_sanitizer(True)
    return backend
