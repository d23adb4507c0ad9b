"""Shared-memory slabs for member-batched ensemble state.

The ``processes`` execution backend (:mod:`repro.core.backends`) moves
member blocks between the parent and a persistent worker pool without
serialising a single field array: the batch lives in one named
``multiprocessing.shared_memory`` segment and every process maps the
same pages.  This module owns that machinery:

* :class:`SharedStateSlab` — one named segment laid out as a packed
  sequence of 64-byte-aligned member-batched arrays (prognostic fields
  first, then aux/closure arrays).  The parent creates it from a state
  spec; workers :meth:`~SharedStateSlab.attach` from the picklable
  :attr:`~SharedStateSlab.manifest` and build zero-copy
  :class:`~repro.model.ensemble_state.EnsembleState` views over any
  member block.
* :class:`SharedArena` — an owning container of slabs with
  deterministic teardown (context manager), used by tests and by
  :meth:`EnsembleState.to_shared
  <repro.model.ensemble_state.EnsembleState.to_shared>`.
* a process-wide registry of every segment *created* here plus an
  ``atexit`` sweep, so segments are unlinked even when the owner exits
  without calling :meth:`~SharedStateSlab.close` (crash robustness);
  :func:`live_segment_names` exposes the registry so the test suite can
  assert nothing leaks.

Resource-tracker discipline: CPython 3.11 registers a segment with the
``resource_tracker`` on *attach* as well as on create.  Processes
started by :mod:`multiprocessing` — fork *and* spawn alike — inherit
the creator's tracker daemon, so their attach-time registration is a
set-level duplicate that must be left alone: removing it would strip
the creator's crash-net registration (and make the creator's own
``unlink`` trip a tracker ``KeyError``).  Only a genuinely *unrelated*
process (not a multiprocessing child, not the creating process itself)
runs its own tracker; there the attach registration would make that
tracker warn about — and wrongly unlink — the creator's live segment
at exit, so exactly that case gets an ``unregister``.  The manifest
carries the creator's pid so :meth:`attach` can tell same-process
attaches apart.
"""

from __future__ import annotations

import atexit
import os
import warnings
from multiprocessing import resource_tracker, shared_memory
from typing import Iterator, Mapping, Optional, Sequence

import numpy as np

__all__ = [
    "SharedArena",
    "SharedStateSlab",
    "add_sweep_listener",
    "live_segment_names",
    "state_spec",
    "sweep_leaked",
]

#: byte alignment of every array inside a slab (cache-line / SIMD width)
_ALIGN = 64

#: segments created by *this* process, name -> SharedMemory handle;
#: swept (close + unlink) at interpreter exit
_CREATED: dict[str, shared_memory.SharedMemory] = {}

_NAME_SEQ = 0


def _next_name() -> str:
    """A deterministic candidate segment name unique to this process."""
    global _NAME_SEQ
    _NAME_SEQ += 1
    return f"reproshm-{os.getpid()}-{_NAME_SEQ}"


def live_segment_names() -> frozenset[str]:
    """Names of segments created by this process and not yet unlinked."""
    return frozenset(_CREATED)


#: callables notified with the list of swept (leaked) segment names;
#: repro.checks.concurrency.attach_sweep_telemetry registers here to
#: count sweeps through the checks_shm_leaked_total metric
_SWEEP_LISTENERS: list = []


def add_sweep_listener(fn) -> None:
    """Register ``fn(names)`` to observe every non-empty leak sweep."""
    _SWEEP_LISTENERS.append(fn)


def sweep_leaked() -> list[str]:
    """Unlink every still-registered segment; report what leaked.

    A segment reaching this sweep means its owner never called
    :meth:`SharedStateSlab.close` — a lifecycle bug (SHM001's runtime
    face), so the sweep is loud: the leaked names go to every
    registered listener and a :class:`ResourceWarning`, not just
    silently to ``unlink``.
    """
    swept: list[str] = []
    for name in list(_CREATED):
        seg = _CREATED.pop(name, None)
        if seg is None:
            continue
        try:
            seg.close()
            seg.unlink()
        except OSError:  # already gone (e.g. unlinked by a sibling)
            pass
        swept.append(name)
    if swept:
        for fn in _SWEEP_LISTENERS:
            try:
                fn(list(swept))
            except Exception:  # a listener must not break the sweep
                pass
        warnings.warn(
            f"swept {len(swept)} leaked shared-memory segment(s): "
            f"{sorted(swept)} — the owner never called close()",
            ResourceWarning,
            stacklevel=2,
        )
    return swept


atexit.register(sweep_leaked)


def _untrack(seg: shared_memory.SharedMemory, creator_pid: Optional[int]) -> None:
    """Drop an attach-time tracker registration (see module docstring).

    Only acts in a process that does *not* share the creator's tracker
    daemon: multiprocessing children (fork and spawn both inherit the
    tracker fd) and the creating process itself are left alone — their
    duplicate register was a set-level no-op, and removing it would
    strip the creator's crash net.
    """
    import multiprocessing

    if multiprocessing.parent_process() is not None:
        return  # a multiprocessing child: tracker inherited, shared
    if creator_pid is not None and creator_pid == os.getpid():
        return  # same process as the creator
    try:
        resource_tracker.unregister(seg._name, "shared_memory")  # type: ignore[attr-defined]
    except (AttributeError, KeyError):
        pass


def state_spec(state) -> tuple[dict, dict]:
    """``(fields_spec, aux_spec)`` describing a batched state's arrays.

    Each spec maps ``key -> (shape, dtype_str)`` in a deterministic
    order (field insertion order, aux keys sorted), which fixes the
    slab layout on both sides of the pool.
    """
    fields = {k: (tuple(v.shape), str(v.dtype)) for k, v in state.fields.items()}
    aux = {
        k: (tuple(state.aux[k].shape), str(state.aux[k].dtype))
        for k in sorted(state.aux)
    }
    return fields, aux


def _layout(fields_spec: Mapping, aux_spec: Mapping):
    """Packed, aligned offsets for every array; returns entries + size."""
    entries: list[tuple[str, str, tuple[int, ...], str, int]] = []
    offset = 0
    for section, spec in (("fields", fields_spec), ("aux", aux_spec)):
        for key, (shape, dtype) in spec.items():
            shape = tuple(int(s) for s in shape)
            dtype = str(np.dtype(dtype))
            nbytes = int(np.prod(shape, dtype=np.int64)) * np.dtype(dtype).itemsize
            offset = -(-offset // _ALIGN) * _ALIGN
            entries.append((section, key, shape, dtype, offset))
            offset += nbytes
    return entries, max(offset, 1)


class SharedStateSlab:
    """One named shared segment holding a member-batched state's arrays.

    Created by the pool parent (``SharedStateSlab(fields_spec,
    aux_spec)``) and mapped by workers via :meth:`attach`.  The
    :attr:`fields` / :attr:`aux` dicts are numpy views straight into
    the segment; nothing here copies.
    """

    def __init__(self, fields_spec: Mapping, aux_spec: Mapping, *,
                 _attach: Optional[dict] = None):
        if _attach is None:
            entries, size = _layout(fields_spec, aux_spec)
            seg = None
            while seg is None:
                name = _next_name()
                try:
                    seg = shared_memory.SharedMemory(
                        name=name, create=True, size=size)
                except FileExistsError:  # stale leftover from a dead pid
                    continue
            _CREATED[seg.name] = seg
            self._owner = True
            self._creator_pid = os.getpid()
        else:
            entries = [
                (section, key, tuple(shape), dtype, off)
                for section, key, shape, dtype, off in _attach["entries"]
            ]
            seg = shared_memory.SharedMemory(name=_attach["name"], create=False)
            _untrack(seg, _attach.get("pid"))
            self._owner = False
            self._creator_pid = _attach.get("pid")
        self._seg: Optional[shared_memory.SharedMemory] = seg
        self._entries = entries
        self.fields: dict[str, np.ndarray] = {}
        self.aux: dict[str, np.ndarray] = {}
        for section, key, shape, dtype, off in entries:
            arr = np.ndarray(shape, dtype=dtype, buffer=seg.buf, offset=off)
            (self.fields if section == "fields" else self.aux)[key] = arr

    # -- identity ------------------------------------------------------

    @property
    def name(self) -> str:
        """The segment name (``/dev/shm/<name>`` on Linux)."""
        assert self._seg is not None
        return self._seg.name

    @property
    def manifest(self) -> dict:
        """Picklable attach token: segment name + array layout.

        Includes the creating process's pid so attachers can decide
        whether they share its resource tracker (see module docstring).
        """
        return {
            "name": self.name,
            "entries": list(self._entries),
            "pid": self._creator_pid,
        }

    @property
    def nbytes(self) -> int:
        assert self._seg is not None
        return self._seg.size

    @property
    def n_members(self) -> int:
        return next(iter(self.fields.values())).shape[0]

    @classmethod
    def attach(cls, manifest: dict) -> "SharedStateSlab":
        """Map an existing slab from its :attr:`manifest` (zero-copy)."""
        return cls({}, {}, _attach=manifest)

    # -- state views ---------------------------------------------------

    def state(self, grid, reference, *, time: float, nsteps: int,
              lo: Optional[int] = None, hi: Optional[int] = None,
              aux_keys: Optional[Sequence[str]] = None,
              copy: bool = False):
        """An :class:`EnsembleState` over members ``[lo:hi)``.

        By default the state's arrays are views into the segment
        (writes go straight to shared pages); ``copy=True`` detaches it
        onto the private heap.  ``aux_keys`` restricts which aux slots
        the state carries (a slab may reserve slots the current cycle
        has not produced yet).
        """
        from .ensemble_state import EnsembleState

        sl = slice(lo, hi)
        keys = self.aux if aux_keys is None else aux_keys
        fields = {k: v[sl] for k, v in self.fields.items()}
        aux = {k: self.aux[k][sl] for k in keys}
        if copy:
            fields = {k: v.copy() for k, v in fields.items()}
            aux = {k: v.copy() for k, v in aux.items()}
        return EnsembleState(
            grid=grid, reference=reference, fields=fields,
            time=time, nsteps=nsteps, aux=aux,
        )

    def load(self, state, *, lo: int = 0) -> None:
        """Copy a batched state's arrays into rows ``[lo:lo+m)``."""
        m = next(iter(state.fields.values())).shape[0]
        sl = slice(lo, lo + m)
        for k, src in state.fields.items():
            self.fields[k][sl] = src
        for k, src in state.aux.items():
            self.aux[k][sl] = src

    def fill(self, arrays: Mapping[str, np.ndarray]) -> None:
        """Copy each array into the leading corner of its same-named
        field (which may be larger): the parent's input load before a
        block handoff, for slabs that are not state-shaped."""
        for k, src in arrays.items():
            self.fields[k][tuple(slice(n) for n in src.shape)] = src

    def matches(self, fields_spec: Mapping, aux_spec: Mapping) -> bool:
        """Whether this slab was laid out for exactly these specs."""
        entries, _ = _layout(fields_spec, aux_spec)
        return entries == self._entries

    # -- lifecycle -----------------------------------------------------

    def close(self) -> None:
        """Unmap; the owning process also unlinks the segment.

        Idempotent.  Array views become invalid after this.
        """
        seg, self._seg = self._seg, None
        if seg is None:
            return
        self.fields = {}
        self.aux = {}
        try:
            seg.close()
            if self._owner:
                _CREATED.pop(seg.name, None)
                seg.unlink()
        except OSError:
            pass

    def __enter__(self) -> "SharedStateSlab":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self):  # best-effort; atexit sweep is the real net
        try:
            self.close()
        except Exception:
            pass


class SharedArena:
    """An owning collection of :class:`SharedStateSlab` segments.

    Context-managed: ``with SharedArena() as arena: ...`` guarantees
    every slab allocated through it is unlinked on exit, which is the
    contract the shared-memory leak fixture in the test suite enforces.
    """

    def __init__(self) -> None:
        self._slabs: list[SharedStateSlab] = []

    def allocate(self, fields_spec: Mapping, aux_spec: Mapping) -> SharedStateSlab:
        """Create (and own) a new slab for the given specs."""
        slab = SharedStateSlab(fields_spec, aux_spec)
        self._slabs.append(slab)
        return slab

    def share(self, state):
        """A shared-memory-backed copy of a batched state.

        Allocates a slab shaped like ``state``, copies the arrays in,
        and returns an :class:`EnsembleState` whose arrays are views
        into the segment — ``member_view`` on it is zero-copy shared
        memory all the way down.
        """
        fields_spec, aux_spec = state_spec(state)
        slab = self.allocate(fields_spec, aux_spec)
        slab.load(state)
        return slab.state(
            state.grid, state.reference,
            time=state.time, nsteps=state.nsteps,
        )

    def close(self) -> None:
        """Unmap and unlink every slab allocated through this arena."""
        slabs, self._slabs = self._slabs, []
        for slab in slabs:
            slab.close()

    def __enter__(self) -> "SharedArena":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __iter__(self) -> Iterator[SharedStateSlab]:
        return iter(self._slabs)

    def __len__(self) -> int:
        return len(self._slabs)
