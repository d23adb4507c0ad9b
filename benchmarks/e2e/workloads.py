"""The four workloads and their sizes.

Sizes were fitted on the 2-core reference host so that one run measures
for about ``run_seconds`` (12 s) and a whole run, five set-ups
included, stays under ~30 s: the driver's 92 runs have to fit 57
minutes. Every *scientific* knob not listed here stays at its
``LETKFConfig`` / ``ScaleConfig`` / ``RadarConfig`` default.

The amount of work is a pure function of ``--seconds`` (cycles and
requests, not a deadline), so every count repeats exactly for one seed.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

from repro.api.ingest import StreamFaultRates

__all__ = ["ChainSize", "TileLoadSize", "Workload", "WORKLOADS", "workload", "CASE_SEED"]

NOMINAL_SECONDS = 12
WARMUP_CYCLES = 2
MIN_TIMED_CYCLES = 20
#: seed of the one fixed case: the weather of the chain (truth, ensemble,
#: spread injection) and the storm track of ``tile_serving``
CASE_SEED = 2021


@dataclass(frozen=True)
class ChainSize:
    """Mesh, ensemble, radar and loop sizes of one coupled chain."""

    nx: int
    nz: int
    members: int
    #: (horizontal, vertical) localization [m]; None = the Table-2 default
    localization: tuple[float, float] | None
    #: (elevations, azimuths, gates) of one volume scan
    radar_shape: tuple[int, int, int]
    #: radar range [m]; None = the 60 km default
    max_range: float | None
    #: backend name, or keyword arguments of an ``ExecutionConfig``
    execution: str | dict
    #: part <2>: (members, forecast seconds)
    part2: tuple[int, float]
    #: stream faults between radar and ingest; None = a clean wire
    faults: StreamFaultRates | None
    #: timed cycles of a ``NOMINAL_SECONDS`` run
    cycles: int
    spinup_s: float = 300.0

    def timed_cycles(self, seconds: float) -> int:
        return max(MIN_TIMED_CYCLES, round(self.cycles * seconds / NOMINAL_SECONDS))


@dataclass(frozen=True)
class TileLoadSize:
    """The map viewers: clients and requests per epoch.

    On a coupled workload an epoch follows every cycle and polls the
    product just published (``shape`` and ``epochs`` are None). On
    ``tile_serving`` the load publishes its own ``shape`` fields.
    """

    clients: int
    #: requests per client between two publishes
    per_epoch: int
    #: synthetic field mesh; None = the chain's own products
    shape: tuple[int, int] | None = None
    #: timed epochs of a ``NOMINAL_SECONDS`` run; None = one per cycle
    epochs: int | None = None

    def timed_epochs(self, seconds: float) -> int:
        return max(8, round(self.epochs * seconds / NOMINAL_SECONDS))


@dataclass(frozen=True)
class Workload:
    name: str
    loop: str
    why: str
    chain: ChainSize
    tiles: TileLoadSize
    #: ``(layers, share)``: the traced run fails unless these layers
    #: together take at least this share of time-to-solution
    floors: tuple[tuple[tuple[str, ...], float], ...] = ()


_CORES = min(2, os.cpu_count() or 1)

#: the smallest chain that still has every stage: the smoke size, and
#: the reference chain that gives ``tile_serving`` its chain metrics
_MINIMAL = ChainSize(
    nx=8, nz=6, members=6, localization=(15_000.0, 5_000.0),
    radar_shape=(8, 36, 60), max_range=None, execution="vectorized",
    part2=(2, 60.0), faults=None, cycles=MIN_TIMED_CYCLES, spinup_s=120.0,
)
#: after each cycle, new visitors poll 400 tiles of the fresh product
_VISITORS = TileLoadSize(clients=_CORES, per_epoch=400 // _CORES)

WORKLOADS = {w.name: w for w in (
    Workload(
        name="scan_to_tile",
        loop="closed, one cycle in flight",
        why=(
            "Fig. 4 on our hardware: dense coverage, so letkf and eigen do "
            "most of the work; an analysis gain must move tts_p50_s and "
            "refresh_p50_s here. Closed loop, one cycle in flight."
        ),
        chain=ChainSize(
            nx=10, nz=8, members=24, localization=(15_000.0, 5_000.0),
            radar_shape=(8, 36, 60), max_range=None, execution="vectorized",
            part2=(3, 60.0), faults=None, cycles=24,
        ),
        tiles=_VISITORS, floors=((("letkf",), 0.60),),
    ),
    Workload(
        name="scan_ingest",
        loop="closed, one cycle in flight",
        why=(
            "Same chain, weight at the front: 2.9 MB volumes, seeded scan and "
            "chunk faults; radar scan and regrid dominate, letkf does little; a "
            "regrid or wire-path gain shows in ingest_p50_s here. Closed loop."
        ),
        chain=ChainSize(
            nx=12, nz=8, members=4, localization=None,
            radar_shape=(24, 120, 240), max_range=None, execution="vectorized",
            part2=(2, 60.0),
            faults=StreamFaultRates(
                scan_delay=0.15, scan_reorder=0.05, scan_duplicate=0.10,
                scan_drop=0.03, chunk_bitflip=0.70, chunk_truncate=0.60,
            ),
            cycles=30,
        ),
        tiles=_VISITORS,
        floors=((("radar", "jitdt", "ingest"), 0.50), (("ingest_path",), 0.08)),
    ),
    Workload(
        name="model_procs",
        loop="closed, one cycle in flight",
        why=(
            "Same layers, used differently: sparse coverage, double precision, "
            "worker processes, so model and core.backends dominate; a dycore "
            "gain shows here, a dense-float32-only tuning as a loss. Closed loop."
        ),
        chain=ChainSize(
            nx=16, nz=12, members=12, localization=None,
            radar_shape=(8, 36, 60), max_range=40_000.0,
            execution={"backend": "processes", "workers": _CORES,
                       "precision": "double"},
            part2=(3, 120.0), faults=None, cycles=24,
        ),
        tiles=_VISITORS, floors=((("model",), 0.45),),
    ),
    Workload(
        name="tile_serving",
        loop="closed, min(2, nproc) keep-alive clients",
        why=(
            "Serving alone: 256x256 fields, zipf tiles, ETag clients, a publish "
            "per 500 requests a client; compute is off the served path, so "
            "only a serving change moves tile_*. Closed loop, min(2,nproc) clients."
        ),
        chain=_MINIMAL,
        tiles=TileLoadSize(clients=_CORES, per_epoch=500, shape=(256, 256), epochs=54),
    ),
)}


def workload(name: str, *, smoke: bool) -> Workload:
    """The named workload, shrunk to a few seconds when ``smoke``."""
    w = WORKLOADS[name]
    if not smoke:
        return w
    chain = replace(
        _MINIMAL, execution=w.chain.execution, faults=w.chain.faults,
        max_range=w.chain.max_range, localization=w.chain.localization,
        cycles=6,
    )
    if w.tiles.shape is None:
        tiles = replace(w.tiles, per_epoch=20)
    else:
        tiles = replace(w.tiles, shape=(64, 64), per_epoch=60, epochs=4)
    return replace(w, chain=chain, tiles=tiles, floors=())
