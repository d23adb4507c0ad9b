"""Event-driven implementation of the Fig. 2 pipeline.

:class:`repro.workflow.realtime.RealtimeWorkflow` simulates the cyclic
pipeline as a max-plus recurrence for speed; this module implements the
*same semantics* on the :class:`~repro.workflow.events.EventQueue`
kernel. The two implementations are cross-validated against each other
in ``tests/test_workflow_crossvalidation.py`` (identical cost draws must
produce identical cycle records) — the discrete-event form is the
reference semantics, the recurrence form is the optimization. It lives
with the other oracles because only that test imports it.
"""

from __future__ import annotations

from repro.comm.topology import FugakuAllocation
from repro.config import WorkflowConfig
from repro.jitdt.failsafe import FailSafeMonitor
from repro.workflow.events import EventQueue, Resource
from repro.workflow.realtime import CycleRecord
from repro.workflow.scheduler import CycleCosts, StageCostModel

__all__ = ["EventDrivenWorkflow"]


class EventDrivenWorkflow:
    """The 30-s pipeline as explicitly scheduled events."""

    def __init__(
        self,
        config: WorkflowConfig,
        costs: StageCostModel | None = None,
        *,
        seed: int = 42,
    ):
        self.config = config
        self.costs = costs or StageCostModel(config, seed=seed)
        self.allocation = FugakuAllocation(config.nodes)
        self.queue = EventQueue()
        self.part1 = Resource("part1-nodes")
        self.part2_slots = [
            Resource(f"part2-slot{i}") for i in range(self.allocation.part2_concurrency)
        ]
        self.failsafe = FailSafeMonitor(
            deadline_s=15.0, restart_penalty_s=config.jitdt.restart_penalty_s
        )
        self.records: dict[int, CycleRecord] = {}

    # Each stage completion is one event; the chain for cycle c:
    #   t_obs -> file-created -> transferred -> (wait part1) analysis
    #   -> (wait part2 slot) product

    def submit_cycle(self, cycle: int, *, rain_area_km2: float = 0.0, in_outage: bool = False) -> None:
        t_obs = cycle * self.config.cycle_interval_s
        if in_outage:
            self.records[cycle] = CycleRecord(
                cycle=cycle, t_obs=t_obs, ok=False, skipped_reason="outage",
                rain_area_km2=rain_area_km2,
            )
            return
        c = self.costs.draw(rain_area_km2)
        retry = self.costs.draw(rain_area_km2)
        self.queue.schedule(
            t_obs + c.file_creation,
            lambda: self._on_file_created(cycle, t_obs, c, retry, rain_area_km2),
        )

    def _on_file_created(self, cycle, t_obs, c: CycleCosts, retry: CycleCosts, rain):
        t_file = self.queue.now
        transfer_total = self.failsafe.supervise(
            t_file,
            [(c.transfer, c.transfer_stalled), (retry.transfer, retry.transfer_stalled)],
        )
        if transfer_total is None:
            self.records[cycle] = CycleRecord(
                cycle=cycle, t_obs=t_obs, ok=False, skipped_reason="transfer-failed",
                rain_area_km2=rain,
            )
            return
        self.queue.schedule(
            t_file + transfer_total,
            lambda: self._on_transferred(cycle, t_obs, t_file, c, rain),
        )

    def _on_transferred(self, cycle, t_obs, t_file, c: CycleCosts, rain):
        t_transferred = self.queue.now
        start1 = self.part1.acquire(t_transferred, c.part1_busy)
        t_analysis = start1 + c.letkf
        self.queue.schedule(
            t_analysis,
            lambda: self._on_analysis(cycle, t_obs, t_file, t_transferred, t_analysis, c, rain),
        )

    def _on_analysis(self, cycle, t_obs, t_file, t_transferred, t_analysis, c: CycleCosts, rain):
        slot = self.part2_slots[cycle % len(self.part2_slots)]
        dur = c.forecast_30min + c.product_write
        start2 = slot.acquire(t_analysis, dur)
        t_product = start2 + dur
        self.queue.schedule(
            t_product,
            lambda: self._on_product(cycle, t_obs, t_file, t_transferred, t_analysis, t_product, rain),
        )

    def _on_product(self, cycle, t_obs, t_file, t_transferred, t_analysis, t_product, rain):
        self.records[cycle] = CycleRecord(
            cycle=cycle,
            t_obs=t_obs,
            ok=True,
            t_file=t_file,
            t_transferred=t_transferred,
            t_analysis=t_analysis,
            t_product=t_product,
            rain_area_km2=rain,
        )

    # ------------------------------------------------------------------

    def run(self, n_cycles: int, *, rain=None, outage=None) -> list[CycleRecord]:
        """Submit n cycles and drain the event queue.

        ``rain``/``outage`` are optional per-cycle sequences. Cycles are
        submitted in order; because part-<1> acquisition happens at each
        cycle's data-arrival event (time-ordered), resource semantics
        match the recurrence implementation exactly.
        """
        for cy in range(n_cycles):
            self.submit_cycle(
                cy,
                rain_area_km2=float(rain[cy]) if rain is not None else 0.0,
                in_outage=bool(outage[cy]) if outage is not None else False,
            )
        self.queue.run()
        return [self.records[cy] for cy in sorted(self.records)]
