"""Cross-validation: event-driven vs recurrence pipeline implementations.

Two independent implementations of the Fig.-2 pipeline semantics — the
explicit discrete-event one and the max-plus recurrence — must produce
identical cycle records when fed identical cost draws.
"""

import numpy as np
import pytest

from repro.config import WorkflowConfig
from repro.workflow import RealtimeWorkflow, StageCostModel

from .oracles.realtime_events import EventDrivenWorkflow


@pytest.mark.parametrize("seed", [0, 7, 42])
def test_implementations_agree(seed):
    cfg = WorkflowConfig()
    rng = np.random.default_rng(seed + 100)
    n = 80
    rain = rng.uniform(0, 6000, n)
    outage = rng.random(n) < 0.1

    wf_rec = RealtimeWorkflow(cfg, StageCostModel(cfg, seed=seed))
    for c in range(n):
        wf_rec.run_cycle(c, rain_area_km2=float(rain[c]), in_outage=bool(outage[c]))

    wf_ev = EventDrivenWorkflow(cfg, StageCostModel(cfg, seed=seed))
    recs_ev = wf_ev.run(n, rain=rain, outage=outage)

    assert len(wf_rec.records) == len(recs_ev) == n
    for a, b in zip(wf_rec.records, recs_ev):
        assert a.cycle == b.cycle
        assert a.ok == b.ok
        if a.ok:
            assert a.t_file == pytest.approx(b.t_file)
            assert a.t_transferred == pytest.approx(b.t_transferred)
            assert a.t_analysis == pytest.approx(b.t_analysis)
            assert a.t_product == pytest.approx(b.t_product)
        else:
            assert a.skipped_reason == b.skipped_reason


def test_event_driven_resource_contention():
    # under saturating load both part-1 queueing and slot rotation engage
    cfg = WorkflowConfig()
    wf = EventDrivenWorkflow(cfg, StageCostModel(cfg, seed=3))
    recs = wf.run(30, rain=np.full(30, 8000.0))
    ok = [r for r in recs if r.ok]
    ana = [r.t_analysis for r in ok]
    assert all(b > a for a, b in zip(ana, ana[1:]))
    assert all(s.acquisitions > 0 for s in wf.part2_slots)


def test_event_queue_processes_all_events():
    cfg = WorkflowConfig()
    wf = EventDrivenWorkflow(cfg, StageCostModel(cfg, seed=5))
    wf.run(20)
    assert len(wf.queue) == 0
    assert wf.queue.events_processed >= 20 * 3  # >= 3 chained events/cycle
