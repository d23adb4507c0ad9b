"""Same seed, same counts; another seed, other inputs; every name once."""

from __future__ import annotations

import numpy as np
import pytest

from catalogue import END_TO_END, PER_LAYER
from tileload import storm_fields, tile_paths
from workloads import WORKLOADS

#: per-layer values that are counts or ratios of counts: they must
#: repeat exactly for one seed
EXACT = [
    m.name for m in PER_LAYER
    if m.unit in ("count", "bytes") or m.name in (
        "ingest.admit_ratio", "letkf.active_fraction", "serving.cache_hit_ratio",
        "eigen.eigh.gflop_computed",
    )
]


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_counts_repeat_exactly(smoke, name):
    first = smoke(name, trace=1, repeat=0)["metrics"]
    second = smoke(name, trace=1, repeat=1)["metrics"]
    assert len(EXACT) >= 25
    assert {k: first[k]["value"] for k in EXACT} == {
        k: second[k]["value"] for k in EXACT
    }


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_analysis_error_repeats_exactly(smoke, name):
    first = smoke(name, repeat=0)
    second = smoke(name, repeat=1)
    key = "analysis_rmse_theta"
    assert first["metrics"][key]["value"] == second["metrics"][key]["value"]
    assert first["attempted"] == second["attempted"] and first["failed"] == 0


def test_another_seed_changes_the_inputs(smoke):
    a = smoke("scan_ingest", seed=3)["metrics"]["analysis_rmse_theta"]["value"]
    b = smoke("scan_ingest", seed=4)["metrics"]["analysis_rmse_theta"]["value"]
    assert a != b                     # other radar noise, other analysis
    f3, f4 = storm_fields((64, 64), 3, 5), storm_fields((64, 64), 4, 5)
    assert not np.array_equal(f3["rain"], f4["rain"])
    assert np.array_equal(f3["rain"], storm_fields((64, 64), 3, 5)["rain"])
    paths, weights = tile_paths("t")
    s3 = np.random.default_rng((3, 7001, 0)).choice(len(paths), 50, p=weights)
    s4 = np.random.default_rng((4, 7001, 0)).choice(len(paths), 50, p=weights)
    assert not np.array_equal(s3, s4)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_every_metric_is_emitted_once(smoke, name):
    traced = smoke(name, trace=1)
    plain = smoke(name)
    assert sorted(traced["metrics"]) == sorted(m.name for m in PER_LAYER)
    assert sorted(plain["metrics"]) == sorted(m.name for m in END_TO_END)
    assert len(PER_LAYER) == 59
    for result in (traced, plain):
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["attempted"] >= 1
    units = {m.name: m.unit for m in END_TO_END + PER_LAYER}
    for key, entry in {**traced["metrics"], **plain["metrics"]}.items():
        assert entry["unit"] == units[key]
        assert np.isfinite(entry["value"])
    for key, entry in plain["metrics"].items():
        assert entry["value"] > 0, key
