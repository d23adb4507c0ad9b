"""BENCHMARK.json, the failure exit, and the bare-directory refusal."""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

from catalogue import END_TO_END, PER_LAYER
from conftest import E2E, ROOT
from workloads import NOMINAL_SECONDS, WORKLOADS

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_benchmark_json_names_what_the_runner_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert spec["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert spec["paths"] == ["benchmarks/e2e"]
    assert spec["run_seconds"] == NOMINAL_SECONDS
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()
    ]
    assert spec["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in END_TO_END
    ]
    assert spec["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
    ]


def test_names_units_and_bounds_fit_the_contract():
    names = [m.name for m in END_TO_END + PER_LAYER] + list(WORKLOADS)
    assert len(set(names)) == len(names)
    for m in END_TO_END + PER_LAYER:
        assert NAME.match(m.name), m.name
        assert UNIT.match(m.unit), m.unit
        assert m.better in ("lower", "higher")
    for m in END_TO_END:
        assert 0 < m.bound <= 0.25
    setup = END_TO_END[0]
    assert (setup.name, setup.unit, setup.better) == ("setup_s", "s", "lower")
    assert setup.bound == max(m.bound for m in END_TO_END)
    for w in WORKLOADS.values():
        assert NAME.match(w.name) and len(w.why) <= 200 and "\n" not in w.why


def test_a_failed_tile_check_fails_the_run(monkeypatch, capsys):
    import chain
    import run

    monkeypatch.setattr(chain, "check_png", lambda body: "corrupted by the self-test")
    code = run.main(["--workload", "scan_to_tile", "--seed", "3", "--smoke"])
    out = capsys.readouterr().out
    result = json.loads(out.strip().splitlines()[-1])
    assert code != 0
    assert result["correct"] is False and result["failed"] >= 1
    assert "corrupted by the self-test" in out


@pytest.mark.parametrize("trace", [0, 1])
def test_refuses_a_directory_without_the_program(tmp_path, trace):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        E2E, tmp_path / "benchmarks" / "e2e",
        ignore=shutil.ignore_patterns("output", "__pycache__", ".pytest_cache"),
    )
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "scan_to_tile",
         "--seed", "1", "--seconds", "12", "--trace", str(trace)],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert "{" not in proc.stdout


def test_no_process_outlives_a_run():
    """The pool's resource tracker used to end a moment after the runner."""
    proc = subprocess.Popen(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "model_procs",
         "--seed", "3", "--smoke"],
        cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        start_new_session=True,
    )
    assert proc.wait(timeout=180) == 0
    with pytest.raises(ProcessLookupError):     # its process group is empty
        os.killpg(proc.pid, 0)


def test_a_stray_child_is_stopped_and_named():
    from chain import stop_children

    child = subprocess.Popen(["sleep", "60"])
    strays = stop_children()
    assert child.poll() is not None or child.wait(timeout=5) is not None
    assert len(strays) == 1 and "sleep 60" in strays[0]
    assert stop_children() == []


def test_the_traced_run_checks_its_own_instrument():
    from measure import _instrument_checks

    def check(**changed):
        metrics = {
            "trace.coverage_ratio": 0.999, "trace.overhead_ratio": 1.01,
            "letkf.transform.ms": 60.0, "core.backends.workers.count": 2,
            "eigen.eigh.ms": 70.0, **changed,
        }
        report = {"metrics": metrics, "notes": []}
        return _instrument_checks(report), report["notes"]

    assert check() == ([], [])
    problems, notes = check(**{"trace.overhead_ratio": 1.07})
    assert not problems and "above the 1.05 bar" in notes[0]
    assert "slows what it measures" in check(**{"trace.overhead_ratio": 1.2})[0][0]
    assert "cover" in check(**{"trace.coverage_ratio": 0.9})[0][0]
    # one process may take as long as the two workers' transforms, no longer
    assert "replay" in check(**{"eigen.eigh.ms": 121.0})[0][0]
