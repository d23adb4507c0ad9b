"""Self-tests of the scan-to-tile benchmark (not part of tier 1).

    PYTHONPATH=src python -m pytest benchmarks/e2e/tests -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

E2E = Path(__file__).resolve().parents[1]
ROOT = E2E.parents[1]
sys.path.insert(0, str(E2E))


def run_smoke(workload: str, *, seed: int = 3, trace: int = 0):
    """One smoke run in its own process; returns (exit code, result or None)."""
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", workload,
         "--seed", str(seed), "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines and lines[-1].startswith("{"):
        result = json.loads(lines[-1])
    return proc.returncode, result, proc.stdout + proc.stderr


@pytest.fixture(scope="session")
def smoke():
    """Memoised smoke runs keyed (workload, seed, trace, repeat)."""
    cache: dict = {}

    def get(workload: str, seed: int = 3, trace: int = 0, repeat: int = 0):
        key = (workload, seed, trace, repeat)
        if key not in cache:
            code, result, text = run_smoke(workload, seed=seed, trace=trace)
            assert code == 0 and result is not None, text
            cache[key] = result
        return cache[key]

    return get
