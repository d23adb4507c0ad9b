"""Record ``baseline.json``: two full sets of runs of this commit.

    python3 benchmarks/e2e/record_baseline.py --seed 1

Each set runs the four workloads untraced, then traced, three times
each, one process per run, at full size. A metric's value in a set is
the median of its three runs, as the bounds in ``BENCHMARK.json`` are
applied to medians of runs: about one coupled run in ten lands in a
slow serving mode on this sandbox (tile latency +25 %), which a median
ignores and a single run does not. The file keeps every run's value,
the value per set and the relative difference between the sets: the
evidence behind the bounds. Counts have to be the same in all six runs.
Smoke runs are never recorded.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
#: the baseline is two sets; ``rel_diff`` is the difference between them
SETS = 2
RUNS_PER_SET = 3
#: units of metrics that must repeat exactly for one seed
EXACT_UNITS = ("count", "bytes")


def _host(seed: int) -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    import numpy
    import scipy

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    git = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
    )
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "git_sha_parent": git.stdout.strip() or "unknown",
        "seed": seed,
    }


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} trace={trace} failed:\n{proc.stdout}{proc.stderr}")
    notes = [ln.strip() for ln in proc.stdout.splitlines()
             if "share of time" in ln or "WARNING" in ln]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["notes"] = notes
    return result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, default=1)
    args = p.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    sets = []
    for i in range(SETS):
        runs = {}
        for trace in (0, 1):
            for name in names:
                print(f"set {i + 1}: {name} trace {trace}", flush=True)
                runs[f"{name}/trace{trace}"] = [
                    _run(name, args.seed, spec["run_seconds"], trace)
                    for _ in range(RUNS_PER_SET)
                ]
        sets.append(runs)

    table = {}
    for key in sets[0]:
        rows = {}
        for metric, first in sets[0][key][0]["metrics"].items():
            per_run = [[r["metrics"][metric]["value"] for r in s[key]] for s in sets]
            if first["unit"] in EXACT_UNITS and len({v for s in per_run for v in s}) > 1:
                raise SystemExit(f"{key}: {metric} does not repeat: {per_run}")
            values = [statistics.median(s) for s in per_run]
            base = abs(values[0])
            rows[metric] = {
                "unit": first["unit"],
                "runs": per_run,
                "values": values,
                "rel_diff": (max(values) - min(values)) / base if base else 0.0,
            }
            if metric in bounds:
                rows[metric]["bound"] = bounds[metric]
        table[key] = {
            "correct": [all(r["correct"] for r in s[key]) for s in sets],
            "attempted": [s[key][0]["attempted"] for s in sets],
            "failed": [sum(r["failed"] for r in s[key]) for s in sets],
            "notes": [[ln for r in s[key] for ln in r["notes"]] for s in sets],
            "metrics": rows,
        }
    doc = {"smoke": False, "claim": None, "host": _host(args.seed), "runs": table}
    (HERE / "baseline.json").write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {HERE / 'baseline.json'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
