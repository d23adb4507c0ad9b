"""Scan-to-tile benchmark: one command, every metric, outputs checked.

    python3 benchmarks/e2e/run.py --workload scan_to_tile --seed 1 \\
        --seconds 12 --trace 0

drives the real code path of every tier from radar scan to served tile,
prints each metric by name with its unit and sample count, checks that
the outputs are correct, and ends with one JSON line. ``--trace 1``
prints the per-layer metrics instead of the end-to-end ones (and writes
the spans to ``output/trace-<workload>.jsonl``). Without ``--workload``
all four run, one process each. ``--smoke`` shrinks a workload to a few
seconds for the self-tests; smoke numbers are never recorded.

All numbers are wall clock on this host. The simulated Fugaku / SINET
seconds of ``StageCostModel`` and ``TransferResult.seconds`` appear in
no metric.
"""

from __future__ import annotations

import time

_T_START = time.perf_counter()      # set-up time runs from here

import argparse  # noqa: E402
import json  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"
OUTPUT = HERE / "output"
#: full set-ups per run; setup_s reports their median. The first is
#: cold (20-40 % slower); five let the median also shrug off one hiccup.
SETUPS = 5


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", help="one of the four workloads (default: all)")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=12.0,
                   help="nominal length of the timed phase; sets the amount of work")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--traced", action="store_true", help="same as --trace 1")
    p.add_argument("--smoke", action="store_true")
    args = p.parse_args(argv)
    args.trace = bool(args.trace or args.traced)
    return args


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"run.py: no program to measure: {SRC}/repro is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    if args.workload is None:
        return _run_each(args, list(WORKLOADS))
    if args.workload not in WORKLOADS:
        print(f"run.py: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    from chain import stop_children
    from measure import run_workload

    OUTPUT.mkdir(exist_ok=True)
    try:
        report = run_workload(
            args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
            smoke=args.smoke, output_dir=OUTPUT, t_start=_T_START, setups=SETUPS,
        )
    finally:
        # on every way out: no process of this run outlives it
        strays = stop_children()
    if strays:
        report["problems"] += strays
        report["correct"] = False
    _print(report, args)
    return 0 if report["correct"] else 1


def _run_each(args, names) -> int:
    """All workloads, one process each (peak memory is per workload)."""
    worst = 0
    for name in names:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(int(args.trace))] + (["--smoke"] if args.smoke else [])
        worst = max(worst, subprocess.run(cmd, timeout=900).returncode)
    return worst


def _print(report, args) -> None:
    from catalogue import END_TO_END, PER_LAYER

    print(f"workload {report['workload']}  seed {args.seed}  trace {int(args.trace)}  "
          f"smoke {str(args.smoke).lower()}  cycles {report['cycles']}  "
          f"tile requests {report['requests']}")
    print(f"  {report['loop']}")
    samples = report["samples"]
    for metric in (PER_LAYER if args.trace else END_TO_END):
        value = report["metrics"][metric.name]
        n = samples.get(metric.name)
        print(f"  {metric.name:<36} {value:>14.6g} {metric.unit:<6}"
              + (f" n={n}" if n is not None else ""))
    for line in report["notes"]:
        print(f"  {line}")
    for line in report["problems"]:
        print(f"  CHECK FAILED: {line}")
    units = {m.name: m.unit for m in END_TO_END + PER_LAYER}
    print(json.dumps({
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in report["metrics"].items()
        },
    }))


if __name__ == "__main__":
    sys.exit(main())

