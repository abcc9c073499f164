"""Run-to-run spread of the end-to-end metrics.

Run from the root of a source checkout::

    python3 exlbench/spread.py --workload panel-chase --runs 10 --seconds 35

runs ``exlbench/run.py`` once per seed (1..runs), one run at a time, and
prints for every end-to-end metric its median over the runs and its
spread: the distance between the first and third quartile of the runs'
values (``statistics.quantiles(values, n=4)``) as a share of their
median.  ``--json FILE`` also writes every run's values and report.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else 0.0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=35)
    parser.add_argument("--json", metavar="FILE")
    args = parser.parse_args()

    runs = []
    for seed in range(1, args.runs + 1):
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
            capture_output=True, text=True, check=True,
        )
        result = json.loads(done.stdout.strip().splitlines()[-1])
        values = {name: m["value"] for name, m in result["metrics"].items()}
        runs.append({"seed": seed, "correct": result["correct"], "metrics": values,
                     "report": done.stdout.splitlines()[:-1]})
        print(f"seed {seed}: correct={result['correct']} " + " ".join(
            f"{name}={value:.4g}" for name, value in values.items()), flush=True)

    print(f"{args.workload}: {len(runs)} runs of {args.seconds}s")
    summary = {}
    for name in runs[0]["metrics"]:
        values = [run["metrics"][name] for run in runs]
        summary[name] = {"median": statistics.median(values), "spread": spread(values)}
        print(f"  {name:<28} median {summary[name]['median']:<12.6g} "
              f"spread {summary[name]['spread']:.2%}")
    if args.json:
        Path(args.json).write_text(json.dumps(
            {"workload": args.workload, "seconds": args.seconds,
             "runs": runs, "summary": summary}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
