"""Run every workload once and print its end-to-end metrics by name and unit.

    python3 bench/report.py [--seed N] [--seconds S]

Each workload runs in its own process (bench/run.py, one after another), so
peak_rss_mb is per workload.  A metric with a workload-level name (for example
oracle_candidates_per_s for work_per_s on oracle-grid) is printed under it.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

import run


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    args = parser.parse_args()
    correct = True
    for name in run.workloads.NAMES:
        argv = [sys.executable, str(run.BENCH / "run.py"), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
        proc = subprocess.run(argv, capture_output=True, text=True)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        correct = correct and result["correct"]
        print(name)
        for key, metric in result["metrics"].items():
            label = run.ALIASES[name].get(key, key)
            print(f"  {label:<26}{metric['value']:>14.6g} {metric['unit']}")
        rate = result["failed"] / result["attempted"]
        print(f"  {'error_rate':<26}{rate:>14.6g} ({result['failed']} of {result['attempted']})")
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
