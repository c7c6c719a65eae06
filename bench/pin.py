"""Pin the reference summaries that the benchmark checks results against.

    python3 bench/pin.py [--workload NAME ...]

Runs one round of each workload for every pinned seed and writes
bench/reference/<workload>.json.  A result whose invariants fail is never
pinned, and an operation on fixed inputs must give the same summary for every
seed.  Re-pinning accepts the current program's behaviour as correct, so do it
only when the benchmark's inputs change, never to make a failing run pass.
"""

from __future__ import annotations

import argparse
import json
import shutil

import run
import workloads


def pin(name: str) -> dict:
    fixed: dict[str, dict] = {}
    seeded: dict[str, dict] = {}
    for seed in run.PINNED_SEEDS:
        _, work, scratch = run.setup(name, seed)
        try:
            table = seeded.setdefault(str(seed), {})
            for op in work.ops:
                result = op.run()
                problems = op.invariants(result)
                if problems:
                    raise SystemExit(f"{name} seed {seed} {op.key}: {problems}")
                summary = op.summarize(result)
                if op.seeded:
                    table[op.key] = summary
                elif fixed.setdefault(op.key, summary) != summary:
                    raise SystemExit(f"{name} {op.key}: fixed input gives seed-dependent results")
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
    return {"workload": name, "params": work.params, "fixed": fixed, "seeded": seeded}


def dump(pinned: dict) -> str:
    """JSON with one pinned operation per line, so a re-pin diffs by operation."""

    def table(ops: dict, indent: str) -> str:
        return ",\n".join(
            f"{indent}{json.dumps(key)}: {json.dumps(ops[key], sort_keys=True)}" for key in sorted(ops)
        )

    seeded = ",\n".join(
        f"  {json.dumps(seed)}: {{\n{table(ops, '   ')}\n  }}" for seed, ops in pinned["seeded"].items()
    )
    return (
        f'{{\n "workload": {json.dumps(pinned["workload"])},\n'
        f' "params": {json.dumps(pinned["params"], sort_keys=True)},\n'
        f' "fixed": {{\n{table(pinned["fixed"], "  ")}\n }},\n'
        f' "seeded": {{\n{seeded}\n }}\n}}\n'
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=workloads.NAMES)
    args = parser.parse_args()
    run.REFERENCE.mkdir(exist_ok=True)
    for name in args.workload or workloads.NAMES:
        path = run.REFERENCE / f"{name}.json"
        path.write_text(dump(pin(name)), encoding="utf-8")
        print(f"pinned {path.relative_to(run.ROOT)}")


if __name__ == "__main__":
    main()
