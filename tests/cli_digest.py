"""Behaviour digest of the benchmark's cli-scenarios commands.

For seeds 0 and 1, builds the cli-scenarios round with `bench/run.py`'s
`import_program` and `workloads.build`, runs each command once in process,
and prints the seed, the command count and the SHA-256 of
`json.dumps([[key, exit, stdout, stderr], ...])`.  Equal digests before and
after a change mean every command printed the same bytes and exited alike.

Run from the repository root: `python tests/cli_digest.py`.
"""

import hashlib
import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import run  # noqa: E402
import workloads  # noqa: E402


def digest(seed: int) -> tuple[int, str]:
    with tempfile.TemporaryDirectory() as scratch:
        work = workloads.build("cli-scenarios", run.import_program(), seed, run.DATA, Path(scratch))
        results = [[op.key, *op.run()] for op in work.ops]
    return len(results), hashlib.sha256(json.dumps(results).encode()).hexdigest()


if __name__ == "__main__":
    for seed in (0, 1):
        print(seed, *digest(seed))
