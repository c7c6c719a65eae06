"""Benchmark of the pag engine, measured from outside the package.

Run from the repository root:

    python3 bench/run.py --workload oracle-grid --seed 0 --seconds 20 --trace 0

One process, one thread, one caller in a closed loop: the next operation
starts only when the previous one has returned.  The workload's operations
(one round) repeat as whole rounds until --seconds have passed.  Every result
is checked against the pinned reference in bench/reference/ and against
invariants recomputed by bench/checks.py; an operation that raises or fails
a check counts as failed.  Reported times are scaled to a reference host
speed measured between operations (see `calibrate`).

With --trace 0 the last line reports the end-to-end metrics.  With --trace 1
the same rounds run untraced, then one more round runs with every public
function of the program's modules wrapped in spans (bench/tracing.py), and
the last line reports the per-layer metrics.  Spans go to bench/out/.

Human-readable lines come first; the last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
DATA = ROOT / "tests" / "data"
OUT = BENCH / "out"
REFERENCE = BENCH / "reference"
PINNED_SEEDS = (0, 1)
# Set-ups per run; setup_s is their median.
SETUPS = 7
# Time of `calibrate` at the reference host speed, and how often to re-take it.
CALIBRATION_REF_S = 0.001
CALIBRATE_EVERY_S = 0.05
MODULES = ("model", "equilibrium", "oracle", "constructors", "analysis", "cli")

sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(SRC))

import checks  # noqa: E402
import workloads  # noqa: E402
from tracing import CONSTRUCTORS, LAYERS, Tracer  # noqa: E402

# The workload-level name of each generic end-to-end metric, where it has one.
ALIASES = {
    "oracle-grid": {"work_per_s": "oracle_candidates_per_s"},
    "verify-sparse": {"work_per_s": "verify_countries_per_s"},
    "cli-scenarios": {"op_ms_p50": "cli_cmd_ms_p50", "op_ms_p90": "cli_cmd_ms_p90"},
}


def calibrate() -> float:
    """Seconds taken by a fixed stdlib workload of exact-rational arithmetic.

    A shared host can run the same code up to twice as slowly for seconds to
    minutes at a time (bench/README.md has measurements).  Every reported
    time is scaled by CALIBRATION_REF_S over this loop's time, taken next to
    it, so a change in the host's speed cancels and a change in the program
    does not (the loop shares no code with the program).
    """
    start = perf_counter()
    total = Fraction(0)
    for k in range(1, 400):
        total += Fraction(k, k + 1)
    return perf_counter() - start


class SetupError(RuntimeError):
    """The checkout lacks the program or the benchmark's pinned data."""


def import_program() -> SimpleNamespace:
    """Import `pag` afresh from this checkout's src/ and return its modules."""
    if not (SRC / "pag" / "__init__.py").is_file():
        raise SetupError(f"no program at {SRC / 'pag'}")
    for name in [m for m in sys.modules if m == "pag" or m.startswith("pag.")]:
        del sys.modules[name]
    mods = {m: importlib.import_module(f"pag.{m}") for m in MODULES}
    if not Path(mods["model"].__file__).resolve().is_relative_to(SRC):
        raise SetupError(f"pag was imported from {mods['model'].__file__}, not {SRC}")
    return SimpleNamespace(**mods)


def setup(name: str, seed: int) -> tuple[float, workloads.Workload, Path]:
    """Import the program, generate the inputs and write the scenario files."""
    OUT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{name}-{seed}-", dir=OUT))
    start = perf_counter()
    prog = import_program()
    work = workloads.build(name, prog, seed, DATA, scratch)
    return perf_counter() - start, work, scratch


class Reference:
    """Pinned summaries: fixed-input operations always, seeded ones per seed."""

    def __init__(self, name: str, seed: int):
        path = REFERENCE / f"{name}.json"
        if not path.is_file():
            raise SetupError(f"no pinned reference at {path}")
        data = json.loads(path.read_text(encoding="utf-8"))
        self.fixed = data["fixed"]
        self.seeded = data["seeded"].get(str(seed))

    def expected(self, op: workloads.Op):
        """The pinned summary of `op`, or None when its seed has no pins."""
        table = self.seeded if op.seeded else self.fixed
        if table is None:
            return None
        if op.key not in table:
            raise LookupError("no pinned reference for this operation")
        return table[op.key]


def check(op: workloads.Op, result, ref: Reference | None) -> list[str]:
    """Problems with one result: its invariants, then its pinned summary."""
    try:
        problems = op.invariants(result)
        if ref is not None:
            problems += checks.compare(op.summarize(result), ref.expected(op))
    except Exception as exc:  # malformed output fails the check, not the run
        problems = [f"check raised {type(exc).__name__}: {exc}"]
    return problems


class Loop:
    """Closed-loop runner: one caller, whole rounds, every result checked.

    Untraced operation times are kept raw and scaled to the reference host
    speed by the mean of the calibrations taken just before and just after
    them (one every CALIBRATE_EVERY_S, outside the timed regions).
    """

    def __init__(self, work: workloads.Workload, ref: Reference | None):
        self.work = work
        self.ref = ref
        self.samples: list[list[float]] = [[] for _ in work.ops]
        self.raw: list[list[float]] = [[] for _ in work.ops]
        self.speed: list[float] = []
        self.round_walls: list[float] = []
        self.attempted = 0
        self.failures: list[str] = []
        self.counters: dict[str, int] = {}
        self._pending: list[tuple[int, float]] = []
        self._calibration = calibrate()
        self._calibrated_at = perf_counter()

    def _settle(self) -> None:
        calibration = calibrate()
        scale = CALIBRATION_REF_S / ((self._calibration + calibration) / 2)
        for k, elapsed in self._pending:
            self.raw[k].append(elapsed)
            self.samples[k].append(elapsed * scale)
        self.speed.append(scale)
        self._pending.clear()
        self._calibration = calibration
        self._calibrated_at = perf_counter()

    def round(self, tracer: Tracer | None = None) -> float:
        """Run every operation once; return the summed operation wall time."""
        wall = 0.0
        for k, op in enumerate(self.work.ops):
            if tracer is not None:
                tracer.op = k
            start = perf_counter()
            try:
                result = op.run()
            except Exception as exc:  # an unexpected raise is a failed operation
                elapsed = perf_counter() - start
                problems = [f"raised {type(exc).__name__}: {exc}"]
            else:
                elapsed = perf_counter() - start
                problems = check(op, result, self.ref)
                if tracer is not None:
                    for key, value in op.counters(result).items():
                        self.counters[key] = self.counters.get(key, 0) + value
            wall += elapsed
            self.attempted += 1
            if problems:
                self.failures.append(f"{op.key}: {'; '.join(problems)}")
            elif tracer is None:
                self._pending.append((k, elapsed))
                if perf_counter() - self._calibrated_at >= CALIBRATE_EVERY_S:
                    self._settle()
        if tracer is None:
            self._settle()
            self.round_walls.append(wall)
        return wall

    def until(self, seconds: float) -> None:
        start = perf_counter()
        while True:
            self.round()
            if perf_counter() - start >= seconds:
                return


def end_to_end(loop: Loop, setups: list[float], samples: list[list[float]]) -> dict:
    """Set-up, throughput, latency percentiles and peak memory of one run.

    Each operation's latency is its median over the run's rounds; p50 and p90
    are taken over those per-operation medians, so a slow moment of the
    machine moves one sample of an operation, not the operation.
    """
    timed = [(op, s) for op, s in zip(loop.work.ops, samples) if s]
    units = sum(op.units * len(s) for op, s in timed)
    seconds = sum(sum(s) for _, s in timed)
    typical = [statistics.median(s) * 1000 for _, s in timed]
    q = statistics.quantiles(typical, n=10, method="inclusive") if len(typical) > 1 else typical * 9
    return {
        "setup_s": (statistics.median(setups), "s"),
        "work_per_s": (units / seconds if seconds else 0.0, "1/s"),
        "op_ms_p50": (q[4], "ms"),
        "op_ms_p90": (q[8], "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(tracer: Tracer, loop: Loop, traced_wall: float) -> dict:
    m: dict[str, tuple[float, str]] = {}
    for module, names in LAYERS.items():
        for name in names:
            layer = f"{module}.{name}"
            m[f"{layer}.calls"] = (tracer.layer_calls(layer), "count")
            m[f"{layer}.self_s"] = (tracer.layer_self(layer), "s")
    counts = tracer.counts

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    deviations = tracer.layer_calls("equilibrium.best_deviation")
    built = sum(tracer.layer_calls(f"constructors.{c}") for c in CONSTRUCTORS)
    m["equilibrium.witnesses"] = (counts["equilibrium.witnesses"], "count")
    m["equilibrium.witness_ratio"] = (ratio(counts["equilibrium.witnesses"], deviations), "ratio")
    m["oracle.candidates"] = (counts["oracle.candidates"], "count")
    m["oracle.equilibria"] = (counts["oracle.equilibria"], "count")
    m["oracle.accept_ratio"] = (ratio(counts["oracle.equilibria"], counts["oracle.candidates"]), "ratio")
    m["constructors.is_nash_calls"] = (
        tracer.layer_calls("equilibrium.is_nash", site="pag.constructors"), "count"
    )
    m["constructors.success_ratio"] = (ratio(counts["constructors.successes"], built), "ratio")
    m["cli.stdout_bytes"] = (loop.counters.get("cli.stdout_bytes", 0), "bytes")
    layer_self = sum(tracer.self_s)
    m["trace.wall_s"] = (traced_wall, "s")
    m["trace.layer_self_s"] = (layer_self, "s")
    m["trace.remainder_s"] = (traced_wall - tracer.root_seconds(), "s")
    m["trace.overhead_ratio"] = (traced_wall / statistics.median(loop.round_walls), "ratio")
    return m


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    name, seed = args.workload, args.seed

    try:
        ref = Reference(name, seed)
        setups, raw_setups, scratch_dirs = [], [], []
        try:
            before = calibrate()
            for _ in range(SETUPS):
                elapsed, work, scratch = setup(name, seed)
                after = calibrate()
                raw_setups.append(elapsed)
                setups.append(elapsed * CALIBRATION_REF_S / ((before + after) / 2))
                scratch_dirs.append(scratch)
                before = after
            loop = Loop(work, ref)
            loop.until(args.seconds)
            if args.trace:
                tracer = Tracer()
                tracer.install()
                try:
                    traced_wall = loop.round(tracer)
                finally:
                    tracer.uninstall()
        finally:
            for scratch in scratch_dirs:
                shutil.rmtree(scratch, ignore_errors=True)
    except (SetupError, OSError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    problems = list(loop.failures)
    failed = len(problems)
    if args.trace:
        metrics = per_layer(tracer, loop, traced_wall)
        tracer.write(OUT / f"spans-{name}-seed{seed}.tsv")
        drift = abs(metrics["trace.layer_self_s"][0] - tracer.root_seconds())
        if drift > 1e-6 * traced_wall or metrics["trace.remainder_s"][0] < -1e-6:
            problems.append("layer self times do not account for the traced wall time")
        raw = {}
    else:
        metrics = end_to_end(loop, setups, loop.samples)
        raw = end_to_end(loop, raw_setups, loop.raw)

    context = {
        "workload": name,
        "seed": seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "params": work.params,
        "pinned_seed": seed in PINNED_SEEDS,
        "rounds": len(loop.round_walls),
        "ops_per_round": len(work.ops),
        "samples": sum(len(s) for s in loop.samples),
        "attempted": loop.attempted,
        "failed": failed,
        "error_rate": failed / loop.attempted,
        "failures": problems[:20],
        "host_speed": statistics.median(loop.speed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "raw_metrics": {k: {"value": v, "unit": u} for k, (v, u) in raw.items()},
    }
    (OUT / f"result-{name}-seed{seed}-trace{args.trace}.json").write_text(
        json.dumps(context, indent=1), encoding="utf-8"
    )

    print(f"workload {name} seed {seed} trace {args.trace} python {context['python']} nproc {context['nproc']}")
    print("generator " + json.dumps(work.params, sort_keys=True))
    print(
        f"rounds {context['rounds']} of {len(work.ops)} operations, {context['samples']} timed samples;"
        f" latency percentiles over {len(work.ops)} per-operation medians; unit of work: one {work.unit}"
    )
    for problem in problems[:20]:
        print(f"FAILED {problem}")
    print(f"error_rate = {context['error_rate']:.6g} ({failed} of {loop.attempted} operations failed)")
    print(
        f"times scaled to the reference host speed; median scale {context['host_speed']:.4g}"
        " (calibration loop's reference time over its measured time)"
    )
    aliases = ALIASES[name]
    for key, (value, unit) in metrics.items():
        alias = f"  [{aliases[key]}]" if key in aliases else ""
        unscaled = f"  (unscaled {raw[key][0]:.6g})" if key in raw and raw[key][1] != "MB" else ""
        print(f"{key} = {value:.6g} {unit}{alias}{unscaled}")
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": loop.attempted,
                "failed": failed,
                "metrics": context["metrics"],
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
