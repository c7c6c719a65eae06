"""Self-tests of the benchmark harness.

    python3 bench/selftest.py          (or: python3 -m pytest -q bench/selftest.py)

* Negative control: corrupted results (a flipped state, a dropped deviator, a
  witness that misreports its states, malformed CLI output) must each count
  as failed, so the reference check behind error_rate can fail at all.
* A traced round of every workload passes the reference check with no
  failure, so the span wrappers do not change results, and the layer self
  times account for the traced wall time.
"""

from __future__ import annotations

import dataclasses
import shutil
import sys

import run
import workloads
from tracing import Tracer


def _workload(name: str, seed: int = 0):
    _, work, scratch = run.setup(name, seed)
    return work, scratch


def _program_modules():
    return [(name, mod) for name, mod in sys.modules.items() if name.startswith("pag.")]


def _error_rate(op: workloads.Op, ref: run.Reference) -> float:
    loop = run.Loop(workloads.Workload("control", "op", {}, [op]), ref)
    loop.round()
    return len(loop.failures) / loop.attempted


def test_corrupted_results_count_as_failures():
    work, scratch = _workload("verify-sparse")
    try:
        ref = run.Reference("verify-sparse", 0)
        op = next(o for o in work.ops if o.key == "a100")
        errors, result, states = op.run()
        assert result.deviations, "the control needs a matrix with deviators"
        assert _error_rate(op, ref) == 0

        State = type(states[0])
        flipped = (State.UNSAFE if states[0] is State.SAFE else State.SAFE, *states[1:])
        dropped = dataclasses.replace(result, deviations=result.deviations[1:])
        first = result.deviations[0]
        lying = dataclasses.replace(
            first, states=(State.PRECARIOUS if first.states[0] is State.SAFE else State.SAFE, *first.states[1:])
        )
        misreported = dataclasses.replace(result, deviations=(lying, *result.deviations[1:]))
        # (corrupted result, caught by the invariants alone, as on an unpinned seed)
        for corrupted, unpinned in (
            ((errors, result, flipped), True),
            ((errors, dropped, states), False),
            ((errors, misreported, states), True),
        ):
            bad = dataclasses.replace(op, run=lambda corrupted=corrupted: corrupted)
            assert _error_rate(bad, ref) > 0
            assert (_error_rate(bad, None) > 0) == unpinned
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def test_malformed_cli_output_counts_as_failure():
    work, scratch = _workload("cli-scenarios")
    try:
        op = next(o for o in work.ops if o.key == "verify env2_alloc1.json")
        bad = dataclasses.replace(op, run=lambda: (0, "report\n---\n{not json", ""))
        assert _error_rate(bad, run.Reference("cli-scenarios", 0)) == 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def test_traced_round_passes_reference_check():
    for name in workloads.NAMES:
        work, scratch = _workload(name)
        try:
            loop = run.Loop(work, run.Reference(name, 0))
            tracer = Tracer()
            before = {m: dict(vars(mod)) for m, mod in _program_modules()}
            tracer.install()
            try:
                wall = loop.round(tracer)
            finally:
                tracer.uninstall()
            assert before == {m: dict(vars(mod)) for m, mod in _program_modules()}
            assert loop.failures == [], loop.failures[:3]
            layer_self = sum(tracer.self_s)
            assert abs(layer_self - tracer.root_seconds()) <= 1e-6 * wall
            assert 0 <= wall - tracer.root_seconds() < wall
        finally:
            shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    tests = (
        test_corrupted_results_count_as_failures,
        test_malformed_cli_output_counts_as_failure,
        test_traced_round_passes_reference_check,
    )
    for test in tests:
        test()
        print(f"ok {test.__name__}")
