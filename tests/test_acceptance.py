"""Acceptance suite: one test per exit criterion, at the stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass/fail line
per criterion.  Three criteria assert claims of the source theory that turn
out to be false; they are implemented exactly as stated and marked as
expected failures, each with a companion test that pins the sound part and
a brute-force demonstration of the defect (see notes in the repository
documentation).  Everything else must pass with zero tolerance.
"""

from __future__ import annotations

import itertools
import json
import random
import time
from fractions import Fraction
from pathlib import Path

import pytest

import pag
from pag import GridSpec, make_environment
from pag.cli import main as cli_main, parse_scenario
from pag.model import State, sigma_tau

from conftest import (
    SEED,
    complete_rivalry,
    criterion_06_instances,
    random_allocation,
    random_environment,
)
from reference import exact_deviates, grid_profitable_deviation

DATA = Path(__file__).parent / "data"
COUNTEREXAMPLES = Path(__file__).parent / "counterexamples"
ONE = Fraction(1)


def _report(num: int, passed: bool, detail: str = "") -> None:
    marker = "PASS" if passed else "FAIL"
    suffix = f": {detail}" if detail else ""
    print(f"\n[criterion {num:>2}] {marker}{suffix}")


def test_criterion_01_example_one_reproduction(capsys, env1, fig1b):
    started = time.monotonic()
    exit_evaluate = cli_main(["evaluate", str(DATA / "env1_fig1b.json")])
    out = capsys.readouterr().out
    payload = json.loads(out.partition("---\n")[2])
    expected = ["safe", "precarious", "unsafe", "unsafe", "precarious", "safe"]
    exit_verify = cli_main(["verify", str(DATA / "env1_fig1b.json")])
    capsys.readouterr()
    elapsed = time.monotonic() - started
    ok = (
        exit_evaluate == 0
        and payload["states"] == expected
        and exit_verify == 0
        and elapsed < 1.0
    )
    with capsys.disabled():
        _report(1, ok, f"states exact, verify exit 0, {elapsed:.2f}s < 1s")
    assert payload["states"] == expected
    assert exit_evaluate == 0 and exit_verify == 0
    assert elapsed < 1.0


def test_criterion_02_example_two_reproduction(capsys, env2, alloc1, alloc2, alloc3):
    started = time.monotonic()
    expected = [
        ("safe", "unsafe", "unsafe"),
        ("unsafe", "safe", "unsafe"),
        ("unsafe", "unsafe", "safe"),
    ]
    for u, states in zip((alloc1, alloc2, alloc3), expected):
        assert pag.is_nash(env2, u).ok
        assert tuple(s.value for s in pag.state_vector(env2, u)) == states
    for name in ("env2_alloc1.json", "env2_alloc2.json", "env2_alloc3.json"):
        assert cli_main(["verify", str(DATA / name)]) == 0
    capsys.readouterr()
    atlas = pag.find_equilibria(env2, GridSpec(step=ONE))
    found = {tuple(s.value for s in cls.states) for cls in atlas.classes}
    elapsed = time.monotonic() - started
    ok = set(expected) <= found and elapsed < 60.0
    with capsys.disabled():
        _report(
            2, ok,
            f"3 allocations verify, atlas has {len(found)} classes "
            f"including all 3 survivor classes, {elapsed:.1f}s < 60s",
        )
    assert set(expected) <= found
    assert elapsed < 60.0


def test_criterion_03_balancing_iff(capsys):
    rng = random.Random(SEED)
    mismatches = 0
    for _ in range(200):
        n = rng.randint(2, 5)
        powers = [rng.randint(0, 12) for _ in range(n)]
        env = complete_rivalry(powers)
        total = sum(env.powers)
        feasible = all(p <= total - p for p in env.powers)
        try:
            u = pag.balancing_equilibrium(env)
        except pag.InfeasiblePower:
            if feasible:
                mismatches += 1
            continue
        if not feasible:
            mismatches += 1
            continue
        if not pag.is_nash(env, u).ok:
            mismatches += 1
        if any(s is not State.PRECARIOUS for s in pag.state_vector(env, u)):
            mismatches += 1
    with capsys.disabled():
        _report(3, mismatches == 0, f"200 instances, {mismatches} mismatches (exact iff)")
    assert mismatches == 0


def test_criterion_04_sole_survivor(capsys, env2):
    failures = []
    for survivor in range(3):
        u = pag.sole_survivor_equilibrium(env2, survivor)
        states = pag.state_vector(env2, u)
        if states[survivor] is not State.SAFE:
            failures.append(survivor)
        if sum(1 for s in states if s is State.SAFE) != 1:
            failures.append(survivor)
        if sum(1 for s in states if s is State.UNSAFE) != 2:
            failures.append(survivor)
        if not pag.is_nash(env2, u).ok:
            failures.append(survivor)
    with capsys.disabled():
        _report(4, not failures, "3 survivors, each verified with exactly one safe country")
    assert not failures


@pytest.mark.xfail(
    strict=True,
    reason=(
        "Source-theory defect: the claim that neither of the two weaker"
        " countries can be safe in any equilibrium is false. The unit-grid"
        " atlas contains verified equilibrium classes in which the second"
        " country is safe (both rivals concentrate on the first country and"
        " neither can redirect unilaterally without releasing it); the"
        " companion test shows such a matrix survives a brute-force scan of"
        " every finer-grid deviation under the axiom-level preference rule."
    ),
)
def test_criterion_05_example_three(capsys, env3):
    started = time.monotonic()
    assert not pag.bipartite_safe_sufficient(env3, 0)
    assert not pag.bipartite_safe_sufficient(env3, 1)
    atlas = pag.find_equilibria(env3, GridSpec(step=ONE))
    offenders = [
        tuple(s.value for s in cls.states)
        for cls in atlas.classes
        if cls.states[0] is State.SAFE or cls.states[1] is State.SAFE
    ]
    elapsed = time.monotonic() - started
    ok = not offenders and elapsed < 300.0
    with capsys.disabled():
        _report(
            5, ok,
            f"sufficient-condition checks pass; atlas classes with v1/v2 safe: "
            f"{offenders or 'none'}, {elapsed:.1f}s < 300s",
        )
    assert elapsed < 300.0
    assert not offenders


def test_criterion_05_companion_sound_parts(capsys, env3):
    # The necessary/sufficient checks hold, and the first country is never
    # safe on the step-1 grid (it is safe off it: see the next test); the
    # second country's safety is a genuine equilibrium, stable even
    # against a brute-force scan on a finer deviation grid.
    assert not pag.bipartite_safe_sufficient(env3, 0)
    assert not pag.bipartite_safe_sufficient(env3, 1)
    atlas = pag.find_equilibria(env3, GridSpec(step=ONE))
    assert all(cls.states[0] is not State.SAFE for cls in atlas.classes)
    v2_safe = [cls for cls in atlas.classes if cls.states[1] is State.SAFE]
    assert v2_safe, "expected the documented counterexample classes"
    u = v2_safe[0].members[0]
    assert pag.validate_allocation(env3, u) == []
    for i in range(env3.n):
        assert grid_profitable_deviation(env3, u, i, Fraction(1, 2)) is None
    with capsys.disabled():
        _report(
            5, True,
            "(companion) v1 never safe on the step-1 grid; v2-safe counterexample "
            "pinned and brute-force stable",
        )


def test_criterion_05_v1_safe_off_the_unit_grid(capsys, env3):
    # The first country is safe in an exact equilibrium whose entries are
    # not all multiples of 1, so the step-1 atlas cannot hold it.
    path = COUNTEREXAMPLES / "env3_v1_safe.json"
    env, u = parse_scenario(json.loads(path.read_text(encoding="utf-8")))
    assert env == env3
    assert any(x.denominator != 1 for row in u for x in row)
    assert pag.validate_allocation(env, u) == []
    result = pag.is_nash(env, u)
    assert result.ok
    assert result.states == (State.SAFE, State.UNSAFE, State.SAFE, State.UNSAFE)
    assert not any(exact_deviates(env, u, i) for i in range(env.n))
    assert cli_main(["verify", str(path)]) == 0
    capsys.readouterr()


@pytest.mark.xfail(
    strict=True,
    reason=(
        "Source-theory defect: the sufficient condition for a safe country"
        " on bipartite rivalries is not actually sufficient. Sampled"
        " instances satisfying it admit no equilibrium with the target safe"
        " at all (e.g. an adversary whose other rivals are invincible can"
        " always afford to flip the target), so a sound constructor must"
        " report failures. The companion test arbitrates every failure"
        " against the exhaustive grid oracle: none is a construction bug."
    ),
)
def test_criterion_06_bipartite_constructive(capsys):
    failures = []
    instances = criterion_06_instances(random.Random(SEED), 50)
    for env, target in instances:
        try:
            u = pag.bipartite_safe_equilibrium(env, target)
        except pag.ConstructionFailed:
            failures.append((env, target))
            continue
        assert pag.validate_allocation(env, u) == []
        assert pag.state_vector(env, u)[target] is State.SAFE
        assert pag.is_nash(env, u).ok
    rate = len(failures) / len(instances)
    with capsys.disabled():
        _report(
            6, not failures,
            f"{len(instances)} instances, {len(failures)} construction failures "
            f"(rate {rate:.0%}, required 0%)",
        )
    assert not failures


def test_criterion_06_companion_failures_are_counterexamples(capsys):
    # Every construction failure must be arbitrated by the grid oracle as an
    # instance with no safe equilibrium for the target on the step-1 grid,
    # i.e. a documented counterexample to the sufficiency claim rather than
    # a constructor bug.
    bugs = []
    failures = 0
    for env, target in criterion_06_instances(random.Random(SEED), 50):
        try:
            u = pag.bipartite_safe_equilibrium(env, target)
        except pag.ConstructionFailed:
            failures += 1
            atlas = pag.find_equilibria(
                env, GridSpec(step=ONE, max_candidates=3_000_000)
            )
            if any(cls.states[target] is State.SAFE for cls in atlas.classes):
                bugs.append((env.powers, sorted(env.adversaries), target))
            continue
        assert pag.state_vector(env, u)[target] is State.SAFE
    with capsys.disabled():
        _report(
            6, not bugs,
            f"(companion) {failures} failures, all oracle-confirmed as counterexamples"
            f" on the step-1 grid to the sufficiency claim; construction bugs: {len(bugs)}",
        )
    assert not bugs


def test_criterion_06_companion_pinned_counterexample():
    # Minimal shape: the target's lone adversary has equal power and an
    # invincible second rival, so it can always afford to flip the target.
    env = make_environment([1, 1, 5], adversaries=[(0, 1), (0, 2)])
    assert pag.bipartite_safe_sufficient(env, 1)
    with pytest.raises(pag.ConstructionFailed):
        pag.bipartite_safe_equilibrium(env, 1)
    atlas = pag.find_equilibria(env, GridSpec(step=Fraction(1, 2)))
    assert atlas.classes
    assert all(cls.states[1] is not State.SAFE for cls in atlas.classes)


@pytest.mark.xfail(
    strict=True,
    reason=(
        "Source-theory defect: the clique-defense guarantee fails in"
        " miscoordination equilibria where a doomed clique member donates"
        " its power to an already-safe friend; the remaining friends cannot"
        " close the rescue gap unilaterally. The group-balance guarantee is"
        " sound (companion test); a pinned clique counterexample is"
        " brute-force stable under the axiom-level preference rule."
    ),
)
def test_criterion_07_group_guarantees_vs_oracle(capsys):
    checked, violations = _group_audit(
        random.Random(SEED),
        lambda env, g: pag.check_group_balance(env, g) or pag.check_clique_defense(env, g),
    )
    with capsys.disabled():
        _report(7, violations == 0, f"{checked} instances, {violations} violations (required 0)")
    assert violations == 0


def test_criterion_07_companion_group_balance_sound(capsys):
    checked, violations = _group_audit(random.Random(SEED + 1), pag.check_group_balance)
    with capsys.disabled():
        _report(
            7, violations == 0,
            f"(companion) group-balance alone: {checked} instances, "
            f"{violations} violations",
        )
    assert violations == 0


def _group_audit(rng: random.Random, guaranteed) -> tuple[int, int]:
    """Audit 50 random 2-4 country environments that have a guaranteed
    group against their step-1 atlas: (instances, violations), a violation
    being a class and a group `guaranteed(env, group)` accepts in which a
    member of the group does not survive."""
    checked = 0
    violations = 0
    while checked < 50:
        n = rng.randint(2, 4)
        env = random_environment(rng, n, max_power=6)
        if pag.candidate_count(env, ONE) > 150_000:
            continue
        groups = [
            combo
            for size in range(1, n + 1)
            for combo in itertools.combinations(range(n), size)
            if guaranteed(env, combo)
        ]
        if not groups:
            continue
        atlas = pag.find_equilibria(env, GridSpec(step=ONE))
        checked += 1
        for cls in atlas.classes:
            for group in groups:
                if not all(cls.states[i].survives for i in group):
                    violations += 1
    return checked, violations


def test_criterion_07_companion_pinned_clique_counterexample():
    # The two friends jointly outweigh the rival, yet the doomed member can
    # stably donate everything to its safe friend and die unrescued.
    env = make_environment([2, 3, 5], friends=[(0, 1)], adversaries=[(0, 2)])
    assert pag.check_clique_defense(env, (0, 1))
    u = pag.matrix_from_entries(
        env, {(0, 1): 1, (0, 2): 1, (1, 1): 3, (2, 0): 5}
    )
    assert pag.validate_allocation(env, u) == []
    states = pag.state_vector(env, u)
    assert states[0] is State.UNSAFE
    assert pag.is_nash(env, u).ok
    for i in range(env.n):
        assert grid_profitable_deviation(env, u, i, Fraction(1, 2)) is None


def test_criterion_08_example_four(capsys, env4):
    report = pag.dp_cover(env4)
    verdicts = [v.value for v in report.verdicts]
    expected = ["not-survives", "survives", "not-survives", "survives"]
    atlas = pag.find_equilibria(env4, GridSpec(step=ONE))
    classes = [tuple(s.value for s in cls.states) for cls in atlas.classes]
    ok = (
        report.spans
        and verdicts == expected
        and classes == [("unsafe", "safe", "unsafe", "safe")]
    )
    with capsys.disabled():
        _report(
            8, ok,
            f"cover spans with verdicts {verdicts}; unique step-1 atlas class {classes}",
        )
    assert report.spans
    assert verdicts == expected
    assert classes == [("unsafe", "safe", "unsafe", "safe")]


def test_criterion_09_best_response_soundness(capsys):
    rng = random.Random(SEED)
    misses = 0
    for _ in range(500):
        n = rng.randint(2, 3)
        env = random_environment(rng, n, max_power=6, min_power=0)
        u = random_allocation(rng, env, denominator=rng.choice([1, 2, 4]))
        i = rng.randrange(n)
        grid_row = grid_profitable_deviation(env, u, i, Fraction(1, 4))
        if grid_row is not None and pag.best_deviation(env, u, i) is None:
            misses += 1
    with capsys.disabled():
        _report(9, misses == 0, f"500 triples, {misses} missed grid deviations (required 0)")
    assert misses == 0


def test_criterion_10_conservation(capsys):
    rng = random.Random(SEED)
    violations = 0
    for _ in range(1000):
        n = rng.randint(1, 5)
        env = random_environment(rng, n, max_power=10, min_power=0)
        u = random_allocation(rng, env, denominator=rng.choice([1, 2, 3, 4]))
        assert pag.validate_allocation(env, u) == []
        sigmas, _ = sigma_tau(env, u)
        if sum(sigmas) != sum(env.powers):
            violations += 1
    with capsys.disabled():
        _report(10, violations == 0, f"1000 allocations, {violations} conservation violations")
    assert violations == 0
