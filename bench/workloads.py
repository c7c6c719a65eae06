"""Seeded inputs and the operation list of each benchmark workload.

Inputs come from this module's own generators, seeded by the run's seed, and
never from the test suite's fixtures, so an edit to a test cannot change what
the benchmark measures.  The program receives only the generated
environments, matrices and scenario files.

A workload is a fixed list of operations, one *round*.  Every operation knows
how much work it is (its units), how to summarise its result for the pinned
reference, and which invariants its result must satisfy.
"""

from __future__ import annotations

import io
import itertools
import json
import math
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Callable

from checks import ZERO, Spec, members_digest, states_str

NAMES = ("oracle-grid", "verify-sparse", "cli-scenarios")


@dataclass
class Op:
    key: str
    units: int
    seeded: bool
    run: Callable[[], Any]
    summarize: Callable[[Any], dict]
    invariants: Callable[[Any], list[str]]
    counters: Callable[[Any], dict[str, int]] = lambda result: {}


@dataclass
class Workload:
    name: str
    unit: str
    params: dict
    ops: list[Op] = field(default_factory=list)


def build(name: str, prog: SimpleNamespace, seed: int, data_dir: Path, scratch: Path) -> Workload:
    """Generate the inputs of workload `name` for `seed` and list its round.

    `prog` holds the program's modules; operations look functions up on them
    at call time, so a traced run sees every call.
    """
    rng = random.Random(f"{name}:{seed}")
    if name == "oracle-grid":
        return _oracle_grid(prog, rng)
    if name == "verify-sparse":
        return _verify_sparse(prog, rng)
    if name == "cli-scenarios":
        return _cli_scenarios(prog, rng, data_dir, scratch)
    raise ValueError(f"unknown workload {name!r}")


def _environment(prog: SimpleNamespace, spec: Spec):
    return prog.model.make_environment(
        list(spec.powers), friends=spec.friends, adversaries=spec.adversaries
    )


# -- generators ---------------------------------------------------------------


def grid_size(spec: Spec, step: Fraction) -> int:
    """Admissible grid matrices: the product of each row's compositions."""
    count = 1
    for i in range(spec.n):
        units = spec.powers[i] / step
        parts = 1 + len(spec.friends_of[i]) + len(spec.adversaries_of[i])
        count *= math.comb(int(units) + parts - 1, parts - 1)
    return count


def small_environment(rng: random.Random, p: dict, band: tuple[int, int]) -> Spec:
    """A 3-4 country environment with friends and adversaries, step-1 grid in `band`."""
    while True:
        n = rng.choice(p["countries"])
        friends, adversaries = [], []
        for pair in itertools.combinations(range(n), 2):
            roll = rng.random()
            if roll < p["friend_share"]:
                friends.append(pair)
            elif roll < p["friend_share"] + p["adversary_share"]:
                adversaries.append(pair)
        if not friends or not adversaries:
            continue
        spec = Spec([rng.randint(1, p["max_power"]) for _ in range(n)], friends, adversaries)
        if band[0] <= grid_size(spec, Fraction(1)) <= band[1]:
            return spec


def sparse_environment(rng: random.Random, n: int, p: dict) -> Spec:
    """n countries, n*mean_degree/2 distinct random pairs, a share of them friendly."""
    m = round(n * p["mean_degree"] / 2)
    edges: set[tuple[int, int]] = set()
    while len(edges) < m:
        a, b = rng.randrange(n), rng.randrange(n)
        if a != b:
            edges.add((min(a, b), max(a, b)))
    friends, adversaries = [], []
    for pair in sorted(edges):
        (friends if rng.random() < p["friend_share"] else adversaries).append(pair)
    lo, hi = p["power_range"]
    return Spec([rng.randint(lo, hi) for _ in range(n)], friends, adversaries)


def random_allocation(rng: random.Random, spec: Spec) -> tuple[tuple[Fraction, ...], ...]:
    """Each row splits its integer power at random over the row's relations."""
    rows = []
    for i in range(spec.n):
        support = sorted({i, *spec.friends_of[i], *spec.adversaries_of[i]})
        units = int(spec.powers[i])
        cuts = sorted(rng.randint(0, units) for _ in range(len(support) - 1))
        row = [ZERO] * spec.n
        for j, a, b in zip(support, [0, *cuts], [*cuts, units]):
            if b > a:
                row[j] = Fraction(b - a)
        rows.append(tuple(row))
    return tuple(rows)


def balancing_union(prog: SimpleNamespace, rng: random.Random, n: int, p: dict):
    """Disjoint K3/K4 rivalries, each at the program's balancing equilibrium.

    Every country's relevant set lies inside its own rivalry, so the union is
    an equilibrium whenever each part is.
    """
    sizes = []
    left = n
    while left >= 10:
        sizes.append(rng.choice((3, 4)))
        left -= sizes[-1]
    sizes += {6: [3, 3], 7: [3, 4], 8: [4, 4], 9: [3, 3, 3]}[left]
    order = list(range(n))
    rng.shuffle(order)
    powers = [0] * n
    adversaries = []
    rows = [[ZERO] * n for _ in range(n)]
    start = 0
    lo, hi = p["power_range"]
    for k in sizes:
        group = order[start : start + k]
        start += k
        while True:
            ps = [rng.randint(lo, hi) for _ in range(k)]
            if 2 * max(ps) <= sum(ps):
                break
        pairs = list(itertools.combinations(range(k), 2))
        sub = prog.constructors.balancing_equilibrium(
            prog.model.make_environment(ps, adversaries=pairs)
        )
        for a, g in enumerate(group):
            powers[g] = ps[a]
            for b, h in enumerate(group):
                rows[g][h] = sub[a][b]
        adversaries += [(group[a], group[b]) for a, b in pairs]
    return Spec(powers, (), adversaries), tuple(tuple(row) for row in rows)


def random_bipartite(rng: random.Random, p: dict) -> Spec:
    """A friendless rivalry between two random sides, some cross pairs kept."""
    n = rng.randint(*p["countries"])
    order = list(range(n))
    rng.shuffle(order)
    cut = rng.randint(1, n - 1)
    edges = [(min(a, b), max(a, b)) for a in order[:cut] for b in order[cut:]]
    rng.shuffle(edges)
    keep = edges[: rng.randint(1, min(p["max_pairs"], len(edges)))]
    return Spec([rng.randint(1, p["max_power"]) for _ in range(n)], (), keep)


# -- oracle-grid --------------------------------------------------------------

ORACLE_FIXED = (
    ("env2@1", Spec([8, 6, 4], (), [(0, 1), (0, 2), (1, 2)]), Fraction(1)),
    ("env4@1", Spec([1, 2, 1, 20], [(1, 2)], [(0, 1), (2, 3)]), Fraction(1)),
    (
        "frac@1/4",
        Spec([Fraction(5, 4), Fraction(3, 2), Fraction(3, 4)], [(0, 1)], [(0, 2), (1, 2)]),
        Fraction(1, 4),
    ),
)

ORACLE_PARAMS = {
    "fixed": [key for key, _, _ in ORACLE_FIXED],
    "countries": [3, 4],
    "max_power": 6,
    "friend_share": 0.3,
    "adversary_share": 0.5,
    "step": "1",
    # Five small and three large random environments around the fixed ones
    # make env4 the median of the 11 calls and the fractional one the 90th
    # percentile, so those percentiles do not move with the seed.
    "small": {"count": 5, "candidates": [150, 400]},
    "large": {"count": 3, "candidates": [1500, 3000]},
}


def _oracle_grid(prog: SimpleNamespace, rng: random.Random) -> Workload:
    p = ORACLE_PARAMS
    work = Workload("oracle-grid", "candidate", p)
    for key, spec, step in ORACLE_FIXED:
        work.ops.append(_oracle_op(prog, key, spec, step, seeded=False))
    for size in ("small", "large"):
        for k in range(p[size]["count"]):
            spec = small_environment(rng, p, tuple(p[size]["candidates"]))
            work.ops.append(_oracle_op(prog, f"{size}{k}@1", spec, Fraction(1), seeded=True))
    return work


def _oracle_op(prog, key: str, spec: Spec, step: Fraction, seeded: bool) -> Op:
    env = _environment(prog, spec)
    count = grid_size(spec, step)

    def run():
        return prog.oracle.find_equilibria(env, prog.oracle.GridSpec(step=step))

    def summarize(atlas) -> dict:
        classes = sorted(
            [states_str(c.states), len(c.members), members_digest(c.members)]
            for c in atlas.classes
        )
        return {"candidates": atlas.candidates_checked, "classes": classes}

    def invariants(atlas) -> list[str]:
        problems = []
        if atlas.candidates_checked != count:
            problems.append(f"{atlas.candidates_checked} candidates checked, grid has {count}")
        seen = set()
        for c in atlas.classes:
            states = states_str(c.states)
            if states in seen:
                problems.append(f"class {states} listed twice")
            seen.add(states)
            for m in c.members:
                if spec.matrix_problems(m) or spec.states(m) != states:
                    problems.append(f"class {states} holds a member that is not of the class")
                    break
        return problems

    return Op(key, count, seeded, run, summarize, invariants)


# -- verify-sparse ------------------------------------------------------------

VERIFY_PARAMS = {
    "sizes": [100, 200, 400],
    "mean_degree": 3,
    "friend_share": 0.3,
    "power_range": [1, 10],
    "kinds": {
        "a": "random admissible allocation, integer entries",
        "b": "disjoint K3/K4 rivalries at their balancing equilibria",
    },
}


def _verify_sparse(prog: SimpleNamespace, rng: random.Random) -> Workload:
    p = VERIFY_PARAMS
    work = Workload("verify-sparse", "country", p)
    for n in p["sizes"]:
        spec = sparse_environment(rng, n, p)
        work.ops.append(_verify_op(prog, f"a{n}", spec, random_allocation(rng, spec), False))
        spec, rows = balancing_union(prog, rng, n, p)
        work.ops.append(_verify_op(prog, f"b{n}", spec, rows, True))
    return work


def _verify_op(prog, key: str, spec: Spec, u, expect_nash: bool) -> Op:
    env = _environment(prog, spec)
    cache: dict[str, Any] = {}

    def run():
        errors = prog.model.validate_allocation(env, u)
        result = prog.equilibrium.is_nash(env, u)
        states = prog.model.state_vector(env, u)
        return errors, result, states

    def summarize(r) -> dict:
        errors, result, states = r
        return {
            "errors": list(errors),
            "deviators": [d.country for d in result.deviations],
            "states": states_str(states),
        }

    def invariants(r) -> list[str]:
        errors, result, states = r
        if not cache:
            cache["base"] = spec.sigma_tau(u)
            cache["states"] = spec.states(u)
        problems = []
        if errors:
            problems.append("validate_allocation rejects an admissible matrix")
        if states_str(states) != cache["states"]:
            problems.append("state_vector differs from the recomputed states")
        countries = [d.country for d in result.deviations]
        if bool(result.ok) != (not countries) or countries != sorted(set(countries)):
            problems.append("certificate is inconsistent")
        if expect_nash and countries:
            problems.append("a deviation is reported on a balancing equilibrium")
        for d in result.deviations:
            problems += spec.witness_problems(u, cache["base"], d.country, d.row, states_str(d.states))
        return problems

    return Op(key, spec.n, True, run, summarize, invariants)


# -- cli-scenarios ------------------------------------------------------------

CLI_PARAMS = {
    "data": "every tests/data/*.json: validate, evaluate, verify, analyze",
    "construct": "env2: balancing, sole-survivor v1..v3; env3: bipartite-safe v1..v4",
    "search": "env2 --step 2",
    # At most four rival pairs bound the ordering search of a failing
    # construction (4! orderings), so one unlucky seed cannot dominate a round.
    "bipartite": {"scenarios": 10, "countries": [3, 6], "max_pairs": 4, "max_power": 8},
    # Five n=100 scenarios make their 15 commands, with search, the slowest
    # seventh of the round, so the 90th percentile falls among their dense
    # validate/evaluate scans whatever the seeded constructions cost.
    "sparse": {"scenarios": 5, "n": 100, "mean_degree": 3, "friend_share": 0.3, "power_range": [1, 10]},
}


def _cli_scenarios(prog, rng: random.Random, data_dir: Path, scratch: Path) -> Workload:
    p = CLI_PARAMS
    work = Workload("cli-scenarios", "command", p)
    files = sorted(data_dir.glob("*.json"))
    if not files:
        raise FileNotFoundError(f"no scenario files in {data_dir}")
    specs = {}
    for path in files:
        spec, rows = Spec.from_scenario(json.loads(path.read_text(encoding="utf-8")))
        specs[path.name] = (path, spec, rows)
        for cmd in ("validate", "evaluate", "verify", "analyze"):
            work.ops.append(_cli_op(prog, f"{cmd} {path.name}", [cmd], path, spec, rows))

    def construct(name, kind, target=None, seeded=False, exits=(0, 1, 2)):
        path, spec, _ = specs[name]
        argv = ["construct", "--kind", kind] + (["--target", target] if target else [])
        key = f"construct {kind}{' ' + target if target else ''} {name}"
        work.ops.append(
            _cli_op(prog, key, argv, path, spec, None, seeded=seeded, exits=exits, target=target)
        )

    construct("env2.json", "balancing")
    for v in ("v1", "v2", "v3"):
        construct("env2.json", "sole-survivor", v)
    for v in ("v1", "v2", "v3", "v4"):
        construct("env3.json", "bipartite-safe", v)
    path, spec, _ = specs["env2.json"]
    work.ops.append(_cli_op(prog, "search --step 2 env2.json", ["search", "--step", "2"], path, spec, None))

    for k in range(p["bipartite"]["scenarios"]):
        spec = random_bipartite(rng, p["bipartite"])
        name = f"bipartite{k}.json"
        path = scratch / name
        path.write_text(json.dumps(spec.scenario()), encoding="utf-8")
        specs[name] = (path, spec, None)
        work.ops.append(_cli_op(prog, f"analyze {name}", ["analyze"], path, spec, None, True, (0,)))
        for v in spec.names:
            construct(name, "bipartite-safe", v, seeded=True, exits=(0, 1))

    sp = p["sparse"]
    for k in range(sp["scenarios"]):
        spec = sparse_environment(rng, sp["n"], sp)
        rows = random_allocation(rng, spec)
        path = scratch / f"sparse{k}.json"
        path.write_text(json.dumps(spec.scenario(rows)), encoding="utf-8")
        for cmd, exits in (("validate", (0,)), ("evaluate", (0,)), ("verify", (0, 1))):
            work.ops.append(_cli_op(prog, f"{cmd} {path.name}", [cmd], path, spec, rows, True, exits))
    return work


def _json_section(out: str) -> Any:
    head, sep, tail = out.rpartition("\n---\n")
    return json.loads(tail) if sep else None


def _cli_op(
    prog,
    key: str,
    argv: list[str],
    path: Path,
    spec: Spec,
    rows,
    seeded: bool = False,
    exits: tuple[int, ...] = (0, 1, 2),
    target: str | None = None,
) -> Op:
    argv = [argv[0], str(path), *argv[1:]]
    cmd = argv[0]
    kind = argv[argv.index("--kind") + 1] if "--kind" in argv else None
    cache: dict[str, Any] = {}

    def run():
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = prog.cli.main(argv)
        return code, out.getvalue(), err.getvalue()

    def summarize(r) -> dict:
        code, out, _ = r
        summary: dict[str, Any] = {"exit": code}
        if cmd == "construct":
            if code == 0:
                summary["states"] = spec.states(Spec.from_scenario(json.loads(out))[1])
            return summary
        section = _json_section(out)
        if section is not None and cmd == "verify":
            section = dict(section)
            certificates = section.pop("certificates", None) or {}
            section["deviators"] = sorted(k for k, v in certificates.items() if v is not None)
        if section is not None and cmd == "search":
            classes = [dict(c) for c in section.get("classes", [])]
            for c in classes:
                c.pop("example_allocation", None)
            section = {**section, "classes": classes}
        summary["json"] = section
        return summary

    def invariants(r) -> list[str]:
        code, out, _ = r
        if code not in exits:
            return [f"exit code {code}"]
        if cmd == "construct" and code == 0:
            alloc = Spec.from_scenario(json.loads(out))[1]
            if alloc is None:
                return ["constructed scenario has no allocation"]
            problems = spec.matrix_problems(alloc)
            states = spec.states(alloc)
            t = spec.names.index(target) if target else None
            if kind == "balancing" and set(states) != {"p"}:
                problems.append("balancing equilibrium is not all precarious")
            if kind == "sole-survivor" and states != "".join(
                "s" if i == t else "u" for i in range(spec.n)
            ):
                problems.append("sole survivor is not the only safe country")
            if kind == "bipartite-safe" and states[t] != "s":
                problems.append("bipartite-safe target is not safe")
            return problems
        if code == 2 or cmd not in ("evaluate", "verify", "search"):
            return []
        section = _json_section(out)
        if section is None:
            return ["no JSON section"]
        if cmd == "search":
            problems = []
            for c in section["classes"]:
                example = spec.dense(c["example_allocation"])
                if spec.matrix_problems(example) or spec.states(example) != states_str(c["states"]):
                    problems.append("search example is not a member of its class")
            return problems
        if not cache:
            cache["base"] = spec.sigma_tau(rows)
            cache["states"] = spec.states(rows)
        problems = []
        if states_str(section["states"]) != cache["states"]:
            problems.append(f"{cmd} states differ from the recomputed states")
        if cmd == "verify":
            for name, cert in section["certificates"].items():
                if cert is not None:
                    i = spec.names.index(name)
                    row = spec.dense({name: cert["row"]})[i]
                    problems += spec.witness_problems(
                        rows, cache["base"], i, row, states_str(cert["states"])
                    )
        return problems

    def counters(r) -> dict[str, int]:
        return {"cli.stdout_bytes": len(r[1].encode())}

    return Op(key, 1, seeded, run, summarize, invariants, counters)
