"""Scenario ingestion, command dispatch, and reporting.

Scenario files are JSON: countries with exact powers (integers or "a/b"
fraction strings, never binary floats), friend and adversary pairs by name,
and an optional allocation given as sparse rows keyed by country name.
Fractions are serialized back as "a/b" strings so emit-then-parse round
trips are bit exact.

Each command returns its exit code and its whole stdout text, which `main`
writes once, after the command has finished: an exit-2 input fault prints
nothing there.  The text is a human-readable report, a line `---` and a
machine-readable JSON section, which is the last line of stdout (a country
name can print a line `---` in the report, never in the section); state
strings are exactly "safe", "precarious", "unsafe".  `construct` prints a
complete scenario file instead, as its one line, so its output can be
piped straight back into `verify`.  Both are exactly
`json.dumps(..., sort_keys=True)`, the stdlib's C encoder on every
Python, so one ASCII line: a name that stdout's encoding cannot hold is
backslash-escaped in the report only.

Exit codes, by base class: 0 success or affirmative; 1 a well-formed
negative (an invalid allocation, not an equilibrium) or any
`ConstructionFailed`; 2 any `ValidationError` (every input fault, a
`TopologyError` included) or an `OSError` from the one write to stdout.
Any other exception, an `OSError` inside a command included, is a bug
and propagates.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import sys
from collections import Counter
from fractions import Fraction
from math import lcm
from pathlib import Path
from typing import Any, Callable, Sequence

from . import analysis, constructors, model, oracle
from .equilibrium import PUSH_FACTOR, is_nash
from .model import (
    MAX_EXPONENT,
    ZERO,
    Environment,
    Matrix,
    ValidationError,
    _echo,
    _integer_units,
    sigma_tau,
    state_of,
    to_fraction,
    validate_allocation,
    validate_environment,
)

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_ERROR = 2


def parse_scenario(data: Any) -> tuple[Environment, Matrix | None]:
    """Build an environment (and allocation, if present) from scenario JSON.

    Only the JSON shape is checked here: `model.validate_environment`
    checks every name and pair.
    """
    errors: list[str] = []
    if not isinstance(data, dict):
        raise ValidationError(["scenario must be a JSON object"])
    countries = data.get("countries")
    if not isinstance(countries, list) or not countries:
        raise ValidationError(["scenario needs a nonempty 'countries' list"])
    names: list[Any] = []
    powers: list[Any] = []
    for entry in countries:
        if not isinstance(entry, dict) or "name" not in entry or "power" not in entry:
            errors.append(f"country entries need 'name' and 'power': {_echo(entry)}")
            continue
        names.append(entry["name"])
        powers.append(entry["power"])
    friends = data.get("friends", [])
    adversaries = data.get("adversaries", [])
    for key, pairs in (("friends", friends), ("adversaries", adversaries)):
        if not isinstance(pairs, list):
            errors.append(f"'{key}' must be a list of name pairs")
    if errors:
        raise ValidationError(errors)
    env = validate_environment(names, powers, friends, adversaries)
    # validate_environment accepted every raw power, so each is hashable:
    # the bound reads each distinct one once, with its count.
    power_of = dict(zip(powers, env.powers))
    counted = [(power_of[raw], count) for raw, count in Counter(powers).items()]

    allocation = data.get("allocation")
    if allocation is None:
        _check_printable(env.n, counted)
        return env, None
    if not isinstance(allocation, dict):
        raise ValidationError(["'allocation' must map row names to entry maps"])
    index = {name: i for i, name in enumerate(env.names)}
    n = env.n
    rows = [[ZERO] * n for _ in range(n)]
    # Entries repeat, so each distinct string is parsed once; a string that
    # fails is not stored, so each of its cells reports it again.  `cells`
    # lists the raw entry of every cell set, to count each value once.
    parsed: dict[Any, Fraction] = {}
    cells: list[Any] = []
    for row_name, entries in allocation.items():
        i = index.get(row_name)
        if i is None:
            errors.append(f"unknown country {_echo(row_name)} in allocation")
            continue
        if not isinstance(entries, dict):
            errors.append(f"allocation row for {_echo(row_name)} must be a map")
            continue
        row = rows[i]
        for col_name, raw in entries.items():
            j = index.get(col_name)
            if j is None:
                errors.append(
                    f"unknown country {_echo(col_name)} in allocation row {_echo(row_name)}"
                )
                continue
            value = parsed.get(raw) if isinstance(raw, str) else None
            if value is None:
                try:
                    value = to_fraction(raw)
                except ValidationError as exc:
                    errors.extend(f"allocation {row_name}->{col_name}: {e}" for e in exc.errors)
                    continue
                parsed[raw] = value
            row[j] = value
            cells.append(raw)
    if errors:
        raise ValidationError(errors)
    # A zero entry is left out of the bound: it prints as "0" and adds
    # nothing to any sum.
    counted += [(parsed[raw], count) for raw, count in Counter(cells).items() if parsed[raw]]
    _check_printable(n, counted)
    return env, tuple(map(tuple, rows))


#: Numbers below this bound have at most the 4,300 digits `str(int)` prints
#: by default.
_PRINTABLE = 10**MAX_EXPONENT


def _check_printable(n: int, counted: Sequence[tuple[Fraction, int]]) -> None:
    """ValidationError when a number the commands print might not print.

    `counted` holds each distinct power and nonzero entry of a scenario of
    n countries once, with the number of countries or cells that have it.
    Each value passes `to_fraction`'s digit bound alone, but values with
    different large denominators add up to a larger one.  Every printed
    number (a power, entry, support, threat, row sum, deficit or witness
    entry) is at most M = total power + total |entry| in magnitude,
    and its denominator divides L or, for a witness entry with a share
    of its slack, f (k + 1) L for some k < n, where f is `PUSH_FACTOR` and
    L is the common denominator of the powers and the entries.  So its
    numerator and denominator stay below f (n + 1) L M, which must print:
    the check fails when L * f (n + 1) M >= `_PRINTABLE`.  M is summed as
    count * (|numerator| // denominator + 1) over the distinct values, and
    L grows by `lcm` over their denominators, so the order of the values
    does not matter; the check stops as soon as L passes the bound.  The
    bound also caps the L that the verifier scales CLI input to: under
    4,300 digits.
    """
    magnitude = sum(count * (abs(x.numerator) // x.denominator + 1) for x, count in counted)
    bound = PUSH_FACTOR * (n + 1) * magnitude
    scale = 1
    for x, _ in counted:
        if scale % x.denominator:
            scale = lcm(scale, x.denominator)
            if scale * bound >= _PRINTABLE:
                raise ValidationError(
                    [
                        "values too large together: their sums could need more than"
                        f" {MAX_EXPONENT} digits"
                    ]
                )


def emit_scenario(env: Environment, u: Matrix | None = None) -> dict:
    """Serialize an environment (and allocation) to the scenario JSON shape."""
    data: dict[str, Any] = {
        "countries": [
            {"name": name, "power": str(p)} for name, p in zip(env.names, env.powers)
        ],
        "friends": sorted([env.names[i], env.names[j]] for i, j in env.friends),
        "adversaries": sorted([env.names[i], env.names[j]] for i, j in env.adversaries),
    }
    if u is not None:
        rows = {name: _sparse_row(env, row) for name, row in zip(env.names, u)}
        data["allocation"] = {name: row for name, row in rows.items() if row}
    return data


def _sparse_row(env: Environment, row) -> dict[str, str]:
    """One allocation row as {country name: "a/b"}, zero entries omitted."""
    return {name: str(x) for name, x in zip(env.names, row) if x != 0}


def _load(path: str) -> tuple[Environment, Matrix | None]:
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ValidationError([f"cannot read {exc.filename}"]) from None
    except RecursionError:
        raise ValidationError(["invalid JSON: nested too deeply"]) from None
    except json.JSONDecodeError as exc:
        raise ValidationError([f"invalid JSON: {exc}"]) from None
    except UnicodeDecodeError as exc:  # the file is not UTF-8
        raise ValidationError([str(exc)]) from None
    except ValueError:  # an integer literal longer than int(str) converts
        raise ValidationError(["invalid JSON: an integer has too many digits to convert"]) from None
    return parse_scenario(data)


def _report(lines: Sequence[str], payload: dict) -> str:
    return "\n".join([*lines, "---", json.dumps(payload, sort_keys=True), ""])


def _cmd_validate(args: argparse.Namespace, env: Environment, u: Matrix | None) -> tuple[int, str]:
    problems: list[str] = []
    if u is not None:
        problems = validate_allocation(env, u)
    lines = [f"environment: ok ({env.n} countries)"]
    if u is None:
        lines.append("allocation: none")
    elif problems:
        lines.append("allocation: invalid")
        lines.extend(f"  - {p}" for p in problems)
    else:
        lines.append("allocation: ok")
    payload = {
        "command": "validate",
        "valid": not problems,
        "has_allocation": u is not None,
        "errors": problems,
    }
    return EXIT_OK if not problems else EXIT_NEGATIVE, _report(lines, payload)


def _valid_allocation(env: Environment, u: Matrix | None) -> Matrix:
    """The scenario's allocation; ValidationError when it has none or it is
    not admissible."""
    if u is None:
        raise ValidationError(["scenario has no allocation"])
    problems = validate_allocation(env, u)
    if problems:
        raise ValidationError(problems)
    return u


def _cmd_evaluate(args: argparse.Namespace, env: Environment, u: Matrix | None) -> tuple[int, str]:
    u = _valid_allocation(env, u)
    # Summed in integer units of L, as `state_vector` does, on the view
    # `_valid_allocation` has just built, and printed as each sum over L.
    scale, _, units = _integer_units(env, u)
    sigmas, taus = sigma_tau(env, units)
    states = [state_of(s, t).value for s, t in zip(sigmas, taus)]
    if scale > 1:
        sigmas = [Fraction(x, scale) for x in sigmas]
        taus = [Fraction(x, scale) for x in taus]
    lines = []
    rows = []
    for i, name in enumerate(env.names):
        lines.append(f"{name}: support={sigmas[i]} threat={taus[i]} state={states[i]}")
        rows.append(
            {
                "name": name,
                "index": i,
                "power": str(env.powers[i]),
                "support": str(sigmas[i]),
                "threat": str(taus[i]),
                "state": states[i],
            }
        )
    payload = {
        "command": "evaluate",
        "countries": rows,
        "states": states,
    }
    return EXIT_OK, _report(lines, payload)


def _cmd_verify(args: argparse.Namespace, env: Environment, u: Matrix | None) -> tuple[int, str]:
    u = _valid_allocation(env, u)
    result = is_nash(env, u)
    names = env.names
    states = [s.value for s in result.states]
    lines = [
        f"nash equilibrium: {'yes' if result.ok else 'no'}",
        "states: " + " ".join(f"{n}={s}" for n, s in zip(names, states)),
    ]
    certificates: dict[str, Any] = dict.fromkeys(names)
    for dev in result.deviations:
        # A witness fills only the deviator's relation columns, and moves
        # only their states.
        i = dev.country
        support = env.row_support[i]
        new_states = states.copy()
        for j in support:
            new_states[j] = dev.states[j].value
        lines.append(f"{names[i]}: profitable deviation found")
        certificates[names[i]] = {
            "row": {names[j]: str(dev.row[j]) for j in support if dev.row[j]},
            "states": new_states,
        }
    payload = {
        "command": "verify",
        "is_nash": result.ok,
        "states": states,
        "certificates": certificates,
    }
    return EXIT_OK if result.ok else EXIT_NEGATIVE, _report(lines, payload)


def _cmd_construct(args: argparse.Namespace, env: Environment, _: Matrix | None) -> tuple[int, str]:
    if args.kind in ("sole-survivor", "bipartite-safe") and not args.target:
        raise ValidationError([f"--target is required for --kind {args.kind}"])
    if args.kind == "balancing":
        u = constructors.balancing_equilibrium(env)
    elif args.kind == "sole-survivor":
        u = constructors.sole_survivor_equilibrium(env, env.index(args.target))
    else:
        u = constructors.bipartite_safe_equilibrium(env, env.index(args.target))
    return EXIT_OK, json.dumps(emit_scenario(env, u), sort_keys=True) + "\n"


def _cmd_analyze(args: argparse.Namespace, env: Environment, _: Matrix | None) -> tuple[int, str]:
    lines = []
    payload: dict[str, Any] = {"command": "analyze"}

    if args.group:
        # Each member once, in first-seen order, as the checks count them.
        group_names = list(dict.fromkeys(g.strip() for g in args.group.split(",") if g.strip()))
        group = [env.index(g) for g in group_names]
        balance = analysis.check_group_balance(env, group)
        clique = analysis.check_clique_defense(env, group)
        lines.append(f"group {','.join(group_names)}: balance={balance} clique-defense={clique}")
        payload["group"] = {
            "members": group_names,
            "group_balance": balance,
            "clique_defense": clique,
        }

    try:
        balancing = analysis.balancing_exists(env)
    except analysis.TopologyError:
        balancing = None
    if balancing is None:
        lines.append("balancing equilibrium: not applicable (not a complete rivalry)")
    else:
        lines.append(f"balancing equilibrium exists: {balancing}")
    payload["balancing_exists"] = balancing

    bipartite: dict[str, Any] | None
    try:
        necessary = {n: analysis.bipartite_safe_necessary(env, i) for i, n in enumerate(env.names)}
        sufficient = {n: analysis.bipartite_safe_sufficient(env, i) for i, n in enumerate(env.names)}
        bipartite = {"necessary": necessary, "sufficient": sufficient}
        lines.append(
            "safety condition (necessary/sufficient): "
            + " ".join(
                f"{n}={'y' if necessary[n] else 'n'}/{'y' if sufficient[n] else 'n'}"
                for n in env.names
            )
        )
    except analysis.TopologyError:
        bipartite = None
        lines.append("bipartite safety conditions: not applicable")
    payload["bipartite_safety"] = bipartite

    report = analysis.dp_cover(env)
    for d in report.dominations:
        lines.append(
            f"domination of {env.names[d.owner]}: "
            + ",".join(env.names[m] for m in sorted(d.members))
        )
    for p in report.protectorates:
        lines.append(
            f"protectorate of {env.names[p.owner]}: "
            + ",".join(env.names[m] for m in sorted(p.members))
        )
    lines.append(f"cover spans: {report.spans}")
    lines.append(
        "verdicts: "
        + " ".join(f"{n}={v.value}" for n, v in zip(env.names, report.verdicts))
    )
    payload["cover"] = {
        "dominations": [
            {"owner": env.names[d.owner], "members": sorted(env.names[m] for m in d.members)}
            for d in report.dominations
        ],
        "protectorates": [
            {
                "owner": env.names[p.owner],
                "members": sorted(env.names[m] for m in p.members),
                "weak_friends": sorted(env.names[m] for m in p.weak_friends),
                "threats": sorted(env.names[m] for m in p.threats),
            }
            for p in report.protectorates
        ],
        "covered": sorted(env.names[m] for m in report.covered),
        "spans": report.spans,
        "verdicts": {n: v.value for n, v in zip(env.names, report.verdicts)},
    }
    return EXIT_OK, _report(lines, payload)


def _cmd_search(args: argparse.Namespace, env: Environment, _: Matrix | None) -> tuple[int, str]:
    grid = oracle.GridSpec(step=args.step, max_candidates=args.max_candidates)
    atlas = oracle.find_equilibria(env, grid)
    lines = [
        f"grid step: {grid.step}",
        f"candidates checked: {atlas.candidates_checked}",
        f"equilibria found: {atlas.total} in {len(atlas.classes)} classes",
    ]
    classes_payload = []
    for cls in atlas.classes:
        states = [s.value for s in cls.states]
        lines.append(f"class [{', '.join(states)}]: {len(cls.members)} matrices")
        example = emit_scenario(env, cls.members[0])
        classes_payload.append(
            {
                "states": states,
                "count": len(cls.members),
                "example_allocation": example.get("allocation", {}),
            }
        )
    # Whether each country survives in every class of the atlas, some, or none.
    survival: dict[str, str] = {}
    if atlas.classes:
        for i, name in enumerate(env.names):
            survives = {cls.states[i].survives for cls in atlas.classes}
            word = "sometimes" if len(survives) == 2 else "always" if True in survives else "never"
            survival[name] = f"{word}-on-grid"
        lines.append(
            "survival: " + " ".join(f"{n}={v}" for n, v in survival.items())
        )
    else:
        lines.append("survival: no equilibria found on this grid")
    lines.append("note: grid absence is evidence, not proof, for continuous claims")
    payload = {
        "command": "search",
        "step": str(grid.step),
        "candidates_checked": atlas.candidates_checked,
        "classes": classes_payload,
        "survival": survival,
        "complete_for_continuous_strategies": False,
    }
    return EXIT_OK, _report(lines, payload)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The `pag` parser, built on first use and shared by every later call,
    so callers must not change it."""
    parser = argparse.ArgumentParser(
        prog="pag",
        description="Exact analysis of power allocation games on relation graphs.",
    )
    scenario = argparse.ArgumentParser(add_help=False)
    scenario.add_argument("scenario")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, func: Callable[..., tuple], summary: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=summary, parents=[scenario])
        p.set_defaults(func=func)
        return p

    command("validate", _cmd_validate, "check environment and allocation invariants")
    command("evaluate", _cmd_evaluate, "print support, threat, and state per country")
    command("verify", _cmd_verify, "check the allocation for Nash equilibrium")

    p = command("construct", _cmd_construct, "construct an equilibrium of the given kind")
    p.add_argument(
        "--kind",
        required=True,
        choices=["balancing", "sole-survivor", "bipartite-safe"],
    )
    p.add_argument("--target", help="country name (sole-survivor, bipartite-safe)")

    p = command("analyze", _cmd_analyze, "survival condition reports and the cover")
    p.add_argument("--group", help="comma-separated country names")

    p = command("search", _cmd_search, "enumerate grid equilibria exhaustively")
    p.add_argument("--step", required=True, help="grid step, e.g. 1 or 1/4")
    p.add_argument("--max-candidates", type=int, default=oracle.MAX_CANDIDATES)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code, text = args.func(args, *_load(args.scenario))
    except ValidationError as exc:
        for problem in exc.errors:
            print(f"error: {problem}", file=sys.stderr)
        return EXIT_ERROR
    except constructors.ConstructionFailed as exc:
        print(f"construction: {exc}", file=sys.stderr)
        return EXIT_NEGATIVE
    finally:
        # No later command checks this one's allocation: free it with the
        # command rather than when the next one scales its own.
        model._last_scaled[0] = (None, None, None)
    try:
        try:
            sys.stdout.write(text)
        except UnicodeEncodeError:
            # A strict stream encodes the whole text before writing any: write
            # it again escaped, as stderr is; the ASCII JSON section is unchanged.
            encoding = sys.stdout.encoding
            sys.stdout.write(text.encode(encoding, "backslashreplace").decode(encoding))
        sys.stdout.flush()
    except OSError as exc:
        # stdout's reader went away (`pag search ... | head -1`) or its device
        # is full.  Closing stdout keeps the flush at interpreter exit from
        # failing a second time.
        with contextlib.suppress(OSError):
            sys.stdout.close()
        if not isinstance(exc, BrokenPipeError):
            print(f"error: cannot write output: {exc.strerror}", file=sys.stderr)
        return EXIT_ERROR
    return code


if __name__ == "__main__":
    sys.exit(main())
