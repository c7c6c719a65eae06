"""Scenario ingestion, command dispatch, and reporting.

Scenario files are JSON: countries with exact powers (integers or "a/b"
fraction strings, never binary floats), friend and adversary pairs by name,
and an optional allocation given as sparse rows keyed by country name.
Fractions are serialized back as "a/b" strings so emit-then-parse round
trips are bit exact.

Commands print a human-readable report followed by a `---` separator and a
machine-readable JSON section (state strings are exactly "safe",
"precarious", "unsafe").  `construct` prints a complete scenario file
instead, so its output can be piped straight back into `verify`.

Exit codes: 0 success or affirmative, 1 well-formed negative (not an
equilibrium, condition not met, construction infeasible), 2 input or
topology error.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from fractions import Fraction
from math import lcm
from pathlib import Path
from typing import Any, Sequence

from . import analysis, constructors, model, oracle
from .equilibrium import is_nash
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
    """Build an environment (and allocation, if present) from scenario JSON."""
    errors: list[str] = []
    if not isinstance(data, dict):
        raise ValidationError(["scenario must be a JSON object"])
    countries = data.get("countries")
    if not isinstance(countries, list) or not countries:
        raise ValidationError(["scenario needs a nonempty 'countries' list"])
    names: list[str] = []
    powers: list[Any] = []
    for entry in countries:
        if not isinstance(entry, dict) or "name" not in entry or "power" not in entry:
            errors.append(f"country entries need 'name' and 'power': {_echo(entry)}")
            continue
        if not isinstance(entry["name"], str):
            errors.append(f"country name must be a string: {_echo(entry['name'])}")
            continue
        names.append(entry["name"])
        powers.append(entry["power"])

    def pairs(key: str) -> list[tuple[str, str]]:
        raw = data.get(key, [])
        out: list[tuple[str, str]] = []
        if not isinstance(raw, list):
            errors.append(f"'{key}' must be a list of name pairs")
            return out
        for item in raw:
            if (
                not isinstance(item, (list, tuple))
                or len(item) != 2
                or not all(isinstance(name, str) for name in item)
            ):
                errors.append(f"bad {key} pair: {_echo(item)}")
                continue
            out.append((item[0], item[1]))
        return out

    friend_pairs = pairs("friends")
    adversary_pairs = pairs("adversaries")
    if errors:
        raise ValidationError(errors)
    env = validate_environment(names, powers, friend_pairs, adversary_pairs)

    allocation = data.get("allocation")
    if allocation is None:
        _check_printable(env, ())
        return env, None
    if not isinstance(allocation, dict):
        raise ValidationError(["'allocation' must map row names to entry maps"])
    index = {name: i for i, name in enumerate(env.names)}
    rows = [[ZERO] * env.n for _ in range(env.n)]
    values: list[Fraction] = []
    # Entries repeat, so each distinct string is parsed once; a string that
    # fails is not stored, so each of its cells reports it again.
    parsed: dict[str, Fraction] = {}
    for row_name, entries in allocation.items():
        if row_name not in index:
            errors.append(f"unknown country {_echo(row_name)} in allocation")
            continue
        if not isinstance(entries, dict):
            errors.append(f"allocation row for {_echo(row_name)} must be a map")
            continue
        row = rows[index[row_name]]
        for col_name, raw in entries.items():
            if col_name not in index:
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
                if isinstance(raw, str):
                    parsed[raw] = value
            row[index[col_name]] = value
            if value:
                values.append(value)
    if errors:
        raise ValidationError(errors)
    _check_printable(env, values)
    return env, tuple(tuple(row) for row in rows)


#: Numbers below this bound have at most the 4,300 digits `str(int)` prints
#: by default.
_PRINTABLE = 10**MAX_EXPONENT


def _check_printable(env: Environment, entries: Sequence[Fraction]) -> None:
    """ValidationError when a number the commands print might not print.

    Each value passes `to_fraction`'s digit bound alone, but values with
    different large denominators add up to a larger one.  Every printed
    number (a power, entry, support, threat, row sum, deficit or witness
    entry) is at most M = total power + total |entry| in magnitude,
    and its denominator divides L or, for a witness entry with a share
    of its slack, 4 (k + 1) L for some k < n, where L is the common
    denominator of the powers and the entries.  So its numerator and
    denominator stay below 4 (n + 1) L M, which must print.  L grows by
    `lcm`, and the check stops as soon as it passes the bound.  The bound
    also caps the L that the verifier scales CLI input to: under 4,300
    digits.
    """
    values = (*env.powers, *entries)
    magnitude = sum(abs(x.numerator) // x.denominator + 1 for x in values)
    limit = (_PRINTABLE - 1) // (4 * (env.n + 1) * magnitude)
    scale = 1
    for x in values:
        if scale % x.denominator:
            scale = lcm(scale, x.denominator)
            if scale > limit:
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
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ValidationError([f"cannot read {exc.filename}"]) from None
    try:
        data = json.loads(text)
    except RecursionError:
        raise ValidationError(["invalid JSON: nested too deeply"]) from None
    except json.JSONDecodeError as exc:
        raise ValidationError([f"invalid JSON: {exc}"]) from None
    return parse_scenario(data)


def _print_report(lines: Sequence[str], payload: dict) -> None:
    for line in lines:
        print(line)
    print("---")
    print(json.dumps(payload, indent=2, sort_keys=True))


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_ERROR


def _cmd_validate(args: argparse.Namespace) -> int:
    env, u = _load(args.scenario)
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
    _print_report(lines, payload)
    return EXIT_OK if not problems else EXIT_NEGATIVE


def _valid_allocation(env: Environment, u: Matrix | None) -> Matrix:
    """The scenario's allocation; ValidationError when it has none or it is
    not admissible."""
    if u is None:
        raise ValidationError(["scenario has no allocation"])
    problems = validate_allocation(env, u)
    if problems:
        raise ValidationError(problems)
    return u


def _cmd_evaluate(args: argparse.Namespace) -> int:
    env, u = _load(args.scenario)
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
    _print_report(lines, payload)
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    env, u = _load(args.scenario)
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
        support = env.row_support(i)
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
    _print_report(lines, payload)
    return EXIT_OK if result.ok else EXIT_NEGATIVE


def _cmd_construct(args: argparse.Namespace) -> int:
    env, _ = _load(args.scenario)
    if args.kind in ("sole-survivor", "bipartite-safe") and not args.target:
        return _fail(f"--target is required for --kind {args.kind}")
    if args.kind == "balancing":
        u = constructors.balancing_equilibrium(env)
    elif args.kind == "sole-survivor":
        u = constructors.sole_survivor_equilibrium(env, env.index(args.target))
    else:
        u = constructors.bipartite_safe_equilibrium(env, env.index(args.target))
    print(json.dumps(emit_scenario(env, u), indent=2, sort_keys=True))
    return EXIT_OK


def _cmd_analyze(args: argparse.Namespace) -> int:
    env, _ = _load(args.scenario)
    lines = []
    payload: dict[str, Any] = {"command": "analyze"}

    if args.group:
        group_names = [g.strip() for g in args.group.split(",") if g.strip()]
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
    _print_report(lines, payload)
    return EXIT_OK


def _cmd_search(args: argparse.Namespace) -> int:
    env, _ = _load(args.scenario)
    step = to_fraction(args.step)
    grid = oracle.GridSpec(step=step, max_candidates=args.max_candidates)
    atlas = oracle.find_equilibria(env, grid)
    lines = [
        f"grid step: {step}",
        f"candidates checked: {atlas.candidates_checked}",
        f"equilibria found: {atlas.total} in {len(atlas.classes)} classes",
    ]
    classes_payload = []
    for cls in atlas.classes:
        lines.append(
            "class "
            + "[" + ", ".join(s.value for s in cls.states) + "]"
            + f": {len(cls.members)} matrices"
        )
        example = emit_scenario(env, cls.members[0])
        classes_payload.append(
            {
                "states": [s.value for s in cls.states],
                "count": len(cls.members),
                "example_allocation": example.get("allocation", {}),
            }
        )
    survival: dict[str, str] = {}
    if atlas.classes:
        for i, name in enumerate(env.names):
            survival[name] = oracle.survival_possibility(atlas, i).value
        lines.append(
            "survival: " + " ".join(f"{n}={v}" for n, v in survival.items())
        )
    else:
        lines.append("survival: no equilibria found on this grid")
    lines.append("note: grid absence is evidence, not proof, for continuous claims")
    payload = {
        "command": "search",
        "step": str(step),
        "candidates_checked": atlas.candidates_checked,
        "classes": classes_payload,
        "survival": survival,
        "complete_for_continuous_strategies": False,
    }
    _print_report(lines, payload)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pag",
        description="Exact analysis of power allocation games on relation graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check environment and allocation invariants")
    p.add_argument("scenario")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("evaluate", help="print support, threat, and state per country")
    p.add_argument("scenario")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("verify", help="check the allocation for Nash equilibrium")
    p.add_argument("scenario")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("construct", help="construct an equilibrium of the given kind")
    p.add_argument("scenario")
    p.add_argument(
        "--kind",
        required=True,
        choices=["balancing", "sole-survivor", "bipartite-safe"],
    )
    p.add_argument("--target", help="country name (sole-survivor, bipartite-safe)")
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("analyze", help="survival condition reports and the cover")
    p.add_argument("scenario")
    p.add_argument("--group", help="comma-separated country names")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("search", help="enumerate grid equilibria exhaustively")
    p.add_argument("scenario")
    p.add_argument("--step", required=True, help="grid step, e.g. 1 or 1/4")
    p.add_argument("--max-candidates", type=int, default=oracle.MAX_CANDIDATES)
    p.set_defaults(func=_cmd_search)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except OSError as exc:
        # Scenarios are read in _load, so this is a write to stdout failing:
        # its reader went away (`pag search ... | head -1`) or its device is
        # full.  Closing stdout keeps the flush at interpreter exit from
        # failing a second time.
        with contextlib.suppress(OSError):
            sys.stdout.close()
        if isinstance(exc, BrokenPipeError):
            return EXIT_ERROR
        return _fail(f"cannot write output: {exc.strerror}")
    except ValidationError as exc:
        for problem in exc.errors:
            print(f"error: {problem}", file=sys.stderr)
        return EXIT_ERROR
    except KeyError as exc:
        return _fail(str(exc.args[0]) if exc.args else str(exc))
    except analysis.TopologyError as exc:
        return _fail(f"topology: {exc}")
    except (
        constructors.InfeasiblePower,
        constructors.PreconditionViolated,
        constructors.ConditionNotMet,
        constructors.ConstructionFailed,
    ) as exc:
        print(f"construction: {exc}", file=sys.stderr)
        return EXIT_NEGATIVE
    except ValueError as exc:
        return _fail(str(exc))
    finally:
        # No later command checks this one's allocation: free it with the
        # command rather than when the next one scales its own.
        model._last_scaled[0] = (None, None, None)


if __name__ == "__main__":
    sys.exit(main())
