"""Core types of the power allocation game.

An environment is a set of named countries with exact rational powers and
symmetric friend/adversary relations.  An allocation matrix splits each
country's power across its own reserve, support for friends, and offense
against adversaries.  The induced per-country state (safe, precarious,
unsafe) is decided by comparing total support against total threat.

Every quantity that enters or leaves the engine is a `fractions.Fraction`.
Inside, decisions run in integer units: the verifier and the allocation
check scale the powers and the cells they read by their common denominator
L (`_integer_units`), which changes no comparison because the game is
positively homogeneous, and the grid oracle works in integer multiples of
its step.  `_integer_units` keeps the last view it built in one slot, so
the checks of one allocation (`validate_allocation`, `is_nash`,
`best_deviation`, `state_vector`) scale it once between them.  It keeps
only the view of an allocation that cannot change under it: a tuple of
tuples whose cells it reads are Fractions or ints.  The slot keeps that
allocation, its environment and the view alive until another allocation is
scaled or a `pag` command ends, and callers must not mutate the view.  `validate_allocation` goes
back to the exact Fractions only for a row that fails, to name its faults.
`sigma_tau` and `state_vector` only add and compare, so they accept int
and Fraction matrices alike.  The safe/precarious boundary is an equality
test, so binary floating point is never used anywhere.  All functions here
are pure and thread-safe: the slot is read once and replaced by one
assignment, and what it returns depends on its two arguments alone.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from math import lcm
from typing import Iterable, Mapping, Sequence

Rational = int | str | Fraction
Matrix = tuple[tuple[Fraction, ...], ...]
Pair = tuple[int, int]

ZERO = Fraction(0)


class State(Enum):
    """Survival state of one country under a given allocation."""

    SAFE = "safe"
    PRECARIOUS = "precarious"
    UNSAFE = "unsafe"

    @property
    def survives(self) -> bool:
        return self is not State.UNSAFE


#: Canonical order used for deterministic sorting of state vectors.
STATE_ORDER = {State.SAFE: 0, State.PRECARIOUS: 1, State.UNSAFE: 2}


class ValidationError(ValueError):
    """Bad input: an environment, allocation or option violates its invariants.

    Carries the full list of problems found, not just the first one.
    """

    def __init__(self, errors: Sequence[str]):
        super().__init__("; ".join(errors))
        self.errors = list(errors)


#: Largest decimal exponent magnitude `to_fraction` parses from a string:
#: the same 4,300-digit bound that `int(str)` applies by default.
MAX_EXPONENT = 4300

#: Most decimal digits of a parsed numerator or denominator.  A sum of n
#: such values over one denominator gains about log10(n) digits, so it stays
#: below the 4,300 digits `str(int)` prints by default; sums over different
#: denominators are bounded per scenario by `cli.parse_scenario`.
MAX_DIGITS = 4000
_DIGIT_BOUND = 10**MAX_DIGITS

_EXPONENT = re.compile(r"[eE][-+]?([\d_]+)")


def _echo(value: object) -> str:
    """repr of an input value, cut to 40 characters."""
    try:
        text = repr(value)
    except ValueError:  # an integer with more digits than str() prints
        return f"<{type(value).__name__} too long to print>"
    return text if len(text) <= 40 else text[:40] + "…"


def to_fraction(value: Rational) -> Fraction:
    """Parse an exact rational from an int, a Fraction, or an 'a/b' string.

    Floats are rejected: they cannot represent the inputs exactly and would
    corrupt the precarious-boundary equality tests downstream.  So are
    strings whose decimal exponent exceeds `MAX_EXPONENT`, which would take
    `Fraction` unbounded time and memory to expand, and values whose
    numerator or denominator has more than `MAX_DIGITS` digits, whose sums
    could not be printed.

    A string of decimal digits alone (`str.isdecimal`, the common power or
    entry) has no exponent and is read with `int`, which is what `Fraction`
    does with it after matching its pattern: the same value, and the same
    error beyond the digits `int(str)` converts.
    """
    if isinstance(value, bool):
        raise ValidationError([f"not a rational: {_echo(value)}"])
    if isinstance(value, (int, Fraction)):
        result = Fraction(value)
    elif isinstance(value, str):
        decimal = value.isdecimal()
        exponent = None if decimal else _EXPONENT.search(value)
        if exponent is not None:
            digits = exponent.group(1).replace("_", "").lstrip("0")
            if len(digits) > len(str(MAX_EXPONENT)) or int(digits or "0") > MAX_EXPONENT:
                raise ValidationError(
                    [f"not a rational: {_echo(value)} (exponent beyond ±{MAX_EXPONENT})"]
                )
        try:
            result = Fraction(int(value) if decimal else value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise ValidationError([f"not a rational: {_echo(value)}"]) from exc
    else:
        why = "floats are rejected" if isinstance(value, float) else f"type {type(value).__name__}"
        raise ValidationError([f"not a rational: {_echo(value)} ({why})"])
    if abs(result.numerator) >= _DIGIT_BOUND or result.denominator >= _DIGIT_BOUND:
        raise ValidationError([f"not a rational: {_echo(value)} (more than {MAX_DIGITS} digits)"])
    return result


def _first_gap(support: tuple[int, ...]) -> int:
    """The first column a sorted row support misses, which has no relation
    (its length when it covers every column before it)."""
    for k, j in enumerate(support):
        if j != k:
            return k
    return len(support)


@dataclass(frozen=True)
class Environment:
    """Countries, exact powers, and symmetric relation sets.

    Countries are referenced by stable 0-based indices internally; names are
    the external interface.  Relation pairs are stored normalized with the
    smaller index first.  The graph is computed once, at construction, as
    read-only tuples indexed by country, each in ascending order:
    `friends_of[i]`, `adversaries_of[i]`, and `row_support[i]`, the columns
    where row i may be nonzero (i itself and its relations).
    """

    names: tuple[str, ...]
    powers: tuple[Fraction, ...]
    friends: frozenset[Pair]
    adversaries: frozenset[Pair]

    friends_of: tuple[tuple[int, ...], ...] = field(
        init=False, repr=False, compare=False, default=()
    )
    adversaries_of: tuple[tuple[int, ...], ...] = field(
        init=False, repr=False, compare=False, default=()
    )
    row_support: tuple[tuple[int, ...], ...] = field(
        init=False, repr=False, compare=False, default=()
    )
    _first_off: tuple[int, ...] = field(init=False, repr=False, compare=False, default=())

    def __post_init__(self) -> None:
        n = len(self.names)
        fr: list[list[int]] = [[] for _ in range(n)]
        ad: list[list[int]] = [[] for _ in range(n)]
        for i, j in self.friends:
            fr[i].append(j)
            fr[j].append(i)
        for i, j in self.adversaries:
            ad[i].append(j)
            ad[j].append(i)
        support = [[i, *f, *a] for i, f, a in zip(range(n), fr, ad)]
        for rows in (fr, ad, support):
            for row in rows:
                row.sort()
        # Only the rows that have column 0, which are row 0's columns, can
        # have a first gap past 0.
        first_off = [0] * n
        if n:
            for i in support[0]:
                first_off[i] = _first_gap(support[i])
        object.__setattr__(self, "friends_of", tuple(map(tuple, fr)))
        object.__setattr__(self, "adversaries_of", tuple(map(tuple, ad)))
        object.__setattr__(self, "row_support", tuple(map(tuple, support)))
        object.__setattr__(self, "_first_off", tuple(first_off))

    @property
    def n(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        """The country's index; ValidationError for an unknown name."""
        try:
            return self.names.index(name)
        except ValueError:
            raise ValidationError([f"unknown country {name!r}"]) from None


def validate_environment(
    names: Sequence[str],
    powers: Sequence[Rational],
    friends: Iterable[tuple[str, str]] = (),
    adversaries: Iterable[tuple[str, str]] = (),
) -> Environment:
    """Check a raw environment description and build an Environment.

    The one check of names and pairs: collects every violation (a name that
    is not a valid Unicode string or repeats one, negative power, a pair
    that is not two name strings, self pairs, pairs that are both friend and
    adversary, unknown names) and raises one ValidationError listing them.
    """
    errors: list[str] = []
    if not names:
        errors.append("no countries")
    # A name that fails a check gets no index entry, so no pair finds it.
    index: dict[str, int] = {}
    for i, name in enumerate(names):
        if not isinstance(name, str):
            errors.append(f"country name must be a string: {_echo(name)}")
        elif not name.isascii() and name.encode(errors="replace").decode() != name:
            errors.append(f"country name must be valid Unicode: {_echo(name)}")
        elif name in index:
            errors.append(f"duplicate name {_echo(name)}")
        else:
            index[name] = i
    if len(powers) != len(names):
        errors.append(f"{len(names)} countries but {len(powers)} powers")

    parsed: list[Fraction] = []
    # Powers repeat, so each distinct string is parsed and its sign tested
    # once; a string that fails or is negative is not stored, so each
    # country that has it reports it again.
    known: dict[str, Fraction] = {}
    for name, raw in zip(names, powers):
        value = known.get(raw) if isinstance(raw, str) else None
        if value is None:
            try:
                value = to_fraction(raw)
            except ValidationError as exc:
                errors.extend(f"power for {_echo(name)}: {e}" for e in exc.errors)
                value = ZERO
            else:
                if value.numerator < 0:
                    errors.append(f"negative power for {_echo(name)}")
                elif isinstance(raw, str):
                    known[raw] = value
        parsed.append(value)

    def resolve(pairs: Iterable[tuple[str, str]], label: str) -> set[Pair]:
        out: set[Pair] = set()
        for pair in pairs:
            a, b = pair if isinstance(pair, (tuple, list)) and len(pair) == 2 else (None, None)
            if not (isinstance(a, str) and isinstance(b, str)):
                errors.append(f"bad {label} pair: {_echo(pair)}")
                continue
            i, j = index.get(a), index.get(b)
            if i is None or j is None:
                errors.extend(
                    f"unknown country {_echo(name)} in {label} pair"
                    for name in (a, b)
                    if name not in index
                )
                continue
            if i == j:
                errors.append(f"self relation for {_echo(a)}")
                continue
            out.add((i, j) if i < j else (j, i))
        return out

    friend_pairs = resolve(friends, "friend")
    adversary_pairs = resolve(adversaries, "adversary")
    for i, j in sorted(friend_pairs & adversary_pairs):
        errors.append(
            f"conflicting relation for {_echo(names[i])} and {_echo(names[j])}"
            " (both friend and adversary)"
        )

    if errors:
        raise ValidationError(errors)
    return Environment(
        names=tuple(names),
        powers=tuple(parsed),
        friends=frozenset(friend_pairs),
        adversaries=frozenset(adversary_pairs),
    )


def make_environment(
    powers: Sequence[Rational],
    *,
    friends: Iterable[Pair] = (),
    adversaries: Iterable[Pair] = (),
    names: Sequence[str] | None = None,
) -> Environment:
    """Build an Environment from 0-based index pairs (convenience)."""
    if names is None:
        names = tuple(f"v{i + 1}" for i in range(len(powers)))
    friends, adversaries = list(friends), list(adversaries)
    _check_indices(len(names), [*friends, *adversaries], pairs=True)
    return validate_environment(
        names,
        powers,
        [(names[i], names[j]) for i, j in friends],
        [(names[i], names[j]) for i, j in adversaries],
    )


def _check_indices(n: int, groups: Iterable[Sequence[int]], pairs: bool = False) -> None:
    """ValidationError naming every index of `groups` that is not an int in
    0..n-1 and, with `pairs`, every group that is not a list or tuple of 2."""
    errors = []
    for group in groups:
        if pairs and not (isinstance(group, (tuple, list)) and len(group) == 2):
            errors.append(f"not an index pair: {_echo(group)}")
            continue
        for k in group:
            if type(k) is not int:
                errors.append(f"index {_echo(k)} is not an int")
            elif not 0 <= k < n:
                errors.append(f"index {_echo(k)} out of range 0..{n - 1}")
    if errors:
        raise ValidationError(errors)


def matrix_from_entries(
    env: Environment, entries: Mapping[Pair, Rational]
) -> Matrix:
    """Build a full matrix from sparse {(row, col): value} entries."""
    _check_indices(env.n, entries, pairs=True)
    rows = [[ZERO] * env.n for _ in range(env.n)]
    for (i, j), raw in entries.items():
        rows[i][j] = to_fraction(raw)
    return tuple(tuple(row) for row in rows)


def replace_row(u: Matrix, i: int, row: Sequence[Fraction]) -> Matrix:
    """u with row i replaced; ValidationError unless i is an int in 0..len(u)-1."""
    _check_indices(len(u), [(i,)])
    return tuple(tuple(row) if k == i else u[k] for k in range(len(u)))


def validate_allocation(env: Environment, u: Matrix) -> list[str]:
    """Check allocation invariants; an empty list means the matrix is valid.

    Reports, row by row and in column order, negative entries and nonzero
    entries at cells with no relation (a negative one there gets both
    messages), then the row-sum mismatch with its deficit.  The decision
    runs in the verifier's integer units (`_integer_units`): a row passes
    when its relation cells are nonnegative and sum to its power, and its
    cells with no relation are all zero, which is tested by counting the
    row's cells equal to the first of them, whose column the Environment
    keeps (in C, and by identity where they share that object), against the
    zeros among its relation cells.
    Only a row that fails is scanned cell by cell, on its exact values, to
    name what is wrong with it.
    """
    errors: list[str] = []
    n = env.n
    if len(u) != n or any(len(row) != n for row in u):
        return [f"matrix must be {n}x{n}"]
    _, powers, units = _integer_units(env, u)
    for i, (row, cells, off) in enumerate(zip(u, units, env._first_off)):
        values = list(cells.values())
        if (
            sum(values) != powers[i]
            or min(values) < 0
            or (
                off < n
                and (row[off] or row.count(row[off]) != values.count(0) + n - len(values))
            )
        ):
            _check_cells(env, i, row, errors)
    return errors


def _check_cells(env: Environment, i: int, row: Sequence[Fraction], errors: list[str]) -> None:
    """Append the messages of row i, one that fails validation, from its
    exact cells in column order."""
    names = env.names
    related = set(env.row_support[i])
    total = ZERO
    for j, value in enumerate(row):
        if not value:
            continue
        if value < 0:
            errors.append(f"negative entry {names[i]}->{names[j]}")
        if j not in related:
            errors.append(f"nonzero entry {names[i]}->{names[j]} with no relation")
        total += value
    power = env.powers[i]
    if total != power:
        errors.append(
            f"row sum for {names[i]} is {total}, expected {power} (deficit {power - total})"
        )


def sigma_tau(env: Environment, u: Matrix) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
    """Compute all support and threat values in one pass.

    Support of i: reserve + incoming friend support + own offense.
    Threat of i: total adversary power directed at i.
    This is the only place either is summed.  Zero entries, the bulk of a
    sparse or grid matrix, are skipped: adding them is exact but not free.
    Sums start from the int 0, so they are exact on an integer matrix as
    on a Fraction one, and an integer matrix stays integer.
    """
    sigmas = []
    taus = []
    friends_of, adversaries_of = env.friends_of, env.adversaries_of
    for i in range(env.n):
        row = u[i]
        sig = row[i]
        for j in friends_of[i]:
            x = u[j][i]
            if x:
                sig += x
        tau = 0
        for j in adversaries_of[i]:
            x = row[j]
            if x:
                sig += x
            x = u[j][i]
            if x:
                tau += x
        sigmas.append(sig)
        taus.append(tau)
    return tuple(sigmas), tuple(taus)


def state_of(sig: Fraction, tau: Fraction) -> State:
    if sig > tau:
        return State.SAFE
    if sig == tau:
        return State.PRECARIOUS
    return State.UNSAFE


def state_vector(env: Environment, u: Matrix) -> tuple[State, ...]:
    """Per-country states induced by allocation u, by exact comparison in
    integer units."""
    sigmas, taus = sigma_tau(env, _integer_units(env, u)[2])
    return tuple(map(state_of, sigmas, taus))


#: The slot of `_integer_units`: the last allocation it scaled and kept, as
#: (env, u, view).  The triple is replaced inside a list, so no module
#: attribute is rebound (`bench/selftest.py` checks that a traced round
#: leaves every attribute of the program's modules as it found it).
_last_scaled: list[tuple] = [(None, None, None)]


def _integer_units(
    env: Environment, u: Matrix
) -> tuple[int, tuple[int, ...], list[dict[int, int]]]:
    """The powers and the cells the verifier reads, in integer units.

    Returns (L, powers, rows), built by `_scale`, once per allocation.  The
    one slot `_last_scaled` keeps the last view whose allocation cannot
    change under it: u and each of its rows exactly a tuple, and each of
    its support cells and powers exactly a Fraction or an int.  When `env`
    and `u` are the very objects of that view, it is returned again, so
    `validate_allocation`, `is_nash`, `best_deviation`, `state_vector` and
    `pag evaluate` scale a matrix once between them.  A miss empties the
    slot before it scales, so the slot never keeps two allocations alive;
    it keeps its environment, its allocation and the view until the next
    miss, or until `cli.main` empties it as a command ends.  Every other
    matrix (a list row, a `bool` or Fraction-subclass cell) is scaled on
    each call, and a float or Decimal cell raises on each.  The slot is
    read once and replaced by one assignment, so concurrent callers see
    one whole view or none.  The view is shared: callers must not mutate
    it.
    """
    last_env, last_u, view = _last_scaled[0]
    if last_u is u and last_env is env:
        return view
    _last_scaled[0] = (None, None, None)
    view, keep = _scale(env, u)
    if keep:
        _last_scaled[0] = (env, u, view)
    return view


def _scale(
    env: Environment, u: Matrix
) -> tuple[tuple[int, tuple[int, ...], list[dict[int, int]]], bool]:
    """Scale the powers and the cells the verifier reads to integer units,
    and tell whether the view may be kept.

    The view is (L, powers, rows): L is the common denominator of the
    environment's powers and of each row's support cells (its diagonal,
    friend and adversary cells; no other cell is read), the powers times
    L, and per row a {column: cell times L} map over its support, in
    O(n + E).  A valid row's cells sum to its power, so the powers add no
    factor to L there.  One pass over each row's support reads each cell's
    ratio once, keeps its numerator, notes the cells whose denominator is
    not 1 and grows L from those; where L stays 1 the numerators are the
    units, and otherwise the nonzero ones are multiplied by L and each
    noted cell divided, exactly, by its denominator, so the rescale reads
    no cell again.  Each power's ratio is read once too.  An exact
    Fraction cell or power is read by one `as_integer_ratio()` call, an
    int is its own numerator, and any other by its `numerator` and
    `denominator`, so one without them (a float, a Decimal) raises; the
    same pass notes whether u, its rows and the cells it reads are all
    exact tuples, Fractions and ints (`_integer_units` keeps only those).
    Positive scaling changes no state and no deviation, so deciding on the
    units is exact.
    """
    powers = env.powers
    keep = type(u) is tuple and type(powers) is tuple and set(map(type, powers)) <= {Fraction, int}
    ratios = [
        x.as_integer_ratio() if type(x) is Fraction else (x.numerator, x.denominator)
        for x in powers
    ]
    scale = 1
    for _, den in ratios:
        if scale % den:
            scale = lcm(scale, den)
    rows = []
    fractional = []
    for row, support in zip(u, env.row_support):
        if type(row) is not tuple:
            keep = False
        cells = {}
        for j in support:
            x = row[j]
            if type(x) is Fraction:
                num, den = x.as_integer_ratio()
            elif type(x) is int:
                num, den = x, 1
            else:
                num, den = x.numerator, x.denominator
                keep = False
            cells[j] = num
            if den != 1:
                fractional.append((cells, j, den))
                if scale % den:
                    scale = lcm(scale, den)
        rows.append(cells)
    if scale == 1:
        return (1, tuple(num for num, _ in ratios), rows), keep
    for cells in rows:
        for j, x in cells.items():
            if x:
                cells[j] = x * scale
    # Exact: den divides scale.
    for cells, j, den in fractional:
        cells[j] //= den
    return (scale, tuple(num * (scale // den) for num, den in ratios), rows), keep
