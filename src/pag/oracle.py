"""Desk-scale ground truth by exhaustive grid enumeration.

Every admissible matrix whose entries are multiples of a chosen step is
checked with the exact continuous Nash verifier, a whole subtree of them
at once where a partial matrix already fixes a deviation, so membership
in the resulting atlas is sound unconditionally; only coverage is
grid-limited.  Absence from the grid is evidence, not proof, for
continuous-strategy claims.

Candidates are decided on integer grid units: powers and entries are
divided by the step, and the verifier's decision core runs on the ints.
That is exact, because the game is positively homogeneous: scaling every
power and every entry by the same c > 0 keeps every state and every
profitable deviation.  Only the stored members become `Fraction`s: one
per distinct grid value, and one converted row per member row, shared by
every member that uses it.

Support and threat are linear in the matrix, and so is the survival
margin sigma - tau whose sign is a country's state.  Each candidate row's
share of the margins is computed once, from `sigma_tau` on a matrix
holding only that row, and placing a row adds its share to the margins of
the rows above it: one vector addition per row visited, exact on ints.
The verifier's decision core, `equilibrium._decide`, reads a country's
own row and the margins of the country and its relations, and a margin
reads the rows of its country and its relations.  So country k's verdict
is fixed once every row within distance 2 of k is placed: the
graphical-game view (Kearns, Littman & Singh, UAI 2001).

The search places rows country by country, depth first.  Its order puts
first the country whose rows complete the most of those neighbourhoods,
then the one with fewer rows, then the lower index, so in a dense
environment the country with the most rows comes last.  After each row,
every country whose neighbourhood it completes is decided; if one
deviates, no completion of that prefix is an equilibrium, and the subtree
is skipped (backtracking with forward checking, Haralick & Elliott 1980).
Whether some country deviates does not depend on the order of asking, so
the atlas does not depend on the search order.  A skipped subtree's
candidates count as checked: `candidates_checked` stays the product of
the row counts.  Every depth asks by one rule: a country that rejects a
row is asked first from the next row on, the others following in cyclic
order, because neighbouring rows differ only in one country's entries,
so it usually rejects again; each depth keeps its order across
backtracking.  A row is written into the partial matrix only once every
country has accepted it; until then the country being placed is asked on
the candidate row itself.  Members are classed by the ranks of their
states in `STATE_ORDER`, ints read from a dict from margin to rank
filled on first sight, so `state_of` runs only for a member margin not
seen before and a class key hashes in C; each class's `State` tuple is
made once, at the end.  Before any of this, the candidate count is
multiplied out row by row only until it passes the bound.  The atlas
orders classes and members canonically, whatever order the search finds
them in.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import add, sub
from typing import Iterator

from .equilibrium import _decide
from .model import (
    Environment,
    Matrix,
    Rational,
    State,
    STATE_ORDER,
    ValidationError,
    _echo,
    sigma_tau,
    state_of,
    to_fraction,
)

#: Default and largest bound on the number of grid matrices one
#: enumeration may visit.
MAX_CANDIDATES = 10_000_000


class EnumerationTooLarge(ValidationError):
    """The grid holds more candidate matrices than `bound`, an input fault.

    `count` is the product of the rows' candidate counts up to the row at
    which it first passed `bound`: the exact candidate count when that is
    the last row, a lower bound on it otherwise.  The message leaves it
    out, since a fine step can make it too long to print.
    """

    def __init__(self, count: int, bound: int):
        super().__init__([f"the grid's candidate matrices exceed the bound of {bound}"])
        self.count = count
        self.bound = bound


@dataclass(frozen=True)
class GridSpec:
    """Enumeration grid: positive step that must divide every power exactly,
    and an int candidate bound from 1 to `MAX_CANDIDATES`, checked before any work.

    The step is parsed as `model.to_fraction` parses any rational and
    stored as a `Fraction`: a float, a bool or a Decimal raises
    `ValidationError`."""

    step: Fraction
    max_candidates: int = MAX_CANDIDATES

    def __post_init__(self) -> None:
        object.__setattr__(self, "step", to_fraction(self.step))
        if self.step <= 0:
            raise ValidationError(["step must be positive"])
        if type(self.max_candidates) is not int:
            raise ValidationError([f"max_candidates must be an int: {_echo(self.max_candidates)}"])
        if not 1 <= self.max_candidates <= MAX_CANDIDATES:
            raise ValidationError([f"max_candidates must be between 1 and {MAX_CANDIDATES}"])


@dataclass(frozen=True)
class EquilibriumClass:
    states: tuple[State, ...]
    members: tuple[Matrix, ...]


@dataclass(frozen=True)
class EquilibriumAtlas:
    """Grid equilibria grouped by their state vector."""

    classes: tuple[EquilibriumClass, ...]
    candidates_checked: int

    @property
    def total(self) -> int:
        return sum(len(c.members) for c in self.classes)


def _row_units(env: Environment, step: Fraction) -> tuple[int, ...]:
    """Each country's power in grid units, after checking that `step`
    divides every power."""
    units = []
    for name, power in zip(env.names, env.powers):
        x = power / step
        if x.denominator != 1:
            raise ValidationError([f"step {step} does not divide the power of {name} ({power})"])
        units.append(x.numerator)
    return tuple(units)


def candidate_count(env: Environment, step: Rational) -> int:
    """Number of admissible grid matrices (product of row compositions);
    `step` is parsed and checked as `GridSpec` does."""
    return math.prod(_row_counts(env, _row_units(env, GridSpec(step=step).step)))


def _row_counts(env: Environment, units: tuple[int, ...]) -> Iterator[int]:
    """Each country's number of admissible grid rows."""
    for total, support in zip(units, env.row_support):
        parts = len(support)
        yield math.comb(total + parts - 1, parts - 1)


def _row_candidates(env: Environment, i: int, total: int) -> list[tuple[int, ...]]:
    """Admissible rows of country i, whose power is `total` grid units, in
    lexicographic order: one per choice of k - 1 cut points among
    total + k - 1 slots (stars and bars), k the size of the row's support;
    each cell holds the slots between two cuts."""
    supports = env.row_support[i]
    slots = total + len(supports) - 1
    out = []
    for cuts in itertools.combinations(range(slots), len(supports) - 1):
        row = [0] * env.n
        for j, (a, b) in zip(supports, itertools.pairwise((-1, *cuts, slots))):
            row[j] = b - a - 1
        out.append(tuple(row))
    return out


def _margin_share(env: Environment, i: int, row: tuple[int, ...]) -> tuple[int, ...]:
    """Candidate row i's share of the survival margins sigma - tau: the
    margins of the matrix that holds only that row."""
    blank = (0,) * env.n
    sigmas, taus = sigma_tau(env, tuple(row if k == i else blank for k in range(env.n)))
    return tuple(map(sub, sigmas, taus))


#: The states in `STATE_ORDER`: a state's rank there is its index here.
_BY_RANK = tuple(sorted(STATE_ORDER, key=STATE_ORDER.__getitem__))


class _RankByMargin(dict):
    """The `STATE_ORDER` rank of the state of each survival margin seen so
    far, filled on first sight: a hit is a dict lookup in C, and only a
    miss calls `state_of`."""

    def __missing__(self, margin: int) -> int:
        rank = self[margin] = STATE_ORDER[state_of(margin, 0)]
        return rank


def _search_order(env: Environment, counts: list[int]) -> tuple[list[int], list[list[int]]]:
    """The order in which the search places rows, and for each depth the
    countries whose neighbourhood, and so whose verdict, its row completes."""
    near = [set(env.row_support[i]) for i in range(env.n)]
    hood = [set().union(*(near[j] for j in near[k])) for k in range(env.n)]
    missing = [len(h) for h in hood]
    left = set(range(env.n))
    order, checks = [], []
    while left:
        c = min(left, key=lambda j: (-sum(missing[k] == 1 for k in hood[j]), counts[j], j))
        left.remove(c)
        order.append(c)
        for k in hood[c]:
            missing[k] -= 1
        checks.append(sorted(k for k in hood[c] if missing[k] == 0))
    return order, checks


def _search(env: Environment, powers, order, levels, checks) -> dict:
    """The grid's equilibria as int rows, keyed by their states' ranks.

    A depth-first search with an explicit stack; `levels[d]` holds the
    (row, margin share) pairs of country `order[d]`.
    """
    n = env.n
    last = n - 1
    # For each depth, the order of asking that starts from each of its
    # countries, the others following in cyclic order; and the one in use.
    turns = [{k: (k, *ks[j + 1 :], *ks[:j]) for j, k in enumerate(ks)} for ks in checks]
    asks = list(checks)
    rank_at = _RankByMargin().__getitem__
    classes: dict[tuple[int, ...], list[tuple[tuple[int, ...], ...]]] = {}
    placed = [None] * n
    # The margins of the rows placed above each depth, and each depth's rows left.
    head = [(0,) * n] * n
    rest = [iter(level) for level in levels]
    d = 0
    while d >= 0:
        c = order[d]
        base = head[d]
        ask = asks[d]
        turn = turns[d]
        for row, share in rest[d]:
            margins = tuple(map(add, base, share))
            for k in ask:
                if _decide(env, powers, row if k == c else placed[k], k, margins) is not None:
                    ask = asks[d] = turn[k]
                    break
            else:
                placed[c] = row
                if d == last:
                    classes.setdefault(tuple(map(rank_at, margins)), []).append(tuple(placed))
                    continue
                d += 1
                head[d] = margins
                rest[d] = iter(levels[d])
                break
        else:
            d -= 1
    return classes


def find_equilibria(env: Environment, grid: GridSpec) -> EquilibriumAtlas:
    """Search all grid-admissible matrices and keep the exact equilibria."""
    powers = _row_units(env, grid.step)
    count = 1
    counts = []
    for rows in _row_counts(env, powers):
        count *= rows
        if count > grid.max_candidates:
            raise EnumerationTooLarge(count, grid.max_candidates)
        counts.append(rows)

    order, checks = _search_order(env, counts)
    levels = [
        [(row, _margin_share(env, i, row)) for row in _row_candidates(env, i, powers[i])]
        for i in order
    ]
    classes = _search(env, powers, order, levels, checks)

    # One Fraction per grid value and one Fraction row per member row.
    used = {row for members in classes.values() for m in members for row in m}
    exact = {x: x * grid.step for x in set().union(*used)}
    convert = {row: tuple(map(exact.__getitem__, row)) for row in used}.__getitem__
    # Rank vectors sort as the canonical class order; keys are distinct.
    ordered = tuple(
        EquilibriumClass(
            states=tuple(map(_BY_RANK.__getitem__, ranks)),
            members=tuple(tuple(map(convert, m)) for m in sorted(members)),
        )
        for ranks, members in sorted(classes.items())
    )
    return EquilibriumAtlas(classes=ordered, candidates_checked=count)
