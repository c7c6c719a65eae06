"""Desk-scale ground truth by exhaustive grid enumeration.

Every admissible matrix whose entries are multiples of a chosen step is
generated and checked with the exact continuous Nash verifier, so
membership in the resulting atlas is sound unconditionally; only coverage
is grid-limited.  Absence from the grid is evidence, not proof, for
continuous-strategy claims.

Candidates are decided on integer grid units: powers and entries are
divided by the step, and the verifier's decision core runs on the ints.
That is exact, because the game is positively homogeneous: scaling every
power and every entry by the same c > 0 keeps every state and every
profitable deviation.  Only the stored members become `Fraction`s, through
one converted row per candidate row that all members share.

Support and threat are linear in the matrix, and so is the survival
margin sigma - tau whose sign is a country's state.  Each candidate row's
share of the margins is computed once, from `sigma_tau` on a matrix
holding only that row.  A candidate's margins are its rows' shares added
up: the first n - 1 rows' once per prefix of the `product` odometer, the
last row's per candidate, so a candidate costs one vector addition.  On
ints this addition is exact, so the margins equal those of the whole
candidate.  The verifier's decision core, `equilibrium._decide`, reads a
country's own row and the margins only, a state being the sign of a
margin.  So each candidate is first decided for the country that
rejected the previous one, on that country's own row, with no matrix and
no states built: neighbouring candidates differ mostly in the last row,
so that country usually rejects again.  Only when it accepts is the
candidate's matrix assembled and every other country decided, in cyclic
order after it; whether some country deviates does not depend on the
order.  Members are classed by the ranks of their states in
`STATE_ORDER`, ints read from a dict from margin to rank filled on first
sight, so `state_of` runs only for a member margin not seen before and a
class key hashes in C; each class's `State` tuple is made once, at the
end.  Before any of this, the candidate count is multiplied out row by
row only until it passes the bound.

Enumeration is naturally partitioned by the first row's composition and
could run concurrently; the atlas orders classes and members canonically
so any merge is deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import product
from operator import add, sub
from typing import Iterator

from .equilibrium import _decide
from .model import (
    Environment,
    Matrix,
    State,
    STATE_ORDER,
    sigma_tau,
    state_of,
)

#: Default and largest bound on the number of grid matrices one
#: enumeration may visit.
MAX_CANDIDATES = 10_000_000


class EnumerationTooLarge(ValueError):
    """The grid holds more candidate matrices than `bound`.

    `count` is the product of the rows' candidate counts up to the row at
    which it first passed `bound`: the exact candidate count when that is
    the last row, a lower bound on it otherwise.  The message leaves it
    out, since a fine step can make it too long to print.
    """

    def __init__(self, count: int, bound: int):
        super().__init__(f"the grid's candidate matrices exceed the bound of {bound}")
        self.count = count
        self.bound = bound


class EmptyAtlas(ValueError):
    """The atlas holds no equilibria, so survival cannot be classified."""


@dataclass(frozen=True)
class GridSpec:
    """Enumeration grid: positive step that must divide every power exactly,
    and a candidate bound from 1 to `MAX_CANDIDATES`, checked before any work."""

    step: Fraction
    max_candidates: int = MAX_CANDIDATES

    def __post_init__(self) -> None:
        if self.step <= 0:
            raise ValueError("step must be positive")
        if not 1 <= self.max_candidates <= MAX_CANDIDATES:
            raise ValueError(f"max_candidates must be between 1 and {MAX_CANDIDATES}")


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


class SurvivalPossibility(Enum):
    ALWAYS_ON_GRID = "always-on-grid"
    SOMETIMES_ON_GRID = "sometimes-on-grid"
    NEVER_ON_GRID = "never-on-grid"


def _row_units(env: Environment, i: int, step: Fraction) -> int:
    units = env.powers[i] / step
    if units.denominator != 1:
        raise ValueError(
            f"step {step} does not divide the power of {env.names[i]} ({env.powers[i]})"
        )
    return int(units)


def candidate_count(env: Environment, step: Fraction) -> int:
    """Number of admissible grid matrices (product of row compositions)."""
    return math.prod(_row_counts(env, step))


def _row_counts(env: Environment, step: Fraction) -> Iterator[int]:
    """Each country's number of admissible grid rows, after checking that
    `step` divides every power."""
    units = [_row_units(env, i, step) for i in range(env.n)]
    for i, total in enumerate(units):
        parts = len(env.row_support(i))
        yield math.comb(total + parts - 1, parts - 1)


def _compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first, *rest)


def _row_candidates(env: Environment, i: int, step: Fraction) -> list[tuple[int, ...]]:
    """Admissible rows of country i in grid units of `step`."""
    supports = env.row_support(i)
    out = []
    for combo in _compositions(_row_units(env, i, step), len(supports)):
        row = [0] * env.n
        for j, c in zip(supports, combo):
            row[j] = c
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


def find_equilibria(env: Environment, grid: GridSpec) -> EquilibriumAtlas:
    """Enumerate all grid-admissible matrices and keep the exact equilibria."""
    count = 1
    for rows in _row_counts(env, grid.step):
        count *= rows
        if count > grid.max_candidates:
            raise EnumerationTooLarge(count, grid.max_candidates)

    per_row = [_row_candidates(env, i, grid.step) for i in range(env.n)]
    powers = tuple(_row_units(env, i, grid.step) for i in range(env.n))
    shared = [
        [(row, _margin_share(env, i, row)) for row in rows] for i, rows in enumerate(per_row)
    ]
    blank = (0,) * env.n
    rank_at = _RankByMargin().__getitem__
    last = env.n - 1
    # The countries to scan once the rejector accepts, in cyclic order after it.
    others = [(*range(r + 1, env.n), *range(r)) for r in range(env.n)]
    classes: dict[tuple[int, ...], list[tuple[tuple[int, ...], ...]]] = {}
    rejector = 0
    for prefix in product(*shared[:-1]):
        head = tuple(row for row, _ in prefix)
        head_margins = blank
        for _, row_margins in prefix:
            head_margins = tuple(map(add, head_margins, row_margins))
        for row, row_margins in shared[-1]:
            margins = tuple(map(add, head_margins, row_margins))
            own = row if rejector == last else head[rejector]
            if _decide(env, powers, own, rejector, margins) is not None:
                continue
            u = (*head, row)
            for i in others[rejector]:
                if _decide(env, powers, u[i], i, margins) is not None:
                    rejector = i
                    break
            else:
                classes.setdefault(tuple(map(rank_at, margins)), []).append(u)

    # One Fraction row per candidate row, shared by every member using it.
    exact = {row: tuple(x * grid.step for x in row) for rows in per_row for row in rows}
    convert = exact.__getitem__
    # Rank vectors sort as the canonical class order; keys are distinct.
    ordered = tuple(
        EquilibriumClass(
            states=tuple(map(_BY_RANK.__getitem__, ranks)),
            members=tuple(tuple(map(convert, m)) for m in sorted(members)),
        )
        for ranks, members in sorted(classes.items())
    )
    return EquilibriumAtlas(classes=ordered, candidates_checked=count)


def survival_possibility(atlas: EquilibriumAtlas, i: int) -> SurvivalPossibility:
    """Classify i's survival across the atlas's equilibrium classes."""
    if not atlas.classes:
        raise EmptyAtlas("no equilibria in the atlas")
    bits = [cls.states[i].survives for cls in atlas.classes]
    if all(bits):
        return SurvivalPossibility.ALWAYS_ON_GRID
    if not any(bits):
        return SurvivalPossibility.NEVER_ON_GRID
    return SurvivalPossibility.SOMETIMES_ON_GRID
