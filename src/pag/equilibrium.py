"""Nash-equilibrium verification via an exact best-deviation test.

A country survives when its total support sigma_i equals or exceeds its
total threat tau_i, so its state is the sign of one number, its survival
margin d_i = sigma_i - tau_i: safe above zero, precarious at zero, unsafe
below.  A deviation by country i replaces row i of the allocation matrix.
Only the states of i, its friends, and its adversaries can change, and
each changes monotonically in the single entry i spends on it.  With x_j
the new entry and u_ij the current one, each is decided by a gap, an
exact rational made of one margin and one of i's own entries:

* friend j survives  iff  x_j >= g_j = u_ij - d_j,
* adversary j is not safe  iff  x_j >= h_j = d_j + u_ij
  (strictly unsafe needs a strict inequality),
* i itself survives iff its friend-directed spending stays within its
  self room p_i + d_i - u_ii - sum of u_ij over its adversaries, which is
  p_i + the aid i receives - tau_i by the definition of sigma_i.

A deviation is profitable when it is a strict improvement over the binary
preference categories, or a state-level improvement on the adversary front
(pushing an adversary from safe or precarious strictly down) without
worsening any relevant state.  The second clause refines the category
rule; without it, outcomes the analysis layer must rule out would survive
verification.

An unsafe i that can survive on its all-reserve row deviates profitably
at once.  Otherwise a profitable deviation keeps every current category
and gains one more (adding gains only adds constraints, so one gain
decides existence).  Keeping every surviving friend surviving and every
non-safe adversary non-safe costs the sum of their gaps, negative ones
counting as zero: i's base requirement.  So one pass over i's relations
sums the base requirement, and each improving target then costs one
comparison: an unsafe friend or a safe adversary is gained iff the base
plus its gap fits the budget, and a precarious adversary is pushed iff
the base leaves positive slack; while i survives, the friend gaps (a
gained friend's included) must fit the self room too.  Deciding country
i reads its own row and the margins, each cell once: O(deg i), and no
other row.

Deciding and witnessing are split.  The decision, `_decide`, takes no
states: it reads each as the sign of a margin (unsafe below zero, safe
above, precarious at zero) and only adds and compares, so it is exact on
int entries as well as on Fractions; it names the first profitable target
(the pass and the country it gains).
`is_nash` and `best_deviation` run it in integer units:
`model._integer_units` scales the powers and the cells the decision reads
by their common denominator L, which changes no comparison because the
game is positively homogeneous.  Asked again for the same environment
and allocation, it returns the view it built last, so checking a matrix
that `validate_allocation` or `state_vector` has just read scales nothing;
`is_nash` and `best_deviation` only read that shared view.  Both compute
the margins once, from `model.sigma_tau`, and the states once from them,
for the result and the witness.  The witness, `_deviation`, is built only
when a `Deviation` is requested: row i at the target's gaps, in the same
units, except that a strict push of k targets works in units m = 4 (k + 1)
times finer, so that each target's share of the slack is an int too; each
entry leaves as that entry over L (over L m for a push).  It re-evaluates
the witness states over the deviator's relevant set alone, from the
current margins and the exact change of i's entries.
Each witness keeps its at most deg i + 1 entries and states in two small
dicts, which an `Overlay` lays over an n-tuple of zeros and over the
check's own states, both made once per check and shared by every
witness; each distinct entry becomes a Fraction once per check, through
a memo keyed by units of 1/L, or once per witness for a push's finer
units.  So `is_nash` costs O(n + E), plus O(deg i) per deviator, with no
n-tuple copied per deviator, and its result holds O(n + E) memory.
The result carries the states of the checked allocation too, so no
caller needs to recompute them.  The grid oracle runs `_decide` itself,
on integer grid units.

All functions are pure; per-country checks are independent and results are
aggregated by ascending country index.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from operator import sub
from typing import Any

from .model import (
    ZERO,
    Environment,
    Matrix,
    State,
    _check_indices,
    _integer_units,
    sigma_tau,
    state_of,
)

FractionVec = tuple[Fraction, ...]


class Overlay(Sequence):
    """n values, read-only: the n-tuple `base` with `cells`, a {position:
    value} dict, laid over it.

    It reads as the tuple of its values: their length, indexing (a slice
    is a tuple), iteration and repr, and it equals and hashes as that
    tuple.  Making one copies nothing, so the views of one check share
    its base, and each holds only the cells it sets.
    """

    __slots__ = ("_base", "_cells")

    def __init__(self, base: tuple, cells: dict[int, Any]):
        self._base = base
        self._cells = cells

    def __len__(self) -> int:
        return len(self._base)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(self)[index]
        value = self._base[index]
        return self._cells.get(index % len(self._base), value)

    def __iter__(self):
        values = list(self._base)
        for j, x in self._cells.items():
            values[j] = x
        return iter(values)

    def __eq__(self, other) -> bool:
        if isinstance(other, (tuple, Overlay)):
            return tuple(self) == tuple(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return repr(tuple(self))


@dataclass(frozen=True)
class Deviation:
    """A profitable replacement row for one country, with the states it induces.

    `row` and `states` are n-long sequences.  The verifier gives each as an
    `Overlay` that stores only what the deviation sets: the witness entries
    on the deviator's row support over zeros, and the states of its
    relevant set over the checked allocation's states, O(deg i) cells in
    all.  Plain tuples are accepted too.
    """

    country: int
    row: Sequence[Fraction]
    states: Sequence[State]


@dataclass(frozen=True)
class NashResult:
    """Verdict on one allocation: `ok` when no country deviates, the
    `deviations` found, and the `states` the allocation induces."""

    ok: bool
    deviations: tuple[Deviation, ...]
    states: tuple[State, ...]


#: What a profitable deviation of i gains: (the unsafe friend it rescues,
#: the adversary it flips or pushes, whether the push is strict).
#: `SELF_RESCUE` gains nothing else: i itself stops being unsafe.
Target = tuple[int | None, int | None, bool]
SELF_RESCUE: Target = (None, None, False)


def _decide(
    env: Environment,
    powers: FractionVec,
    own: FractionVec,
    i: int,
    margins: FractionVec,
) -> Target | None:
    """i's first profitable target; None if i has no profitable deviation.

    Reads each cell of i's own row `own` once, and the survival margins
    d = sigma - tau, whose signs are the states: a country is unsafe iff
    d < 0, safe iff d > 0 and precarious iff d == 0.  One pass over i's
    relations sums its base requirement and its offense: friends, then
    the non-safe adversaries, which fixes the room the budget leaves,
    then the safe adversaries, of which it notes the first whose gap fits
    that room.  i's self room is p_i + d_i - u_ii minus its offense,
    which is p_i plus the aid i receives minus its threat by the
    definition of sigma_i; less the friend part of the base, it caps
    friend-directed spending.  Targets are then tried in the order
    self-rescue; pass 1, an unsafe friend, then a safe adversary, each in
    relation order; pass 2, a precarious adversary pushed strictly down.
    A push's gap is i's own entry on it, so it needs positive room and
    then any precarious adversary can be pushed: the first is the target.
    Only adds and compares, from the int 0, and tests signs, so it is
    exact on int and on Fraction inputs alike; `powers`, `own` and
    `margins` must be in the same units, and the entries of `own`
    nonnegative.
    """
    friends = env.friends_of[i]
    base_f = 0
    for j in friends:
        d = margins[j]
        if d >= 0:
            gap = own[j] - d
            if gap > 0:
                base_f += gap
    # A non-safe adversary with a negative gap is kept down, strictly, at zero.
    adversaries = env.adversaries_of[i]
    base = base_f
    offense = 0
    for j in adversaries:
        d = margins[j]
        if d <= 0:
            x = own[j]
            offense += x
            gap = d + x
            if gap > 0:
                base += gap
    p = powers[i]
    room = p - base
    # The first safe adversary i can flip, if any, is pass 1's last target.
    flip = None
    for j in adversaries:
        d = margins[j]
        if d > 0:
            x = own[j]
            offense += x
            if flip is None and d + x <= room:
                flip = j
    d = margins[i]
    self_room = p + d - own[i] - offense
    if d < 0:
        # Support is maximal with zero friend-directed spending, so i
        # survives on some row iff it survives on its all-reserve row.
        if self_room >= 0:
            return SELF_RESCUE
        room_f = room
    else:
        # Friend-directed spending must leave i surviving.
        room_f = self_room - base_f
        if room_f < 0:
            return None
        if room < room_f:
            room_f = room
    # Pass 1: rescue an unsafe friend or flip a safe adversary.
    for j in friends:
        d = margins[j]
        if d < 0 and own[j] - d <= room_f:
            return j, None, False
    if flip is not None:
        return None, flip, False
    # Pass 2: push a precarious adversary strictly down.
    if room > 0:
        for j in adversaries:
            if margins[j] == 0:
                return None, j, True
    return None


#: A strict push of k targets builds its witness in units m = PUSH_FACTOR
#: (k + 1) times finer than the check's 1/L, and each pushed target gains
#: slack / m.
PUSH_FACTOR = 4


def _deviation(
    env: Environment,
    powers: FractionVec,
    own: FractionVec,
    scale: int,
    i: int,
    target: Target,
    margins: FractionVec,
    states: tuple[State, ...],
    zeros: FractionVec,
    fractions: dict[int, Fraction],
) -> Deviation:
    """The witness for i's target, with the states it induces.

    Every friend and adversary the target keeps or gains sits at its gap
    (a negative one at zero), so slack can never break the self-survival
    cap; a self-rescue is the all-reserve row.  A strict push gives the
    pushed adversary and every unsafe one with a nonnegative gap a share
    of the slack, slack / (4 (k + 1)) each for k of them, rather than an
    even split: any positive margin proves profitability, and oversized
    margins make the witness a worse best response (overkilled targets
    release their other attackers' maintenance burdens).  The rest goes to
    reserve, never onto null relations.

    `powers`, `own`, the margins and the gaps are in units of 1/`scale`, so
    the witness row leaves as each entry over `scale`.  A strict push
    works in units of 1/(`scale` m), m = 4 (k + 1), so that it stays in
    ints: the kept gaps are scaled by m, each pushed target gains the
    slack, the reserve keeps slack (m - k), the states are evaluated on
    margins scaled by m, and each entry leaves as itself over `scale` m, a
    zero one as `ZERO`.  Replacing row i moves only the support of i and
    of its friends and the threat against its adversaries, so only those
    states are re-evaluated, each from its current margin and the exact
    change of i's entries: a friend's or an adversary's by its one entry,
    i's own by its reserve and its offense.
    The Deviation holds those at most deg i + 1 entries and states as
    `Overlay` cells over `zeros`, an n-tuple of `ZERO`, and over `states`,
    both shared by every witness of one check, so a witness costs O(deg i)
    and copies no n-tuple.  `fractions` maps each entry in units of
    1/`scale` to its Fraction, once per check; a push converts its finer
    entries through a memo of its own.
    """
    gain_friend, gain_adv, strict = target
    friends = env.friends_of[i]
    adversaries = env.adversaries_of[i]
    row = {}
    pushed = []
    if target != SELF_RESCUE:
        for j in friends:
            if margins[j] >= 0 or j == gain_friend:
                row[j] = max(0, own[j] - margins[j])
        for j in adversaries:
            d = margins[j]
            if d <= 0 or j == gain_adv:
                gap = d + own[j]
                row[j] = max(0, gap)
                if strict and (j == gain_adv or (d < 0 and gap >= 0)):
                    pushed.append(j)
    slack = powers[i] - sum(row.values())
    m = 1
    if pushed:
        # Units m times finer, in which every share of the slack is an int.
        k = len(pushed)
        m = PUSH_FACTOR * (k + 1)
        for j in row:
            row[j] *= m
        for j in pushed:
            row[j] += slack
        slack *= m - k
        fractions = {0: ZERO}
    row[i] = slack
    unit = scale * m
    witness = {}
    for j, entry in row.items():
        x = fractions.get(entry)
        if x is None:
            x = fractions[entry] = Fraction(entry, unit)
        witness[j] = x
    new_states = {}
    for j in friends:
        new_states[j] = state_of((margins[j] - own[j]) * m + row.get(j, 0), 0)
    # i's margin moves by the change of its reserve and of its offense.
    shift = slack - own[i] * m
    for j in adversaries:
        entry = row.get(j, 0)
        x = own[j] * m
        new_states[j] = state_of(margins[j] * m + x - entry, 0)
        shift += entry - x
    new_states[i] = state_of(margins[i] * m + shift, 0)
    return Deviation(
        country=i, row=Overlay(zeros, witness), states=Overlay(states, new_states)
    )


def _check(
    env: Environment, u: Matrix, countries: Sequence[int]
) -> tuple[list[Deviation], tuple[State, ...]]:
    """The witness of each of `countries` that deviates profitably, in the
    order given, and the states u induces; margins, states, zeros and the
    Fraction memo are made once, in integer units, for every witness."""
    scale, powers, units = _integer_units(env, u)
    sigmas, taus = sigma_tau(env, units)
    margins = tuple(map(sub, sigmas, taus))
    states = tuple(map(state_of, sigmas, taus))
    zeros = (ZERO,) * env.n
    fractions = {0: ZERO}
    deviations: list[Deviation] = []
    for i in countries:
        own = units[i]
        target = _decide(env, powers, own, i, margins)
        if target is not None:
            deviations.append(
                _deviation(
                    env, powers, own, scale, i, target, margins, states, zeros, fractions
                )
            )
    return deviations, states


def best_deviation(env: Environment, u: Matrix, i: int) -> Deviation | None:
    """Search i's deviation set for a profitable row; None if there is none.

    The decision is `_decide`, in integer units; the witness row and
    the states it induces are built only once a target is found.
    ValidationError unless i is an int in 0..n-1.
    """
    _check_indices(env.n, [(i,)])
    deviations, _ = _check(env, u, (i,))
    return deviations[0] if deviations else None


def is_nash(env: Environment, u: Matrix) -> NashResult:
    """Check that no country has a profitable unilateral deviation.

    The certificate lists one profitable witness per deviating country, in
    country order, and the states u induces; `ok` is the verdict, and the
    first deviation names the lowest-index deviator.  A check costs
    O(n + E), plus O(deg i) per deviator, and copies no n-tuple.  The
    entries of u must be nonnegative, as those of every admissible matrix
    are (`model.validate_allocation`).
    """
    deviations, states = _check(env, u, range(env.n))
    return NashResult(ok=not deviations, deviations=tuple(deviations), states=states)
