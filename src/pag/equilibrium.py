"""Nash-equilibrium verification via an exact best-deviation test.

A deviation by country i replaces row i of the allocation matrix.  Only the
states of i, its friends, and its adversaries can change, and each changes
monotonically in the single entry i spends on it.  With x_j the new entry
and u_ij the current one, each is decided by a gap, an exact rational
derived from the current matrix:

* friend j survives  iff  x_j >= g_j = tau_j - sigma_j + u_ij,
* adversary j is not safe  iff  x_j >= h_j = sigma_j - tau_j + u_ij
  (strictly unsafe needs a strict inequality),
* i itself survives iff its friend-directed spending stays within the cap
  p_i + external support - external threat.

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
gained friend's included) must fit the cap too.  Deciding country i
costs O(deg i).

Deciding and witnessing are split.  The decision, `_decide`, only adds and
compares, so it is exact on int entries as well as on Fractions; it names
the first profitable target (the pass and the country it gains).
`is_nash` and `best_deviation` run it in integer units:
`model._integer_units` scales the powers and the cells the decision reads
by their common denominator L, which changes no comparison because the
game is positively homogeneous.  When L would reach `model.MAX_SCALE`, the
same decision runs on the Fractions instead.  The witness, `_deviation`,
is built only when a `Deviation` is requested: row i at the target's gaps,
in the same units, where only the strict push's share of the slack is a
Fraction, and each entry leaves as that entry over L.  It re-evaluates
the witness states over the deviator's relevant set alone, from the
current support and threat and the exact change of each entry, so
`is_nash` costs O(n + E) plus, per deviator, its n-entry witness row and
one copy of the n-state tuple.  The result carries the states of the
checked allocation too, so no caller needs to recompute them.
`first_deviator` runs the decision alone on powers, support, threat and
states the caller already holds, scanning from a caller-chosen country;
the grid oracle calls it on integer grid units.

All functions are pure; per-country checks are independent and results are
aggregated by ascending country index.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .model import (
    ZERO,
    Environment,
    Matrix,
    State,
    _integer_units,
    sigma_tau,
    state_of,
)

FractionVec = tuple[Fraction, ...]


@dataclass(frozen=True)
class Deviation:
    """A profitable replacement row for one country, with the states it induces."""

    country: int
    row: FractionVec
    states: tuple[State, ...]


@dataclass(frozen=True)
class NashResult:
    """Verdict on one allocation: `ok` when no country deviates, the
    `deviations` found, and the `states` the allocation induces."""

    ok: bool
    deviations: tuple[Deviation, ...]
    states: tuple[State, ...]

    def __bool__(self) -> bool:
        return self.ok

    def witness_for(self, i: int) -> Deviation | None:
        for dev in self.deviations:
            if dev.country == i:
                return dev
        return None


#: What a profitable deviation of i gains: (the unsafe friend it rescues,
#: the adversary it flips or pushes, whether the push is strict).
#: `SELF_RESCUE` gains nothing else: i itself stops being unsafe.
Target = tuple[int | None, int | None, bool]
SELF_RESCUE: Target = (None, None, False)

# States compared by identity in the decision: a module constant is cheaper
# to load than an enum member looked up on its class.
SAFE, PRECARIOUS, UNSAFE = State.SAFE, State.PRECARIOUS, State.UNSAFE


def _decide(
    env: Environment,
    powers: FractionVec,
    u: Matrix,
    i: int,
    sigmas: FractionVec,
    taus: FractionVec,
    states: tuple[State, ...],
) -> Target | None:
    """i's first profitable target; None if i has no profitable deviation.

    Sums i's base requirement in one pass over its relations, then compares
    each target's own gap with the room the budget and the cap leave, in
    the order self-rescue; pass 1, an unsafe friend, then a safe adversary,
    each in relation order; pass 2, a precarious adversary pushed strictly
    down.  A push's gap is i's own entry on it, so it needs positive room
    and then any precarious adversary can be pushed: the first is the
    target.  Only adds and compares, from the int 0, so it is exact on int
    and on Fraction inputs alike; `powers` and `u` must be in the same
    units, and u's entries nonnegative.
    """
    own = u[i]
    friends = env.friends_of(i)
    adversaries = env.adversaries_of(i)
    s_ext = 0
    base_f = 0
    for j in friends:
        s_ext += u[j][i]
        if states[j] is not UNSAFE:
            gap = taus[j] - sigmas[j] + own[j]
            if gap > 0:
                base_f += gap
    p = powers[i]
    if states[i] is UNSAFE:
        # Support is maximal with zero friend-directed spending, so i
        # survives on some row iff it survives on its all-reserve row.
        if p + s_ext >= taus[i]:
            return SELF_RESCUE
        cap = None
    else:
        # Friend-directed spending must leave i surviving.
        cap = p + s_ext - taus[i] - base_f
        if cap < 0:
            return None
    # A non-safe adversary with a negative gap is kept down, strictly, at zero.
    base = base_f
    for j in adversaries:
        if states[j] is not SAFE:
            gap = sigmas[j] - taus[j] + own[j]
            if gap > 0:
                base += gap
    room = p - base
    room_f = room if cap is None else min(room, cap)
    # Pass 1: rescue an unsafe friend or flip a safe adversary.
    for j in friends:
        if states[j] is UNSAFE and taus[j] - sigmas[j] + own[j] <= room_f:
            return j, None, False
    for j in adversaries:
        if states[j] is SAFE and sigmas[j] - taus[j] + own[j] <= room:
            return None, j, False
    # Pass 2: push a precarious adversary strictly down.
    if room > 0:
        for j in adversaries:
            if states[j] is PRECARIOUS:
                return None, j, True
    return None


def _deviation(
    env: Environment,
    powers: FractionVec,
    u: Matrix,
    scale: int,
    i: int,
    target: Target,
    sigmas: FractionVec,
    taus: FractionVec,
    states: tuple[State, ...],
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

    `powers`, `u` and the gaps are in units of 1/`scale`, so the witness
    row leaves as each entry over `scale`.  Replacing row i moves only the
    support of i and of its friends and the threat against its
    adversaries, so only those states are re-evaluated: a friend's or an
    adversary's from its current sum and the exact change of its one
    entry, i's own from the new row and its incoming friend aid.
    """
    gain_friend, gain_adv, strict = target
    own = u[i]
    friends = env.friends_of(i)
    adversaries = env.adversaries_of(i)
    row = {}
    pushed = []
    if target != SELF_RESCUE:
        for j in friends:
            if states[j] is not UNSAFE or j == gain_friend:
                row[j] = max(0, taus[j] - sigmas[j] + own[j])
        for j in adversaries:
            if states[j] is not SAFE or j == gain_adv:
                gap = sigmas[j] - taus[j] + own[j]
                row[j] = max(0, gap)
                if strict and (j == gain_adv or (states[j] is UNSAFE and gap >= 0)):
                    pushed.append(j)
    slack = powers[i] - sum(row.values())
    if pushed:
        share = Fraction(slack, 4 * (len(pushed) + 1))
        for j in pushed:
            row[j] += share
        slack -= len(pushed) * share
    row[i] = slack
    new_states = list(states)
    incoming = 0
    for j in friends:
        new_states[j] = state_of(sigmas[j] - own[j] + row.get(j, 0), taus[j])
        incoming += u[j][i]
    offense = 0
    for j in adversaries:
        entry = row.get(j, 0)
        new_states[j] = state_of(sigmas[j], taus[j] - own[j] + entry)
        offense += entry
    new_states[i] = state_of(row[i] + incoming + offense, taus[i])
    witness = [ZERO] * env.n
    for j, entry in row.items():
        witness[j] = Fraction(entry, scale)
    return Deviation(country=i, row=tuple(witness), states=tuple(new_states))


def best_deviation(env: Environment, u: Matrix, i: int) -> Deviation | None:
    """Search i's deviation set for a profitable row; None if there is none.

    The decision is `_decide`, in integer units; the witness row and
    the states it induces are built only once a target is found.
    """
    scale, powers, units = _integer_units(env, u, env.powers)
    sigmas, taus = sigma_tau(env, units)
    states = tuple(map(state_of, sigmas, taus))
    target = _decide(env, powers, units, i, sigmas, taus, states)
    if target is None:
        return None
    return _deviation(env, powers, units, scale, i, target, sigmas, taus, states)


def is_nash(
    env: Environment,
    u: Matrix,
    *,
    stop_at_first: bool = False,
) -> NashResult:
    """Check that no country has a profitable unilateral deviation.

    The certificate lists a profitable witness per deviating country (all
    of them, unless `stop_at_first` asks for the cheapest rejection) and
    the states u induces.  Support, threat and states are computed once,
    in integer units of the common denominator; each witness re-evaluates
    only its deviator's relevant set, so a check costs O(n + E) plus, per
    deviator, its n-entry row and one copy of the n-state tuple.  The
    entries of u must be nonnegative, as those of every admissible matrix
    are (`model.validate_allocation`).
    """
    scale, powers, units = _integer_units(env, u, env.powers)
    sigmas, taus = sigma_tau(env, units)
    states = tuple(map(state_of, sigmas, taus))
    deviations: list[Deviation] = []
    for i in range(env.n):
        target = _decide(env, powers, units, i, sigmas, taus, states)
        if target is not None:
            deviations.append(
                _deviation(env, powers, units, scale, i, target, sigmas, taus, states)
            )
            if stop_at_first:
                break
    return NashResult(ok=not deviations, deviations=tuple(deviations), states=states)


def first_deviator(
    env: Environment,
    powers: FractionVec,
    u: Matrix,
    sigmas: FractionVec,
    taus: FractionVec,
    states: tuple[State, ...],
    start: int,
) -> int | None:
    """The first country with a profitable deviation, scanning cyclically
    from `start`; None when u is a Nash equilibrium.

    `sigmas`, `taus` and `states` must be those of u.  Whether some country
    deviates does not depend on the scan order, so a caller may start from
    the country most likely to reject.  Exact on int entries as well as on
    Fractions, so a caller may pass powers and a matrix scaled to integer
    units.
    """
    for i in range(start, len(states)):
        if _decide(env, powers, u, i, sigmas, taus, states) is not None:
            return i
    for i in range(start):
        if _decide(env, powers, u, i, sigmas, taus, states) is not None:
            return i
    return None

