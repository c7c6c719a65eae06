"""Nash-equilibrium verification via an exact best-deviation test.

A deviation by country i replaces row i of the allocation matrix.  Only the
states of i, its friends, and its adversaries can change, and each changes
monotonically in the single entry u_ij, so profitability reduces to a small
closed-form feasibility problem per target outcome:

* friend j keeps/starts surviving  iff  u_ij >= g_j,
* adversary j is kept/made not safe iff  u_ij >= h_j  (strictly unsafe
  needs a strict inequality),
* i itself survives iff its friend-directed spending stays within
  p_i + external support - external threat,

where the gaps g_j and h_j are exact rationals derived from the current
matrix.  A deviation is reported when it is a strict improvement over the
binary preference categories, or when it is a state-level improvement on
the adversary front (pushing an adversary from safe or precarious strictly
down) without worsening any relevant state.  The second clause refines the
category rule; without it, outcomes the analysis layer must rule out would
survive verification.

Deciding and witnessing are split.  The decision core, `_target_bounds`
and its per-target check `_attempt`, only compares sums and gaps (`>`,
`==`), so it is exact on int entries as well as on Fractions; it returns
the bounds of the first feasible target.  `is_nash` and `best_deviation`
run it in integer units: `model._integer_units` scales the powers and the
cells the core reads by their common denominator L, which changes no
comparison because the game is positively homogeneous.  When L would
reach `model.MAX_SCALE`, the same core runs on the Fractions instead.
Witness construction, `_deviation`, runs only when a `Deviation` is
requested.  It works in the same units, where only the strict bounds'
share of the slack is a Fraction, and each witness entry leaves as that
entry over L.  It re-evaluates the witness states over the deviator's
relevant set alone, from the current support and threat and the exact
change of each entry, so `is_nash` costs O(n + E) plus, per deviator, its
n-entry witness row and one copy of the n-state tuple.  The result
carries the states of the checked allocation too, so no caller needs to
recompute them.  `first_deviator` runs the core alone on powers, support,
threat and states the caller already holds, scanning from a caller-chosen
country; the grid oracle calls it on integer grid units.

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


Bounds = tuple[list[tuple[int, Fraction]], list[tuple[int, Fraction, bool]]]

# States compared by identity in the decision core: a module constant is
# cheaper to load than an enum member looked up on its class.
SAFE, PRECARIOUS, UNSAFE = State.SAFE, State.PRECARIOUS, State.UNSAFE


def _attempt(
    p: Fraction,
    own: FractionVec,
    friends: tuple[int, ...],
    adversaries: tuple[int, ...],
    sigmas: FractionVec,
    taus: FractionVec,
    states: tuple[State, ...],
    friend_cap: Fraction | None,
    gain_friend: int | None,
    gain_adv: int | None,
    strict: bool,
) -> Bounds | None:
    """One target's bounds if some row within budget p meets them all.

    The target keeps every surviving friend surviving and every non-safe
    adversary non-safe, and adds `gain_friend` or `gain_adv`.  With
    `strict`, the gained adversary and every unsafe one must end strictly
    unsafe.  This is the only place the friend and adversary gaps are
    computed.
    """
    friend_bounds: list[tuple[int, Fraction]] = []
    friend_total = 0
    for j in friends:
        if states[j] is not UNSAFE or j == gain_friend:
            bound = max(0, taus[j] - (sigmas[j] - own[j]))
            friend_bounds.append((j, bound))
            friend_total += bound
    if friend_cap is not None and friend_total > friend_cap:
        return None
    adversary_bounds: list[tuple[int, Fraction, bool]] = []
    total = friend_total
    any_strict = False
    for j in adversaries:
        state = states[j]
        if j == gain_adv:
            j_strict = strict
        elif state is UNSAFE and strict:
            j_strict = True
        elif state is not SAFE:
            j_strict = False
        else:
            continue
        # A negative gap is met, strictly, by a zero entry.
        gap = sigmas[j] - (taus[j] - own[j])
        if gap < 0:
            adversary_bounds.append((j, 0, False))
        else:
            adversary_bounds.append((j, gap, j_strict))
            total += gap
            any_strict = any_strict or j_strict
    # Strict bounds need positive slack to share.
    if total > p or (any_strict and total == p):
        return None
    return friend_bounds, adversary_bounds


def _target_bounds(
    env: Environment,
    powers: FractionVec,
    u: Matrix,
    i: int,
    sigmas: FractionVec,
    taus: FractionVec,
    states: tuple[State, ...],
) -> Bounds | None:
    """Bounds of i's first feasible improving target; None if there is none.

    Target outcomes are enumerated over i's relevant set, pruned to those
    improving on the current outcome (non-improving targets can never be
    profitable), and decided in closed form by `_attempt`.  Single-target
    checks decide existence because adding targets only adds constraints.
    Every sum starts from the int 0, so the decision is exact on int and on
    Fraction inputs alike; `powers` and `u` must be in the same units.
    """
    p = powers[i]
    friends = env.friends_of(i)
    adversaries = env.adversaries_of(i)
    s_ext = 0
    for j in friends:
        s_ext += u[j][i]
    t_ext = taus[i]

    if states[i] is UNSAFE:
        # Priority of self-survival: any row reaching survival is profitable.
        # Support is maximal with zero friend-directed spending, so the
        # all-reserve row (no bounds at all) is the witness.
        if p + s_ext >= t_ext:
            return [], []
        friend_cap = None
    else:
        friend_cap = p + s_ext - t_ext
    own = u[i]

    # Pass 1: strict category improvements (flip a non-surviving friend, or
    # a safe adversary) while keeping every current category.
    for j in friends:
        if states[j] is UNSAFE:
            bounds = _attempt(
                p, own, friends, adversaries, sigmas, taus, states, friend_cap, j, None, False
            )
            if bounds is not None:
                return bounds
    for j in adversaries:
        if states[j] is SAFE:
            bounds = _attempt(
                p, own, friends, adversaries, sigmas, taus, states, friend_cap, None, j, False
            )
            if bounds is not None:
                return bounds

    # Pass 2: adversary-front state refinement.  Push a precarious adversary
    # strictly unsafe without letting any relevant state slip (unsafe
    # adversaries must stay strictly unsafe).  Safe adversaries need no
    # second look: their pass-1 constraint set is contained in this one.
    for j in adversaries:
        if states[j] is PRECARIOUS:
            bounds = _attempt(
                p, own, friends, adversaries, sigmas, taus, states, friend_cap, None, j, True
            )
            if bounds is not None:
                return bounds

    return None


def _row(budget: Fraction, i: int, bounds: Bounds) -> dict[int, Fraction]:
    """The witness row for feasible bounds, as {column: entry} in the
    bounds' units; columns left out hold zero.

    Friends sit at their exact bounds, so slack can never break the
    self-survival cap.  Strict bounds get a small share of the slack rather
    than an even split: any positive margin proves profitability, and
    oversized margins make the witness a worse best response (overkilled
    targets release their other attackers' maintenance burdens).  The rest
    goes to reserve, never onto null relations.  Only the strict share is a
    Fraction on integer bounds.
    """
    friend_bounds, adversary_bounds = bounds
    strict_count = sum(1 for _, _, strict in adversary_bounds if strict)
    total = sum(b for _, b in friend_bounds) + sum(b for _, b, _ in adversary_bounds)
    bonus = Fraction(budget - total, 4 * (strict_count + 1)) if strict_count else 0
    row = dict(friend_bounds)
    for j, bound, strict in adversary_bounds:
        row[j] = bound + bonus if strict else bound
    row[i] = budget - total - strict_count * bonus
    return row


def _deviation(
    env: Environment,
    powers: FractionVec,
    u: Matrix,
    scale: int,
    i: int,
    bounds: Bounds,
    sigmas: FractionVec,
    taus: FractionVec,
    states: tuple[State, ...],
) -> Deviation:
    """The witness for feasible bounds, with the states it induces.

    `powers`, `u`, the bounds and the sums are in units of 1/`scale`, so
    the witness row leaves as each entry over `scale`.  Replacing row i
    moves only the support of i and of its friends and the threat against
    its adversaries, so only those states are re-evaluated: a friend's or
    an adversary's from its current sum and the exact change of its one
    entry, i's own from the new row and its incoming friend aid.
    """
    row = _row(powers[i], i, bounds)
    own = u[i]
    new_states = list(states)
    incoming = 0
    for j in env.friends_of(i):
        new_states[j] = state_of(sigmas[j] - own[j] + row.get(j, 0), taus[j])
        incoming += u[j][i]
    offense = 0
    for j in env.adversaries_of(i):
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

    The decision is `_target_bounds`, in integer units; the witness row and
    the states it induces are built only once a target is found.
    """
    scale, powers, units = _integer_units(env, u, env.powers)
    sigmas, taus = sigma_tau(env, units)
    states = tuple(map(state_of, sigmas, taus))
    bounds = _target_bounds(env, powers, units, i, sigmas, taus, states)
    if bounds is None:
        return None
    return _deviation(env, powers, units, scale, i, bounds, sigmas, taus, states)


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
    deviator, its n-entry row and one copy of the n-state tuple.
    """
    scale, powers, units = _integer_units(env, u, env.powers)
    sigmas, taus = sigma_tau(env, units)
    states = tuple(map(state_of, sigmas, taus))
    deviations: list[Deviation] = []
    for i in range(env.n):
        bounds = _target_bounds(env, powers, units, i, sigmas, taus, states)
        if bounds is not None:
            deviations.append(
                _deviation(env, powers, units, scale, i, bounds, sigmas, taus, states)
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
        if _target_bounds(env, powers, u, i, sigmas, taus, states) is not None:
            return i
    for i in range(start):
        if _target_bounds(env, powers, u, i, sigmas, taus, states) is not None:
            return i
    return None

