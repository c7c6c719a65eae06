"""Exact references the tests check the engine against, each defined once.

Each decides its question from the definitions alone, and none calls
`oracle.py`: `is_nash` is imported for `brute_force_atlas` only, and
`exact_deviates` shares no code with `equilibrium.py`.  The category rule
of the two survival axioms (`improvement_from_states`) lives here too: the
package decides the larger relation R (`relation_r`) and states it only in
`equilibrium.py`'s module docstring.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from pag.equilibrium import is_nash
from pag.model import ZERO, Environment, Matrix, State, replace_row, state_vector

StateVec = tuple[State, ...]

SAFE, PRECARIOUS, UNSAFE = State.SAFE, State.PRECARIOUS, State.UNSAFE

#: Position down the order safe > precarious > unsafe.
DOWN = {SAFE: 0, PRECARIOUS: 1, UNSAFE: 2}


# The category rule.  A country cares about its own survival, its friends'
# survival and its adversaries' non-safety.  Two axioms order the outcomes,
# stated on the state vectors two allocations induce:
#
# * weak preference: every friend (and itself) that survived keeps surviving,
#   and every adversary that was not safe stays not safe;
# * strong preference: the country itself moves from unsafe to surviving,
#   which trumps everything else.
#
# Both group states into binary categories per front, so
# `improvement_from_states` depends only on those categories: safe and
# precarious are interchangeable for the self/friend front, unsafe and
# precarious for the adversary front.


def category_profile(env: Environment, i: int, states: StateVec) -> tuple[bool, ...]:
    """Binary category per relevant country, True meaning better for i.

    Self and friends: True when the country survives.  Adversaries: True
    when the adversary is not safe.
    """
    bits = [states[i].survives]
    for j in env.friends_of[i]:
        bits.append(states[j].survives)
    for j in env.adversaries_of[i]:
        bits.append(states[j] is not State.SAFE)
    return tuple(bits)


def weakly_prefers_states(env: Environment, i: int, s_u: StateVec, s_v: StateVec) -> bool:
    """Does country i weakly prefer outcome s_v over outcome s_u?"""
    for j in (i, *env.friends_of[i]):
        if not (s_v[j].survives or s_u[j] is State.UNSAFE):
            return False
    for j in env.adversaries_of[i]:
        if not (s_v[j] is not State.SAFE or s_u[j] is State.SAFE):
            return False
    return True


def strongly_prefers_states(env: Environment, i: int, s_u: StateVec, s_v: StateVec) -> bool:
    """Priority of self-survival: i survives in s_v but was unsafe in s_u."""
    return s_v[i].survives and s_u[i] is State.UNSAFE


def improvement_from_states(env: Environment, i: int, s_u: StateVec, s_v: StateVec) -> bool:
    """Is outcome s_v a strict improvement over outcome s_u for country i?

    Strict improvement means either the self-survival jump (strong
    preference), or weak preference with at least one binary category
    strictly better.  Category-equal outcomes, such as an adversary moving
    between unsafe and precarious, are no improvement here.
    """
    # Weak preference means the category profile of s_v dominates that of
    # s_u pointwise, so any difference is a strict gain somewhere.
    return strongly_prefers_states(env, i, s_u, s_v) or (
        weakly_prefers_states(env, i, s_u, s_v)
        and category_profile(env, i, s_v) != category_profile(env, i, s_u)
    )


def state_refined_improvement(env, i, s_u, s_v):
    """A relation strictly smaller than `relation_r`: the self-survival
    jump, or no state regression anywhere on the relevant set with at least
    one gain (friends count by survival category, adversaries by full
    state).  Every deviation it finds, the verifier must report."""
    if not s_u[i].survives and s_v[i].survives:
        return True
    for j in (i, *env.friends_of[i]):
        if s_u[j].survives and not s_v[j].survives:
            return False
    gains = 0
    for j in env.friends_of[i]:
        gains += s_v[j].survives and not s_u[j].survives
    for j in env.adversaries_of[i]:
        if DOWN[s_v[j]] < DOWN[s_u[j]]:
            return False
        gains += DOWN[s_v[j]] > DOWN[s_u[j]]
    return gains > 0


def relation_r(env, i, before, after):
    """R: the deviation relation the verifier decides, from the definitions.

    `before` and `after` map each country of i's relevant set to its state
    (a whole state vector will do).  R is the union of two clauses:

    * the category rule (`improvement_from_states`): i goes from
      unsafe to surviving, which trumps everything; or weak preference
      (every surviving friend and i itself keep surviving, every non-safe
      adversary stays non-safe) with one binary category strictly better
      (an unsafe friend survives, a safe adversary is not safe);
    * the push clause: weak preference, at least one adversary strictly
      lower in the order safe > precarious > unsafe, and none higher.
    """
    if before[i] is UNSAFE and after[i] is not UNSAFE:
        return True
    own = (i, *env.friends_of[i])
    adversaries = env.adversaries_of[i]
    if any(before[j] is not UNSAFE and after[j] is UNSAFE for j in own):
        return False
    if any(before[j] is not SAFE and after[j] is SAFE for j in adversaries):
        return False
    if any(before[j] is UNSAFE and after[j] is not UNSAFE for j in own):
        return True
    if any(before[j] is SAFE and after[j] is not SAFE for j in adversaries):
        return True
    moves = [DOWN[after[j]] - DOWN[before[j]] for j in adversaries]
    return any(m > 0 for m in moves) and all(m >= 0 for m in moves)


def compositions(total: int, parts: int):
    """All tuples of `parts` nonnegative ints summing to `total`."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in compositions(total - first, parts - 1):
            yield (first, *rest)


def grid_rows(env: Environment, i: int, step: Fraction):
    """Every admissible row for country i with entries on the step grid."""
    support = env.row_support[i]
    units = env.powers[i] / step
    assert units.denominator == 1
    for combo in compositions(int(units), len(support)):
        row = [ZERO] * env.n
        for j, count in zip(support, combo):
            row[j] = count * step
        yield tuple(row)


def grid_candidates(env: Environment, step: Fraction):
    """Every admissible matrix whose rows are on the step grid."""
    return itertools.product(*(list(grid_rows(env, i, step)) for i in range(env.n)))


def grid_profitable_deviation(
    env: Environment, u: Matrix, i: int, step: Fraction, relation=improvement_from_states
):
    """Brute-force route: scan i's grid deviations with `relation`.

    Independent of the closed-form best-deviation solver; used to check that
    the solver never misses a profitable deviation the grid can see.
    """
    s_u = state_vector(env, u)
    for row in grid_rows(env, i, step):
        if row == u[i]:
            continue
        s_v = state_vector(env, replace_row(u, i, row))
        if relation(env, i, s_u, s_v):
            return row
    return None


def brute_force_atlas(env: Environment, step: Fraction):
    """(candidates checked, classes) of the step grid from Fraction matrices
    and the public verifier: each class is (states, sorted members), in
    canonical order (states compared country by country by `DOWN`)."""
    count = 0
    classes: dict = {}
    for u in grid_candidates(env, step):
        count += 1
        if is_nash(env, u).ok:
            classes.setdefault(state_vector(env, u), []).append(u)
    canonical = sorted(classes, key=lambda states: [DOWN[s] for s in states])
    return count, [(states, tuple(sorted(classes[states]))) for states in canonical]


# An interval is (lo, lo_open, hi, hi_open); None for lo or hi is infinite.
_NONNEGATIVE = (ZERO, False, None, False)


def _side(relation, t):
    """The reals x with x `relation` t, for relation '<', '=' or '>'."""
    if relation == "<":
        return (None, False, t, True)
    if relation == ">":
        return (t, True, None, False)
    return (t, False, t, False)


def _meet(a, b):
    """Intersection of two intervals; None when it is empty."""
    (alo, alo_open, ahi, ahi_open), (blo, blo_open, bhi, bhi_open) = a, b
    if alo is None or (blo is not None and blo > alo):
        lo, lo_open = blo, blo_open
    elif blo is None or alo > blo:
        lo, lo_open = alo, alo_open
    else:
        lo, lo_open = alo, alo_open or blo_open
    if ahi is None or (bhi is not None and bhi < ahi):
        hi, hi_open = bhi, bhi_open
    elif bhi is None or ahi < bhi:
        hi, hi_open = ahi, ahi_open
    else:
        hi, hi_open = ahi, ahi_open or bhi_open
    if lo is not None and hi is not None and (lo > hi or (lo == hi and (lo_open or hi_open))):
        return None
    return lo, lo_open, hi, hi_open


def _sum(intervals):
    """Minkowski sum of nonempty intervals with finite lower ends."""
    lo, lo_open, hi, hi_open = ZERO, False, ZERO, False
    for a_lo, a_lo_open, a_hi, a_hi_open in intervals:
        lo += a_lo
        lo_open = lo_open or a_lo_open
        hi = None if hi is None or a_hi is None else hi + a_hi
        hi_open = hi_open or a_hi_open
    return lo, lo_open, hi, hi_open


# The relation of x_j (or of F) to its threshold that gives each state.
_FRIEND_SIDE = {SAFE: ">", PRECARIOUS: "=", UNSAFE: "<"}
_ADVERSARY_SIDE = {SAFE: "<", PRECARIOUS: "=", UNSAFE: ">"}
_SELF_SIDE = _ADVERSARY_SIDE


def _support_threat(env, u, j):
    support = u[j][j] + sum((u[k][j] for k in env.friends_of[j]), ZERO)
    support += sum((u[j][k] for k in env.adversaries_of[j]), ZERO)
    return support, sum((u[k][j] for k in env.adversaries_of[j]), ZERO)


def _state(margin):
    return SAFE if margin > 0 else PRECARIOUS if margin == 0 else UNSAFE


def exact_deviates(env, u, i, relation=relation_r):
    """Does i have a row reaching an outcome that `relation` prefers?

    Exact over the continuum of i's rows; u may be any nonnegative matrix,
    its rows need not sum to the powers.

    Fix every row but country i's.  i's new row x is nonnegative, sums to
    p_i and is zero off i's relations.  Each relevant state is then the
    sign of one threshold on one coordinate of x:

    * friend j: its support moves by x_j - u_ij, so it is safe, precarious
      or unsafe as x_j is above, at or below g_j = tau_j - sigma_j + u_ij;
    * adversary j: the threat on it moves by x_j - u_ij, so it is safe,
      precarious or unsafe as x_j is below, at or above
      h_j = sigma_j - tau_j + u_ij;
    * i itself: its support is p_i - F + aid_i, with F its friend-directed
      total and aid_i what its friends send it, so it is safe, precarious
      or unsafe as F is below, at or above c = p_i + aid_i - tau_i.

    An outcome profile gives each relevant country a state, so each
    coordinate an interval (open, closed or a point) and F one more.  The
    profile is reachable iff every interval meets x >= 0, the sum of the
    friend intervals meets F's interval, and the least friend total in that
    meet plus the least adversary total is at most p_i (strictly less where
    either infimum is not attained): the rest of p_i goes to reserve.  i
    deviates iff some reachable profile improves on the current states
    under `relation`.
    """
    friends, adversaries = env.friends_of[i], env.adversaries_of[i]
    sums = {j: _support_threat(env, u, j) for j in (i, *friends, *adversaries)}
    before = {j: _state(s - t) for j, (s, t) in sums.items()}
    # Each coordinate's reachable states, with the interval each needs.
    options = []
    for j in friends:
        gap = sums[j][1] - sums[j][0] + u[i][j]
        options.append(_options(j, _FRIEND_SIDE, gap))
    for j in adversaries:
        gap = sums[j][0] - sums[j][1] + u[i][j]
        options.append(_options(j, _ADVERSARY_SIDE, gap))
    aid = sum((u[j][i] for j in friends), ZERO)
    cap = env.powers[i] + aid - sums[i][1]
    for profile in itertools.product(*options):
        friend_total = _sum(interval for _, _, interval in profile[: len(friends)])
        adversary_total = _sum(interval for _, _, interval in profile[len(friends) :])
        for own_state, side in _SELF_SIDE.items():
            after = {j: state for j, state, _ in profile}
            after[i] = own_state
            if not relation(env, i, before, after):
                continue
            total = _meet(friend_total, _side(side, cap))
            if total is None:
                continue
            least = total[0] + adversary_total[0]
            if least < env.powers[i] or (
                least == env.powers[i] and not (total[1] or adversary_total[1])
            ):
                return True
    return False


def _options(j, sides, gap):
    out = []
    for state, side in sides.items():
        interval = _meet(_NONNEGATIVE, _side(side, gap))
        if interval is not None:
            out.append((j, state, interval))
    return out
