"""An exact continuous best-response oracle, checked against `is_nash`.

The verifier decides who deviates in closed form (`equilibrium._decide`).
This module derives the same answer from the definitions alone, with no
grid and no code shared with `equilibrium.py`.

Fix every row but country i's.  i's new row x is nonnegative, sums to p_i
and is zero off i's relations.  Each relevant state is then the sign of
one threshold on one coordinate of x:

* friend j: its support moves by x_j - u_ij, so it is safe, precarious or
  unsafe as x_j is above, at or below g_j = tau_j - sigma_j + u_ij;
* adversary j: the threat on it moves by x_j - u_ij, so it is safe,
  precarious or unsafe as x_j is below, at or above
  h_j = sigma_j - tau_j + u_ij;
* i itself: its support is p_i - F + aid_i, with F its friend-directed
  total and aid_i what its friends send it, so it is safe, precarious or
  unsafe as F is below, at or above c = p_i + aid_i - tau_i.

An outcome profile gives each relevant country a state, so each coordinate
an interval (open, closed or a point) and F one more.  The profile is
reachable iff every interval meets x >= 0, the sum of the friend intervals
meets F's interval, and the least friend total in that meet plus the least
adversary total is at most p_i (strictly less where either infimum is not
attained): the rest of p_i goes to reserve.  i deviates iff some reachable
profile improves on the current states under the relation R below.
"""

import itertools
import random
from fractions import Fraction

import pytest

import pag
from pag import make_environment
from pag.model import ZERO, State
from pag.preference import improvement_from_states

from conftest import random_allocation, random_environment, random_sparse_scenario

SAFE, PRECARIOUS, UNSAFE = State.SAFE, State.PRECARIOUS, State.UNSAFE

#: Largest degree the oracle is run at: 3^(1 + deg) outcome profiles.
MAX_DEGREE = 8

# Down the order safe > precarious > unsafe.
_DOWN = {SAFE: 0, PRECARIOUS: 1, UNSAFE: 2}


def relation_r(env, i, before, after):
    """R: the deviation relation the verifier decides, from the definitions.

    `before` and `after` map each country of i's relevant set to its state.
    R is the union of two clauses:

    * the category rule (`preference.improvement_from_states`): i goes from
      unsafe to surviving, which trumps everything; or weak preference
      (every surviving friend and i itself keep surviving, every non-safe
      adversary stays non-safe) with one binary category strictly better
      (an unsafe friend survives, a safe adversary is not safe);
    * the push clause: weak preference, at least one adversary strictly
      lower in the order safe > precarious > unsafe, and none higher.
    """
    if before[i] is UNSAFE and after[i] is not UNSAFE:
        return True
    own = (i, *env.friends_of(i))
    adversaries = env.adversaries_of(i)
    if any(before[j] is not UNSAFE and after[j] is UNSAFE for j in own):
        return False
    if any(before[j] is not SAFE and after[j] is SAFE for j in adversaries):
        return False
    if any(before[j] is UNSAFE and after[j] is not UNSAFE for j in own):
        return True
    if any(before[j] is SAFE and after[j] is not SAFE for j in adversaries):
        return True
    moves = [_DOWN[after[j]] - _DOWN[before[j]] for j in adversaries]
    return any(m > 0 for m in moves) and all(m >= 0 for m in moves)


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
    support = u[j][j] + sum((u[k][j] for k in env.friends_of(j)), ZERO)
    support += sum((u[j][k] for k in env.adversaries_of(j)), ZERO)
    return support, sum((u[k][j] for k in env.adversaries_of(j)), ZERO)


def _state(margin):
    return SAFE if margin > 0 else PRECARIOUS if margin == 0 else UNSAFE


def exact_deviates(env, u, i, relation=relation_r):
    """Does i have a row reaching an outcome that `relation` prefers?

    Exact over the continuum of i's rows; u may be any nonnegative matrix,
    its rows need not sum to the powers.
    """
    friends, adversaries = env.friends_of(i), env.adversaries_of(i)
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


def _arbitrary_rows(rng, env, denominators):
    """Nonnegative entries on each row's support that need not sum to its
    power."""
    return tuple(
        tuple(
            Fraction(rng.randint(0, 5), rng.choice(denominators))
            if j in env.row_support(i)
            else ZERO
            for j in range(env.n)
        )
        for i in range(env.n)
    )


def _scenario(rng, kind):
    if kind == "dense":
        env = random_environment(rng, rng.randint(2, 6), max_power=6, min_power=0)
        return env, random_allocation(rng, env, denominator=rng.randint(1, 3))
    if kind == "sparse":
        n = rng.randint(5, 12)
        return random_sparse_scenario(rng, n, mean_degree=rng.choice([2, 3, 4]))
    if kind == "dense-unbalanced":
        env = random_environment(rng, rng.randint(2, 6), max_power=6, min_power=0)
        return env, _arbitrary_rows(rng, env, (1, 2, 3))
    # Sparse relations with powers drawn apart from the rows.
    env, _ = random_sparse_scenario(rng, rng.randint(5, 12), mean_degree=rng.choice([2, 3, 4]))
    env = make_environment(
        [Fraction(rng.randint(0, 12), rng.choice((1, 2))) for _ in range(env.n)],
        friends=env.friends,
        adversaries=env.adversaries,
    )
    return env, _arbitrary_rows(rng, env, (1, 2, 3))


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("kind", ["dense", "sparse", "dense-unbalanced", "sparse-unbalanced"])
def test_is_nash_agrees_with_exact_best_response(kind, seed):
    # Both directions: every country the verifier says deviates has a
    # reachable R-improving outcome, and every country with one is reported.
    # The unbalanced kinds have rows that do not sum to the powers, which
    # the verifier's self room must handle without assuming they do.
    rng = random.Random(f"{kind}:{seed}")
    deviators = checked = 0
    for _ in range(60):
        env, u = _scenario(rng, kind)
        reported = {d.country for d in pag.is_nash(env, u).deviations}
        for i in range(env.n):
            if len(env.row_support(i)) - 1 > MAX_DEGREE:
                continue
            found = exact_deviates(env, u, i)
            assert found == (i in reported), (kind, env, u, i)
            checked += 1
            deviators += found
    # Both answers occur often enough for the agreement to mean something.
    assert deviators >= checked // 10
    assert checked - deviators >= checked // 10


def test_push_clause_is_needed():
    # Under the category rule alone the oracle misses a deviation the
    # verifier reports: country 0 holds its adversary 1 precarious with
    # power to spare, so it can push 1 down to unsafe, though both states
    # are in the same "not safe" category.
    env = make_environment([3, 1], adversaries=[(0, 1)])
    u = ((Fraction(2), Fraction(1)), (ZERO, Fraction(1)))
    assert pag.best_deviation(env, u, 0) is not None
    assert exact_deviates(env, u, 0)
    assert not exact_deviates(env, u, 0, relation=improvement_from_states)
