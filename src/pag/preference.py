"""Preference relations over allocation outcomes.

A country cares about three groups of outcomes: its own survival, its
friends' survival, and its adversaries' non-safety.  Two axioms induce a
partial order on allocations:

* weak preference: every friend (and itself) that survived keeps surviving,
  and every adversary that was not safe stays not safe;
* strong preference: the country itself moves from unsafe to surviving,
  which trumps everything else.

Both axioms group states into binary categories per front, so the derived
`improvement_verdict` depends only on those categories: safe and precarious
are interchangeable for the self/friend front, unsafe and precarious for
the adversary front.

The Nash verifier decides a larger relation: `improvement_verdict` plus a
refinement on the adversary front, where pushing an adversary strictly down
(safe or precarious to a lower state) without worsening any relevant state
also counts.  `equilibrium.py`'s module docstring defines it.
"""

from __future__ import annotations

from enum import Enum

from .model import Environment, Matrix, State, state_vector

StateVec = tuple[State, ...]


class Verdict(Enum):
    STRICT_IMPROVEMENT = "strict-improvement"
    NO_IMPROVEMENT = "no-improvement"


def relevant_indices(env: Environment, i: int) -> tuple[int, ...]:
    """Countries whose state matters to i: itself, friends, adversaries."""
    return (i, *env.friends_of(i), *env.adversaries_of(i))


def category_profile(env: Environment, i: int, states: StateVec) -> tuple[bool, ...]:
    """Binary category per relevant country, True meaning better for i.

    Self and friends: True when the country survives.  Adversaries: True
    when the adversary is not safe.
    """
    bits = [states[i].survives]
    for j in env.friends_of(i):
        bits.append(states[j].survives)
    for j in env.adversaries_of(i):
        bits.append(states[j] is not State.SAFE)
    return tuple(bits)


def weakly_prefers_states(env: Environment, i: int, s_u: StateVec, s_v: StateVec) -> bool:
    for j in (i, *env.friends_of(i)):
        if not (s_v[j].survives or s_u[j] is State.UNSAFE):
            return False
    for j in env.adversaries_of(i):
        if not (s_v[j] is not State.SAFE or s_u[j] is State.SAFE):
            return False
    return True


def weakly_prefers(env: Environment, i: int, u: Matrix, v: Matrix) -> bool:
    """Does country i weakly prefer allocation v over allocation u?"""
    return weakly_prefers_states(env, i, state_vector(env, u), state_vector(env, v))


def indifferent(env: Environment, i: int, u: Matrix, v: Matrix) -> bool:
    """Indifference: the exact three-valued states agree on i's relevant set."""
    s_u = state_vector(env, u)
    s_v = state_vector(env, v)
    return all(s_u[j] is s_v[j] for j in relevant_indices(env, i))


def strongly_prefers_states(env: Environment, i: int, s_u: StateVec, s_v: StateVec) -> bool:
    return s_v[i].survives and s_u[i] is State.UNSAFE


def strongly_prefers(env: Environment, i: int, u: Matrix, v: Matrix) -> bool:
    """Priority of self-survival: i survives under v but was unsafe under u."""
    return strongly_prefers_states(env, i, state_vector(env, u), state_vector(env, v))


def improvement_from_states(env: Environment, i: int, s_u: StateVec, s_v: StateVec) -> Verdict:
    """Verdict from precomputed state vectors (see `improvement_verdict`)."""
    if strongly_prefers_states(env, i, s_u, s_v):
        return Verdict.STRICT_IMPROVEMENT
    if weakly_prefers_states(env, i, s_u, s_v):
        # Weak preference means the category profile of v dominates that of
        # u pointwise, so any difference is a strict gain somewhere.
        if category_profile(env, i, s_v) != category_profile(env, i, s_u):
            return Verdict.STRICT_IMPROVEMENT
    return Verdict.NO_IMPROVEMENT


def improvement_verdict(env: Environment, i: int, u: Matrix, v: Matrix) -> Verdict:
    """Is v a strict improvement over u for country i?

    Strict improvement means either the self-survival jump (strong
    preference), or weak preference with at least one binary category
    strictly better.  Category-equal outcomes, such as an adversary moving
    between unsafe and precarious, are no improvement here.
    """
    return improvement_from_states(
        env, i, state_vector(env, u), state_vector(env, v)
    )
