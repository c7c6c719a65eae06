"""Preference relations over survival-state vectors.

A country cares about three groups of outcomes: its own survival, its
friends' survival, and its adversaries' non-safety.  Two axioms induce a
partial order on outcomes, stated here on the state vectors two
allocations induce (`model.state_vector`, or `NashResult.states` and
`Deviation.states` from the verifier):

* weak preference: every friend (and itself) that survived keeps surviving,
  and every adversary that was not safe stays not safe;
* strong preference: the country itself moves from unsafe to surviving,
  which trumps everything else.

Both axioms group states into binary categories per front, so the derived
`improvement_from_states` depends only on those categories: safe and
precarious are interchangeable for the self/friend front, unsafe and
precarious for the adversary front.

The Nash verifier decides a larger relation: `improvement_from_states` plus
a refinement on the adversary front, where pushing an adversary strictly
down (safe or precarious to a lower state) without worsening any relevant
state also counts.  `equilibrium.py`'s module docstring defines it, and
`tests/reference.py::relation_r` spells it out as code.
"""

from __future__ import annotations

from .model import Environment, State

StateVec = tuple[State, ...]


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
    """Does country i weakly prefer outcome s_v over outcome s_u?"""
    for j in (i, *env.friends_of(i)):
        if not (s_v[j].survives or s_u[j] is State.UNSAFE):
            return False
    for j in env.adversaries_of(i):
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
