import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pag import matrix_from_entries
from pag.model import replace_row, state_vector

from conftest import random_allocation, random_environment
from reference import (
    category_profile,
    improvement_from_states,
    strongly_prefers_states,
    weakly_prefers_states,
)


@pytest.fixture
def s1(env2, alloc1):
    return state_vector(env2, alloc1)


@pytest.fixture
def s2(env2, alloc2):
    return state_vector(env2, alloc2)


class TestWeaklyPrefers:
    def test_escaping_unsafety_is_weakly_preferred(self, env2, s1, s2):
        # Country 1 moves from unsafe to safe, both adversaries stay covered.
        assert weakly_prefers_states(env2, 0, s2, s1)

    def test_reflexive(self, env2, s1):
        assert weakly_prefers_states(env2, 0, s1, s1)

    def test_losing_safety_is_not_weakly_preferred(self, env2, s1, s2):
        assert not weakly_prefers_states(env2, 0, s1, s2)


class TestIndifferent:
    # Indifference: the exact three-valued states agree on i's relevant set.
    def test_reflexive(self, env2, s1):
        assert not strongly_prefers_states(env2, 2, s1, s1)
        assert not improvement_from_states(env2, 2, s1, s1)

    def test_adversary_state_change_breaks_indifference(self, env2, s1, s2):
        assert any(s1[j] is not s2[j] for j in env2.adversaries_of[2])

    def test_distinct_matrices_with_equal_states(self, env1, fig1b):
        # Moving the fourth country's offense into reserve keeps every state:
        # reserve and own offense both count toward its own support.
        variant = replace_row(fig1b, 3, matrix_from_entries(env1, {(3, 3): 15})[3])
        assert variant != fig1b
        s_u, s_v = state_vector(env1, fig1b), state_vector(env1, variant)
        assert s_u == s_v
        for i in range(env1.n):
            assert not improvement_from_states(env1, i, s_u, s_v)


class TestStronglyPrefers:
    def test_self_rescue(self, env2, s1, s2):
        assert strongly_prefers_states(env2, 1, s1, s2)

    def test_not_reflexive(self, env2, s1):
        assert not strongly_prefers_states(env2, 1, s1, s1)

    def test_requires_unsafe_start(self, env2, s1, s2):
        assert not strongly_prefers_states(env2, 0, s1, s2)


class TestImprovementVerdict:
    def test_self_survival_priority_case(self, env2, s1, s2):
        assert improvement_from_states(env2, 1, s1, s2)

    def test_identity_is_no_improvement(self, env2, s1):
        assert not improvement_from_states(env2, 1, s1, s1)

    def test_identical_matrices_no_improvement(self, env1, fig1b):
        s = state_vector(env1, fig1b)
        assert not improvement_from_states(env1, 0, s, s)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2 ** 30))
def test_preference_axiom_consistency(seed):
    rng = random.Random(seed)
    env = random_environment(rng, rng.randint(1, 4), max_power=5, min_power=0)
    s_u = state_vector(env, random_allocation(rng, env, denominator=rng.choice([1, 2])))
    s_v = state_vector(env, random_allocation(rng, env, denominator=rng.choice([1, 2])))
    for i in range(env.n):
        # Reflexivity.
        assert weakly_prefers_states(env, i, s_u, s_u)
        # Indifference (equal states on the relevant set) forbids strong
        # preference and forces mutual weak preference.
        if all(s_u[j] is s_v[j] for j in (i, *env.friends_of[i], *env.adversaries_of[i])):
            assert not strongly_prefers_states(env, i, s_u, s_v)
            assert not strongly_prefers_states(env, i, s_v, s_u)
            assert weakly_prefers_states(env, i, s_u, s_v)
            assert weakly_prefers_states(env, i, s_v, s_u)
            assert not improvement_from_states(env, i, s_u, s_v)
        # A strong preference moves the self category up.
        if strongly_prefers_states(env, i, s_u, s_v):
            assert not s_u[i].survives and s_v[i].survives


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 30))
def test_verdict_depends_only_on_relevant_categories(seed):
    # The verdict must be a function of the two state vectors restricted to
    # the relevant set; equal profiles plus equal self states mean no
    # strict improvement in either direction.
    rng = random.Random(seed)
    env = random_environment(rng, rng.randint(2, 4), max_power=5, min_power=0)
    s_u = state_vector(env, random_allocation(rng, env, denominator=1))
    s_v = state_vector(env, random_allocation(rng, env, denominator=1))
    for i in range(env.n):
        if category_profile(env, i, s_u) == category_profile(env, i, s_v):
            assert not improvement_from_states(env, i, s_u, s_v)
            assert not improvement_from_states(env, i, s_v, s_u)
