import dataclasses
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pag
from pag import (
    ConditionNotMet,
    ConstructionFailed,
    InfeasiblePower,
    PreconditionViolated,
    TopologyError,
    ValidationError,
    constructors,
    make_environment,
    matrix_from_entries,
    pairwise_annihilation,
)
from pag.model import State, state_vector

from conftest import SEED, complete_rivalry, criterion_06_instances, random_bipartite_environment


class TestSymmetricRowSumMatrix:
    def test_three_country_solution_is_unique(self):
        w = pag.symmetric_row_sum_matrix([8, 6, 4])
        assert w[0][1] == 5 and w[0][2] == 3 and w[1][2] == 1

    def test_two_entries_forced(self):
        w = pag.symmetric_row_sum_matrix([5, 5])
        assert w[0][1] == 5

    def test_infeasible_power(self):
        with pytest.raises(InfeasiblePower):
            pag.symmetric_row_sum_matrix([10, 1, 2])

    @pytest.mark.parametrize(
        "powers,message", [([1], "at least 2 entries"), ([2, -1, 3], "nonnegative")]
    )
    def test_malformed_powers_rejected(self, powers, message):
        with pytest.raises(ValidationError, match=message):
            pag.symmetric_row_sum_matrix(powers)

    def test_tie_heavy_instance(self):
        # Matching the two largest powers first dead-ends here (3 against 3
        # leaves the 2 alone); the sweep joins every power across the halves.
        w = pag.symmetric_row_sum_matrix([3, 3, 2])
        for i, p in enumerate([3, 3, 2]):
            assert sum(w[i]) == p

    @settings(max_examples=120, deadline=None)
    @given(
        st.lists(
            st.integers(0, 12) | st.fractions(0, 12, max_denominator=6), min_size=2, max_size=8
        )
    )
    def test_existence_matches_iff(self, powers):
        total = sum(powers)
        feasible = all(p <= total - p for p in powers)
        try:
            w = pag.symmetric_row_sum_matrix(powers)
        except InfeasiblePower:
            assert not feasible
            return
        assert feasible
        n = len(powers)
        # Each entry is a difference of prefix sums or of one and half the total.
        lcm = math.lcm(*(Fraction(p).denominator for p in powers))
        for i in range(n):
            assert w[i][i] == 0
            assert sum(w[i]) == powers[i]
            for j in range(n):
                assert w[i][j] == w[j][i] >= 0
                assert 2 * lcm % w[i][j].denominator == 0


class TestBalancingEquilibrium:
    def test_env2_balances(self, env2):
        u = pag.balancing_equilibrium(env2)
        assert u[0][1] == 5 and u[0][2] == 3 and u[1][2] == 1
        states = state_vector(env2, u)
        assert all(s is State.PRECARIOUS for s in states)
        sigmas, taus = pag.sigma_tau(env2, u)
        assert sigmas == taus == env2.powers

    def test_two_countries(self):
        env = complete_rivalry([3, 3])
        u = pag.balancing_equilibrium(env)
        assert u[0][1] == u[1][0] == 3
        assert all(s is State.PRECARIOUS for s in state_vector(env, u))

    def test_infeasible(self):
        with pytest.raises(InfeasiblePower):
            pag.balancing_equilibrium(complete_rivalry([20, 1, 2]))

    def test_topology_guard(self, env4):
        with pytest.raises(TopologyError):
            pag.balancing_equilibrium(env4)
        with pytest.raises(TopologyError, match="at least 2 countries"):
            pag.balancing_equilibrium(make_environment([3]))

    def test_wrong_states_name_them(self, env2, monkeypatch):
        # An all-reserve matrix is admissible but leaves everyone safe: the
        # check after the build must reject it by its states, and name them.
        reserve = matrix_from_entries(env2, {(0, 0): 8, (1, 1): 6, (2, 2): 4})
        monkeypatch.setattr(pag.constructors, "symmetric_row_sum_matrix", lambda powers: reserve)
        message = r"^balancing states are \['safe', 'safe', 'safe'\]$"
        with pytest.raises(ConstructionFailed, match=message):
            pag.balancing_equilibrium(env2)

    def test_profitable_deviation_named(self, env2, monkeypatch):
        # No admissible matrix that leaves a complete rivalry all precarious
        # has a profitable deviation, so the check is told the all-reserve
        # matrix induces balancing's states: it is admissible, and its first
        # deviator must be named.
        reserve = matrix_from_entries(env2, {(0, 0): 8, (1, 1): 6, (2, 2): 4})
        monkeypatch.setattr(pag.constructors, "symmetric_row_sum_matrix", lambda powers: reserve)
        monkeypatch.setattr(
            pag.constructors,
            "is_nash",
            lambda env, u: dataclasses.replace(
                pag.is_nash(env, u), states=(State.PRECARIOUS,) * env.n
            ),
        )
        message = r"^balancing: country v1 still has a profitable deviation$"
        with pytest.raises(ConstructionFailed, match=message):
            pag.balancing_equilibrium(env2)

    def test_invalid_allocation_named(self, env2, monkeypatch):
        # The zero matrix leaves everyone precarious, as balancing should,
        # but no row sums to its power.
        zero = matrix_from_entries(env2, {})
        monkeypatch.setattr(pag.constructors, "symmetric_row_sum_matrix", lambda powers: zero)
        with pytest.raises(ConstructionFailed, match=r"^balancing: invalid allocation: \["):
            pag.balancing_equilibrium(env2)


class TestSoleSurvivor:
    @pytest.mark.parametrize("survivor", [0, 1, 2])
    def test_env2_each_survivor(self, env2, survivor):
        u = pag.sole_survivor_equilibrium(env2, survivor)
        states = state_vector(env2, u)
        assert states[survivor] is State.SAFE
        assert sum(1 for s in states if s is State.SAFE) == 1
        assert sum(1 for s in states if s is State.UNSAFE) == env2.n - 1
        assert pag.is_nash(env2, u).ok

    def test_precondition_violated(self):
        with pytest.raises(PreconditionViolated):
            pag.sole_survivor_equilibrium(complete_rivalry([9, 1, 2]), 1)

    def test_zero_power_survivor_rejected(self):
        # Every power is strictly below the others' total, so only the
        # survivor's zero power fails.
        with pytest.raises(PreconditionViolated, match="needs positive power"):
            pag.sole_survivor_equilibrium(complete_rivalry([2, 2, 1, 0]), 3)

    def test_survivor_index_out_of_range(self, env2):
        # Index -1 used to name the last country and fail its construction.
        with pytest.raises(ValidationError, match=r"^index -1 out of range 0\.\.2$"):
            pag.sole_survivor_equilibrium(env2, -1)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2 ** 30))
    def test_random_instances(self, seed):
        rng = random.Random(seed)
        n = rng.randint(3, 7)
        while True:
            powers = [rng.randint(1, 9) for _ in range(n)]
            total = sum(powers)
            if all(p < total - p for p in powers):
                break
        env = complete_rivalry(powers)
        survivor = rng.randrange(n)
        u = pag.sole_survivor_equilibrium(env, survivor)
        states = state_vector(env, u)
        assert states[survivor] is State.SAFE
        assert all(s is State.UNSAFE for i, s in enumerate(states) if i != survivor)
        assert pag.validate_allocation(env, u) == []
        assert pag.is_nash(env, u).ok


class TestPairwiseAnnihilation:
    def test_env3_outcome(self, env3):
        matrix, residuals = pairwise_annihilation(env3, 0)
        assert residuals == (4, 0, 1, 5)
        assert matrix[1][2] == matrix[2][1] == 5
        assert matrix[1][3] == matrix[3][1] == 0

    def test_no_pairs_is_identity(self):
        env = make_environment([10, 3, 4], adversaries=[(0, 1), (0, 2)])
        matrix, residuals = pairwise_annihilation(env, 0)
        assert residuals == env.powers
        assert all(x == 0 for row in matrix for x in row)

    def test_equal_pair_annihilates_fully(self):
        env = make_environment([3, 7, 7], adversaries=[(0, 1), (1, 2)])
        matrix, residuals = pairwise_annihilation(env, 0)
        assert residuals == (3, 0, 0)
        assert matrix[1][2] == matrix[2][1] == 7

    def test_invariants_on_every_ordering(self):
        rng = random.Random(SEED)
        checked = 0
        while checked < 30:
            env = random_bipartite_environment(rng, max_n=6)
            excluded = rng.randrange(env.n)
            pairs = sorted(p for p in env.adversaries if excluded not in p)
            if not 2 <= len(pairs) <= 4:
                continue
            checked += 1
            for ordering in itertools.permutations(pairs):
                matrix, residuals = pairwise_annihilation(env, excluded, ordering)
                for k in range(env.n):
                    assert sum(matrix[k]) == env.powers[k] - residuals[k]
                    for j in range(env.n):
                        assert matrix[k][j] == matrix[j][k] >= 0
                        if (min(k, j), max(k, j)) not in pairs:
                            assert matrix[k][j] == 0
                assert all(z >= 0 for z in residuals)
                assert all(min(residuals[j], residuals[h]) == 0 for j, h in ordering)

    def test_friend_guard(self, env4):
        with pytest.raises(TopologyError):
            pairwise_annihilation(env4, 0)

    def test_excluded_index_out_of_range(self, env2):
        # Index 7 used to exclude no pair and return residuals.
        with pytest.raises(ValidationError, match=r"^index 7 out of range 0\.\.2$"):
            pairwise_annihilation(env2, 7)

    def test_explicit_ordering_is_validated(self, env3):
        _, residuals = pairwise_annihilation(env3, 0, ordering=[(1, 3), (1, 2)])
        assert residuals == (4, 0, 6, 0)
        with pytest.raises(
            ValidationError, match="^ordering must list exactly the non-excluded adversary pairs$"
        ):
            pairwise_annihilation(env3, 0, ordering=[(1, 2)])


class TestBipartiteSafeEquilibrium:
    def test_star_example(self):
        env = make_environment([10, 3, 4], adversaries=[(0, 1), (0, 2)])
        u = pag.bipartite_safe_equilibrium(env, 0)
        states = state_vector(env, u)
        assert [s.value for s in states] == ["safe", "unsafe", "unsafe"]
        # The target outbids both residuals and exhausts its power.
        assert u[0][1] > 3 and u[0][2] > 4
        assert sum(u[0]) == 10
        assert pag.is_nash(env, u).ok

    def test_target_index_out_of_range(self):
        # Index -1 used to judge the last country, v3, while excluding no pair.
        env = make_environment([10, 3, 4], adversaries=[(0, 1), (0, 2)])
        with pytest.raises(ValidationError, match=r"^index -1 out of range 0\.\.2$"):
            pag.bipartite_safe_equilibrium(env, -1)

    def test_env3_condition_not_met(self, env3):
        with pytest.raises(ConditionNotMet):
            pag.bipartite_safe_equilibrium(env3, 0)

    def test_isolated_target_trivially_safe(self):
        env = make_environment([5, 3, 3], adversaries=[(1, 2)])
        u = pag.bipartite_safe_equilibrium(env, 0)
        states = state_vector(env, u)
        assert states[0] is State.SAFE
        assert u[0][0] == 5
        assert pag.is_nash(env, u).ok

    def test_repair_recovers_ordering_insensitive_instance(self):
        # Annihilation alone overkills one side here for every ordering;
        # best-response repair must still land on a verified equilibrium.
        env = make_environment(
            [3, 7, 8, 5, 6], adversaries=[(0, 3), (1, 2), (2, 3), (3, 4)]
        )
        u = pag.bipartite_safe_equilibrium(env, 1)
        assert state_vector(env, u)[1] is State.SAFE
        assert pag.is_nash(env, u).ok

    def test_tight_repair_margins_keep_attacker_pinned(self):
        # Oversized repair margins once overkilled the middle country and
        # released the target's adversary from its maintenance burden.
        env = make_environment([7, 7, 8, 3], adversaries=[(0, 1), (0, 2), (1, 3)])
        u = pag.bipartite_safe_equilibrium(env, 3)
        assert state_vector(env, u)[3] is State.SAFE
        assert pag.is_nash(env, u).ok

    def test_later_ordering_with_reserve_policy(self):
        # On the sorted ordering the reserved residuals repair into an
        # equilibrium where the target is not safe; the second ordering
        # verifies after one repair round.
        env = make_environment([2, 5, 1, 5], adversaries=[(0, 2), (1, 3), (2, 3)])
        u = pag.bipartite_safe_equilibrium(env, 1)
        assert state_vector(env, u)[1] is State.SAFE
        assert pag.is_nash(env, u).ok

    def test_friend_topology_rejected(self, env4):
        with pytest.raises(TopologyError):
            pag.bipartite_safe_equilibrium(env4, 1)

    def test_odd_cycle_rejected(self, env2):
        with pytest.raises(TopologyError):
            pag.bipartite_safe_equilibrium(env2, 0)


def test_shuffled_ordering_reaches_what_permutations_miss(monkeypatch):
    # Seven non-target pairs have 5,040 orderings, so the permutations stop
    # at MAX_ORDERINGS and the shuffles run; the first shuffle verifies.
    env = make_environment(
        [5, 5, 5, 9, 3, 8, 9, 7, 8],
        adversaries=[(0, 3), (0, 4), (0, 6), (0, 7), (1, 7), (2, 6), (3, 8), (7, 8)],
    )
    u = pag.bipartite_safe_equilibrium(env, 2)
    assert pag.validate_allocation(env, u) == []
    assert state_vector(env, u)[2] is State.SAFE
    assert pag.is_nash(env, u).ok
    monkeypatch.setattr(
        constructors,
        "_orderings",
        lambda pairs: itertools.islice(
            itertools.permutations(sorted(pairs)), constructors.MAX_ORDERINGS
        ),
    )
    with pytest.raises(ConstructionFailed):
        pag.bipartite_safe_equilibrium(env, 2)


@pytest.mark.parametrize("k", [6, 7])
def test_orderings_are_never_repeated(k):
    # Each ordering's attempt is deterministic, so a repeat cannot succeed
    # where it failed.  The orderings are the permutations in order, then
    # the shuffles from seed 0, with every repeat left out.
    pairs = [(j, k + j) for j in range(k)]
    limit = constructors.MAX_ORDERINGS
    tried = list(itertools.islice(itertools.permutations(pairs), limit))
    rng = random.Random(0)
    for _ in range(limit):
        shuffled = list(pairs)
        rng.shuffle(shuffled)
        tried.append(tuple(shuffled))
    orderings = list(constructors._orderings(list(reversed(pairs))))
    assert orderings == list(dict.fromkeys(tried))
    assert len(set(orderings)) == len(orderings) == (720 if k == 6 else len(set(tried)))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 30))
def test_bipartite_outputs_always_verify(seed):
    # Whatever the constructor returns must be a valid matrix passing the
    # Nash check with the target strictly safe; failures must be explicit.
    rng = random.Random(seed)
    env = random_bipartite_environment(rng, max_n=5, max_power=8)
    target = rng.randrange(env.n)
    try:
        if not pag.bipartite_safe_sufficient(env, target):
            return
    except TopologyError:
        return
    try:
        u = pag.bipartite_safe_equilibrium(env, target)
    except pag.ConstructionFailed:
        return
    assert pag.validate_allocation(env, u) == []
    assert state_vector(env, u)[target] is State.SAFE
    assert pag.is_nash(env, u).ok


def test_bipartite_reach_on_criterion_06_instances():
    # What the ordering search and its repair reach on the acceptance
    # suite's instance generator: 587 of 650 succeed, and every success
    # verifies.  A change to the orderings, the residual policy or the
    # repair moves this count.
    instances = [
        instance
        for rng, count in [(random.Random(s), 200) for s in (0, 1, 2)] + [(random.Random(SEED), 50)]
        for instance in criterion_06_instances(rng, count)
    ]
    successes = 0
    for env, target in instances:
        try:
            u = pag.bipartite_safe_equilibrium(env, target)
        except ConstructionFailed:
            continue
        successes += 1
        assert pag.validate_allocation(env, u) == []
        assert state_vector(env, u)[target] is State.SAFE
        assert pag.is_nash(env, u).ok
    assert (len(instances), successes) == (650, 587)
