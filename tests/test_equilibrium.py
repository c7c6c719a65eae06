import collections
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pag
from pag import equilibrium, make_environment, matrix_from_entries, model
from pag.model import State, replace_row, state_vector

from conftest import complete_rivalry, random_allocation, random_environment, random_sparse_scenario
from reference import grid_profitable_deviation, relation_r, state_refined_improvement


class TestBestDeviation:
    def test_alloc1_second_country_stuck(self, env2, alloc1):
        assert pag.best_deviation(env2, alloc1, 1) is None

    def test_fig1b_second_country_stuck(self, env1, fig1b):
        assert pag.best_deviation(env1, fig1b, 1) is None

    def test_zero_power_country_never_deviates(self):
        env = make_environment([0, 3], adversaries=[(0, 1)])
        u = matrix_from_entries(env, {(1, 0): 3})
        assert pag.best_deviation(env, u, 0) is None

    def test_witness_is_admissible_and_improving(self, env2):
        # All-reserve row for country 1 invites an attack.
        u = matrix_from_entries(env2, {(0, 0): 8, (1, 0): 2, (1, 2): 4, (2, 1): 4})
        dev = pag.best_deviation(env2, u, 0)
        assert dev is not None
        v = replace_row(u, 0, dev.row)
        assert pag.validate_allocation(env2, v) == []
        assert dev.states == state_vector(env2, v)

    def test_self_rescue_witness_reaches_survival(self):
        # A country that gave everything to a friend is unsafe, but can
        # survive by pulling its power back into reserve.
        env = make_environment([2, 4, 3], friends=[(0, 1)], adversaries=[(0, 2)])
        u = matrix_from_entries(env, {(0, 1): 2, (1, 1): 4, (2, 0): 2, (2, 2): 1})
        states = state_vector(env, u)
        assert states[0] is State.UNSAFE
        dev = pag.best_deviation(env, u, 0)
        assert dev is not None
        assert dev.states[0].survives
        assert dev.row[0] == 2

    def test_strict_push_witness_pinned(self):
        # v1 (power 5/2) holds precarious v2 and unsafe v3 and v4 down and
        # keeps its friend v5 surviving against v6: its base is the gaps
        # 1/2, 1/4, 1/4 and 1/4, its slack 5/4.  It pushes the k = 3
        # adversaries strictly down, each by slack / (4 (k + 1)) = 5/64, and
        # reserves the rest: entries in 1/64 = 1 / (4 (k + 1) L), L = 4.
        env = make_environment(
            ["5/2", "1/2", "1/4", "1/4", "1/4", "1/2"],
            friends=[(0, 4)],
            adversaries=[(0, 1), (0, 2), (0, 3), (4, 5)],
        )
        half, quarter = Fraction(1, 2), Fraction(1, 4)
        u = matrix_from_entries(
            env,
            {(0, j): half for j in range(5)}
            | {(1, 1): half, (2, 2): quarter, (3, 3): quarter, (4, 4): quarter, (5, 4): half},
        )
        S, P, U = State.SAFE, State.PRECARIOUS, State.UNSAFE
        assert state_vector(env, u) == (S, P, U, U, S, S)
        dev = pag.best_deviation(env, u, 0)
        assert dev.row == tuple(Fraction(x, 64) for x in (65, 37, 21, 21, 16, 0))
        assert dev.states == (S, U, U, U, P, S)
        assert pag.is_nash(env, u).deviations[0] == dev


class TestIsNash:
    def test_three_allocations_are_equilibria(self, env2, alloc1, alloc2, alloc3):
        for u in (alloc1, alloc2, alloc3):
            assert pag.is_nash(env2, u).ok

    def test_fig4_is_equilibrium(self, env4, fig4):
        assert pag.is_nash(env4, fig4).ok

    def test_fig1b_is_equilibrium(self, env1, fig1b):
        assert pag.is_nash(env1, fig1b).ok

    def test_all_reserve_not_equilibrium(self, env2):
        u = matrix_from_entries(env2, {(0, 0): 8, (1, 0): 2, (1, 2): 4, (2, 1): 4})
        result = pag.is_nash(env2, u)
        assert not result.ok
        assert result.deviations[0].country == 0

    def test_certificate_lists_every_deviator(self, env2):
        u = matrix_from_entries(env2, {(0, 0): 8, (1, 1): 6, (2, 2): 4})
        result = pag.is_nash(env2, u)
        assert not result.ok
        assert len(result.deviations) >= 2


class TestEquilibriumClass:
    # Equilibria are equivalent when they induce identical state vectors.
    def test_identity(self, env2, alloc1):
        assert state_vector(env2, alloc1) == state_vector(env2, alloc1)

    def test_different_survivors_differ(self, env2, alloc1, alloc2):
        assert state_vector(env2, alloc1) != state_vector(env2, alloc2)

    def test_reserve_shift_keeps_class(self, env4, fig4):
        variant = replace_row(fig4, 3, matrix_from_entries(env4, {(3, 2): 20})[3])
        assert state_vector(env4, fig4) == state_vector(env4, variant)


# Denominators of each family: small ones; 40 distinct 12-digit ones, whose
# common denominator has a few hundred digits at these sizes; and two 13-digit
# primes with 7, whose common denominator is past 2^64 once both occur (the
# last family).
_DENOMINATORS = (
    (1,),
    (1, 2, 3),
    (1, 2, 3, 7, 12),
    tuple(random.Random(12).sample(range(10**11, 10**12), 40)),
    (10**12 + 39, 10**12 + 61, 7),
)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2 ** 30), st.sampled_from(_DENOMINATORS))
def test_sparse_witness_states_match_global_recompute(seed, denominators):
    # Witness states are re-evaluated over the deviator's relevant set only;
    # they must equal a whole-matrix recompute on the replaced matrix, and
    # is_nash's certificate must be exactly the per-country best deviations.
    # Decisions run in integer units of the common denominator: certificates
    # must equal those of the same core run on the Fractions themselves, and
    # witness rows must hold Fractions only.
    rng = random.Random(seed)
    env, u = random_sparse_scenario(rng, rng.randint(5, 60), denominators=denominators)
    result = pag.is_nash(env, u)
    assert result.states == state_vector(env, u)
    singles = [pag.best_deviation(env, u, i) for i in range(env.n)]
    assert result.deviations == tuple(d for d in singles if d is not None)
    for dev in result.deviations:
        assert all(type(x) is Fraction for x in dev.row)
        v = replace_row(u, dev.country, dev.row)
        assert dev.states == tuple(map(model.state_of, *model.sigma_tau(env, v)))
        assert dev.states == state_vector(env, v)
    states = state_vector(env, u)

    def unscaled(env, u):
        return 1, env.powers, u

    with mock.patch.object(equilibrium, "_integer_units", unscaled), mock.patch.object(
        model, "_integer_units", unscaled
    ):
        unscaled_result = pag.is_nash(env, u)
        assert unscaled_result == result
        assert unscaled_result.states == state_vector(env, u) == states


def test_is_nash_evaluates_states_locally(monkeypatch):
    # Complexity pin without timing: n states up front, then 1 + deg i per
    # deviator, and no whole-matrix replace or recompute.
    env, u = random_sparse_scenario(random.Random(400), 400)
    calls = 0
    real_state_of = equilibrium.state_of

    def counting_state_of(sig, tau):
        nonlocal calls
        calls += 1
        return real_state_of(sig, tau)

    def forbidden(*args, **kwargs):
        raise AssertionError("is_nash must not rebuild the matrix or all states")

    monkeypatch.setattr(equilibrium, "state_of", counting_state_of)
    for module in (model, equilibrium):
        monkeypatch.setattr(module, "replace_row", forbidden, raising=False)
        monkeypatch.setattr(module, "state_vector", forbidden, raising=False)
    result = pag.is_nash(env, u)
    assert result.deviations
    # A row's support is the country plus its relations: 1 + deg i.
    assert calls <= env.n + sum(len(env.row_support(d.country)) for d in result.deviations)


def test_deciding_a_hub_reads_each_relation_cell_once():
    # Complexity pin without timing: hub 0 has spent its whole power holding
    # k adversaries precarious and cannot flip its k safe ones, so it has no
    # deviation and every target is tried.  Deciding it must read each of
    # its cells O(1) times, not once per target tried, and only its own
    # row: the margins stand for every other row, the aid its friend sends
    # it included.
    k = 40
    safe, precarious, friend = range(1, k + 1), range(k + 1, 2 * k + 1), 2 * k + 1
    env = make_environment(
        [k] + [k + 1] * k + [1] * k + [2],
        friends=[(0, friend)],
        adversaries=[(0, j) for j in range(1, 2 * k + 1)],
    )
    u = matrix_from_entries(
        env,
        {(0, j): 1 for j in precarious}
        | {(j, j): k + 1 for j in safe}
        | {(j, j): 1 for j in precarious}
        | {(friend, friend): 1, (friend, 0): 1},
    )
    sigmas, taus = model.sigma_tau(env, u)
    margins = tuple(s - t for s, t in zip(sigmas, taus))
    states = tuple(map(model.state_of, sigmas, taus))
    assert states == (State.SAFE,) + (State.SAFE,) * k + (State.PRECARIOUS,) * k + (State.SAFE,)
    reads = collections.Counter()

    class CountingRow(tuple):
        def __getitem__(self, j):
            reads[self.index, j] += 1
            return tuple.__getitem__(self, j)

    rows = []
    for i, row in enumerate(u):
        rows.append(CountingRow(row))
        rows[-1].index = i
    rows = tuple(rows)
    hub_row = {(0, j) for j in env.row_support(0)}
    assert equilibrium._decide(env, env.powers, rows[0], 0, margins) is None
    assert max(reads.values()) == 1
    assert set(reads) == hub_row
    reads.clear()
    # The hub has no deviation; its first safe adversary, the lowest-index
    # deviator, flips it.
    assert equilibrium.is_nash(env, rows).deviations[0].country == 1
    assert max(reads.values()) == 1
    assert {cell for cell in reads if cell[0] == 0} == hub_row


def _all_reserve(env):
    return matrix_from_entries(env, {(i, i): p for i, p in enumerate(env.powers)})


def _complete_rivalry_at_reserve():
    env = complete_rivalry([3, 1, 4, 1, 5, 9])
    return env, _all_reserve(env)


def _star_at_reserve():
    # Hub v1 is every leaf's adversary: each leaf's witness rewrites it.
    env = make_environment([4, 5, 1, 6, 2, 7, 4], adversaries=[(0, j) for j in range(1, 7)])
    return env, _all_reserve(env)


def _sparse_400(denominators):
    return lambda: random_sparse_scenario(random.Random(400), 400, denominators=denominators)


@pytest.mark.parametrize(
    "instance",
    [
        _complete_rivalry_at_reserve,
        _star_at_reserve,
        _sparse_400((1,)),
        _sparse_400((1, 2, 3)),
        _sparse_400(_DENOMINATORS[-1]),
    ],
    ids=["complete-rivalry", "star", "sparse-int", "sparse-123", "sparse-past-max-scale"],
)
def test_witnesses_share_no_state_between_deviators(instance):
    # is_nash writes every witness into buffers it reuses across deviators;
    # where consecutive deviators share neighbours, each witness must still
    # be the one a fresh best_deviation builds, its states those of the
    # replaced matrix, and a second check must return the same result.
    env, u = instance()
    result = pag.is_nash(env, u)
    assert len(result.deviations) >= 3
    for dev in result.deviations:
        assert dev == pag.best_deviation(env, u, dev.country)
        assert dev.states == state_vector(env, replace_row(u, dev.country, dev.row))
    assert pag.is_nash(env, u) == result


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2 ** 30))
def test_best_deviation_sound_against_grid(seed):
    # The closed form must never miss a deviation the quarter-step grid can
    # exhibit under the category improvement rule.
    rng = random.Random(seed)
    env = random_environment(rng, rng.randint(2, 3), max_power=6, min_power=0)
    u = random_allocation(rng, env, denominator=rng.choice([1, 2]))
    for i in range(env.n):
        grid_row = grid_profitable_deviation(env, u, i, Fraction(1, 4))
        if grid_row is not None:
            assert pag.best_deviation(env, u, i) is not None


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2 ** 30), st.integers(2, 7))
def test_verdict_invariant_under_positive_scaling(seed, c):
    # Positive homogeneity, which the grid oracle's integer units rely on:
    # scaling every power and entry by c or by 1/c changes no state and no
    # deviating country.
    rng = random.Random(seed)
    env = random_environment(rng, rng.randint(2, 4), max_power=6, min_power=0)
    u = random_allocation(rng, env, denominator=rng.choice([1, 2, 3]))
    base = pag.is_nash(env, u)
    for factor in (Fraction(c), Fraction(1, c)):
        scaled_env = make_environment(
            [p * factor for p in env.powers], friends=env.friends, adversaries=env.adversaries
        )
        v = tuple(tuple(x * factor for x in row) for row in u)
        result = pag.is_nash(scaled_env, v)
        assert result.ok == base.ok
        assert state_vector(scaled_env, v) == state_vector(env, u)
        assert [d.country for d in result.deviations] == [d.country for d in base.deviations]


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2 ** 30))
def test_reported_witness_verified_end_to_end(seed):
    # Any witness the solver returns must be admissible and an improvement
    # under R, the category rule or the push clause.
    rng = random.Random(seed)
    env = random_environment(rng, rng.randint(2, 4), max_power=6, min_power=0)
    u = random_allocation(rng, env, denominator=rng.choice([1, 2]))
    for i in range(env.n):
        dev = pag.best_deviation(env, u, i)
        if dev is None:
            continue
        v = replace_row(u, i, dev.row)
        assert pag.validate_allocation(env, v) == []
        assert relation_r(env, i, state_vector(env, u), state_vector(env, v))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 30))
def test_is_nash_complete_against_refined_grid_search(seed):
    # Strongest differential check: exhaustively scan every half-step
    # deviation for every country under the refined relation; the verifier
    # must report a deviation whenever the scan finds one (the converse can
    # fail only because the grid is coarser than the continuum).
    rng = random.Random(seed)
    env = random_environment(rng, rng.randint(2, 3), max_power=4, min_power=0)
    u = random_allocation(rng, env, denominator=rng.choice([1, 2]))
    deviators = {dev.country for dev in pag.is_nash(env, u).deviations}
    for i in range(env.n):
        found = grid_profitable_deviation(
            env, u, i, Fraction(1, 2), relation=state_refined_improvement
        )
        if found is not None:
            assert i in deviators, (
                f"verifier missed a grid deviation for {i}: {found}"
            )


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 30))
def test_is_nash_invariant_under_relabeling(seed):
    rng = random.Random(seed)
    env = random_environment(rng, rng.randint(2, 4), max_power=5, min_power=0)
    u = random_allocation(rng, env, denominator=1)
    perm = list(range(env.n))
    rng.shuffle(perm)
    # perm maps old index -> new index.
    names = [None] * env.n
    powers = [None] * env.n
    for old, new in enumerate(perm):
        names[new] = env.names[old]
        powers[new] = env.powers[old]
    permuted = pag.validate_environment(
        names,
        powers,
        friends=[(env.names[i], env.names[j]) for i, j in env.friends],
        adversaries=[(env.names[i], env.names[j]) for i, j in env.adversaries],
    )
    pu = [[None] * env.n for _ in range(env.n)]
    for a in range(env.n):
        for b in range(env.n):
            pu[perm[a]][perm[b]] = u[a][b]
    permuted_u = tuple(tuple(row) for row in pu)
    assert pag.is_nash(env, u).ok == pag.is_nash(permuted, permuted_u).ok
