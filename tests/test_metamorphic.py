"""Metamorphic relations of the verifier, the grid oracle and the analysis
functions, which need no reference.

Each test checks the outputs on one input against those on a related one:
scaled by a positive rational, joined to an unrelated environment, given
an isolated country, with its countries relabeled, or searched on a finer
grid.  No exact reference reaches the sizes drawn here (sparse networks of
up to 300 countries, one seeded network of thousands, and a grid of
millions of candidates), so these relations are what checks the integer
scaler, the decision and the oracle's search there.
"""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pag
from pag import Deviation, GridSpec, NashResult, State, TopologyError, make_environment
from pag.model import ZERO, replace_row
from pag.oracle import candidate_count

from conftest import (
    random_allocation,
    random_bipartite_environment,
    random_environment,
    random_sparse_scenario,
)
from reference import relation_r


def _dense(rng):
    """A small admissible (env, u) with dense relations: 2 to 6 countries."""
    env = random_environment(rng, rng.randint(2, 6), max_power=9, min_power=0)
    return env, random_allocation(rng, env, denominator=rng.choice([1, 2, 3]))


def _scenario(rng):
    """An admissible (env, u): a small dense one, or a sparse one of 5 to
    300 countries."""
    if rng.random() < 0.5:
        return _dense(rng)
    return random_sparse_scenario(rng, rng.randint(5, 300), denominators=(1, 2, 3, 7))


def _environment(powers, friends, adversaries):
    return make_environment(powers, friends=friends, adversaries=adversaries)


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 2**30), st.integers(1, 9), st.integers(1, 9), st.booleans())
def test_positive_homogeneity(seed, a, b, perturb):
    # Scaling every power and entry by c = a/b changes no verdict, no state
    # and no deviator, and scales each witness row by c.  With `perturb`,
    # one cell grows by 1, so the matrix is most likely not admissible, and
    # the scaled one must be rejected too.
    rng = random.Random(seed)
    env, u = _scenario(rng)
    if perturb:
        rows = [list(row) for row in u]
        rows[rng.randrange(env.n)][rng.randrange(env.n)] += 1
        u = tuple(map(tuple, rows))
    valid = _assert_homogeneous(env, u, Fraction(a, b))
    assert valid or perturb


def _assert_homogeneous(env, u, c):
    """Check (env, u) scaled by c against (env, u); whether u is admissible."""
    scaled_env = _environment([p * c for p in env.powers], env.friends, env.adversaries)
    # Zero cells are mostly the one ZERO object; each other cell is scaled.
    v = tuple(tuple(x if x is ZERO else x * c for x in row) for row in u)
    base, result = pag.is_nash(env, u), pag.is_nash(scaled_env, v)
    assert result.ok == base.ok
    assert result.states == base.states == pag.state_vector(scaled_env, v)
    assert [d.country for d in result.deviations] == [d.country for d in base.deviations]
    for before, after in zip(base.deviations, result.deviations):
        assert after.row == tuple(x if x is ZERO else x * c for x in before.row)
        assert after.states == before.states
    valid = not pag.validate_allocation(env, u)
    assert valid == (not pag.validate_allocation(scaled_env, v))
    return valid


def _joined(envs):
    """The disjoint union of environments, side by side in order, and the
    offset of each one's first country."""
    powers, friends, adversaries, offsets = [], [], [], []
    for env in envs:
        k = len(powers)
        offsets.append(k)
        powers += env.powers
        friends += [(i + k, j + k) for i, j in env.friends]
        adversaries += [(i + k, j + k) for i, j in env.adversaries]
    return _environment(powers, friends, adversaries), offsets


def _side_by_side(matrices):
    """The block-diagonal matrix of square matrices, in order."""
    n = sum(map(len, matrices))
    rows, k = [], 0
    for u in matrices:
        rows += [(ZERO,) * k + tuple(row) + (ZERO,) * (n - k - len(u)) for row in u]
        k += len(u)
    return tuple(rows)


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 2**30))
def test_disjoint_union_gives_the_parts_deviations(seed):
    # With no relation between two environments, each country's decision and
    # witness are those it has in its own part, padded with the other part's
    # zeros and states.
    rng = random.Random(seed)
    _assert_union_of([_scenario(rng), _scenario(rng)])


def _assert_union_of(parts):
    env, offsets = _joined([part for part, _ in parts])
    u = _side_by_side([u for _, u in parts])
    results = [pag.is_nash(*part) for part in parts]
    states = sum((r.states for r in results), ())
    deviations = []
    for (part, _), k, r in zip(parts, offsets, results):
        before, after = (ZERO,) * k, (ZERO,) * (env.n - k - part.n)
        for d in r.deviations:
            deviations.append(
                Deviation(
                    country=d.country + k,
                    row=before + tuple(d.row) + after,
                    states=states[:k] + tuple(d.states) + states[k + part.n :],
                )
            )
    expected = NashResult(
        ok=all(r.ok for r in results), deviations=tuple(deviations), states=states
    )
    assert pag.is_nash(env, u) == expected
    assert pag.validate_allocation(env, u) == []


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 2**30), st.integers(0, 9), st.sampled_from([1, 2, 3]))
def test_an_isolated_country_is_safe_and_changes_nothing(seed, num, den):
    # A country with no relation holds its power in reserve: it is safe when
    # that power is positive and precarious at zero, it never deviates, and
    # every other output is the one without it, with its column and state
    # inserted.
    rng = random.Random(seed)
    env, u = _scenario(rng)
    k = rng.randint(0, env.n)
    power = Fraction(num, den)

    def insert(values, value):
        return (*values[:k], value, *values[k:])

    def shift(pairs):
        return [tuple(j + (j >= k) for j in pair) for pair in pairs]

    iso_env = _environment(insert(env.powers, power), shift(env.friends), shift(env.adversaries))
    own = State.SAFE if power > 0 else State.PRECARIOUS
    rows = [insert(row, ZERO) for row in u]
    iso_u = (*rows[:k], insert((ZERO,) * env.n, power), *rows[k:])
    base = pag.is_nash(env, u)
    expected = NashResult(
        ok=base.ok,
        deviations=tuple(
            Deviation(d.country + (d.country >= k), insert(d.row, ZERO), insert(d.states, own))
            for d in base.deviations
        ),
        states=insert(base.states, own),
    )
    assert pag.validate_allocation(iso_env, iso_u) == []
    assert pag.is_nash(iso_env, iso_u) == expected
    assert pag.state_vector(iso_env, iso_u) == expected.states
    assert pag.best_deviation(iso_env, iso_u, k) is None


def _moved(values, perm):
    """The sequence with the value at k moved to perm[k]."""
    out = [None] * len(values)
    for k, x in enumerate(values):
        out[perm[k]] = x
    return tuple(out)


def _relabel(env, perm):
    """env with country k moved to perm[k]: its power and its relations."""
    friends = [(perm[i], perm[j]) for i, j in env.friends]
    adversaries = [(perm[i], perm[j]) for i, j in env.adversaries]
    return _environment(_moved(env.powers, perm), friends, adversaries)


def _relabel_matrix(u, perm):
    """u with country k's row and column moved to perm[k]."""
    return _moved([_moved(row, perm) for row in u], perm)


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 2**30))
def test_relabeling_permutes_the_verdict_states_and_deviators(seed):
    # Permuting the countries permutes `ok`, the states and the set of
    # deviators.  A deviator's witness may differ from its counterpart's,
    # because targets are taken in relation order, but it must still be an
    # admissible row that induces the states it reports and that R prefers.
    # Each example also relabels three small dense cases, so every run
    # covers at least 30 of them.
    rng = random.Random(seed)
    for draw in (_scenario, _dense, _dense, _dense):
        env, u = draw(rng)
        perm = list(range(env.n))
        rng.shuffle(perm)
        p_env, p_u = _relabel(env, perm), _relabel_matrix(u, perm)
        base, result = pag.is_nash(env, u), pag.is_nash(p_env, p_u)
        assert result.ok == base.ok
        assert [result.states[perm[k]] for k in range(env.n)] == list(base.states)
        assert {d.country for d in result.deviations} == {
            perm[d.country] for d in base.deviations
        }
        for d in result.deviations:
            v = replace_row(p_u, d.country, d.row)
            assert pag.validate_allocation(p_env, v) == []
            after = pag.state_vector(p_env, v)
            assert d.states == after
            assert relation_r(p_env, d.country, result.states, after)


def _cover_by_owner(report, perm):
    """The dominations and protectorates of a `CoverReport`, keyed by owner,
    with country k renamed perm[k]."""

    def moved(group):
        return frozenset(perm[k] for k in group)

    return (
        {perm[d.owner]: moved(d.members) for d in report.dominations},
        {
            perm[p.owner]: (moved(p.weak_friends), moved(p.threats), moved(p.members))
            for p in report.protectorates
        },
    )


def _outcome(check, *args):
    """What `check` returns, or `TopologyError` when it raises one."""
    try:
        return check(*args)
    except TopologyError:
        return TopologyError


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 2**30))
def test_relabeling_permutes_the_analysis(seed):
    # Permuting the countries permutes the cover's records, the covered set
    # and the verdicts, each country's bipartite conditions and each group's
    # checks; whether a balancing equilibrium exists does not change.  The
    # sides of `adversary_bipartition` are left out: the smallest index of a
    # component goes left, so a relabeling may swap them.
    rng = random.Random(seed)
    for draw in range(4):
        if draw % 2:
            env = random_bipartite_environment(rng, max_n=6)
        else:
            env = random_environment(rng, rng.randint(2, 6), 9, min_power=0)
        perm = list(range(env.n))
        rng.shuffle(perm)
        p_env = _relabel(env, perm)
        base, result = pag.dp_cover(env), pag.dp_cover(p_env)
        assert _cover_by_owner(result, range(env.n)) == _cover_by_owner(base, perm)
        assert result.covered == frozenset(perm[k] for k in base.covered)
        assert result.spans == base.spans
        assert result.verdicts == _moved(base.verdicts, perm)
        assert _outcome(pag.balancing_exists, p_env) == _outcome(pag.balancing_exists, env)
        for k in range(env.n):
            for check in (pag.bipartite_safe_necessary, pag.bipartite_safe_sufficient):
                assert _outcome(check, p_env, perm[k]) == _outcome(check, env, k)
        for size in range(1, env.n + 1):
            for group in itertools.combinations(range(env.n), size):
                moved = [perm[k] for k in group]
                for check in (pag.check_group_balance, pag.check_clique_defense):
                    assert check(p_env, moved) == check(env, group)


def test_relations_hold_at_thousands_of_countries():
    # Positive homogeneity and disjoint union once more at a size no grid or
    # per-deviation reference reaches: a seeded sparse network of 2,000
    # countries, and the union of two of 1,200 and 900.
    rng = random.Random(22)
    env, u = random_sparse_scenario(rng, 2000, denominators=(1, 2, 3, 7))
    assert _assert_homogeneous(env, u, Fraction(7, 3))
    parts = [random_sparse_scenario(rng, 1200), random_sparse_scenario(rng, 900)]
    _assert_union_of(parts)


def _grid_environment(rng, fewest, most):
    """A seeded environment of 3 to 6 countries, powers 0-3, with `fewest`
    to `most` step-1 grid matrices."""
    while True:
        env = random_environment(
            rng, rng.randint(3, 6), 3, friend_p=0.2, adversary_p=0.35, min_power=0
        )
        if fewest <= candidate_count(env, Fraction(1)) <= most:
            return env


def _atlas(env):
    return pag.find_equilibria(env, GridSpec(step=Fraction(1)))


def test_refining_the_grid_keeps_every_equilibrium():
    # Every step-1 grid matrix is a step-1/2 one, and being an equilibrium
    # does not depend on the grid, so each step-1 member is a step-1/2
    # member with the same states.  The complete rivalry of powers 4, 3, 2
    # (38 step-1 members) runs first, then the seeded environments.
    rngs = [random.Random(seed) for seed in range(120)]
    seeded = (random_environment(rng, rng.randint(2, 4), 3) for rng in rngs)
    rivalry = make_environment([4, 3, 2], adversaries=[(0, 1), (0, 2), (1, 2)])
    environments = members = 0
    for env in (rivalry, *seeded):
        if candidate_count(env, 1) > 20_000 or candidate_count(env, Fraction(1, 2)) > 200_000:
            continue
        fine = pag.find_equilibria(env, GridSpec(step=Fraction(1, 2)))
        states = {m: cls.states for cls in fine.classes for m in cls.members}
        for cls in _atlas(env).classes:
            for m in cls.members:
                assert states.get(m) == cls.states
                members += 1
        environments += 1
    assert (environments, members) == (108, 2163)


@pytest.mark.parametrize("c, environments, members", [(2, 29, 408), (3, 30, 1397)])
def test_scaling_powers_and_step_scales_the_atlas(c, environments, members):
    # Positive homogeneity on the grid: powers times c on step c are the
    # same grid units, so the search checks as many candidates and finds
    # the same classes, each member the original one times c.  Seeded
    # environments of 3 or 4 countries, powers 0-3, step 1 against step c.
    rng = random.Random(c)
    seen = []
    for _ in range(30):
        env = random_environment(rng, rng.randint(3, 4), 3, min_power=0)
        if candidate_count(env, 1) > 20_000:
            continue
        scaled = _environment([p * c for p in env.powers], env.friends, env.adversaries)
        base = _atlas(env)
        result = pag.find_equilibria(scaled, GridSpec(step=Fraction(c)))
        assert result.candidates_checked == base.candidates_checked
        assert [cls.states for cls in result.classes] == [cls.states for cls in base.classes]
        assert [cls.members for cls in result.classes] == [
            tuple(tuple(tuple(x * c for x in row) for row in m) for m in cls.members)
            for cls in base.classes
        ]
        seen.append(base.total)
    assert (len(seen), sum(seen)) == (environments, members)


def _assert_atlas_of_union(first, second):
    # Each class of the union is a class of each part, its states
    # concatenated and its members every side-by-side pair of theirs; the
    # canonical orders of classes and members are the product orders.
    env, _ = _joined([first, second])
    a, b, joined = _atlas(first), _atlas(second), _atlas(env)
    assert joined.candidates_checked == a.candidates_checked * b.candidates_checked
    assert [(c.states, c.members) for c in joined.classes] == [
        (x.states + y.states, tuple(_side_by_side((m, w)) for m in x.members for w in y.members))
        for x in a.classes
        for y in b.classes
    ]


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 2**30))
def test_atlas_of_a_disjoint_union_is_the_product_of_the_parts(seed):
    rng = random.Random(seed)
    _assert_atlas_of_union(_grid_environment(rng, 20, 300), _grid_environment(rng, 20, 300))


def test_atlas_of_a_union_past_the_reference_reach():
    # A ring of 6 beside a rivalry: 6,000,000 candidates, within the bound
    # but far past what `reference.brute_force_atlas` can scan.
    ring = _environment([3] * 6, [], [(i, (i + 1) % 6) for i in range(6)])
    _assert_atlas_of_union(ring, _environment([1, 2], [], [(0, 1)]))


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 2**30))
def test_relabeling_permutes_the_atlas(seed):
    # The search order breaks ties by country index, so a relabeled
    # environment is searched in another order; its classes are still the
    # permuted classes, each with the permuted members.
    rng = random.Random(seed)
    env = _grid_environment(rng, 500, 20_000)
    perm = list(range(env.n))
    rng.shuffle(perm)
    base, result = _atlas(env), _atlas(_relabel(env, perm))
    assert result.candidates_checked == base.candidates_checked
    assert {c.states: c.members for c in result.classes} == {
        _moved(c.states, perm): tuple(sorted(_relabel_matrix(m, perm) for m in c.members))
        for c in base.classes
    }
