"""Metamorphic relations of the verifier, which need no reference.

Each test checks the outputs on one input against those on a related one:
scaled by a positive rational, joined to an unrelated environment, or
given an isolated country.  No exact reference reaches the sizes drawn
here (sparse networks of up to 300 countries), so these relations are what
checks the integer scaler and the decision there.
"""

import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

import pag
from pag import Deviation, NashResult, State, make_environment
from pag.model import ZERO

from conftest import random_allocation, random_environment, random_sparse_scenario


def _scenario(rng):
    """An admissible (env, u): a small one with dense relations, or a sparse
    one of 5 to 300 countries."""
    if rng.random() < 0.5:
        env = random_environment(rng, rng.randint(2, 6), max_power=9, min_power=0)
        return env, random_allocation(rng, env, denominator=rng.choice([1, 2, 3]))
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
    c = Fraction(a, b)
    scaled_env = _environment([p * c for p in env.powers], env.friends, env.adversaries)
    v = tuple(tuple(x * c if x else x for x in row) for row in u)
    base, result = pag.is_nash(env, u), pag.is_nash(scaled_env, v)
    assert result.ok == base.ok
    assert result.states == base.states == pag.state_vector(scaled_env, v)
    assert [d.country for d in result.deviations] == [d.country for d in base.deviations]
    for before, after in zip(base.deviations, result.deviations):
        assert after.row == tuple(x * c for x in before.row)
        assert after.states == before.states
    valid = not pag.validate_allocation(env, u)
    assert valid == (not pag.validate_allocation(scaled_env, v))
    assert valid or perturb


def _union(parts):
    """The disjoint union of (env, u) parts, side by side in order, and the
    offset of each part's first country."""
    powers, friends, adversaries, offsets = [], [], [], []
    for env, _ in parts:
        k = len(powers)
        offsets.append(k)
        powers += env.powers
        friends += [(i + k, j + k) for i, j in env.friends]
        adversaries += [(i + k, j + k) for i, j in env.adversaries]
    n = len(powers)
    rows = [
        (ZERO,) * k + row + (ZERO,) * (n - k - env.n)
        for (env, u), k in zip(parts, offsets)
        for row in u
    ]
    return _environment(powers, friends, adversaries), tuple(rows), offsets


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 2**30))
def test_disjoint_union_gives_the_parts_deviations(seed):
    # With no relation between two environments, each country's decision and
    # witness are those it has in its own part, padded with the other part's
    # zeros and states.
    rng = random.Random(seed)
    parts = [_scenario(rng), _scenario(rng)]
    env, u, offsets = _union(parts)
    results = [pag.is_nash(*part) for part in parts]
    states = sum((r.states for r in results), ())
    deviations = []
    for (part, _), k, r in zip(parts, offsets, results):
        before, after = (ZERO,) * k, (ZERO,) * (env.n - k - part.n)
        for d in r.deviations:
            deviations.append(
                Deviation(
                    country=d.country + k,
                    row=before + d.row + after,
                    states=states[:k] + d.states + states[k + part.n :],
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
