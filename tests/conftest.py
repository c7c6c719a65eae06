"""Shared fixtures: the four worked environments and their allocations.

The expected state vectors asserted in the test modules were derived by
hand from the support/threat definitions and are frozen here as constants.
The builders below draw the random environments and allocations the tests
sample; the references they are checked against are in `reference.py`.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from typing import Sequence

import pytest

from pag import (
    Environment,
    Matrix,
    TopologyError,
    bipartite_safe_sufficient,
    make_environment,
    matrix_from_entries,
)
from pag.model import ZERO

#: Seed of the acceptance suite's sampled instances.
SEED = 20260808


@pytest.fixture
def env1() -> Environment:
    # Six countries, two-sided conflict with two friendship edges.
    return make_environment(
        [19, 3, 6, 15, 3, 9],
        friends=[(1, 2), (3, 4)],
        adversaries=[(0, 3), (1, 4), (2, 5)],
    )


@pytest.fixture
def fig1b(env1: Environment) -> Matrix:
    return matrix_from_entries(
        env1,
        {(0, 3): 19, (3, 0): 15, (1, 4): 3, (4, 1): 3, (2, 5): 6, (5, 2): 9},
    )


@pytest.fixture
def env2() -> Environment:
    return make_environment([8, 6, 4], adversaries=[(0, 1), (0, 2), (1, 2)])


@pytest.fixture
def alloc1(env2: Environment) -> Matrix:
    return matrix_from_entries(
        env2, {(0, 0): 2, (0, 1): 4, (0, 2): 2, (1, 0): 2, (1, 2): 4, (2, 1): 4}
    )


@pytest.fixture
def alloc2(env2: Environment) -> Matrix:
    return matrix_from_entries(
        env2, {(0, 1): 4, (0, 2): 4, (1, 0): 5, (1, 2): 1, (2, 0): 4}
    )


@pytest.fixture
def alloc3(env2: Environment) -> Matrix:
    return matrix_from_entries(
        env2, {(0, 1): 6, (0, 2): 2, (1, 0): 6, (2, 0): 3, (2, 1): 1}
    )


@pytest.fixture
def env3() -> Environment:
    return make_environment(
        [4, 5, 6, 5], adversaries=[(0, 2), (0, 3), (1, 2), (1, 3)]
    )


@pytest.fixture
def env4() -> Environment:
    return make_environment(
        [1, 2, 1, 20], friends=[(1, 2)], adversaries=[(0, 1), (2, 3)]
    )


@pytest.fixture
def fig4(env4: Environment) -> Matrix:
    return matrix_from_entries(
        env4, {(0, 0): 1, (1, 0): 2, (2, 2): 1, (3, 2): 5, (3, 3): 15}
    )


def complete_rivalry(powers) -> Environment:
    """The complete rivalry on `powers`: every pair of countries are adversaries."""
    return make_environment(
        powers, adversaries=list(itertools.combinations(range(len(powers)), 2))
    )


def random_environment(
    rng: random.Random,
    n: int,
    max_power: int,
    friend_p: float = 0.3,
    adversary_p: float = 0.45,
    min_power: int = 1,
) -> Environment:
    friends, adversaries = [], []
    for pair in itertools.combinations(range(n), 2):
        roll = rng.random()
        if roll < friend_p:
            friends.append(pair)
        elif roll < friend_p + adversary_p:
            adversaries.append(pair)
    powers = [rng.randint(min_power, max_power) for _ in range(n)]
    return make_environment(powers, friends=friends, adversaries=adversaries)


def random_allocation(rng: random.Random, env: Environment, denominator: int = 1) -> Matrix:
    """A uniformly random admissible matrix with entries on a 1/denominator grid."""
    step = Fraction(1, denominator)
    rows = []
    for i in range(env.n):
        support = env.row_support[i]
        units = int(env.powers[i] / step)
        cuts = sorted(rng.randint(0, units) for _ in range(len(support) - 1))
        counts = [b - a for a, b in zip([0, *cuts], [*cuts, units])]
        row = [ZERO] * env.n
        for j, count in zip(support, counts):
            row[j] = count * step
        rows.append(tuple(row))
    return tuple(rows)


def random_bipartite_environment(
    rng: random.Random, max_n: int = 5, max_power: int = 8
) -> Environment:
    n = rng.randint(2, max_n)
    order = list(range(n))
    rng.shuffle(order)
    cut = rng.randint(1, n - 1)
    left, right = set(order[:cut]), set(order[cut:])
    edges = [(min(a, b), max(a, b)) for a in left for b in right]
    rng.shuffle(edges)
    keep = edges[: rng.randint(1, len(edges))]
    powers = [rng.randint(1, max_power) for _ in range(n)]
    return make_environment(powers, adversaries=keep)


def criterion_06_instances(
    rng: random.Random, count: int
) -> list[tuple[Environment, int]]:
    """`count` bipartite instances (at most 5 countries, powers 1-8) whose
    target has adversaries and meets the sufficient condition for safety."""
    instances = []
    while len(instances) < count:
        env = random_bipartite_environment(rng, max_n=5, max_power=8)
        target = rng.randrange(env.n)
        try:
            sufficient = bipartite_safe_sufficient(env, target)
        except TopologyError:
            continue
        if sufficient and env.adversaries_of[target]:
            instances.append((env, target))
    return instances


def random_sparse_scenario(
    rng: random.Random,
    n: int,
    mean_degree: float = 3,
    friend_share: float = 0.3,
    denominators: Sequence[int] = (1, 2, 3),
) -> tuple[Environment, Matrix]:
    """A sparse random network and an admissible matrix on it.

    round(n * mean_degree / 2) distinct pairs, a share of them friendly
    (ValueError, before any draw, when n countries have fewer pairs).  Each
    row's entries over its relations are random rationals whose denominators
    are drawn from `denominators` (zeros included), and each power is its
    row's sum.  Only the entries are drawn and summed, so building costs
    O(E) Fraction work besides the n * n matrix itself.
    """
    pairs = round(n * mean_degree / 2)
    if pairs > n * (n - 1) // 2:
        raise ValueError(f"{pairs} distinct pairs asked of {n} countries")
    edges: set[tuple[int, int]] = set()
    while len(edges) < pairs:
        a, b = rng.sample(range(n), 2)
        edges.add((min(a, b), max(a, b)))
    friends, adversaries = [], []
    support = [{i} for i in range(n)]
    for a, b in sorted(edges):
        (friends if rng.random() < friend_share else adversaries).append((a, b))
        support[a].add(b)
        support[b].add(a)
    entries = {}
    powers = []
    for i in range(n):
        power = ZERO
        for j in sorted(support[i]):
            x = entries[i, j] = Fraction(rng.randint(0, 6), rng.choice(denominators))
            power += x
        powers.append(power)
    env = make_environment(powers, friends=friends, adversaries=adversaries)
    return env, matrix_from_entries(env, entries)
