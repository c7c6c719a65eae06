"""The closed-form verifier (`equilibrium._decide`) against the exact
continuous best-response oracle `reference.exact_deviates`."""

import random
from fractions import Fraction

import pytest

import pag
from pag import make_environment
from pag.model import ZERO

from conftest import random_allocation, random_environment, random_sparse_scenario
from reference import exact_deviates, improvement_from_states

#: Largest degree the oracle is run at: 3^(1 + deg) outcome profiles.
MAX_DEGREE = 8


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
