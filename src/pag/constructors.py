"""Constructors for the equilibria whose existence the theory guarantees.

Three families are built here: balancing equilibria on complete rivalries
(everyone precarious), sole-survivor equilibria on complete rivalries
(exactly one country safe), and safe-country equilibria on bipartite
rivalries via pair-ordered mutual annihilation.  Both complete-rivalry
families rest on one balanced block, `symmetric_row_sum_matrix`, built in
one sweep over the prefix sums of the powers.  Every constructor verifies
its own output with the exact Nash checker before returning it; a
construction that does not verify is surfaced as an error, never returned.
A country index that is not an int in 0..n-1 raises ValidationError.
"""

from __future__ import annotations

import bisect
import itertools
import random
from fractions import Fraction
from typing import Iterable, Sequence

from .analysis import (
    TopologyError,
    bipartite_safe_sufficient,
    is_complete_adversary_graph,
)
from .equilibrium import is_nash
from .model import (
    ZERO,
    Environment,
    Matrix,
    Pair,
    Rational,
    State,
    ValidationError,
    _check_indices,
    replace_row,
    to_fraction,
    validate_allocation,
)


#: Pair orderings tried by `bipartite_safe_equilibrium` before giving up.
MAX_ORDERINGS = 720
#: Best-response repair steps applied to each unverified construction.
REPAIR_ROUNDS = 12


class ConstructionFailed(RuntimeError):
    """A constructor's negative answer; raised as is when no attempted
    construction verified as a Nash equilibrium."""


class InfeasiblePower(ConstructionFailed):
    """Some country's power exceeds the total power of the others."""


class PreconditionViolated(ConstructionFailed):
    """The environment does not satisfy the constructor's precondition."""


class ConditionNotMet(ConstructionFailed):
    """The sufficient condition for the construction does not hold."""


def symmetric_row_sum_matrix(powers: Sequence[Rational]) -> Matrix:
    """Symmetric nonnegative matrix with zero diagonal and given row sums.

    Exists iff every entry is at most the sum of the others.  One sweep
    builds it: the powers lie end to end on [0, total), and each point x
    of the first half is joined to x + total/2.  No power exceeds half the
    total, so the two points never fall in the same power and the diagonal
    stays zero.  Each stretch between cut points adds its length to one
    pair (a, b) and to (b, a); a zero power writes no cell.  Every entry is
    a difference of prefix sums or of a prefix sum and half the total.
    """
    z = [to_fraction(p) for p in powers]
    n = len(z)
    if n < 2:
        raise ValidationError(["need at least 2 entries"])
    if any(p < 0 for p in z):
        raise ValidationError(["powers must be nonnegative"])
    total = sum(z, ZERO)
    for i, p in enumerate(z):
        if p > total - p:
            raise InfeasiblePower(
                f"entry {i} has power {p}, exceeding the others' total {total - p}"
            )

    w = [[ZERO] * n for _ in range(n)]
    half = total / 2
    ends = list(itertools.accumulate(z))
    # Power a holds the point `start`, power b the point start + half.
    a, b = 0, bisect.bisect_right(ends, half)
    start = ZERO
    while start < half:
        end = min(ends[a], ends[b] - half)
        if end > start:
            w[a][b] += end - start
            w[b][a] += end - start
        start = end
        if ends[a] == end:
            a += 1
        else:
            b += 1
    return tuple(tuple(row) for row in w)


def _verify(env: Environment, u: Matrix, label: str, states: tuple[State, ...]) -> Matrix:
    """u itself if it induces `states`, is admissible and is a Nash
    equilibrium; otherwise ConstructionFailed naming the first failure."""
    result = is_nash(env, u)
    if result.states != states:
        raise ConstructionFailed(f"{label} states are {[s.value for s in result.states]}")
    problems = validate_allocation(env, u)
    if problems:
        raise ConstructionFailed(f"{label}: invalid allocation: {problems}")
    if not result.ok:
        dev = result.deviations[0]
        raise ConstructionFailed(
            f"{label}: country {env.names[dev.country]} still has a profitable deviation"
        )
    return u


def balancing_equilibrium(env: Environment) -> Matrix:
    """All power on adversary edges, symmetric per edge, everyone precarious.

    Requires a complete all-adversary graph; exists iff no country's power
    exceeds its adversaries' total.
    """
    if not is_complete_adversary_graph(env):
        raise TopologyError("balancing requires an all-adversary complete graph")
    if env.n < 2:
        raise TopologyError("balancing needs at least 2 countries")
    u = symmetric_row_sum_matrix(env.powers)
    return _verify(env, u, "balancing", (State.PRECARIOUS,) * env.n)


def sole_survivor_equilibrium(env: Environment, survivor: int) -> Matrix:
    """Equilibrium on a complete rivalry where only `survivor` is safe.

    Requires every country's power to be strictly below its adversaries'
    total, and a strictly positive power for the survivor (a zero-power
    country can at best be precarious).
    """
    _check_indices(env.n, [(survivor,)])
    if not is_complete_adversary_graph(env):
        raise TopologyError("sole survivor requires an all-adversary complete graph")
    total = sum(env.powers, ZERO)
    for i, p in enumerate(env.powers):
        if p >= total - p:
            raise PreconditionViolated(
                f"{env.names[i]} has power {p}, not strictly below the others' {total - p}"
            )
    if env.powers[survivor] <= 0:
        raise PreconditionViolated(
            f"{env.names[survivor]} needs positive power to be safe"
        )

    # The others balance each other, a dominator capped at the rest's total.
    sub_total = total - env.powers[survivor]
    capped = [ZERO if k == survivor else min(p, sub_total - p) for k, p in enumerate(env.powers)]
    rows = [list(row) for row in symmetric_row_sum_matrix(capped)]
    others = [j for j in range(env.n) if j != survivor]
    dominant = [j for j in others if capped[j] < env.powers[j]]

    if dominant:
        # At exactly half, the dominator trades each other country's whole
        # power with it; it overfeeds them by its surplus, and the survivor
        # tops up just past that surplus.
        j = dominant[0]
        surplus = env.powers[j] - capped[j]
        share = surplus / (len(others) - 1)
        for k in others:
            if k != j:
                rows[j][k] += share
        strike = (surplus + env.powers[survivor]) / 2
        rows[survivor][j] = strike
        rows[survivor][survivor] = env.powers[survivor] - strike
    else:
        # Balanced subgraph: the survivor spreads its power uniformly to
        # tip everyone under.
        share = env.powers[survivor] / len(others)
        for j in others:
            rows[survivor][j] = share

    u = tuple(tuple(row) for row in rows)
    expected = tuple(
        State.SAFE if i == survivor else State.UNSAFE for i in range(env.n)
    )
    return _verify(env, u, "sole survivor", expected)


def pairwise_annihilation(
    env: Environment,
    excluded: int,
    ordering: Sequence[Pair] | None = None,
) -> tuple[Matrix, tuple[Fraction, ...]]:
    """Process adversarial pairs not touching `excluded` in order.

    Each step allocates the minimum of the two remaining powers
    symmetrically on the pair, so at least one endpoint of every processed
    pair ends with residual zero.  Returns the pair `(matrix, residuals)`:
    the symmetric allocations, zero off the processed pairs, and the
    unspent powers.
    """
    _check_indices(env.n, [(excluded,)])
    if env.friends:
        raise TopologyError("annihilation requires a friendless environment")
    pairs = sorted(p for p in env.adversaries if excluded not in p)
    if ordering is None:
        ordering = pairs
    elif sorted(ordering) != pairs:
        raise ValidationError(["ordering must list exactly the non-excluded adversary pairs"])

    z = list(env.powers)
    rows = [[ZERO] * env.n for _ in range(env.n)]
    for j, h in ordering:
        amount = min(z[j], z[h])
        rows[j][h] += amount
        rows[h][j] += amount
        z[j] -= amount
        z[h] -= amount
    return tuple(tuple(row) for row in rows), tuple(z)


def _orderings(pairs: Sequence[Pair]) -> Iterable[tuple[Pair, ...]]:
    """Distinct pair orderings: the sorted one and its next permutations,
    `MAX_ORDERINGS` in all, then, if permutations remain, `MAX_ORDERINGS`
    shuffles from a fixed seed with the orderings already yielded left out."""
    base = tuple(sorted(pairs))
    permutations = itertools.permutations(base)
    seen = set()
    for ordering in itertools.islice(permutations, MAX_ORDERINGS):
        seen.add(ordering)
        yield ordering
    if next(permutations, None) is None:
        return
    rng = random.Random(0)
    for _ in range(MAX_ORDERINGS):
        shuffled = list(base)
        rng.shuffle(shuffled)
        ordering = tuple(shuffled)
        if ordering not in seen:
            seen.add(ordering)
            yield ordering


def bipartite_safe_equilibrium(env: Environment, target: int) -> Matrix:
    """Equilibrium on a friendless bipartite rivalry where `target` is safe.

    Runs the annihilation recursion on all pairs not involving the target,
    then the target outbids every adversary's residual, exhausting its
    budget with a strictly positive margin per adversary when possible.
    Every other country holds its residual in reserve.  Idle reserve next
    to a precarious rival is a profitable deviation, so each unverified
    attempt gets bounded best-response repair, which moves such reserve
    onto the rival; alternative pair orderings are tried before giving up.
    """
    _check_indices(env.n, [(target,)])
    if not bipartite_safe_sufficient(env, target):
        raise ConditionNotMet(
            f"sufficient condition fails for {env.names[target]}"
        )
    adversaries = env.adversaries_of[target]
    pairs = sorted(p for p in env.adversaries if target not in p)

    attempts = 0
    for ordering in _orderings(pairs):
        attempts += 1
        matrix, z = pairwise_annihilation(env, target, ordering)
        need = sum((z[j] for j in adversaries), ZERO)
        if need > env.powers[target]:
            continue
        surplus = env.powers[target] - need
        rows = [list(row) for row in matrix]
        if adversaries:
            margin = surplus / len(adversaries)
            for j in adversaries:
                rows[target][j] = z[j] + margin
        else:
            rows[target][target] = env.powers[target]
        for k in range(env.n):
            if k != target:
                rows[k][k] = z[k]

        u: Matrix = tuple(tuple(row) for row in rows)
        result = is_nash(env, u)
        for _ in range(REPAIR_ROUNDS):
            if result.ok:
                break
            dev = result.deviations[0]
            u = replace_row(u, dev.country, dev.row)
            result = is_nash(env, u)
        if result.ok and result.states[target] is State.SAFE and not validate_allocation(env, u):
            return u

    raise ConstructionFailed(
        f"no verifying construction for {env.names[target]} after {attempts} orderings"
    )
