"""Decidable survival conditions on the environment alone.

These checks never look at a specific allocation: they compare powers over
the relation graph and decide what must hold in every equilibrium (group
balance, clique defense), whether a balancing equilibrium exists, whether a
country can possibly be safe in a bipartite antagonism, and the
domination/protectorate cover that yields unique survival predictions when
it spans the whole graph.  A country index that is not an int in 0..n-1
raises ValidationError.  `_power` is every total of power over countries,
and the bipartite conditions read `Environment.adversary_sides`.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterable

from .model import ZERO, Environment, ValidationError, _check_indices


class TopologyError(ValidationError):
    """The relation graph does not fit the requested check (an input fault)."""

    def __init__(self, message: str):
        super().__init__([f"topology: {message}"])


def is_complete_adversary_graph(env: Environment) -> bool:
    """True when every distinct pair is adversarial and nobody has friends."""
    if env.friends:
        return False
    expected = env.n * (env.n - 1) // 2
    return len(env.adversaries) == expected


def _power(env: Environment, countries: Iterable[int]) -> Fraction:
    """The total power of `countries`."""
    return sum([env.powers[k] for k in countries], ZERO)


def _members(env: Environment, group: Iterable[int]) -> list[int]:
    """The sorted distinct members of a nonempty group of country indices."""
    group = list(group)
    if not group:
        raise ValidationError(["group must be nonempty"])
    _check_indices(env.n, [group])
    return sorted(set(group))


def check_group_balance(env: Environment, group: Iterable[int]) -> bool:
    """No internal antagonism and each member covers its adversaries' power.

    When true, every member survives in every equilibrium.
    """
    members = _members(env, group)
    member_set = set(members)
    for i in members:
        adversaries = env.adversaries_of[i]
        if member_set.intersection(adversaries):
            return False
        if env.powers[i] < _power(env, adversaries):
            return False
    return True


def check_clique_defense(env: Environment, group: Iterable[int]) -> bool:
    """Mutual-friend clique whose total power covers its adversaries' total.

    When true, every member survives in every equilibrium.
    """
    members = _members(env, group)
    for a in members:
        friends = set(env.friends_of[a])
        for b in members:
            if b != a and b not in friends:
                return False
    outside: set[int] = set()
    for i in members:
        outside.update(env.adversaries_of[i])
    return _power(env, members) >= _power(env, outside)


def balancing_exists(env: Environment) -> bool:
    """Iff condition for a balancing equilibrium on a complete rivalry.

    Every country's power must not exceed the total power of its
    adversaries.
    """
    if not is_complete_adversary_graph(env):
        raise TopologyError("balancing requires an all-adversary complete graph")
    total = sum(env.powers, ZERO)
    return all(p <= total - p for p in env.powers)


def bipartite_safe_necessary(env: Environment, i: int) -> bool:
    """Necessary condition for i to be safe in some equilibrium.

    Each adversary of i must be coverable: its power must not exceed the
    total power of its own adversaries.  TopologyError unless the
    environment is friendless with a bipartite adversary graph.
    """
    _check_indices(env.n, [(i,)])
    if env.friends:
        raise TopologyError("environment has friend relations")
    if env.adversary_sides is None:
        raise TopologyError("adversary graph is not bipartite")
    return all(
        env.powers[j] <= _power(env, env.adversaries_of[j]) for j in env.adversaries_of[i]
    )


def bipartite_safe_sufficient(env: Environment, i: int) -> bool:
    """Sufficient condition for an equilibrium in which i is safe.

    The necessary condition, plus: the total power of i's adversaries is
    strictly below the total power of those adversaries' adversaries.
    Vacuously true when i has no adversaries.
    """
    if not bipartite_safe_necessary(env, i):
        return False
    adversaries = env.adversaries_of[i]
    if not adversaries:
        return True
    second: set[int] = set()
    for j in adversaries:
        second.update(env.adversaries_of[j])
    return _power(env, adversaries) < _power(env, second)


@dataclass(frozen=True)
class Domination:
    """Country `owner` plus its adversaries and their friends.

    Exists only when the owner's power covers the combined power of every
    other member.
    """

    owner: int
    members: frozenset[int]


@dataclass(frozen=True)
class Protectorate:
    """Country `owner` plus all its friends.

    `weak_friends` are the friends whose own power falls short of their
    adversaries'; `threats` are those weak friends' adversaries.  The
    protectorate exists when the owner plus its weak friends outweigh the
    owner's adversaries together with the threats.
    """

    owner: int
    weak_friends: frozenset[int]
    threats: frozenset[int]
    members: frozenset[int]


def domination(env: Environment, i: int) -> Domination | None:
    """i's domination, when its power covers adversaries plus their friends."""
    _check_indices(env.n, [(i,)])
    adversaries = set(env.adversaries_of[i])
    covered = set(adversaries)
    for j in adversaries:
        covered.update(env.friends_of[j])
    if env.powers[i] < _power(env, covered):
        return None
    return Domination(owner=i, members=frozenset({i} | covered))


def protectorate(env: Environment, i: int) -> Protectorate | None:
    """i's protectorate, when i plus its weak friends cover the threats.

    The condition adds each weak friend's own power to i's.
    """
    _check_indices(env.n, [(i,)])
    friends = env.friends_of[i]
    weak = frozenset(j for j in friends if env.powers[j] < _power(env, env.adversaries_of[j]))
    threats: set[int] = set()
    for j in weak:
        threats.update(env.adversaries_of[j])
    if env.powers[i] + _power(env, weak) < _power(env, set(env.adversaries_of[i]) | threats):
        return None
    return Protectorate(
        owner=i,
        weak_friends=weak,
        threats=frozenset(threats),
        members=frozenset({i, *friends}),
    )


class SurvivalVerdict(Enum):
    SURVIVES = "survives"
    NOT_SURVIVES = "not-survives"
    CONFLICT = "conflict"
    UNDETERMINED = "undetermined"


@dataclass(frozen=True)
class CoverReport:
    """All dominations and protectorates, their union, and per-country verdicts."""

    dominations: tuple[Domination, ...]
    protectorates: tuple[Protectorate, ...]
    covered: frozenset[int]
    spans: bool
    verdicts: tuple[SurvivalVerdict, ...]


def dp_cover(env: Environment) -> CoverReport:
    """Compute the domination-protectorate cover and survival verdicts.

    Verdicts are assigned only when the cover spans the whole graph:
    owning a domination or belonging to a protectorate predicts survival; a
    dominator's adversaries, and other non-owner domination members with no
    survival source of their own, do not survive.  A country with a
    survival source that is also some dominator's adversary is a genuine
    contradiction and is surfaced as a conflict, never resolved silently.
    """
    dominations = tuple(d for d in (domination(env, i) for i in range(env.n)) if d)
    protectorates = tuple(p for p in (protectorate(env, i) for i in range(env.n)) if p)
    covered: set[int] = set()
    for d in dominations:
        covered.update(d.members)
    for p in protectorates:
        covered.update(p.members)
    spans = covered == set(range(env.n))

    if not spans:
        verdicts = tuple(SurvivalVerdict.UNDETERMINED for _ in range(env.n))
        return CoverReport(dominations, protectorates, frozenset(covered), spans, verdicts)

    owners = {d.owner for d in dominations}
    protected: set[int] = set()
    for p in protectorates:
        protected.update(p.members)
    condemned_adversary: set[int] = set()
    for d in dominations:
        condemned_adversary.update(env.adversaries_of[d.owner])

    # The cover spans, so a country that is neither an owner nor protected
    # is a non-owner member of some domination.
    verdicts = []
    for i in range(env.n):
        source = i in owners or i in protected
        if source and i in condemned_adversary:
            verdicts.append(SurvivalVerdict.CONFLICT)
        elif source:
            verdicts.append(SurvivalVerdict.SURVIVES)
        else:
            verdicts.append(SurvivalVerdict.NOT_SURVIVES)
    return CoverReport(
        dominations, protectorates, frozenset(covered), spans, tuple(verdicts)
    )
