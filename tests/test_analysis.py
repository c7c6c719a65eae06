import json
from pathlib import Path

import pytest

import pag
from pag import State, SurvivalVerdict, TopologyError, ValidationError, make_environment
from pag.analysis import adversary_bipartition, is_complete_adversary_graph
from pag.cli import main as cli_main
from pag.cli import parse_scenario

COUNTEREXAMPLES = Path(__file__).parent / "counterexamples"


class TestGroupBalance:
    def test_env1_outer_pair(self, env1):
        assert pag.check_group_balance(env1, {0, 5})

    def test_env1_adversarial_pair_fails(self, env1):
        assert not pag.check_group_balance(env1, {1, 4})

    def test_singleton_without_adversaries(self):
        env = make_environment([1, 5], adversaries=[])
        assert pag.check_group_balance(env, {0})

    def test_empty_group_rejected(self, env1):
        with pytest.raises(ValidationError, match="^group must be nonempty$"):
            pag.check_group_balance(env1, set())


class TestCliqueDefense:
    def test_outgunned_then_covered(self):
        env = make_environment(
            [5, 5, 9], friends=[(0, 1)], adversaries=[(0, 2), (1, 2)]
        )
        assert pag.check_clique_defense(env, {0, 1})

    def test_env1_friend_pair_undersized(self, env1):
        assert not pag.check_clique_defense(env1, {1, 2})

    def test_singleton_clique(self):
        env = make_environment([2, 5], adversaries=[])
        assert pag.check_clique_defense(env, {0})

    def test_non_clique_rejected(self, env1):
        assert not pag.check_clique_defense(env1, {0, 5})

    def test_empty_group_rejected(self, env1):
        with pytest.raises(ValidationError, match="^group must be nonempty$"):
            pag.check_clique_defense(env1, [])


class TestBalancingExists:
    def test_env2(self, env2):
        assert pag.balancing_exists(env2)

    def test_dominant_country(self):
        env = make_environment(
            [20, 1, 2], adversaries=[(0, 1), (0, 2), (1, 2)]
        )
        assert not pag.balancing_exists(env)

    def test_two_equal(self):
        env = make_environment([3, 3], adversaries=[(0, 1)])
        assert pag.balancing_exists(env)

    def test_topology_error(self, env4):
        with pytest.raises(TopologyError):
            pag.balancing_exists(env4)


class TestBipartiteConditions:
    def test_env3_necessary_holds(self, env3):
        assert pag.bipartite_safe_necessary(env3, 0)

    def test_dominant_adversary_blocks(self):
        env = make_environment([1, 5], adversaries=[(0, 1)])
        assert not pag.bipartite_safe_necessary(env, 0)

    def test_no_adversaries_vacuous(self):
        env = make_environment([1, 5, 5], adversaries=[(1, 2)])
        assert pag.bipartite_safe_necessary(env, 0)
        assert pag.bipartite_safe_sufficient(env, 0)

    def test_env3_sufficient_fails_for_both(self, env3):
        assert not pag.bipartite_safe_sufficient(env3, 0)
        assert not pag.bipartite_safe_sufficient(env3, 1)

    def test_star_sufficient(self):
        env = make_environment([10, 3, 4], adversaries=[(0, 1), (0, 2)])
        assert pag.bipartite_safe_sufficient(env, 0)

    def test_friends_rejected(self, env4):
        with pytest.raises(TopologyError):
            pag.bipartite_safe_necessary(env4, 0)

    def test_odd_cycle_rejected(self, env2):
        with pytest.raises(TopologyError):
            pag.bipartite_safe_sufficient(env2, 0)

    def test_bipartition_shape(self, env3):
        left, right = adversary_bipartition(env3)
        assert {frozenset(left), frozenset(right)} == {
            frozenset({0, 1}),
            frozenset({2, 3}),
        }

    def test_complete_graph_detector(self, env2, env3):
        assert is_complete_adversary_graph(env2)
        assert not is_complete_adversary_graph(env3)


class TestDomination:
    def test_env4_small_dominator(self, env4):
        d = pag.domination(env4, 1)
        assert d is not None and d.members == frozenset({0, 1})

    def test_env4_large_dominator(self, env4):
        d = pag.domination(env4, 3)
        assert d is not None and d.members == frozenset({1, 2, 3})

    def test_env4_weak_country(self, env4):
        assert pag.domination(env4, 0) is None

    def test_isolated_country_self_dominates(self):
        env = make_environment([1])
        d = pag.domination(env, 0)
        assert d is not None and d.members == frozenset({0})


class TestProtectorate:
    def test_env4_overwhelmed(self, env4):
        assert pag.protectorate(env4, 1) is None

    def test_no_relations_trivial(self):
        env = make_environment([1, 9], adversaries=[])
        p = pag.protectorate(env, 0)
        assert p is not None and p.members == frozenset({0})

    def test_weak_friend_covered(self):
        env = make_environment(
            [10, 1, 4], friends=[(0, 1)], adversaries=[(1, 2)]
        )
        p = pag.protectorate(env, 0)
        assert p is not None
        assert p.weak_friends == frozenset({1})
        assert p.threats == frozenset({2})
        assert p.members == frozenset({0, 1})

    def test_owner_summand_reading(self):
        # The condition adds the weak friend's power, not the owner's again.
        env = make_environment(
            [3, 1, 5], friends=[(0, 1)], adversaries=[(1, 2)]
        )
        assert pag.protectorate(env, 0) is None


class TestCover:
    def test_env4_spans_with_unique_verdicts(self, env4):
        report = pag.dp_cover(env4)
        assert report.spans
        assert [v.value for v in report.verdicts] == [
            "not-survives", "survives", "not-survives", "survives",
        ]

    def test_env2_undetermined(self, env2):
        report = pag.dp_cover(env2)
        assert not report.spans
        assert all(v is SurvivalVerdict.UNDETERMINED for v in report.verdicts)

    def test_isolated_country(self):
        report = pag.dp_cover(make_environment([3]))
        assert report.spans
        assert report.verdicts == (SurvivalVerdict.SURVIVES,)

    def test_mutual_dominators_conflict(self):
        env = make_environment([4, 4], adversaries=[(0, 1)])
        report = pag.dp_cover(env)
        assert report.spans
        assert set(report.verdicts) == {SurvivalVerdict.CONFLICT}

    def test_spanning_leaves_nothing_undetermined(self):
        env = make_environment(
            [5, 2, 2, 3], friends=[(1, 2)], adversaries=[(0, 1), (2, 3)]
        )
        report = pag.dp_cover(env)
        assert report.spans
        assert SurvivalVerdict.UNDETERMINED not in report.verdicts


# Two verified equilibria that contradict a spanning cover's verdicts, kept
# outside tests/data.  Miscoordination: on powers [5, 4, 4] with friends
# (v2, v3) and adversaries (v1, v3), v2's protectorate covers v3, yet when v1
# attacks v3 with 5, v3 gives its 4 to v2 and v2 keeps its 4, v3 is unsafe
# and neither friend can rescue it alone.  Equality boundary: on the
# complete rivalry [1, 2, 4, 1] the cover condemns v1, v2 and v4, yet the
# balancing equilibrium leaves all four precarious.
COVER_VERDICTS = {
    "cover_miscoordination.json": ("survives", "survives", "survives"),
    "cover_equality_boundary.json": ("not-survives", "not-survives", "survives", "not-survives"),
}


def _counterexample(name):
    return parse_scenario(json.loads((COUNTEREXAMPLES / name).read_text(encoding="utf-8")))


@pytest.mark.xfail(
    strict=True,
    reason=(
        "Source-theory defect: a spanning domination-protectorate cover's"
        " verdicts do not hold in every equilibrium. A protected country can"
        " be left unsafe when its protector miscoordinates, and countries"
        " the cover condemns survive, precarious, on an equality boundary;"
        " the companion test verifies both equilibria."
    ),
)
def test_cover_verdicts_hold_in_every_equilibrium():
    contradictions = []
    for name in COVER_VERDICTS:
        env, u = _counterexample(name)
        report = pag.dp_cover(env)
        assert report.spans
        assert pag.is_nash(env, u).ok
        for i, (verdict, state) in enumerate(zip(report.verdicts, pag.state_vector(env, u))):
            if (verdict is SurvivalVerdict.SURVIVES and not state.survives) or (
                verdict is SurvivalVerdict.NOT_SURVIVES and state.survives
            ):
                contradictions.append((name, env.names[i], verdict.value, state.value))
    assert not contradictions


@pytest.mark.parametrize("name", sorted(COVER_VERDICTS))
def test_cover_counterexamples_are_verified_equilibria(name, capsys):
    env, u = _counterexample(name)
    report = pag.dp_cover(env)
    assert report.spans
    assert tuple(v.value for v in report.verdicts) == COVER_VERDICTS[name]
    assert pag.validate_allocation(env, u) == []
    result = pag.is_nash(env, u)
    assert result.ok
    if name == "cover_miscoordination.json":
        assert result.states == (State.SAFE, State.SAFE, State.UNSAFE)
    else:
        assert u == pag.balancing_equilibrium(env)
        assert result.states == (State.PRECARIOUS,) * 4
    assert cli_main(["verify", str(COUNTEREXAMPLES / name)]) == 0
    capsys.readouterr()


_INDEXED = {
    "check_group_balance": lambda env, i: pag.check_group_balance(env, [i]),
    "check_clique_defense": lambda env, i: pag.check_clique_defense(env, [i]),
    "bipartite_safe_necessary": pag.bipartite_safe_necessary,
    "bipartite_safe_sufficient": pag.bipartite_safe_sufficient,
    "domination": pag.domination,
    "protectorate": pag.protectorate,
}


@pytest.mark.parametrize("bad", [-1, 3])
@pytest.mark.parametrize("name", _INDEXED)
def test_indices_outside_the_countries_are_rejected(name, bad):
    # Unchecked, -1 judges the last country and 3 raises a bare IndexError.
    env = make_environment([10, 3, 4], adversaries=[(0, 1), (0, 2)])
    with pytest.raises(ValidationError) as exc:
        _INDEXED[name](env, bad)
    assert exc.value.errors == [f"index {bad} out of range 0..2"]
