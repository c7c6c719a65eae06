import gc
import random
import re
from decimal import Decimal
from fractions import Fraction

import pytest

import pag
from pag import EnumerationTooLarge, GridSpec, make_environment
from pag.equilibrium import _decide
from pag.model import State, ValidationError, sigma_tau, state_of
from pag.oracle import MAX_CANDIDATES, candidate_count

from conftest import random_bipartite_environment, random_environment
from reference import brute_force_atlas, grid_candidates, grid_profitable_deviation


@pytest.fixture
def fractional_env():
    return make_environment(
        [Fraction(5, 4), Fraction(3, 2), Fraction(3, 4)],
        friends=[(0, 1)],
        adversaries=[(0, 2), (1, 2)],
    )


@pytest.fixture
def chain8():
    """A chain of 8: powers 2, 3, 2, ...; pair (i, i+1) a friendship when
    i = 0 mod 3, a rivalry otherwise."""
    return make_environment(
        [2 if i % 2 == 0 else 3 for i in range(8)],
        friends=[(i, i + 1) for i in range(7) if i % 3 == 0],
        adversaries=[(i, i + 1) for i in range(7) if i % 3 != 0],
    )


def _path_environment(rng, n):
    """n countries of power 0-3 related along a random path, and by one more
    random pair half the time, so that most pairs are more than distance 2
    apart; each relation is a friendship with probability 0.3."""
    countries = list(range(n))
    rng.shuffle(countries)
    pairs = {tuple(sorted(pair)) for pair in zip(countries, countries[1:])}
    if rng.random() < 0.5:
        pairs.add(tuple(sorted(rng.sample(countries, 2))))
    friends = [pair for pair in sorted(pairs) if rng.random() < 0.3]
    adversaries = [pair for pair in sorted(pairs) if pair not in friends]
    powers = [rng.randint(0, 3) for _ in range(n)]
    return make_environment(powers, friends=friends, adversaries=adversaries)


def _classes(atlas):
    """(candidates checked, classes) in `reference.brute_force_atlas`'s form."""
    return atlas.candidates_checked, [(cls.states, cls.members) for cls in atlas.classes]


class TestGridSpec:
    def test_positive_step_required(self):
        with pytest.raises(ValidationError, match="^step must be positive$"):
            GridSpec(step=Fraction(0))

    def test_step_must_divide_powers(self, env2):
        with pytest.raises(
            ValidationError, match=r"^step 3 does not divide the power of v1 \(8\)$"
        ):
            candidate_count(env2, Fraction(3))

    def test_candidate_count(self, env2):
        # Rows are compositions of 8, 6, 4 into three parts each.
        assert candidate_count(env2, Fraction(1)) == 45 * 28 * 15

    def test_enumeration_too_large(self, env2):
        with pytest.raises(EnumerationTooLarge) as exc:
            pag.find_equilibria(env2, GridSpec(step=Fraction(1, 8), max_candidates=10 ** 6))
        assert isinstance(exc.value, ValidationError)
        assert exc.value.count > 10 ** 6 and exc.value.bound == 10 ** 6
        assert exc.value.errors == ["the grid's candidate matrices exceed the bound of 1000000"]

    def test_bound_check_stops_once_passed(self):
        # At a step of 10**-300 the first row alone passes the bound: it
        # splits 10**300 units between country 0 and its one adversary.
        # The check stops there, and the count it carries is that row's.
        env = make_environment([1] * 50, adversaries=[(i, i + 1) for i in range(49)])
        step = Fraction(1, 10 ** 300)
        with pytest.raises(EnumerationTooLarge) as exc:
            pag.find_equilibria(env, GridSpec(step=step))
        assert exc.value.count == 10 ** 300 + 1
        assert len(str(exc.value)) < 200
        assert candidate_count(env, step) > exc.value.count

    @pytest.mark.parametrize("bound", [0, -1, MAX_CANDIDATES + 1])
    def test_candidate_bound_out_of_range(self, bound):
        message = f"^max_candidates must be between 1 and {MAX_CANDIDATES}$"
        with pytest.raises(ValidationError, match=message):
            GridSpec(step=Fraction(1), max_candidates=bound)

    @pytest.mark.parametrize("bound", ["5", None, 1.5, True], ids=repr)
    def test_candidate_bound_must_be_an_int(self, bound):
        # Unchecked, a str or None bound fails its comparison with a bare
        # TypeError, and 1.5 or True passes.
        with pytest.raises(ValidationError) as exc:
            GridSpec(step=Fraction(1), max_candidates=bound)
        assert exc.value.errors == [f"max_candidates must be an int: {bound!r}"]

    def test_int_step_is_stored_as_a_fraction(self, env4):
        # An int step gives the atlas of the equal Fraction step, whose
        # members hold only Fractions.
        spec = GridSpec(step=1)
        assert type(spec.step) is Fraction and spec == GridSpec(step=Fraction(1))
        atlas = pag.find_equilibria(env4, spec)
        assert atlas == pag.find_equilibria(env4, GridSpec(step=Fraction(1)))
        entries = [x for cls in atlas.classes for m in cls.members for row in m for x in row]
        assert entries and all(type(x) is Fraction for x in entries)

    @pytest.mark.parametrize("step", [0.5, Decimal("0.5"), True], ids=["float", "decimal", "bool"])
    def test_inexact_step_rejected(self, step):
        with pytest.raises(ValidationError):
            GridSpec(step=step)

    @pytest.mark.parametrize(
        "step, error",
        [
            (0.5, ValidationError),
            (Decimal("0.5"), ValidationError),
            (True, ValidationError),
            (0, ValueError),
            (-1, ValueError),
        ],
        ids=["float", "decimal", "bool", "zero", "negative"],
    )
    def test_candidate_count_parses_its_step_as_gridspec(self, env2, step, error):
        with pytest.raises(error) as exc:
            GridSpec(step=step)
        with pytest.raises(error, match=re.escape(str(exc.value))):
            candidate_count(env2, step)

    def test_candidate_count_accepts_any_exact_step(self, env2):
        half = candidate_count(env2, Fraction(1, 2))
        assert candidate_count(env2, "1/2") == half == 153 * 91 * 45
        assert candidate_count(env2, 1) == candidate_count(env2, Fraction(1))

    def test_candidate_bound_limits_accepted(self):
        assert GridSpec(step=Fraction(1), max_candidates=1).max_candidates == 1
        assert GridSpec(step=Fraction(1)).max_candidates == MAX_CANDIDATES


class TestFindEquilibria:
    def test_env2_contains_three_survivor_classes(self, env2, alloc1, alloc2, alloc3):
        atlas = pag.find_equilibria(env2, GridSpec(step=Fraction(1)))
        found = {tuple(s.value for s in cls.states) for cls in atlas.classes}
        assert ("safe", "unsafe", "unsafe") in found
        assert ("unsafe", "safe", "unsafe") in found
        assert ("unsafe", "unsafe", "safe") in found
        # The three reference allocations themselves sit in the atlas.
        members = {m for cls in atlas.classes for m in cls.members}
        assert {alloc1, alloc2, alloc3} <= members

    def test_env4_unique_class(self, env4):
        atlas = pag.find_equilibria(env4, GridSpec(step=Fraction(1)))
        assert len(atlas.classes) == 1
        assert [s.value for s in atlas.classes[0].states] == [
            "unsafe", "safe", "unsafe", "safe",
        ]

    def test_env3_step_one_atlas(self, env3):
        # Example three's environment at step 1: the candidate count, every
        # class in canonical order and its size, as found when the decision
        # still read support and threat as two vectors.
        atlas = pag.find_equilibria(env3, GridSpec(step=Fraction(1)))
        assert atlas.candidates_checked == 185_220
        assert atlas.total == 350
        assert [
            ("".join(s.value[0] for s in cls.states), len(cls.members)) for cls in atlas.classes
        ] == [("ussu", 35), ("usus", 15), ("uusu", 210), ("uuus", 90)]

    def test_single_country(self):
        atlas = pag.find_equilibria(make_environment([3]), GridSpec(step=Fraction(1)))
        assert atlas.total == 1
        assert atlas.classes[0].states == (State.SAFE,)
        empty = pag.find_equilibria(make_environment([0]), GridSpec(step=Fraction(1)))
        assert empty.classes[0].states == (State.PRECARIOUS,)

    def test_every_member_is_valid_and_nash(self, env4, env2):
        # Each member's class is the state vector of the member itself.
        for env in (env4, env2):
            atlas = pag.find_equilibria(env, GridSpec(step=Fraction(1)))
            rng = random.Random(5)
            sample = rng.sample(
                [(cls, m) for cls in atlas.classes for m in cls.members], 20
            )
            for cls, u in sample:
                assert pag.validate_allocation(env, u) == []
                assert pag.is_nash(env, u).ok
                assert pag.state_vector(env, u) == cls.states

    def test_members_stable_against_grid_brute_force(self, env4):
        # Independent route: no country has a category-rule improvement on
        # a finer deviation grid than the enumeration grid.
        atlas = pag.find_equilibria(env4, GridSpec(step=Fraction(1)))
        u = atlas.classes[0].members[0]
        for i in range(env4.n):
            assert grid_profitable_deviation(env4, u, i, Fraction(1, 2)) is None

    def test_refinement_keeps_coarse_equilibria(self):
        # The checker is grid independent, so step-1 equilibria must appear
        # unchanged in the half-step atlas.
        env = make_environment([4, 3, 2], adversaries=[(0, 1), (0, 2), (1, 2)])
        coarse = pag.find_equilibria(env, GridSpec(step=Fraction(1)))
        fine = pag.find_equilibria(
            env, GridSpec(step=Fraction(1, 2), max_candidates=10 ** 7)
        )
        coarse_members = {m for cls in coarse.classes for m in cls.members}
        fine_members = {m for cls in fine.classes for m in cls.members}
        assert coarse_members <= fine_members


class TestIntegerKernel:
    @pytest.mark.parametrize(
        "name,step",
        [("env4", Fraction(1)), ("env2", Fraction(1)), ("fractional_env", Fraction(1, 4))],
    )
    def test_atlas_equals_fraction_brute_force(self, name, step, request):
        # Reference atlas built from Fraction matrices and the public
        # verifier, never through the oracle's integer units.
        env = request.getfixturevalue(name)
        atlas = pag.find_equilibria(env, GridSpec(step=step))
        assert _classes(atlas) == brute_force_atlas(env, step)

    def test_atlas_equals_brute_force_on_random_environments(self):
        # Seeded 1-4 country environments, powers 0-6: the oracle's classes,
        # members and their order equal a reference built from Fraction
        # matrices and the public verifier.  Only environments with some
        # relation count towards the 30.
        rng = random.Random(606)
        checked = 0
        while checked < 30:
            env = random_environment(rng, rng.randint(1, 4), 6, min_power=0)
            step = rng.choice([Fraction(1), Fraction(1, 2)])
            if candidate_count(env, step) > 3000:
                continue
            checked += bool(env.friends or env.adversaries)
            atlas = pag.find_equilibria(env, GridSpec(step=step))
            assert _classes(atlas) == brute_force_atlas(env, step)

    def test_atlas_equals_brute_force_on_sparse_environments(self):
        # Seeded sparse 5-6 country environments, powers 0-3, where the search
        # decides countries before the last row and skips subtrees: the
        # classes, members and their order still equal the reference's.
        rng = random.Random(24)
        checked = 0
        while checked < 8:
            env = _path_environment(rng, rng.randint(5, 6))
            if candidate_count(env, Fraction(1)) > 20_000:
                continue
            checked += 1
            atlas = pag.find_equilibria(env, GridSpec(step=Fraction(1)))
            assert _classes(atlas) == brute_force_atlas(env, Fraction(1))

    @pytest.mark.parametrize(
        "name,candidates,members,classes,most_calls",
        [("chain8", 2_592_000, 8040, 43, 643_568), ("env3", 185_220, 350, 4, 187_407)],
        ids=["chain8", "env3"],
    )
    def test_search_decides_within_the_pinned_calls(
        self, name, candidates, members, classes, most_calls, request, monkeypatch
    ):
        # Each country is decided once the rows within distance 2 of it are
        # placed, and a rejected prefix is not extended, so most of the
        # chain's candidates are never decided one by one.  A country that
        # rejects a row is asked first on the next one: asking in a fixed
        # order takes 860,203 calls on the chain and 269,752 on env3.
        calls = []

        def counted(*args):
            calls.append(None)
            return _decide(*args)

        monkeypatch.setattr(pag.oracle, "_decide", counted)
        atlas = pag.find_equilibria(request.getfixturevalue(name), GridSpec(step=Fraction(1)))
        assert atlas.candidates_checked == candidates
        assert (atlas.total, len(atlas.classes)) == (members, classes)
        assert len(calls) <= most_calls

    def test_search_leaves_no_reference_cycle(self, env4, fractional_env):
        # Nothing a call builds waits for the cyclic collector.
        gc.collect()
        gc.disable()
        try:
            pag.find_equilibria(env4, GridSpec(step=Fraction(1)))
            pag.find_equilibria(fractional_env, GridSpec(step=Fraction(1, 4)))
            assert gc.collect() == 0
        finally:
            gc.enable()

    @pytest.mark.parametrize("name,step", [("env4", Fraction(1)), ("fractional_env", Fraction(1, 4))])
    def test_deciding_every_country_agrees_with_is_nash(self, name, step, request):
        # The oracle may decide countries in any order: some country deviates
        # exactly when is_nash says so, and the deviators are is_nash's.
        env = request.getfixturevalue(name)
        for u in grid_candidates(env, step):
            sigmas, taus = sigma_tau(env, u)
            margins = tuple(s - t for s, t in zip(sigmas, taus))
            deviators = [
                i for i in range(env.n) if _decide(env, env.powers, u[i], i, margins) is not None
            ]
            result = pag.is_nash(env, u)
            assert result.ok == (not deviators)
            assert [dev.country for dev in result.deviations] == deviators
            for i in deviators:
                assert pag.best_deviation(env, u, i) is not None

    def test_support_and_threat_summed_once_per_row(self, env2, monkeypatch):
        # One sigma_tau call per candidate row (45 + 28 + 15 on env2), none
        # per candidate, and no state_vector call at all.
        calls = {"sigma_tau": 0, "state_vector": 0}
        for module in (pag.oracle, pag.equilibrium):
            for name in calls:
                original = getattr(pag.model, name)

                def counted(*args, _name=name, _original=original):
                    calls[_name] += 1
                    return _original(*args)

                monkeypatch.setattr(module, name, counted, raising=False)
        atlas = pag.find_equilibria(env2, GridSpec(step=Fraction(1)))
        assert atlas.candidates_checked == 45 * 28 * 15
        assert calls["sigma_tau"] <= 45 + 28 + 15
        assert calls["state_vector"] == 0

    def test_states_built_only_for_members(self, env2, monkeypatch):
        # A rejected candidate is decided on its margins alone, so state_of
        # runs once per distinct margin among the members (15 on env2 at
        # step 1), not once per distinct margin among all candidates (19).
        calls = []

        def counted(sigma, tau):
            calls.append(sigma - tau)
            return state_of(sigma, tau)

        monkeypatch.setattr(pag.oracle, "state_of", counted)
        atlas = pag.find_equilibria(env2, GridSpec(step=Fraction(1)))
        member_margins = {
            s - t
            for cls in atlas.classes
            for m in cls.members
            for s, t in zip(*sigma_tau(env2, m))
        }
        assert len(calls) == len(set(calls)) == len(member_margins) == 15
        assert set(calls) == member_margins

    def test_members_hold_only_fractions(self, env2, env4, fractional_env):
        for env, step in ((env2, Fraction(1)), (env4, Fraction(1)), (fractional_env, Fraction(1, 4))):
            atlas = pag.find_equilibria(env, GridSpec(step=step))
            entries = [x for cls in atlas.classes for m in cls.members for row in m for x in row]
            assert entries and all(type(x) is Fraction for x in entries)


class TestAgainstEnvironmentConditions:
    def test_failed_necessary_condition_blocks_safety_on_grid(self):
        # Contrapositive of the necessary bipartite condition: an adversary
        # stronger than all of its own adversaries combined can always
        # afford to flip the country, so no equilibrium of the step-1 grid
        # leaves it safe.
        rng = random.Random(31)
        checked = 0
        while checked < 12:
            env = random_bipartite_environment(rng, max_n=4, max_power=5)
            doomed = [
                i
                for i in range(env.n)
                if env.adversaries_of[i] and not pag.bipartite_safe_necessary(env, i)
            ]
            if not doomed or pag.candidate_count(env, Fraction(1)) > 100_000:
                continue
            atlas = pag.find_equilibria(env, GridSpec(step=Fraction(1)))
            # An empty atlas would pass vacuously.
            if not atlas.classes:
                continue
            checked += 1
            for cls in atlas.classes:
                for i in doomed:
                    assert cls.states[i] is not State.SAFE

    def test_spanning_cover_prediction_can_disagree_with_oracle(self):
        # Documented defect of the unique-prediction guarantee: a dominator
        # pinned defending its weak friend cannot always execute its
        # domination, so the cover's verdicts are not binding.  Pinned here
        # so the disagreement stays visible.
        env = make_environment(
            [5, 4, 1], friends=[(0, 2)], adversaries=[(0, 1), (1, 2)]
        )
        report = pag.dp_cover(env)
        assert report.spans
        atlas = pag.find_equilibria(env, GridSpec(step=Fraction(1)))
        survive_bits = {
            i: {cls.states[i].survives for cls in atlas.classes}
            for i in range(env.n)
        }
        # The dominated country survives in some classes despite the verdict.
        assert report.verdicts[1].value == "not-survives"
        assert survive_bits[1] == {False, True}
