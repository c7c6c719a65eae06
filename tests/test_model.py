import dataclasses
import itertools
import json
import random
import sys
import threading
import types
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pag
from pag import State, ValidationError, make_environment, matrix_from_entries, model
from pag.cli import emit_scenario, main
from pag.model import sigma_tau, to_fraction

from conftest import (
    complete_rivalry,
    random_allocation,
    random_environment,
    random_sparse_scenario,
)

DATA = Path(__file__).parent / "data"


def test_to_fraction_accepts_exact_forms():
    assert to_fraction(3) == 3
    assert to_fraction("3/2") == Fraction(3, 2)
    assert to_fraction(Fraction(1, 7)) == Fraction(1, 7)


def test_to_fraction_rejects_floats_and_garbage():
    with pytest.raises(ValidationError, match=r"0\.5 \(floats are rejected\)"):
        to_fraction(0.5)
    with pytest.raises(ValidationError):
        to_fraction("not-a-number")
    with pytest.raises(ValidationError):
        to_fraction("1/0")
    for value, kind in (([1], "list"), (None, "NoneType"), ({"a": 1}, "dict")):
        with pytest.raises(ValidationError) as exc:
            to_fraction(value)
        assert exc.value.errors == [f"not a rational: {value!r} (type {kind})"]
        assert "float" not in str(exc.value)


def test_to_fraction_bounds_decimal_exponents():
    assert to_fraction("1e3") == 1000
    for value in ("1e5000", "1e-5000"):
        with pytest.raises(ValidationError, match="exponent"):
            to_fraction(value)


def test_to_fraction_shortens_echoed_values():
    # An int or Fraction beyond the digits str() prints is reported, not
    # echoed: its repr would raise a plain ValueError of its own.
    for value in ("7" * 5000, 10**5000, Fraction(1, 10**5000)):
        with pytest.raises(ValidationError) as exc:
            to_fraction(value)
        assert len(str(exc.value)) < 100
    with pytest.raises(ValidationError, match="power for 'v1'"):
        make_environment([10**5000])


def test_all_exports_resolve_and_none_is_a_module():
    for name in pag.__all__:
        assert not isinstance(getattr(pag, name), types.ModuleType), name
    for gone in ("support", "threat", "DeviationProblem", "model", "oracle"):
        assert gone not in pag.__all__
    for gone in ("support", "threat", "DeviationProblem"):
        assert not hasattr(pag, gone)


class TestValidateEnvironment:
    def test_env1_description_builds(self, env1):
        assert env1.n == 6
        assert env1.friends_of(1) == (2,)
        assert env1.adversaries_of(1) == (4,)
        assert env1.powers[0] == 19

    def test_conflicting_relation_reported(self):
        with pytest.raises(ValidationError, match="conflicting relation"):
            make_environment([1, 1], friends=[(0, 1)], adversaries=[(0, 1)])

    def test_negative_power_reported(self):
        with pytest.raises(ValidationError, match="negative power"):
            make_environment([-1, 2], adversaries=[(0, 1)])

    def test_duplicate_names_and_self_pair(self):
        with pytest.raises(ValidationError) as exc:
            pag.validate_environment(
                ["a", "a"], [1, 2], friends=[("a", "a")], adversaries=[]
            )
        joined = "; ".join(exc.value.errors)
        assert "duplicate name" in joined
        assert "self relation" in joined

    def test_indices_outside_the_countries_are_rejected(self):
        # Unchecked, a negative index counts from the end: (-1, 0) would
        # relate v2 and v1, and an allocation entry at (-1, 0) fill row v2.
        cases = [
            (lambda: make_environment([1, 2], adversaries=[(-1, 0)]), -1),
            (lambda: make_environment([1, 2], friends=[(0, 1), (2, 0)]), 2),
        ]
        env = make_environment([1, 2])
        for entry, bad in (((-1, 0), -1), ((2, 0), 2), ((0, -1), -1), ((1, 2), 2)):
            cases.append((lambda entry=entry: matrix_from_entries(env, {entry: 1}), bad))
        for build, bad in cases:
            with pytest.raises(ValidationError) as exc:
                build()
            assert exc.value.errors == [f"index {bad} out of range 0..1"]

    @pytest.mark.parametrize(
        "names,powers,message",
        [([], [], "no countries"), (["a", "b"], [1], "2 countries but 1 powers")],
    )
    def test_country_count_errors(self, names, powers, message):
        with pytest.raises(ValidationError) as exc:
            pag.validate_environment(names, powers)
        assert exc.value.errors == [message]

    def test_all_errors_collected_at_once(self):
        with pytest.raises(ValidationError) as exc:
            pag.validate_environment(
                ["a", "b"],
                [-1, "x"],
                friends=[("a", "b")],
                adversaries=[("a", "b"), ("a", "c")],
            )
        assert len(exc.value.errors) >= 3


class TestValidateAllocation:
    def test_fig1b_is_valid(self, env1, fig1b):
        assert pag.validate_allocation(env1, fig1b) == []

    def test_zero_matrix_reports_every_row(self, env2):
        errors = pag.validate_allocation(env2, matrix_from_entries(env2, {}))
        assert len(errors) == 3
        assert all("row sum" in e for e in errors)

    def test_alloc1_is_valid(self, env2, alloc1):
        assert pag.validate_allocation(env2, alloc1) == []

    def test_wrong_shape_reported(self, env2, alloc1):
        for u in (alloc1[:2], (alloc1[0][:2], *alloc1[1:])):
            assert pag.validate_allocation(env2, u) == ["matrix must be 3x3"]

    def test_null_relation_cell_rejected(self, env1):
        u = matrix_from_entries(env1, {(0, 3): 18, (0, 1): 1, (3, 0): 15,
                                       (1, 4): 3, (4, 1): 3, (2, 5): 6, (5, 2): 9})
        errors = pag.validate_allocation(env1, u)
        assert any("no relation" in e for e in errors)

    def test_row_sum_deficit_reported(self, env2):
        u = matrix_from_entries(env2, {(0, 0): 7, (1, 1): 6, (2, 2): 4})
        errors = pag.validate_allocation(env2, u)
        assert any("deficit 1" in e for e in errors)

    def test_exact_error_list_and_order(self, env4):
        # env4: friends v2-v3, adversaries v1-v2 and v3-v4.  Zeros come both
        # as Fraction(0) and as int 0; neither may add or move a message.
        F = Fraction
        u = (
            (F(2), F(-1), 0, F(-1)),  # negative on- and off-relation, sum 0
            (F(0), F(1), F(1), 0),  # valid
            (F(1, 2), 0, F(1, 2), F(0)),  # positive off-relation entry
            (0, F(0), F(5), F(14)),  # deficit 1
        )
        assert pag.validate_allocation(env4, u) == [
            "negative entry v1->v2",
            "negative entry v1->v4",
            "nonzero entry v1->v4 with no relation",
            "row sum for v1 is 0, expected 1 (deficit 1)",
            "nonzero entry v3->v1 with no relation",
            "row sum for v4 is 19, expected 20 (deficit 1)",
        ]


    def test_cells_without_relation_counted_not_visited(self):
        # Count pin without timing: one zero object fills every zero cell.
        # Validation may touch it once per row plus once per relation cell,
        # n + (n + 2E) times, never once per cell of the n-by-n matrix.
        calls = 0

        class CountingZero(Fraction):
            def __bool__(self):
                nonlocal calls
                calls += 1
                return False

            def __eq__(self, other):
                nonlocal calls
                calls += 1
                return Fraction.__eq__(self, other)

            __hash__ = Fraction.__hash__

        env, u = random_sparse_scenario(random.Random(400), 400)
        zero = CountingZero(0)
        v = tuple(tuple(x if x else zero for x in row) for row in u)
        calls = 0
        assert pag.validate_allocation(env, v) == []
        relations = len(env.friends) + len(env.adversaries)
        assert calls <= env.n + (env.n + 2 * relations)


def _reference_errors(env, u):
    # Brute force over every cell, in the documented order.
    errors = []
    for i, row in enumerate(u):
        total = Fraction(0)
        for j, value in enumerate(row):
            if value < 0:
                errors.append(f"negative entry {env.names[i]}->{env.names[j]}")
            if value != 0 and j not in env.row_support(i):
                errors.append(f"nonzero entry {env.names[i]}->{env.names[j]} with no relation")
            total += value
        if total != env.powers[i]:
            errors.append(
                f"row sum for {env.names[i]} is {total}, expected {env.powers[i]}"
                f" (deficit {env.powers[i] - total})"
            )
    return errors


# Any nonzero entry over one of these keeps a denominator above 2^64 once
# reduced, so the common denominator is past 2^64; over the small ones it
# is at most 84.
HUGE_DENOMINATORS = (10**21 + 1, 10**22 + 3)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 30), st.booleans())
def test_validate_allocation_matches_brute_force(seed, huge):
    # Rows whose zeros are distinct objects or ints, rows that reuse one
    # nonzero object off their relations, and rows with a negative entry
    # off their relations: the error list must equal a cell-by-cell scan,
    # at small and at huge common denominators.
    rng = random.Random(seed)
    denominators = HUGE_DENOMINATORS if huge else (1, 2, 3, 7, 12)
    env, u = random_sparse_scenario(rng, rng.randint(5, 30), denominators=denominators)
    reused = Fraction(rng.randint(1, 5), rng.choice((1, 2, 7)))
    rows = []
    for i, row in enumerate(u):
        row = list(row)
        off = [j for j in range(env.n) if j not in env.row_support(i)]
        kind = rng.randrange(4)
        if kind == 1:
            row = [x if x else rng.choice((Fraction(0), 0)) for x in row]
        elif kind == 2 and off:
            for j in rng.sample(off, rng.randint(1, len(off))):
                row[j] = reused
        elif kind == 3 and off:
            row[rng.choice(off)] = Fraction(-rng.randint(1, 4), rng.choice((1, 3)))
        rows.append(tuple(row))
    v = tuple(rows)
    assert pag.validate_allocation(env, v) == _reference_errors(env, v)


def test_valid_matrix_is_validated_without_fraction_addition():
    # A valid row is decided on the integer units of its cells; only a
    # failing row is summed as Fractions.
    additions = 0

    class CountingFraction(Fraction):
        def __add__(self, other):
            nonlocal additions
            additions += 1
            return Fraction.__add__(self, other)

        def __radd__(self, other):
            nonlocal additions
            additions += 1
            return Fraction.__radd__(self, other)

    env, u = random_sparse_scenario(random.Random(400), 400)
    v = tuple(tuple(CountingFraction(x) if x else x for x in row) for row in u)
    assert pag.validate_allocation(env, v) == []
    assert additions == 0
    CountingFraction(1) + 1
    assert additions == 1  # the counter sees an addition


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 30))
def test_row_support_is_cached_per_environment(seed):
    rng = random.Random(seed)
    env = random_environment(rng, rng.randint(1, 8), max_power=5)

    def expected(e, i):
        return tuple(sorted((i, *e.friends_of(i), *e.adversaries_of(i))))

    for i in range(env.n):
        assert env.row_support(i) == expected(env, i)
        assert env.row_support(i) is env.row_support(i)
        # Validation's first column with no relation (n when there is none).
        assert env._first_off[i] == min(set(range(env.n + 1)) - set(expected(env, i)))
    free = [p for p in itertools.combinations(range(env.n), 2) if p not in env.friends]
    other = dataclasses.replace(
        env, adversaries=frozenset(rng.sample(free, rng.randint(0, len(free))))
    )
    for i in range(other.n):
        related = {j for pair in other.friends | other.adversaries if i in pair for j in pair}
        assert other.row_support(i) == expected(other, i) == tuple(sorted(related | {i}))
        assert other._first_off[i] == min(set(range(other.n + 1)) - related - {i})


# Row v1 of an admissible allocation with a diagonal, a friend and an
# adversary cell: 1, 1 and 0.
_CELL_ENV = make_environment([2, 2, 2], friends=[(0, 1)], adversaries=[(0, 2)])
_CELL_ALLOC = matrix_from_entries(_CELL_ENV, {(0, 0): 1, (0, 1): 1, (1, 1): 2, (2, 2): 2})


# The same rows behind country v0, whose reserve, its whole power
# 1/(10^21 + 1), puts the common denominator past 2^64 before any of their
# cells is read, powers or none.
_LEAD = Fraction(1, 10**21 + 1)
_LEAD_ENV = make_environment(
    [_LEAD, 2, 2, 2], friends=[(1, 2)], adversaries=[(1, 3)], names=["v0", "v1", "v2", "v3"]
)


def _with_cell(j, value):
    rows = [list(row) for row in _CELL_ALLOC]
    rows[0][j] = value
    return tuple(tuple(row) for row in rows)


def _led(u):
    return ((_LEAD, 0, 0, 0),) + tuple((0, *row) for row in u)


def _checks(u, env=_CELL_ENV):
    v1 = env.index("v1")
    return (
        lambda: pag.validate_allocation(env, u),
        lambda: pag.is_nash(env, u),
        lambda: pag.best_deviation(env, u, v1),
        lambda: pag.state_vector(env, u),
    )


@pytest.mark.parametrize("column", [0, 1, 2], ids=["diagonal", "friend", "adversary"])
@pytest.mark.parametrize("value", [0.0, 1.0, 0.5, Decimal(1), Decimal("0.5")], ids=repr)
def test_relation_cells_must_be_exact_rationals(column, value):
    # A float or a Decimal in a cell the verifier reads raises, even where
    # its value equals the exact cell's (1.0 on the diagonal, 0.0 on the
    # adversary): none may be read as the rational it happens to equal, at
    # a small common denominator or past 2^64.
    u = _with_cell(column, value)
    for check in (*_checks(u), *_checks(_led(u), _LEAD_ENV)):
        with pytest.raises((AttributeError, TypeError)):
            check()


@pytest.mark.parametrize("value", [2.0, 0.5, Decimal(2), Decimal("0.5")], ids=repr)
def test_powers_must_be_exact_rationals(value):
    # The same for a power in an Environment built without validation: the
    # checks that read the powers raise rather than decide on its value.
    for env, u in ((_CELL_ENV, _CELL_ALLOC), (_LEAD_ENV, _led(_CELL_ALLOC))):
        v1 = env.index("v1")
        powers = list(env.powers)
        powers[v1] = value
        for check in _checks(u, dataclasses.replace(env, powers=tuple(powers)))[:3]:
            with pytest.raises(AttributeError):
                check()


@pytest.mark.parametrize("column", [0, 1, 2], ids=["diagonal", "friend", "adversary"])
def test_int_and_fraction_subclass_cells_are_accepted(column):
    class Exact(Fraction):
        pass

    expected = [check() for check in _checks(_CELL_ALLOC)]
    assert expected[0] == []
    value = _CELL_ALLOC[0][column]
    for cell in (int(value), Exact(value)):
        assert [check() for check in _checks(_with_cell(column, cell))] == expected


def test_random_sparse_scenario_rejects_more_pairs_than_exist():
    # Mean degree 3 asks three countries for round(4.5) = 4 of their 3 pairs.
    rng = random.Random(0)
    state = rng.getstate()
    with pytest.raises(ValueError, match="4 distinct pairs asked of 3 countries"):
        random_sparse_scenario(rng, 3)
    assert rng.getstate() == state


class TestSupportThreat:
    def test_alloc1_support_of_first(self, env2, alloc1):
        assert sigma_tau(env2, alloc1)[0][0] == 8

    def test_fig1b_support_of_fourth(self, env1, fig1b):
        assert sigma_tau(env1, fig1b)[0][3] == 15

    def test_all_reserve_support_is_own_power(self, env2):
        u = matrix_from_entries(env2, {(0, 0): 8, (1, 1): 6, (2, 2): 4})
        assert sigma_tau(env2, u)[0] == env2.powers

    def test_alloc1_threat_of_second(self, env2, alloc1):
        assert sigma_tau(env2, alloc1)[1][1] == 8

    def test_fig4_threat_of_third(self, env4, fig4):
        assert sigma_tau(env4, fig4)[1][2] == 5

    def test_no_adversaries_means_zero_threat(self):
        env = make_environment([5, 5], friends=[(0, 1)])
        u = matrix_from_entries(env, {(0, 0): 5, (1, 1): 5})
        assert sigma_tau(env, u)[1][0] == 0


class TestStateVector:
    def test_alloc1_states(self, env2, alloc1):
        assert [s.value for s in pag.state_vector(env2, alloc1)] == [
            "safe", "unsafe", "unsafe",
        ]

    def test_fig1b_states(self, env1, fig1b):
        assert [s.value for s in pag.state_vector(env1, fig1b)] == [
            "safe", "precarious", "unsafe", "unsafe", "precarious", "safe",
        ]

    def test_fig4_states(self, env4, fig4):
        assert [s.value for s in pag.state_vector(env4, fig4)] == [
            "unsafe", "safe", "unsafe", "safe",
        ]

    def test_survives(self):
        assert State.SAFE.survives and State.PRECARIOUS.survives
        assert not State.UNSAFE.survives


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 30))
def test_conservation_of_support(seed):
    # Every allocated unit lands in exactly one support term.
    rng = random.Random(seed)
    env = random_environment(rng, rng.randint(1, 5), max_power=9, min_power=0)
    u = random_allocation(rng, env, denominator=rng.choice([1, 2, 4]))
    sigmas, taus = sigma_tau(env, u)
    assert sum(sigmas) == sum(env.powers)
    assert Fraction(0) <= sum(taus) <= sum(env.powers)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 30), st.integers(1, 9), st.integers(1, 9))
def test_states_invariant_under_rescaling(seed, num, den):
    rng = random.Random(seed)
    env = random_environment(rng, rng.randint(1, 4), max_power=6, min_power=0)
    u = random_allocation(rng, env, denominator=2)
    scale = Fraction(num, den)
    scaled_env = make_environment(
        [p * scale for p in env.powers],
        friends=env.friends,
        adversaries=env.adversaries,
    )
    scaled_u = tuple(tuple(x * scale for x in row) for row in u)
    assert pag.state_vector(env, u) == pag.state_vector(scaled_env, scaled_u)


# -- the scaled view kept for the last allocation ------------------------------


@pytest.fixture
def scalings(monkeypatch):
    """The (env, u) of every scaling pass made while the test runs, from an
    empty slot."""
    calls = []
    scale = model._scale

    def counted(env, u):
        calls.append((env, u))
        return scale(env, u)

    monkeypatch.setattr(model, "_last_scaled", [(None, None, None)])
    monkeypatch.setattr(model, "_scale", counted)
    return calls


def _copy(u):
    """An equal matrix made of new tuples."""
    return tuple([tuple(list(row)) for row in u])


def test_checks_of_one_allocation_scale_it_once(scalings):
    env, u = random_sparse_scenario(random.Random(3), 40, denominators=(1, 2, 3))
    pag.validate_allocation(env, u)
    pag.is_nash(env, u)
    pag.best_deviation(env, u, 0)
    pag.state_vector(env, u)
    assert len(scalings) == 1
    pag.is_nash(env, _copy(u))
    assert len(scalings) == 2


@pytest.mark.parametrize("command", ["verify", "evaluate"])
@pytest.mark.parametrize("scenario", ["env2_alloc1.json", "env1_fig1b.json", "fractional"])
def test_cli_checks_scale_the_allocation_once(command, scenario, scalings, capsys, tmp_path):
    if scenario == "fractional":
        env, u = random_sparse_scenario(random.Random(4), 60, denominators=(1, 2, 3, 7))
        path = tmp_path / "fractional.json"
        path.write_text(json.dumps(emit_scenario(env, u)))
    else:
        path = DATA / scenario
    assert main([command, str(path)]) in (0, 1)
    capsys.readouterr()
    assert len(scalings) == 1
    # The command's allocation is not kept once it returns.
    assert model._last_scaled[0] == (None, None, None)


def test_constructor_checks_scale_each_allocation_once(env2, env3, scalings):
    pag.balancing_equilibrium(complete_rivalry([3, 4, 5]))
    assert len(scalings) == 1
    pag.sole_survivor_equilibrium(env2, 0)
    assert len(scalings) == 2
    # The bipartite-safe search checks each allocation it builds or repairs
    # with is_nash and the last one with validate_allocation too.
    pag.bipartite_safe_equilibrium(env3, 2)
    allocations = [u for _, u in scalings]
    assert len({id(u) for u in allocations}) == len(allocations) > 2


@pytest.mark.parametrize("outer", [list, tuple])
def test_a_matrix_with_list_rows_is_scaled_on_every_check(outer, env2, alloc1, scalings):
    # v1 moves everything to reserve between the checks: still admissible,
    # but no longer an equilibrium.
    reserve = (Fraction(8), Fraction(0), Fraction(0))
    expected = pag.is_nash(env2, (reserve, *alloc1[1:]))
    assert expected != pag.is_nash(env2, alloc1)
    u = outer([list(row) for row in alloc1])
    assert pag.validate_allocation(env2, u) == []
    u[0][:] = reserve
    assert pag.is_nash(env2, u) == expected
    assert pag.state_vector(env2, u) == expected.states
    u[0][0] = Fraction(9)
    assert pag.validate_allocation(env2, u) == [
        "row sum for v1 is 9, expected 8 (deficit -1)"
    ]


class _Exact(Fraction):
    pass


@pytest.mark.parametrize(
    "scenario",
    [
        lambda: (_CELL_ENV, tuple([list(_CELL_ALLOC[0]), *_CELL_ALLOC[1:]])),
        lambda: (_CELL_ENV, _with_cell(0, True)),
        lambda: (_CELL_ENV, _with_cell(1, _Exact(1))),
        lambda: (dataclasses.replace(_CELL_ENV, powers=list(_CELL_ENV.powers)), _CELL_ALLOC),
    ],
    ids=["list row", "bool cell", "Fraction-subclass cell", "list of powers"],
)
def test_a_matrix_the_slot_may_not_keep_is_scaled_on_every_check(scenario, scalings):
    env, u = scenario()
    expected = [check() for check in _checks(_copy(u), _CELL_ENV)]
    scalings.clear()
    assert [check() for check in _checks(u, env)] == expected
    assert len(scalings) == len(expected)
    assert model._last_scaled[0] == (None, None, None)


def test_the_same_matrix_under_another_environment_is_scaled_again(env2, alloc1, scalings):
    assert pag.validate_allocation(env2, alloc1) == []
    assert pag.is_nash(env2, alloc1).ok
    shifted = dataclasses.replace(env2, powers=tuple(p + Fraction(1, 2) for p in env2.powers))
    errors = pag.validate_allocation(shifted, alloc1)
    result = pag.is_nash(shifted, alloc1)
    assert [env for env, u in scalings if u is alloc1] == [env2, shifted]
    assert errors == pag.validate_allocation(shifted, _copy(alloc1))
    assert errors == [
        f"row sum for {name} is {p}, expected {p + Fraction(1, 2)} (deficit 1/2)"
        for name, p in zip(env2.names, env2.powers)
    ]
    assert result == pag.is_nash(shifted, _copy(alloc1))


@pytest.mark.parametrize("value", [1.0, Decimal(1)], ids=repr)
def test_an_inexact_cell_raises_on_every_check(value, scalings):
    u = _with_cell(0, value)
    for _ in range(2):
        assert pag.validate_allocation(_CELL_ENV, _CELL_ALLOC) == []
        for check in (*_checks(u), *_checks(u)):
            with pytest.raises((AttributeError, TypeError)):
                check()


def test_the_slot_keeps_the_last_exact_allocation_alone(env2, alloc1, alloc2, scalings):
    pag.validate_allocation(env2, alloc1)
    kept_env, kept_u, _ = model._last_scaled[0]
    assert kept_env is env2 and kept_u is alloc1
    # A matrix the slot may not keep still empties it, so it never holds
    # an allocation the caller has moved past.
    pag.validate_allocation(env2, [list(row) for row in alloc2])
    assert model._last_scaled[0] == (None, None, None)


def test_threads_checking_two_matrices_get_the_serial_results():
    # Four threads, more than a 2-core host has cores, half of them starting
    # on each matrix and each alternating between the two, so the slot is
    # replaced under every reader.
    rng = random.Random(5)
    scenarios = [random_sparse_scenario(rng, 12, denominators=(1, 2, 3)) for _ in range(2)]

    def check(env, u):
        return pag.validate_allocation(env, u), pag.is_nash(env, u), pag.state_vector(env, u)

    expected = [check(env, u) for env, u in scenarios]
    agreed = [0] * 4

    def worker(k):
        for step in range(1000):
            which = (k + step) % 2
            agreed[k] += check(*scenarios[which]) == expected[which]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker, args=(k,)) for k in range(len(agreed))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert agreed == [1000] * len(agreed)
