import argparse
import errno
import io
import itertools
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from math import lcm
from pathlib import Path

import pytest

import pag
from pag import cli
from pag.cli import emit_scenario, main, parse_scenario
from pag.equilibrium import PUSH_FACTOR

from conftest import random_sparse_scenario

DATA = Path(__file__).parent / "data"
COUNTEREXAMPLES = Path(__file__).parent / "counterexamples"

# Integer entries, fractional ones, and denominators whose common
# denominator L is past 2^64.
SCALES = {"integer": (1,), "fractional": (1, 2, 3, 7), "huge": (1, 10**12 + 39, 10**12 + 61)}


def run_cli(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def machine_section(out: str) -> dict:
    # Everything after the last line `---`: a country name can hold one.
    human, _, machine = out.rpartition("\n---\n")
    assert machine, f"no machine section in output:\n{out}"
    return json.loads(machine)


def seeded_scenarios(tmp_path, scale, count=6):
    """`count` seeded sparse scenarios, n 5 to 100, written to tmp_path, with
    the environment and matrix each was written from."""
    rng = random.Random(scale)
    for k in range(count):
        env, u = random_sparse_scenario(rng, rng.randint(5, 100), denominators=SCALES[scale])
        path = tmp_path / f"{scale}{k}.json"
        path.write_text(json.dumps(emit_scenario(env, u)))
        yield path, env, u


class TestValidate:
    def test_valid_scenario(self, capsys):
        code, out, _ = run_cli(capsys, "validate", DATA / "env2_alloc1.json")
        assert code == 0
        assert machine_section(out)["valid"] is True

    def test_invalid_allocation_is_negative(self, capsys, tmp_path):
        scenario = json.loads((DATA / "env2_alloc1.json").read_text())
        scenario["allocation"]["v1"]["v2"] = "5"
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(scenario))
        code, out, _ = run_cli(capsys, "validate", path)
        assert code == 1
        payload = machine_section(out)
        assert payload["valid"] is False
        assert any("row sum" in e for e in payload["errors"])

    def test_conflicting_relation_is_input_error(self, capsys, tmp_path):
        scenario = json.loads((DATA / "env2.json").read_text())
        scenario["friends"] = [["v1", "v2"]]
        path = tmp_path / "conflict.json"
        path.write_text(json.dumps(scenario))
        code, _, err = run_cli(capsys, "validate", path)
        assert code == 2
        assert "conflicting relation" in err

    def test_environment_only_scenario(self, capsys):
        code, out, _ = run_cli(capsys, "validate", DATA / "env2.json")
        assert code == 0
        payload = machine_section(out)
        assert payload["valid"] is True
        assert payload["has_allocation"] is False

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "validate", "no-such-file.json")
        assert code == 2

    def test_deeply_nested_json_is_input_error(self, capsys, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100000 + "]" * 100000)
        code, out, err = run_cli(capsys, "validate", path)
        assert code == 2
        assert out == ""
        assert err == "error: invalid JSON: nested too deeply\n"

    def test_overlong_integer_literal_is_input_error(self, capsys, tmp_path):
        # json.loads refuses an integer literal longer than int(str)
        # converts (4,300 digits by default) with a plain ValueError.
        path = tmp_path / "long.json"
        path.write_text('{"countries": [{"name": "a", "power": ' + "9" * 5000 + "}]}")
        code, out, err = run_cli(capsys, "validate", path)
        assert code == 2
        assert out == ""
        assert err == "error: invalid JSON: an integer has too many digits to convert\n"
        assert len(err) < 200

    def test_non_utf8_file_is_input_error(self, capsys, tmp_path):
        path = tmp_path / "latin1.json"
        path.write_bytes(b"\xff{")
        code, out, err = run_cli(capsys, "validate", path)
        assert (code, out) == (2, "")
        assert err == (
            "error: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte\n"
        )

    def test_lone_surrogate_name_is_input_error(self, tmp_path):
        # JSON can spell a lone surrogate, which no UTF-8 stdout can print.
        path = tmp_path / "surrogate.json"
        path.write_text(
            '{"countries": [{"name": "\\ud800", "power": 1}, {"name": "b", "power": 1}],'
            ' "allocation": {"b": {"b": 1}}}'
        )
        result = subprocess.run(
            [sys.executable, "-m", "pag", "evaluate", str(path)],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONIOENCODING": "utf-8"},
        )
        assert (result.returncode, result.stdout) == (2, "")
        assert result.stderr == "error: country name must be valid Unicode: '\\ud800'\n"

    def test_malformed_json_is_input_error(self, capsys, tmp_path):
        path = tmp_path / "truncated.json"
        path.write_text('{"countries": [')
        code, out, err = run_cli(capsys, "validate", path)
        assert code == 2
        assert out == ""
        assert err == "error: invalid JSON: Expecting value: line 1 column 16 (char 15)\n"

    def test_deep_country_entry_is_echoed_short(self, tmp_path):
        # A second country entry nested 980 deep parses (JSON allows it at
        # the top of a fresh interpreter's stack), so only the echo bounds
        # the message.
        path = tmp_path / "deep_entry.json"
        deep = "[" * 980 + "]" * 980
        path.write_text('{"countries": [{"name": "a", "power": 1}, ' + deep + "]}")
        result = subprocess.run(
            [sys.executable, "-m", "pag", "validate", str(path)],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 2
        assert result.stdout == ""
        assert result.stderr.startswith("error: country entries need 'name' and 'power': [[[")
        assert len(result.stderr) < 200

    @pytest.mark.parametrize(
        "short, message, long",
        [
            ({"countries": [{"name": "a", "power": 1}, [1]]},
             "country entries need 'name' and 'power': [1]",
             {"countries": [{"name": "a", "power": 1}, [1] * 5000]}),
            ({"friends": [["a"]]}, "bad friend pair: ['a']", {"friends": [["a" * 5000]]}),
            ({"adversaries": [["a", "b", "c"]]}, "bad adversary pair: ['a', 'b', 'c']",
             {"adversaries": [["a"] * 5000]}),
            ({"friends": [["a", "zz"]]}, "unknown country 'zz' in friend pair",
             {"friends": [["a", "z" * 5000]]}),
            ({"allocation": {"zz": {}}}, "unknown country 'zz' in allocation",
             {"allocation": {"z" * 5000: {}}}),
            ({"allocation": [1]}, "'allocation' must map row names to entry maps", None),
            ({"allocation": {"a": 1}}, "allocation row for 'a' must be a map", None),
            ({"allocation": {"a": {"zz": 1}}}, "unknown country 'zz' in allocation row 'a'",
             {"allocation": {"a": {"z" * 5000: 1}}}),
            ({"countries": [{"name": "a", "power": 1}] * 2}, "duplicate name 'a'",
             {"countries": [{"name": "z" * 3000, "power": 1}] * 2}),
            ({"countries": [{"name": 1, "power": 1}]}, "country name must be a string: 1",
             {"countries": [{"name": [[[[["z" * 3000]]]]], "power": 1}]}),
            ({"friends": [["a", 2]]}, "bad friend pair: ['a', 2]",
             {"friends": [["a", [[[[["z" * 3000]]]]]]]}),
            ({"countries": [{"name": "a", "power": "x"}]}, "power for 'a': not a rational: 'x'",
             {"countries": [{"name": "a" * 3000, "power": "x"}]}),
            ({"countries": [{"name": "a", "power": -1}]}, "negative power for 'a'",
             {"countries": [{"name": "z" * 3000, "power": -1}],
              "adversaries": [["z" * 3000, "z" * 3000]]}),
            ({"friends": [["a", "a"]]}, "self relation for 'a'",
             {"countries": [{"name": "z" * 3000, "power": 1}], "friends": [["z" * 3000] * 2]}),
            ({"friends": [["a", "b"]], "adversaries": [["b", "a"]]},
             "conflicting relation for 'a' and 'b' (both friend and adversary)",
             {"countries": [{"name": "y" * 3000, "power": 1}, {"name": "z" * 3000, "power": 1}],
              "friends": [["y" * 3000, "z" * 3000]], "adversaries": [["y" * 3000, "z" * 3000]]}),
        ],
        ids=[
            "entry", "friends", "adversaries", "pair-name", "row-name", "allocation-map", "row-map",
            "column-name", "duplicate-name", "name-type", "pair-member-type", "power-name",
            "negative-power-name", "self-relation-name", "conflict-names",
        ],
    )
    def test_input_echoes(self, capsys, tmp_path, short, message, long):
        # Short inputs are echoed whole; the same fault in a long input is cut.
        countries = {"countries": [{"name": "a", "power": 1}, {"name": "b", "power": 1}]}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({**countries, **short}))
        assert run_cli(capsys, "validate", path) == (2, "", f"error: {message}\n")
        if long is not None:
            path.write_text(json.dumps({**countries, **long}))
            code, out, err = run_cli(capsys, "validate", path)
            assert (code, out) == (2, "")
            assert err.startswith(f"error: {message[:12]}")
            assert len(err) < 200

    def test_names_must_be_strings(self, capsys, tmp_path):
        # Names are not passed through str(): a number naming a country or
        # a pair member is an input error, even where its str() would match.
        path = tmp_path / "names.json"
        countries = [{"name": "1", "power": 2}, {"name": "2", "power": 3}]
        path.write_text(json.dumps({"countries": countries, "adversaries": [[1, 2]]}))
        assert run_cli(capsys, "analyze", path) == (2, "", "error: bad adversary pair: [1, 2]\n")
        path.write_text(json.dumps({"countries": [{"name": 1, "power": 2}, *countries]}))
        assert run_cli(capsys, "analyze", path) == (
            2, "", "error: country name must be a string: 1\n"
        )

    def test_each_bad_cell_is_reported(self, capsys, tmp_path):
        # Equal strings are parsed once, but a string that fails fails in
        # every cell, in cell order; a JSON true and a float still fail, and
        # "2", "4/2" and 2 are the same value.
        scenario = {
            "countries": [{"name": n, "power": "6"} for n in "abc"],
            "friends": [["a", "b"], ["a", "c"]],
            "adversaries": [["b", "c"]],
            "allocation": {
                "a": {"a": "2", "b": "x", "c": "x"},
                "b": {"b": True, "c": "4/2", "a": 2},
                "c": {"c": 1.5, "a": "x"},
            },
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(scenario))
        assert run_cli(capsys, "validate", path) == (
            2,
            "",
            "error: allocation a->b: not a rational: 'x'\n"
            "error: allocation a->c: not a rational: 'x'\n"
            "error: allocation b->b: not a rational: True\n"
            "error: allocation c->c: not a rational: 1.5 (floats are rejected)\n"
            "error: allocation c->a: not a rational: 'x'\n",
        )
        scenario["allocation"] = {
            "a": {"a": "2", "b": "2", "c": "2"},
            "b": {"b": "2", "c": "4/2", "a": 2},
            "c": {"c": "6"},
        }
        _, u = parse_scenario(scenario)
        assert u[0] == u[1] == (Fraction(2),) * 3

    @pytest.mark.parametrize("order", list(itertools.permutations(range(4))))
    def test_printable_bound_is_exact(self, monkeypatch, order):
        # n = 4 countries, so 4 (n + 1) = 20.  M sums |numerator| //
        # denominator + 1 over the powers 1/2, 1/2, 20, 20 (1 + 1 + 21 + 21)
        # and the nonzero entries 1/2, 2/5, 3 (1 + 1 + 4), to 50; the zero
        # entry adds nothing.  L = lcm(2, 5) = 10, so L * 20 * M = 10**4.
        powers = {"a": "1/2", "b": "1/2", "c": "20", "d": "20"}
        entries = {"a": "1/2", "b": "2/5", "c": "3", "d": "0"}
        names = ["abcd"[k] for k in order]
        scenario = {
            "countries": [{"name": n, "power": powers[n]} for n in names],
            "allocation": {n: {n: entries[n]} for n in names},
        }
        monkeypatch.setattr(cli, "_PRINTABLE", 10**4 + 1)
        parse_scenario(scenario)
        monkeypatch.setattr(cli, "_PRINTABLE", 10**4)
        with pytest.raises(pag.ValidationError) as exc:
            parse_scenario(scenario)
        assert exc.value.errors == [
            "values too large together: their sums could need more than 4300 digits"
        ]

    def test_float_power_rejected(self, capsys, tmp_path):
        path = tmp_path / "float.json"
        path.write_text(
            json.dumps({"countries": [{"name": "a", "power": 1.5}], "adversaries": []})
        )
        code, _, err = run_cli(capsys, "validate", path)
        assert code == 2
        assert "rational" in err

    @pytest.mark.parametrize("command", ["validate", "evaluate", "verify", "analyze"])
    def test_read_only_commands_agree_on_huge_values(self, capsys, tmp_path, command):
        # Powers of 4,301 and 4,001 digits are rejected by every command
        # alike; one at the 4,000-digit bound is accepted and every derived
        # sum still prints.
        for power, expected in (("1e4300", 2), ("1e4000", 2), ("1e3999", 0)):
            path = tmp_path / "huge.json"
            path.write_text(
                json.dumps(
                    {
                        "countries": [{"name": "a", "power": power}],
                        "allocation": {"a": {"a": power}},
                    }
                )
            )
            code, out, err = run_cli(capsys, command, path)
            assert code == expected, err
            if expected:
                assert err == (
                    f"error: power for 'a': not a rational: '{power}' (more than 4000 digits)\n"
                )
        # Friend aid of 1/10**2999 and 1/3**6285 is within the bound value by
        # value, but c's support would have a 5,998-digit denominator.
        aid = {"a": f"1/{10**2999}", "b": f"1/{3**6285}"}
        path.write_text(
            json.dumps(
                {
                    "countries": [{"name": n, "power": aid.get(n, "1")} for n in "abc"],
                    "friends": [["a", "c"], ["b", "c"]],
                    "allocation": {"a": {"c": aid["a"]}, "b": {"c": aid["b"]}, "c": {"c": "1"}},
                }
            )
        )
        assert run_cli(capsys, command, path) == (
            2,
            "",
            "error: values too large together: their sums could need more than 4300 digits\n",
        )


class TestEvaluate:
    def test_fig1b_states(self, capsys):
        code, out, _ = run_cli(capsys, "evaluate", DATA / "env1_fig1b.json")
        assert code == 0
        payload = machine_section(out)
        assert payload["states"] == [
            "safe", "precarious", "unsafe", "unsafe", "precarious", "safe",
        ]
        v4 = [c for c in payload["countries"] if c["name"] == "v4"][0]
        assert v4["support"] == "15" and v4["threat"] == "19"

    @pytest.mark.parametrize("scale", SCALES)
    def test_sums_are_exact(self, capsys, tmp_path, scale):
        # Support and threat print as sigma_tau sums them on the Fractions.
        for path, env, u in seeded_scenarios(tmp_path, scale, count=3):
            sigmas, taus = pag.sigma_tau(env, u)
            code, out, _ = run_cli(capsys, "evaluate", path)
            assert code == 0
            countries = machine_section(out)["countries"]
            assert [(c["support"], c["threat"]) for c in countries] == [
                (str(s), str(t)) for s, t in zip(sigmas, taus)
            ]
            assert [c["state"] for c in countries] == [
                s.value for s in pag.state_vector(env, u)
            ]

    def test_missing_allocation(self, capsys):
        code, _, err = run_cli(capsys, "evaluate", DATA / "env2.json")
        assert code == 2
        assert "no allocation" in err


class TestVerify:
    @pytest.mark.parametrize(
        "name,states",
        [
            ("env2_alloc1.json", ["safe", "unsafe", "unsafe"]),
            ("env2_alloc2.json", ["unsafe", "safe", "unsafe"]),
            ("env2_alloc3.json", ["unsafe", "unsafe", "safe"]),
        ],
    )
    def test_reference_allocations(self, capsys, name, states):
        code, out, _ = run_cli(capsys, "verify", DATA / name)
        assert code == 0
        payload = machine_section(out)
        assert payload["is_nash"] is True
        assert payload["states"] == states

    def test_non_equilibrium_exits_one(self, capsys, tmp_path):
        scenario = json.loads((DATA / "env2.json").read_text())
        scenario["allocation"] = {
            "v1": {"v1": "8"},
            "v2": {"v1": "2", "v3": "4"},
            "v3": {"v2": "4"},
        }
        path = tmp_path / "reserve.json"
        path.write_text(json.dumps(scenario))
        code, out, _ = run_cli(capsys, "verify", path)
        assert code == 1
        payload = machine_section(out)
        assert payload["is_nash"] is False
        assert payload["certificates"]["v1"] is not None


    @pytest.mark.parametrize("scale", SCALES)
    def test_certificates_match_full_scan(self, capsys, tmp_path, scale):
        # Every certificate lists the witness row's nonzero entries and the
        # states it induces, exactly as a scan of all n cells and states
        # builds them from is_nash.
        for path, env, u in seeded_scenarios(tmp_path, scale):
            result = pag.is_nash(env, u)
            assert not result.ok
            expected = dict.fromkeys(env.names)
            for dev in result.deviations:
                expected[env.names[dev.country]] = {
                    "row": {env.names[j]: str(x) for j, x in enumerate(dev.row) if x != 0},
                    "states": [s.value for s in dev.states],
                }
            code, out, _ = run_cli(capsys, "verify", path)
            assert code == 1
            assert machine_section(out)["certificates"] == expected

    @pytest.mark.parametrize("scale", SCALES)
    def test_push_denominators_are_printable(self, capsys, tmp_path, scale):
        # `_check_printable`'s premise: a strict push of k < n targets writes
        # its row over PUSH_FACTOR (k + 1) L, so every certificate entry's
        # denominator is at most PUSH_FACTOR n L, L the scenario's common
        # denominator.
        pushes = 0
        for path, env, u in seeded_scenarios(tmp_path, scale, count=20):
            L = lcm(*(x.denominator for x in env.powers), *(x.denominator for r in u for x in r))
            code, out, _ = run_cli(capsys, "verify", path)
            assert code == 1
            for cert in filter(None, machine_section(out)["certificates"].values()):
                unit = lcm(*(Fraction(x).denominator for x in cert["row"].values()))
                pushes += L % unit != 0
                assert unit <= PUSH_FACTOR * env.n * L
                assert any(PUSH_FACTOR * (k + 1) * L % unit == 0 for k in range(env.n))
        assert pushes


class TestConstruct:
    def test_balancing_matches_reference(self, capsys):
        code, out, _ = run_cli(capsys, "construct", DATA / "env2.json", "--kind", "balancing")
        assert code == 0
        scenario = json.loads(out)
        assert scenario["allocation"]["v1"]["v2"] == "5"
        assert scenario["allocation"]["v1"]["v3"] == "3"
        assert scenario["allocation"]["v2"]["v3"] == "1"

    def test_construct_output_verifies(self, capsys, tmp_path):
        for kind, extra in [
            ("balancing", []),
            ("sole-survivor", ["--target", "v2"]),
        ]:
            code, out, _ = run_cli(
                capsys, "construct", DATA / "env2.json", "--kind", kind, *extra
            )
            assert code == 0
            path = tmp_path / f"{kind}.json"
            path.write_text(out)
            code, out, _ = run_cli(capsys, "verify", path)
            assert code == 0

    def test_bipartite_safe_roundtrip(self, capsys, tmp_path):
        scenario = emit_scenario(
            pag.make_environment([10, 3, 4], adversaries=[(0, 1), (0, 2)])
        )
        src = tmp_path / "star.json"
        src.write_text(json.dumps(scenario))
        code, out, _ = run_cli(
            capsys, "construct", src, "--kind", "bipartite-safe", "--target", "v1"
        )
        assert code == 0
        built = tmp_path / "built.json"
        built.write_text(out)
        code, out, _ = run_cli(capsys, "verify", built)
        assert code == 0
        assert machine_section(out)["states"][0] == "safe"

    def test_infeasible_construction_exits_one(self, capsys, tmp_path):
        scenario = emit_scenario(
            pag.make_environment([20, 1, 2], adversaries=[(0, 1), (0, 2), (1, 2)])
        )
        path = tmp_path / "dominant.json"
        path.write_text(json.dumps(scenario))
        code, _, err = run_cli(capsys, "construct", path, "--kind", "balancing")
        assert code == 1
        assert err == "construction: entry 0 has power 20, exceeding the others' total 3\n"

    def test_wrong_topology_exits_two(self, capsys):
        code, _, err = run_cli(
            capsys, "construct", DATA / "env4.json", "--kind", "balancing"
        )
        assert code == 2
        assert err == "error: topology: balancing requires an all-adversary complete graph\n"

    def test_missing_target_exits_two(self, capsys):
        code, _, err = run_cli(
            capsys, "construct", DATA / "env2.json", "--kind", "sole-survivor"
        )
        assert code == 2
        assert "--target" in err

    def test_seed_flag_is_rejected(self, capsys):
        # The bipartite construction has no seed: its search is fixed.
        with pytest.raises(SystemExit) as exit_:
            main(["construct", str(DATA / "env3.json"), "--kind", "bipartite-safe",
                  "--target", "v2", "--seed", "1"])
        err = capsys.readouterr().err
        assert exit_.value.code == 2
        assert err.startswith("usage: pag ")
        assert "unrecognized arguments: --seed 1" in err
        assert "Traceback" not in err


class TestAnalyze:
    def test_env4_cover_report(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", DATA / "env4.json")
        assert code == 0
        payload = machine_section(out)
        assert payload["cover"]["spans"] is True
        assert payload["cover"]["verdicts"] == {
            "v1": "not-survives",
            "v2": "survives",
            "v3": "not-survives",
            "v4": "survives",
        }

    def test_env2_group_and_balancing(self, capsys):
        code, out, _ = run_cli(
            capsys, "analyze", DATA / "env2.json", "--group", "v1,v2"
        )
        assert code == 0
        payload = machine_section(out)
        assert payload["balancing_exists"] is True
        assert payload["group"]["group_balance"] is False
        assert payload["cover"]["spans"] is False

    def test_repeated_group_member_is_reported_once(self, capsys):
        code, out, _ = run_cli(
            capsys, "analyze", DATA / "env2.json", "--group", "v2, v1,v2,v1"
        )
        _, single, _ = run_cli(capsys, "analyze", DATA / "env2.json", "--group", "v2,v1")
        assert code == 0
        assert out == single
        assert "group v2,v1: " in out
        assert machine_section(out)["group"]["members"] == ["v2", "v1"]

    def test_env3_safety_conditions(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", DATA / "env3.json")
        assert code == 0
        payload = machine_section(out)
        assert payload["bipartite_safety"]["necessary"]["v1"] is True
        assert payload["bipartite_safety"]["sufficient"]["v1"] is False
        assert payload["balancing_exists"] is None

    def test_env3_bipartition_once_per_condition(self, capsys, monkeypatch):
        # One bipartition per necessary/sufficient call, 4 countries each.
        calls = []
        original = pag.analysis.adversary_bipartition

        def counting(env):
            calls.append(env)
            return original(env)

        monkeypatch.setattr(pag.analysis, "adversary_bipartition", counting)
        code, _, _ = run_cli(capsys, "analyze", DATA / "env3.json")
        assert code == 0
        assert len(calls) == 8

    def test_single_country(self, capsys, tmp_path):
        path = tmp_path / "solo.json"
        path.write_text(
            json.dumps({"countries": [{"name": "v1", "power": 3}]})
        )
        code, out, _ = run_cli(capsys, "analyze", path)
        assert code == 0
        payload = machine_section(out)
        assert payload["cover"]["spans"] is True
        assert payload["cover"]["verdicts"] == {"v1": "survives"}

    def test_unknown_group_name(self, capsys):
        code, _, err = run_cli(
            capsys, "analyze", DATA / "env2.json", "--group", "nobody"
        )
        assert code == 2
        assert "unknown country" in err


@pytest.mark.parametrize("error", [ValueError, KeyError])
def test_internal_fault_propagates(monkeypatch, error):
    # Only the package's input faults exit 2: any other exception is a bug,
    # and is raised rather than reported as `error: internal`.
    def fault(env):
        raise error("internal")

    monkeypatch.setattr(pag.analysis, "dp_cover", fault)
    with pytest.raises(error, match="internal"):
        main(["analyze", str(DATA / "env2.json")])


def test_internal_oserror_propagates(monkeypatch):
    # Only the write to stdout is an output error: an OSError inside a
    # command is a bug, raised with stdout left open.
    def fault(env):
        raise OSError(errno.EIO, "I/O error")

    stdout = io.StringIO()
    monkeypatch.setattr(pag.analysis, "dp_cover", fault)
    monkeypatch.setattr(sys, "stdout", stdout)
    with pytest.raises(OSError, match="I/O error"):
        main(["analyze", str(DATA / "env2.json")])
    assert not stdout.closed


class TestSearch:
    def test_env4_search(self, capsys):
        code, out, _ = run_cli(capsys, "search", DATA / "env4.json", "--step", "1")
        assert code == 0
        payload = machine_section(out)
        assert len(payload["classes"]) == 1
        assert payload["classes"][0]["states"] == ["unsafe", "safe", "unsafe", "safe"]
        assert payload["survival"]["v4"] == "always-on-grid"
        assert payload["survival"]["v3"] == "never-on-grid"

    def test_empty_atlas_reported(self, capsys, tmp_path):
        # v1 outweighs its two rivals together, and they are friends: no
        # candidate on the unit grid is an equilibrium.
        env = pag.make_environment([3, 1, 1], friends=[(1, 2)], adversaries=[(0, 1), (0, 2)])
        path = tmp_path / "no_equilibrium.json"
        path.write_text(json.dumps(emit_scenario(env)))
        code, out, _ = run_cli(capsys, "search", path, "--step", "1")
        assert code == 0
        assert "candidates checked: 90\n" in out
        assert "equilibria found: 0 in 0 classes\n" in out
        assert "survival: no equilibria found on this grid\n" in out
        payload = machine_section(out)
        assert (payload["classes"], payload["survival"]) == ([], {})

    def test_search_deeper_than_the_recursion_limit(self, capsys, tmp_path):
        # A rival chain of 1,050 countries where only v1 has power: the
        # search places a row at each of 1,050 depths, past Python's default
        # recursion limit, so its stack stays explicit.
        names = [f"v{i + 1}" for i in range(1050)]
        path = tmp_path / "chain1050.json"
        path.write_text(json.dumps({
            "countries": [{"name": c, "power": int(c == "v1")} for c in names],
            "adversaries": [[a, b] for a, b in zip(names, names[1:])],
        }))
        code, out, _ = run_cli(capsys, "search", path, "--step", "1")
        assert code == 0
        assert "equilibria found: 1 in 1 classes\n" in out

    def test_too_fine_step_rejected(self, capsys):
        code, _, err = run_cli(
            capsys, "search", DATA / "env2.json", "--step", "1/8",
            "--max-candidates", "1000000",
        )
        assert code == 2
        assert "exceed" in err

    @pytest.mark.parametrize("step", ["1e-300", "1/3"])
    def test_far_too_fine_step_rejected_briefly(self, capsys, tmp_path, step):
        # 100 countries of power 1-10 with mean degree 3: a rivalry ring
        # and a friendship across it.  The candidate count has hundreds of
        # digits at 1/3 and too many to print at 1e-300; the error names
        # the bound only.
        names = [f"c{i}" for i in range(100)]
        scenario = tmp_path / "sparse100.json"
        scenario.write_text(json.dumps({
            "countries": [{"name": c, "power": str(i % 10 + 1)} for i, c in enumerate(names)],
            "adversaries": [[names[i], names[(i + 1) % 100]] for i in range(100)],
            "friends": [[names[i], names[i + 50]] for i in range(50)],
        }))
        code, out, err = run_cli(capsys, "search", scenario, "--step", step)
        assert (code, out) == (2, "")
        assert "exceed" in err
        assert "set_int_max_str_digits" not in err
        assert len(err) < 200

    @pytest.mark.parametrize("bound", ["0", "10000001"])
    def test_candidate_bound_checked_before_enumeration(self, capsys, monkeypatch, bound):
        def never(*_):
            raise AssertionError("enumeration started")

        monkeypatch.setattr(pag.oracle, "candidate_count", never)
        monkeypatch.setattr(pag.oracle, "find_equilibria", never)
        code, out, err = run_cli(
            capsys, "search", DATA / "env2.json", "--step", "1", "--max-candidates", bound
        )
        assert (code, out) == (2, "")
        assert err == "error: max_candidates must be between 1 and 10000000\n"

    def test_non_dividing_step_rejected(self, capsys):
        code, _, err = run_cli(capsys, "search", DATA / "env2.json", "--step", "3")
        assert code == 2
        assert "divide" in err


class TestRoundTrip:
    @pytest.mark.parametrize(
        "name", ["env1_fig1b.json", "env2_alloc1.json", "env4_fig4.json", "env3.json"]
    )
    def test_emit_parse_identity(self, name):
        data = json.loads((DATA / name).read_text())
        env, u = parse_scenario(data)
        again_env, again_u = parse_scenario(emit_scenario(env, u))
        assert env == again_env
        assert u == again_u

    def test_fractions_survive_roundtrip(self):
        env = pag.make_environment(
            [Fraction(1, 3), Fraction(7, 2)], adversaries=[(0, 1)]
        )
        u = pag.matrix_from_entries(
            env, {(0, 1): "1/3", (1, 0): "5/2", (1, 1): "1"}
        )
        env2, u2 = parse_scenario(emit_scenario(env, u))
        assert env2.powers == env.powers
        assert u2 == u


# `pag` and subcommand help at COLUMNS=80, as argparse prints it.
_COMMANDS = "{validate,evaluate,verify,construct,analyze,search}"
_SCENARIO_ONLY = """\
usage: pag {command} [-h] scenario

positional arguments:
  scenario

options:
  -h, --help  show this help message and exit
"""
_CONSTRUCT_USAGE = """\
usage: pag construct [-h] --kind {balancing,sole-survivor,bipartite-safe}
                     [--target TARGET]
                     scenario
"""
_SEARCH_USAGE = (
    "usage: pag search [-h] --step STEP [--max-candidates MAX_CANDIDATES] scenario\n"
)
HELP = {
    "pag": f"""\
usage: pag [-h] {_COMMANDS} ...

Exact analysis of power allocation games on relation graphs.

positional arguments:
  {_COMMANDS}
    validate            check environment and allocation invariants
    evaluate            print support, threat, and state per country
    verify              check the allocation for Nash equilibrium
    construct           construct an equilibrium of the given kind
    analyze             survival condition reports and the cover
    search              enumerate grid equilibria exhaustively

options:
  -h, --help            show this help message and exit
""",
    **{name: _SCENARIO_ONLY.format(command=name) for name in ("validate", "evaluate", "verify")},
    "construct": _CONSTRUCT_USAGE + """
positional arguments:
  scenario

options:
  -h, --help            show this help message and exit
  --kind {balancing,sole-survivor,bipartite-safe}
  --target TARGET       country name (sole-survivor, bipartite-safe)
""",
    "analyze": """\
usage: pag analyze [-h] [--group GROUP] scenario

positional arguments:
  scenario

options:
  -h, --help     show this help message and exit
  --group GROUP  comma-separated country names
""",
    "search": _SEARCH_USAGE + """
positional arguments:
  scenario

options:
  -h, --help            show this help message and exit
  --step STEP           grid step, e.g. 1 or 1/4
  --max-candidates MAX_CANDIDATES
""",
}


def run_usage(capsys, monkeypatch, *argv):
    """Exit code, stdout and stderr of a command that argparse ends."""
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exit_:
        main([str(a) for a in argv])
    captured = capsys.readouterr()
    return exit_.value.code, captured.out, captured.err


class TestCommandLine:
    @pytest.mark.parametrize("command", HELP)
    def test_help(self, capsys, monkeypatch, command):
        argv = ["--help"] if command == "pag" else [command, "--help"]
        assert run_usage(capsys, monkeypatch, *argv) == (0, HELP[command], "")

    def test_missing_step(self, capsys, monkeypatch):
        err = _SEARCH_USAGE + "pag search: error: the following arguments are required: --step\n"
        assert run_usage(capsys, monkeypatch, "search", DATA / "env2.json") == (2, "", err)

    def test_missing_kind(self, capsys, monkeypatch):
        err = _CONSTRUCT_USAGE + (
            "pag construct: error: the following arguments are required: --kind\n"
        )
        assert run_usage(capsys, monkeypatch, "construct", DATA / "env2.json") == (2, "", err)

    def test_unknown_command(self, capsys, monkeypatch):
        code, out, err = run_usage(capsys, monkeypatch, "bogus", DATA / "env2.json")
        names = _COMMANDS[1:-1].split(",")
        # Newer Pythons list the choices with str(), older ones with repr().
        choices = {", ".join(names), ", ".join(map(repr, names))}
        assert (code, out) == (2, "")
        assert err in {
            f"usage: pag [-h] {_COMMANDS} ...\n"
            f"pag: error: argument command: invalid choice: 'bogus' (choose from {c})\n"
            for c in choices
        }

    def test_parser_is_built_once(self, capsys, monkeypatch):
        assert cli.build_parser() is cli.build_parser()
        run_cli(capsys, "validate", DATA / "env2.json")
        built = []
        init = argparse.ArgumentParser.__init__

        def counting(parser, *args, **kwargs):
            built.append(parser)
            init(parser, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        assert run_cli(capsys, "validate", DATA / "env2.json")[0] == 0
        assert built == []

    def test_commands_in_one_process_are_independent(self, capsys):
        # A command leaves nothing behind that changes a later one.
        first = run_cli(capsys, "verify", DATA / "env2_alloc1.json")
        assert first[0] == 0
        assert run_cli(capsys, "analyze", DATA / "env3.json")[0] == 0
        assert run_cli(capsys, "verify", DATA / "env2_alloc1.json") == first


class TestJsonSection:
    """A report's JSON section is stdout's last line, after a line `---`;
    `construct`'s file is all of stdout.  Each is the stdlib's one-line
    rendering of what it holds."""

    def test_section_follows_the_last_separator(self, capsys, tmp_path):
        # A name can hold a line `---`; the JSON section, which escapes
        # newlines, cannot.
        name = "x\n---\n{"
        path = tmp_path / "dashes.json"
        path.write_text(
            json.dumps({"countries": [{"name": name, "power": 1}], "allocation": {name: {name: 1}}})
        )
        code, out, _ = run_cli(capsys, "evaluate", path)
        assert code == 0
        with pytest.raises(json.JSONDecodeError):
            json.loads(out.partition("\n---\n")[2])
        assert machine_section(out)["countries"][0]["name"] == name
        assert json.loads(out.split("\n")[-2]) == machine_section(out)

    @staticmethod
    def assert_stdlib_rendering(code, out):
        if not out:
            assert code == 2
            return
        *_, separator, section, end = out.split("\n")
        assert (separator, end) == ("---", "")
        assert section == json.dumps(json.loads(section), sort_keys=True)

    @pytest.mark.parametrize("command", ["validate", "evaluate", "verify", "analyze"])
    @pytest.mark.parametrize(
        "path",
        sorted(DATA.glob("*.json")) + sorted(COUNTEREXAMPLES.glob("*.json")),
        ids=lambda p: p.name,
    )
    def test_reports(self, capsys, command, path):
        self.assert_stdlib_rendering(*run_cli(capsys, command, path)[:2])

    @pytest.mark.parametrize("name", ["env2.json", "env4.json"])
    def test_search(self, capsys, name):
        code, out, _ = run_cli(capsys, "search", DATA / name, "--step", "1")
        assert code == 0
        self.assert_stdlib_rendering(code, out)

    def test_certificates(self, capsys, tmp_path):
        scenario = json.loads((DATA / "env2.json").read_text())
        scenario["allocation"] = {c["name"]: {c["name"]: c["power"]} for c in scenario["countries"]}
        path = tmp_path / "reserve.json"
        path.write_text(json.dumps(scenario))
        code, out, _ = run_cli(capsys, "verify", path)
        assert code == 1
        assert any(machine_section(out)["certificates"].values())
        self.assert_stdlib_rendering(code, out)

    def test_construct(self, capsys):
        # The scenario file is all of stdout, one line.
        code, out, _ = run_cli(capsys, "construct", DATA / "env2.json", "--kind", "balancing")
        assert code == 0
        assert out == json.dumps(json.loads(out), sort_keys=True) + "\n"


class _FailingStdout(io.StringIO):
    """A stdout whose every write fails with `error`."""

    def __init__(self, error: OSError):
        super().__init__()
        self.error = error

    def write(self, text):
        raise self.error


@pytest.mark.parametrize(
    "error, message",
    [
        (BrokenPipeError(errno.EPIPE, "Broken pipe"), ""),
        (OSError(errno.ENOSPC, "No space left on device"),
         "error: cannot write output: No space left on device\n"),
    ],
    ids=["closed-pipe", "full-device"],
)
def test_failed_stdout_exits_two(capsys, monkeypatch, error, message):
    # A closed pipe ends the command quietly; any other write failure says
    # so, and neither is reported as an unreadable input.
    stdout = _FailingStdout(error)
    monkeypatch.setattr(sys, "stdout", stdout)
    code = main(["search", str(DATA / "env3.json"), "--step", "1"])
    assert (code, capsys.readouterr().err) == (2, message)
    assert stdout.closed


@pytest.mark.parametrize("unbuffered", ["1", None])
def test_closed_pipe_leaves_stderr_clean(unbuffered):
    # The reader closes the pipe before the first write, as `| head -1`
    # does to a long report; buffered or not, stderr stays empty.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = unbuffered
    with subprocess.Popen(
        [sys.executable, "-m", "pag", "search", str(DATA / "env3.json"), "--step", "1"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    ) as proc:
        proc.stdout.close()
        err = proc.stderr.read()
        assert (proc.wait(), err) == (2, b"")


def test_console_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "pag", "verify", str(DATA / "env2_alloc1.json")],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert "nash equilibrium: yes" in result.stdout


@pytest.mark.parametrize("path", sorted(DATA.glob("*.json")), ids=lambda p: p.name)
def test_data_files_are_scenarios(path):
    # The cli-scenarios benchmark workload and the CLI contract test parse
    # every tests/data/*.json as a scenario, so any other JSON file belongs
    # elsewhere (the golden transcript sits in tests/).
    env, _ = parse_scenario(json.loads(path.read_text(encoding="utf-8")))
    assert env.n > 0
