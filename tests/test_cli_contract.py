"""The CLI contract: pinned outputs on the worked scenarios, and exit codes
0, 1 or 2 without a traceback on any input."""

import contextlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pag.cli import main

TESTS = Path(__file__).parent
DATA = TESTS / "data"
# Exit code, stdout and stderr of 38 commands on tests/data.  An intended
# change of output rewrites it: `PYTHONPATH=src python tests/test_cli_contract.py`.
GOLDEN_PATH = TESTS / "cli_golden.json"
GOLDEN = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def run_in_process(argv, encoding="utf-8"):
    # stdout encodes strictly, as a console script's does: to UTF-8, or to
    # ASCII as under `PYTHONIOENCODING=ascii`.
    out, err = io.TextIOWrapper(io.BytesIO(), encoding=encoding), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    out.flush()
    return code, out.buffer.getvalue().decode(encoding), err.getvalue()


def run_golden(argv):
    return run_in_process([DATA / a if a.endswith(".json") else a for a in argv])


@pytest.mark.parametrize("case", GOLDEN, ids=lambda case: " ".join(case["argv"]))
def test_golden_transcript(case):
    assert run_golden(case["argv"]) == (case["code"], case["stdout"], case["stderr"])


FILE_COMMANDS = [
    ["validate"],
    ["evaluate"],
    ["verify"],
    ["analyze"],
    ["search", "--step", "1"],
    ["construct", "--kind", "balancing"],
]


@pytest.mark.parametrize("command", FILE_COMMANDS, ids=lambda c: c[0])
def test_unreadable_path_is_input_error(command, tmp_path):
    code, out, err = run_in_process([command[0], tmp_path, *command[1:]])
    assert (code, out) == (2, "")
    assert err.startswith("error: cannot read")


# Rivals é and b, each keeping its power on itself.  No ASCII stdout can
# print é: the report escapes it as stderr would, and the JSON section,
# always ASCII, is unchanged.
RIVALS = {
    "countries": [{"name": "\u00e9", "power": 2}, {"name": "b", "power": 1}],
    "adversaries": [["\u00e9", "b"]],
    "allocation": {"\u00e9": {"\u00e9": 2}, "b": {"b": 1}},
}


@pytest.fixture
def rivals(tmp_path):
    path = tmp_path / "rivals.json"
    path.write_text(json.dumps(RIVALS), encoding="utf-8")
    return path


@pytest.mark.parametrize(
    "command, code",
    [
        (["validate"], 0),
        (["evaluate"], 0),
        (["verify"], 1),
        (["analyze"], 0),
        (["search", "--step", "1"], 0),
    ],
    ids=lambda c: c[0] if isinstance(c, list) else str(c),
)
def test_ascii_stdout_escapes_names(rivals, command, code):
    argv = [command[0], rivals, *command[1:]]
    utf8_human, _, utf8_section = run_in_process(argv)[1].rpartition("\n---\n")
    got_code, out, err = run_in_process(argv, "ascii")
    human, _, section = out.rpartition("\n---\n")
    assert (got_code, err, section) == (code, "", utf8_section)
    assert human == utf8_human.encode("ascii", "backslashreplace").decode()
    assert ("\\xe9" in human) == (command[0] != "validate")


def test_ascii_console_stdout(rivals):
    result = subprocess.run(
        [sys.executable, "-m", "pag", "analyze", str(rivals)],
        capture_output=True,
        env={**os.environ, "PYTHONIOENCODING": "ascii"},
    )
    assert (result.returncode, result.stderr) == (0, b"")
    assert b"domination of \\xe9: \\xe9,b\n" in result.stdout


# Arbitrary JSON documents, the scenarios of tests/data as they are or with
# one top-level key or one country's power or name replaced, arbitrary
# text, and arbitrary bytes.
_text = st.text(st.characters(codec="utf-8"), max_size=40)
_json = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)
_scenarios = [json.loads(p.read_text(encoding="utf-8")) for p in sorted(DATA.glob("*.json"))]


@st.composite
def _near_valid(draw):
    data = json.loads(json.dumps(draw(st.sampled_from(_scenarios))))
    field = draw(st.sampled_from(["power", "name", "key"]))
    country = draw(st.sampled_from(data["countries"]))
    if field == "power":
        country["power"] = draw(_json | st.sampled_from(["1/0", "1e9999", "-1", "3/2"]))
    elif field == "name":
        # Renamed in every pair and allocation row too, so it is still found.
        new = draw(st.text(max_size=4) | st.sampled_from(["\ud800", "\udcff", "\u00e9"]))
        return json.dumps(data).replace(json.dumps(country["name"]), json.dumps(new))
    else:
        key = draw(st.sampled_from(["countries", "friends", "adversaries", "allocation"]))
        data[key] = draw(_json)
    return json.dumps(data)


_documents = st.one_of(
    st.one_of(
        _json.map(json.dumps), st.sampled_from(_scenarios).map(json.dumps), _near_valid(), _text
    ).map(str.encode),
    st.binary(max_size=40),
)

# Every command, with good and bad options.  Searches carry a small
# candidate bound: a legitimately large enumeration is slow, not a breach.
_bound = ["--max-candidates", "20000"]
_commands = st.sampled_from(
    [
        ["validate"],
        ["evaluate"],
        ["verify"],
        ["analyze"],
        ["analyze", "--group", "v1,v2"],
        ["analyze", "--group", "v1,nobody"],
        ["analyze", "--group", ","],
        ["search", "--step", "1", *_bound],
        ["search", "--step", "1/2", *_bound],
        ["search", "--step", "3", *_bound],
        ["search", "--step=0", *_bound],
        ["search", "--step=-1", *_bound],
        ["search", "--step", "one", *_bound],
        ["search", "--step", "7", *_bound],
        ["search", "--step", "1", "--max-candidates", "0"],
        ["search", "--step", "1", "--max-candidates", "1"],
        ["construct", "--kind", "balancing"],
        ["construct", "--kind", "sole-survivor"],
        ["construct", "--kind", "sole-survivor", "--target", "v1"],
        ["construct", "--kind", "bipartite-safe"],
        ["construct", "--kind", "bipartite-safe", "--target", "v2"],
        ["construct", "--kind", "bipartite-safe", "--target", "nobody"],
    ]
)


@pytest.fixture(scope="module")
def scenario_file(tmp_path_factory):
    return tmp_path_factory.mktemp("contract") / "scenario.json"


@settings(max_examples=300, deadline=None)
@given(document=_documents, command=_commands, encoding=st.sampled_from(["utf-8", "ascii"]))
def test_any_input_exits_cleanly(scenario_file, document, command, encoding):
    scenario_file.write_bytes(document)
    start = time.perf_counter()
    code, out, _ = run_in_process([command[0], scenario_file, *command[1:]], encoding)
    assert code in (0, 1, 2)
    # stdout is written once, after the command: an input fault prints nothing.
    assert code != 2 or out == ""
    assert time.perf_counter() - start < 5
    if command[0] == "construct" and code == 1:
        assert out == ""  # the constructor gave up: its reason is on stderr
    elif code != 2:
        # The last line is the JSON section; `construct`'s is all of stdout.
        assert out.endswith("\n")
        head, _, line = out[:-1].rpartition("\n")
        json.loads(line)
        if command[0] == "construct":
            assert head == ""
        else:
            assert head.rpartition("\n")[2] == "---"


if __name__ == "__main__":
    cases = []
    for case in GOLDEN:
        code, out, err = run_golden(case["argv"])
        cases.append({"argv": case["argv"], "code": code, "stdout": out, "stderr": err})
    GOLDEN_PATH.write_text(json.dumps(cases, indent=1) + "\n", encoding="utf-8")
