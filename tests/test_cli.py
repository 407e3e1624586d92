"""Exit codes and argument parsing of the command-line front door."""

import json

import pytest

from fuchsia_heun.cli import main


def _run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_negative_complex_value_after_a_space(capsys):
    code, out, _ = _run(capsys, "domain", "--a", "-2,1", "--samples", "8",
                        "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["a"] == [-2.0, 1.0]
    assert len(payload["points"]) == 8


def test_negative_value_matches_equals_form(capsys):
    spaced = _run(capsys, "domain", "--a", "-2,-1", "--samples", "4")
    joined = _run(capsys, "domain", "--a=-2,-1", "--samples=4")
    assert spaced[0] == joined[0] == 0
    assert spaced[1] == joined[1]


@pytest.mark.parametrize("argv", [
    ["domain", "--a=-2,1", "--samples", "0"],
    ["domain", "--a=-2,1", "--samples=-3"],
    ["domain", "--a", "1,2,3"],
    ["domain", "--a", "-x"],
    ["domain"],
    [],
    ["nosuchcommand"],
], ids=["zero-samples", "negative-samples", "three-parts", "not-a-number",
        "missing-a", "no-command", "unknown-command"])
def test_bad_input_exits_1(capsys, argv):
    code, out, err = _run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error:")


def test_single_sample_on_the_cut(capsys):
    # a on [1, inf) makes the boundary the cut; one sample is its start
    code, out, _ = _run(capsys, "domain", "--a", "3", "--which", "omega1",
                        "--samples", "1")
    assert code == 0
    assert out.splitlines()[1:] == ["1.0,0.0,1.0"]
