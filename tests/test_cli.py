"""Exit codes, argument parsing and outputs of the command-line front door."""

import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import fuchsia_heun
from conftest import random_connection
from fuchsia_heun.cli import main
from fuchsia_heun.connection import HeunParameters
from fuchsia_heun.erdelyi import terminating_accessory_set


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


# ------------------------------------------------------------------ expand

_GEN_FLAGS = ["--a=0.25", "--alpha=0.33", "--gamma=0.41", "--delta=0.57",
              "--epsilon=0.24"]


def _terminating_case():
    """(flags, q) for a Heun set with epsilon = -2 and a member of its
    terminating accessory set."""
    flags = ["--a=3,1", "--alpha=0.37", "--gamma=0.3", "--delta=0.41",
             "--epsilon=-2"]
    h = HeunParameters(a=3 + 1j, q=0.0, alpha=0.37, beta=0.3 + 0.41 - 2 - 0.37 - 1,
                       gamma=0.3, delta=0.41, epsilon=-2.0)
    return flags, terminating_accessory_set(h)[-1]


def _cz(z) -> str:
    z = complex(z)
    return "%r,%r" % (z.real, z.imag)


def test_expand_refuses_merge_at_0_root_for_merge_at_1(capsys):
    # the MERGE_AT_0 root does not annihilate MERGE_AT_1's own fraction,
    # so its sum would diverge; the point is refused like any outside one
    code, out, _ = _run(capsys, "expand", *_GEN_FLAGS,
                        "--q=-0.00586200383124912", "--x=-1",
                        "--variant=merge_at_1")
    assert code == 0
    header, row = out.splitlines()
    assert header.endswith("tail_estimate,status")
    fields = row.split(",", 5)
    assert fields[2:5] == ["", "", ""]
    assert fields[5].startswith("outside:")


def test_expand_depth_one_is_unconverged(capsys):
    # one term against the sum itself would read a zero tail
    code, out, err = _run(capsys, "expand", *_GEN_FLAGS, "--q=0.3", "--x=0.1",
                          "--depth=1", "--format=json")
    assert code == 2 and err.startswith("claim violated:")
    (row,) = json.loads(out)["rows"]
    assert row[5] == "unconverged"
    assert row[4] > 0.1


def test_expand_unevaluable_point_is_refused_per_row(capsys):
    flags, _ = _terminating_case()
    code, out, _ = _run(capsys, "expand", *flags, "--q=-1.1", "--x=0.5,0.5",
                        "--x=0.1", "--format=json")
    assert code == 0
    far, near = json.loads(out)["rows"]
    assert far[2:5] == ["", "", ""] and far[5].startswith("outside:")
    assert near[5] == "ok" and isinstance(near[2], float)


@pytest.mark.parametrize("bad", ["--a=1", "--alpha=x"])
def test_expand_bad_parameters_exit_1(capsys, bad):
    flags, _ = _terminating_case()
    flags = [bad if f.split("=")[0] == bad.split("=")[0] else f for f in flags]
    code, out, err = _run(capsys, "expand", *flags, "--q=-1.1", "--x=0.1")
    assert code == 1
    assert out == ""
    assert err.startswith("error:")


def test_expand_terminating_point_is_ok(capsys):
    flags, q = _terminating_case()
    code, out, _ = _run(capsys, "expand", *flags, "--q=" + _cz(q),
                        "--x=0.3,0.2", "--format=json")
    assert code == 0
    (row,) = json.loads(out)["rows"]
    assert row[5] == "ok"
    assert row[4] <= 1e-8 * max(1.0, abs(complex(row[2], row[3])))


def test_expand_honours_tol(capsys):
    # twelve terms at x = 0.1 leave a tail of about 3e-5
    argv = ["expand", *_GEN_FLAGS, "--q=0.3", "--x=0.1", "--depth=12",
            "--format=json"]
    code, out, err = _run(capsys, *argv)
    assert code == 2 and err.startswith("claim violated:")
    assert json.loads(out)["rows"][0][5] == "unconverged"
    code, out, _ = _run(capsys, *argv, "--tol=1e-3")
    assert code == 0
    assert json.loads(out)["rows"][0][5] == "ok"


# ------------------------------------------- monodromy, takemura and pvi

def test_monodromy_from_connection_file(capsys, tmp_path):
    path = tmp_path / "connection.json"
    path.write_text(random_connection(np.random.default_rng(3)).to_json())
    code, out, _ = _run(capsys, "monodromy", "--input", str(path))
    assert code == 0
    payload = json.loads(out)
    assert len(payload["matrices"]) == 3
    assert len(payload["m_infinity"]) == 2
    assert payload["loop_residual"] < 1e-6


def test_takemura_inclusion_verdict(capsys):
    code, out, _ = _run(capsys, "takemura", "--a=3", "--gamma=0.3,0.1",
                        "--delta=0.45", "--m=2", "--n=1")
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "poly_subset_apparent"
    assert len(payload["q_poly"]) == 2 and len(payload["q_apparent"]) == 3


def test_takemura_integral_beta_exits_1(capsys):
    # beta = gamma + delta - m + n - 1 = -1
    code, out, err = _run(capsys, "takemura", "--a=3", "--gamma=0.3",
                          "--delta=0.7", "--m=2", "--n=1")
    assert code == 1
    assert out == ""
    assert "integral" in err


@pytest.mark.parametrize("theta, eqn2, eqn3", [
    # theta0 + theta1 + thetat + thetainf = 2
    (("0.3", "0.45", "0.7", "0.55"), [1, 1, 1], None),
    # thetat = 2; the imaginary part keeps every signed sum off the integers
    (("0.3", "0.45", "2", "0.55,0.1"), None, ["thetat", 2]),
    (("0.3", "0.45", "0.7", "0.55,0.1"), None, None),
], ids=["eqn2", "eqn3", "generic"])
def test_pvi_matching_on_hyperplanes(capsys, theta, eqn2, eqn3):
    argv = ["--%s=%s" % (k, v) for k, v in
            zip(("theta0", "theta1", "thetat", "thetainf"), theta)]
    code, out, _ = _run(capsys, "pvi", *argv)
    assert code == 0
    payload = json.loads(out)
    assert payload["eqn2"] == eqn2
    assert payload["eqn3"] == eqn3
    assert payload["rational"] is (eqn2 is not None and eqn3 is not None)


# -------------------------------------------------------------- cold start

# Runs in a fresh interpreter: the test process has scipy loaded already.
_GUARD_SCRIPT = """
import contextlib, io, json, sys

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

import fuchsia_heun
from fuchsia_heun.cli import main

result = {"import": [0, scipy_modules()]}
for name, argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    result[name] = [code, scipy_modules()]
print(json.dumps(result))
"""


def test_only_expand_and_takemura_load_scipy(tmp_path):
    path = tmp_path / "connection.json"
    path.write_text(random_connection(np.random.default_rng(3)).to_json())
    flags, q = _terminating_case()
    commands = [
        ("analyze", ["analyze", "--input=%s" % path]),
        ("spectrum", ["spectrum", "--a=2,0.5", "--m=2"]),
        ("qset", ["qset", "--a=3", "--alpha=0.37", "--gamma=0.3",
                  "--delta=0.41", "--epsilon=-2"]),
        ("domain", ["domain", "--a=2,0.5", "--samples=4"]),
        ("monodromy", ["monodromy", "--input=%s" % path]),
        ("pvi", ["pvi", "--theta0=0.3", "--theta1=0.45", "--thetat=0.7",
                 "--thetainf=0.55"]),
        ("expand", ["expand", *flags, "--q=" + _cz(q), "--x=0.3,0.2"]),
        ("takemura", ["takemura", "--a=3", "--gamma=0.3,0.1",
                      "--delta=0.45", "--m=2", "--n=1"]),
    ]
    src = pathlib.Path(fuchsia_heun.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-c", _GUARD_SCRIPT,
                           json.dumps(commands)], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    for name in ("import", "analyze", "spectrum", "qset", "domain",
                 "monodromy", "pvi"):
        assert result[name] == [0, []], name
    # the two that need scipy still work and load it on demand
    code, loaded = result["expand"]
    assert code == 0 and "scipy.special" in loaded
    code, loaded = result["takemura"]
    assert code == 0 and "scipy.optimize" in loaded
