"""Smoke tests for the experiment scripts: each one imports and parses,
and small runs go end to end in a fresh process."""
import importlib.util
import os
import subprocess
import sys

import pytest

from relbetti.collections import rectangles_naive
from relbetti.poset import Poset

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_script(script, *args):
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join(
        [src, env["PYTHONPATH"]] if env.get("PYTHONPATH") else [src]
    )
    return subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", script), *args],
        capture_output=True, text=True, env=env,
    )


@pytest.mark.parametrize(
    "script", ["demo_tables.py", "route_agreement.py", "collection_survey.py"]
)
def test_script_help(script):
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join(
        [src, env["PYTHONPATH"]] if env.get("PYTHONPATH") else [src]
    )
    r = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", script), "--help"],
        capture_output=True, text=True, env=env,
    )
    assert r.returncode == 0, r.stderr
    assert r.stdout.startswith("usage:")


@pytest.mark.parametrize(
    "args, line",
    [
        (["--samples", "3"], "standard routes: 3/3 agree, GF(2)"),
        (["--relative", "lower_hooks", "--samples", "2"],
         "relative routes (lower_hooks): 2/2 agree, GF(2)"),
    ],
    ids=["standard", "relative"],
)
def test_route_agreement_runs(args, line):
    r = run_script("route_agreement.py", *args)
    assert r.returncode == 0, r.stderr
    out = r.stdout.splitlines()
    assert out[0] == line
    # nearest-rank p90 lies between the median and the maximum
    for row in out[1:]:
        ms = [float(w[:-2]) for w in row.split() if w.endswith("ms")]
        assert ms[0] <= ms[1] <= ms[2], row


def test_route_agreement_refuses_no_samples():
    r = run_script("route_agreement.py", "--samples", "0")
    assert r.returncode == 2
    assert "Traceback" not in r.stderr
    assert "--samples must be at least 1" in r.stderr


def test_collection_survey_runs():
    r = run_script("collection_survey.py", "--n", "1")
    assert r.returncode == 0, r.stderr
    assert r.stdout.startswith("base grid: 4 elements, GF(2)")
    assert "\nall_subfunctors: 6 members" in r.stdout


@pytest.mark.parametrize(
    "script, args",
    [
        ("demo_tables.py", ["--dmax", "-1"]),
        ("demo_tables.py", ["--field", "4"]),
        ("route_agreement.py", ["--field", "4"]),
        ("route_agreement.py", ["--dmax", "-1"]),
        ("route_agreement.py", ["--ambient-n", "0", "--samples", "1"]),
        ("route_agreement.py", ["--ambient-n", "200", "--samples", "1"]),
        ("route_agreement.py", ["--seed", "-1"]),
        ("collection_survey.py", ["--field", "4"]),
        ("collection_survey.py", ["--n", "-1"]),
        ("collection_survey.py", ["--r", "-1"]),
        ("collection_survey.py", ["--r", "0"]),
        ("collection_survey.py", ["--n", "200"]),
    ],
    ids=lambda v: v if isinstance(v, str) else " ".join(v),
)
def test_bad_numeric_flag_is_a_usage_error(script, args):
    # refused while parsing, before any section is printed
    r = run_script(script, *args)
    assert r.returncode == 2, r.stderr
    assert r.stdout == ""
    assert "Traceback" not in r.stderr
    assert args[0] in r.stderr


def test_collection_survey_checks_degeneracy_claims(capsys):
    spec = importlib.util.spec_from_file_location(
        "collection_survey", os.path.join(ROOT, "scripts", "collection_survey.py")
    )
    survey = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(survey)
    coll = rectangles_naive(Poset.grid(1, 2), 2)
    coll.claims["degeneracy"] = True
    survey.survey("rectangles_naive", coll)
    out = capsys.readouterr().out
    assert "  degeneracy False" in out
    assert "CLAIM MISMATCH: degeneracy recorded True, honest False" in out
