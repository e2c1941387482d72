"""The benchmark's own tests.

    python3 -m pytest perfbench/check_bench.py -q

Run from the repository root.  They start real benchmark runs (about two
minutes in all), so they are kept out of the package's test suite.
"""
import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "perfbench")

# span-derived metrics each workload must exercise: the layer functions
# that BENCHMARK.json's prediction table maps to that workload
EXPECTED_SPANS = {
    "std-routes": [
        "fieldlin.rref.calls", "fieldlin.kernel_basis.calls",
        "fieldlin.solve.calls", "fieldlin.homology_dims.calls",
        "fieldlin.matmul.calls", "poset.construct.calls",
        "pmod.radical.calls", "pmod.free_on.calls", "homalg.kernel.calls",
        "homalg.minimal_cover.calls", "homalg.minimal_resolution.calls",
        "homalg.koszul.calls",
    ],
    "rel-routes": [
        "homalg.nat_basis.calls", "fieldlin.kron.calls",
        "relative.nat_module.calls", "homalg.kernel.calls",
        "homalg.minimal_cover.calls", "pmod.radical.calls",
        "homalg.koszul.calls", "fieldlin.homology_dims.calls",
        "fieldlin.rref.calls", "fieldlin.matmul.calls",
    ],
    "honest-gates": [
        "homalg.nat_basis.calls", "fieldlin.kron.calls",
        "relative.pair_basis.calls", "relative.unit.calls",
        "collections.build.calls", "poset.construct.calls",
        "poset.sublattice_closure.calls",
    ],
    "cli-demo": [
        "collections.build.calls", "poset.construct.calls",
        "relative.nat_module.calls", "homalg.nat_basis.calls",
        "homalg.minimal_resolution.calls",
    ],
}
# self-time metrics of spans that must be present on a workload
EXPECTED_SELF = {
    "rel-routes": [
        "relative.relative_minimal_resolution.self_s",
        "relative.relative_betti_diagram.self_s",
    ],
    "honest-gates": [
        "relative.is_thin.self_s", "relative.is_flat.self_s",
        "relative.degeneracy_hypothesis.self_s",
    ],
    "cli-demo": ["cli.main.self_s", "cli.startup_s"],
}


def bench(workload, seed, trace, seconds=1, cwd=ROOT):
    got = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    assert got.returncode == 0, got.stderr
    lines = got.stdout.strip().splitlines()
    return json.loads(lines[-2])["detail"], json.loads(lines[-1])


@pytest.fixture(scope="module")
def traced():
    return {w: bench(w, 5, trace=1) for w in EXPECTED_SPANS}


def counts(result):
    return {
        k: v["value"] for k, v in result["metrics"].items()
        if v["unit"] == "count"
    }


def test_runs_are_correct(traced):
    for workload, (detail, result) in traced.items():
        assert result["correct"], (workload, detail["errors"])
        assert result["failed"] == 0


def test_traced_and_untraced_digests_match(traced):
    for workload in ("std-routes", "honest-gates"):
        detail, result = bench(workload, 5, trace=0)
        assert result["correct"]
        assert detail["digest"] == traced[workload][0]["digest"]


def test_traced_counts_repeat(traced):
    for workload in ("std-routes", "honest-gates"):
        _, again = bench(workload, 5, trace=1)
        assert counts(again) == counts(traced[workload][1])


def test_mapped_functions_record_spans(traced):
    for workload, names in EXPECTED_SPANS.items():
        metrics = traced[workload][1]["metrics"]
        for name in names:
            assert metrics[name]["value"] > 0, (workload, name)
        for name in EXPECTED_SELF.get(workload, []):
            assert metrics[name]["value"] > 0, (workload, name)


def test_std_routes_solves_no_hom(traced):
    metrics = traced["std-routes"][1]["metrics"]
    assert metrics["homalg.nat_basis.calls"]["value"] == 0
    assert metrics["relative.pair_basis.calls"]["value"] == 0


def test_every_listed_metric_is_reported(traced):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    listed = {m["name"] for m in spec["per_layer"]}
    for _, result in traced.values():
        assert set(result["metrics"]) == listed
    _, result = bench("std-routes", 5, trace=0)
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}


def test_one_wrapper_per_function():
    code = (
        "import sys; sys.path[:0] = ['src', 'perfbench']\n"
        "import tracer, relbetti.cli as c, relbetti.homalg as h\n"
        "import relbetti.relative as r, relbetti.fieldlin as f\n"
        "import relbetti.collections as col\n"
        "t = tracer.Tracer().install()\n"
        "assert r.nat_basis is h.nat_basis\n"
        "assert h.nat_basis.__wrapped__.__module__ == 'relbetti.homalg'\n"
        "assert h.rref is f.rref and r.rref is f.rref\n"
        "assert c._PLAIN_BUILTINS['lower_hooks'] is col.lower_hooks\n"
        "assert c.lower_hooks is col.lower_hooks\n"
        "assert hasattr(col.lower_hooks, '__wrapped__')\n"
        "t.uninstall()\n"
        "assert not hasattr(h.nat_basis, '__wrapped__')\n"
        "assert not hasattr(c._PLAIN_BUILTINS['lower_hooks'], '__wrapped__')\n"
    )
    got = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                         capture_output=True, text=True)
    assert got.returncode == 0, got.stderr


def test_refuses_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    got = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "std-routes",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert got.returncode != 0
    assert got.stdout == ""
