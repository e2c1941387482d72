"""End-to-end tests for the command line interface.

Every test runs the CLI as a subprocess, the way a user would, and pins
the observable contract: exit codes, canonical JSON bytes on stdout,
errors on stderr.  Numerical expectations are either frozen tables that
the library suites already established through two independent routes,
or direct comparisons against an in-process computation (the subprocess
boundary is then the thing under test).
"""
import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_module
from relbetti.collections import (
    lower_hooks,
    rectangles_grid,
    rectangles_naive,
    singleton,
    translated,
)
from relbetti.fieldlin import Matrix
from relbetti.homalg import NatTransformation, betti, koszul
from relbetti.pmod import PersistenceModule, constant, free, m0_demo
from relbetti.pmod import validate as validate_module
from relbetti.poset import Poset
from relbetti.relative import CollectionFunctor, relative_betti_diagram

CLI = [sys.executable, "-m", "relbetti.cli"]


def run_cli(*args, stdin=None, env=None, timeout=None):
    full_env = dict(os.environ)
    if env:
        full_env.update(env)
    return subprocess.run(
        CLI + list(args),
        input=stdin,
        capture_output=True,
        text=True,
        env=full_env,
        timeout=timeout,
    )


def run_json(*args, stdin=None, env=None):
    r = run_cli(*args, stdin=stdin, env=env)
    assert r.returncode == 0, f"exit {r.returncode}: {r.stderr}"
    return json.loads(r.stdout)


def envelope(m, p=None):
    obj = {"module": m.to_json()}
    if p is not None:
        obj["p"] = p
    return json.dumps(obj)


def table_of(out):
    return {(e["d"], e["at"]): e["mult"] for e in out["betti"]}


def chain(n):
    names = [str(i) for i in range(n + 1)]
    return Poset.from_covers(names, [(str(i), str(i + 1)) for i in range(n)])


def wedge():
    # one bottom, two incomparable tops: not an upper semilattice
    return Poset.from_covers(["b", "l", "r"], [("b", "l"), ("b", "r")])


def yoneda_collection(poset, p):
    """One representable member per element, overlap arrows; thin by
    disjointness of supports at incomparable pairs."""
    objs = [free(poset, a, p) for a in range(poset.n)]
    arrows = {}
    for a, b in poset.covers:
        comps = []
        for x in range(poset.n):
            if objs[a].dims[x] and objs[b].dims[x]:
                comps.append(Matrix([[1]], p))
            else:
                comps.append(Matrix.zeros(objs[a].dims[x], objs[b].dims[x], p))
        arrows[(a, b)] = NatTransformation(objs[b], objs[a], enumerate(comps))
    return CollectionFunctor(poset, poset, p, objs, arrows)


M0_STD = {
    (0, "0,0"): 1,
    (1, "0,4"): 1,
    (1, "3,2"): 1,
    (1, "4,0"): 1,
    (2, "3,4"): 1,
    (2, "4,2"): 1,
}

M0_HOOKS = {
    (0, "0,0|0,4"): 1,
    (0, "0,0|3,2"): 1,
    (0, "0,0|4,0"): 1,
    (1, "0,0|3,4"): 1,
    (1, "0,0|4,2"): 1,
}


class TestDemo:
    def test_emits_worked_example(self):
        out = run_json("demo", "m0")
        assert out["p"] == 2
        assert out["module"]["poset"] == {"grid": {"n": 5, "r": 2}}
        assert out["module"] == m0_demo().to_json()
        assert sum(1 for d in out["module"]["dims"] if d) == 14

    def test_output_is_canonical_and_stable(self):
        a = run_cli("demo", "m0")
        b = run_cli("demo", "m0")
        assert a.stdout == b.stdout
        canon = json.dumps(
            json.loads(a.stdout), sort_keys=True, separators=(",", ":")
        )
        assert a.stdout == canon + "\n"

    def test_field_flag_changes_p(self):
        out = run_json("demo", "m0", "--field", "5")
        assert out["p"] == 5
        validate_module(PersistenceModule.from_json(out["module"], 5))

    def test_unknown_target(self):
        r = run_cli("demo", "nope")
        assert r.returncode == 4
        assert r.stderr


class TestBetti:
    def test_pipeline_koszul_golden(self):
        demo = run_cli("demo", "m0")
        out = run_json("betti", "--method", "koszul", stdin=demo.stdout)
        assert table_of(out) == M0_STD
        assert out["method"] == "koszul"
        assert out["p"] == 2

    def test_methods_agree_on_worked_example(self):
        demo = run_cli("demo", "m0").stdout
        res = run_json("betti", "--method", "resolution", stdin=demo)
        kos = run_json("betti", "--method", "koszul", stdin=demo)
        assert table_of(res) == table_of(kos) == M0_STD

    def test_default_method_is_resolution(self):
        demo = run_cli("demo", "m0").stdout
        out = run_json("betti", stdin=demo)
        assert out["method"] == "resolution"
        assert table_of(out) == M0_STD

    def test_reads_file_argument(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(run_cli("demo", "m0").stdout)
        out = run_json("betti", str(path))
        assert table_of(out) == M0_STD

    def test_dmax_truncates(self):
        demo = run_cli("demo", "m0").stdout
        out = run_json("betti", "--dmax", "1", "--method", "koszul", stdin=demo)
        want = {k: v for k, v in M0_STD.items() if k[0] <= 1}
        assert table_of(out) == want
        out = run_json("betti", "--dmax", "1", stdin=demo)
        assert table_of(out) == want

    def test_huge_dmax_reads_as_far_as_complexes_go(self):
        demo = run_cli("demo", "m0").stdout
        huge = run_json(
            "betti", "--method", "koszul", "--dmax", str(10**20), stdin=demo
        )
        assert huge["betti"] == run_json(
            "betti", "--method", "koszul", stdin=demo
        )["betti"]

    def test_methods_agree_on_random_module(self):
        import numpy as np

        rng = np.random.default_rng(7)
        m = random_module(rng, Poset.grid(2, 2), 5)
        payload = envelope(m, 5)
        res = run_json("betti", "--method", "resolution", stdin=payload)
        kos = run_json("betti", "--method", "koszul", stdin=payload)
        assert table_of(res) == table_of(kos)


class TestValidate:
    def test_module_ok(self):
        out = run_json("validate", stdin=run_cli("demo", "m0").stdout)
        assert out == {"kind": "module", "ok": True, "p": 2}

    def test_collection_ok(self):
        coll = lower_hooks(Poset.grid(1, 2), 2)
        payload = json.dumps({"p": 2, "collection": coll.to_json()})
        out = run_json("validate", stdin=payload)
        assert out == {"kind": "collection", "ok": True, "p": 2}

    def test_broken_functoriality_exits_one(self):
        g = Poset.grid(1, 2)
        m = constant(g, 2)
        obj = {"p": 2, "module": m.to_json()}
        # kill one cover map: the square through it no longer commutes
        obj["module"]["maps"]["0,0<0,1"] = [[0]]
        r = run_cli("validate", stdin=json.dumps(obj))
        assert r.returncode == 1
        assert "error" in r.stderr

    def test_field_fills_missing_p(self):
        m = constant(chain(1), 3)
        payload = json.dumps({"module": m.to_json()})
        out = run_json("validate", "--field", "3", stdin=payload)
        assert out["p"] == 3

    def test_field_conflict_is_malformed(self):
        r = run_cli("validate", "--field", "3",
                    stdin=run_cli("demo", "m0").stdout)
        assert r.returncode == 4

    def test_missing_p_is_malformed(self):
        m = constant(chain(1), 3)
        r = run_cli("validate", stdin=json.dumps({"module": m.to_json()}))
        assert r.returncode == 4

    def test_garbage_is_malformed(self):
        assert run_cli("validate", stdin="not json").returncode == 4

    def test_missing_file_is_malformed(self):
        assert run_cli("validate", "/no/such/file.json").returncode == 4


class TestRbetti:
    def test_builtin_hooks_golden(self):
        demo = run_cli("demo", "m0").stdout
        out = run_json(
            "rbetti", "--collection", "lower_hooks", "--dmax", "2",
            stdin=demo,
        )
        assert table_of(out) == M0_HOOKS
        assert out["collection"] == "lower_hooks"
        assert "unverified" not in out

    def test_methods_agree_for_hooks(self):
        demo = run_cli("demo", "m0").stdout
        kos = run_json(
            "rbetti", "--collection", "lower_hooks", "--dmax", "2",
            "--method", "koszul", stdin=demo,
        )
        res = run_json(
            "rbetti", "--collection", "lower_hooks", "--dmax", "2",
            "--method", "resolution", stdin=demo,
        )
        assert table_of(kos) == table_of(res) == M0_HOOKS

    def test_huge_dmax_reads_as_far_as_complexes_go(self):
        # the default method, Koszul, reads each complex without padding
        demo = run_cli("demo", "m0").stdout
        args = ("rbetti", "--collection", "lower_hooks")
        huge = run_json(*args, "--dmax", str(10**20), stdin=demo)
        assert huge["betti"] == run_json(*args, stdin=demo)["betti"]

    def test_builtin_spec_with_params(self):
        import numpy as np

        g = Poset.grid(2, 2)
        rng = np.random.default_rng(3)
        m = random_module(rng, g, 2)
        spec = json.dumps({"builtin": "translated", "params": {"T": [[0, 1], [1, 0]]}})
        out = run_json(
            "rbetti", "--collection", spec, "--dmax", "3", stdin=envelope(m, 2)
        )
        coll = translated(g, [(0, 1), (1, 0)], 2)
        want = relative_betti_diagram(coll, m, 3)
        assert table_of(out) == {
            (d, coll.index.names[a]): k for (d, a), k in want.items()
        }

    def test_explicit_collection_json(self):
        g = Poset.grid(1, 2)
        m = constant(g, 2)
        coll = lower_hooks(g, 2)
        out = run_json(
            "rbetti", "--collection", json.dumps(coll.to_json()),
            "--dmax", "2", stdin=envelope(m, 2),
        )
        want = relative_betti_diagram(coll, m, 2)
        assert table_of(out) == {
            (d, coll.index.names[a]): k for (d, a), k in want.items()
        }
        assert out["collection"] == "explicit"

    def test_collection_from_file(self, tmp_path):
        g = Poset.grid(1, 2)
        m = constant(g, 2)
        coll = lower_hooks(g, 2)
        path = tmp_path / "coll.json"
        path.write_text(json.dumps(coll.to_json()))
        out = run_json(
            "rbetti", "--collection", str(path), "--dmax", "2",
            stdin=envelope(m, 2),
        )
        want = relative_betti_diagram(coll, m, 2)
        assert table_of(out) == {
            (d, coll.index.names[a]): k for (d, a), k in want.items()
        }

    def test_refuses_unverified_hypothesis(self):
        m = constant(chain(1), 2)
        r = run_cli(
            "rbetti", "--collection", "rectangles_naive", "--dmax", "2",
            stdin=envelope(m, 2),
        )
        assert r.returncode == 2
        assert "error" in r.stderr

    def test_force_tags_output(self):
        m = constant(chain(1), 2)
        out = run_json(
            "rbetti", "--collection", "rectangles_naive", "--dmax", "2",
            "--force", stdin=envelope(m, 2),
        )
        assert out["unverified"] is True

    def test_resolution_method_needs_no_force(self):
        m = constant(chain(1), 2)
        out = run_json(
            "rbetti", "--collection", "rectangles_naive", "--dmax", "2",
            "--method", "resolution", stdin=envelope(m, 2),
        )
        assert "unverified" not in out

    def test_unknown_builtin(self):
        m = constant(chain(1), 2)
        r = run_cli(
            "rbetti", "--collection", "no_such_family", "--dmax", "1",
            stdin=envelope(m, 2),
        )
        assert r.returncode == 4

    def test_missing_collection_flag(self):
        r = run_cli("rbetti", "--dmax", "1", stdin=run_cli("demo", "m0").stdout)
        assert r.returncode == 4


class TestResolve:
    def test_worked_example(self):
        demo = run_cli("demo", "m0").stdout
        out = run_json("resolve", "--dmax", "4", stdin=demo)
        assert out["complete"] is True
        assert out["length"] == 2
        assert out["minimal"] is True
        got = {
            (d, e["at"]): e["mult"]
            for d, term in enumerate(out["terms"])
            for e in term
        }
        assert got == M0_STD
        assert table_of(out["multiplicities"]) == M0_STD

    def test_default_dmax_reaches_completion(self):
        demo = run_cli("demo", "m0").stdout
        out = run_json("resolve", stdin=demo)
        assert out["complete"] is True


class TestRresolve:
    def test_hooks_on_worked_example(self):
        demo = run_cli("demo", "m0").stdout
        out = run_json(
            "rresolve", "--collection", "lower_hooks", "--dmax", "2",
            stdin=demo,
        )
        assert out["complete"] is True
        assert out["length"] == 1
        got = {
            (d, e["at"]): e["mult"]
            for d, term in enumerate(out["terms"])
            for e in term
        }
        assert got == M0_HOOKS

    def test_dmax_is_required(self):
        r = run_cli(
            "rresolve", "--collection", "lower_hooks",
            stdin=run_cli("demo", "m0").stdout,
        )
        assert r.returncode == 4


class TestKoszul:
    def test_matches_library_complex(self):
        g = Poset.grid(1, 2)
        m = constant(g, 3)
        out = run_json("koszul", "--at", "1,1", stdin=envelope(m, 3))
        k = koszul(m, g.index("1,1"))
        assert out["at"] == "1,1"
        assert out["dims"] == list(k.dims)
        assert out["differentials"] == [d.tolist() for d in k.diffs]
        assert out["index_sets"] == [
            [[g.names[i] for i in s] for s in level] for level in k.index_sets
        ]
        assert out["meets"] == [[g.names[i] for i in ms] for ms in k.meets]
        assert out["homology"] == list(k.homology())

    def test_requires_at(self):
        m = constant(Poset.grid(1, 2), 2)
        assert run_cli("koszul", stdin=envelope(m, 2)).returncode == 4

    def test_unknown_element(self):
        m = constant(Poset.grid(1, 2), 2)
        r = run_cli("koszul", "--at", "9,9", stdin=envelope(m, 2))
        assert r.returncode == 4


class TestCheck:
    def test_spreads_not_thin_reports_with_exit_zero(self):
        payload = json.dumps({"p": 2, "poset": Poset.grid(1, 2).to_json()})
        out = run_json(
            "check", "--collection", "spreads_omega", "--thin", stdin=payload
        )
        rec = out["checks"]["thin"]
        assert rec["holds"] is False
        assert isinstance(rec["witness"], list) and len(rec["witness"]) == 2

    def test_hooks_all_three_properties(self):
        payload = json.dumps({"p": 2, "poset": Poset.grid(1, 2).to_json()})
        out = run_json(
            "check", "--collection", "lower_hooks",
            "--thin", "--flat", "--degeneracy", stdin=payload,
        )
        assert out["checks"]["thin"]["holds"] is True
        assert out["checks"]["flat"]["holds"] is False
        assert out["checks"]["degeneracy"]["holds"] is True

    def test_default_runs_all_three(self):
        payload = json.dumps({"p": 2, "poset": chain(1).to_json()})
        out = run_json("check", "--collection", "lower_hooks", stdin=payload)
        assert set(out["checks"]) == {"thin", "flat", "degeneracy"}

    def test_degeneracy_unevaluable_off_semilattice(self):
        coll = yoneda_collection(wedge(), 2)
        payload = json.dumps({"p": 2, "collection": coll.to_json()})
        out = run_json("check", "--degeneracy", stdin=payload)
        rec = out["checks"]["degeneracy"]
        assert rec["holds"] is None
        assert "reason" in rec

    def test_poset_from_module_payload(self):
        m = constant(Poset.grid(1, 2), 2)
        out = run_json(
            "check", "--collection", "lower_hooks", "--thin",
            stdin=envelope(m, 2),
        )
        assert out["checks"]["thin"]["holds"] is True

    def test_size_bound_flag(self):
        payload = json.dumps({"p": 2, "poset": Poset.grid(1, 2).to_json()})
        r = run_cli(
            "check", "--collection", "spreads_omega", "--thin",
            "--max-antichains", "2", stdin=payload,
        )
        assert r.returncode == 3

    @pytest.mark.parametrize("value", ["2", "-1"])
    def test_environment_sets_no_bound(self, value):
        # the bound is --max-antichains alone: a variable that once set
        # it changes no exit code and no byte
        payload = json.dumps({"p": 2, "poset": Poset.grid(1, 2).to_json()})
        args = ("check", "--collection", "spreads_omega", "--thin")
        want = run_cli(*args, stdin=payload)
        got = run_cli(*args, stdin=payload,
                      env={"RELBETTI_MAX_ANTICHAINS": value})
        assert want.returncode == got.returncode == 0
        assert (got.stdout, got.stderr) == (want.stdout, want.stderr)

    def test_nonsemilattice_builtin_exits_one(self):
        payload = json.dumps({"p": 2, "poset": wedge().to_json()})
        r = run_cli(
            "check", "--collection", "lower_hooks", "--thin", stdin=payload
        )
        assert r.returncode == 1


# The chain renderings of the demo module, byte for byte.
GOLDEN_CHAINS = {
    ("resolve", "dot"): (
        "digraph resolution {\n"
        "  rankdir=LR;\n"
        '  M [shape=box, label="target (total dim 14)"];\n'
        '  C0 [label="C0 = 0,0"];\n'
        "  C0 -> M;\n"
        '  C1 [label="C1 = 0,4 + 3,2 + 4,0"];\n'
        "  C1 -> C0;\n"
        '  C2 [label="C2 = 3,4 + 4,2"];\n'
        "  C2 -> C1;\n"
        "}\n"
    ),
    ("resolve", "table"): (
        "C0 = 0,0\n"
        "C1 = 0,4 + 3,2 + 4,0\n"
        "C2 = 3,4 + 4,2\n"
    ),
    ("rresolve", "dot"): (
        "digraph resolution {\n"
        "  rankdir=LR;\n"
        '  M [shape=box, label="target (total dim 14)"];\n'
        '  C0 [label="C0 = 0,0|0,4 + 0,0|3,2 + 0,0|4,0"];\n'
        "  C0 -> M;\n"
        '  C1 [label="C1 = 0,0|3,4 + 0,0|4,2"];\n'
        "  C1 -> C0;\n"
        "}\n"
    ),
    ("rresolve", "table"): (
        "C0 = 0,0|0,4 + 0,0|3,2 + 0,0|4,0\n"
        "C1 = 0,0|3,4 + 0,0|4,2\n"
    ),
}


class TestGoldenRenderings:
    @pytest.mark.parametrize("verb,fmt", sorted(GOLDEN_CHAINS))
    def test_chain_bytes(self, verb, fmt):
        demo = run_cli("demo", "m0").stdout
        extra = ["--collection", "lower_hooks", "--dmax", "2"]
        argv = [verb, *(extra if verb == "rresolve" else []), "--format", fmt]
        r = subprocess.run(
            CLI + argv, input=demo.encode(), capture_output=True
        )
        assert r.returncode == 0, r.stderr
        assert r.stdout == GOLDEN_CHAINS[(verb, fmt)].encode()


class TestFormats:
    def test_rbetti_table(self):
        demo = run_cli("demo", "m0").stdout
        r = run_cli(
            "rbetti", "--collection", "lower_hooks", "--dmax", "2",
            "--format", "table", stdin=demo,
        )
        assert r.returncode == 0
        assert "0,0|0,4" in r.stdout
        assert "d=0" in r.stdout and "d=1" in r.stdout

    def test_betti_dot(self):
        demo = run_cli("demo", "m0").stdout
        r = run_cli("betti", "--format", "dot", stdin=demo)
        assert r.returncode == 0
        assert r.stdout.startswith("digraph")
        assert "3,2" in r.stdout

    def test_resolve_dot(self):
        demo = run_cli("demo", "m0").stdout
        r = run_cli("resolve", "--format", "dot", stdin=demo)
        assert r.returncode == 0
        assert r.stdout.startswith("digraph")
        assert "C1" in r.stdout

    def test_demo_table(self):
        r = run_cli("demo", "m0", "--format", "table")
        assert r.returncode == 0
        assert "0,0" in r.stdout

    def test_validate_rejects_dot(self):
        demo = run_cli("demo", "m0").stdout
        r = run_cli("validate", "--format", "dot", stdin=demo)
        assert r.returncode == 4

    def test_koszul_rejects_table(self):
        m = constant(Poset.grid(1, 2), 2)
        r = run_cli(
            "koszul", "--at", "1,1", "--format", "table", stdin=envelope(m, 2)
        )
        assert r.returncode == 4


class TestDeterminism:
    def test_rbetti_bytes_stable(self):
        demo = run_cli("demo", "m0").stdout
        args = ("rbetti", "--collection", "lower_hooks", "--dmax", "2")
        a = run_cli(*args, stdin=demo)
        b = run_cli(*args, stdin=demo)
        assert a.returncode == b.returncode == 0
        assert a.stdout == b.stdout

    def test_stdout_is_payload_only(self):
        demo = run_cli("demo", "m0")
        assert demo.stderr == ""
        json.loads(demo.stdout)


class TestUsageErrors:
    def test_unknown_verb(self):
        assert run_cli("frobnicate").returncode == 4

    def test_no_verb(self):
        assert run_cli().returncode == 4

    def test_bad_method_value(self):
        demo = run_cli("demo", "m0").stdout
        r = run_cli("betti", "--method", "magic", stdin=demo)
        assert r.returncode == 4


# the module with one element and one dimension there
POINT_MODULE = {"poset": {"elements": ["0,0"], "covers": []},
                "dims": {"0,0": 1}}


def assert_input_error(r):
    """Exit 4, nothing on stdout, one error line and no traceback."""
    assert r.returncode == 4, r.stderr
    assert r.stdout == ""
    lines = r.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), r.stderr
    assert "Traceback" not in r.stderr


class TestInputErrors:
    @pytest.mark.parametrize("p", [4, "x", 1, 1 << 31, 2.5, True])
    def test_bad_payload_modulus(self, p):
        obj = json.loads(run_cli("demo", "m0").stdout)
        obj["p"] = p
        assert_input_error(run_cli("betti", stdin=json.dumps(obj)))

    def test_nonprime_field_flag(self):
        m = constant(chain(1), 3)
        payload = json.dumps({"module": m.to_json()})
        assert_input_error(run_cli("validate", "--field", "4", stdin=payload))
        assert_input_error(run_cli("demo", "m0", "--field", "4"))

    @pytest.mark.parametrize("verb", ["rbetti", "rresolve", "check"])
    def test_negative_max_antichains(self, verb):
        demo = run_cli("demo", "m0").stdout
        r = run_cli(
            verb, "--collection", "all_subfunctors",
            "--max-antichains", "-1", stdin=demo,
        )
        assert_input_error(r)
        assert "--max-antichains" in r.stderr

    @pytest.mark.parametrize(
        "name, params, key",
        [("all_subfunctors", {"max_antichains": 5}, "max_antichains"),
         ("lower_hooks", {"x": 1, "max_antichains": 5}, "max_antichains"),
         ("translated", {"t": [[0, 1], [1, 0]]}, "t"),
         ("rectangles_grid", {"n": 5, "r": 2, "shift": 1}, "shift")],
        ids=["leftover-bound", "first-sorted", "typo", "extra"],
    )
    def test_unread_builtin_params_refused(self, name, params, key):
        # a builtin reads only its own params; the antichain bound is
        # --max-antichains, not a param
        spec = {"builtin": name, "params": params}
        r = run_cli("rbetti", "--collection", json.dumps(spec),
                    stdin=M0_PAYLOAD)
        assert_input_error(r)
        assert r.stderr == (
            f"error: builtin {name!r} reads no param {key!r}\n"
        )

    @pytest.mark.parametrize(
        "params",
        [{"n": 5.5, "r": 2}, {"n": 5, "r": 2.0}, {"n": "5", "r": True},
         {"n": None, "r": 2}, {"n": -1, "r": 2}, {"n": 5, "r": 0},
         {"n": 5}],
        ids=["float-n", "float-r", "bool-r", "null-n", "negative-n",
             "zero-r", "missing-r"],
    )
    def test_bad_rectangles_grid_params(self, params):
        demo = run_cli("demo", "m0").stdout
        spec = {"builtin": "rectangles_grid", "params": params}
        r = run_cli(
            "rbetti", "--collection", json.dumps(spec), stdin=demo
        )
        assert_input_error(r)
        assert "rectangles_grid" in r.stderr

    @pytest.mark.parametrize(
        "params",
        [{"n": 1, "r": 10**40}, {"n": 99, "r": 2}, {"n": 4, "r": 2}],
        ids=["huge-r", "large-n", "other-shape"],
    )
    def test_rectangles_grid_params_checked_before_building(self, params):
        # a shape other than the payload's is refused before its
        # collection (about 25 million members at n = 99) is built
        demo = run_cli("demo", "m0").stdout
        spec = {"builtin": "rectangles_grid", "params": params}
        r = run_cli(
            "rbetti", "--collection", json.dumps(spec), stdin=demo,
            timeout=60,
        )
        assert r.returncode == 1, r.stderr
        assert r.stdout == ""
        assert r.stderr.startswith("error: rectangles_grid shape disagrees")
        assert len(r.stderr.splitlines()) == 1

    @pytest.mark.parametrize(
        "T",
        [[[0.5, 2], [1, 0]], [["0", True], [1, 0]], [[-1, 0], [1, 0]],
         5, [5], None],
        ids=["float", "bool", "negative", "not-a-list", "row-not-a-list",
             "missing"],
    )
    def test_bad_translated_shifts(self, T):
        demo = run_cli("demo", "m0").stdout
        spec = {"builtin": "translated", "params": {"T": T}}
        r = run_cli(
            "rbetti", "--method", "resolution", "--dmax", "1",
            "--collection", json.dumps(spec), stdin=demo,
        )
        assert_input_error(r)
        assert "translat" in r.stderr

    @pytest.mark.parametrize(
        "objs, arrows, message",
        [({"a": POINT_MODULE}, {"b<a": {}},
          "arrow key 'b<a' is not a cover relation"),
         ({"a": POINT_MODULE}, {"a<b": {"0,0": [[1]]}},
          "arrow 'a<b': component at '0,0' has shape 1x1, expected 1x0")],
        ids=["not-a-cover", "wrong-shape"],
    )
    def test_explicit_collection_errors_name_elements(
        self, objs, arrows, message
    ):
        spec = {"I": POINT_MODULE["poset"],
                "J": {"elements": ["a", "b"], "covers": [["a", "b"]]},
                "objs": objs, "arrows": arrows}
        r = run_cli(
            "rbetti", "--collection", json.dumps(spec),
            stdin=json.dumps({"p": 2, "module": POINT_MODULE}),
        )
        assert_input_error(r)
        assert r.stderr == f"error: bad collection payload: {message}\n"

    @pytest.mark.parametrize(
        "module, spec, message",
        [(5, "lower_hooks", "module must be an object, got int"),
         ({"poset": 5}, "lower_hooks", "poset must be an object, got int"),
         ({"poset": {"grid": 5}}, "lower_hooks",
          '"grid" must be an object, got int'),
         ({"poset": {"elements": []}}, "lower_hooks", "missing key 'covers'"),
         ({"poset": {"grid": {"n": 1}}}, "lower_hooks", "missing key 'r'"),
         ({}, "lower_hooks", "missing key 'poset'"),
         ("point", {"J": {"elements": ["a"], "covers": []}},
          "missing key 'I'"),
         ("point", {"builtin": "singleton", "params": {"member": 5}},
          "module must be an object, got int")],
        ids=["module", "poset", "grid", "covers", "r", "poset-key", "I",
             "member"],
    )
    def test_malformed_payloads_name_what_is_wrong(self, module, spec, message):
        module = POINT_MODULE if module == "point" else module
        r = run_cli(
            "rbetti", "--collection", json.dumps(spec),
            stdin=json.dumps({"p": 2, "module": module}),
        )
        assert_input_error(r)
        assert message in r.stderr
        assert "object is not subscriptable" not in r.stderr
        assert "not iterable" not in r.stderr

    @pytest.mark.parametrize("name", [[1], {"a": 1}, 5, None])
    def test_builtin_name_must_be_a_string(self, name):
        demo = run_cli("demo", "m0").stdout
        r = run_cli(
            "rbetti", "--collection", json.dumps({"builtin": name}),
            stdin=demo,
        )
        assert_input_error(r)
        assert '"builtin"' in r.stderr

    @pytest.mark.parametrize("verb", ["betti", "rbetti", "resolve", "rresolve"])
    def test_negative_dmax(self, verb):
        demo = run_cli("demo", "m0").stdout
        relative = verb in ("rbetti", "rresolve")
        extra = ["--collection", "lower_hooks"] if relative else []
        r = run_cli(verb, "--dmax", "-1", *extra, stdin=demo)
        assert_input_error(r)
        assert "--dmax" in r.stderr

    # malformed module payloads: the demo payload with one part replaced
    @pytest.mark.parametrize(
        "part, value",
        [
            ("entry", 0.5), ("entry", "1"), ("entry", True), ("entry", None),
            ("entry", [1]), ("map", 1), ("map", [1]), ("map", []),
            ("map", [[1], [1]]), ("dim", 1.5), ("dim", True), ("dim", -1),
            ("dim", "x"), ("dim", None), ("dims", [1]), ("maps", [[1]]),
            ("dims", "x"), ("maps", 1), ("grid", {"n": 5.5, "r": 2}),
            ("grid", {"n": 5, "r": 2.0}), ("grid", {"n": "5", "r": True}),
            ("grid", {"n": True, "r": 2}), ("grid", {"n": 5, "r": 0}),
            ("elements", "ab"), ("elements", {"a": 1, "b": 2}),
            ("elements", [1, 2]), ("covers", "ab"),
            ("covers", [["a", "b", "a"]]), ("covers", [["a", 1]]),
        ],
    )
    def test_malformed_module_part(self, part, value):
        obj = json.loads(run_cli("demo", "m0").stdout)
        mod = obj["module"]
        if part == "grid":
            mod["poset"] = {"grid": value}
        elif part in ("elements", "covers"):
            # an explicit poset that is otherwise a valid zero module
            poset = {"elements": ["a", "b"], "covers": [["a", "b"]]}
            poset[part] = value
            obj["module"] = {"poset": poset, "dims": {}, "maps": {}}
        elif part == "entry":
            mod["maps"]["0,0<0,1"] = [[value]]
        elif part == "map":
            mod["maps"]["0,0<0,1"] = value
        elif part == "dim":
            mod["dims"]["0,0"] = value
        else:
            mod[part] = value
        assert_input_error(run_cli("betti", stdin=json.dumps(obj)))

    @pytest.mark.parametrize("loader", ["collection", "builtin"])
    def test_malformed_poset_through_collection_loaders(self, loader):
        # a string of names is not read as one element per character
        bad = {"elements": "ab", "covers": []}
        if loader == "collection":
            coll = self._explicit()
            coll["I"] = bad
            args = ["--collection", json.dumps(coll)]
            payload = {"p": 2}
        else:
            args = ["--collection", "lower_hooks"]
            payload = {"p": 2, "poset": bad}
        assert_input_error(run_cli("check", *args, stdin=json.dumps(payload)))

    def test_unknown_dims_name(self):
        obj = json.loads(run_cli("demo", "m0").stdout)
        obj["module"]["dims"]["9,9"] = 1
        assert_input_error(run_cli("betti", stdin=json.dumps(obj)))

    @pytest.mark.parametrize("part", ["cover", "map", "arrow"])
    def test_unknown_name_is_named(self, part):
        # a cover, a module map key or a collection arrow key naming no
        # element: the message names the key and the missing element
        poset = {"elements": ["a", "b"], "covers": [["a", "b"]]}
        module = {"poset": poset, "dims": {"a": 1}}
        args = []
        if part == "cover":
            poset["covers"] = [["a", "z"]]
            want = "bad module payload: cover 'a' < 'z' names no element 'z'"
        elif part == "map":
            module["maps"] = {"a<z": [[1]]}
            want = "bad module payload: map key 'a<z' names no element 'z'"
        else:
            coll = self._explicit()
            key = next(iter(coll["arrows"]))
            bad = key.partition("<")[0] + "<z"
            coll["arrows"][bad] = coll["arrows"].pop(key)
            args = ["--collection", json.dumps(coll)]
            module = constant(Poset.grid(1, 2), 2).to_json()
            want = (f"bad collection payload: arrow {bad!r} names no "
                    "index element 'z'")
        r = run_cli("rbetti" if args else "betti", *args,
                    stdin=json.dumps({"p": 2, "module": module}))
        assert_input_error(r)
        assert r.stderr == f"error: {want}\n"

    @pytest.mark.parametrize("entry", [10**30 + 1, -1, 3])
    def test_map_entries_reduce_mod_p(self, entry):
        demo = run_cli("demo", "m0").stdout
        obj = json.loads(demo)
        obj["module"]["maps"]["0,0<0,1"] = [[entry]]
        got = run_cli("betti", stdin=json.dumps(obj))
        assert got.returncode == 0, got.stderr
        assert got.stdout == run_cli("betti", stdin=demo).stdout

    def _explicit(self):
        return lower_hooks(Poset.grid(1, 2), 2).to_json()

    @pytest.mark.parametrize(
        "part",
        ["objs", "arrows", "member", "arrow", "entry", "member-dims",
         "member-name", "arrow-name"],
    )
    def test_malformed_collection_part(self, part):
        coll = self._explicit()
        key = next(iter(coll["arrows"]))
        if part in ("objs", "arrows"):
            coll[part] = []
        elif part == "member-name":
            coll["objs"]["9,9|9,9"] = coll["objs"][next(iter(coll["objs"]))]
        elif part == "arrow-name":
            coll["arrows"][key]["9,9"] = [[1]]
        elif part == "member":
            coll["objs"][next(iter(coll["objs"]))] = [1]
        elif part == "arrow":
            coll["arrows"][key] = [[1]]
        elif part == "entry":
            comps = coll["arrows"][key]
            comps[next(iter(comps))] = [[0.5]]
        else:
            coll["objs"][next(iter(coll["objs"]))]["dims"] = [1]
        m = constant(Poset.grid(1, 2), 2)
        r = run_cli("rbetti", "--collection", json.dumps(coll), "--dmax", "2",
                    stdin=envelope(m, 2))
        assert_input_error(r)

    def test_payload_collection_must_be_object(self):
        payload = json.dumps({"p": 2, "collection": [1]})
        assert_input_error(run_cli("validate", stdin=payload))
        assert_input_error(run_cli("check", stdin=payload))

    @pytest.mark.parametrize("part", ["arrow", "member"])
    def test_broken_collection_exits_one(self, part):
        # a zero inside an arrow's overlap, or on one side of a member's
        # square: Hom is solved at a presentation and read off free
        # positions, so both must be refused
        g = Poset.grid(1, 2)
        if part == "arrow":
            coll = self._explicit()
            key, comps = next(
                (k, c) for k, c in coll["arrows"].items() if len(c) > 1
            )
            comps[next(iter(comps))] = [[0]]
        else:
            coll = rectangles_naive(g, 2).to_json()
            key, member = next(
                (k, c) for k, c in coll["objs"].items() if len(c["maps"]) == 4
            )
            member["maps"]["0,0<0,1"] = [[0]]
        r = run_cli("rbetti", "--collection", json.dumps(coll), "--dmax", "2",
                    "--force", stdin=envelope(constant(g, 2), 2))
        assert r.returncode == 1, r.stderr
        assert r.stdout == ""
        assert r.stderr.startswith(f"error: {part} {key!r}")
        assert len(r.stderr.splitlines()) == 1

    def test_member_over_another_poset_is_named(self):
        # members are checked before the arrows that touch them are built
        coll = self._explicit()
        name = "0,0|0,1"
        assert any(name in key.split("<") for key in coll["arrows"])
        coll["objs"][name] = constant(Poset.grid(2, 1), 2).to_json()
        r = run_cli("rbetti", "--collection", json.dumps(coll), "--dmax", "2",
                    stdin=envelope(constant(Poset.grid(1, 2), 2), 2))
        assert_input_error(r)
        assert r.stderr == ("error: bad collection payload: member "
                            f"{name!r} lives over a different poset\n")

    def test_payload_is_parsed_before_members_are_checked(self):
        # a member that is not a functor alone exits 1; validate runs once
        # the whole payload is read, so a later arrow naming no index
        # element makes the payload malformed first: exit 4
        g = Poset.grid(1, 2)
        coll = rectangles_naive(g, 2).to_json()
        member = next(c for c in coll["objs"].values() if len(c["maps"]) == 4)
        member["maps"]["0,0<0,1"] = [[0]]
        coll["arrows"]["9,9|9,9<0,0|0,0"] = {}
        r = run_cli("rbetti", "--collection", json.dumps(coll), "--dmax", "2",
                    "--force", stdin=envelope(constant(g, 2), 2))
        assert_input_error(r)
        assert r.stderr == ("error: bad collection payload: arrow "
                            "'9,9|9,9<0,0|0,0' names no index element "
                            "'9,9|9,9'\n")

_JUNK = st.one_of(
    st.integers(-(10**40), 10**40),
    st.integers(0, 3),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=3),
    st.booleans(),
    st.none(),
    st.lists(st.integers(-3, 3), max_size=2),
    st.dictionaries(st.text(max_size=3), st.integers(0, 2), max_size=2),
)


@settings(max_examples=30, deadline=None)
@given(
    part=st.sampled_from(["dim", "entry", "map", "dims", "maps", "drop"]),
    name=st.integers(0, 19),
    value=_JUNK,
)
def test_mutated_demo_payload(part, name, value):
    # every mutation exits with a documented code and one error line; an
    # exit 0 means the payload spells a module, the one the CLI computed
    obj = json.loads(M0_PAYLOAD)
    mod = obj["module"]
    dims, maps = sorted(mod["dims"]), sorted(mod["maps"])
    if part == "dim":
        if isinstance(value, int) and not isinstance(value, bool):
            value = abs(value) % 4  # a large dimension allocates
        mod["dims"][dims[name % len(dims)]] = value
    elif part == "entry":
        mod["maps"][maps[name]] = [[value]]
    elif part == "map":
        mod["maps"][maps[name]] = value
    elif part == "drop":
        del mod[["dims", "maps", "poset"][name % 3]]
    else:
        mod[part] = value
    r = run_cli("betti", stdin=json.dumps(obj))
    assert r.returncode in (0, 1, 2, 3, 4)
    assert "Traceback" not in r.stderr
    if r.returncode:
        lines = r.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert r.stdout == ""
        return
    m = PersistenceModule.from_json(mod, 2)
    spelled = mod.get("dims", {})
    assert all(m.dims[m.poset.index(k)] == int(v) for k, v in spelled.items())
    for key, rows in mod.get("maps", {}).items():
        a, _, b = key.partition("<")
        got = m.cover_map(m.poset.index(a), m.poset.index(b))
        assert got.tolist() == [[v % 2 for v in row] for row in rows]
    want = betti(m, m.poset.n)
    assert table_of(json.loads(r.stdout)) == {
        (d, m.poset.names[a]): k for (d, a), k in want.items()
    }


M0_PAYLOAD = json.dumps({"p": 2, "module": m0_demo().to_json()})


_SPEC_BASE = Poset.grid(1, 2)
_SPEC_PAYLOAD = json.dumps(
    {"p": 2, "module": constant(_SPEC_BASE, 2).to_json()}
)


@settings(max_examples=40, deadline=None)
@given(
    part=st.sampled_from(
        ["name", "n", "r", "T", "shift", "max_antichains", "member",
         "params"]
    ),
    key=st.sampled_from(["poset", "dims", "maps"]),
    value=_JUNK,
)
def test_mutated_collection_spec(part, key, value):
    # every mutated --collection builtin spec exits with a documented code;
    # a failure prints one error line and nothing on stdout
    if part == "name":
        spec = {"builtin": value}
    elif part in ("n", "r"):
        params = {"n": 1, "r": 2}
        params[part] = value
        spec = {"builtin": "rectangles_grid", "params": params}
    elif part == "T":
        spec = {"builtin": "translated", "params": {"T": value}}
    elif part == "shift":
        spec = {"builtin": "translated", "params": {"T": [[0, 1], [1, value]]}}
    elif part == "max_antichains":
        spec = {"builtin": "all_subfunctors",
                "params": {"max_antichains": value}}
    elif part == "member":
        member = constant(_SPEC_BASE, 2).to_json()
        member[key] = value
        spec = {"builtin": "singleton", "params": {"member": member}}
    else:
        spec = {"builtin": "lower_hooks", "params": value}
    r = run_cli("rbetti", "--collection", json.dumps(spec), "--dmax", "2",
                stdin=_SPEC_PAYLOAD)
    assert r.returncode in (0, 1, 2, 3, 4)
    assert "Traceback" not in r.stderr
    if r.returncode:
        lines = r.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), r.stderr
        assert r.stdout == ""


_SPREADS_NOT_THIN = (
    "collection is not thin at pair ('{0,0}|{1,1}', '{0,1;1,0}|{0,1}')"
)


@pytest.mark.parametrize("builder, name", [
    ("lower_hooks", "x|y"),
    ("rectangles_naive", "x|y"),
    ("lower_hooks_inf", "x|y"),
    ("lower_hooks_inf", "inf"),
])
def test_builder_refuses_clashing_element_name(builder, name):
    # index elements are named v|w (and v|inf), so a base name holding
    # the separator, or inf itself, is a constraint of the builder
    poset = {"elements": ["a", name], "covers": [["a", name]]}
    payload = {"p": 2, "module": {"poset": poset, "dims": {"a": 1}}}
    r = run_cli("rbetti", "--collection", builder, "--dmax", "1",
                stdin=json.dumps(payload))
    assert r.returncode == 1
    assert r.stdout == ""
    lines = r.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), r.stderr
    assert repr(name) in lines[0]


@pytest.mark.parametrize("verb", [
    ["rbetti"],
    ["rresolve"],
    ["rbetti", "--method", "resolution"],
])
def test_not_thin_error_names_elements(verb):
    # the pair is the thin check's witness, named by the index's names
    r = run_cli(*verb, "--collection", '{"builtin":"spreads_omega"}',
                "--dmax", "2", stdin=_SPEC_PAYLOAD)
    assert r.returncode == 1
    assert r.stderr == f"error: {_SPREADS_NOT_THIN}\n"
    assert r.stdout == ""


def test_check_not_thin_reason_names_elements():
    out = run_json("check", "--collection", "spreads_omega",
                   stdin=_SPEC_PAYLOAD)
    witness = out["checks"]["thin"]["witness"]
    assert witness == ["{0,0}|{1,1}", "{0,1;1,0}|{0,1}"]
    assert out["checks"]["degeneracy"] == {
        "holds": None,
        "reason": f"collection is not thin at pair {tuple(witness)!r}",
        "witness": None,
    }
    assert out["checks"]["degeneracy"]["reason"] == _SPREADS_NOT_THIN


@pytest.mark.parametrize("verb", [
    ["check"],
    ["rbetti", "--dmax", "2"],
    ["rbetti", "--dmax", "2", "--method", "resolution"],
])
def test_non_functorial_singleton_member_names_the_square(verb):
    # refused when the collection is built, as an explicit collection's
    # member would be, not reported as a thinness failure
    member = constant(_SPEC_BASE, 2).to_json()
    member["maps"]["0,0<0,1"] = [[0]]
    spec = {"builtin": "singleton", "params": {"member": member}}
    r = run_cli(verb[0], "--collection", json.dumps(spec), *verb[1:],
                stdin=_SPEC_PAYLOAD)
    assert r.returncode == 1
    assert r.stderr == (
        "error: singleton member: composites to '1,1' from '0,0' "
        "disagree through '1,0'\n"
    )
    assert r.stdout == ""


@pytest.mark.parametrize("verb", [
    ["betti"],
    ["betti", "--method", "koszul"],
    ["resolve"],
    ["rbetti", "--collection", "lower_hooks"],
    ["rbetti", "--collection", "lower_hooks", "--method", "resolution"],
    ["rresolve", "--collection", "lower_hooks", "--dmax", "2"],
    ["koszul", "--at", "0,0"],
])
def test_non_functorial_module_is_refused_by_every_verb(verb):
    # every verb loads the payload's module the way validate does, so a
    # square that does not commute never reaches a computation
    module = constant(Poset.grid(1, 2), 2).to_json()
    module["maps"]["1,0<1,1"] = [[0]]
    payload = json.dumps({"p": 2, "module": module})
    want = run_cli("validate", stdin=payload)
    assert want.returncode == 1 and want.stdout == ""
    r = run_cli(*verb, stdin=payload)
    assert r.returncode == 1
    assert r.stdout == ""
    assert r.stderr == want.stderr


@pytest.mark.parametrize("name, params, build", [
    ("singleton", {"member": constant(_SPEC_BASE, 2).to_json()},
     lambda: singleton(constant(_SPEC_BASE, 2))),
    ("translated", {"T": [[0, 1], [1, 0]]},
     lambda: translated(_SPEC_BASE, [(0, 1), (1, 0)], 2)),
    ("rectangles_grid", {"n": 1, "r": 2}, lambda: rectangles_grid(1, 2, 2)),
    ("lower_hooks", {}, lambda: lower_hooks(_SPEC_BASE, 2)),
])
def test_builtin_spec_with_the_params_it_reads(name, params, build):
    # a spec stating only what its builtin reads checks as the library's
    # collection given in full
    spec = {"builtin": name, "params": params}
    got = run_json("check", "--collection", json.dumps(spec),
                   stdin=_SPEC_PAYLOAD)
    want = run_json("check", "--collection", json.dumps(build().to_json()),
                    stdin=_SPEC_PAYLOAD)
    assert got == dict(want, collection=name)


def _diamond(scale):
    """Free members at 0,0 < 1,0, 0,1 < 1,1 of grid(1,2) over the index
    diamond a < b, c < d, at p = 5: every arrow 1 except a < c, which is
    scale, so the composites from d to a agree only at scale 1."""
    base = Poset.grid(1, 2)
    index = Poset.from_covers(
        list("abcd"), [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")]
    )
    objs = [free(base, base.index(x), 5) for x in ["0,0", "1,0", "0,1", "1,1"]]
    arrows = {}
    for a, b in index.covers:
        c = scale if index.names[a] + index.names[b] == "ac" else 1
        comps = {x: Matrix([[c]], 5) for x in range(base.n)
                 if objs[a].dims[x] and objs[b].dims[x]}
        arrows[(a, b)] = NatTransformation(objs[b], objs[a], comps)
    return CollectionFunctor(base, index, 5, objs, arrows).to_json()


@pytest.mark.parametrize("verb", [
    ["validate"],
    ["check"],
    ["check", "--collection"],
    ["rbetti", "--collection"],
    ["rbetti", "--method", "resolution", "--collection"],
    ["rresolve", "--dmax", "3", "--collection"],
])
def test_path_dependent_collection_refused_by_every_verb(verb):
    # the composites from d to a differ through b and through c, so the
    # collection is no functor and has no relative diagram
    coll = _diamond(2)
    module = constant(Poset.grid(1, 2), 5).to_json()
    if verb[-1] == "--collection":
        verb = [*verb, json.dumps(coll)]
        payload = {"p": 5, "module": module}
    else:
        payload = {"p": 5, "collection": coll}
    r = run_cli(*verb, stdin=json.dumps(payload))
    assert r.returncode == 1
    assert r.stdout == ""
    assert r.stderr == (
        "error: composite arrows from 'd' to 'a' disagree through 'c'\n"
    )


def test_functorial_diamond_is_read():
    payload = json.dumps({"p": 5, "collection": _diamond(1)})
    assert run_json("validate", stdin=payload) == {
        "kind": "collection", "ok": True, "p": 5
    }


def test_cover_key_separator_in_a_name_refused():
    # "a<b<c" could not say which '<' splits the cover key of a map
    poset = {"elements": ["a<b", "c"], "covers": [["a<b", "c"]]}
    payload = {"p": 2, "module": {"poset": poset, "dims": {"c": 1}}}
    r = run_cli("validate", stdin=json.dumps(payload))
    assert_input_error(r)
    assert r.stderr == (
        "error: bad module payload: element name 'a<b' contains '<', "
        "which separates the names of a cover key\n"
    )
