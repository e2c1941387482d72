"""The benchmark's four workloads.

Each workload reads the payloads gen.py wrote, does its set-up once
(`__init__`) and then runs one input at a time (`run`).  `run` returns
(record, stages): the record holds every diagram, status and witness the
input produced and goes into the run's digest; stages maps a route or
check name to its seconds.  `run` raises ItemFailed when an output gate
fails.  Library calls go through module attributes, so the tracer's
rebinding reaches them.

    python3 perfbench/workloads.py --setup WORKLOAD DIR

does only the set-up and exits; run.py times it in fresh processes to get
setup_s.
"""
import hashlib
import json
import os
import subprocess
import sys
import time

ROOT = os.getcwd()
sys.path.insert(0, os.path.join(ROOT, "src"))

from relbetti import collections, homalg, pmod, relative  # noqa: E402
from relbetti import poset as posets  # noqa: E402
from relbetti.errors import NotSemilattice, NotThin  # noqa: E402


class ItemFailed(Exception):
    """An output gate rejected an input's result."""


def _read(path):
    with open(path) as fh:
        return json.load(fh)


def _entries(diagram, poset):
    return diagram.to_json(poset)["betti"]


class StdRoutes:
    """Standard minimal resolution, then the per-element Koszul diagram."""

    in_process = True

    def __init__(self, workdir):
        payload = _read(os.path.join(workdir, "payloads.json"))
        self.p = payload["p"]
        self.inputs = payload["items"]

    def run(self, item):
        m = pmod.PersistenceModule.from_json(item["module"], self.p)
        dmax = item["dmax"]
        t0 = time.perf_counter()
        res = homalg.minimal_resolution(m, dmax)
        t1 = time.perf_counter()
        entries = {}
        for a in range(m.poset.n):
            for d, k in enumerate(homalg.betti_koszul(m, a, dmax)):
                if k:
                    entries[(d, a)] = k
        t2 = time.perf_counter()
        via_res = res.multiplicities()
        if not res.complete:
            raise ItemFailed("resolution not complete within dmax")
        if via_res != pmod.BettiDiagram(entries):
            raise ItemFailed("resolution and Koszul diagrams disagree")
        record = {"betti": _entries(via_res, m.poset)}
        return record, {"resolve": t1 - t0, "koszul": t2 - t1}


class RelRoutes:
    """Relative minimal resolution, then the relative Koszul diagram."""

    in_process = True

    def __init__(self, workdir):
        payload = _read(os.path.join(workdir, "payloads.json"))
        self.p = p = payload["p"]
        self.inputs = payload["items"]
        base = posets.Poset.from_json(payload["base"])
        n, r = base.grid_shape
        self.colls = {
            "lower_hooks": collections.lower_hooks(base, p),
            "rectangles_grid": collections.rectangles_grid(n, r, p),
        }

    def run(self, item):
        coll = self.colls[item["collection"]]
        m = pmod.PersistenceModule.from_json(item["module"], self.p)
        dmax = item["dmax"]
        t0 = time.perf_counter()
        res = relative.relative_minimal_resolution(coll, m, dmax)
        t1 = time.perf_counter()
        kos = relative.relative_betti_diagram(coll, m, dmax)
        t2 = time.perf_counter()
        if not res.complete:
            raise ItemFailed("relative resolution not complete within dmax")
        if res.multiplicities() != kos:
            raise ItemFailed("relative resolution and Koszul disagree")
        record = {"betti": _entries(kos, coll.index)}
        return record, {"resolve": t1 - t0, "koszul": t2 - t1}


def _status(fn, coll):
    """A check's outcome as `relbetti check` reports it."""
    try:
        holds, witness = fn(coll)
    except (NotThin, NotSemilattice):
        return {"holds": None, "witness": None}
    if witness is not None:
        witness = [coll.index.names[x] for x in witness]
    return {"holds": holds, "witness": witness}


class HonestGates:
    """Fresh collection, claims removed, then thin, flat and degeneracy."""

    in_process = True

    def __init__(self, workdir):
        payload = _read(os.path.join(workdir, "payloads.json"))
        self.p = payload["p"]
        self.inputs = payload["items"]

    def run(self, item):
        t0 = time.perf_counter()
        build = getattr(collections, item["builder"])
        if item["base"] is None:
            coll = build(item["params"]["n"], item["params"]["r"], self.p)
        else:
            coll = build(posets.Poset.from_json(item["base"]), self.p)
        claims = dict(coll.claims)
        coll.claims = {}
        t1 = time.perf_counter()
        thin = _status(relative.is_thin, coll)
        t2 = time.perf_counter()
        flat = _status(relative.is_flat, coll)
        t3 = time.perf_counter()
        degeneracy = _status(relative.degeneracy_hypothesis, coll)
        t4 = time.perf_counter()
        statuses = {"thin": thin, "flat": flat, "degeneracy": degeneracy}
        for key, claimed in sorted(claims.items()):
            if statuses[key]["holds"] != bool(claimed):
                raise ItemFailed(
                    f"honest {key} is {statuses[key]['holds']}, "
                    f"claim says {claimed}"
                )
        record = {"index": coll.index.n, "checks": statuses}
        stages = {"build": t1 - t0, "thin": t2 - t1, "flat": t3 - t2,
                  "degeneracy": t4 - t3}
        return record, stages


def cli_env():
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return env


def run_child(argv, stdout_path):
    """Run one child process to completion; returns (code, wall, rss_kb).

    os.wait4 reaps the child itself, so its own peak resident size is
    known, not the maximum over every child this process ever had.
    """
    with open(stdout_path, "wb") as out, open(os.devnull, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=cli_env(),
                                cwd=ROOT)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss


def sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


class CliDemo:
    """One `python -m relbetti.cli` child per input, compared byte-wise.

    `golden` maps an input label to the sha256 of its stdout at the seed
    commit; inputs built from seeded random payloads are gated by route
    agreement instead (see agreement()).
    """

    in_process = False

    def __init__(self, workdir, golden=None):
        payload = _read(os.path.join(workdir, "payloads.json"))
        self.workdir = workdir
        self.inputs = payload["items"]
        self.golden = golden or {}
        self.spans_dir = None  # set by a traced run
        self.child_rss_kb = 0
        self.children = []  # (wall, spans path or None, stdout bytes)
        self.outputs = {}

    def argv(self, item, spans=None):
        path = os.path.relpath(os.path.join(self.workdir, item["input"]), ROOT)
        if spans is None:
            return [sys.executable, "-m", "relbetti.cli", *item["argv"], path]
        launcher = os.path.join(os.path.dirname(__file__), "launch.py")
        return [sys.executable, launcher, "--spans", spans, "--",
                *item["argv"], path]

    def run(self, item):
        stdout_path = os.path.join(self.workdir, "stdout.txt")
        spans = None
        if self.spans_dir is not None:
            spans = os.path.join(self.spans_dir,
                                 f"child{len(self.children)}.npz")
        code, wall, rss = run_child(self.argv(item, spans), stdout_path)
        self.child_rss_kb = max(self.child_rss_kb, rss)
        size = os.path.getsize(stdout_path)
        self.children.append((wall, spans, size))
        if code != 0:
            raise ItemFailed(f"exit code {code}")
        digest = sha256(stdout_path)
        want = self.golden.get(item["label"])
        if want is not None and digest != want:
            raise ItemFailed("stdout differs from the seed commit's bytes")
        with open(stdout_path) as fh:
            self.outputs[item["label"]] = json.loads(fh.read())
        stage = item["route"]
        return {"stdout_sha256": digest}, ({stage: wall} if stage else {})

    def agreement(self):
        """Labels of betti inputs whose two routes printed different tables."""
        bad = []
        for item in self.inputs:
            if item["argv"][0] != "betti" or item["route"] != "resolution":
                continue
            other = item["label"].replace("/resolution/", "/koszul/")
            a = self.outputs.get(item["label"])
            b = self.outputs.get(other)
            if a is not None and b is not None and a["betti"] != b["betti"]:
                bad += [item["label"], other]
        return bad


WORKLOADS = {
    "std-routes": StdRoutes,
    "rel-routes": RelRoutes,
    "honest-gates": HonestGates,
    "cli-demo": CliDemo,
}


def main():
    if len(sys.argv) != 4 or sys.argv[1] != "--setup":
        sys.exit("usage: workloads.py --setup WORKLOAD DIR")
    WORKLOADS[sys.argv[2]](sys.argv[3])


if __name__ == "__main__":
    main()
