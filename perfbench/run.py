"""relbetti benchmark: one seeded workload, timed or traced.

    python3 perfbench/run.py --workload std-routes --seed 1 --seconds 20 --trace 0

Run from the repository root; the package is imported from ./src.  The
run generates its inputs from the seed (gen.py, in a child process),
times the workload's set-up in fresh processes, then makes whole passes
over the inputs, one at a time with a single client, until --seconds have
passed.  Every output is gated (route agreement, honest statuses against
recorded claims, CLI bytes against the seed commit, the per-seed digest
in baseline.json); every failure counts.

With --trace 0 the last stdout line holds the end-to-end metrics; with
--trace 1 the run makes an untraced, a traced and another untraced pass
and reports the per-layer metrics instead.  The line before it is a
detail record: the environment, sizes, the digest, raw times and the
named metrics behind the generic ones.  See README.md in this directory.
"""
import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

from speed import Speed

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("std-routes", "rel-routes", "honest-gates", "cli-demo")
SETUP_PROBES = 5

# which recorded stages feed the two generic stage metrics
STAGE_METRICS = {
    "std-routes": (("resolve",), ("koszul",)),
    "rel-routes": (("resolve",), ("koszul",)),
    "honest-gates": (("thin",), ("flat", "degeneracy")),
    "cli-demo": (("resolution",), ("koszul",)),
}
# the named stage medians each workload reports in its detail record
NAMED_STAGES = {
    "std-routes": {"resolve_p50_s": "resolve", "koszul_p50_s": "koszul"},
    "rel-routes": {"resolve_p50_s": "resolve", "koszul_p50_s": "koszul"},
    "honest-gates": {"build_p50_s": "build", "thin_p50_s": "thin",
                     "flat_p50_s": "flat",
                     "degeneracy_p50_s": "degeneracy"},
    "cli-demo": {"resolve_p50_s": "resolution",
                 "koszul_p50_s": "koszul"},
}


def die(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def canonical(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def tail(values):
    """The tail latency and its nearest-rank percentile.

    With 100 samples or more this is the highest percentile that keeps
    ten samples beyond it; with fewer it is the 90th percentile, which
    then has fewer than ten beyond.
    """
    v = sorted(values)
    n = len(v)
    i = n - 11 if n >= 100 else max(math.ceil(0.9 * n) - 1, 0)
    return v[i], 100.0 * (i + 1) / n


def environment():
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        got = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True)
        commit = got.stdout.strip() or None
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src", "relbetti")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "commit": commit,
        "src_sha256": h.hexdigest(),
    }


def setup_times(workloads, speed, name, workdir, golden_demo):
    """(raw, scaled) wall times of fresh processes doing only the set-up."""
    pending = []
    for _ in range(SETUP_PROBES):
        if name == "cli-demo":
            out = os.path.join(workdir, "m0.json")
            argv = [sys.executable, "-m", "relbetti.cli", "demo", "m0"]
        else:
            out = os.path.join(workdir, "setup-stdout.txt")
            argv = [sys.executable, os.path.join(HERE, "workloads.py"),
                    "--setup", name, workdir]
        token = speed.begin()
        code, wall, _ = workloads.run_child(argv, out)
        pending.append(speed.end(token, wall))
        if code != 0:
            die(f"set-up probe exited with {code}")
        if name == "cli-demo" and golden_demo is not None:
            if workloads.sha256(out) != golden_demo:
                die("`relbetti demo m0` differs from the seed commit's bytes")
    speed.close()
    raw, scaled = zip(*(f() for f in pending))
    return list(raw), list(scaled)


class Runs:
    """Per-input latencies, stage times and records of the passes so far.

    Times are scaled to the reference speed (see speed.py); raw holds the
    unscaled latencies.
    """

    def __init__(self, n):
        self.latency = [[] for _ in range(n)]
        self.raw = [[] for _ in range(n)]
        self.stages = [{} for _ in range(n)]
        self.records = [None] * n
        self.failed = [0] * n
        self.errors = []
        self.attempted = 0
        self.elapsed = 0.0


def run_passes(wl, acc, speed, tracer=None, seconds=None):
    """Run whole passes until `seconds` have passed (one pass if None).

    Returns the scaled time the items took.
    """
    from workloads import ItemFailed

    done = []
    start = time.perf_counter()
    while True:
        for i, item in enumerate(wl.inputs):
            token = speed.begin()
            if tracer is not None:
                tracer.begin_item(i)
            t0 = time.perf_counter()
            try:
                record, stages = wl.run(item)
                error = None
            except ItemFailed as exc:
                error = f"{item['label']}: {exc}"
            except Exception as exc:  # every exception is a failed item
                error = f"{item['label']}: {type(exc).__name__}: {exc}"
            scaled = speed.end(token, time.perf_counter() - t0)
            if tracer is not None:
                tracer.end_item()
            acc.attempted += 1
            if error is None:
                done.append((i, scaled, stages))
                rec = canonical(record)
                if acc.records[i] is None:
                    acc.records[i] = rec
                elif acc.records[i] != rec:
                    error = f"{item['label']}: output changed between passes"
            else:
                done.append((i, scaled, {}))
            if error is not None:
                acc.failed[i] += 1
                acc.errors.append(error)
                acc.records[i] = canonical({"failed": True})
        if seconds is None or time.perf_counter() - start >= seconds:
            break
    acc.elapsed += time.perf_counter() - start
    speed.close()
    total = 0.0
    for i, scaled, stages in done:
        raw, dt = scaled()
        f = dt / raw if raw > 0 else 1.0
        acc.raw[i].append(raw)
        acc.latency[i].append(dt)
        for k, v in stages.items():
            acc.stages[i].setdefault(k, []).append(v * f)
        total += dt
    return total


def stage_median(acc, names):
    """Median over inputs of each input's median summed stage time."""
    values = []
    for st in acc.stages:
        if all(k in st for k in names):
            runs = [sum(r) for r in zip(*(st[k] for k in names))]
            values.append(statistics.median(runs))
    return statistics.median(values) if values else None


def digest(wl, acc):
    rows = [
        {"label": item["label"], "record": json.loads(rec or "null")}
        for item, rec in zip(wl.inputs, acc.records)
    ]
    return hashlib.sha256(canonical(rows).encode()).hexdigest()


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "relbetti", "cli.py")):
        die("no relbetti sources under ./src: run from the repository root")
    with open(os.path.join(HERE, "baseline.json")) as fh:
        data = json.load(fh)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        data["per_layer"] = json.load(fh)["per_layer"]
    import workloads
    import relbetti

    if not os.path.abspath(relbetti.__file__).startswith(
        os.path.join(ROOT, "src") + os.sep
    ):
        die(f"relbetti imported from {relbetti.__file__}, not ./src")

    # One core for this process and every child it starts: the reference
    # samples in speed.py then time the core the measured work runs on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    name = args.workload
    workdir = os.path.join(ROOT, ".perfbench-work", f"{name}-s{args.seed}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    gen = subprocess.run(
        [sys.executable, os.path.join(HERE, "gen.py"), "--workload", name,
         "--seed", str(args.seed), "--out", workdir],
        cwd=ROOT, env=workloads.cli_env(),
    )
    if gen.returncode != 0:
        die("input generator failed")

    speed = Speed()
    setups = setup_times(workloads, speed, name, workdir,
                         data["cli_golden"].get("demo m0"))
    if name == "cli-demo":
        wl = workloads.CliDemo(workdir, golden=data["cli_golden"])
    else:
        wl = workloads.WORKLOADS[name](workdir)

    acc = Runs(len(wl.inputs))
    detail = {"workload": name, "seed": args.seed, "trace": args.trace,
              "env": environment(), "inputs": len(wl.inputs)}
    if args.trace:
        metrics = traced_run(wl, acc, speed, workdir, data, detail)
    else:
        if wl.in_process:
            speed.start_ticker()
        try:
            run_passes(wl, acc, speed, seconds=args.seconds)
        finally:
            speed.stop_ticker()
        metrics = timed_metrics(wl, acc, setups, detail)
    detail["reference_s"] = statistics.median(speed.samples)

    if name == "cli-demo":
        for label in wl.agreement():
            i = [it["label"] for it in wl.inputs].index(label)
            acc.failed[i] = acc.attempted // len(wl.inputs)
            acc.errors.append(f"{label}: routes print different tables")
    attempted = acc.attempted
    failed = sum(acc.failed)
    got = digest(wl, acc)
    # a workload whose records do not depend on the seed records one
    # digest under "any"
    recorded = data["digests"].get(name, {})
    want = recorded.get(str(args.seed), recorded.get("any"))
    if want is not None and got != want:
        acc.errors.append("digest differs from the recorded one")
        failed = attempted
    detail.update(
        digest=got,
        digest_recorded=want,
        attempted=attempted,
        failed=failed,
        failed_frac=failed / attempted,
        errors=acc.errors[:10],
    )
    print(canonical({"detail": detail}))
    print(canonical({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))


def timed_metrics(wl, acc, setups, detail):
    raw_setups, setups = setups
    inputs = [statistics.median(v) for v in acc.latency]
    p50 = statistics.median(inputs)
    tail_value, tail_pct = tail(inputs)
    first, second = STAGE_METRICS[detail["workload"]]
    if detail["workload"] == "cli-demo":
        rss_kb = wl.child_rss_kb
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    values = {
        "setup_s": (statistics.median(setups), "s"),
        "items_per_s": (len(inputs) / sum(inputs), "1/s"),
        "item_p50_s": (p50, "s"),
        "item_tail_s": (tail_value, "s"),
        "stage1_p50_s": (stage_median(acc, first), "s"),
        "stage2_p50_s": (stage_median(acc, second), "s"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
    }
    named = {
        k: stage_median(acc, (v,))
        for k, v in NAMED_STAGES[detail["workload"]].items()
    }
    detail.update(
        passes=len(acc.latency[0]),
        seconds_measured=acc.elapsed,
        raw={
            "setup_s": statistics.median(raw_setups),
            "items_per_s": acc.attempted / acc.elapsed,
            "item_p50_s": statistics.median(
                statistics.median(v) for v in acc.raw),
        },
        setup_runs_s=setups,
        item_tail_percentile=tail_pct,
        item_samples=len(inputs),
        item_tail_beyond=sum(1 for v in inputs if v > tail_value),
        named=named,
        per_input_s={
            item["label"]: v for item, v in zip(wl.inputs, inputs)
        },
    )
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def traced_run(wl, acc, speed, workdir, data, detail):
    import numpy as np
    import tracer as tr

    # untraced passes on both sides of the traced one, so that warm-up
    # and drift fall on both sides of the overhead ratio
    before = run_passes(wl, acc, speed)
    if detail["workload"] == "cli-demo":
        spans_dir = os.path.join(workdir, "child-spans")
        os.makedirs(spans_dir)
        wl.spans_dir = spans_dir
        first_traced = len(wl.children)
        t = None
    else:
        t = tr.Tracer().install()
        # the set-up once more, traced as item -1, so that the collections
        # built there show under collections.build
        type(wl)(workdir)
    try:
        traced = run_passes(wl, acc, speed, tracer=t)
    finally:
        if t is not None:
            t.uninstall()
        wl.spans_dir = None
    traced_items = len(wl.inputs)
    traced_raw = [lat[-1] for lat in acc.raw]
    after = run_passes(wl, acc, speed)
    untraced = (before + after) / 2
    item_time = sum(traced_raw)
    startup = stdout_bytes = 0.0
    if t is not None:
        spans, counts = t.arrays(), dict(t.counts)
        per_item = t.item_counts
    else:
        parts, counts, per_item = [], {}, {}
        children = wl.children[first_traced:first_traced + traced_items]
        for i, (wall, path, size) in enumerate(children):
            sp, cn = tr.load(path)
            sp["item"][:] = i
            parts.append(sp)
            per_item[i] = cn
            for k, v in cn.items():
                counts[k] = counts.get(k, 0) + v
            main = sp["name"] == sp["names"].index("cli.main")
            startup += wall - float(
                (sp["end"][main] - sp["start"][main]).sum()) / 1e9
            stdout_bytes += size
        spans = tr.concat(parts)
    tr.save(os.path.join(workdir, "spans.npz"), spans, counts)

    values = tr.layer_metrics(spans, counts)
    values["cli.startup_s"] = startup
    values["cli.stdout_bytes"] = stdout_bytes
    values["trace.overhead_frac"] = traced / untraced - 1.0
    values["trace.unattributed_frac"] = 1.0 - tr.root_time(spans) / item_time
    units = {m["name"]: m["unit"] for m in data["per_layer"]}
    missing = set(units) ^ set(values)
    if missing:
        raise RuntimeError(f"per-layer metric lists differ: {sorted(missing)}")
    nat_basis = np.zeros(len(spans["name"]), dtype=bool)
    if "homalg.nat_basis" in spans["names"]:
        nat_basis = spans["name"] == spans["names"].index("homalg.nat_basis")
    detail.update(
        passes=len(acc.latency[0]),
        untraced_s=untraced,
        traced_s=traced,
        spans=int(len(spans["name"])),
        absent=sorted(
            k for k in units
            if k.endswith(".calls") and values[k] == 0
        ),
        shares={
            nm: tr.inclusive_share(spans, nm, item_time)
            for nm in ("homalg.nat_basis", "fieldlin.kron",
                       "relative.pair_basis", "fieldlin.rref")
        },
        per_input_counts={
            item["label"]: {
                "fieldlin.matrix.constructions": per_item.get(i, {}).get(
                    "fieldlin.matrix.constructions", 0),
                "homalg.nat_basis.calls": int(
                    ((spans["item"] == i) & nat_basis).sum()),
            }
            for i, item in enumerate(wl.inputs)
        },
    )
    return {k: {"value": values[k], "unit": units[k]} for k in units}


if __name__ == "__main__":
    main()
