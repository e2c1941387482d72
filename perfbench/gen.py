"""Seeded input generator for the relbetti benchmark.

    python3 perfbench/gen.py --workload std-routes --seed 3 --out DIR

Writes DIR/payloads.json (and, for cli-demo, one payload file per CLI
input).  The same workload and seed always give byte-identical files.
This is the only place the benchmark calls into relbetti outside the
measured paths: random modules are cokernels of random free maps, built
here, before any timing, and handed to the measured process as JSON.
"""
import argparse
import json
import os
import sys

import numpy as np

ROOT = os.getcwd()
sys.path.insert(0, os.path.join(ROOT, "src"))

from relbetti.errors import NoSolution  # noqa: E402
from relbetti.fieldlin import Matrix, solve  # noqa: E402
from relbetti.homalg import cokernel, free_nat  # noqa: E402
from relbetti.pmod import free_on, m0_demo  # noqa: E402
from relbetti.poset import Poset  # noqa: E402

WORKLOADS = ("std-routes", "rel-routes", "honest-gates", "cli-demo")

# honest-gates builders; lower_hooks_inf grows fastest, so it only gets
# bases drawn from the smaller grid
GATE_BUILDERS = (
    "lower_hooks",
    "lower_hooks_inf",
    "rectangles_naive",
    "single_source_omega0",
    "spreads_omega",
    "all_subfunctors",
)


def _rng(workload, seed):
    return np.random.default_rng([seed, WORKLOADS.index(workload)])


def random_free_map(rng, poset, p, n_dst, n_src):
    gens_dst = sorted(int(g) for g in rng.integers(0, poset.n, n_dst))
    gens_src = sorted(int(g) for g in rng.integers(0, poset.n, n_src))
    dst = free_on(poset, gens_dst, p)
    src = free_on(poset, gens_src, p)
    coeffs = {}
    for i, gd in enumerate(gens_dst):
        for j, gs in enumerate(gens_src):
            if poset.leq(gd, gs):
                c = int(rng.integers(0, p))
                if c:
                    coeffs[(i, j)] = c
    return free_nat(src, dst, coeffs)


def random_module(rng, poset, p, max_dst, max_src, dims):
    """Cokernel of a random free map whose total dimension lies in dims.

    Redrawing until the size lands in a fixed band keeps the cost of an
    item, and so the spread between seeds, under control.
    """
    while True:
        n0 = int(rng.integers(1, max_dst + 1))
        n1 = int(rng.integers(0, max_src + 1))
        m = cokernel(random_free_map(rng, poset, p, n0, n1))[0]
        if dims[0] <= sum(m.dims) <= dims[1]:
            return m


def random_semilattice(rng, ambient, k, size=None):
    """Join closure of k random elements of an ambient lattice, redrawn
    until it has `size` elements when a size is given."""
    while True:
        seeds = {int(x) for x in rng.choice(ambient.n, k, replace=False)}
        keep = sorted(ambient.sublattice_closure(seeds))
        if size is None or len(keep) == size:
            break
    names = [ambient.names[i] for i in keep]
    leq = ambient.leq_matrix[np.ix_(keep, keep)]
    return Poset.from_order(names, leq)


def std_routes(rng):
    """120 modules over grid(3,3) or join-closed subsets of it, each in
    seeded random fiber bases; the isomorphism classes are drawn once, as
    for rel-routes, so that seeds differ in matrices, not in work."""
    p = 5
    ambient = Poset.grid(3, 3)
    pool = np.random.default_rng([0, WORKLOADS.index("std-routes")])
    items = []
    for i in range(120):
        if i % 4 == 0:
            base = ambient
        else:
            base = random_semilattice(pool, ambient, int(pool.integers(5, 9)))
        m = random_module(pool, base, p, 4, 4, (12, 80))
        items.append({
            "label": f"class{i}",
            "module": rebased(rng, m, p),
            "dmax": base.n,
        })
    return {"p": p, "items": items}


def rebased(rng, m, p):
    """The module m in random new bases of its fibers.

    Cover maps A become g_b A g_a^-1 for random invertible g_a, so the
    result is isomorphic to m: same diagrams, other matrices.
    """
    gs, invs = [], []
    for d in m.dims:
        while True:
            g = Matrix(rng.integers(0, p, (d, d)), p)
            try:
                inv = solve(g, Matrix.identity(d, p))
            except NoSolution:
                continue
            gs.append(g)
            invs.append(inv)
            break
    out = m.to_json()
    for key in out["maps"]:
        na, _, nb = key.partition("<")
        a, b = m.poset.index(na), m.poset.index(nb)
        moved = gs[b] @ m.cover_map(a, b) @ invs[a]
        out["maps"][key] = moved.tolist()
    return out


def rel_routes(rng):
    """m0 and twelve modules of total dimension 14, each in seeded random
    fiber bases.  The isomorphism classes are drawn once, from a fixed
    stream, so every seed does the same mathematical work on different
    matrices; that keeps the spread between seeds down to the machine's."""
    p = 2
    base = Poset.grid(5, 2)
    pool = np.random.default_rng([0, WORKLOADS.index("rel-routes")])
    classes = [m0_demo(p)] + [
        random_module(pool, base, p, 2, 2, (14, 14)) for _ in range(12)
    ]
    items = []
    for coll in ("lower_hooks", "rectangles_grid"):
        items.append({"label": f"m0/{coll}", "collection": coll,
                      "module": rebased(rng, classes[0], p), "dmax": 4})
    # mostly the cheaper rectangles_grid, so that a run holds several passes
    for i, m in enumerate(classes[1:]):
        coll = "lower_hooks" if i % 4 == 0 else "rectangles_grid"
        items.append({"label": f"class{i}/{coll}", "collection": coll,
                      "module": rebased(rng, m, p), "dmax": 4})
    return {"p": p, "base": base.to_json(), "items": items}


def honest_gates(rng):
    p = 2
    small, large = Poset.grid(2, 2), Poset.grid(3, 2)
    items = [
        {"label": "lower_hooks/grid(3,2)", "builder": "lower_hooks",
         "base": large.to_json(), "params": {}},
        {"label": "rectangles_grid(3,2)", "builder": "rectangles_grid",
         "base": None, "params": {"n": 3, "r": 2}},
    ]
    for rep in range(8):
        for name in GATE_BUILDERS:
            if name == "lower_hooks_inf" or rep % 2:
                base = random_semilattice(rng, small, 3, size=5)
            else:
                base = random_semilattice(rng, large, 3, size=6)
            items.append({"label": f"{name}/rand{rep}", "builder": name,
                          "base": base.to_json(), "params": {}})
    return {"p": p, "items": items}


def cli_demo(rng, out):
    p = 5
    files = {}
    for k in (1, 2):
        base = random_semilattice(rng, Poset.grid(3, 3), 5)
        m = random_module(rng, base, p, 4, 4, (10, 40))
        files[f"rand{k}.json"] = {"p": p, "module": m.to_json()}
    files["grid22.json"] = {"p": 2, "poset": Poset.grid(2, 2).to_json()}
    for name, obj in files.items():
        with open(os.path.join(out, name), "w") as fh:
            json.dump(obj, fh, sort_keys=True)
    m0 = "m0.json"  # written from the `demo m0` set-up probe
    items = []
    for src in (m0, "rand1.json", "rand2.json"):
        for method in ("resolution", "koszul"):
            items.append({"label": f"betti/{method}/{src}", "route": method,
                          "argv": ["betti", "--method", method],
                          "input": src})
    items += [
        {"label": "rbetti/lower_hooks/koszul", "route": "koszul",
         "argv": ["rbetti", "--collection", "lower_hooks", "--dmax", "4"],
         "input": m0},
        {"label": "rbetti/lower_hooks/resolution", "route": "resolution",
         "argv": ["rbetti", "--collection", "lower_hooks", "--dmax", "4",
                  "--method", "resolution"],
         "input": m0},
        {"label": "rresolve/rectangles_grid", "route": "resolution",
         "argv": ["rresolve", "--collection", "rectangles_grid", "--dmax",
                  "4"],
         "input": m0},
        {"label": "rbetti/rectangles_naive/force", "route": "koszul",
         "argv": ["rbetti", "--collection", "rectangles_naive", "--dmax",
                  "2", "--force"],
         "input": m0},
        {"label": "check/lower_hooks/grid(2,2)", "route": None,
         "argv": ["check", "--collection", "lower_hooks"],
         "input": "grid22.json"},
    ]
    return {"items": items}


def generate(workload, seed, out):
    rng = _rng(workload, seed)
    if workload == "std-routes":
        payload = std_routes(rng)
    elif workload == "rel-routes":
        payload = rel_routes(rng)
    elif workload == "honest-gates":
        payload = honest_gates(rng)
    else:
        payload = cli_demo(rng, out)
    payload.update(workload=workload, seed=seed)
    with open(os.path.join(out, "payloads.json"), "w") as fh:
        json.dump(payload, fh, sort_keys=True)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    os.makedirs(args.out, exist_ok=True)
    generate(args.workload, args.seed, args.out)


if __name__ == "__main__":
    main()
