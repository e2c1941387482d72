"""Sampling experiment: do the two Betti routes agree, and at what cost?

Draws random modules over random upper semilattices (standard mode) or
over a fixed grid with a chosen collection (relative mode), computes the
diagram through the minimal resolution and through Koszul complexes, and
reports agreement counts plus timing percentiles.  Any disagreement is
printed with enough detail to replay it.

    python3 scripts/route_agreement.py --samples 100
    python3 scripts/route_agreement.py --relative lower_hooks --samples 20
"""

import argparse
import math
import statistics
import time
from dataclasses import dataclass

import numpy as np

from relbetti.collections import (
    lower_hooks,
    rectangles_grid,
    single_source_omega0,
)
from relbetti.errors import SizeBoundExceeded
from relbetti.fieldlin import check_modulus
from relbetti.homalg import (
    cokernel,
    free_nat,
    koszul_betti_diagram,
    minimal_resolution,
)
from relbetti.pmod import free_on
from relbetti.poset import Poset, parse_nonnegative
from relbetti.relative import relative_betti_diagram, relative_minimal_resolution

# relative mode always runs on grid(3, 2), so the rectangle builder can
# fix its shape parameters
BUILDERS = {
    "lower_hooks": lower_hooks,
    "single_source_omega0": single_source_omega0,
    "rectangles_grid": lambda g, p: rectangles_grid(3, 2, p),
}


def prime(text):
    """A --field value: an integer that check_modulus accepts."""
    return check_modulus(int(text))


@dataclass
class Config:
    samples: int = 100
    seed: int = 0
    p: int = 2
    ambient_n: int = 2
    relative: str = ""
    dmax: int = 8


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


def random_module(rng, poset, p, max_gens=3):
    n0 = int(rng.integers(1, max_gens + 1))
    n1 = int(rng.integers(0, max_gens + 1))
    return cokernel(random_free_map(rng, poset, p, n0, n1))[0]


def random_semilattice(rng, ambient):
    seeds = {int(x) for x in rng.choice(ambient.n, 4, replace=False)}
    keep = sorted(ambient.sublattice_closure(seeds))
    names = [ambient.names[i] for i in keep]
    leq = ambient.leq_matrix[np.ix_(keep, keep)]
    return Poset.from_order(names, leq)


def standard_run(cfg):
    rng = np.random.default_rng(cfg.seed)
    ambient = Poset.grid(cfg.ambient_n, 2)
    agree = 0
    res_times, kos_times = [], []
    for i in range(cfg.samples):
        j = random_semilattice(rng, ambient)
        m = random_module(rng, j, cfg.p)
        dmax = j.n + 1
        t0 = time.perf_counter()
        via_res = minimal_resolution(m, dmax).multiplicities()
        t1 = time.perf_counter()
        via_kos = koszul_betti_diagram(m, dmax)
        t2 = time.perf_counter()
        res_times.append(t1 - t0)
        kos_times.append(t2 - t1)
        if via_res == via_kos:
            agree += 1
        else:
            print(f"DISAGREE sample {i}: seed={cfg.seed} "
                  f"res={dict(via_res.items())} kos={dict(via_kos.items())}")
    return agree, res_times, kos_times


def relative_run(cfg):
    rng = np.random.default_rng(cfg.seed)
    g = Poset.grid(3, 2)
    coll = BUILDERS[cfg.relative](g, cfg.p)
    agree = 0
    res_times, kos_times = [], []
    for i in range(cfg.samples):
        m = random_module(rng, g, cfg.p)
        t0 = time.perf_counter()
        res = relative_minimal_resolution(coll, m, cfg.dmax)
        t1 = time.perf_counter()
        kos = relative_betti_diagram(coll, m, cfg.dmax)
        t2 = time.perf_counter()
        res_times.append(t1 - t0)
        kos_times.append(t2 - t1)
        if res.complete and res.multiplicities() == kos:
            agree += 1
        else:
            print(f"DISAGREE sample {i}: complete={res.complete} "
                  f"res={dict(res.multiplicities().items())} "
                  f"kos={dict(kos.items())}")
    return agree, res_times, kos_times


def summarize(label, times):
    ms = sorted(t * 1000 for t in times)
    mid = statistics.median(ms)
    # nearest rank: the smallest sample with at least 90% at or below it
    p90 = ms[math.ceil(0.9 * len(ms)) - 1]
    print(f"  {label}: median {mid:.1f}ms  p90 {p90:.1f}ms  "
          f"max {ms[-1]:.1f}ms")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--samples", type=int, default=100)
    ap.add_argument("--seed", type=parse_nonnegative, default=0)
    ap.add_argument("--field", type=prime, default=2)
    ap.add_argument("--ambient-n", type=parse_nonnegative, default=2,
                    help="standard mode samples sublattices of grid(n, 2)")
    ap.add_argument("--relative", choices=sorted(BUILDERS), default="",
                    help="run the relative routes with this builder on grid(3, 2)")
    ap.add_argument("--dmax", type=parse_nonnegative, default=8)
    args = ap.parse_args()
    if args.samples < 1:
        ap.error("--samples must be at least 1")
    if args.ambient_n < 1:
        # grid(0, 2) has one element; a sample needs four
        ap.error("--ambient-n must be at least 1")
    try:
        Poset.grid(args.ambient_n, 2)
    except SizeBoundExceeded as exc:
        ap.error(f"--ambient-n {args.ambient_n}: {exc}")
    cfg = Config(args.samples, args.seed, args.field, args.ambient_n,
                 args.relative, args.dmax)

    if cfg.relative:
        agree, res_t, kos_t = relative_run(cfg)
        what = f"relative routes ({cfg.relative})"
    else:
        agree, res_t, kos_t = standard_run(cfg)
        what = "standard routes"
    print(f"{what}: {agree}/{cfg.samples} agree, GF({cfg.p})")
    summarize("resolution", res_t)
    summarize("koszul    ", kos_t)


if __name__ == "__main__":
    main()
