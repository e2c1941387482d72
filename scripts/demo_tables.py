"""Walk the running example end to end and print every diagram.

Computes the standard Betti diagram of the built-in demo module on the
six-by-six grid through both routes, then the relative diagram for each
collection builder that fits on a desk, with wall-clock timings.

Run from the repository root after installing the package:

    python3 scripts/demo_tables.py
    python3 scripts/demo_tables.py --field 5 --dmax 5
"""

import argparse
import time

from relbetti.collections import (
    lower_hooks,
    rectangles_grid,
    single_source_omega0,
    translated,
)
from relbetti.fieldlin import check_modulus
from relbetti.homalg import koszul_betti_diagram, minimal_resolution
from relbetti.pmod import m0_demo
from relbetti.poset import parse_nonnegative
from relbetti.relative import relative_betti_diagram, relative_minimal_resolution


def prime(text):
    """A --field value: an integer that check_modulus accepts."""
    return check_modulus(int(text))


def print_diagram(diagram, poset, indent="  "):
    if not dict(diagram.items()):
        print(f"{indent}(zero)")
        return
    for (d, a), k in diagram.items():
        print(f"{indent}d={d}  {poset.names[a]:<24} {k}")


def standard_section(m, dmax):
    t0 = time.perf_counter()
    res = minimal_resolution(m, dmax)
    t1 = time.perf_counter()
    print(f"standard diagram via minimal resolution "
          f"(complete={res.complete}, {t1 - t0:.3f}s)")
    print_diagram(res.multiplicities(), m.poset)

    t0 = time.perf_counter()
    diagram = koszul_betti_diagram(m, dmax)
    t1 = time.perf_counter()
    agree = diagram == res.multiplicities()
    print(f"standard diagram via Koszul complexes "
          f"(agree={agree}, {t1 - t0:.3f}s)")


def relative_section(name, coll, m, dmax):
    print(f"\ncollection {name}: {coll.index.n} members")
    t0 = time.perf_counter()
    diag = relative_betti_diagram(coll, m, dmax)
    t1 = time.perf_counter()
    print(f"  relative diagram via Koszul ({t1 - t0:.3f}s)")
    print_diagram(diag, coll.index, indent="    ")

    t0 = time.perf_counter()
    res = relative_minimal_resolution(coll, m, dmax)
    t1 = time.perf_counter()
    agree = res.multiplicities() == diag
    print(f"  relative resolution: complete={res.complete} "
          f"length={res.length} agree={agree} ({t1 - t0:.3f}s)")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--field", type=prime, default=2, help="prime field order")
    ap.add_argument("--dmax", type=parse_nonnegative, default=4,
                    help="degree cutoff")
    args = ap.parse_args()

    m = m0_demo(args.field)
    g = m.poset
    print(f"demo module on the {g.names[-1]} grid, "
          f"total dim {sum(m.dims)}, field GF({args.field})\n")

    standard_section(m, args.dmax)

    relative_section("lower_hooks", lower_hooks(g, args.field), m, args.dmax)
    relative_section(
        "single_source_omega0", single_source_omega0(g, args.field), m, args.dmax
    )
    relative_section(
        "rectangles_grid", rectangles_grid(5, 2, args.field), m, args.dmax
    )
    relative_section(
        "translated {(0,2),(1,0)}",
        translated(g, {(0, 2), (1, 0)}, args.field),
        m,
        args.dmax,
    )


if __name__ == "__main__":
    main()
