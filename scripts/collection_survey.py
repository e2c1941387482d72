"""Survey the collection builders on a small grid.

For each builder: member count, index poset size, and the honest
verification of every recorded status claim (thinness, flatness, the
degeneracy scan), each with wall-clock timing.  Claims and checks are
kept separate on purpose; a mismatch here means a builder promised a
property its collection does not have.

    python3 scripts/collection_survey.py
    python3 scripts/collection_survey.py --n 2 --field 5
"""

import argparse
import time

from relbetti.collections import (
    all_subfunctors,
    lower_hooks,
    lower_hooks_inf,
    rectangles_grid,
    rectangles_naive,
    single_source_omega0,
    spreads_omega,
)
from relbetti.errors import SizeBoundExceeded
from relbetti.fieldlin import check_modulus
from relbetti.poset import Poset, parse_nonnegative
from relbetti.relative import degeneracy_hypothesis, is_flat, is_thin


def timed(fn, *args):
    t0 = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - t0


def prime(text):
    """A --field value: an integer that check_modulus accepts."""
    return check_modulus(int(text))


def survey(name, coll):
    print(f"\n{name}: {coll.index.n} members, claims={coll.claims or '{}'}")
    (thin, wit_t), dt = timed(is_thin, coll)
    print(f"  thin       {thin}"
          + (f" witness={_pair(coll, wit_t)}" if wit_t else "")
          + f"  ({dt:.3f}s)")
    (flat, wit_f), dt = timed(is_flat, coll)
    print(f"  flat       {flat}"
          + (f" witness={_pair(coll, wit_f)}" if wit_f else "")
          + f"  ({dt:.3f}s)")
    honest = {"thin": thin, "flat": flat}
    if thin:
        (deg, wit_d), dt = timed(degeneracy_hypothesis, coll)
        print(f"  degeneracy {deg}"
              + (f" witness={_pair(coll, wit_d)}" if wit_d else "")
              + f"  ({dt:.3f}s)")
        honest["degeneracy"] = deg
    else:
        print("  degeneracy skipped (needs thinness)")
    for claim, value in coll.claims.items():
        if claim in honest and honest[claim] != value:
            print(f"  CLAIM MISMATCH: {claim} recorded {value}, "
                  f"honest {honest[claim]}")


def _pair(coll, witness):
    a, b = witness
    return f"({coll.index.names[a]}, {coll.index.names[b]})"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=parse_nonnegative, default=1,
                    help="grid coordinates run 0..n")
    ap.add_argument("--r", type=parse_nonnegative, default=2,
                    help="grid dimension")
    ap.add_argument("--field", type=prime, default=2)
    args = ap.parse_args()
    if args.r < 1:
        ap.error("--r must be at least 1")
    try:
        g = Poset.grid(args.n, args.r)
    except SizeBoundExceeded as exc:
        ap.error(f"--n {args.n} with --r {args.r}: {exc}")
    print(f"base grid: {g.n} elements, GF({args.field})")

    survey("lower_hooks", lower_hooks(g, args.field))
    survey("lower_hooks_inf", lower_hooks_inf(g, args.field))
    survey("rectangles_naive", rectangles_naive(g, args.field))
    if args.r == 2:
        survey("rectangles_grid", rectangles_grid(args.n, 2, args.field))
    survey("single_source_omega0", single_source_omega0(g, args.field))
    survey("spreads_omega", spreads_omega(g, args.field))
    survey("all_subfunctors", all_subfunctors(g, args.field))


if __name__ == "__main__":
    main()
