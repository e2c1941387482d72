"""Run the relbetti CLI in this process with the tracer installed.

    python3 perfbench/launch.py --spans OUT.npz -- VERB [ARGS...]

Behaves like `python -m relbetti.cli VERB [ARGS...]` (same stdout, same
exit code) and writes the child's spans and counts to OUT.npz.
"""
import os
import sys

ROOT = os.getcwd()
sys.path.insert(0, os.path.join(ROOT, "src"))

import relbetti.cli  # noqa: E402
from tracer import Tracer, save  # noqa: E402


def main():
    args = sys.argv[1:]
    if len(args) < 3 or args[0] != "--spans" or args[2] != "--":
        sys.exit("usage: launch.py --spans OUT.npz -- VERB [ARGS...]")
    tracer = Tracer().install()
    tracer.item = 0
    code = relbetti.cli.main(args[3:])
    sys.stdout.flush()
    tracer.uninstall()
    save(args[1], tracer.arrays(), tracer.counts)
    return code


if __name__ == "__main__":
    sys.exit(main())
