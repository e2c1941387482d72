"""The benchmark's tracer finds every function it names in this source.

perfbench/tracer.py wraps the functions its SPANS and COUNTERS tables
name, and Tracer.install() raises on a name the package no longer has.
The benchmark's own suite runs real workloads and is kept apart, so this
check runs here: removing or renaming a traced function fails it.
"""
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

_INSTALL_AND_UNINSTALL = """
import sys
sys.path[:0] = ['src', 'perfbench']
import tracer


def traced(modname, path):
    owner = sys.modules[modname]
    for attr in path.split('.'):
        owner = getattr(owner, attr)
    return owner


names = [(m, p) for m, p, *_ in tracer.SPANS + tracer.COUNTERS]
t = tracer.Tracer().install()
unwrapped = [p for m, p in names if not hasattr(traced(m, p), '__wrapped__')]
assert not unwrapped, unwrapped
t.uninstall()
left = [p for m, p in names if hasattr(traced(m, p), '__wrapped__')]
assert not left, left
"""


def test_tracer_installs_over_the_package():
    got = subprocess.run(
        [sys.executable, "-c", _INSTALL_AND_UNINSTALL],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert got.returncode == 0, got.stderr
