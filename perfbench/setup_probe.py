"""Time what a `charvol` CLI invocation pays before its command starts.

Run in a fresh interpreter:

    python3 perfbench/setup_probe.py SRC_DIR SPEC EXTENDED

It imports `charvol.cli` from SRC_DIR, loads the fixture SPEC, builds the
gauged system and, when EXTENDED is 1, the extended system that `apoly`
eliminates, then prints the elapsed seconds and the same seconds scaled to
the reference host speed (`hostspeed.py`).

numpy is imported before the clock starts.  Its import is about half of a
fresh interpreter's set-up and charvol cannot change it.  Its time follows
the host's memory system (page faults, shared-library loading), which
drifted by up to 60% within half an hour while the probe's interpreter work
did not, and that moved the set-up median between sets of runs by over 20%.
"""

import sys
import time

import numpy  # noqa: F401  (outside the timed set-up; see above)

from hostspeed import HostSpeed

src, spec_name, extended = sys.argv[1], sys.argv[2], sys.argv[3] == "1"
sys.path.insert(0, src)

with HostSpeed() as probe:
    t0 = time.perf_counter()
    import charvol.cli  # noqa: F401  (the import is part of what is timed)
    from charvol import eigenvar, fixtures, repvar

    spec = fixtures.load_fixture(spec_name)
    system = repvar.GaugedSystem(spec)
    if extended:
        eigenvar.build_extended(system)
    elapsed = time.perf_counter() - t0
print(repr(elapsed), repr(probe.scaled(elapsed)))
