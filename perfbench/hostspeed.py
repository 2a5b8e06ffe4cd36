"""Host-speed probe: scale a measured time to a fixed reference speed.

The benchmark's machine is a share of a host whose speed drifts with other
tenants' load: the same charvol command, same seed, takes anywhere from 4.7
to 8.9 s within a few minutes on 2 vCPUs.  A probe timed before and after
each command tracks that drift poorly (correlation 0.2-0.55), because the
speed changes within seconds.  So the probe runs *during* the command:

    with HostSpeed() as hs:
        ...timed work...
    scaled = hs.scaled(elapsed)

While the block runs, a real-time interval timer interrupts the program
every `PERIOD_S` seconds of wall time, and the signal handler times one run
of `_kernel`, a fixed piece of pure-Python work (integer, complex and dict
operations).  The kernel time's trimmed mean over the block says how fast
the host ran during that block, relative to `REF_KERNEL_S`.  `scaled`
removes the probe's own time from the elapsed time and divides by that
ratio, giving the seconds the block would have taken at the reference
speed.  On certify-fig8, same seed, this cut the coefficient of variation of
the command time from 0.08-0.15 to 0.03-0.07.

The kernel is pure Python on purpose.  A kernel with small numpy operations
tracked certify a little better, but its own time depended on the command
around it (twice as slow inside `apoly`, whose exact algebra leaves numpy's
code and data cold), so a change to charvol's numpy use would have moved
the scale.  Pure Python also lets the set-up probe run it without importing
numpy before the set-up it times.

The handler runs in the benchmark's one thread, between bytecodes; it adds
no thread or process and about 1% to the elapsed time, which `scaled`
subtracts.
"""

import signal
import time

PERIOD_S = 0.02          # wall seconds between probes
TRIM = 0.1               # share of the slowest probes left out of the mean
WARMUP = 5               # untimed kernel runs before the first probe
# Kernel seconds at the reference speed: about the median in-command kernel
# time on the 2-vCPU Xeon (2.1 GHz) the benchmark was defined on, Python
# 3.11, so that scaled and raw seconds read alike there.
REF_KERNEL_S = 2.0e-4

_perf = time.perf_counter


def _kernel():
    s = 0
    z = 0.5 + 0.25j
    d = {}
    for i in range(600):
        s += i * i % 7
        z = z * (0.9 - 0.1j) + 0.01
        d[i & 15] = d.get(i & 15, 0) + s
    return s, z, d


class HostSpeed:
    """Times `_kernel` every `PERIOD_S` wall seconds while the block runs."""

    def __init__(self):
        self.samples = []
        self._old = None

    def _probe(self, signum=None, frame=None):
        t = _perf()
        _kernel()
        self.samples.append(_perf() - t)

    def __enter__(self):
        for _ in range(WARMUP):  # let the interpreter specialize the kernel
            _kernel()
        self.samples = []
        self._old = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old)
        self._probe()  # at least one sample, even for a block under PERIOD_S
        return False

    @property
    def busy_s(self):
        """Seconds the probes took inside the block (the last probe ran
        after it)."""
        return sum(self.samples[:-1])

    @property
    def slowdown(self):
        """Trimmed-mean kernel time over its reference time."""
        ordered = sorted(self.samples)
        kept = ordered[:max(1, len(ordered) - int(len(ordered) * TRIM))]
        return sum(kept) / len(kept) / REF_KERNEL_S

    def scaled(self, elapsed):
        """`elapsed` wall seconds of the block, minus the probes' own time,
        at the reference host speed."""
        return (elapsed - self.busy_s) / self.slowdown
