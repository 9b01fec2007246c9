"""Host-speed gauge: a fixed reference kernel interleaved with the program.

The benchmark runs on a small share of a busy host whose speed swings by
up to 2x over seconds to minutes (CPU time swings with wall time, so the
process is not descheduled: the core itself runs slower).  A best-of or a
median over one run cannot remove a swing that outlasts the run.

The gauge removes it by measuring the host's speed in the same moments as
the program.  A wall-clock timer interrupts the simulation every
``PERIOD_S`` and runs a fixed reference kernel, which is timed.  The
kernel is chosen to resemble the workload, because the host's swings slow
interpreter-bound and array-bound code by different factors:

* ``small``: interpreter work and numpy calls on 32 values, like the 1D
  workloads, whose fields hold a few hundred values;
* ``array``: the same plus numpy calls on 4096 values (32 KiB, held in
  cache), like the 2D workload, which adds element-wise passes over
  fields of 50k values to the same kind of interpreter work.

Neither touches enough memory to evict the program's data, and neither
allocates, so the program's heap is left as the program left it.  For any
interval of the run:

* ``busy_ns``: the time the kernel itself took in it, which is taken out
  of the interval's duration;
* ``speed``: the kernel's reference time over its mean time in it.

A duration times ``speed`` is the duration at the reference speed, at
which one kernel call takes its ``ref_ns``: a fixed constant, close to a
call's time in the faster periods of the 2-core host (Xeon, 2 vCPUs) the
bounds were set on.  The program's own work slows
with the host much as the kernel does, so a change to the program moves
these figures and a change of host speed mostly does not.
Nothing runs in another thread or process: the timer is ``SIGALRM``,
handled in the main thread between bytecodes, with system calls
restarted.
"""

import signal
from bisect import bisect_left
from time import perf_counter_ns

import numpy as np

PERIOD_S = 0.002            # one kernel call per 2 ms of wall time
MIN_SAMPLES = 5             # fewer in an interval: use the whole run's
LOCAL_S = 0.05              # a step's speed: calls within 50 ms of it
CHUNK = 1 << 15             # record slots, 65 s' worth, added at a time

_SMALL = np.linspace(0.1, 1.0, 32)
_ARRAY = np.linspace(0.1, 1.0, 4096)
# work buffers, so that the kernels allocate nothing
_BUF = {n: (np.empty(n), np.empty(n)) for n in (32, 4096)}


def _passes(src, count):
    """``count`` times ``x = sqrt(x*x + 1) - 0.5*x``, in place: five ufunc
    calls each."""
    x, t = _BUF[src.size]
    np.copyto(x, src)
    for _ in range(count):
        np.multiply(x, x, out=t)
        np.add(t, 1.0, out=t)
        np.sqrt(t, out=t)
        np.multiply(x, 0.5, out=x)
        np.subtract(t, x, out=x)
    return x[0]


def small_kernel():
    """50 ufunc calls on 32 values and 200 interpreter iterations."""
    s = 0
    for i in range(200):
        s += i * i % 7
    return s + _passes(_SMALL, 10)


def array_kernel():
    """:func:`small_kernel` and 20 ufunc calls on 4096 values."""
    return small_kernel() + _passes(_ARRAY, 4)


# name -> (kernel, reference time of one call in ns)
KERNELS = {"small": (small_kernel, 45_000.0),
           "array": (array_kernel, 95_000.0)}


class Gauge:
    """Start stamps and running busy time of every kernel call made while
    installed."""

    def __init__(self, kernel):
        self.kernel, self.ref_ns = KERNELS[kernel]
        self.n = 0               # calls made
        self.starts = [0] * CHUNK
        self.busy = [0] * (CHUNK + 1)   # busy[k]: ns spent in the first k

    def _tick(self, signum, frame):
        t0 = perf_counter_ns()
        self.kernel()
        t1 = perf_counter_ns()
        if self.n == len(self.starts):   # grow outside the timed call
            self.starts += [t1] * CHUNK
            self.busy += [self.busy[-1]] * CHUNK
        self.n += 1
        self.starts[self.n - 1] = t0
        self.busy[self.n] = self.busy[self.n - 1] + t1 - t0

    def __enter__(self):
        for _ in range(50):          # warm the kernel before it is timed
            self.kernel()
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.siginterrupt(signal.SIGALRM, False)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._old)
        return False

    def _slice(self, a_ns, b_ns):
        return (bisect_left(self.starts, a_ns, 0, self.n),
                bisect_left(self.starts, b_ns, 0, self.n))

    def busy_ns(self, a_ns, b_ns):
        """Kernel time inside ``[a_ns, b_ns)``.  A call never straddles a
        stamp the program takes, as both run in the one thread."""
        i, j = self._slice(a_ns, b_ns)
        return self.busy[j] - self.busy[i]

    def speed(self, a_ns, b_ns, fallback=None):
        """Host speed inside ``[a_ns, b_ns)`` relative to the reference;
        ``fallback`` when the interval holds fewer than MIN_SAMPLES calls."""
        i, j = self._slice(a_ns, b_ns)
        if j - i < MIN_SAMPLES:
            if fallback is None:
                raise RuntimeError("gauge: too few kernel calls to measure "
                                   "host speed")
            return fallback
        return self.ref_ns * (j - i) / (self.busy[j] - self.busy[i])

    def at_reference(self, a_ns, b_ns, fallback=None):
        """Seconds the interval would take at the reference speed, without
        the kernel's own calls, at the speed measured inside it."""
        own = b_ns - a_ns - self.busy_ns(a_ns, b_ns)
        return own * 1e-9 * self.speed(a_ns, b_ns, fallback)

    def step_at_reference(self, a_ns, b_ns, fallback):
        """Like :meth:`at_reference` for one short step, at the speed
        measured within ``LOCAL_S`` of it: the host's speed can change
        within a simulation, and a step's latency is compared with the
        other steps'."""
        pad = int(LOCAL_S * 1e9)
        own = b_ns - a_ns - self.busy_ns(a_ns, b_ns)
        return own * 1e-9 * self.speed(a_ns - pad, b_ns + pad, fallback)
