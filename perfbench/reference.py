"""Reference kernel: fixed work, timed during the run, that rescales op times.

On a shared host the CPU this process gets switches between a fast and a
slow state, about 1.3-1.8x apart.  A state can hold for minutes or flip
within a second.  A wall time then depends on the state more than on the
program.  So while ops run, a timer interrupts them every
``INTERVAL_S`` and times this kernel.  The harness takes the kernel's own
time out of the op time and multiplies the rest by the mean speed
(1/slowdown) that the kernel saw.

The kernel calls no mckvlab code, so a change to the library cannot move
it.  It has two parts, because the slow state slows them by different
amounts: an interpreter-bound loop over small FFTs, like the spectral
layer's pad/crop/transform calls (about 1.75x), and a gather of random
cache lines from an 8 MB slab, like the observation gather (about 1.3x).
Each workload weights the two parts by the share of its op time that is
of each kind.
"""

from __future__ import annotations

import signal
import statistics
import time
from array import array

import numpy as np

# about the fast-state times of the two parts on the 2-vCPU host the
# benchmark was tuned on; only their being fixed matters, they set the unit
INTERP_NOMINAL_S = 0.65e-3
MEMORY_NOMINAL_S = 0.75e-3
INTERVAL_S = 0.1


class Reference:
    """Slowdown of the machine now against the nominal times."""

    def __init__(self, interp_share: float):
        rng = np.random.default_rng(0)
        self.interp_share = interp_share
        self._x0 = rng.standard_normal(32) + 1j * rng.standard_normal(32)
        self._slab = rng.standard_normal((64, 2000, 8))
        self._rows = rng.integers(0, 2000, 250)
        # one row per sample: when it started, how long it took, slowdown
        self.at = array("d")
        self.took = array("d")
        self.slowdown = array("d")

    def _interp(self):
        x0 = self._x0
        x = x0
        for _ in range(15):
            v = np.fft.ifft(x)
            z = np.zeros(48, complex)
            z[:16] = x[:16]
            z[-16:] = x[-16:]
            w = np.fft.fft(np.fft.ifft(z) * 1.0001)
            x = w[:32] * 0.5 + x0 * 0.5 + v.sum() * 1e-9
        return x

    def _memory(self):
        return float(self._slab[:, self._rows, :].sum())

    def sample(self, *_signal_args) -> float:
        """Run the kernel once; the weighted slowdown (1 at nominal speed)."""
        clock = time.perf_counter
        t0 = clock()
        self._interp()
        t1 = clock()
        self._memory()
        t2 = clock()
        slowdown = (self.interp_share * (t1 - t0) / INTERP_NOMINAL_S
                    + (1 - self.interp_share) * (t2 - t1) / MEMORY_NOMINAL_S)
        self.at.append(t0)
        self.took.append(t2 - t0)
        self.slowdown.append(slowdown)
        return slowdown

    def start(self):
        """Sample every INTERVAL_S of wall time from a SIGALRM timer."""
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def window(self, t0: float, t1: float) -> tuple[float, float]:
        """(kernel seconds, mean speed) of the samples started in [t0, t1).

        Speed is 1/slowdown.  With no sample in the window, the latest one
        before it stands in.  Call after :meth:`stop`.
        """
        lo, hi = np.searchsorted(np.array(self.at), [t0, t1])
        took = float(np.sum(self.took[lo:hi]))
        if lo == hi:
            lo, hi = lo - 1, lo
        return took, float(np.mean(1.0 / np.array(self.slowdown[lo:hi])))

    def median_slowdown(self, since: int = 0) -> float:
        return statistics.median(self.slowdown[since:])
