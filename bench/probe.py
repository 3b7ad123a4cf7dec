"""A fixed calibration kernel, timed next to the measured work.

The host this benchmark was tuned on is a shared 2-vCPU VM whose speed
switches between regimes about 1.5x apart, for seconds to minutes at a time,
whatever runs on it (a fixed kernel's time moves with the regime; the
process's CPU time moves with it too, so this is not preemption).  Raw wall
times of one workload then spread across invocations by about as much as
their regression bound.  The child therefore times this kernel right after
every step and after set-up, and run.py reports each interval in *reference
seconds*: the wall time divided by the kernel's slowdown measured next to
it, ``(kernel time / REFERENCE_S) ** EXPONENT``.  A change to surfflow moves
reference seconds as it moves wall seconds; a change of host regime moves the
step and the kernel together and cancels.  Raw wall times are printed as well.

The kernel mixes the two kinds of work a surfflow step does: interpreted
Python (a dict-update loop) and a sparse LU (SuperLU on a 16x16 grid
Laplacian).  It uses no surfflow code, so no change to surfflow moves it.
"""

from __future__ import annotations

import statistics
import time

import scipy.sparse as sp
from scipy.sparse.linalg import splu

# median kernel time on the recorded setup (bench/README.md) in its usual,
# slower regime; it only sets the scale of the reported times
REFERENCE_S = 2.5e-3
# surfflow steps move less with the regime than the kernel does: over 51
# runs of both gated workloads, log step time against log kernel time had a
# slope of 0.4 to 0.6 (lowered by the kernel's own jitter), and scaling by
# the kernel time to this power gave the steadiest medians across
# invocations on both (bench/README.md)
EXPONENT = 0.75
_LOOP = 8000
_GRID = 16


class Probe:
    def __init__(self):
        d = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(_GRID, _GRID))
        eye = sp.eye(_GRID)
        self._a = (sp.kron(eye, d) + sp.kron(d, eye)
                   + 0.1 * sp.eye(_GRID * _GRID)).tocsc()

    def _once(self) -> float:
        t = time.monotonic()
        acc = {}
        for i in range(_LOOP):
            acc[i & 255] = acc.get(i & 255, 0) + i
        splu(self._a)
        return time.monotonic() - t

    def slowdown(self, passes: int = 1) -> float:
        """Slowdown of surfflow work now: the median kernel time over
        ``passes`` passes, over REFERENCE_S, to the power EXPONENT."""
        kernel = statistics.median(self._once() for _ in range(passes))
        return (kernel / REFERENCE_S) ** EXPONENT

    def slowdown_after_step(self, step_s: float) -> float:
        """One pass per 0.1 s of step (at most 8): about 2% of a long step,
        so that one pass's jitter does not set a long step's scale."""
        return self.slowdown(min(8, 1 + int(step_s / 0.1)))
