"""Machine-speed gauge: rescales measured times to a reference speed.

On a shared machine the speed of a core drifts by up to 2x within
seconds to minutes (co-tenant load), and process CPU time drifts with it.
A pass of a few seconds often spans both a fast and a slow phase, so a
calibration taken before or after the pass does not track it.  The gauge
instead samples the speed during the measured block: a timer signal runs
a short fixed kernel every ``INTERVAL_S`` on the measuring thread and
records the kernel's CPU time (``time.thread_time``, so time spent waiting
for the GIL on the threaded workload is not counted).

A block's reference time is its wall time minus the time spent in the
kernel, multiplied by the mean of ``reference / sample``: the speed
relative to the reference, averaged over the block.  The kernels use
nothing from ``extraction_lab``, so no library change moves them.

There are two kernels.  The pass kernel mixes what the workloads spend
their time on: dict and tuple updates, float arithmetic and small complex
Hermitian ``eigvalsh`` calls.  Set-up starts before numpy is imported, so
the set-up kernel is the same loop without the eigenvalue call.  Each
reference is the kernel's CPU time on the shared 2-vCPU virtual machine
where the baseline in README.md was recorded, at its fast (uncontended)
speed, so reference seconds read close to wall seconds on that machine
when it is idle.
"""

from __future__ import annotations

import contextlib
import signal
from time import perf_counter, thread_time

INTERVAL_S = 0.01
SETUP_KERNEL = (400, 1.35e-4)   # (loops, reference CPU seconds), pure Python
PASS_KERNEL = (60, 4.5e-4)      # (loops, reference CPU seconds), with eigvalsh


def _kernel(loops: int, eigvalsh, matrix) -> dict:
    acc: dict = {}
    x = 0.5
    for i in range(loops):
        key = (i & 7, i & 3)
        top = 1.0 if eigvalsh is None else float(eigvalsh(matrix)[-1])
        x = x * 0.999 + top / (i + 1)
        acc[key] = acc.get(key, 0.0) + x
    return acc


class Gauge:
    """Samples a kernel's CPU time while active; see the module docstring."""

    def __init__(self, with_numpy: bool, span=None):
        # ``span``, when given, is a tracer's span factory: each sample is
        # then recorded as a span, so no layer's self time includes it.
        self.span = span or (lambda name: contextlib.nullcontext())
        self.eigvalsh = self.matrix = None
        self.loops, self.reference_cpu_s = SETUP_KERNEL
        if with_numpy:
            import numpy as np

            g = np.random.default_rng(0).standard_normal((2, 3, 3))
            g = g[0] + 1j * g[1]
            self.matrix = g @ g.conj().T
            self.eigvalsh = np.linalg.eigvalsh
            self.loops, self.reference_cpu_s = PASS_KERNEL
        self.samples: list[float] = []
        self.spent_s = 0.0

    def _tick(self, signum, frame):
        with self.span("bench.gauge"):
            w0, c0 = perf_counter(), thread_time()
            _kernel(self.loops, self.eigvalsh, self.matrix)
            self.samples.append(thread_time() - c0)
            self.spent_s += perf_counter() - w0

    def start(self) -> None:
        self.samples, self.spent_s = [], 0.0
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def reference_s(self, wall_s: float) -> float:
        """``wall_s`` of the block, without the kernel, at reference speed."""
        if not self.samples:
            raise RuntimeError("block too short for the speed gauge")
        speed = sum(self.reference_cpu_s / s for s in self.samples) / len(self.samples)
        return (wall_s - self.spent_s) * speed
